"""The index must agree exactly with the naive double-loop filter, and bit
for bit with the per-source loop it replaced."""

import math
import random

import numpy as np
import pytest

from csts import EventDataset, EventInstance, EventType, MiningConfig
from csts.neighborhoods import EARTH_RADIUS_M, NeighborhoodIndex
from csts.topdown import mine_all
from csts.oracle import (
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    oracle_all_patterns,
)

from expected import (
    EXAMPLE_NAME_TO_IDX,
    EXPECTED_N_A1_B,
    EXPECTED_N_C1_E,
    naive_neighborhood,
)


def _neighbors(index, e_idx, type_id):
    """Sorted neighbor idx of one instance among one type's instances: the
    miner's union kernel over a batch of one one-instance support."""
    source = index.dataset.instances[e_idx].event_type
    local = index.instances_of(source, slice(None)).tolist().index(e_idx)
    [[union]] = index.union_over([[local]], source, [[type_id]])
    return tuple(index.instances_of(type_id, union).tolist())


def _assert_index_matches_naive(dataset, cfg):
    index = NeighborhoodIndex(dataset, cfg)
    for inst in dataset.instances:
        for type_id in range(len(dataset.types)):
            got = set(_neighbors(index, inst.idx, type_id))
            want = set(naive_neighborhood(dataset, cfg, inst.idx, type_id))
            assert got == want, (
                f"mismatch at idx={inst.idx} type={type_id}: "
                f"index={sorted(got)} naive={sorted(want)}"
            )


def test_fixture_index_matches_naive_everywhere():
    _assert_index_matches_naive(example_dataset(), example_config())


def test_fixture_named_neighborhoods_through_index():
    ds = example_dataset()
    index = NeighborhoodIndex(ds, example_config())
    name = EXAMPLE_NAME_TO_IDX
    b = ds.parse_pattern("B")[0]
    e = ds.parse_pattern("E")[0]
    assert set(_neighbors(index, name["a1"], b)) == {name[n] for n in EXPECTED_N_A1_B}
    assert set(_neighbors(index, name["c1"], e)) == {name[n] for n in EXPECTED_N_C1_E}


def test_neighbors_sorted_and_stable_across_queries():
    ds = example_dataset()
    index = NeighborhoodIndex(ds, example_config())
    for inst in ds.instances:
        for type_id in range(len(ds.types)):
            first = _neighbors(index, inst.idx, type_id)
            assert list(first) == sorted(first)
            assert _neighbors(index, inst.idx, type_id) == first


def test_random_datasets_match_naive():
    # Many shapes and densities, including tiny horizons that force heavy
    # timestamp collisions (stressing the strictly-later rule).
    rng = random.Random(20240917)
    for trial in range(100):
        spec = RandomSpec(
            seed=rng.randrange(10**9),
            n_types=rng.randint(1, 6),
            n_instances=rng.randint(1, 60),
            area=rng.choice([30.0, 100.0, 250.0]),
            horizon=rng.choice([5, 40, 300]),
        )
        cfg = MiningConfig(
            radius=rng.choice([5.0, 15.0, 40.0, 120.0]),
            window=rng.choice([1.0, 10.0, 60.0]),
        )
        _assert_index_matches_naive(generate_random(spec), cfg)


def _random_geodesic(rng, n):
    instances = [
        EventInstance(
            idx=i,
            event_type=rng.randrange(3),
            x=round(rng.uniform(-0.5, 0.5), 4),      # lon
            y=round(rng.uniform(44.5, 45.5), 4),     # lat
            time=rng.randint(0, 120),
        )
        for i in range(n)
    ]
    ds = EventDataset(
        [EventType(0, "A"), EventType(1, "B"), EventType(2, "C")],
        instances,
    )
    cfg = MiningConfig(
        radius=rng.choice([2_000.0, 20_000.0, 60_000.0]),  # meters
        window=30.0,
        metric="geodesic",
    )
    return ds, cfg


def test_geodesic_random_datasets_match_naive():
    rng = random.Random(5551212)
    for trial in range(30):
        _assert_index_matches_naive(*_random_geodesic(rng, rng.randint(2, 40)))


@pytest.mark.parametrize("window", [0.1, 0.3, 0.7, 2.3, 15.5])
def test_float_times_on_the_window_boundary_match_naive(window):
    # A partner at round(t + window, 2) is on the boundary in decimal, and
    # the float sum t + window can land on either side of it; the index
    # must decide as the naive filter does, with t_f - t_e <= window. Each
    # boundary time is doubled so whole runs of equal times are decided.
    rng = random.Random(str(window))
    for trial in range(10):
        times = []
        for _ in range(rng.randint(5, 30)):
            t = round(rng.uniform(0.0, 2000.0), rng.choice([1, 2]))
            times += [t, round(t + window, 2), round(t + window, 2)]
        ds = EventDataset(
            [EventType(0, "A"), EventType(1, "B")],
            [EventInstance(i, rng.randrange(2), 0.0, 0.0, t)
             for i, t in enumerate(times)],
        )
        _assert_index_matches_naive(ds, MiningConfig(radius=1.0, window=window))


def test_float_time_boundary_pair_mines_like_the_oracle():
    # 901.5 - 901.4 > 0.1 in floats, although 901.4 + 0.1 rounds to 901.5.
    ds = EventDataset(
        [EventType(0, "A"), EventType(1, "B")],
        [EventInstance(0, 0, 0.0, 0.0, 901.4), EventInstance(1, 1, 0.0, 0.0, 901.5)],
    )
    cfg = MiningConfig(radius=1.0, window=0.1)
    assert _neighbors(NeighborhoodIndex(ds, cfg), 0, 1) == ()
    assert [n.pattern for n in mine_all(ds, cfg)] == \
        [p for p, _ in oracle_all_patterns(ds, cfg)] == [(0,), (1,)]


def test_simultaneous_instances_are_never_neighbors():
    # Identical place and time in both directions.
    ds = EventDataset(
        [EventType(0, "A"), EventType(1, "B")],
        [
            EventInstance(0, 0, 10.0, 10.0, 50),
            EventInstance(1, 1, 10.0, 10.0, 50),
        ],
    )
    cfg = MiningConfig(radius=100.0, window=100.0)
    index = NeighborhoodIndex(ds, cfg)
    assert _neighbors(index, 0, 1) == ()
    assert _neighbors(index, 1, 0) == ()


def test_temporal_boundaries():
    # dt == window is in; dt == 0 and dt == window + 1 are out; earlier is out.
    ds = EventDataset(
        [EventType(0, "A"), EventType(1, "B")],
        [
            EventInstance(0, 0, 0.0, 0.0, 100),
            EventInstance(1, 1, 0.0, 0.0, 100),   # simultaneous
            EventInstance(2, 1, 0.0, 0.0, 120),   # dt == window
            EventInstance(3, 1, 0.0, 0.0, 121),   # dt == window + 1
            EventInstance(4, 1, 0.0, 0.0, 99),    # earlier
        ],
    )
    index = NeighborhoodIndex(ds, MiningConfig(radius=5.0, window=20.0))
    assert _neighbors(index, 0, 1) == (2,)


def test_spatial_boundary_is_inclusive():
    ds = EventDataset(
        [EventType(0, "A"), EventType(1, "B")],
        [
            EventInstance(0, 0, 0.0, 0.0, 0),
            EventInstance(1, 1, 6.0, 8.0, 5),    # distance exactly 10
            EventInstance(2, 1, 6.0, 8.001, 5),  # just beyond
        ],
    )
    index = NeighborhoodIndex(ds, MiningConfig(radius=10.0, window=20.0))
    assert _neighbors(index, 0, 1) == (1,)


def test_integer_radius_whose_square_overflows_float64():
    # 10**200 is a finite float64, but its square, the int 10**400, is not.
    ds, cfg = example_dataset(), example_config()
    far = NeighborhoodIndex(ds, MiningConfig(radius=1e200, window=cfg.window))
    near = NeighborhoodIndex(ds, MiningConfig(radius=10**200, window=cfg.window))
    assert near.edge_count == far.edge_count > 0


def _planar_random():
    return (generate_random(RandomSpec(seed=3, n_types=3, n_instances=400,
                                       area=100.0, horizon=300)),
            MiningConfig(radius=15.0, window=60.0))


def test_union_over_matches_per_instance_union():
    # Supports are local ids of one source type; their union at every
    # (source, target) pair decodes to the union of the sources' naive
    # neighborhoods and comes back as sorted local ids of the target type.
    # Each source's 20 supports are one batch.
    geodesic = _random_geodesic(random.Random(2), 120)  # radius 20 km, 371 edges
    for ds, cfg in [(example_dataset(), example_config()), _planar_random(), geodesic]:
        index = NeighborhoodIndex(ds, cfg)
        rng = random.Random(7)
        types = list(range(len(ds.types)))
        for source in types:
            count = ds.count(source)
            supports = [sorted(rng.sample(range(count), rng.randint(1, min(count, 10))))
                        for _ in range(20)]
            unions = index.union_over(supports, source, [types] * len(supports))
            assert len(unions) == len(supports)
            for local, per_target in zip(supports, unions):
                for target, got in zip(types, per_target, strict=True):
                    want = set()
                    for s in index.instances_of(source, local).tolist():
                        want.update(naive_neighborhood(ds, cfg, s, target))
                    assert got.dtype == np.int64
                    assert np.all(np.diff(got) > 0)
                    assert np.all((0 <= got) & (got < ds.count(target)))
                    assert index.instances_of(target, got).tolist() == sorted(want)


def _many_types():
    """26 types, as many as the Boston offense groups: G has no instances,
    and every D instance is later than all others, so D has no out-edges."""
    rng = random.Random(5)
    types = [EventType(i, chr(ord("A") + i)) for i in range(26)]
    type_ids = [rng.choice([t for t in range(26) if t != 6]) for _ in range(600)]
    xs = [round(rng.uniform(0.0, 100.0), 3) for _ in type_ids]
    ys = [round(rng.uniform(0.0, 100.0), 3) for _ in type_ids]
    times = [300 if t == 3 else rng.randint(0, 299) for t in type_ids]
    return (EventDataset.from_columns(types, type_ids, xs, ys, times),
            MiningConfig(radius=15.0, window=60.0))


def test_edge_blocks_are_ordered_by_source():
    # One run per source type, sorted by target type-major id and then by
    # source local id, so the edges into one target instance are one
    # segment for union_over's reduceat, and the segments into one target
    # type one block; together the runs are the whole relation. Each case
    # names the source types whose runs are empty.
    cases = [(*_planar_random(), set()),
             (*_random_geodesic(random.Random(2), 120), set()),
             (*_many_types(), {3, 6})]
    for ds, cfg, idle in cases:
        index = NeighborhoodIndex(ds, cfg)
        n_types = len(ds.types)
        starts = ds.type_starts
        assert len(index._runs) == n_types
        assert {s for s, run in enumerate(index._runs) if run[0].size == 0} == idle
        sizes, edges = 0, set()
        for source, (src, first, dst, blocks) in enumerate(index._runs):
            sizes += src.size
            assert np.all((0 <= src) & (src < ds.count(source)))
            # Segments start at 0 and are never empty; blocks cut them by type.
            assert first.size == dst.size and first[:1].tolist() == [0] * (src.size > 0)
            assert np.all(np.diff(np.append(first, src.size)) > 0)
            assert blocks.size == n_types + 1 and blocks[0] == 0 and blocks[-1] == dst.size
            assert np.all(np.diff(blocks) >= 0)
            seg = np.repeat(np.arange(first.size), np.diff(np.append(first, src.size)))
            target_type = np.searchsorted(blocks, seg, side="right") - 1
            assert np.all((0 <= dst[seg]) & (dst[seg] < np.diff(starts)[target_type]))
            target = starts[target_type] + dst[seg]  # type-major ids
            order = target * ds.count(source) + src
            assert np.all(np.diff(order) > 0), f"run of {source}"
            edges.update(zip(index.instances_of(source, src).tolist(),
                             ds.type_order[target].tolist()))
        assert sizes == index.edge_count == len(edges) > 300
        assert edges == _spec_edges(ds, cfg)


def test_one_union_equals_the_per_target_unions():
    # One batch whose supports each list targets in any order and with
    # repeats returns what the naive union gives for each target on its own.
    empty_type = EventDataset(
        [EventType(0, "A"), EventType(1, "B"), EventType(2, "C")],
        [EventInstance(i, i % 2 * 2, float(i % 5), float(i // 5), i) for i in range(30)])
    cases = [(example_dataset(), example_config()), _planar_random(),
             (empty_type, MiningConfig(radius=2.0, window=10.0))]
    for ds, cfg in cases:
        index = NeighborhoodIndex(ds, cfg)
        n_types = len(ds.types)
        rng = random.Random(11)
        for _ in range(10):
            source = rng.randrange(n_types)
            count = ds.count(source)
            supports = [sorted(rng.sample(range(count), rng.randint(0, min(count, 12))))
                        for _ in range(3)]
            target_lists = [[rng.randrange(n_types) for _ in range(rng.randint(0, 2 * n_types))]
                            for _ in supports]
            got = index.union_over(supports, source, target_lists)
            assert [len(unions) for unions in got] == [len(t) for t in target_lists]
            for local, targets, unions in zip(supports, target_lists, got):
                for target, union in zip(targets, unions):
                    want = set()
                    for s in index.instances_of(source, local).tolist():
                        want.update(naive_neighborhood(ds, cfg, s, target))
                    assert union.dtype == np.int64
                    assert index.instances_of(target, union).tolist() == sorted(want)
        assert index.union_over([[0]], 0, [[]]) == [[]]
        assert index.union_over([], 0, []) == []
        for support in ([], np.empty(0, np.int64)):
            [unions] = index.union_over([support], 0, [range(n_types)])
            assert all(u.size == 0 for u in unions)
        for bad in ([0, n_types], [-1]):
            with pytest.raises(KeyError):
                index.union_over([[0], [0]], 0, [[0], bad])
    # A type with no instances has no support and is no one's neighbor.
    index = NeighborhoodIndex(empty_type, cases[-1][1])
    assert empty_type.count(1) == 0
    assert [u.size for u in index.union_over([[]], 1, [[0, 1, 2]])[0]] == [0, 0, 0]
    assert index.union_over([list(range(15))], 0, [[1]])[0][0].size == 0


@pytest.mark.parametrize("size", [0, 1, 64])
def test_batches_of_any_size_match_the_spec(size):
    # A batch holds up to one word's 64 supports. Supports may be empty or
    # repeated, and each has its own target list, in any order and with
    # repeats; every answer is the union of its sources' neighbors from the
    # spec.
    ds, cfg = _planar_random()
    index = NeighborhoodIndex(ds, cfg)
    n_types = len(ds.types)
    out = {}
    for s, t in _spec_edges(ds, cfg):
        out.setdefault(s, set()).add(t)
    rng = random.Random(size)
    for source in range(n_types):
        count = ds.count(source)
        supports = []
        for j in range(size):
            if j % 9 == 4 and supports:
                supports.append(supports[rng.randrange(len(supports))])  # repeated
            else:
                k = rng.choice([0, 1, 5, count // 3, count])
                supports.append(np.array(sorted(rng.sample(range(count), k)), np.int64))
        target_lists = [[rng.randrange(n_types) for _ in range(rng.randint(0, 5))]
                        for _ in supports]
        unions = index.union_over(supports, source, target_lists)
        assert len(unions) == size
        for support, targets, per_target in zip(supports, target_lists, unions, strict=True):
            sources = index.instances_of(source, support).tolist()
            for target, got in zip(targets, per_target, strict=True):
                want = {i for s in sources for i in out.get(s, ())
                        if ds.type_ids[i] == target}
                assert got.dtype == np.int64
                assert np.all(np.diff(got) > 0)
                assert index.instances_of(target, got).tolist() == sorted(want)


def test_a_batch_longer_than_one_word_raises():
    # 65 supports do not fit one 64-bit word; the message names the limit.
    ds, cfg = _planar_random()
    index = NeighborhoodIndex(ds, cfg)
    with pytest.raises(ValueError, match=r"\b64\b"):
        index.union_over([[0]] * 65, 0, [[0]] * 65)


def test_relabeling_instances_relabels_neighborhoods():
    # Same point set listed in a different order must give the same geometry.
    base = example_dataset()
    cfg = example_config()
    rng = random.Random(99)
    sigma = list(range(len(base.instances)))
    rng.shuffle(sigma)  # position j in the new dataset holds old instance sigma[j]
    relabel = {old: new for new, old in enumerate(sigma)}
    permuted = EventDataset(
        base.types,
        [
            EventInstance(j, base.instances[old].event_type,
                          base.instances[old].x, base.instances[old].y,
                          base.instances[old].time)
            for j, old in enumerate(sigma)
        ],
    )
    idx_a = NeighborhoodIndex(base, cfg)
    idx_b = NeighborhoodIndex(permuted, cfg)
    for old in range(len(base.instances)):
        for type_id in range(len(base.types)):
            mapped = {relabel[n] for n in _neighbors(idx_a, old, type_id)}
            assert mapped == set(_neighbors(idx_b, relabel[old], type_id))


def test_unknown_ids_raise():
    ds = example_dataset()
    index = NeighborhoodIndex(ds, example_config())
    for source, target in [(0, 99), (99, 0), (-1, 0)]:
        with pytest.raises(KeyError):
            index.union_over([[0]], source, [[target]])
    with pytest.raises(KeyError):
        index.instances_of(99, [0])
    # Local ids outside [0, count) of the source type: A holds 2 instances
    # and E 40, while every word array holds 40 entries. One bad support
    # anywhere in a batch raises, and the message names its type.
    a, b, c, e = (ds.parse_pattern(label)[0] for label in "ABCE")
    for support, source, target in [([2], a, b), ([3], a, b), ([40], a, b),
                                    ([-1], e, c), ([0, 40], e, c)]:
        count = ds.count(source)
        for batch in ([support], [[0], support], [[0]] * 70 + [support] + [[1]]):
            with pytest.raises(ValueError, match=rf"'{ds.label_of(source)}'.*\[0, {count}\)"):
                index.union_over(batch, source, [[target]] * len(batch))
    assert index.union_over([[39]], e, [[c]])[0][0].size == 2
    # One target list per support.
    with pytest.raises(ValueError, match="2 supports but 1 target lists"):
        index.union_over([[0], [1]], a, [[b]])


def test_empty_dataset_has_no_edges():
    # With no instances there are no cells to search, under either metric;
    # a type with no instances still answers unions and lookups, empty.
    for metric in ("euclidean", "geodesic"):
        cfg = MiningConfig(radius=1.0, window=1.0, metric=metric)
        index = NeighborhoodIndex(EventDataset([], []), cfg)
        assert index.edge_count == 0
        with pytest.raises(KeyError):
            index.union_over([np.empty(0, np.int64)], 0, [[0]])
        index = NeighborhoodIndex(EventDataset([EventType(0, "A")], []), cfg)
        assert index.edge_count == 0
        [[union]] = index.union_over([np.empty(0, np.int64)], 0, [[0]])
        assert union.size == 0 and union.dtype == np.int64
        assert index.instances_of(0, []).size == 0


# ---------------------------------------------------------------------------
# The per-source loop, kept as the specification of the whole-array build.
# Both compute the same float expressions, so they must agree on every pair,
# even at the exact float radius (where the naive filter's own haversine
# may decide a pair the other way).
# ---------------------------------------------------------------------------

def _spec_edges(dataset, cfg):
    """Every (source idx, target idx) pair, one source at a time."""
    order = sorted(range(len(dataset.instances)),
                   key=lambda i: (dataset.instances[i].time, i))
    times = np.asarray([dataset.instances[i].time for i in order], dtype=np.float64)
    xs = np.asarray([dataset.instances[i].x for i in order], dtype=np.float64)
    ys = np.asarray([dataset.instances[i].y for i in order], dtype=np.float64)
    rad_lats = np.radians(ys)
    half_lats = rad_lats / 2.0
    half_lons = np.radians(xs) / 2.0
    window = float(cfg.window)
    edges = set()
    for pos, e_idx in enumerate(order):
        e = dataset.instances[e_idx]
        lo = int(np.searchsorted(times, times[pos], side="right"))
        hi = lo
        while hi < len(order) and times[hi] - times[pos] <= window:
            hi += 1
        if cfg.metric == "euclidean":
            dx = xs[lo:hi] - e.x
            dy = ys[lo:hi] - e.y
            ok = dx * dx + dy * dy <= float(cfg.radius * cfg.radius)
        else:
            ok = _spec_geodesic(half_lats[lo:hi], half_lons[lo:hi],
                                rad_lats[lo:hi], e) <= float(cfg.radius)
        edges.update((e_idx, order[lo + j]) for j in np.flatnonzero(ok).tolist())
    return edges


def _spec_geodesic(half_lats, half_lons, rad_lats, e):
    s_lat = np.sin(half_lats - math.radians(e.y) / 2.0)
    s_lon = np.sin(half_lons - math.radians(e.x) / 2.0)
    h = s_lat * s_lat + s_lon * s_lon * (
        np.cos(rad_lats) * math.cos(math.radians(e.y)))
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


def _spec_distance(source, target, metric):
    """The distance the spec computes from ``source`` to ``target``."""
    if metric == "euclidean":
        dx = np.array([target.x]) - source.x
        dy = np.array([target.y]) - source.y
        return math.sqrt((dx * dx + dy * dy)[0])
    rad_lat = np.radians(np.array([target.y]))
    return float(_spec_geodesic(rad_lat / 2.0, np.radians(np.array([target.x])) / 2.0,
                                rad_lat, source)[0])


def _assert_index_matches_spec(dataset, cfg):
    # Every instance's neighbors of every type, from one batch per source
    # type whose supports are its instances, one each.
    index = NeighborhoodIndex(dataset, cfg)
    got = set()
    types = list(range(len(dataset.types)))
    for source in types:
        ids = index.instances_of(source, slice(None)).tolist()
        unions = index.union_over([[local] for local in range(len(ids))], source,
                                  [types] * len(ids))
        for i, per_target in zip(ids, unions, strict=True):
            for target, hits in zip(types, per_target, strict=True):
                got.update((i, j) for j in index.instances_of(target, hits).tolist())
    want = _spec_edges(dataset, cfg)
    assert got == want, f"{cfg}: extra {sorted(got - want)[:5]}, missing {sorted(want - got)[:5]}"
    assert index.edge_count == len(want)


def _dataset(points, n_types=2, seed=0):
    rng = random.Random(seed)
    return EventDataset(
        [EventType(t, "ABCD"[t]) for t in range(n_types)],
        [EventInstance(i, rng.randrange(n_types), x, y, t)
         for i, (x, y, t) in enumerate(points)])


def _globe_point(rng, region):
    if region == "dateline":
        return rng.choice([-1, 1]) * rng.uniform(179.0, 180.0), rng.uniform(-60.0, 60.0)
    if region == "north pole":
        return rng.uniform(-180.0, 180.0), rng.uniform(89.0, 90.0)
    if region == "south pole":
        return rng.uniform(-180.0, 180.0), rng.uniform(-90.0, -89.0)
    return rng.uniform(-180.0, 180.0), rng.uniform(-90.0, 90.0)


@pytest.mark.parametrize("metric", ["euclidean", "geodesic"])
def test_radius_on_a_pairs_computed_distance_matches_spec(metric):
    # The radius is set to one pair's distance as the index computes it, and
    # to one ulp either side: that pair flips between in and out.
    rng = random.Random(metric)
    regions = ["dateline", "north pole", "south pole", "anywhere"]
    for trial in range(40):
        if metric == "euclidean":
            scale = rng.choice([1.0, 100.0, 1e6])
            points = [(rng.uniform(-scale, scale), rng.uniform(-scale, scale), t)
                      for t in range(rng.randint(2, 25))]
        else:
            region = regions[trial % len(regions)]
            points = [(*_globe_point(rng, region), t)
                      for t in range(rng.randint(2, 25))]
        ds = _dataset(points, seed=trial)
        a, b = sorted(rng.sample(ds.instances, 2), key=lambda e: e.time)
        d = _spec_distance(a, b, metric)
        for radius in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)):
            if radius > 0:
                _assert_index_matches_spec(
                    ds, MiningConfig(radius=radius, window=1e6, metric=metric))


@pytest.mark.parametrize("region", ["dateline", "north pole", "south pole", "anywhere"])
def test_geodesic_random_datasets_match_spec(region):
    # Radii from 1 m to past half the circumference (about 20,015 km).
    rng = random.Random(region)
    for trial in range(12):
        points = [(*_globe_point(rng, region), rng.randint(0, 200))
                  for _ in range(rng.randint(1, 60))]
        radius = rng.choice([1.0, 5e4, 2e5, 1e6, 2.01e7, 3e7])
        _assert_index_matches_spec(
            _dataset(points, n_types=3, seed=trial),
            MiningConfig(radius=radius, window=60.0, metric="geodesic"))


@pytest.mark.parametrize("window", [0.1, 0.7, 15.5])
def test_float_times_on_the_window_boundary_match_spec(window):
    rng = random.Random(window)
    for metric in ("euclidean", "geodesic"):
        times = []
        for _ in range(25):
            t = round(rng.uniform(0.0, 2000.0), rng.choice([1, 2]))
            times += [t, round(t + window, 2)]
        points = [(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01), t) for t in times]
        _assert_index_matches_spec(
            _dataset(points), MiningConfig(radius=1000.0, window=window, metric=metric))


def test_sub_millimetre_geodesic_pair_stays_in_reach():
    # 1e-3 m: the computed distance passes although the latitudes differ by
    # more than 1 + 1e-9 times the radius, so a band margin proportional to
    # the radius alone would drop this pair.
    ds = _dataset([(0.0, 50.59984344979801, 0), (0.0, 50.59984345879123, 1)])
    cfg = MiningConfig(radius=1e-3, window=5.0, metric="geodesic")
    assert _spec_edges(ds, cfg) == {(0, 1)}
    _assert_index_matches_spec(ds, cfg)


def test_radius_far_below_the_coordinates_matches_spec():
    # x / radius near 1e300 must not overflow the cell arithmetic (a
    # RuntimeWarning fails the suite). Repeated points far out and one pair
    # near the origin are the edges.
    far = [(x, 0.0, t) for x in (-1e150, 1e150) for t in (0, 1, 2)]
    near = [(0.0, 0.0, 0), (0.0, 5e-151, 1), (0.0, 2e-150, 2)]
    ds = _dataset(far + near)
    cfg = MiningConfig(radius=1e-150, window=10.0)
    assert len(_spec_edges(ds, cfg)) == 7
    _assert_index_matches_spec(ds, cfg)
