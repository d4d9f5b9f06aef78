"""The index must agree exactly with the naive double-loop filter, and bit
for bit with the per-source loop it replaced."""

import math
import random

import numpy as np
import pytest

from csts import EventDataset, EventInstance, EventType, MiningConfig
from csts.neighborhoods import EARTH_RADIUS_M, NeighborhoodIndex, build_index
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
    miner's union kernel over a one-instance support."""
    source = index.dataset.instances[e_idx].event_type
    local = index.instances_of(source, slice(None)).tolist().index(e_idx)
    return tuple(index.instances_of(
        type_id, index.union_over([local], source, type_id)).tolist())


def _assert_index_matches_naive(dataset, cfg):
    index = build_index(dataset, cfg)
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
    index = build_index(ds, example_config())
    name = EXAMPLE_NAME_TO_IDX
    b = ds.id_of("B")
    e = ds.id_of("E")
    assert set(_neighbors(index, name["a1"], b)) == {name[n] for n in EXPECTED_N_A1_B}
    assert set(_neighbors(index, name["c1"], e)) == {name[n] for n in EXPECTED_N_C1_E}


def test_neighbors_sorted_and_stable_across_queries():
    ds = example_dataset()
    index = build_index(ds, example_config())
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
    assert _neighbors(build_index(ds, cfg), 0, 1) == ()
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
    index = build_index(ds, cfg)
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
    index = build_index(ds, MiningConfig(radius=5.0, window=20.0))
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
    index = build_index(ds, MiningConfig(radius=10.0, window=20.0))
    assert _neighbors(index, 0, 1) == (1,)


def test_integer_radius_whose_square_overflows_float64():
    # 10**200 is a finite float64, but its square, the int 10**400, is not.
    ds, cfg = example_dataset(), example_config()
    far = build_index(ds, MiningConfig(radius=1e200, window=cfg.window))
    assert build_index(ds, MiningConfig(radius=10**200, window=cfg.window)).edge_count \
        == far.edge_count > 0


def _planar_random():
    return (generate_random(RandomSpec(seed=3, n_types=3, n_instances=400,
                                       area=100.0, horizon=300)),
            MiningConfig(radius=15.0, window=60.0))


def test_union_over_matches_per_instance_union():
    # Supports are local ids of one source type; their union at every
    # (source, target) pair decodes to the union of the sources' naive
    # neighborhoods and comes back as sorted local ids of the target type.
    geodesic = _random_geodesic(random.Random(2), 120)  # radius 20 km, 371 edges
    for ds, cfg in [(example_dataset(), example_config()), _planar_random(), geodesic]:
        index = build_index(ds, cfg)
        rng = random.Random(7)
        for _ in range(20):
            for source in range(len(ds.types)):
                count = ds.count(source)
                local = rng.sample(range(count), rng.randint(1, min(count, 10)))
                for target in range(len(ds.types)):
                    want = set()
                    for s in index.instances_of(source, local).tolist():
                        want.update(naive_neighborhood(ds, cfg, s, target))
                    got = index.union_over(local, source, target)
                    assert got.dtype == np.int64
                    assert np.all(np.diff(got) > 0)
                    assert np.all((0 <= got) & (got < ds.count(target)))
                    assert index.instances_of(target, got).tolist() == sorted(want)


def test_edge_blocks_are_ordered_by_source():
    # Contiguous runs per source keep union_over's gather cheap; the
    # (source type, target type) blocks together are the whole relation.
    for ds, cfg in [_planar_random(), _random_geodesic(random.Random(2), 120)]:
        index = build_index(ds, cfg)
        n_types = len(ds.types)
        sizes, edges = 0, set()
        for target in range(n_types):
            for source in range(n_types):
                block = target * n_types + source
                a, b = index._cuts[block], index._cuts[block + 1]
                src, dst = index._src[a:b], index._dst[a:b]
                sizes += b - a
                assert np.all(src[:-1] <= src[1:]), f"block {source} -> {target}"
                assert np.all((0 <= src) & (src < ds.count(source)))
                assert np.all((0 <= dst) & (dst < ds.count(target)))
                edges.update(zip(index.instances_of(source, src).tolist(),
                                 index.instances_of(target, dst).tolist()))
        assert sizes == index.edge_count == len(edges) > 300
        assert edges == _spec_edges(ds, cfg)


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
    idx_a = build_index(base, cfg)
    idx_b = build_index(permuted, cfg)
    for old in range(len(base.instances)):
        for type_id in range(len(base.types)):
            mapped = {relabel[n] for n in _neighbors(idx_a, old, type_id)}
            assert mapped == set(_neighbors(idx_b, relabel[old], type_id))


def test_unknown_ids_raise():
    ds = example_dataset()
    index = build_index(ds, example_config())
    for source, target in [(0, 99), (99, 0), (-1, 0)]:
        with pytest.raises(KeyError):
            index.union_over([0], source, target)
    with pytest.raises(KeyError):
        index.instances_of(99, [0])
    # Local ids outside [0, count) of the source type: A holds 2 instances
    # and E 40, while every mask holds 40 entries.
    a, b, c, e = (ds.id_of(label) for label in "ABCE")
    for support, source, target in [([2], a, b), ([3], a, b), ([40], a, b),
                                    ([-1], e, c), ([0, 40], e, c)]:
        count = ds.count(source)
        with pytest.raises(ValueError, match=rf"'{ds.label_of(source)}'.*\[0, {count}\)"):
            index.union_over(support, source, target)
    assert index.union_over([39], e, c).size == 2


def test_empty_dataset_rejected():
    ds = EventDataset([EventType(0, "A")], [])
    with pytest.raises(ValueError):
        build_index(ds, MiningConfig(radius=1.0, window=1.0))


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
    index = build_index(dataset, cfg)
    got = set()
    for source in dataset.by_type:
        ids = index.instances_of(source, slice(None)).tolist()
        for target in dataset.by_type:
            for local, i in enumerate(ids):
                hits = index.union_over([local], source, target)
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
