"""The sweep index must agree exactly with the naive double-loop filter."""

import random

import pytest

from csts import EventDataset, EventInstance, EventType, MiningConfig
from csts.neighborhoods import NeighborhoodIndex, build_index
from csts.topdown import mine_all
from csts.oracle import (
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    naive_neighborhood,
    oracle_all_patterns,
    EXAMPLE_NAME_TO_IDX,
)

from expected import EXPECTED_N_A1_B, EXPECTED_N_C1_E


def _assert_index_matches_naive(dataset, cfg):
    index = build_index(dataset, cfg)
    for inst in dataset.instances:
        for type_id in range(len(dataset.types)):
            got = set(index.neighborhood(inst.idx, type_id))
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
    assert set(index.neighborhood(name["a1"], b)) == {name[n] for n in EXPECTED_N_A1_B}
    assert set(index.neighborhood(name["c1"], e)) == {name[n] for n in EXPECTED_N_C1_E}


def test_neighbors_sorted_and_stable_across_queries():
    ds = example_dataset()
    index = build_index(ds, example_config())
    for inst in ds.instances:
        for type_id in range(len(ds.types)):
            first = index.neighborhood(inst.idx, type_id)
            assert list(first) == sorted(first)
            assert index.neighborhood(inst.idx, type_id) == first


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
    assert build_index(ds, cfg).neighborhood(0, 1) == ()
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
    assert index.neighborhood(0, 1) == ()
    assert index.neighborhood(1, 0) == ()


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
    assert index.neighborhood(0, 1) == (2,)


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
    assert index.neighborhood(0, 1) == (1,)


def test_union_over_matches_per_instance_union():
    geodesic = _random_geodesic(random.Random(2), 120)  # radius 20 km, 371 edges
    for ds, cfg in [(example_dataset(), example_config()), geodesic]:
        index = build_index(ds, cfg)
        rng = random.Random(7)
        for _ in range(50):
            sources = rng.sample(range(len(ds.instances)), rng.randint(1, 10))
            for type_id in range(len(ds.types)):
                want = set()
                for s in sources:
                    want.update(index.neighborhood(s, type_id))
                assert index.union_over(sources, type_id).tolist() == sorted(want)


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
            mapped = {relabel[n] for n in idx_a.neighborhood(old, type_id)}
            assert mapped == set(idx_b.neighborhood(relabel[old], type_id))


def test_unknown_ids_raise():
    ds = example_dataset()
    index = build_index(ds, example_config())
    with pytest.raises(KeyError):
        index.neighborhood(len(ds.instances), 0)
    with pytest.raises(KeyError):
        index.neighborhood(-1, 0)
    with pytest.raises(KeyError):
        index.neighborhood(0, 99)
    with pytest.raises(KeyError):
        index.union_over([0], 99)


def test_empty_dataset_rejected():
    ds = EventDataset([EventType(0, "A")], [])
    with pytest.raises(ValueError):
        build_index(ds, MiningConfig(radius=1.0, window=1.0))
