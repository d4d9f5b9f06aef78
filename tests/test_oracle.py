"""Self-consistency of the brute-force oracle and the random generator."""

from fractions import Fraction

import pytest

from csts.model import EventDataset, EventInstance, EventType, MiningConfig
from csts.oracle import (
    OracleSizeError,
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    oracle_all_patterns,
    oracle_closed,
    oracle_cmax,
    oracle_closures,
    oracle_csts,
)

from expected import EXPECTED_CLOSURES_BCE


def small_cfg(theta="0", epsilon="0", **kw):
    return MiningConfig(radius=18.0, window=60.0, theta=theta, epsilon=epsilon, **kw)


class TestOracleAll:
    def test_single_instance_dataset(self):
        ds = EventDataset([EventType(0, "A")], [EventInstance(0, 0, 0.0, 0.0, 0.0)])
        got = oracle_all_patterns(ds, small_cfg())
        assert got == [((0,), Fraction(1))]

    def test_theta_one_unreachable(self):
        # theta is capped below 1, and nothing can exceed pi = 1 strictly.
        ds = generate_random(RandomSpec(seed=1, n_types=3, n_instances=20))
        got = oracle_all_patterns(ds, small_cfg(theta="0.999"))
        assert all(pi > Fraction("0.999") for _, pi in got)

    def test_deterministic(self):
        ds = generate_random(RandomSpec(seed=2, n_types=4, n_instances=30))
        a = oracle_all_patterns(ds, small_cfg(theta="0.1"))
        b = oracle_all_patterns(ds, small_cfg(theta="0.1"))
        assert a == b

    def test_pruned_equals_unpruned_filtered(self):
        # theta pruning must only remove patterns that the exhaustive
        # theta=0 enumeration also rejects at that threshold.
        for seed in range(6):
            ds = generate_random(RandomSpec(seed=seed, n_types=4, n_instances=25))
            full = oracle_all_patterns(ds, small_cfg(theta="0"), max_len=5)
            pruned = oracle_all_patterns(ds, small_cfg(theta="0.25"), max_len=5)
            assert pruned == [(p, pi) for p, pi in full if pi > Fraction(1, 4)]

    def test_size_guard_instances(self):
        ds = generate_random(RandomSpec(seed=3, n_types=2, n_instances=201))
        with pytest.raises(OracleSizeError):
            oracle_all_patterns(ds, small_cfg())

    def test_size_guard_length(self):
        ds = generate_random(RandomSpec(seed=3, n_types=2, n_instances=10))
        with pytest.raises(OracleSizeError):
            oracle_all_patterns(ds, small_cfg(), max_len=9)


class TestOracleSubsets:
    def test_containment_chain(self):
        for seed in (0, 5, 9):
            ds = generate_random(RandomSpec(seed=seed, n_types=4, n_instances=30))
            allp = oracle_all_patterns(ds, small_cfg(theta="0.1"), max_len=5)
            closed = oracle_closed(allp)
            for eps in (Fraction(0), Fraction(1, 20), Fraction(1, 4), Fraction(1)):
                csts, _ = oracle_csts(allp, eps)
                assert set(csts) <= set(closed) <= set(allp)

    def test_epsilon_zero_equals_closed(self):
        for seed in (1, 4, 8):
            ds = generate_random(RandomSpec(seed=seed, n_types=4, n_instances=30))
            allp = oracle_all_patterns(ds, small_cfg(theta="0.1"), max_len=5)
            csts, _ = oracle_csts(allp, Fraction(0))
            assert csts == oracle_closed(allp)

    def test_max_length_patterns_are_closed(self):
        ds = example_dataset()
        allp = oracle_all_patterns(ds, example_config(theta="0.2"))
        closed = dict(oracle_closed(allp))
        deepest = max(len(p) for p, _ in allp)
        for p, _ in allp:
            if len(p) == deepest:
                assert p in closed

    def test_cmax_members_share_length_and_pi(self):
        ds = example_dataset()
        allp = oracle_all_patterns(ds, example_config(theta="0.2"))
        pi_of = dict(allp)
        for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1)):
            for s, members in oracle_cmax(allp, eps).items():
                assert members, s
                assert len({len(m) for m in members}) == 1
                assert len({pi_of[m] for m in members}) == 1

    def test_closures_of_worked_pattern(self):
        ds = example_dataset()
        allp = oracle_all_patterns(ds, example_config(theta="0.2"))
        got = oracle_closures(allp, ds.parse_pattern("B->C->E"))
        assert {"->".join(ds.pattern_labels(p)) for p in got} == EXPECTED_CLOSURES_BCE

    def test_epsilon_one_keeps_only_top_supersequences_or_self(self):
        ds = example_dataset()
        allp = oracle_all_patterns(ds, example_config(theta="0.2"))
        csts, cmax = oracle_csts(allp, Fraction(1))
        # at eps=1 the pi bound never bites: every cmax is just the longest
        # supersequences (best pi), so members are maximal or self-qualifiers
        members = {p for p, _ in csts}
        for s, ms in cmax.items():
            for m in ms:
                assert len(m) >= len(s)
        assert all(m in members for ms in cmax.values() for m in ms)


class TestRandomGenerator:
    def test_same_seed_identical(self):
        a = generate_random(RandomSpec(seed=42, n_types=5, n_instances=40))
        b = generate_random(RandomSpec(seed=42, n_types=5, n_instances=40))
        assert a.instances == b.instances
        assert a.types == b.types

    def test_different_seed_differs(self):
        a = generate_random(RandomSpec(seed=1, n_types=5, n_instances=40))
        b = generate_random(RandomSpec(seed=2, n_types=5, n_instances=40))
        assert a.instances != b.instances

    def test_empty(self):
        ds = generate_random(RandomSpec(seed=1, n_types=3, n_instances=0))
        assert len(ds) == 0

    def test_bounds(self):
        spec = RandomSpec(seed=7, n_types=4, n_instances=100, area=50.0, horizon=200)
        ds = generate_random(spec)
        for inst in ds.instances:
            assert 0.0 <= inst.x <= 50.0 and 0.0 <= inst.y <= 50.0
            assert 0 <= inst.time <= 200

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RandomSpec(seed=1, n_types=0, n_instances=5)

    def test_horizon_beyond_exact_float64_times_rejected(self):
        # Times are stored as float64; every integer up to 2**53 is exact.
        assert RandomSpec(seed=1, n_types=1, n_instances=1, horizon=2**53).horizon == 2**53
        with pytest.raises(ValueError, match="2\\*\\*53"):
            RandomSpec(seed=1, n_types=1, n_instances=1, horizon=2**53 + 1)
