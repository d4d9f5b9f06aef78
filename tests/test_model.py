"""Sequence algebra, config validation, and core type invariants."""

import random
from fractions import Fraction

import pytest

from csts.model import (
    EventDataset,
    EventInstance,
    EventType,
    MiningConfig,
    as_fraction,
    canonical_key,
    format_pattern,
    is_proper_supersequence,
    is_supersequence,
    parse_pattern,
)


def brute_force_contains(outer, inner):
    return any(
        all(outer[k + i] == inner[i] for i in range(len(inner)))
        for k in range(len(outer) - len(inner) + 1)
    )


def random_pattern(rng, max_len=8, n_types=5):
    return tuple(rng.randrange(n_types) for _ in range(rng.randint(1, max_len)))


class TestSupersequence:
    def test_prefix_is_subsequence(self):
        assert is_supersequence((0, 1, 2, 4), (0, 1))

    def test_equal_patterns(self):
        s = (1, 2, 3)
        assert is_supersequence(s, s)
        assert not is_proper_supersequence(s, s)

    def test_gapped_containment_rejected(self):
        assert not is_supersequence((0, 1, 2), (0, 2))

    def test_interior_run(self):
        assert is_proper_supersequence((0, 1, 1, 2, 4, 2), (1, 2, 4))

    def test_offset_zero(self):
        assert is_proper_supersequence((1, 1, 2, 4, 2), (1, 1))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            is_supersequence((), (1,))

    def test_agrees_with_brute_force_scan(self):
        rng = random.Random(7)
        for _ in range(2000):
            outer = random_pattern(rng)
            inner = random_pattern(rng)
            assert is_supersequence(outer, inner) == (
                len(inner) <= len(outer) and brute_force_contains(outer, inner)
            )

    def test_reflexive_and_transitive(self):
        rng = random.Random(11)
        # Directed generation: embed c in b and b in a so the transitivity
        # premise actually fires.
        for _ in range(500):
            c = random_pattern(rng, max_len=4)
            pad = lambda: tuple(rng.randrange(5) for _ in range(rng.randint(0, 2)))
            b = pad() + c + pad()
            a = pad() + b + pad()
            assert is_supersequence(c, c)
            assert is_supersequence(b, c) and is_supersequence(a, b)
            assert is_supersequence(a, c)
            if is_proper_supersequence(a, b) and is_proper_supersequence(b, c):
                assert is_proper_supersequence(a, c)
            assert not is_proper_supersequence(c, c)


class TestCanonicalKey:
    def test_same_length_lexicographic(self):
        assert canonical_key((0, 1)) < canonical_key((1, 0))

    def test_longer_sorts_later(self):
        assert canonical_key((0, 1, 2)) > canonical_key((4, 2))

    def test_level2_order(self):
        # A=0 B=1 C=2 D=3 E=4
        row = [(1, 2), (2, 4), (1, 1), (0, 1), (4, 2), (1, 3)]
        assert sorted(row, key=canonical_key) == [
            (0, 1), (1, 1), (1, 2), (1, 3), (2, 4), (4, 2),
        ]


class TestPatternParsing:
    def test_round_trip(self):
        mapping = {"A": 0, "B": 1, "C": 2}
        assert parse_pattern("A->B->C", mapping) == (0, 1, 2)
        assert parse_pattern(" A -> B ", mapping) == (0, 1)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            parse_pattern("A->Z", {"A": 0})

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_pattern("A->->B", {"A": 0, "B": 1})

    def test_format(self):
        assert format_pattern((0, 1)) == "0->1"


class TestConfig:
    def test_fraction_coercion_from_decimal_string(self):
        cfg = MiningConfig(radius=1, window=1, theta="0.1", epsilon="0.25")
        assert cfg.theta == Fraction(1, 10)
        assert cfg.epsilon == Fraction(1, 4)

    def test_fraction_coercion_from_float_uses_decimal_intent(self):
        assert as_fraction(0.1) == Fraction(1, 10)

    def test_strictness(self):
        strict = MiningConfig(radius=1, window=1, theta="0.25")
        loose = MiningConfig(radius=1, window=1, theta="0.25", strict_theta=False)
        assert not strict.passes_theta(Fraction(1, 4))
        assert loose.passes_theta(Fraction(1, 4))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0, "window": 1},
            {"radius": 1, "window": 0},
            {"radius": 1, "window": 1, "theta": 1},
            {"radius": 1, "window": 1, "epsilon": "1.5"},
            {"radius": 1, "window": 1, "metric": "manhattan"},
            {"radius": 1, "window": 1, "max_length": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MiningConfig(**kwargs)


class TestDataset:
    def test_by_type_partition(self):
        types = [EventType(0, "A"), EventType(1, "B")]
        instances = [
            EventInstance(0, 0, 0.0, 0.0, 0.0),
            EventInstance(1, 1, 1.0, 1.0, 5.0),
            EventInstance(2, 1, 2.0, 2.0, 9.0),
        ]
        ds = EventDataset(types, instances)
        assert sum(ds.count(t.id) for t in ds.types) == len(ds)
        assert ds.id_of("B") == 1
        assert ds.pattern_labels((0, 1)) == ["A", "B"]

    def test_bad_idx_rejected(self):
        with pytest.raises(ValueError):
            EventDataset([EventType(0, "A")], [EventInstance(3, 0, 0.0, 0.0, 0.0)])

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            EventDataset([EventType(0, "A")], [EventInstance(0, 7, 0.0, 0.0, 0.0)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            EventDataset([EventType(0, "A"), EventType(1, "A")], [])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventInstance(0, 0, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize("x, y", [(float("nan"), 1.0), (0.0, float("nan")),
                                      (float("inf"), 0.0), (0.0, -float("inf"))])
    def test_non_finite_coordinates_rejected(self, x, y):
        # Every instance must fall into a well-defined cell of the index.
        with pytest.raises(ValueError, match="finite"):
            EventInstance(0, 0, x, y, 0.0)
