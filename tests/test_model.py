"""Sequence algebra (the suite's own containment scan and canonical order,
which the miner-vs-oracle tests check against), config validation, and core
type invariants."""

import random
from fractions import Fraction

import numpy as np
import pytest

from csts.model import (
    EventDataset,
    EventInstance,
    EventType,
    MiningConfig,
    as_fraction,
    format_pattern,
    parse_pattern,
)

from expected import canonical_key, is_supersequence


def brute_force_contains(outer, inner):
    return any(
        all(outer[k + i] == inner[i] for i in range(len(inner)))
        for k in range(len(outer) - len(inner) + 1)
    )


def properly_contains(outer, inner):
    return len(outer) > len(inner) and is_supersequence(outer, inner)


def random_pattern(rng, max_len=8, n_types=5):
    return tuple(rng.randrange(n_types) for _ in range(rng.randint(1, max_len)))


class TestSupersequence:
    def test_prefix_is_subsequence(self):
        assert is_supersequence((0, 1, 2, 4), (0, 1))

    def test_equal_patterns(self):
        s = (1, 2, 3)
        assert is_supersequence(s, s)
        assert not properly_contains(s, s)

    def test_gapped_containment_rejected(self):
        assert not is_supersequence((0, 1, 2), (0, 2))

    def test_interior_run(self):
        assert properly_contains((0, 1, 1, 2, 4, 2), (1, 2, 4))

    def test_offset_zero(self):
        assert properly_contains((1, 1, 2, 4, 2), (1, 1))

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
            if properly_contains(a, b) and properly_contains(b, c):
                assert properly_contains(a, c)
            assert not properly_contains(c, c)


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
        assert not strict.passes_theta(1, 4)
        assert loose.passes_theta(1, 4)
        # Integers compared cross-multiplied: 2/8 is 1/4, 26/100 is above it.
        assert not strict.passes_theta(2, 8) and loose.passes_theta(2, 8)
        assert strict.passes_theta(26, 100) and loose.passes_theta(26, 100)
        assert not loose.passes_theta(24, 100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0, "window": 1},
            {"radius": 1, "window": 0},
            {"radius": 1, "window": 1, "theta": 1},
            {"radius": 1, "window": 1, "epsilon": "1.5"},
            {"radius": 1, "window": 1, "metric": "manhattan"},
            {"radius": 1, "window": 1, "max_length": 0},
            {"radius": float("inf"), "window": 1},
            {"radius": 1, "window": float("inf")},
            {"radius": float("nan"), "window": 1},
            {"radius": 1, "window": float("nan")},
            # Finite ints that float64 cannot hold.
            {"radius": 10**400, "window": 1},
            {"radius": 1, "window": 10**400},
            # A length cap must be a positive int, not any number.
            {"radius": 1, "window": 1, "max_length": 2.5},
            {"radius": 1, "window": 1, "max_length": 2.0},
            {"radius": 1, "window": 1, "max_length": True},
            {"radius": 1, "window": 1, "theta": 0, "strict_theta": False, "max_length": 2.5},
            # Thresholds are numbers, as max_length is an int: a bool is not
            # read as 1, nor a string parsed.
            {"radius": True, "window": 1},
            {"radius": 1, "window": True},
            {"radius": "5", "window": 1},
            {"radius": 1, "window": "5"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MiningConfig(**kwargs)


TYPES = [EventType(0, "A"), EventType(1, "B")]
GOOD_COLUMNS = ([0, 1], [0.0, 1.0], [0.0, 1.0], [0, 5])


def _with(column, values):
    """GOOD_COLUMNS with one column replaced."""
    columns = list(GOOD_COLUMNS)
    columns[column] = values
    return columns


def _rows(columns):
    """One EventInstance per row of the columns."""
    return [EventInstance(i, *row) for i, row in enumerate(zip(*columns))]


def _assert_both_refuse(columns, match=None):
    with pytest.raises(ValueError, match=match):
        EventDataset.from_columns(TYPES, *columns)
    with pytest.raises(ValueError, match=match):
        EventDataset(TYPES, _rows(columns))


# Bad columns, each refused by both constructors (short-column only by
# from_columns: rows cannot be of unequal length).
BAD_COLUMNS = [
    pytest.param(0, [0, 2], id="unknown-type"),
    pytest.param(0, [-1, 1], id="negative-type"),
    # Cast to int64 these would read as the valid ids 0 and 1.
    pytest.param(0, [0, 1.5], id="type-1.5"),
    pytest.param(0, [0.2, 1], id="type-0.2"),
    pytest.param(0, ["0", "1"], id="type-as-string"),
    pytest.param(0, [False, True], id="type-as-bool"),
    pytest.param(1, [0.0, float("nan")], id="nan-x"),
    pytest.param(2, [float("inf"), 0.0], id="inf-y"),
    pytest.param(1, [10**400, 0.0], id="1e400-x"),
    pytest.param(3, [0, -1], id="negative-time"),
    pytest.param(3, [0, float("nan")], id="nan-time"),
    pytest.param(3, [0], id="short-column"),
    # Cast to float64 these would be parsed, read as 1 or rounded.
    pytest.param(1, [0.0, "1.5"], id="x-as-string"),
    pytest.param(3, [0, "5"], id="time-as-string"),
    pytest.param(3, [0, True], id="time-as-bool"),
    pytest.param(3, [0, 2**53 + 1], id="time-2**53+1"),
    pytest.param(3, [0, 10**17 + 1], id="time-10**17+1"),
    pytest.param(3, [0.5, 2**53 + 1], id="time-2**53+1-among-floats"),
    pytest.param(3, [np.int64(0), np.int64(2**53 + 1)], id="time-2**53+1-as-numpy-int"),
]


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
        assert ds.parse_pattern("B")[0] == 1
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
        _assert_both_refuse(_with(3, [0, -1.0]), match="non-negative")

    @pytest.mark.parametrize("time", [10**400, 2**53 + 1, float("inf"), float("nan")],
                             ids=["1e400", "2**53+1", "inf", "nan"])
    def test_time_float64_cannot_hold_rejected(self, time):
        # The neighbor index keeps times as float64.
        _assert_both_refuse(_with(3, [0, time]), match="float64")
        exact = _with(3, [0, 2**53])
        for ds in (EventDataset.from_columns(TYPES, *exact), EventDataset(TYPES, _rows(exact))):
            assert ds.times.tolist() == [0, 2**53]

    @pytest.mark.parametrize("x, y", [(float("nan"), 1.0), (0.0, float("nan")),
                                      (float("inf"), 0.0), (0.0, -float("inf")),
                                      pytest.param(10**400, 0.0, id="1e400-0.0"),
                                      pytest.param(0.0, -10**400, id="0.0--1e400")])
    def test_non_finite_coordinates_rejected(self, x, y):
        # Every instance must fall into a well-defined cell of the index.
        _assert_both_refuse(([0], [x], [y], [0]), match="finite")


def _boston_dataset(tmp_path):
    """A loaded Boston file and the rows it keeps, as (label, lon, lat,
    minutes from 2014-01-01T00:00)."""
    from csts.ingestion import load_boston
    kept = [("Robbery", -71.06, 42.35, 60), ("Arson", -71.05, 42.36, 1440 + 30),
            ("Robbery", -71.061, 42.351, 2 * 1440), ("Arson", -71.0, 42.3, 90)]
    lines = ["INCIDENT_NUMBER,OFFENSE_CODE_GROUP,OCCURRED_ON_DATE,Lat,Long"]
    for i, (label, lon, lat, minutes) in enumerate(kept):
        day, rest = divmod(minutes, 1440)
        lines.append(f"I{i},{label},2014-01-{day + 1:02d} {rest // 60:02d}:{rest % 60:02d}:00,"
                     f"{lat},{lon}")
    lines.append("I9,Arson,2015-01-01 00:00:00,42.35,-71.06")  # filtered
    path = tmp_path / "boston.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds, report = load_boston(path)
    assert report.instances_kept == len(kept) and report.filtered == 1
    return ds, kept


class TestColumns:
    """The columns are the dataset; ``instances`` is a view."""

    @staticmethod
    def _datasets(tmp_path):
        from csts.oracle import RandomSpec, example_dataset, generate_random
        return {
            "example": example_dataset(),
            "planar": generate_random(RandomSpec(seed=4, n_types=4, n_instances=300)),
            "geodesic": generate_random(RandomSpec(seed=5, n_types=3, n_instances=200,
                                                   area=0.05, horizon=2000)),
            "boston": _boston_dataset(tmp_path)[0],
        }

    def test_columns_and_instance_view_agree(self, tmp_path):
        for name, ds in self._datasets(tmp_path).items():
            again = EventDataset(ds.types, ds.instances)
            for column in ("type_ids", "xs", "ys", "times", "type_order", "type_starts"):
                assert getattr(again, column).tolist() == getattr(ds, column).tolist(), name
            assert ds.types == again.types
            assert [ds.count(t.id) for t in ds.types] == [again.count(t.id) for t in ds.types]
            assert len(ds) == len(again) == len(ds.instances)
            assert all(inst.idx == i for i, inst in enumerate(ds.instances)), name
            assert [(i.event_type, i.x, i.y, i.time) for i in ds.instances] == list(zip(
                ds.type_ids.tolist(), ds.xs.tolist(), ds.ys.tolist(), ds.times.tolist()))

    def test_type_order_partitions_the_instances_in_idx_order(self, tmp_path):
        # The index numbers each type's instances 0..count-1 in this order.
        for name, ds in self._datasets(tmp_path).items():
            order, starts = ds.type_order.tolist(), ds.type_starts.tolist()
            assert sorted(order) == list(range(len(ds))), name
            assert starts[0] == 0 and starts[-1] == len(ds) and len(starts) == len(ds.types) + 1
            for t in ds.types:
                members = order[starts[t.id]:starts[t.id + 1]]
                assert len(members) == ds.count(t.id)
                assert all(ds.instances[i].event_type == t.id for i in members)
                assert members == sorted(members), name

    def test_loaded_instances_equal_hand_built_ones(self, tmp_path):
        ds, kept = _boston_dataset(tmp_path)
        labels = sorted({row[0] for row in kept})
        types = [EventType(i, label) for i, label in enumerate(labels)]
        hand = EventDataset(types, [EventInstance(i, labels.index(label), lon, lat, minutes)
                                    for i, (label, lon, lat, minutes) in enumerate(kept)])
        assert ds.types == hand.types and ds.instances == hand.instances

    def test_columns_are_read_only(self):
        from csts.oracle import example_dataset
        ds = example_dataset()
        for column in (ds.type_ids, ds.xs, ds.ys, ds.times, ds.type_order, ds.type_starts):
            with pytest.raises(ValueError):
                column[0] = 1

    @pytest.mark.parametrize("column, values", BAD_COLUMNS)
    def test_from_columns_checks_whole_columns(self, column, values):
        assert len(EventDataset.from_columns(TYPES, *GOOD_COLUMNS)) == 2
        with pytest.raises(ValueError):
            EventDataset.from_columns(TYPES, *_with(column, values))

    @pytest.mark.parametrize("column, values",
                             [p for p in BAD_COLUMNS if p.id != "short-column"])
    def test_instance_rows_are_checked_as_columns(self, column, values):
        assert len(EventDataset(TYPES, _rows(GOOD_COLUMNS))) == 2
        with pytest.raises(ValueError):
            EventDataset(TYPES, _rows(_with(column, values)))

    def test_int64_and_float64_arrays_are_kept_without_a_copy(self):
        # The loaders' columns pass through as they are, made read-only.
        columns = (np.array([0, 1], dtype=np.int64), np.array([0.0, 1.0]),
                   np.array([0.0, 1.0]), np.array([0.0, 5.0]))
        ds = EventDataset.from_columns(TYPES, *columns)
        assert all(got is given for got, given in
                   zip((ds.type_ids, ds.xs, ds.ys, ds.times), columns))
        assert not any(column.flags.writeable for column in columns)

    def test_non_integer_type_or_idx_rejected(self):
        # Cast to int64 these would truncate to a valid id.
        types = [EventType(0, "A"), EventType(1, "B")]
        with pytest.raises(ValueError, match="integers"):
            EventDataset(types, [EventInstance(0, 1.5, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="integers"):
            EventDataset(types, [EventInstance(0.5, 0, 0.0, 0.0, 0.0)])

    @pytest.mark.parametrize("label", [" A", "A ", "\tA", "", "A->B", "->", 1, None],
                             ids=["leading-space", "trailing-space", "leading-tab",
                                  "empty", "arrow", "bare-arrow", "int", "none"])
    def test_labels_that_cannot_round_trip_are_refused(self, label):
        # A loader strips each label, drops an empty one and refuses one with
        # "->", and a record joins a pattern's labels with "->".
        types = [EventType(0, "B"), EventType(1, label)]
        with pytest.raises(ValueError, match="event-type label"):
            EventDataset.from_columns(types, [0, 1], [0.0, 1.0], [0.0, 1.0], [0, 5])
        with pytest.raises(ValueError, match="event-type label"):
            EventDataset(types, [EventInstance(0, 1, 0.0, 0.0, 0.0)])

    def test_accepted_labels_round_trip_through_the_generic_schema(self, tmp_path):
        from csts.ingestion import export_generic, load_generic
        labels = ["A B", "Q\"uote", "a,b", "x-y>z", "\u00c4"]  # label-sorted
        types = [EventType(i, label) for i, label in enumerate(labels)]
        ds = EventDataset.from_columns(types, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4],
                                       [0, 0, 0, 0, 0], [0, 5, 9, 12, 20])
        path = tmp_path / "labels.csv"
        export_generic(ds, path)
        again, report = load_generic(path)
        assert again.types == ds.types and report.rows_rejected == 0
        for column in ("type_ids", "xs", "ys", "times"):
            assert getattr(again, column).tolist() == getattr(ds, column).tolist()
