"""Validation of the bundled example dataset against its frozen facts.

The example dataset is only trustworthy if every stated fact about it holds
under the brute-force oracle; these tests are the gate every other
example-dataset test stands on.
"""

import csv
from fractions import Fraction
from pathlib import Path

import pytest

from csts.model import MiningConfig
from csts.oracle import (
    EXAMPLE_RADIUS,
    EXAMPLE_WINDOW,
    example_config,
    example_dataset,
    oracle_all_patterns,
)

from expected import (
    EXAMPLE_NAME_TO_IDX,
    EXPECTED_AT_04,
    EXPECTED_LATTICE,
    EXPECTED_N_A1_B,
    EXPECTED_N_C1_E,
    EXPECTED_SUPPORTS_ABC,
    lattice_as_patterns,
    naive_neighborhood,
)

DATA_CSV = Path(__file__).resolve().parents[1] / "src" / "csts" / "data" / "example_events.csv"


@pytest.fixture(scope="module")
def dataset():
    return example_dataset()


@pytest.fixture(scope="module")
def names(dataset):
    return EXAMPLE_NAME_TO_IDX


def idx_set(names, labels):
    return frozenset(names[n] for n in labels)


def test_shape(dataset):
    assert len(dataset) == 61
    assert [t.label for t in dataset.types] == ["A", "B", "C", "D", "E"]
    counts = {t.label: dataset.count(t.id) for t in dataset.types}
    assert counts == {"A": 2, "B": 8, "C": 8, "D": 3, "E": 40}


def test_reference_neighborhoods(dataset, names):
    cfg = example_config()
    b = dataset.id_of("B")
    e = dataset.id_of("E")
    assert naive_neighborhood(dataset, cfg, names["a1"], b) == idx_set(names, EXPECTED_N_A1_B)
    assert naive_neighborhood(dataset, cfg, names["c1"], e) == idx_set(names, EXPECTED_N_C1_E)


def test_latest_instance_has_empty_neighborhoods(dataset):
    cfg = example_config()
    latest = max(dataset.instances, key=lambda i: i.time)
    for t in dataset.types:
        assert naive_neighborhood(dataset, cfg, latest.idx, t.id) == frozenset()


def test_support_chain_of_abc(dataset, names):
    cfg = example_config()
    pattern = dataset.parse_pattern("A->B->C")
    support = frozenset(i.idx for i in dataset.by_type[pattern[0]])
    chain = [support]
    for element in pattern[1:]:
        support = frozenset().union(
            *(naive_neighborhood(dataset, cfg, e, element) for e in support)
        )
        chain.append(support)
    expected = [idx_set(names, s) for s in EXPECTED_SUPPORTS_ABC]
    assert chain == expected


def test_full_lattice_at_theta_02(dataset):
    got = dict(oracle_all_patterns(dataset, example_config(theta="0.2")))
    assert got == lattice_as_patterns(dataset)


def test_exact_fraction_rows(dataset):
    got = dict(oracle_all_patterns(dataset, example_config(theta="0.2")))
    assert got[dataset.parse_pattern("B->B->D")] == Fraction(1, 3)
    assert got[dataset.parse_pattern("A->B->C")] == Fraction(3, 8)
    assert got[dataset.parse_pattern("C->E")] == Fraction(4, 5)
    assert got[dataset.parse_pattern("A->B->B->C->E->C")] == Fraction(1, 4)


def test_lattice_at_theta_04(dataset):
    got = oracle_all_patterns(dataset, example_config(theta="0.4"))
    names = {"->".join(dataset.pattern_labels(p)) for p, _ in got}
    assert names == EXPECTED_AT_04


def test_lattice_at_theta_09(dataset):
    got = oracle_all_patterns(dataset, example_config(theta="0.9"))
    names = {"->".join(dataset.pattern_labels(p)) for p, _ in got}
    assert names == {"A", "B", "C", "D", "E", "B->D"}


def test_nonstrict_theta_025_keeps_all_26(dataset):
    cfg = example_config(theta="0.25", strict_theta=False)
    assert len(oracle_all_patterns(dataset, cfg)) == 26


def test_strict_theta_025(dataset):
    got = oracle_all_patterns(dataset, example_config(theta="0.25"))
    kept = {"->".join(dataset.pattern_labels(p)) for p, _ in got}
    assert kept == {k for k, v in EXPECTED_LATTICE.items() if v > Fraction(1, 4)}
    assert len(kept) == 18


def test_committed_csv_matches_builder(dataset):
    assert DATA_CSV.exists(), "example_events.csv must be committed with the package"
    with DATA_CSV.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(dataset)
    for row, inst in zip(rows, dataset.instances):
        assert row["type"] == dataset.label_of(inst.event_type)
        assert float(row["x"]) == inst.x
        assert float(row["y"]) == inst.y
        assert float(row["time_minutes"]) == inst.time
