"""Frozen expected values for the bundled example dataset, plus the
test-side reference helpers.

Every number here was derived by hand from the dataset geometry (and is
re-checked against the brute-force oracle by the test suite); tests import
these constants instead of re-deriving them so that a regression in the
oracle and a regression in the miner cannot cancel out.

The helpers at the end build on the oracle's own neighborhood loop and
offset scan, never on the code under test.
"""

from collections import Counter
from fractions import Fraction

from csts.oracle import (
    _canonical_key as canonical_key,
    _contains,
    _NaiveNeighbors,
    example_dataset,
    oracle_closed,
)

F = Fraction

#: All 26 threshold-passing patterns at theta=0.2 with exact participation
#: indexes, keyed by label strings.
EXPECTED_LATTICE: dict[str, Fraction] = {
    # length 1
    "A": F(1),
    "B": F(1),
    "C": F(1),
    "D": F(1),
    "E": F(1),
    # length 2
    "A->B": F(1, 2),
    "B->B": F(5, 8),
    "B->C": F(1, 2),
    "B->D": F(1),
    "C->E": F(4, 5),
    "E->C": F(1, 2),
    # length 3
    "A->B->B": F(1, 4),
    "A->B->C": F(3, 8),
    "A->B->D": F(1, 2),
    "B->B->C": F(1, 2),
    "B->B->D": F(1, 3),
    "B->C->E": F(3, 8),
    "C->E->C": F(1, 4),
    # length 4
    "A->B->B->C": F(1, 4),
    "A->B->C->E": F(3, 8),
    "B->B->C->E": F(3, 8),
    "B->C->E->C": F(1, 4),
    # length 5
    "A->B->B->C->E": F(1, 4),
    "A->B->C->E->C": F(1, 4),
    "B->B->C->E->C": F(1, 4),
    # length 6
    "A->B->B->C->E->C": F(1, 4),
}

#: Patterns surviving theta=0.4 (strict).
EXPECTED_AT_04 = {
    "A", "B", "C", "D", "E",
    "A->B", "B->B", "B->C", "B->D", "C->E", "E->C",
    "A->B->D", "B->B->C",
}

#: The closed subset of the 26-pattern lattice.
EXPECTED_CLOSED = {
    "A", "C", "E",
    "B->B", "B->D", "C->E", "E->C",
    "A->B->D", "B->B->C", "B->B->D",
    "A->B->C->E", "B->B->C->E",
    "A->B->C->E->C",
    "A->B->B->C->E->C",
}

FULL = "A->B->B->C->E->C"

#: cmax of every pattern at epsilon = 1/4 (universe: the 26 above).
EXPECTED_CMAX_EPS_25: dict[str, set[str]] = {
    "A": {"A"},
    "B": {"B->D"},
    "C": {"C->E"},
    "D": {"B->D"},
    "E": {"C->E"},
    "A->B": {FULL},
    "B->B": {"B->B->C->E"},
    "B->C": {FULL},
    "B->D": {"B->D"},
    "C->E": {"C->E"},
    "E->C": {FULL},
    "A->B->B": {FULL},
    "A->B->C": {"A->B->C->E->C"},
    "A->B->D": {"A->B->D"},
    "B->B->C": {FULL},
    "B->B->D": {"B->B->D"},
    "B->C->E": {FULL},
    "C->E->C": {FULL},
    "A->B->B->C": {FULL},
    "A->B->C->E": {"A->B->C->E->C"},
    "B->B->C->E": {FULL},
    "B->C->E->C": {FULL},
    "A->B->B->C->E": {FULL},
    "A->B->C->E->C": {"A->B->C->E->C"},
    "B->B->C->E->C": {FULL},
    FULL: {FULL},
}

#: The constricted pattern set at epsilon = 1/4 (union of the cmax sets).
EXPECTED_CSTS_EPS_25 = {
    "A", "B->D", "C->E",
    "A->B->D", "B->B->D",
    "B->B->C->E",
    "A->B->C->E->C",
    FULL,
}

#: rcmax of the full-length pattern at epsilon = 1/4: the 13 patterns whose
#: cmax is {FULL}, the pattern itself included.
EXPECTED_RCMAX_FULL_EPS_25 = {
    name for name, cm in EXPECTED_CMAX_EPS_25.items() if cm == {FULL}
}

#: Worked-example values at epsilon = 1/10.
EXPECTED_CMAX_BCE_EPS_10 = {"A->B->C->E", "B->B->C->E"}

#: Closures of B->C->E (its closed equal-pi supersequences).
EXPECTED_CLOSURES_BCE = {"A->B->C->E", "B->B->C->E"}

#: Reference neighborhoods (instance names).
EXPECTED_N_A1_B = {"b1", "b2"}
EXPECTED_N_C1_E = {"e1", "e2"}

#: Support chain of A->B->C, element by element.
EXPECTED_SUPPORTS_ABC = (
    {"a1", "a2"},
    {"b1", "b2", "b3", "b4"},
    {"c1", "c2", "c3"},
)


def labels_to_pattern(dataset, name: str):
    """'A->B->C' -> tuple of type ids for the given dataset."""
    return dataset.parse_pattern(name)


def lattice_as_patterns(dataset) -> dict[tuple, Fraction]:
    return {dataset.parse_pattern(k): v for k, v in EXPECTED_LATTICE.items()}


def _example_names(dataset) -> dict[str, int]:
    # Label in lower case plus the 1-based rank within its type, in idx order.
    rank = Counter()
    names = {}
    for inst in dataset.instances:
        label = dataset.label_of(inst.event_type)
        rank[label] += 1
        names[f"{label.lower()}{rank[label]}"] = inst.idx
    return names


#: Instance name (a1, a2, b1, ...) -> example dataset idx, for readable
#: assertions.
EXAMPLE_NAME_TO_IDX: dict[str, int] = _example_names(example_dataset())


def naive_neighborhood(dataset, cfg, e_idx: int, type_id: int) -> frozenset[int]:
    """Reference neighborhood of one instance: the oracle's double-loop
    filter. The fast index must reproduce this set exactly for every
    (instance, type) pair."""
    return _NaiveNeighbors(dataset, cfg)(e_idx, type_id)


def oracle_closures(all_patterns, pattern) -> list:
    """All closures of a pattern: closed supersequences (itself included,
    when closed) with pi equal to the pattern's own pi."""
    pi = dict(all_patterns)[pattern]
    return [
        q
        for q, qpi in oracle_closed(all_patterns)
        if qpi == pi and (q == pattern or (len(q) > len(pattern) and _contains(q, pattern)))
    ]


def is_supersequence(outer, inner) -> bool:
    """Whether ``inner`` occurs in ``outer`` as a contiguous run (equal
    patterns included): the oracle's offset scan, for non-empty patterns."""
    if not outer or not inner:
        raise ValueError("patterns must be non-empty")
    return _contains(outer, inner)
