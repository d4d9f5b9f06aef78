"""Closed-set extraction and interval estimates."""

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from csts import MiningConfig
from csts.analysis import (
    CstsSet,
    PiEstimate,
    approximate_pi,
    extract_closed,
)
from csts.bottomup import extract_csts, mine_csts, run_bottom_up
from csts.oracle import (
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    oracle_all_patterns,
    oracle_closed,
)
from csts.topdown import mine_all

from expected import (
    EXPECTED_CLOSED,
    EXPECTED_CSTS_EPS_25,
    FULL,
)


def _names(ds, nodes):
    return {"->".join(ds.pattern_labels(n.pattern)) for n in nodes}


@pytest.fixture(scope="module")
def fixture_tree():
    return mine_all(example_dataset(), example_config())


@pytest.fixture(scope="module")
def fixture_csts():
    ds = example_dataset()
    cfg = MiningConfig(radius=10.0, window=20.0, theta="0.25",
                       epsilon="0.25", strict_theta=False)
    tree, members = mine_csts(ds, cfg)
    return CstsSet({n.pattern: n.pi for n in members}, cfg.epsilon), tree


def test_closed_set_exact(fixture_tree):
    ds = example_dataset()
    assert _names(ds, extract_closed(fixture_tree)) == EXPECTED_CLOSED


def test_named_closed_examples(fixture_tree):
    ds = example_dataset()
    closed = {n.pattern for n in extract_closed(fixture_tree)}
    assert ds.parse_pattern("B->B") in closed
    assert ds.parse_pattern(FULL) in closed
    assert ds.parse_pattern("B->C->E") not in closed


def test_closed_matches_oracle_on_random_datasets():
    rng = random.Random(31337)
    for trial in range(10):
        spec = RandomSpec(seed=rng.randrange(10**9), n_types=rng.randint(2, 5),
                          n_instances=rng.randint(10, 40))
        ds = generate_random(spec)
        cfg = MiningConfig(radius=20.0, window=50.0, theta="0.1", max_length=7)
        tree = mine_all(ds, cfg)
        got = {n.pattern for n in extract_closed(tree)}
        want = {p for p, _ in oracle_closed(oracle_all_patterns(ds, cfg, max_len=7))}
        assert got == want, spec.seed


def test_estimate_worked_example(fixture_csts):
    csts, tree = fixture_csts
    ds = example_dataset()
    est = approximate_pi(ds.parse_pattern("B->B->C"), csts)
    assert est == PiEstimate(
        lower=Fraction(3, 8), upper=Fraction(5, 8),
        witness=ds.parse_pattern("B->B->C->E"), exact=False)
    # the query's true pi sits inside
    assert est.lower <= tree.node(ds.parse_pattern("B->B->C")).pi <= est.upper


def test_estimate_exact_when_member(fixture_csts):
    csts, _ = fixture_csts
    ds = example_dataset()
    q = ds.parse_pattern("B->B->C->E")
    est = approximate_pi(q, csts)
    assert est.exact and est.lower == est.upper == Fraction(3, 8)
    assert est.witness == q


def test_estimate_none_when_not_strong(fixture_csts):
    csts, _ = fixture_csts
    ds = example_dataset()
    assert approximate_pi(ds.parse_pattern("B->A"), csts) is None
    assert approximate_pi((0, 1, 2, 3, 4, 0, 1, 2), csts) is None
    assert approximate_pi((99,), csts) is None


def test_estimate_needs_best_witness_not_shortest(fixture_csts):
    # B->B (true pi 5/8) is contained in members of lengths 3, 4 and 6; only
    # the greatest-pi one (B->B->C->E, 3/8) yields an interval that still
    # covers the true value. A shortest-first choice would pick B->B->D
    # (pi 1/3) and cap the interval at 7/12 < 5/8.
    csts, tree = fixture_csts
    ds = example_dataset()
    bb = ds.parse_pattern("B->B")
    bbd = ds.parse_pattern("B->B->D")
    assert bbd in csts and len(bbd) == 3  # the trap exists
    est = approximate_pi(bb, csts)
    assert est.witness == ds.parse_pattern("B->B->C->E")
    assert est.lower == Fraction(3, 8) and est.upper == Fraction(5, 8)
    assert est.lower <= tree.node(bb).pi <= est.upper
    assert Fraction(1, 3) + Fraction(1, 4) < tree.node(bb).pi


def test_every_tree_pattern_estimated_within_margin(fixture_csts):
    csts, tree = fixture_csts
    eps = csts.epsilon
    for node in tree:
        est = approximate_pi(node.pattern, csts)
        assert est is not None, node.pattern
        assert 0 <= est.lower <= est.upper <= 1
        assert est.upper - est.lower <= eps
        assert est.lower <= node.pi <= est.upper, node.pattern


def test_coverage_across_margins():
    ds = example_dataset()
    for eps in ["0", "0.05", "0.25", "1"]:
        cfg = MiningConfig(radius=10.0, window=20.0, theta="0.2", epsilon=eps)
        tree, members = mine_csts(ds, cfg)
        csts = CstsSet({n.pattern: n.pi for n in members}, eps)
        for node in tree:
            est = approximate_pi(node.pattern, csts)
            assert est is not None
            assert est.lower <= node.pi <= est.upper, (eps, node.pattern)
            assert est.upper - est.lower <= Fraction(eps)


def test_csts_set_roundtrips_through_plain_pairs(fixture_csts):
    csts, _ = fixture_csts
    ds = example_dataset()
    rebuilt = CstsSet({p: csts.pi(p) for p in csts.patterns()}, csts.epsilon)
    assert rebuilt.patterns() == csts.patterns()
    assert {"->".join(ds.pattern_labels(p)) for p in rebuilt.patterns()} == \
        EXPECTED_CSTS_EPS_25
    q = ds.parse_pattern("B->B->C")
    assert approximate_pi(q, rebuilt) == approximate_pi(q, csts)


def test_csts_set_validates_epsilon():
    with pytest.raises(ValueError):
        CstsSet({}, "1.5")


@pytest.mark.parametrize("pi", ["3/2", "-1/8"])
def test_csts_set_validates_member_pi(pi):
    with pytest.raises(ValueError, match=r"member 0->1 has pi .* outside \[0, 1\]"):
        CstsSet({(0,): Fraction(1), (0, 1): Fraction(pi)}, "0.1")
    for edge in ["0", "1"]:
        assert CstsSet({(0, 1): Fraction(edge)}, "0.1").pi((0, 1)) == Fraction(edge)


def test_witness_tie_goes_to_canonically_smallest():
    # Both members contain q with the same pi; the mapping lists the
    # canonically larger one first.
    csts = CstsSet({(0, 1, 2): Fraction(1, 2), (0, 1, 0): Fraction(1, 2)},
                   "1/4")
    est = approximate_pi((0, 1), csts)
    assert est == PiEstimate(lower=Fraction(1, 2), upper=Fraction(3, 4),
                             witness=(0, 1, 0), exact=False)


def test_witness_tie_goes_to_shorter_member():
    # (0, 1, 2, 3) sorts before (1, 2, 3) by type ids, but length comes
    # first in the canonical order.
    csts = CstsSet({(0, 1, 2, 3): Fraction(2, 5), (1, 2, 3): Fraction(2, 5)},
                   "0.1")
    assert approximate_pi((1, 2), csts).witness == (1, 2, 3)


def test_interval_upper_clamps_at_one():
    csts = CstsSet({(0, 1): Fraction(9, 10), (2, 3): Fraction(3, 4),
                    (4, 5): Fraction(7, 10)}, "1/4")
    assert approximate_pi((0,), csts) == PiEstimate(
        lower=Fraction(9, 10), upper=Fraction(1), witness=(0, 1), exact=False)
    assert approximate_pi((2,), csts).upper == Fraction(1)
    assert approximate_pi((4,), csts).upper == Fraction(19, 20)


def test_empty_summary_answers_none():
    assert approximate_pi((0,), CstsSet({}, "0.25")) is None


def test_answers_are_shared_and_immutable(fixture_csts):
    csts, _ = fixture_csts
    ds = example_dataset()
    bbc = ds.parse_pattern("B->B->C")
    est = approximate_pi(bbc, csts)
    assert approximate_pi(list(bbc), csts) is est
    # B->B and B->B->C are both claimed by the member B->B->C->E.
    assert approximate_pi(ds.parse_pattern("B->B"), csts) is est
    member = ds.parse_pattern("B->B->C->E")
    assert approximate_pi(member, csts) is approximate_pi(member, csts)
    for field in ("lower", "upper", "witness", "exact"):
        with pytest.raises(AttributeError):
            setattr(est, field, None)
    assert est == PiEstimate(lower=Fraction(3, 8), upper=Fraction(5, 8),
                             witness=member, exact=False)


# ---------------------------------------------------------------------------
# The answer index against the linear scan it replaced
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _substrings(p):
    """Every contiguous substring of pattern p, p itself included."""
    return frozenset(p[i:j] for i in range(len(p)) for j in range(i + 1, len(p) + 1))


def scan_pi(q, csts):
    """Reference: one pass over the members in canonical order, where only
    a strictly greater pi replaces the witness among the members properly
    containing q."""
    q = tuple(q)
    if q in csts:
        value = csts.pi(q)
        return PiEstimate(lower=value, upper=value, witness=q, exact=True)
    witness, best = None, Fraction(-1)
    for p in csts.patterns():
        if len(p) > len(q) and q in _substrings(p) and csts.pi(p) > best:
            witness, best = p, csts.pi(p)
    if witness is None:
        return None
    return PiEstimate(lower=best, upper=min(best + csts.epsilon, Fraction(1)),
                      witness=witness, exact=False)


def _tree_queries(tree, n_types):
    """Every tree pattern and every one-step extension of one, either end."""
    patterns = {node.pattern for node in tree}
    return sorted(patterns
                  | {p + (t,) for p in patterns for t in range(n_types)}
                  | {(t,) + p for p in patterns for t in range(n_types)})


def _assert_index_matches_scan(ds, tree, eps):
    csts = CstsSet({n.pattern: n.pi for n in extract_csts(tree, run_bottom_up(tree, eps))},
                   eps)
    queries = _tree_queries(tree, len(ds.types))
    for q in queries:
        assert approximate_pi(q, csts) == scan_pi(q, csts), (eps, q)
    return len(queries)


@pytest.mark.parametrize("eps", ["0", "0.25", "1"])
def test_index_matches_scan_on_example(eps):
    ds = example_dataset()
    tree = mine_all(ds, example_config())
    assert _assert_index_matches_scan(ds, tree, Fraction(eps)) > len(tree)


def test_index_matches_scan_on_random_datasets():
    rng = random.Random(2024)
    queried = 0
    for trial in range(6):
        spec = RandomSpec(seed=rng.randrange(10**9), n_types=rng.randint(2, 4),
                          n_instances=rng.randint(30, 80))
        ds = generate_random(spec)
        cfg = MiningConfig(radius=25.0, window=80.0, theta="0.1", max_length=6)
        tree = mine_all(ds, cfg)
        for eps in ("0", "0.1", "0.3"):
            queried += _assert_index_matches_scan(ds, tree, Fraction(eps))
    assert queried > 1000


def _hand_built(pis, eps="1/4"):
    return CstsSet({p: Fraction(v) for p, v in pis.items()}, eps)


def test_equal_pis_across_lengths_go_to_canonically_smallest():
    csts = _hand_built({(1, 2, 3, 4): "1/2", (3, 1, 2): "1/2", (0, 1, 2): "1/2"})
    for q in [(1, 2), (1,), (2,), (1, 2, 3), (3,)]:
        assert approximate_pi(q, csts) == scan_pi(q, csts), q
    assert approximate_pi((1, 2), csts).witness == (0, 1, 2)
    assert approximate_pi((1, 2, 3), csts).witness == (1, 2, 3, 4)


@pytest.mark.parametrize("inner_pi,outer_pi", [("1/2", "3/4"), ("3/4", "1/2")])
def test_member_inside_another_member(inner_pi, outer_pi):
    # The inner member stays exact whichever of the two is better; the
    # patterns they share go to the better one.
    csts = _hand_built({(1, 2): inner_pi, (0, 1, 2): outer_pi})
    assert approximate_pi((1, 2), csts) == PiEstimate(
        lower=Fraction(inner_pi), upper=Fraction(inner_pi), witness=(1, 2), exact=True)
    best = (0, 1, 2) if Fraction(outer_pi) > Fraction(inner_pi) else (1, 2)
    for q in [(1,), (2,)]:
        assert approximate_pi(q, csts).witness == best
        assert approximate_pi(q, csts) == scan_pi(q, csts)
    assert approximate_pi((0, 1), csts).witness == (0, 1, 2)


def test_length_one_longer_and_unknown_queries():
    csts = _hand_built({(0, 1, 0): "2/5", (1, 1): "3/5"})
    assert approximate_pi((0,), csts) == PiEstimate(
        lower=Fraction(2, 5), upper=Fraction(13, 20), witness=(0, 1, 0), exact=False)
    assert approximate_pi((1,), csts).witness == (1, 1)
    assert approximate_pi((0, 1, 0, 1), csts) is None  # longer than every member
    assert approximate_pi((7,), csts) is None            # type id no member holds
    assert approximate_pi((0, 7), csts) is None


def test_distinct_pis_that_round_to_one_float_rank_exactly():
    low = Fraction(1, 3)
    high = low + Fraction(1, 10**30)
    assert float(low) == float(high)
    csts = CstsSet({(0, 1): low, (0, 2): high}, "0")
    assert approximate_pi((0,), csts).witness == (0, 2)
    assert approximate_pi((0,), csts) == scan_pi((0,), csts)


def test_many_coprime_denominators_rank_in_small_memory():
    # 2,000 members with pi 1/p for distinct primes p past 100,000: a rank
    # key scaled to the members' common denominator has about 2,000 * 17
    # bits per member (a 9.7 MB peak); one rank per distinct pi stays small.
    # Member (i, i + 1) has pi 1/p_i, so (i,) is answered by (i - 1, i).
    primes = []
    k = 100_001
    while len(primes) < 2000:
        if all(k % d for d in range(3, int(k ** 0.5) + 1, 2)):
            primes.append(k)
        k += 2
    pis = {(i, i + 1): Fraction(1, p) for i, p in enumerate(primes)}
    tracemalloc.start()
    try:
        csts = CstsSet(pis, "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    assert approximate_pi((0,), csts).witness == (0, 1)
    assert [approximate_pi((i,), csts).witness for i in range(1, 2001)] == \
        [(i - 1, i) for i in range(1, 2001)]
