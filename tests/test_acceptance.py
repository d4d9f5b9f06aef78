"""Acceptance suite: the eight go/no-go checks for this package.

Each test prints one pass/fail line under ``pytest -v`` and enforces its
stated budget. The randomized checks pin every seed, so the suite is
deterministic end to end. Shared heavy work (the 100-dataset miner-vs-oracle
grid) is computed once in a module-scoped fixture; the tests that consume it
assert independently.
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from csts import (
    CstsSet,
    MiningConfig,
    approximate_pi,
    extract_closed,
    extract_csts,
    mine_all,
)
from csts.bottomup import run_bottom_up
from csts.cli import main as cli_main
from csts.ingestion import EXAMPLE_EVENTS_FILE
from csts.oracle import (
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    oracle_all_patterns,
    oracle_closed,
    oracle_csts,
)

from expected import is_supersequence

FIXTURE = str(EXAMPLE_EVENTS_FILE)

# --------------------------------------------------------------------------
# shared randomized grid: 100 seeded datasets x theta x epsilon
# --------------------------------------------------------------------------

N_DATASETS = 100
THETAS = ("0", "0.1", "0.25", "0.5")
EPSILONS = ("0", "0.05", "0.25", "1")
MAX_LEN = 7


@dataclass
class GridRun:
    """Everything both routes computed for one (dataset, theta) cell."""
    tree: object
    miner_universe: dict
    oracle_universe: dict
    miner_closed: set
    oracle_closed: set
    miner_members: dict = field(default_factory=dict)   # eps -> {pattern: pi}
    oracle_members: dict = field(default_factory=dict)  # eps -> {pattern: pi}
    summaries: dict = field(default_factory=dict)       # eps -> CstsSet


def _draw_spec(i: int) -> tuple[RandomSpec, float, float]:
    rng = random.Random(1000 + i)
    spec = RandomSpec(
        seed=2000 + i,
        n_types=rng.choice([2, 3, 3, 4, 4, 5]),
        n_instances=rng.randint(8, 40),
    )
    radius = round(rng.uniform(10.0, 24.0), 1)
    window = rng.choice([30.0, 45.0, 60.0, 90.0])
    return spec, radius, window


@pytest.fixture(scope="module")
def grid():
    t0 = time.perf_counter()
    runs = []
    for i in range(N_DATASETS):
        spec, radius, window = _draw_spec(i)
        dataset = generate_random(spec)
        for theta in THETAS:
            cfg = MiningConfig(radius=radius, window=window, theta=theta,
                               epsilon="0", max_length=MAX_LEN)
            tree = mine_all(dataset, cfg)
            universe = oracle_all_patterns(dataset, cfg, max_len=MAX_LEN)
            run = GridRun(
                tree=tree,
                miner_universe={n.pattern: n.pi for n in tree},
                oracle_universe=dict(universe),
                miner_closed={n.pattern for n in extract_closed(tree)},
                oracle_closed={p for p, _ in oracle_closed(universe)},
            )
            for eps in EPSILONS:
                members = extract_csts(tree, run_bottom_up(tree, Fraction(eps)))
                run.miner_members[eps] = {n.pattern: n.pi for n in members}
                run.summaries[eps] = CstsSet(run.miner_members[eps], eps)
                oracle_m, _ = oracle_csts(universe, Fraction(eps))
                run.oracle_members[eps] = dict(oracle_m)
            runs.append(run)
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


# --------------------------------------------------------------------------
# 1. worked-example lattice: exact counts and participation indexes
# --------------------------------------------------------------------------

def test_01_example_lattice_counts_and_pis():
    dataset = example_dataset()
    t0 = time.perf_counter()
    tree = mine_all(dataset, example_config(theta="0.2"))
    elapsed = time.perf_counter() - t0
    assert len(tree) == 26
    want = {
        "B->B->D": Fraction(1, 3),
        "A->B->C": Fraction(3, 8),
        "C->E": Fraction(4, 5),
        "A->B->B->C->E->C": Fraction(1, 4),
    }
    for name, pi in want.items():
        node = tree.node(dataset.parse_pattern(name))
        assert node is not None and node.pi == pi
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2. worked maximal-closure examples at two margins
# --------------------------------------------------------------------------

def test_02_example_cmax_sets_at_two_margins():
    dataset = example_dataset()
    t0 = time.perf_counter()
    tree = mine_all(dataset, example_config(theta="0.2"))

    def cmax_names(cmax, pattern_name):
        node = tree.node(dataset.parse_pattern(pattern_name))
        return {"->".join(dataset.pattern_labels(t.pattern))
                for t in cmax[node]}

    cmax = run_bottom_up(tree, Fraction(1, 4))
    assert cmax_names(cmax, "B->B") == {"B->B->C->E"}
    cmax = run_bottom_up(tree, Fraction(1, 10))
    assert cmax_names(cmax, "B->C->E") == {"A->B->C->E", "B->B->C->E"}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 3. worked closedness examples
# --------------------------------------------------------------------------

def test_03_example_closed_and_closures():
    dataset = example_dataset()
    tree = mine_all(dataset, example_config(theta="0.2"))
    closed = {"->".join(dataset.pattern_labels(n.pattern))
              for n in extract_closed(tree)}
    assert "B->B" in closed
    assert "A->B->B->C->E->C" in closed
    assert "B->C->E" not in closed


# --------------------------------------------------------------------------
# 4. miner equals brute-force oracle over the seeded random grid
# --------------------------------------------------------------------------

def test_04_random_grid_miner_equals_oracle(grid):
    assert len(grid["runs"]) == N_DATASETS * len(THETAS)
    for run in grid["runs"]:
        assert run.miner_universe == run.oracle_universe
        assert run.miner_closed == run.oracle_closed
        for eps in EPSILONS:
            assert run.miner_members[eps] == run.oracle_members[eps]
    assert grid["elapsed"] < 300.0


# --------------------------------------------------------------------------
# 5. structural guarantees on every grid tree
# --------------------------------------------------------------------------

def test_05_structural_guarantees_on_grid_trees(grid):
    for run in grid["runs"]:
        universe = run.miner_universe
        # (a) anti-monotone pi along every parent edge
        for level in run.tree.levels[1:]:
            for node in level:
                assert node.pi <= node.parent1.pi
                assert node.pi <= node.parent2.pi
        # (b) summary within closed within all
        all_set = set(universe)
        assert run.miner_closed <= all_set
        for eps in EPSILONS:
            assert set(run.miner_members[eps]) <= run.miner_closed <= all_set
        # (c) zero margin collapses the summary onto the closed patterns
        assert set(run.miner_members["0"]) == run.miner_closed
        for eps in EPSILONS:
            eps_frac = Fraction(eps)
            summary = run.summaries[eps]
            members = run.miner_members[eps]
            for q, true_pi in universe.items():
                # (d) interval traps the true pi within the margin width
                est = approximate_pi(q, summary)
                assert est is not None
                assert est.lower <= true_pi <= est.upper
                assert est.upper - est.lower <= eps_frac
                # (e) some member extends (or is) every strong pattern
                assert any(is_supersequence(m, q) for m in members)


# --------------------------------------------------------------------------
# 6. worked estimation example on the inclusive-threshold tree
# --------------------------------------------------------------------------

def test_06_example_estimate_interval():
    dataset = example_dataset()
    cfg = example_config(theta="0.25", epsilon="0.25", strict_theta=False)
    tree = mine_all(dataset, cfg)
    members = extract_csts(tree, run_bottom_up(tree, cfg.epsilon))
    summary = CstsSet({n.pattern: n.pi for n in members}, cfg.epsilon)
    query = dataset.parse_pattern("B->B->C")
    est = approximate_pi(query, summary)
    assert est.lower == Fraction(3, 8)
    assert est.upper == Fraction(5, 8)
    true_pi = mine_all(dataset, example_config(theta="0.2")) \
        .node(query).pi
    assert true_pi == Fraction(1, 2)
    assert est.lower <= true_pi <= est.upper


# --------------------------------------------------------------------------
# 7. large synthetic end-to-end run with the same structural guarantees
#    (portal-dataset replication stays optional; this is the substitute)
# --------------------------------------------------------------------------

def test_07_large_synthetic_end_to_end():
    spec = RandomSpec(seed=20260817, n_types=6, n_instances=10_000,
                      area=3000.0, horizon=5000)
    dataset = generate_random(spec)
    assert len(dataset.instances) == 10_000
    cfg = MiningConfig(radius=145.0, window=360.0, theta="0.3",
                       epsilon="0.25", max_length=MAX_LEN)
    t0 = time.perf_counter()
    tree = mine_all(dataset, cfg)
    members = extract_csts(tree, run_bottom_up(tree, cfg.epsilon))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert tree.depth >= 3 and len(tree) > 100

    member_pis = {n.pattern: n.pi for n in members}
    summary = CstsSet(member_pis, cfg.epsilon)
    closed = {n.pattern for n in extract_closed(tree)}
    universe = {n.pattern: n.pi for n in tree}
    # (a)
    for level in tree.levels[1:]:
        for node in level:
            assert node.pi <= node.parent1.pi
            assert node.pi <= node.parent2.pi
    # (b)
    assert set(member_pis) <= closed <= set(universe)
    # (d) + (e) under the mining margin
    eps = Fraction(1, 4)
    for q, true_pi in universe.items():
        est = approximate_pi(q, summary)
        assert est.lower <= true_pi <= est.upper
        assert est.upper - est.lower <= eps
        assert any(is_supersequence(m, q) for m in member_pis)
    # (c) zero margin reproduces the closed set exactly
    members = extract_csts(tree, run_bottom_up(tree, Fraction(0)))
    assert {n.pattern for n in members} == closed


# --------------------------------------------------------------------------
# 8. byte-identical command-line output across runs
# --------------------------------------------------------------------------

def test_08_cli_output_byte_identical(tmp_path):
    argv = ["mine", "--input", FIXTURE, "--radius", "10", "--window", "20",
            "--theta", "0.2", "--epsilon", "0.25", "--algorithm", "csts"]
    blobs = []
    for name in ("r1.jsonl", "r2.jsonl", "r3.jsonl"):
        out = tmp_path / name
        assert cli_main(argv + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    # sanity: the identical stream is the real listing, not an empty file
    records = [json.loads(line)
               for line in blobs[0].decode().splitlines()]
    assert sum(r["record"] == "pattern" for r in records) == 26
