"""Closure phase: worked examples, full fixture maps, structural laws, and
agreement with the brute-force enumerator."""

import random
from fractions import Fraction

import pytest

from csts import MiningConfig
from csts.bottomup import extract_csts, mine_csts, run_bottom_up
from csts.oracle import (
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    oracle_all_patterns,
    oracle_closed,
    oracle_cmax,
    oracle_csts,
)
from csts.topdown import mine_all

from expected import (
    EXPECTED_CMAX_BCE_EPS_10,
    EXPECTED_CMAX_EPS_25,
    EXPECTED_CSTS_EPS_25,
    EXPECTED_RCMAX_FULL_EPS_25,
    FULL,
    is_supersequence,
)


def _names(ds, nodes):
    return {"->".join(ds.pattern_labels(n.pattern)) for n in nodes}


@pytest.fixture()
def fixture_tree():
    return mine_all(example_dataset(), example_config())


def _assert_full_cmax_map_at_quarter(ds, tree, cmax):
    assert list(cmax) == list(tree)
    for node in tree:
        name = "->".join(ds.pattern_labels(node.pattern))
        assert _names(ds, cmax[node]) == EXPECTED_CMAX_EPS_25[name], name


def test_worked_example_bb_at_quarter(fixture_tree):
    ds = example_dataset()
    cmax = run_bottom_up(fixture_tree, "0.25")
    bb = fixture_tree.node(ds.parse_pattern("B->B"))
    assert _names(ds, cmax[bb]) == {"B->B->C->E"}


def test_worked_example_bce_at_tenth(fixture_tree):
    ds = example_dataset()
    cmax = run_bottom_up(fixture_tree, "0.1")
    bce = fixture_tree.node(ds.parse_pattern("B->C->E"))
    assert _names(ds, cmax[bce]) == EXPECTED_CMAX_BCE_EPS_10
    for member in cmax[bce]:
        assert member.pi == Fraction(3, 8)


def test_full_cmax_map_at_quarter(fixture_tree):
    ds = example_dataset()
    _assert_full_cmax_map_at_quarter(ds, fixture_tree,
                                     run_bottom_up(fixture_tree, "0.25"))


def test_one_tree_serves_several_margins_at_once(fixture_tree):
    ds = example_dataset()
    at_quarter = run_bottom_up(fixture_tree, "0.25")
    at_tenth = run_bottom_up(fixture_tree, "0.1")
    _assert_full_cmax_map_at_quarter(ds, fixture_tree, at_quarter)
    bce = fixture_tree.node(ds.parse_pattern("B->C->E"))
    assert _names(ds, at_tenth[bce]) == EXPECTED_CMAX_BCE_EPS_10


def test_margin_is_required_and_range_checked(fixture_tree):
    with pytest.raises(TypeError):
        run_bottom_up(fixture_tree)
    for eps in ["-0.1", "1.5"]:
        with pytest.raises(ValueError):
            run_bottom_up(fixture_tree, eps)


def test_csts_set_at_quarter(fixture_tree):
    ds = example_dataset()
    cmax = run_bottom_up(fixture_tree, "0.25")
    members = extract_csts(fixture_tree, cmax)
    assert _names(ds, members) == EXPECTED_CSTS_EPS_25
    # canonical order, and extraction leaves the map as it was
    assert members == [node for node in fixture_tree if node in set(members)]
    _assert_full_cmax_map_at_quarter(ds, fixture_tree, cmax)


def test_rcmax_of_deepest_pattern(fixture_tree):
    ds = example_dataset()
    cmax = run_bottom_up(fixture_tree, "0.25")
    full = fixture_tree.node(ds.parse_pattern(FULL))
    rcmax = {node for node in fixture_tree if full in cmax[node]}
    assert _names(ds, rcmax) == EXPECTED_RCMAX_FULL_EPS_25
    # the published 12-name listing is a subset (one member was left out of
    # the prose); the true set has 13
    assert len(rcmax) == 13
    listed = {
        FULL, "A->B->B->C->E", "B->B->C->E->C", "A->B->B->C", "B->B->C->E",
        "B->C->E->C", "A->B->B", "B->B->C", "B->C->E", "A->B", "B->C", "E->C",
    }
    assert listed <= EXPECTED_RCMAX_FULL_EPS_25


def test_symmetry_and_cmax_homogeneity(fixture_tree):
    eps = Fraction(1, 4)
    cmax = run_bottom_up(fixture_tree, eps)
    for node in fixture_tree:
        for rep in cmax[node]:
            assert is_supersequence(rep.pattern, node.pattern)
            assert rep.pi >= node.pi - eps
        lengths = {len(rep.pattern) for rep in cmax[node]}
        pis = {rep.pi for rep in cmax[node]}
        assert len(lengths) == 1 and len(pis) == 1


def test_deepest_level_nodes_represent_themselves(fixture_tree):
    cmax = run_bottom_up(fixture_tree, "0.25")
    members = extract_csts(fixture_tree, cmax)
    for node in fixture_tree.levels[-1]:
        assert cmax[node] == {node}
        assert node in members


def test_epsilon_sweep_resets_cleanly(fixture_tree):
    ds = example_dataset()
    # Sweep one tree through several margins; each pass must equal a fresh
    # tree's result for that margin.
    for eps in ["1", "0", "0.25", "0.05", "0.25"]:
        swept = _names(ds, extract_csts(fixture_tree,
                                        run_bottom_up(fixture_tree, eps)))
        fresh = mine_all(ds, example_config())
        assert swept == _names(ds, extract_csts(fresh, run_bottom_up(fresh, eps))), \
            f"eps={eps}"


def test_zero_margin_equals_closed_set(fixture_tree):
    ds = example_dataset()
    got = {n.pattern for n in extract_csts(fixture_tree,
                                           run_bottom_up(fixture_tree, 0))}
    universe = oracle_all_patterns(ds, example_config())
    want = {p for p, _ in oracle_closed(universe)}
    assert got == want


def test_single_level_tree_members():
    ds = example_dataset()
    cfg = MiningConfig(radius=10.0, window=20.0, theta="0.2", max_length=1)
    tree, members = mine_csts(ds, cfg)
    assert [n.pattern for n in members] == [(t,) for t in range(5)]
    cmax = run_bottom_up(tree, cfg.epsilon)
    for n in members:
        assert cmax[n] == {n}


def test_matches_oracle_on_random_datasets():
    rng = random.Random(90210)
    for trial in range(8):
        spec = RandomSpec(
            seed=rng.randrange(10**9),
            n_types=rng.randint(2, 5),
            n_instances=rng.randint(10, 40),
        )
        ds = generate_random(spec)
        for theta in ["0", "0.25"]:
            cfg_kwargs = dict(radius=20.0, window=50.0, theta=theta,
                              max_length=7)
            for eps in ["0", "0.05", "0.25", "1"]:
                cfg = MiningConfig(epsilon=eps, **cfg_kwargs)
                tree = mine_all(ds, cfg)
                cmax = run_bottom_up(tree, cfg.epsilon)
                members = extract_csts(tree, cmax)
                universe = oracle_all_patterns(ds, cfg, max_len=7)
                want_members, want_cmax = oracle_csts(universe, cfg.epsilon)
                tag = f"seed={spec.seed} theta={theta} eps={eps}"
                assert {n.pattern for n in members} == \
                    {p for p, _ in want_members}, tag
                for node in tree:
                    got = {t.pattern for t in cmax[node]}
                    assert got == set(want_cmax[node.pattern]), \
                        f"{tag} pattern={node.pattern}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_oracle_on_deep_full_lattices(seed):
    # theta 0 keeps every pattern up to max_length: 363 nodes over 3 types,
    # each level offering to the ones below with many tied pis.
    ds = generate_random(RandomSpec(seed=seed, n_types=3, n_instances=30,
                                    area=60.0, horizon=200))
    cfg = MiningConfig(radius=25.0, window=80.0, theta=0, strict_theta=False,
                       max_length=5)
    tree = mine_all(ds, cfg)
    assert len(tree) == 3 + 9 + 27 + 81 + 243
    universe = oracle_all_patterns(ds, cfg, max_len=5)
    for eps in ["0", "0.05", "0.2", "1"]:
        cmax = run_bottom_up(tree, eps)
        want_members, want_cmax = oracle_csts(universe, Fraction(eps))
        assert {n.pattern for n in extract_csts(tree, cmax)} == \
            {p for p, _ in want_members}, eps
        for node in tree:
            assert {t.pattern for t in cmax[node]} == set(want_cmax[node.pattern]), \
                f"eps={eps} pattern={node.pattern}"


def test_matches_oracle_across_a_batch_edge():
    # At max_length 6 the full 3-type lattice holds 81 length-5 prefixes of
    # each final type, so growing length 6 splits each type's prefixes into
    # union_over batches of 64 and 17: 1,092 nodes in all.
    ds = generate_random(RandomSpec(seed=1, n_types=3, n_instances=30,
                                    area=60.0, horizon=200))
    cfg = MiningConfig(radius=25.0, window=80.0, theta=0, strict_theta=False,
                       max_length=6)
    tree = mine_all(ds, cfg)
    assert len(tree) == 3 + 9 + 27 + 81 + 243 + 729
    universe = oracle_all_patterns(ds, cfg, max_len=6)
    assert {n.pattern: n.pi for n in tree} == dict(universe)
    for eps in ["0", "0.1"]:
        cmax = run_bottom_up(tree, eps)
        want_members, want_cmax = oracle_csts(universe, Fraction(eps))
        assert {n.pattern for n in extract_csts(tree, cmax)} == \
            {p for p, _ in want_members}, eps
        for node in tree:
            assert {t.pattern for t in cmax[node]} == set(want_cmax[node.pattern]), \
                f"eps={eps} pattern={node.pattern}"


def test_mine_csts_uses_config_epsilon():
    ds = example_dataset()
    tree, members = mine_csts(ds, example_config())  # epsilon 0.25
    assert _names(ds, members) == EXPECTED_CSTS_EPS_25
