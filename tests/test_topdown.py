"""Breadth-first miner: worked-example lattice, structural invariants, and
agreement with the brute-force enumerator."""

import gc
import pickle
import random
import weakref
from fractions import Fraction
from itertools import groupby

import numpy as np
import pytest

from csts import EventDataset, EventInstance, EventType, MiningConfig, PatternNode
from csts.bottomup import mine_csts
from csts.neighborhoods import WORD_BITS, NeighborhoodIndex
from csts.oracle import (
    RandomSpec,
    example_config,
    example_dataset,
    generate_random,
    oracle_all_patterns,
    oracle_search,
)
from csts.topdown import _capped, gen_and_verify, mine_all, mine_level1

from expected import (
    EXPECTED_AT_04,
    EXPECTED_LATTICE,
    canonical_key,
    lattice_as_patterns,
    naive_neighborhood,
)


@pytest.fixture(scope="module")
def fixture_tree():
    return mine_all(example_dataset(), example_config())


def test_level1_roots(fixture_tree):
    ds = example_dataset()
    index = NeighborhoodIndex(ds, example_config())
    roots = fixture_tree.levels[0]
    assert [n.pattern for n in roots] == [(t,) for t in range(5)]
    for n in roots:
        assert n.pi == 1
        assert n.parent1 is None and n.parent2 is None
        [type_id] = n.pattern
        assert n.last_support.tolist() == list(range(ds.count(type_id)))
        assert (index.instances_of(type_id, n.last_support).tolist()
                == [i.idx for i in ds.instances if i.event_type == type_id])


def test_fixture_lattice_exact(fixture_tree):
    ds = example_dataset()
    want = lattice_as_patterns(ds)
    got = {n.pattern: n.pi for n in fixture_tree}
    assert got == want
    assert len(fixture_tree) == 26
    assert fixture_tree.depth == 6
    assert not fixture_tree.capped


def test_fixture_known_rows(fixture_tree):
    ds = example_dataset()
    assert fixture_tree.node(ds.parse_pattern("B->B->D")).pi == Fraction(1, 3)
    assert fixture_tree.node(ds.parse_pattern("A->B->C")).pi == Fraction(3, 8)
    assert fixture_tree.node(ds.parse_pattern("C->E")).pi == Fraction(4, 5)
    assert fixture_tree.node(ds.parse_pattern("A->B->B->C->E->C")).pi == Fraction(1, 4)


def test_participation_ratio_examples(fixture_tree):
    # A node's final-element ratio: its support's size over its type's count.
    ds = example_dataset()

    def ratio(node):
        return Fraction(len(node.last_support), ds.count(node.pattern[-1]))

    assert ratio(fixture_tree.node(ds.parse_pattern("A->B->C"))) == Fraction(3, 8)
    assert ratio(fixture_tree.node(ds.parse_pattern("B->D"))) == 1
    for root in fixture_tree.levels[0]:
        assert ratio(root) == 1


def test_theta_variants():
    ds = example_dataset()

    def names(theta, strict=True):
        cfg = MiningConfig(radius=10.0, window=20.0, theta=theta,
                           strict_theta=strict)
        return {"->".join(ds.pattern_labels(n.pattern)) for n in mine_all(ds, cfg)}

    assert names("0.9") == {"A", "B", "C", "D", "E", "B->D"}
    assert names("0.4") == EXPECTED_AT_04
    # pi == 0.25 rows sit exactly on the threshold: strict drops them,
    # inclusive keeps the full 26.
    strict_25 = names("0.25", strict=True)
    assert strict_25 == {p for p, pi in EXPECTED_LATTICE.items() if pi > Fraction(1, 4)}
    assert len(strict_25) == 18
    assert names("0.25", strict=False) == set(EXPECTED_LATTICE)


def test_structural_invariants(fixture_tree):
    for depth, level in enumerate(fixture_tree.levels, start=1):
        keys = [canonical_key(n.pattern) for n in level]
        assert keys == sorted(keys)
        assert len(set(n.pattern for n in level)) == len(level)
        for node in level:
            assert len(node.pattern) == depth
            if depth == 1:
                continue
            assert node.parent1.pattern == node.pattern[:-1]
            assert node.parent2.pattern == node.pattern[1:]
    # Growth pairs each node with the nodes sharing one prefix node, so
    # grouped by parent1 each level must give one run per prefix, the runs
    # in canonical order.
    for level in fixture_tree.levels[1:]:
        runs = [p for p, _ in groupby(level, key=lambda n: n.parent1)]
        assert len(set(runs)) == len(runs)
        run_keys = [canonical_key(p.pattern) for p in runs]
        assert run_keys == sorted(run_keys)


def test_node_finds_each_node_and_nothing_else(fixture_tree):
    # node() binary-searches the pattern's level. Every node is found by its
    # pattern, as a tuple or a list; the empty pattern, one longer than the
    # depth and a non-strong one of a present length are not.
    trees = [fixture_tree] + [
        mine_all(generate_random(RandomSpec(seed=seed, n_types=4, n_instances=40)),
                 MiningConfig(radius=20.0, window=50.0, theta="0.1", max_length=7))
        for seed in (3, 17, 29)]
    absent_checked = 0
    for tree in trees:
        present = {node.pattern for node in tree}
        for node in tree:
            assert tree.node(node.pattern) is node
            assert tree.node(list(node.pattern)) is node
        assert tree.node(()) is None
        assert tree.node(tree.levels[-1][0].pattern + (0,)) is None
        types = [node.pattern[0] for node in tree.levels[0]]
        for shorter in tree.levels[:-1]:
            for node in shorter:
                for t in types:
                    for ext in (node.pattern + (t,), (t,) + node.pattern):
                        if ext not in present:
                            assert tree.node(ext) is None, ext
                            absent_checked += 1
    assert absent_checked


def test_finished_tree_is_freed_without_the_cyclic_collector():
    # Nodes link only to shorter patterns, so reference counting alone frees
    # a tree, members included, once its last user drops it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        tree, members = mine_csts(example_dataset(), example_config())
        assert tree.depth == 6 and members
        refs = [weakref.ref(tree.levels[0][0]), weakref.ref(tree.levels[-1][-1])]
        del tree, members
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_anti_monotonicity_every_edge(fixture_tree):
    for node in fixture_tree:
        if node.parent1 is not None:
            assert node.pi <= node.parent1.pi
            assert node.pi <= node.parent2.pi


def _support_chain_from_scratch(dataset, cfg, pattern):
    """Def-style recomputation: fold neighborhoods along the pattern."""
    current = frozenset(i.idx for i in dataset.instances if i.event_type == pattern[0])
    ratios = [Fraction(1)]
    for element in pattern[1:]:
        nxt = set()
        for e_idx in current:
            nxt |= naive_neighborhood(dataset, cfg, e_idx, element)
        current = frozenset(nxt)
        ratios.append(Fraction(len(current), dataset.count(element)))
    return current, min(ratios)


def test_supports_match_recomputation(fixture_tree):
    ds = example_dataset()
    cfg = example_config()
    index = NeighborhoodIndex(ds, cfg)
    for node in fixture_tree:
        support, pi = _support_chain_from_scratch(ds, cfg, node.pattern)
        decoded = index.instances_of(node.pattern[-1], node.last_support)
        assert decoded.tolist() == sorted(support)
        assert node.pi == pi


def test_supports_are_sorted_local_ids(fixture_tree):
    # theta 0 in ge mode keeps zero-support candidates, so empty supports
    # are covered too.
    ds = example_dataset()
    zero = mine_all(ds, MiningConfig(
        radius=10.0, window=20.0, theta=0, strict_theta=False, max_length=3))
    assert any(len(n.last_support) == 0 for n in zero)
    for node in [*fixture_tree, *zero]:
        support = node.last_support
        assert support.dtype == np.int64 and support.ndim == 1
        assert np.all(np.diff(support) > 0)
        assert np.all((0 <= support) & (support < ds.count(node.pattern[-1])))


def test_matches_oracle_on_random_datasets():
    rng = random.Random(424242)
    for trial in range(12):
        spec = RandomSpec(
            seed=rng.randrange(10**9),
            n_types=rng.randint(2, 5),
            n_instances=rng.randint(10, 40),
        )
        ds = generate_random(spec)
        for theta, strict in [("0", True), ("0.1", True), ("0.25", True),
                              ("0.5", True), ("0.25", False)]:
            cfg = MiningConfig(radius=20.0, window=50.0, theta=theta,
                               strict_theta=strict, max_length=7)
            tree = mine_all(ds, cfg)
            got = {n.pattern: n.pi for n in tree}
            want = dict(oracle_all_patterns(ds, cfg, max_len=7))
            assert got == want, f"seed={spec.seed} theta={theta} strict={strict}"


def test_matches_oracle_on_many_type_datasets():
    # The crime-sweep regime: 20-26 types of a few instances each and theta
    # above 0, so a level spans many final types with few prefixes each. One
    # threshold ends the search on its own, the other two are capped.
    rng = random.Random(7)
    for trial in range(3):
        spec = RandomSpec(seed=rng.randrange(10**9), n_types=rng.randint(20, 26),
                          n_instances=rng.randint(150, 200))
        ds = generate_random(spec)
        for theta, strict, max_length in [("0.25", True, 7), ("0.2", False, 7),
                                          ("0.2", True, 3)]:
            cfg = MiningConfig(radius=20.0, window=60.0, theta=theta,
                               strict_theta=strict, max_length=max_length)
            tree = mine_all(ds, cfg)
            want, capped = oracle_search(ds, cfg, max_len=max_length)
            label = f"seed={spec.seed} theta={theta} strict={strict}"
            assert {n.pattern: n.pi for n in tree} == dict(want), label
            assert tree.capped == capped, label


def test_max_length_cap():
    ds = example_dataset()
    capped = mine_all(ds, MiningConfig(radius=10.0, window=20.0, theta="0.2",
                                       max_length=3))
    assert capped.depth == 3
    assert capped.capped
    roomy = mine_all(ds, MiningConfig(radius=10.0, window=20.0, theta="0.2",
                                      max_length=10))
    assert roomy.depth == 6
    assert not roomy.capped
    # The flag is exact: nothing of length 7 passes, and every node links
    # only to nodes of the tree.
    for max_length, want in [(6, False), (5, True)]:
        tree = mine_all(ds, MiningConfig(radius=10.0, window=20.0, theta="0.2",
                                         max_length=max_length))
        assert tree.capped is want and tree.depth == max_length
        members = set(tree)
        assert all(p in members for level in tree.levels[1:] for n in level
                   for p in (n.parent1, n.parent2))


def test_nonstrict_zero_theta_requires_cap():
    ds = example_dataset()
    with pytest.raises(ValueError):
        mine_all(ds, MiningConfig(radius=10.0, window=20.0, theta=0,
                                  strict_theta=False))
    tree = mine_all(ds, MiningConfig(radius=10.0, window=20.0, theta=0,
                                     strict_theta=False, max_length=3))
    assert tree.depth == 3
    # inclusive theta=0 keeps zero-support candidates too
    assert any(n.pi == 0 for n in tree.levels[1])


def test_empty_and_tiny_datasets():
    from csts import EventDataset, EventInstance, EventType
    cfg = MiningConfig(radius=1.0, window=1.0)
    for empty in (EventDataset([], []), EventDataset([EventType(0, "A")], [])):
        for index in (None, NeighborhoodIndex(empty, cfg)):
            tree = mine_all(empty, cfg, index=index)
            assert tree.depth == 0 and len(tree) == 0 and not tree.capped
    single = EventDataset([EventType(0, "A")],
                          [EventInstance(0, 0, 0.0, 0.0, 0)])
    tree = mine_all(single, cfg)
    assert [n.pattern for n in tree] == [(0,)]
    assert tree.levels[0][0].pi == 1


def test_level_functions_compose_like_mine_all():
    ds = example_dataset()
    cfg = example_config()
    index = NeighborhoodIndex(ds, cfg)
    l1 = mine_level1(ds)
    l2 = gen_and_verify(l1, index, cfg)
    before = pickle.dumps(l2)
    l3 = gen_and_verify(l2, index, cfg)
    # Growth leaves the level it grows from, and its ancestors, as they were.
    assert pickle.dumps(l2) == before
    tree = mine_all(ds, cfg)
    assert [n.pattern for n in l2] == [n.pattern for n in tree.levels[1]]
    assert [n.pattern for n in l3] == [n.pattern for n in tree.levels[2]]
    assert [n.pi for n in l3] == [n.pi for n in tree.levels[2]]


def test_prebuilt_index_gives_the_same_tree():
    ds = example_dataset()
    index = NeighborhoodIndex(ds, example_config())
    for theta in ("0", "0.2", "0.4"):
        cfg = MiningConfig(radius=10.0, window=20.0, theta=theta)
        want = [(n.pattern, n.pi) for n in mine_all(ds, cfg)]
        assert [(n.pattern, n.pi) for n in mine_all(ds, cfg, index=index)] == want


@pytest.mark.parametrize("change", [
    {"radius": 11.0}, {"window": 21.0}, {"metric": "geodesic"}])
def test_prebuilt_index_for_other_parameters_rejected(change):
    # Valid degrees, so a geodesic index can be built for it too.
    ds = EventDataset([EventType(0, "A"), EventType(1, "B")],
                      [EventInstance(0, 0, 0.0, 0.0, 0), EventInstance(1, 1, 0.0, 1e-4, 1)])
    index = NeighborhoodIndex(
        ds, MiningConfig(**{"radius": 10.0, "window": 20.0, **change}))
    with pytest.raises(ValueError, match="radius, window, metric"):
        mine_all(ds, MiningConfig(radius=10.0, window=20.0, theta="0.2"), index=index)


def test_prebuilt_index_for_another_dataset_rejected():
    # An equal copy is still another dataset: the index keeps no proof that
    # two datasets hold the same instances.
    index = NeighborhoodIndex(example_dataset(), example_config())
    with pytest.raises(ValueError, match="another dataset"):
        mine_all(example_dataset(), example_config(), index=index)


def _boundary_level():
    # One P instance, and X, Y, Z instances one minute after it: 1 of 4 X,
    # 2 of 8 Y and 2 of 4 Z at its place, the rest far away. P's children
    # have ratios 1/4, 2/8 and 1/2.
    near, far = (0.0, 0.0), (100.0, 100.0)
    rows = [(0, near)] + [(1, near)] + [(1, far)] * 3 + [(2, near)] * 2 + [(2, far)] * 6
    rows += [(3, near)] * 2 + [(3, far)] * 2
    ds = EventDataset([EventType(t, label) for t, label in enumerate("PXYZ")],
                      [EventInstance(i, t, x, y, 0 if i == 0 else 1)
                       for i, (t, (x, y)) in enumerate(rows)])
    roots = mine_level1(ds)
    return ds, NeighborhoodIndex(ds, MiningConfig(radius=1.0, window=10.0)), roots


@pytest.mark.parametrize("prefix_pi, target, ratio", [
    (Fraction(1, 2), "X", Fraction(1, 4)),  # the ratio is below the prefix's pi
    (Fraction(1, 4), "Y", Fraction(1, 4)),  # equal to it, as 2/8
    (Fraction(1, 4), "Z", Fraction(1, 2)),  # above it
])
def test_candidate_at_theta_exactly(prefix_pi, target, ratio):
    # The candidate's pi, min(prefix pi, ratio), is theta 1/4 exactly: gt
    # drops it, ge keeps it, with the prefix's own pi unless the ratio is
    # below it.
    ds, index, roots = _boundary_level()
    roots[0] = PatternNode(pattern=(0,), pi=prefix_pi, last_support=roots[0].last_support)
    pattern = (0, ds.parse_pattern(target)[0])
    for strict in (True, False):
        cfg = MiningConfig(radius=1.0, window=10.0, theta="0.25", strict_theta=strict)
        kept = {n.pattern: n for n in gen_and_verify(roots, index, cfg)}
        if strict:
            assert pattern not in kept
            continue
        node = kept[pattern]
        assert node.pi == Fraction(1, 4)
        assert (node.pi is prefix_pi) is (ratio >= prefix_pi)
        assert node.parent1 is roots[0] and node.parent2 is roots[pattern[1]]
        assert Fraction(len(node.last_support), ds.count(pattern[1])) == ratio


def test_every_cap_gives_the_uncapped_levels():
    # Capped at each length up to one past the depth, a tree holds exactly
    # the uncapped tree's first levels, and is capped exactly when it is
    # shallower than the uncapped tree.
    for seed in (1, 2, 3):
        ds = generate_random(RandomSpec(seed=seed, n_types=4, n_instances=100))
        for strict in (True, False):
            cfg = dict(radius=20.0, window=60.0, theta="0.2", strict_theta=strict)
            full = mine_all(ds, MiningConfig(**cfg))
            assert not full.capped and full.depth >= 3
            rows = [[(n.pattern, n.pi, n.last_support.tolist()) for n in level]
                    for level in full.levels]
            for max_length in range(1, full.depth + 2):
                tree = mine_all(ds, MiningConfig(**cfg, max_length=max_length))
                assert tree.capped is (max_length < full.depth)
                assert [[(n.pattern, n.pi, n.last_support.tolist()) for n in level]
                        for level in tree.levels] == rows[:max_length]


def test_levels_grow_in_batches_and_the_cap_probe_stops_at_the_first():
    # A full 3-type lattice at theta 0 holds 81 prefixes of each final type
    # at length 5, more than one batch. Growing length 6 takes two
    # union_over calls per type, of 64 and 17 prefixes; the probe past a cap
    # at length 5 stops after the first batch, whose candidates pass.
    ds = generate_random(RandomSpec(seed=1, n_types=3, n_instances=30,
                                    area=60.0, horizon=200))
    cfg = MiningConfig(radius=25.0, window=80.0, theta=0, strict_theta=False,
                       max_length=5)
    index = NeighborhoodIndex(ds, cfg)
    tree = mine_all(ds, cfg, index)
    assert tree.capped and [len(level) for level in tree.levels] == [3, 9, 27, 81, 243]
    calls = []
    union_over = NeighborhoodIndex.union_over

    def counting(self, supports, source_type, target_lists):
        calls.append((source_type, len(supports)))
        return union_over(self, supports, source_type, target_lists)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NeighborhoodIndex, "union_over", counting)
        assert _capped(tree.levels, index, cfg)
        assert calls == [(0, WORD_BITS)]
        calls.clear()
        level6 = gen_and_verify(tree.levels[-1], index, cfg)
    assert calls == [(t, size) for t in range(3) for size in (WORD_BITS, 81 - WORD_BITS)]
    assert [n.pattern for n in level6] == sorted(n.pattern for n in level6)
    assert len(level6) == 729
