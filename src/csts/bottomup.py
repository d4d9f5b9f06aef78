"""Bottom-up closure phase over a mined tree.

Each pattern walks down through its substrings (the parent lattice) offering
itself as a representative supersequence. The walk prunes a whole ancestor
chain as soon as the margin test fails, which is sound because substrings
only have higher participation indexes the shorter they get. Levels are
walked deepest-first, and after each one every substring that no deeper
level claimed takes its greatest-pi offers, ties kept.

Every pattern nobody offers to stands for itself, and the constricted set is
exactly the patterns that represent someone. The phase is a function of
(tree, margin): it returns the cmax map and leaves the tree untouched, so
one tree serves any number of margins at once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from .model import MaxTree, PatternNode, as_fraction

#: Each node's cmax set: its longest, highest-pi supersequences within the
#: margin (possibly only itself).
CmaxMap = dict[PatternNode, set[PatternNode]]


def verify_supersequence(s: PatternNode, si: Optional[PatternNode],
                         bound: tuple[int, int], visited: set[PatternNode],
                         offers: dict[PatternNode, list[PatternNode]],
                         ) -> set[PatternNode]:
    """Append candidate ``s`` to the ``offers`` of substring ``si`` and of
    its ancestors, stopping at any whose pi exceeds ``bound``, pi(s) + eps
    as a (numerator, denominator) pair with a positive denominator.

    ``visited`` carries the substrings already reached for this candidate so
    diamond-shaped ancestor lattices are walked once; callers verifying one
    candidate against several starting points pass the same set to every
    call, so each substring hears of ``s`` at most once. Returns the visited
    set.
    """
    bn, bd = bound
    stack = [si]
    while stack:
        cur = stack.pop()
        if cur is None or cur in visited:
            continue
        visited.add(cur)
        # Margin gate, in integers: a Fraction comparison costs several
        # times more. Failing here also kills the whole ancestor chain:
        # shorter substrings have equal-or-higher pi, so the bound only
        # tightens further down.
        n, d = cur.pi.as_integer_ratio()
        if n * bd > bn * d:
            continue
        offers[cur].append(s)
        stack.append(cur.parent2)
        stack.append(cur.parent1)
    return visited


def run_bottom_up(tree: MaxTree, eps) -> CmaxMap:
    """The cmax map of every node of the tree at margin ``eps``, in tree
    order.

    The deepest level whose offers reach a node fixes its cmax length, and
    the node takes that level's greatest-pi offers.
    """
    eps = as_fraction(eps)
    if not (0 <= eps <= 1):
        raise ValueError("eps must lie in [0, 1]")
    en, ed = eps.as_integer_ratio()
    cmax: CmaxMap = {}
    for level in reversed(tree.levels[1:]):
        offers: dict[PatternNode, list[PatternNode]] = defaultdict(list)
        for s in level:
            sn, sd = s.pi.as_integer_ratio()
            bound = (sn * ed + en * sd, sd * ed)
            visited: set[PatternNode] = set()
            verify_supersequence(s, s.parent1, bound, visited, offers)
            verify_supersequence(s, s.parent2, bound, visited, offers)
        for cur, offered in offers.items():
            if cur not in cmax:
                best = max(s.pi for s in offered)
                cmax[cur] = {s for s in offered if s.pi == best}
    # Patterns nobody represents stand for themselves.
    return {node: cmax.get(node) or {node} for node in tree}


def extract_csts(tree: MaxTree, cmax: CmaxMap) -> list[PatternNode]:
    """The constricted pattern set: every node that appears in some cmax
    set (possibly only its own), in canonical order."""
    members = {rep for reps in cmax.values() for rep in reps}
    return [node for node in tree if node in members]


def mine_csts(dataset, cfg):
    """End-to-end convenience: grow the tree, run the closure phase at the
    config's epsilon, extract. Returns (tree, members)."""
    from .topdown import mine_all

    tree = mine_all(dataset, cfg)
    return tree, extract_csts(tree, run_bottom_up(tree, cfg.epsilon))
