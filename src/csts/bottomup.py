"""Bottom-up closure phase over a mined tree.

Each pattern walks down through its substrings (the parent lattice) offering
itself as a representative supersequence. Because candidates are processed
longest-first, the first offer a substring accepts locks in the maximal
length; later same-length offers either join (equal participation index) or
displace the current holders (greater index). The walk prunes a whole
ancestor chain as soon as the margin test fails, which is sound because
substrings only have higher participation indexes the shorter they get.

After the walk, every pattern nobody represents becomes its own
representative, and the constricted set is exactly the patterns that
represent someone. The phase is a function of (tree, margin): it returns the
cmax map and leaves the tree untouched, so one tree serves any number of
margins at once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import MaxTree, PatternNode, as_fraction

#: Each node's cmax set: its longest, highest-pi supersequences within the
#: margin (possibly only itself).
CmaxMap = dict[PatternNode, set[PatternNode]]


def verify_supersequence(s: PatternNode, si: Optional[PatternNode],
                         eps: Fraction, visited: set[PatternNode],
                         cmax: CmaxMap) -> set[PatternNode]:
    """Offer candidate ``s`` to substring ``si`` and all of si's ancestors,
    updating ``cmax``.

    ``visited`` carries the already rejected-or-served substrings for this
    candidate so diamond-shaped ancestor lattices are walked once; callers
    verifying one candidate against several starting points pass the same
    set to every call, so each substring hears of ``s`` at most once.
    Returns the visited set.
    """
    stack = [si]
    while stack:
        cur = stack.pop()
        if cur is None or cur in visited:
            continue
        visited.add(cur)
        # Margin gate. Failing here also kills the whole ancestor chain:
        # shorter substrings have equal-or-higher pi, so the bound only
        # tightens further down.
        if s.pi < cur.pi - eps:
            continue
        holders = cmax.get(cur)
        if not holders:
            cmax[cur] = {s}
        else:
            holder = next(iter(holders))
            if s.length == holder.length:
                if s.pi == holder.pi:
                    holders.add(s)
                elif s.pi > holder.pi:
                    # Displace: the same-length holders lose this substring
                    # to the better candidate.
                    cmax[cur] = {s}
            # A longer holder means cur was already claimed at a greater
            # length; a shorter candidate never displaces it.
        stack.append(cur.parent2)
        stack.append(cur.parent1)
    return visited


def run_bottom_up(tree: MaxTree, eps) -> CmaxMap:
    """The cmax map of every node of the tree at margin ``eps``, in tree
    order.

    Processes levels deepest-first so that representatives always arrive in
    non-increasing length order.
    """
    eps = as_fraction(eps)
    if not (0 <= eps <= 1):
        raise ValueError("eps must lie in [0, 1]")
    cmax: CmaxMap = {}
    for level in reversed(tree.levels[1:]):
        for s in level:
            visited: set[PatternNode] = set()
            verify_supersequence(s, s.parent1, eps, visited, cmax)
            verify_supersequence(s, s.parent2, eps, visited, cmax)
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
