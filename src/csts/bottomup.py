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
represent someone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import MaxTree, PatternNode, as_fraction


def verify_supersequence(s: PatternNode, si: Optional[PatternNode],
                         eps: Fraction, visited: set[PatternNode],
                         ) -> set[PatternNode]:
    """Offer candidate ``s`` to substring ``si`` and all of si's ancestors.

    Mutates the ``cmax``/``rcmax`` fields. ``visited`` carries the already
    rejected-or-served substrings for this candidate so diamond-shaped
    ancestor lattices are walked once; callers verifying one candidate
    against several starting points pass the same set to every call.
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
        if cur not in s.rcmax:  # not already recorded for this pair
            if not cur.cmax:
                cur.cmax.add(s)
                s.rcmax.add(cur)
            else:
                holder = next(iter(cur.cmax))
                if s.length == holder.length:
                    if s.pi == holder.pi:
                        cur.cmax.add(s)
                        s.rcmax.add(cur)
                    elif s.pi > holder.pi:
                        # Displace: the same-length holders lose this
                        # substring to the better candidate.
                        for t in cur.cmax:
                            t.rcmax.discard(cur)
                        cur.cmax.clear()
                        cur.cmax.add(s)
                        s.rcmax.add(cur)
                # A longer holder means cur was already claimed at a greater
                # length; a shorter candidate never displaces it.
        stack.append(cur.parent2)
        stack.append(cur.parent1)
    return visited


def run_bottom_up(tree: MaxTree, eps=None) -> None:
    """Fill cmax/rcmax for every node of the tree.

    Processes levels deepest-first so that representatives always arrive in
    non-increasing length order. ``eps`` defaults to the tree config's
    epsilon; passing a different value (re-)runs the phase for that margin,
    clearing any previous closure state first.
    """
    eps = tree.config.epsilon if eps is None else as_fraction(eps)
    if not (0 <= eps <= 1):
        raise ValueError("eps must lie in [0, 1]")
    if tree.closure_done:
        tree.reset_closure_state()
    for level in reversed(tree.levels[1:]):
        for s in level:
            visited: set[PatternNode] = set()
            verify_supersequence(s, s.parent1, eps, visited)
            verify_supersequence(s, s.parent2, eps, visited)
    # Patterns nobody represents stand for themselves.
    for node in tree:
        if not node.cmax:
            node.cmax.add(node)
            node.rcmax.add(node)
    tree.closure_epsilon = eps


def extract_csts(tree: MaxTree) -> list[PatternNode]:
    """The constricted pattern set: every node that represents at least one
    pattern (possibly only itself). Sets ``csts_flag`` on all nodes; returns
    members in canonical order. Requires a completed closure phase."""
    if not tree.closure_done:
        raise RuntimeError("extract_csts called before the closure phase ran")
    members = []
    for node in tree:
        node.csts_flag = bool(node.rcmax)
        if node.csts_flag:
            members.append(node)
    return members


def mine_csts(dataset, cfg):
    """End-to-end convenience: grow the tree, run the closure phase at the
    config's epsilon, extract. Returns (tree, members)."""
    from .topdown import mine_all

    tree = mine_all(dataset, cfg)
    run_bottom_up(tree)
    return tree, extract_csts(tree)
