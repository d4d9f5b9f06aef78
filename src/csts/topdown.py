"""Top-down growth of the pattern tree.

Breadth-first, level by level: length-1 patterns are the event types. Grouped
by prefix node, a level joins each node (a candidate's prefix, ``parent1``)
with the group of its own suffix node (the candidate's suffix, ``parent2``). A
candidate's participation index is the minimum of its prefix's index and the
participation ratio of its new final element, so a prefix's whole group is
verified from one neighborhood gather over its support, and the index and
threshold tests compare cross-multiplied integers. Candidates below the
threshold are dropped with their would-be extensions, soundly: the index only
shrinks as a pattern grows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, takewhile
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import EventDataset, MaxTree, MiningConfig, PatternNode
from .neighborhoods import NeighborhoodIndex


def mine_level1(dataset: EventDataset) -> list[PatternNode]:
    """One root node per event type that actually occurs; pi is 1 by
    definition (every instance of a type participates in its own pattern)."""
    return [PatternNode(pattern=(t.id,), pi=Fraction(1),
                        last_support=np.arange(dataset.count(t.id), dtype=np.int64))
            for t in dataset.types if dataset.count(t.id)]


def _children(level_prev: Sequence[PatternNode], index: NeighborhoodIndex,
              cfg: MiningConfig) -> Iterator[PatternNode]:
    # The verified children of level_prev, prefix by prefix, in canonical
    # order; see gen_and_verify.
    by_prefix = {p: list(g) for p, g in groupby(level_prev, lambda n: n.parent1)}
    count = index.dataset.count
    for si in level_prev:
        group = by_prefix.get(si.parent2)
        pk, pc = si.pi.numerator, si.pi.denominator
        # A child's index never exceeds its prefix's: a failing prefix has none.
        if not group or not cfg.passes_theta(pk, pc):
            continue
        targets = [sj.pattern[-1] for sj in group]
        supports = index.union_over(si.last_support, si.pattern[-1], targets)
        for sj, new_type, support in zip(group, targets, supports):
            # pi = min(pi(si), k / c), tested cross-multiplied.
            k, c = len(support), count(new_type)
            if k * pc >= pk * c:
                pi = si.pi
            elif cfg.passes_theta(k, c):
                pi = Fraction(k, c)
            else:
                continue
            yield PatternNode(
                pattern=si.pattern + (new_type,),
                pi=pi,
                last_support=support,
                parent1=si,
                parent2=sj,
            )


def gen_and_verify(level_prev: Sequence[PatternNode], index: NeighborhoodIndex,
                   cfg: MiningConfig) -> list[PatternNode]:
    """All verified length-k patterns from the verified length-(k-1) level.

    Grouped by prefix node (``parent1``), ``level_prev`` pairs each node
    with the group whose prefix is its suffix (``parent2``): the verified
    patterns overlapping it in all but the first position. Roots have
    neither, so every root pairs with every root, itself included. Each
    candidate comes exactly once and in canonical order, as a canonical
    level lists each group as one run sorted by final element. A node's
    whole group is verified from one ``union_over`` gather over its support.
    """
    return list(_children(level_prev, index, cfg))


def require_bounded(cfg: MiningConfig) -> None:
    """Raise ValueError for a search that only ``max_length`` could end:
    with ``strict_theta=False`` and theta 0 every candidate passes."""
    if not cfg.strict_theta and cfg.theta == 0 and cfg.max_length is None:
        raise ValueError(
            "theta=0 with non-strict comparison accepts every candidate; "
            "set max_length to bound the search")


def mine_all(dataset: EventDataset, cfg: MiningConfig,
             index: Optional[NeighborhoodIndex] = None) -> MaxTree:
    """Grow the full tree of threshold-passing patterns.

    Levels are generated until one comes back empty or ``cfg.max_length`` is
    reached. The tree is ``capped`` exactly when longer patterns pass (see
    ``_capped``). With ``strict_theta=False`` and theta 0 every candidate
    passes, so a cap is required to terminate.

    ``index`` is a neighbor index already built for this dataset object
    under the same radius, window and metric (a sweep over thresholds
    builds it once); without one, it is built here. A mismatched index
    raises ValueError.
    """
    require_bounded(cfg)
    if index is None:
        index = NeighborhoodIndex(dataset, cfg)
    if index.dataset is not dataset:
        raise ValueError("the neighbor index was built for another dataset")
    built = (index.config.radius, index.config.window, index.config.metric)
    if built != (cfg.radius, cfg.window, cfg.metric):
        raise ValueError(
            f"the neighbor index was built for (radius, window, metric) "
            f"{built}, not {(cfg.radius, cfg.window, cfg.metric)}")
    levels: list[list[PatternNode]] = []
    level = mine_level1(dataset)
    while level:
        levels.append(level)
        if len(levels) == cfg.max_length:
            break
        level = gen_and_verify(level, index, cfg)
    return MaxTree(levels, capped=_capped(levels, index, cfg))


def _capped(levels: list, index: NeighborhoodIndex, cfg: MiningConfig) -> bool:
    """Whether ``levels`` reach ``cfg.max_length`` with longer patterns passing:
    the next level is verified until one candidate passes, keeping none."""
    return (len(levels) == cfg.max_length
            and next(_children(levels[-1], index, cfg), None) is not None)


def _filter_tree(tree: MaxTree, cfg: MiningConfig, index: NeighborhoodIndex) -> MaxTree:
    """``mine_all(dataset, cfg, index)``'s tree, filtered from the ``tree`` that
    ``mine_all`` grew with ``index`` and ``cfg`` at a theta no higher, which is
    not checked (a node's parents have pi at least its own). ``capped`` is probed
    as there, only if ``tree`` was capped."""
    kept = ([node for node in level if cfg.passes_theta(*node.pi.as_integer_ratio())]
            for level in tree.levels)
    levels = list(takewhile(len, kept))  # no level follows an empty one
    return MaxTree(levels, capped=tree.capped and _capped(levels, index, cfg))
