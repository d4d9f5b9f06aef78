"""Top-down growth of the pattern tree.

Breadth-first, level by level: length-1 patterns are the event types, and a
length-k candidate is assembled from a verified length-(k-1) node (its prefix,
``parent1``) and the sibling that extends that node's own second parent (its
suffix, ``parent2``). A candidate's participation index is the minimum of the
prefix node's index and the participation ratio of the new final element, so
each level needs only one neighborhood-union sweep. Candidates below the
threshold are dropped together with their would-be extensions, which is sound
because the participation index can only shrink as a pattern grows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import EventDataset, MaxTree, MiningConfig, PatternNode
from .neighborhoods import NeighborhoodIndex, build_index


def participation_ratio(node: PatternNode, dataset: EventDataset) -> Fraction:
    """Exact participation ratio of a node's final element.

    The ratio of distinct instances of the last event type that take part in
    the pattern to all instances of that type. Ratios for earlier positions
    belong to the prefix nodes along the ``parent1`` chain.
    """
    last_type = node.pattern[-1]
    total = dataset.count(last_type)
    if total == 0:
        raise ValueError("event types with zero instances never spawn nodes")
    return Fraction(len(node.last_support), total)


def mine_level1(dataset: EventDataset) -> list[PatternNode]:
    """One root node per event type that actually occurs; pi is 1 by
    definition (every instance of a type participates in its own pattern)."""
    nodes = []
    for type_id in sorted(dataset.by_type):
        members = dataset.by_type[type_id]
        if not members:
            continue
        nodes.append(PatternNode(
            pattern=(type_id,),
            pi=Fraction(1),
            last_support=np.array(sorted(inst.idx for inst in members), dtype=np.int64),
        ))
    return nodes


def _make_child(parent1: PatternNode, parent2: PatternNode,
                index: NeighborhoodIndex, cfg: MiningConfig) -> Optional[PatternNode]:
    # One candidate: extend parent1's pattern by parent2's final element.
    new_type = parent2.pattern[-1]
    support = index.union_over(parent1.last_support, new_type)
    ratio = Fraction(len(support), index.dataset.count(new_type))
    pi = min(parent1.pi, ratio)
    if not cfg.passes_theta(pi):
        return None
    return PatternNode(
        pattern=parent1.pattern + (new_type,),
        pi=pi,
        last_support=support,
        parent1=parent1,
        parent2=parent2,
    )


def _pairs(level_prev: Sequence[PatternNode]):
    # The (prefix, suffix) candidates of the next level; see gen_and_verify.
    for si in level_prev:
        for sj in level_prev if si.parent2 is None else si.parent2.children:
            yield si, sj


def gen_and_verify(level_prev: Sequence[PatternNode], index: NeighborhoodIndex,
                   cfg: MiningConfig) -> list[PatternNode]:
    """All verified length-k patterns from the verified length-(k-1) level.

    For each node, the viable suffixes are exactly the children of its second
    parent: those are the verified patterns overlapping it in all but the
    first position. Roots have no second parent, so every root pairs with
    every root, itself included. The (prefix, suffix) pairing generates every
    candidate exactly once, and in canonical order: sources are canonical and
    each children list is, by induction, sorted by its final element.
    """
    level = []
    for si, sj in _pairs(level_prev):
        node = _make_child(si, sj, index, cfg)
        if node is not None:
            level.append(node)
            si.children.append(node)
    return level


def mine_all(dataset: EventDataset, cfg: MiningConfig,
             index: Optional[NeighborhoodIndex] = None) -> MaxTree:
    """Grow the full tree of threshold-passing patterns.

    Levels are generated until one comes back empty or ``cfg.max_length`` is
    reached. At the cap the candidates of the next level are verified until
    one passes, without being kept: the tree is ``capped`` exactly when
    longer patterns pass. With ``strict_theta=False`` and theta 0 every
    candidate passes, so a cap is required to terminate.

    ``index`` is a neighbor index already built for this dataset object
    under the same radius, window and metric (a sweep over thresholds
    builds it once); without one, it is built here. A mismatched index
    raises ValueError.
    """
    if not cfg.strict_theta and cfg.theta == 0 and cfg.max_length is None:
        raise ValueError(
            "theta=0 with non-strict comparison accepts every candidate; "
            "set max_length to bound the search")
    if index is not None:
        if index.dataset is not dataset:
            raise ValueError("the neighbor index was built for another dataset")
        built = (index.config.radius, index.config.window, index.config.metric)
        if built != (cfg.radius, cfg.window, cfg.metric):
            raise ValueError(
                f"the neighbor index was built for (radius, window, metric) "
                f"{built}, not {(cfg.radius, cfg.window, cfg.metric)}")
    levels: list[list[PatternNode]] = []
    level = mine_level1(dataset)
    if index is None and level:
        index = build_index(dataset, cfg)
    capped = False
    while level:
        levels.append(level)
        if len(levels) == cfg.max_length:
            capped = any(_make_child(si, sj, index, cfg) is not None
                         for si, sj in _pairs(level))
            break
        level = gen_and_verify(level, index, cfg)
    return MaxTree(levels, capped=capped)
