"""Top-down growth of the pattern tree.

Breadth-first, level by level: length-1 patterns are the event types. Grouped
by prefix node, a level joins each node (a candidate's prefix, ``parent1``)
with the group of its own suffix node (the candidate's suffix, ``parent2``). A
candidate's participation index is the minimum of its prefix's index and the
participation ratio of its new final element, so a prefix's whole group is
verified from the union of its support's neighborhoods, and the index and
threshold tests compare cross-multiplied integers. Prefixes that end in one
type share their unions: up to ``WORD_BITS`` of them at a time, each a bit
of one word per source instance, take one pass over that type's edges.
Candidates below the threshold are dropped, their supports never gathered,
with their would-be extensions, soundly: the index only shrinks as a pattern
grows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, takewhile
from typing import Iterator, Optional, Sequence

import numpy as np

from .model import EventDataset, MaxTree, MiningConfig, PatternNode
from .neighborhoods import WORD_BITS, NeighborhoodIndex


def mine_level1(dataset: EventDataset) -> list[PatternNode]:
    """One root node per event type that actually occurs; pi is 1 by
    definition (every instance of a type participates in its own pattern)."""
    return [PatternNode(pattern=(t.id,), pi=Fraction(1),
                        last_support=np.arange(dataset.count(t.id), dtype=np.int64))
            for t in dataset.types if dataset.count(t.id)]


def _children(level_prev: Sequence[PatternNode], index: NeighborhoodIndex,
              cfg: MiningConfig) -> Iterator[tuple[PatternNode, list[PatternNode]]]:
    # (prefix, its verified children) for every prefix with candidates, one
    # union_over batch at a time: prefixes grouped by final type, up to
    # WORD_BITS per batch. See gen_and_verify.
    by_prefix = {p: list(g) for p, g in groupby(level_prev, lambda n: n.parent1)}
    by_type: dict[int, list] = {}
    for si in level_prev:
        group = by_prefix.get(si.parent2)
        # A child's index never exceeds its prefix's: a failing prefix has none.
        if group and cfg.passes_theta(si.pi.numerator, si.pi.denominator):
            by_type.setdefault(si.pattern[-1], []).append((si, group))
    count = index.dataset.count
    # A child passes theta exactly when its support holds at least its final
    # type's least passing count, so union_over gathers no failing support.
    least = [cfg.least_passing(count(t.id)) for t in index.dataset.types]
    for source, work in by_type.items():
        for lo in range(0, len(work), WORD_BITS):
            batch = work[lo:lo + WORD_BITS]
            targets = [[sj.pattern[-1] for sj in group] for _, group in batch]
            unions = index.union_over([si.last_support for si, _ in batch], source,
                                      targets, least)
            for (si, group), types, supports in zip(batch, targets, unions):
                pk, pc = si.pi.numerator, si.pi.denominator
                children = []
                for sj, new_type, support in zip(group, types, supports):
                    if support is None:
                        continue
                    # pi = min(pi(si), k / c), tested cross-multiplied; the
                    # prefix passes theta, so a k / c at least its pi does too.
                    k, c = len(support), count(new_type)
                    pi = si.pi if k * pc >= pk * c else Fraction(k, c)
                    children.append(PatternNode(
                        pattern=si.pattern + (new_type,),
                        pi=pi,
                        last_support=support,
                        parent1=si,
                        parent2=sj,
                    ))
                yield si, children
            del unions  # freed before the next batch's are made


def gen_and_verify(level_prev: Sequence[PatternNode], index: NeighborhoodIndex,
                   cfg: MiningConfig) -> list[PatternNode]:
    """All verified length-k patterns from the verified length-(k-1) level.

    Grouped by prefix node (``parent1``), ``level_prev`` pairs each node
    with the group whose prefix is its suffix (``parent2``): the verified
    patterns overlapping it in all but the first position. Roots have
    neither, so every root pairs with every root, itself included. Each
    candidate comes exactly once and in canonical order, as a canonical
    level lists each group as one run sorted by final element. Prefixes
    that end in one type are verified in batches of up to ``WORD_BITS``,
    one ``union_over`` call per batch for all of their groups.
    """
    children = dict(_children(level_prev, index, cfg))
    return [child for si in level_prev for child in children.get(si, ())]


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
    the next level is verified batch by batch until one candidate passes,
    keeping none."""
    return (len(levels) == cfg.max_length
            and any(children for _, children in _children(levels[-1], index, cfg)))


def _filter_tree(tree: MaxTree, cfg: MiningConfig, index: NeighborhoodIndex) -> MaxTree:
    """``mine_all(dataset, cfg, index)``'s tree, filtered from the ``tree`` that
    ``mine_all`` grew with ``index`` and ``cfg`` at a theta no higher, which is
    not checked (a node's parents have pi at least its own). ``capped`` is probed
    as there, only if ``tree`` was capped."""
    kept = ([node for node in level if cfg.passes_theta(*node.pi.as_integer_ratio())]
            for level in tree.levels)
    levels = list(takewhile(len, kept))  # no level follows an empty one
    return MaxTree(levels, capped=tree.capped and _capped(levels, index, cfg))
