"""Core domain types and pure sequence algebra.

Events are typed, timestamped points in the plane (or on the globe). A
pattern is an ordered sequence of event-type ids, and the sub/supersequence
relation used throughout this package is *contiguous* (substring) containment:
``A->B`` is a subsequence of ``A->B->C`` but ``A->C`` is not. Participation
indexes are kept as exact :class:`fractions.Fraction` values so that equality
tests between patterns never suffer float drift.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

import numpy as np

# A pattern is a tuple of dense event-type ids. Plain tuples keep patterns
# hashable, cheap to slice, and trivially comparable.
Pattern = tuple[int, ...]

RatioLike = Union[int, float, str, Fraction]

METRIC_EUCLIDEAN = "euclidean"
METRIC_GEODESIC = "geodesic"
VALID_METRICS = (METRIC_EUCLIDEAN, METRIC_GEODESIC)


def as_fraction(value: RatioLike) -> Fraction:
    """Coerce a user-supplied ratio to an exact Fraction.

    Floats are routed through ``str`` so the *decimal* the caller wrote is
    preserved (``0.1`` becomes 1/10, not the binary 3602879701896397/2**55).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def _finite(value) -> bool:
    """Whether ``value`` is a number, not a bool, that float64 holds finite
    (an int too large for one is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class EventType:
    """One member of the event-type universe.

    ids are dense integers from 0, assigned in label-sorted order at
    ingestion so that runs over the same data always agree on ids. A
    dataset refuses a label that is not a non-empty string, has leading or
    trailing whitespace, or contains ``->``: none of these survives a
    generic CSV file and a record's pattern string.
    """

    id: int
    label: str


@dataclass(frozen=True)
class EventInstance:
    """A single occurrence: type, location, and time in minutes from epoch.

    A plain row, the list constructor's input and the ``instances`` view's
    element; :class:`EventDataset` checks the values. ``idx`` is the
    instance's dense position within its dataset. In geodesic mode ``x`` is
    longitude and ``y`` is latitude, both in degrees.
    """

    idx: int
    event_type: int
    x: float
    y: float
    time: float


def _column(values, what: str, kinds: str) -> np.ndarray:
    """``values`` as a one-dimensional array of one of the numpy ``kinds``,
    taken as is when it already is one. The dtype is inferred, never cast,
    so a type id of 1.5 is refused, not truncated, and a coordinate of
    ``"1.5"`` or None refused, not parsed."""
    try:
        column = np.asarray(values)
        # np.asarray reads a bool among numbers as 0 or 1.
        ok = column.ndim == 1 and (not column.size or column.dtype.kind in kinds and (
            column is values or {bool, np.bool_}.isdisjoint(map(type, values))))
    except OverflowError:  # an int past float64's range among floats
        ok = False
    if not ok:
        noun = "integers" if kinds == "iu" else "finite int64 or float64 numbers"
        raise ValueError(f"instance {what} values must be a sequence of {noun}")
    return column


class EventDataset:
    """Event data held as columns, one entry per instance in idx order.

    ``type_ids`` (``int64``) and ``xs``, ``ys``, ``times`` (``float64``) are
    read-only arrays. ``type_order`` lists the idx sorted by (type, idx), so
    type t's instances are ``type_order[type_starts[t]:type_starts[t + 1]]``;
    both are computed once, with the per-type counts. ``instances`` is a view
    built from the columns on first use and cached; the miner never builds
    it.

    Both constructors check the columns the same way. A type id must be an
    integer, a coordinate or time a finite int or float that fits 64 bits
    (a bool, string, None or 10**400 is refused, not cast), and a time
    non-negative and exact in float64 (2**53 + 1 is refused, not rounded).

    Parameters
    ----------
    types : sequence of EventType
        The full event-type universe, ids dense from 0.
    instances : sequence of EventInstance
        All instances; each ``event_type`` must exist in ``types`` and each
        ``idx`` must equal the instance's position in the sequence. They are
        converted into the columns and not kept.
    """

    def __init__(
        self,
        types: Sequence[EventType],
        instances: Sequence[EventInstance],
    ) -> None:
        instances = list(instances)
        idx = _column([inst.idx for inst in instances], "idx", "iu")
        bad = np.flatnonzero(idx != np.arange(idx.size))
        if bad.size:
            pos = int(bad[0])
            raise ValueError(f"instance at position {pos} carries idx {instances[pos].idx}")
        self._set_columns(types, *([getattr(inst, name) for inst in instances]
                                   for name in ("event_type", "x", "y", "time")))

    @classmethod
    def from_columns(cls, types: Sequence[EventType], type_ids, xs, ys,
                     times) -> "EventDataset":
        """A dataset straight from its columns, checked as the instance
        constructor's are. An ``int64`` or ``float64`` array is kept as is,
        not copied, and made read-only."""
        ds = cls.__new__(cls)
        ds._set_columns(types, type_ids, xs, ys, times)
        return ds

    def _set_columns(self, types: Sequence[EventType], type_ids, xs, ys,
                     times) -> None:
        self.types: tuple[EventType, ...] = tuple(types)
        ids = [t.id for t in self.types]
        if ids != list(range(len(self.types))):
            raise ValueError("event-type ids must be dense integers from 0")
        labels = [t.label for t in self.types]
        for label in labels:  # see EventType
            if not (isinstance(label, str) and label and label == label.strip()
                    and "->" not in label):
                raise ValueError(f"event-type label {label!r} is not a non-empty "
                                 "string free of '->' and surrounding whitespace")
        if len(set(labels)) != len(labels):
            raise ValueError("event-type labels must be unique")
        type_ids = _column(type_ids, "event_type", "iu").astype(np.int64, copy=False)
        given = times
        xs, ys, times = (_column(c, what, "iuf").astype(np.float64, copy=False)
                         for c, what in ((xs, "x"), (ys, "y"), (times, "time")))
        if not type_ids.shape == xs.shape == ys.shape == times.shape:
            raise ValueError("the columns must be of equal length")
        n_types = len(self.types)
        unknown = np.flatnonzero((type_ids < 0) | (type_ids >= n_types))
        if unknown.size:
            pos = int(unknown[0])
            raise ValueError(f"instance {pos} references unknown event type {type_ids[pos]}")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("instance coordinates must be finite")
        ok = np.isfinite(times).all() and (times >= 0).all()
        if ok and not (isinstance(given, np.ndarray) and given.dtype.kind == "f"):
            # float64 rounds an int past 2**53 (2**53 + 1 reads as 2**53),
            # which would shift the window tests, so such a time must read
            # back equal. Compared as ints, since numpy compares its own
            # ints with a float in float64.
            given = list(given)
            ok = all(int(times[i]) == given[i] for i in np.flatnonzero(times >= 2.0**53).tolist())
        if not ok:
            raise ValueError("instance times must be finite, non-negative and exact in float64")
        counts = np.bincount(type_ids, minlength=n_types)
        starts = np.zeros(n_types + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        self.type_ids, self.xs, self.ys, self.times = type_ids, xs, ys, times
        self.type_order = np.argsort(type_ids, kind="stable")
        self.type_starts = starts
        for column in (type_ids, xs, ys, times, self.type_order, starts):
            column.flags.writeable = False
        self._counts = dict(enumerate(counts.tolist()))
        self._label_to_id = {t.label: t.id for t in self.types}

    @cached_property
    def instances(self) -> tuple[EventInstance, ...]:
        """One EventInstance per idx, built from the columns on first use."""
        return tuple(map(EventInstance, range(len(self)), self.type_ids.tolist(),
                         self.xs.tolist(), self.ys.tolist(), self.times.tolist()))

    def __len__(self) -> int:
        return self.type_ids.size

    def count(self, type_id: int) -> int:
        """|D(F)| for one event type."""
        return self._counts[type_id]

    def label_of(self, type_id: int) -> str:
        return self.types[type_id].label

    def pattern_labels(self, pattern: Pattern) -> list[str]:
        return [self.label_of(t) for t in pattern]

    def parse_pattern(self, text: str) -> Pattern:
        """Parse ``"A->B->C"`` into a Pattern of type ids."""
        return parse_pattern(text, self._label_to_id)


def parse_pattern(text: str, label_to_id: dict[str, int]) -> Pattern:
    parts = [p.strip() for p in text.split("->")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed pattern string {text!r}")
    missing = [p for p in parts if p not in label_to_id]
    if missing:
        raise KeyError(f"unknown event type label(s): {', '.join(missing)}")
    return tuple(label_to_id[p] for p in parts)


def format_pattern(pattern: Pattern) -> str:
    return "->".join(str(t) for t in pattern)


# ---------------------------------------------------------------------------
# Mining configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiningConfig:
    """All knobs of one mining run.

    Parameters
    ----------
    radius : float
        Spatial neighborhood threshold (meters), a finite number > 0 (not a
        bool); inclusive comparison.
    window : float
        Temporal neighborhood threshold (minutes), a finite number > 0 (not
        a bool); a neighbor must occur strictly later and at most ``window``
        minutes after the source.
    theta : ratio-like
        Participation-index threshold in [0, 1). Patterns are kept when
        pi > theta (default) or pi >= theta with ``strict_theta=False``.
    epsilon : ratio-like
        Approximation margin in [0, 1] for the constricted representation.
    metric : {"euclidean", "geodesic"}
    strict_theta : bool
    max_length : int or None
        Optional cap on pattern length, a positive int (not a bool); hitting
        it is reported, not silent.
    """

    radius: float
    window: float
    theta: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(0)
    metric: str = METRIC_EUCLIDEAN
    strict_theta: bool = True
    max_length: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", as_fraction(self.theta))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        for name in ("radius", "window"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0 (a number, not a bool)")
        if not (0 <= self.theta < 1):
            raise ValueError("theta must lie in [0, 1)")
        if not (0 <= self.epsilon <= 1):
            raise ValueError("epsilon must lie in [0, 1]")
        if self.metric not in VALID_METRICS:
            raise ValueError(f"metric must be one of {VALID_METRICS}")
        if self.max_length is not None:
            try:
                length = operator.index(self.max_length)
            except TypeError:
                length = 0
            if isinstance(self.max_length, bool) or length < 1:
                raise ValueError(f"max_length must be a positive int, got {self.max_length!r}")
            object.__setattr__(self, "max_length", length)

    def passes_theta(self, num: int, den: int) -> bool:
        """Whether the ratio num / den (den > 0) passes theta: num / den >
        theta, or >= with ``strict_theta=False``, compared cross-multiplied."""
        num *= self.theta.denominator
        den *= self.theta.numerator
        return num > den if self.strict_theta else num >= den

    def least_passing(self, den: int) -> int:
        """The least num with ``passes_theta(num, den)``."""
        num = den * self.theta.numerator // self.theta.denominator
        return num if self.passes_theta(num, den) else num + 1


# ---------------------------------------------------------------------------
# Pattern tree
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PatternNode:
    """A pattern with its participation index and its two shorter parents.

    ``last_support`` holds the instances supporting the final element as a
    sorted, unique ``int64`` array of local ids: positions 0..count-1 among
    the instances of the final element's type, in idx order, which
    ``NeighborhoodIndex.instances_of`` maps back to idx. Element i < m's
    support is the ``last_support`` of the length-i prefix along the
    ``parent1`` chain; ``parent2`` is the suffix. Links point only to shorter
    patterns, so a tree is acyclic. Nodes hash and compare by identity.
    """

    pattern: Pattern
    pi: Fraction
    last_support: np.ndarray
    parent1: Optional["PatternNode"] = None
    parent2: Optional["PatternNode"] = None

    def __repr__(self) -> str:
        return f"PatternNode({format_pattern(self.pattern)}, pi={self.pi})"


class MaxTree:
    """Level-structured lattice of all threshold-passing patterns.

    ``levels[k-1]`` holds the length-k nodes, each level in canonical order
    (lexicographic by type ids). The tree is never changed after the growth
    phase; the closure phase returns its result instead of storing it on the
    nodes.
    """

    def __init__(self, levels: Sequence[Sequence[PatternNode]], capped: bool = False) -> None:
        self.levels: list[list[PatternNode]] = [list(level) for level in levels]
        self.capped = capped

    def __iter__(self) -> Iterator[PatternNode]:
        for level in self.levels:
            yield from level

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def node(self, pattern: Pattern) -> Optional[PatternNode]:
        """The node for ``pattern``, or None: a binary search of its level."""
        pattern = tuple(pattern)
        if not 0 < len(pattern) <= self.depth:
            return None
        level = self.levels[len(pattern) - 1]
        at = bisect_left(level, pattern, key=operator.attrgetter("pattern"))
        return level[at] if at < len(level) and level[at].pattern == pattern else None

    @property
    def depth(self) -> int:
        return len(self.levels)
