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
from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True)
class EventType:
    """One member of the event-type universe.

    ids are dense integers from 0, assigned in label-sorted order at
    ingestion so that runs over the same data always agree on ids.
    """

    id: int
    label: str


@dataclass(frozen=True)
class EventInstance:
    """A single occurrence: type, location, and time in minutes from epoch.

    ``idx`` is the instance's dense position within its dataset; it is the
    identity used by support sets and neighbor indexes. In geodesic mode
    ``x`` is longitude and ``y`` is latitude, both in degrees.
    """

    idx: int
    event_type: int
    x: float
    y: float
    time: float

    def __post_init__(self) -> None:
        if not (self.time >= 0 and self.time == self.time and self.time != float("inf")):
            raise ValueError(f"instance time must be finite and non-negative, got {self.time!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"instance coordinates must be finite, got ({self.x!r}, {self.y!r})")


class EventDataset:
    """The instance collection plus the per-type index.

    Parameters
    ----------
    types : sequence of EventType
        The full event-type universe, ids dense from 0.
    instances : sequence of EventInstance
        All instances; each ``event_type`` must exist in ``types`` and each
        ``idx`` must equal the instance's position in the sequence.
    epoch : str
        ISO-8601 datetime that minute zero maps to (metadata only).
    """

    def __init__(
        self,
        types: Sequence[EventType],
        instances: Sequence[EventInstance],
        epoch: str = "1970-01-01T00:00",
    ) -> None:
        self.types: tuple[EventType, ...] = tuple(types)
        self.instances: tuple[EventInstance, ...] = tuple(instances)
        self.epoch = epoch

        ids = [t.id for t in self.types]
        if ids != list(range(len(self.types))):
            raise ValueError("event-type ids must be dense integers from 0")
        labels = [t.label for t in self.types]
        if len(set(labels)) != len(labels):
            raise ValueError("event-type labels must be unique")
        by_type: dict[int, list[EventInstance]] = {t.id: [] for t in self.types}
        for pos, inst in enumerate(self.instances):
            if inst.idx != pos:
                raise ValueError(f"instance at position {pos} carries idx {inst.idx}")
            if inst.event_type not in by_type:
                raise ValueError(f"instance {pos} references unknown event type {inst.event_type}")
            by_type[inst.event_type].append(inst)
        self.by_type: dict[int, tuple[EventInstance, ...]] = {
            k: tuple(v) for k, v in by_type.items()
        }
        self._label_to_id = {t.label: t.id for t in self.types}

    def __len__(self) -> int:
        return len(self.instances)

    def count(self, type_id: int) -> int:
        """|D(F)| for one event type."""
        return len(self.by_type[type_id])

    def label_of(self, type_id: int) -> str:
        return self.types[type_id].label

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise KeyError(f"unknown event type label {label!r}") from None

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


def format_pattern(pattern: Pattern, dataset: Optional[EventDataset] = None) -> str:
    if dataset is None:
        return "->".join(str(t) for t in pattern)
    return "->".join(dataset.pattern_labels(pattern))


# ---------------------------------------------------------------------------
# Sequence algebra
# ---------------------------------------------------------------------------

def is_supersequence(outer: Pattern, inner: Pattern) -> bool:
    """True iff ``inner`` occurs in ``outer`` as a contiguous run.

    Equal patterns count (the non-proper case). Gapped containment does not:
    the relation is substring containment over event-type ids.
    """
    if not outer or not inner:
        raise ValueError("patterns must be non-empty")
    n, m = len(outer), len(inner)
    if m > n:
        return False
    return any(outer[k : k + m] == inner for k in range(n - m + 1))


def is_proper_supersequence(outer: Pattern, inner: Pattern) -> bool:
    """Contiguous containment with strictly greater length."""
    return len(outer) > len(inner) and is_supersequence(outer, inner)


def canonical_key(pattern: Pattern) -> tuple[int, Pattern]:
    """Total order: length ascending, then lexicographic by type ids.

    Every listing this package emits is sorted by this key, which makes
    output deterministic regardless of generation order.
    """
    return (len(pattern), pattern)


# ---------------------------------------------------------------------------
# Mining configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiningConfig:
    """All knobs of one mining run.

    Parameters
    ----------
    radius : float
        Spatial neighborhood threshold (meters); inclusive comparison.
    window : float
        Temporal neighborhood threshold (minutes); a neighbor must occur
        strictly later and at most ``window`` minutes after the source.
    theta : ratio-like
        Participation-index threshold in [0, 1). Patterns are kept when
        pi > theta (default) or pi >= theta with ``strict_theta=False``.
    epsilon : ratio-like
        Approximation margin in [0, 1] for the constricted representation.
    metric : {"euclidean", "geodesic"}
    strict_theta : bool
    max_length : int or None
        Optional cap on pattern length; hitting it is reported, not silent.
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
        if not self.radius > 0:
            raise ValueError("radius must be > 0")
        if not self.window > 0:
            raise ValueError("window must be > 0")
        if not (0 <= self.theta < 1):
            raise ValueError("theta must lie in [0, 1)")
        if not (0 <= self.epsilon <= 1):
            raise ValueError("epsilon must lie in [0, 1]")
        if self.metric not in VALID_METRICS:
            raise ValueError(f"metric must be one of {VALID_METRICS}")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError("max_length must be >= 1")

    def passes_theta(self, pi: Fraction) -> bool:
        return pi > self.theta if self.strict_theta else pi >= self.theta


# ---------------------------------------------------------------------------
# Pattern tree
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PatternNode:
    """A pattern with its participation index and lattice links.

    ``last_support`` holds the instances supporting the final element as a
    sorted, unique ``int64`` array of idx (the support of element i < m is
    the ``last_support`` of the length-i prefix node, reachable along the
    ``parent1`` chain). Nodes hash and compare by identity.
    """

    pattern: Pattern
    pi: Fraction
    last_support: np.ndarray
    parent1: Optional["PatternNode"] = None
    parent2: Optional["PatternNode"] = None
    children: list["PatternNode"] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"PatternNode({format_pattern(self.pattern)}, pi={self.pi})"

    @property
    def length(self) -> int:
        return len(self.pattern)


class MaxTree:
    """Level-structured lattice of all threshold-passing patterns.

    ``levels[k-1]`` holds the length-k nodes, each level sorted by
    :func:`canonical_key`. The tree is never changed after the growth phase;
    the closure phase returns its result instead of storing it on the nodes.
    """

    def __init__(self, levels: Sequence[Sequence[PatternNode]], capped: bool = False) -> None:
        self.levels: list[list[PatternNode]] = [list(level) for level in levels]
        self.capped = capped
        self._by_pattern: dict[Pattern, PatternNode] = {
            node.pattern: node for level in self.levels for node in level
        }

    def __iter__(self) -> Iterator[PatternNode]:
        for level in self.levels:
            yield from level

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def node(self, pattern: Pattern) -> Optional[PatternNode]:
        return self._by_pattern.get(tuple(pattern))

    @property
    def depth(self) -> int:
        return len(self.levels)
