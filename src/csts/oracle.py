"""Brute-force reference miner and synthetic-data generator.

Everything here is deliberately naive: neighborhoods come from a double loop
with its own inline distance arithmetic, and sub/supersequence checks use
their own explicit offset scan. None of it shares code with the fast miner,
so agreement between the two is meaningful evidence of correctness. A size
guard refuses inputs large enough to make the naive algorithms painful.
``csts mine --algorithm oracle`` runs this miner, and ``--synthetic`` runs
:func:`generate_random`.

:func:`example_dataset` and :func:`example_config` give the hand-constructed
61-instance worked example, whose full pattern lattice is known exactly, and
its thresholds. The example's one source is the bundled
``data/example_events.csv``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .ingestion import EXAMPLE_EVENTS_FILE, load_generic
from .model import (
    EventDataset,
    EventInstance,
    EventType,
    MiningConfig,
    Pattern,
    canonical_key,
)

#: Inputs past these limits are refused; the oracle is for desk-scale data.
ORACLE_MAX_INSTANCES = 200
ORACLE_MAX_LENGTH = 8


class OracleSizeError(ValueError):
    """Raised when an input exceeds the oracle's documented size guard."""


def _contains(outer: Pattern, inner: Pattern) -> bool:
    # Independent all-offsets substring scan (do not reuse model helpers).
    n, m = len(outer), len(inner)
    if m > n:
        return False
    for k in range(n - m + 1):
        if all(outer[k + i] == inner[i] for i in range(m)):
            return True
    return False


def _distance(a: EventInstance, b: EventInstance, cfg: MiningConfig) -> float:
    # The oracle's own distance arithmetic, kept separate from the index's.
    if cfg.metric == "euclidean":
        dx = a.x - b.x
        dy = a.y - b.y
        return math.sqrt(dx * dx + dy * dy)
    s_lat = math.sin(math.radians(b.y - a.y) / 2.0)
    s_lon = math.sin(math.radians(b.x - a.x) / 2.0)
    h = s_lat * s_lat + s_lon * s_lon * math.cos(math.radians(a.y)) * math.cos(math.radians(b.y))
    return 2.0 * 6_371_000.0 * math.asin(min(1.0, math.sqrt(h)))


class _NaiveNeighbors:
    """Double-loop neighborhood evaluation with memoization per (idx, type).
    Geodesic degrees outside [-180, 180] x [-90, 90] raise ValueError."""

    def __init__(self, dataset: EventDataset, cfg: MiningConfig) -> None:
        if cfg.metric != "euclidean" and any(
                not (-180.0 <= p.x <= 180.0 and -90.0 <= p.y <= 90.0)
                for p in dataset.instances):
            raise ValueError("geodesic coordinates must lie within "
                             "[-180, 180] x [-90, 90] degrees")
        self.dataset = dataset
        self.cfg = cfg
        self._cache: dict[tuple[int, int], frozenset[int]] = {}

    def __call__(self, e_idx: int, type_id: int) -> frozenset[int]:
        key = (e_idx, type_id)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        e = self.dataset.instances[e_idx]
        found = []
        for p in self.dataset.by_type[type_id]:
            dt = p.time - e.time
            if 0 < dt <= self.cfg.window and _distance(p, e, self.cfg) <= self.cfg.radius:
                found.append(p.idx)
        result = frozenset(found)
        self._cache[key] = result
        return result


def oracle_all_patterns(
    dataset: EventDataset,
    cfg: MiningConfig,
    max_len: int = 7,
) -> list[tuple[Pattern, Fraction]]:
    """Enumerate every threshold-passing pattern with its exact pi.

    Depth-first over raw type sequences, evaluating support sets directly
    from the neighborhood definition. When theta > 0 the search prunes
    branches whose running pi already fails (extensions can only lower pi);
    at theta = 0 it enumerates everything up to ``max_len`` so correctness
    never depends on the pruning argument.

    Returns (pattern, pi) pairs sorted by canonical key.
    """
    if len(dataset) > ORACLE_MAX_INSTANCES:
        raise OracleSizeError(f"oracle refuses {len(dataset)} instances "
                              f"(guard: {ORACLE_MAX_INSTANCES})")
    if max_len > ORACLE_MAX_LENGTH:
        raise OracleSizeError(
            f"oracle refuses max_len {max_len} (guard: {ORACLE_MAX_LENGTH})")

    neighbors = _NaiveNeighbors(dataset, cfg)
    live_types = [t.id for t in dataset.types if dataset.count(t.id) > 0]
    results: list[tuple[Pattern, Fraction]] = []

    def walk(pattern: Pattern, support: frozenset[int], pi: Fraction) -> None:
        if cfg.passes_theta(pi):
            results.append((pattern, pi))
        elif cfg.theta > 0:
            return  # pruning: no extension can raise the running pi
        if len(pattern) >= max_len:
            return
        for g in live_types:
            new_support = frozenset().union(*(neighbors(e, g) for e in support)) \
                if support else frozenset()
            pr = Fraction(len(new_support), dataset.count(g))
            walk(pattern + (g,), new_support, min(pi, pr))

    for f in live_types:
        support = frozenset(inst.idx for inst in dataset.by_type[f])
        walk((f,), support, Fraction(1))

    results.sort(key=lambda item: canonical_key(item[0]))
    return results


def oracle_closed(
    all_patterns: list[tuple[Pattern, Fraction]],
) -> list[tuple[Pattern, Fraction]]:
    """Filter to closed patterns by literally scanning for an equal-pi
    proper supersequence among the enumerated patterns."""
    out = []
    for p, pi in all_patterns:
        closed = True
        for q, qpi in all_patterns:
            if len(q) > len(p) and qpi == pi and _contains(q, p):
                closed = False
                break
        if closed:
            out.append((p, pi))
    return out


def oracle_cmax(
    all_patterns: list[tuple[Pattern, Fraction]],
    epsilon: Fraction,
) -> dict[Pattern, list[Pattern]]:
    """Literal constricted-supersequence sets over the enumerated universe.

    For each pattern s: restrict to supersequences of s (s itself included)
    whose pi is at least pi(s) - epsilon, keep those of greatest length, then
    keep the greatest pi among those; ties all enter. A pattern whose only
    qualifier at the top length is itself maps to [s].
    """
    cmax: dict[Pattern, list[Pattern]] = {}
    for p, pi in all_patterns:
        bound = pi - epsilon
        quals = [
            (q, qpi)
            for q, qpi in all_patterns
            if qpi >= bound and (q == p or (len(q) > len(p) and _contains(q, p)))
        ]
        best_len = max(len(q) for q, _ in quals)
        pool = [(q, qpi) for q, qpi in quals if len(q) == best_len]
        best_pi = max(qpi for _, qpi in pool)
        cmax[p] = sorted((q for q, qpi in pool if qpi == best_pi), key=canonical_key)
    return cmax


def oracle_csts(
    all_patterns: list[tuple[Pattern, Fraction]],
    epsilon: Fraction,
) -> tuple[list[tuple[Pattern, Fraction]], dict[Pattern, list[Pattern]]]:
    """The constricted pattern set: everything that appears in some cmax.

    Returns (members with pis, the full cmax map).
    """
    cmax = oracle_cmax(all_patterns, epsilon)
    member_set = {q for qs in cmax.values() for q in qs}
    pi_of = dict(all_patterns)
    members = [(q, pi_of[q]) for q in sorted(member_set, key=canonical_key)]
    return members, cmax


# ---------------------------------------------------------------------------
# Random datasets
# ---------------------------------------------------------------------------

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class RandomSpec:
    """Seeded recipe for a synthetic dataset; generation is a pure function
    of these fields."""

    seed: int
    n_types: int
    n_instances: int
    area: float = 100.0
    horizon: int = 300

    def __post_init__(self) -> None:
        if self.n_types < 1 or self.n_instances < 0:
            raise ValueError("n_types must be >= 1 and n_instances >= 0")
        # NaN fails every comparison, so test for the good range.
        if not (0 < self.area < math.inf) or self.horizon <= 0:
            raise ValueError("area must be finite and positive, and horizon positive")
        # Every integer up to 2**53 is exact in float64, the times' dtype.
        if self.horizon > 2**53:
            raise ValueError("horizon must be at most 2**53")


def generate_random(spec: RandomSpec) -> EventDataset:
    """Uniform instances: coordinates over a square, integer times over a
    horizon, types drawn uniformly. Deterministic per seed."""
    rng = random.Random(spec.seed)
    labels = [
        _LETTERS[i] if i < len(_LETTERS) else f"T{i}" for i in range(spec.n_types)
    ]
    types = [EventType(i, lab) for i, lab in enumerate(sorted(labels))]
    type_ids, xs, ys, times = [], [], [], []
    for _ in range(spec.n_instances):
        type_ids.append(rng.randrange(spec.n_types))
        xs.append(round(rng.uniform(0.0, spec.area), 3))
        ys.append(round(rng.uniform(0.0, spec.area), 3))
        times.append(rng.randint(0, spec.horizon))
    return EventDataset.from_columns(types, type_ids, xs, ys, times)


# ---------------------------------------------------------------------------
# The worked-example dataset
# ---------------------------------------------------------------------------

#: Neighborhood thresholds the example dataset was engineered for.
EXAMPLE_RADIUS = 10.0
EXAMPLE_WINDOW = 20.0


def example_dataset() -> EventDataset:
    """The bundled 61-instance demonstration dataset, loaded from
    ``data/example_events.csv``, its one source.

    Engineered so that, at radius 10 / window 20 / theta 0.2, the full
    lattice holds exactly 26 patterns over types A..E with known exact
    participation indexes (the test suite freezes all of them). The tests
    name an instance by its label in lower case plus its 1-based rank
    within its type (a1, a2, b1, ...). Geometry notes:

    * pairs at squared distance exactly 100 sit on the inclusive boundary
      (b8->b2/b4/b7, b1->b5, b3->b6, b4->c3, b7->c4, b2->d3, c3->e13..15,
      c5->e16..32);
    * c1 misses the (1,17) E-pack by sqrt(106) so only c2 reaches it;
    * instances sharing a timestamp are mutually invisible (simultaneity is
      excluded), which keeps the E-packs and d1/d2 from chaining;
    * c5 and its 17-strong E-pack live at x=1000, far from everything else.
    """
    return load_generic(EXAMPLE_EVENTS_FILE)[0]


def example_config(theta="0.2", epsilon="0.25", strict_theta: bool = True,
                   max_length: Optional[int] = None) -> MiningConfig:
    """Convenience MiningConfig wired to the example dataset's thresholds."""
    return MiningConfig(
        radius=EXAMPLE_RADIUS,
        window=EXAMPLE_WINDOW,
        theta=theta,
        epsilon=epsilon,
        strict_theta=strict_theta,
        max_length=max_length,
    )
