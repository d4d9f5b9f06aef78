"""Independent reference for checking the program's outputs.

The neighbor relation, the level-wise support propagation, the closed set
and the constricted set are all computed here from the definitions, with
no code shared with ``csts``:

* neighbors come from a space grid plus a time-sorted scan, with exact
  integer arithmetic for planar distances (coordinates are written with a
  fixed number of decimals) and a plain haversine for geodesic ones;
* patterns grow by appending any event type to any kept pattern, so the
  program's prefix/suffix join is not assumed;
* participation indexes are exact ``Fraction`` values;
* the constricted set is built from its definition: for each pattern, the
  longest supersequences within the margin, then the greatest pi among
  them, ties all kept.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from gen import Event

EARTH_RADIUS_M = 6_371_000.0
_M_PER_DEG = math.pi * EARTH_RADIUS_M / 180.0

Pattern = tuple  # tuple of type labels


@dataclass(frozen=True)
class Params:
    radius: float
    window: float
    geodesic: bool = False
    decimals: int = 2  # decimals the CSV writes planar coordinates with


def _haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def neighbors(events: list[Event], p: Params) -> list[list[int]]:
    """For each event i, the indexes j with t_i < t_j <= t_i + window and
    distance(i, j) <= radius."""
    if p.geodesic:
        lat_max = max(abs(e.y) for e in events)
        cy = p.radius / _M_PER_DEG * 1.01
        cx = cy / max(math.cos(math.radians(min(89.0, lat_max + cy))), 1e-6)
        keys = [(math.floor(e.x / cx), math.floor(e.y / cy)) for e in events]
    else:
        scale = 10 ** p.decimals
        ix = [int(e.x_text.replace(".", "")) for e in events]
        iy = [int(e.y_text.replace(".", "")) for e in events]
        r_int = round(p.radius * scale)
        if r_int != p.radius * scale:
            raise ValueError("planar radius must be a whole number of grid steps")
        r2 = r_int * r_int
        keys = [(x // r_int, y // r_int) for x, y in zip(ix, iy)]
    cells: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for i, (e, k) in enumerate(zip(events, keys)):
        cells[k].append((e.t, i))
    for bucket in cells.values():
        bucket.sort()
    times = {k: [t for t, _ in b] for k, b in cells.items()}
    out: list[list[int]] = []
    for i, e in enumerate(events):
        kx, ky = keys[i]
        found = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                k = (kx + dx, ky + dy)
                bucket = cells.get(k)
                if bucket is None:
                    continue
                ts = times[k]
                lo = bisect.bisect_right(ts, e.t)
                hi = bisect.bisect_right(ts, e.t + p.window)
                for _, j in bucket[lo:hi]:
                    if p.geodesic:
                        f = events[j]
                        ok = _haversine_m(e.x, e.y, f.x, f.y) <= p.radius
                    else:
                        ddx, ddy = ix[j] - ix[i], iy[j] - iy[i]
                        ok = ddx * ddx + ddy * ddy <= r2
                    if ok:
                        found.append(j)
        out.append(found)
    return out


class Lattice:
    """Every pattern with pi > theta (strict, as the program's default),
    up to ``max_length``, level by level."""

    def __init__(self, events: list[Event], nbrs: list[list[int]],
                 theta: Fraction, max_length: int) -> None:
        labels = sorted({e.label for e in events})
        by_label: dict[str, list[int]] = defaultdict(list)
        for i, e in enumerate(events):
            by_label[e.label].append(i)
        count = {lab: len(ids) for lab, ids in by_label.items()}
        # Neighbors of each event split by the neighbor's type.
        split: list[dict[str, list[int]]] = []
        for found in nbrs:
            d: dict[str, list[int]] = defaultdict(list)
            for j in found:
                d[events[j].label].append(j)
            split.append(d)
        self.edges = sum(len(f) for f in nbrs)
        self.theta = theta
        self.pi: dict[Pattern, Fraction] = {}
        self.levels: list[list[Pattern]] = []
        frontier = [((lab,), frozenset(by_label[lab]), Fraction(1)) for lab in labels]
        while frontier:
            self.levels.append([pat for pat, _, _ in frontier])
            for pat, _, pi in frontier:
                self.pi[pat] = pi
            if len(self.levels) >= max_length:
                break
            nxt = []
            for pat, support, pi in frontier:
                grown: dict[str, set[int]] = defaultdict(set)
                for i in support:
                    for lab, js in split[i].items():
                        grown[lab].update(js)
                for lab in labels:
                    sup = grown.get(lab, set())
                    child_pi = min(pi, Fraction(len(sup), count[lab]))
                    child = pat + (lab,)
                    if child_pi > theta:
                        nxt.append((child, frozenset(sup), child_pi))
            frontier = nxt

    def at(self, theta: Fraction) -> dict[Pattern, Fraction]:
        """The lattice at a higher threshold: a pattern's pi never exceeds
        that of any of its substrings, so filtering by pi is exact."""
        if theta < self.theta:
            raise ValueError("can only raise the threshold")
        return {p: v for p, v in self.pi.items() if v > theta}


def _substrings(p: Pattern):
    n = len(p)
    for a in range(n):
        for b in range(a + 1, n + 1):
            yield p[a:b]


def closed_set(pis: dict[Pattern, Fraction]) -> set[Pattern]:
    """Patterns with no proper supersequence of equal pi."""
    beaten = set()
    for q, qpi in pis.items():
        for s in _substrings(q):
            if len(s) < len(q) and pis.get(s) == qpi:
                beaten.add(s)
    return set(pis) - beaten


def csts_set(pis: dict[Pattern, Fraction], eps: Fraction) -> set[Pattern]:
    """The constricted set from its definition (see module docstring)."""
    supers: dict[Pattern, list[Pattern]] = defaultdict(list)
    for q in pis:
        for s in set(_substrings(q)):
            supers[s].append(q)
    members: set[Pattern] = set()
    for p, pi in pis.items():
        quals = [q for q in supers[p] if pis[q] >= pi - eps]
        best_len = max(len(q) for q in quals)
        pool = [q for q in quals if len(q) == best_len]
        best_pi = max(pis[q] for q in pool)
        members.update(q for q in pool if pis[q] == best_pi)
    return members


def covers(pis: dict[Pattern, Fraction], members: set[Pattern], eps: Fraction) -> bool:
    """Whether every strong pattern has a member supersequence (itself
    included) whose pi is within eps below its own."""
    best: dict[Pattern, Fraction] = {}
    for m in members & pis.keys():
        for s in _substrings(m):
            if pis[m] > best.get(s, -1):
                best[s] = pis[m]
    return all(p in best and best[p] >= pi - eps for p, pi in pis.items())


def check_estimate(q: Pattern, est: Optional[tuple], pis: dict[Pattern, Fraction],
                   members: set[Pattern], eps: Fraction) -> Optional[str]:
    """Check one query answer. ``est`` is None or (lower, upper, witness,
    exact). Returns a description of the fault, or None."""
    true = pis.get(q)
    if true is None:
        return None if est is None else f"{q}: not strong, but got {est}"
    if est is None:
        return f"{q}: strong (pi {true}) but got no estimate"
    lower, upper, witness, exact = est
    if not lower <= true <= upper:
        return f"{q}: pi {true} outside [{lower}, {upper}]"
    if upper - lower > eps:
        return f"{q}: width {upper - lower} exceeds margin {eps}"
    if witness not in members:
        return f"{q}: witness {witness} is not a summary member"
    if exact:
        if witness != q or lower != upper or q not in members:
            return f"{q}: exact answer {est} but q is not the member"
    elif not (len(witness) > len(q)
              and any(witness[k:k + len(q)] == q for k in range(len(witness)))):
        return f"{q}: witness {witness} does not properly contain it"
    elif q in members:
        return f"{q}: a member answered by interval"
    return None
