"""The spatio-temporal neighbor relation, built once as per-type edge arrays.

For an instance e and event type F, the neighborhood is every instance of
type F within ``radius`` of e that occurs strictly later than e but at most
``window`` minutes later. The index computes the whole relation at
construction with whole-array numpy work over the dataset's columns (type
id, x, y, time), and takes each type's instances from the dataset's
per-type order:

- instances are sorted by time once, and each source's forward time window
  lies in a [lo, hi) range of time positions found by binary search; a
  candidate must also pass the oracle's own test t_f - t_e <= window;
- space is cut into cells at least ``radius`` wide: squares in planar mode,
  latitude bands in geodesic mode (a great-circle distance is at least the
  globe radius times the latitude difference, so bands need no wrap at 180
  degrees and no care at the poles);
- sorting by (cell, time position) makes the window of every source inside
  one neighbouring cell a contiguous run, found by two vectorized binary
  searches per cell offset (9 planar, 3 geodesic), and only those candidates
  are tested, for distance and time alike.

Planar mode compares squared distances so integer-valued coordinates on the
radius boundary stay exact; geodesic mode treats (x, y) as (longitude,
latitude) in degrees and uses the haversine great-circle distance in meters,
with the source latitude's cosine from ``math.cos``.

Each type numbers its instances 0..count-1 in idx order: their local ids.
The edges out of one source type are one run of source local ids, sorted
by (target type-major id, source local id); one sort of integer keys gives
that order for every type at once, and each run's keys are then decoded on
their own, in place, into source local ids. Within a run, the edges into
one target instance are one segment, and the segments into one target type
are one block. Supports are sorted, unique ``int64`` arrays of the local
ids of one type. A union takes a batch of supports of one source type: bit
j of a word per source instance marks support j, and one
``bitwise_or.reduceat`` of the run's words over its segments gives each
target instance the OR of its in-neighbours' words, so one pass over the
run answers up to ``WORD_BITS`` supports. ``instances_of`` maps local ids
back to idx.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .model import EventDataset, MiningConfig, METRIC_EUCLIDEAN

#: Globe radius of the geodesic metric, in meters.
EARTH_RADIUS_M = 6_371_000.0

#: Supports that one union pass serves: bit j of a source's word marks support j.
WORD_BITS = 64

# Cell keys are cell * n + time position; every key, and every key searched
# for, stays below 2**63.
_KEY_LIMIT = 2 ** 62


def _cells(coords: Sequence[np.ndarray], size: float) -> tuple[np.ndarray, np.ndarray]:
    """(cell id per point, id offsets of the 3**d cells around any cell) for
    a grid over the d coordinate arrays whose cells are at least ``size``
    wide. A pair of points closer than ``size`` along every coordinate lies
    in neighbouring cells. No points make no cells and the one offset 0."""
    n = coords[0].size
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    extent = max(float(np.abs(c).max()) for c in coords)
    per_axis = max(1, int((_KEY_LIMIT / n) ** (1 / len(coords))) // 2 - 2)
    # The margins keep float rounding from putting a pair that passes the
    # distance test two cells apart: the relative one covers c / side, the
    # absolute one the rounding of the coordinates inside the distance
    # terms, which outweighs a radius that is tiny next to them (geodesic
    # radii under about 1 m). Cells are coarsened when needed to keep at
    # most 2 * per_axis + 1 per axis.
    side = max(size * (1 + 1e-9) + extent * 2.0 ** -46, extent / per_axis)
    cell = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(1, dtype=np.int64)
    for c in coords:
        k = np.floor(c / side).astype(np.int64)
        k -= k.min()
        width = int(k.max()) + 2  # a spare slot: offsets never alias a cell
        cell = cell * width + k
        offsets = (offsets[:, None] * width + np.arange(-1, 2)).ravel()
    return cell, offsets


class NeighborhoodIndex:
    """The neighbor relation of one dataset under one config.
    ``edge_count`` is the number of (source, target) pairs in it, 0 for a
    dataset with no instances. Geodesic degrees out of range raise ValueError.

    Each type numbers its instances 0..count-1 in idx order; these are the
    type's local ids, and :meth:`instances_of` maps them back to idx."""

    def __init__(self, dataset: EventDataset, config: MiningConfig) -> None:
        self.dataset = dataset
        self.config = config

        n = len(dataset)
        # Type-major ids number the instances by (type, idx), so type t
        # holds the ids starts[t] .. starts[t+1]-1 and a local id is the
        # type-major id less starts[t]; the dataset's type_order maps a
        # type-major id to idx.
        starts = dataset.type_starts
        type_counts = np.diff(starts)
        self._starts = starts.tolist()
        # Every union's source words take the largest type's count: masks
        # sized per type left the heap fragmented, which raised a whole run's
        # peak RSS by 1-2 MB on a 12,000-instance, 5-type dataset.
        self._mask_size = int(type_counts.max(initial=0))
        major = np.empty(n, dtype=np.int64)
        major[dataset.type_order] = np.arange(n)

        order = np.argsort(dataset.times, kind="stable")  # time position -> idx
        times = dataset.times[order]
        xs = dataset.xs[order]
        ys = dataset.ys[order]
        geodesic = config.metric != METRIC_EUCLIDEAN
        # Squared as a float: the square of an int radius may overflow one.
        radius = float(config.radius)
        if geodesic:
            if not (np.all(np.abs(xs) <= 180.0) and np.all(np.abs(ys) <= 90.0)):
                raise ValueError("geodesic coordinates must lie within "
                                 "[-180, 180] x [-90, 90] degrees")
            rad_lats = np.radians(ys)
            half_lats = rad_lats / 2.0
            half_lons = np.radians(xs) / 2.0
            cos_lats = np.cos(rad_lats)
            # The source side's cosine comes from math.cos, as in the scalar
            # formula: np.cos may differ from it in the last ulp and flip a
            # pair on the radius boundary. np.radians is the same one
            # multiplication as math.radians, so the halves are shared.
            src_cos_lats = np.fromiter(map(math.cos, rad_lats.tolist()),
                                       dtype=np.float64, count=n)
            cell, offsets = _cells(
                [ys], math.degrees(radius / EARTH_RADIUS_M))
        else:
            cell, offsets = _cells([xs, ys], radius)
        # An edge from a source of type s with local id l to the target with
        # type-major id d has the key starts[s] * n + d * count_s + l. Type
        # s's keys fill [starts[s] * n, starts[s + 1] * n), ordered by (d, l),
        # and stay below n**2 < 2**63 (up to 2**31 instances). Each time
        # position's parts of a key, as target and as source:
        dst_code = major[order]
        kinds = dataset.type_ids[order]
        src_base = starts[kinds] * (n - 1) + dst_code  # starts[s] * n + l
        src_mult = type_counts[kinds]
        del major, order, kinds

        # Each source's candidates [lo, hi) of strictly later instances. The
        # window is decided per candidate by the oracle's test t_f - t_e <=
        # window, not by the rounded sum t_e + window; searching to the float
        # after the sum finds a superset of it (times are non-negative).
        window = float(config.window)
        lows = np.searchsorted(times, times, side="right")
        highs = np.searchsorted(times, np.nextafter(times + window, np.inf), side="right")

        # The candidates of all sources in one neighbouring cell at a time, so
        # temporaries stay near a ninth (planar) of all candidates. Sources
        # are taken in key order, which makes every array of searched keys
        # sorted (lows and highs grow with the time position), and sorted
        # searches run several times faster than scattered ones.
        keys = cell * n + np.arange(n, dtype=np.int64)
        by_key = np.argsort(keys)
        keys, cell, lows, highs = keys[by_key], cell[by_key], lows[by_key], highs[by_key]
        edge_parts = []
        for offset in offsets.tolist():
            base = (cell + offset) * n
            start = np.searchsorted(keys, base + lows)
            counts = np.searchsorted(keys, base + highs) - start
            src = np.repeat(by_key, counts)
            run_start = np.repeat(start - (np.cumsum(counts) - counts), counts)
            dst = by_key[run_start + np.arange(src.size)]
            ok = times[dst] - times[src] <= window
            if not geodesic:
                dx = xs[dst] - xs[src]
                dy = ys[dst] - ys[src]
                ok &= dx * dx + dy * dy <= radius * radius
            else:
                s_lat = np.sin(half_lats[dst] - half_lats[src])
                s_lon = np.sin(half_lons[dst] - half_lons[src])
                h = s_lat * s_lat + s_lon * s_lon * (cos_lats[dst] * src_cos_lats[src])
                np.clip(h, 0.0, 1.0, out=h)
                ok &= 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)) <= radius
            src = src[ok]
            edge = dst_code[dst[ok]]
            edge *= src_mult[src]
            edge += src_base[src]
            edge_parts.append(edge)
        # One sort of the keys leaves every source type's edges one
        # contiguous run in (target, source) order, the run of type s
        # [cuts[s], cuts[s + 1]). The parts are freed before the sort, which
        # is in place, and so is the decoding of each run's keys into its
        # source local ids.
        edges = np.concatenate(edge_parts)
        del edge_parts
        edges.sort()
        self.edge_count = int(edges.size)
        cuts = np.searchsorted(edges, starts * n).tolist()
        # Per source type: its run of source local ids; where each of its
        # segments, the edges into one target instance, starts in the run;
        # each segment's target local id; and the bounds of each target
        # type's block of its segments.
        self._runs = []
        for s, (a, b) in enumerate(zip(cuts, cuts[1:])):
            src = edges[a:b]
            src -= self._starts[s] * n
            # The key d * count_s + l splits into the target's type-major id
            # d and the source's local id l, written back over the key.
            dst, _ = np.divmod(src, type_counts[s], out=(None, src))
            # Segments start where the target changes (np.diff is slower).
            first = np.ones(dst.size, dtype=bool)
            np.not_equal(dst[1:], dst[:-1], out=first[1:])
            first = np.flatnonzero(first)
            seg = dst[first]
            blocks = np.searchsorted(seg, starts)
            seg -= np.repeat(starts[:-1], np.diff(blocks))  # target local ids
            self._runs.append((src, first, seg, blocks))

    def instances_of(self, type_id: int, local_ids) -> np.ndarray:
        """The idx of type ``type_id``'s instances with the given local ids."""
        if not 0 <= type_id < len(self.dataset.types):
            raise KeyError(f"unknown event type id {type_id}")
        members = self.dataset.type_order[self._starts[type_id]:self._starts[type_id + 1]]
        return members[local_ids]

    def union_over(self, supports: Sequence[Sequence[int]], source_type: int,
                   target_lists: Sequence[Sequence[int]],
                   least: Optional[Sequence[int]] = None,
                   ) -> list[list[Optional[np.ndarray]]]:
        """For each support, given as sorted local ids of ``source_type``, and
        each type in its target list: the sorted, unique local ids of that
        type's instances that neighbor some instance of the support. One list
        per support, holding one ``int64`` array per listed target, in order.
        With ``least``, a count per type id, a union of fewer than
        ``least[t]`` ids of type t is None instead, and is never gathered;
        it is optional so that the three-argument call, which returns every
        union, keeps its meaning for library callers.

        This is the miner's support-set step for one batch of prefixes that
        end in ``source_type``, each with its candidates' final types: the
        batch's supports share one pass over ``source_type``'s edges, bit j
        of a ``uint64`` word per source instance marking support j, so a
        batch holds at most ``WORD_BITS`` supports.
        An unknown type id raises KeyError; a support whose first or last id
        lies outside [0, count), a batch whose two lists differ in length,
        or a batch of more than ``WORD_BITS`` supports raises ValueError."""
        starts = self._starts
        n_types = len(starts) - 1
        asked = {t for targets in target_lists for t in targets}
        for type_id in (source_type, *asked):
            if not 0 <= type_id < n_types:
                raise KeyError(f"unknown event type id {type_id}")
        if len(supports) != len(target_lists):
            raise ValueError(f"{len(supports)} supports but {len(target_lists)} target lists")
        # Sorted, so the two ends bound every id.
        count = starts[source_type + 1] - starts[source_type]
        for support in supports:
            if len(support) and not (0 <= support[0] and support[-1] < count):
                raise ValueError(
                    f"local ids of type {self.dataset.label_of(source_type)!r} must "
                    f"lie in [0, {count}), got {support[0]} .. {support[-1]}")
        if len(supports) > WORD_BITS:
            raise ValueError(f"{len(supports)} supports in one batch; "
                             f"at most {WORD_BITS} share a pass")
        words = np.zeros(self._mask_size, dtype=np.uint64)
        bits = [np.uint64(1 << j) for j in range(len(supports))]
        for support, bit in zip(supports, bits):
            words[support] |= bit
        src, first, dst, blocks = self._runs[source_type]
        # One word per target instance with an in-edge from the source type,
        # the OR of its in-neighbours' words.
        hit = np.bitwise_or.reduceat(words[src], first)
        unions = []
        for bit, targets in zip(bits, target_lists):
            # The support's hits, as segment numbers, cut at each target
            # type's block.
            seg = np.not_equal(hit & bit, 0).nonzero()[0]
            ends = seg.searchsorted(blocks).tolist()
            unions.append([dst[seg[ends[t]:ends[t + 1]]]
                           if least is None or ends[t + 1] - ends[t] >= least[t] else None
                           for t in targets])
        return unions
