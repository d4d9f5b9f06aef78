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
The edges are kept as two parallel arrays of (source local id, target
type-major id), sorted once by (source type-major id, target type-major
id), so the edges out of one type are one contiguous run, found in a cut
table, and one source's edges are contiguous within it. Supports are
sorted, unique ``int64`` arrays of the local ids of one type; a union
gathers the run of the support's type once and slices out every target
type it is asked for, and ``instances_of`` maps local ids back to idx.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import EventDataset, MiningConfig, METRIC_EUCLIDEAN

#: Globe radius of the geodesic metric, in meters.
EARTH_RADIUS_M = 6_371_000.0

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
        # Edge keys are source type-major id << shift | target type-major
        # id, in fields of ``shift`` bits; they stay below 2**63 while
        # 4 * n**2 does (up to 2**30 instances).
        shift = max(1, (n - 1).bit_length())

        # Type-major ids number the instances by (type, idx), so type t
        # holds the ids starts[t] .. starts[t+1]-1 and a local id is the
        # type-major id less starts[t]; the dataset's type_order maps a
        # type-major id to idx.
        starts = dataset.type_starts
        self._starts = starts.tolist()
        # Every union's source mask takes the largest type's count: masks
        # sized per type left the heap fragmented, which raised a whole run's
        # peak RSS by 1-2 MB on a 12,000-instance, 5-type dataset.
        self._mask_size = int(np.diff(starts).max(initial=0))
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
        # Each time position's part of an edge key, as source and as target.
        dst_code = major[order]
        src_code = dst_code << shift
        del major, order

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
            edge = dst_code[dst[ok]]
            edge += src_code[src[ok]]
            edge_parts.append(edge)
        # One sort of the keys leaves every source type's edges one
        # contiguous run, and each source's edges contiguous within it. The
        # parts are freed before the sort, which is in place, so the build's
        # memory peak is the concatenation.
        edges = np.concatenate(edge_parts)
        del edge_parts
        edges.sort()
        self.edge_count = int(edges.size)
        self._dst = edges & ((1 << shift) - 1)  # target type-major ids
        edges >>= shift
        # Source type s's run starts at its first type-major id, starts[s].
        cuts = np.searchsorted(edges, starts)
        edges -= np.repeat(starts[:-1], np.diff(cuts))
        self._src = edges  # source local ids
        self._cuts = cuts.tolist()

    def instances_of(self, type_id: int, local_ids) -> np.ndarray:
        """The idx of type ``type_id``'s instances with the given local ids."""
        if not 0 <= type_id < len(self.dataset.types):
            raise KeyError(f"unknown event type id {type_id}")
        members = self.dataset.type_order[self._starts[type_id]:self._starts[type_id + 1]]
        return members[local_ids]

    def union_over(self, support: Sequence[int], source_type: int,
                   target_types: Sequence[int]) -> list[np.ndarray]:
        """For each type in ``target_types``, the sorted, unique local ids of
        its instances that neighbor some ``support`` instance, given as local
        ids of ``source_type``: the support-set step of the miner, for every
        child of one prefix from one gather over ``source_type``'s edges. The
        support must be sorted; a first or last id outside [0, count) raises
        ValueError."""
        starts = self._starts
        n_types = len(starts) - 1
        for type_id in (source_type, *target_types):
            if not 0 <= type_id < n_types:
                raise KeyError(f"unknown event type id {type_id}")
        # Sorted, so the two ends bound every id.
        count = starts[source_type + 1] - starts[source_type]
        if len(support) and not (0 <= support[0] and support[-1] < count):
            raise ValueError(
                f"local ids of type {self.dataset.label_of(source_type)!r} must lie "
                f"in [0, {count}), got {support[0]} .. {support[-1]}")
        a, b = self._cuts[source_type], self._cuts[source_type + 1]
        chosen = np.zeros(self._mask_size, dtype=bool)
        chosen[support] = True
        hit = np.zeros(starts[-1], dtype=bool)
        hit[self._dst[a:b][chosen[self._src[a:b]]]] = True
        return [hit[starts[t]:starts[t + 1]].nonzero()[0] for t in target_types]
