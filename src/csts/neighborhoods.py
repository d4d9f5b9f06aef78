"""The spatio-temporal neighbor relation, built once as per-type edge arrays.

For an instance e and event type F, the neighborhood is every instance of
type F within ``radius`` of e that occurs strictly later than e but at most
``window`` minutes later. The index computes the whole relation at
construction with whole-array numpy work:

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
with the source latitude's cosine from ``math.cos``. The result is kept per
target type as two parallel arrays of (source idx, target idx), ordered by
source idx. Supports are sorted, unique ``int64`` arrays of instance idx.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Sequence

import numpy as np

from .model import EventDataset, MiningConfig, METRIC_EUCLIDEAN

#: Globe radius of the geodesic metric, in meters.
EARTH_RADIUS_M = 6_371_000.0

# Cell keys are cell * n + time position; every key, and every key searched
# for, stays below 2**63.
_KEY_LIMIT = 2 ** 62


def _column(instances, name: str, dtype) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), instances), dtype=dtype,
                       count=len(instances))


def _cells(coords: Sequence[np.ndarray], size: float) -> tuple[np.ndarray, np.ndarray]:
    """(cell id per point, id offsets of the 3**d cells around any cell) for
    a grid over the d coordinate arrays whose cells are at least ``size``
    wide. A pair of points closer than ``size`` along every coordinate lies
    in neighbouring cells."""
    n = coords[0].size
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
    ``edge_count`` is the number of (source, target) pairs in it."""

    def __init__(self, dataset: EventDataset, config: MiningConfig) -> None:
        self.dataset = dataset
        self.config = config

        instances = dataset.instances
        n = len(instances)
        times = _column(instances, "time", np.float64)
        order = np.argsort(times, kind="stable")  # time position -> idx
        times = times[order]
        xs = _column(instances, "x", np.float64)[order]
        ys = _column(instances, "y", np.float64)[order]
        types = _column(instances, "event_type", np.int64)[order]
        geodesic = config.metric != METRIC_EUCLIDEAN
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
                [ys], math.degrees(float(config.radius) / EARTH_RADIUS_M))
        else:
            cell, offsets = _cells([xs, ys], float(config.radius))

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
        key_parts, dst_parts = [], []
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
                ok &= dx * dx + dy * dy <= float(config.radius * config.radius)
            else:
                s_lat = np.sin(half_lats[dst] - half_lats[src])
                s_lon = np.sin(half_lons[dst] - half_lons[src])
                h = s_lat * s_lat + s_lon * s_lon * (cos_lats[dst] * src_cos_lats[src])
                np.clip(h, 0.0, 1.0, out=h)
                ok &= 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)) <= float(config.radius)
            key_parts.append(types[dst[ok]] * n + order[src[ok]])
            dst_parts.append(order[dst[ok]])
        # Edges sorted by (target type, source idx): each type's edges are one
        # slice, and each source's edges within it are contiguous. The parts
        # are freed before the sort, which is the build's memory peak.
        type_src, dst = np.concatenate(key_parts), np.concatenate(dst_parts)
        del key_parts, dst_parts
        by_edge = np.argsort(type_src)
        type_src, dst = type_src[by_edge], dst[by_edge]
        self.edge_count = int(dst.size)
        bounds = np.searchsorted(type_src, np.arange(len(dataset.types) + 1) * n).tolist()
        self._edges: dict[int, tuple[np.ndarray, np.ndarray]] = {
            t: (type_src[a:b] % n, dst[a:b]) for t, (a, b) in enumerate(zip(bounds, bounds[1:]))}

    def neighborhood(self, e_idx: int, type_id: int) -> tuple[int, ...]:
        """Sorted neighbor idx tuple for one (instance, type) pair."""
        if not (0 <= e_idx < len(self.dataset.instances)):
            raise KeyError(f"unknown instance idx {e_idx}")
        return tuple(self.union_over([e_idx], type_id).tolist())

    def union_over(self, support: Sequence[int], type_id: int) -> np.ndarray:
        """Sorted, unique idx array of every type-``type_id`` neighbor of the
        ``support`` instances: the support-set step of the miner."""
        if type_id not in self._edges:
            raise KeyError(f"unknown event type id {type_id}")
        src, dst = self._edges[type_id]
        chosen = np.zeros(len(self.dataset.instances), dtype=bool)
        chosen[support] = True
        hit = np.zeros_like(chosen)
        hit[dst[chosen[src]]] = True
        return np.flatnonzero(hit)


def build_index(dataset: EventDataset, config: MiningConfig) -> NeighborhoodIndex:
    """Construct the neighbor relation for a dataset/config pair. Raises
    ValueError for an empty dataset or, in geodesic mode, degrees out of
    range."""
    if len(dataset.instances) == 0:
        raise ValueError("cannot index an empty dataset")
    return NeighborhoodIndex(dataset, config)
