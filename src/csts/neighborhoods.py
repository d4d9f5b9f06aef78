"""The spatio-temporal neighbor relation, built once as per-type edge arrays.

For an instance e and event type F, the neighborhood is every instance of
type F within ``radius`` of e that occurs strictly later than e but at most
``window`` minutes later. The index computes the whole relation at
construction: instances are sorted by time once, each source walks only its
forward time window, and distances inside the window are evaluated with
vectorized numpy. Planar mode compares squared distances so integer-valued
coordinates on the radius boundary stay exact; geodesic mode treats (x, y)
as (longitude, latitude) in degrees and uses the haversine great-circle
distance in meters. The result is kept per target type as two parallel
arrays of (source idx, target idx). Supports are sorted, unique ``int64``
arrays of instance idx.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import EventDataset, MiningConfig, METRIC_EUCLIDEAN

#: Globe radius of the geodesic metric, in meters.
EARTH_RADIUS_M = 6_371_000.0


class NeighborhoodIndex:
    """The neighbor relation of one dataset under one config."""

    def __init__(self, dataset: EventDataset, config: MiningConfig) -> None:
        self.dataset = dataset
        self.config = config

        order = sorted(range(len(dataset.instances)),
                       key=lambda i: (dataset.instances[i].time, i))
        sorted_idx = np.asarray(order, dtype=np.int64)
        times = np.asarray(
            [dataset.instances[i].time for i in order], dtype=np.float64)
        xs = np.asarray([dataset.instances[i].x for i in order], dtype=np.float64)
        ys = np.asarray([dataset.instances[i].y for i in order], dtype=np.float64)
        types = np.asarray([dataset.instances[i].event_type for i in order], dtype=np.int64)
        geodesic = config.metric != METRIC_EUCLIDEAN
        if geodesic:
            if not (np.all(np.abs(xs) <= 180.0) and np.all(np.abs(ys) <= 90.0)):
                raise ValueError("geodesic coordinates must lie within "
                                 "[-180, 180] x [-90, 90] degrees")
            rad_lats = np.radians(ys)
            half_lats = rad_lats / 2.0
            half_lons = np.radians(xs) / 2.0

        # Each source's window [lo, hi) of strictly later instances, decided by
        # the oracle's test t_f - t_e <= window, not by the rounded sum t_e +
        # window. Searching to the float after the sum finds a superset (times
        # are non-negative); float subtraction is monotone, so trimming runs of
        # equal times off the end until the last one passes leaves the window.
        window = float(config.window)
        lows = np.searchsorted(times, times, side="right")
        highs = np.searchsorted(times, np.nextafter(times + window, np.inf), side="right")
        over = (highs > lows) & (times[highs - 1] - times > window)
        while over.any():
            highs[over] = np.searchsorted(times, times[highs[over] - 1], side="left")
            over = (highs > lows) & (times[highs - 1] - times > window)
        lows, highs = lows.tolist(), highs.tolist()
        targets = []
        for e_idx, lo, hi in zip(order, lows, highs):
            e = dataset.instances[e_idx]
            if not geodesic:
                dx = xs[lo:hi] - e.x
                dy = ys[lo:hi] - e.y
                ok = dx * dx + dy * dy <= float(config.radius * config.radius)
            else:
                s_lat = np.sin(half_lats[lo:hi] - math.radians(e.y) / 2.0)
                s_lon = np.sin(half_lons[lo:hi] - math.radians(e.x) / 2.0)
                h = s_lat * s_lat + s_lon * s_lon * (
                    np.cos(rad_lats[lo:hi]) * math.cos(math.radians(e.y)))
                np.clip(h, 0.0, 1.0, out=h)
                ok = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h)) <= float(config.radius)
            targets.append(np.flatnonzero(ok) + lo)
        src = np.repeat(sorted_idx, [t.size for t in targets])
        pos = np.concatenate(targets)
        dst, dst_types = sorted_idx[pos], types[pos]
        self._edges: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for type_id in dataset.by_type:
            into = dst_types == type_id
            self._edges[type_id] = (src[into], dst[into])

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
