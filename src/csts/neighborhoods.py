"""Time-sorted plane-sweep neighborhood index.

For an instance e and event type F, the neighborhood is every instance of
type F within ``radius`` of e that occurs strictly later than e but at most
``window`` minutes later. This module answers those queries for the miner's
hot loop: instances are sorted by time once, each query walks only the
forward time window, and distances inside the window are evaluated with
vectorized numpy. Planar mode compares squared distances so integer-valued
coordinates on the radius boundary stay exact; geodesic mode treats (x, y)
as (longitude, latitude) in degrees and uses the haversine great-circle
distance in meters.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .model import (
    EventDataset,
    MiningConfig,
    METRIC_EUCLIDEAN,
)

#: Globe radius of the geodesic metric, in meters.
EARTH_RADIUS_M = 6_371_000.0


class NeighborhoodIndex:
    """Per-(instance, type) neighbor sets under one config.

    Neighbor sets are materialized lazily — the first query for an instance
    computes its whole forward window and caches the per-type split — but
    the answers are semantically total and identical to a naive double-loop
    filter.
    """

    def __init__(self, dataset: EventDataset, config: MiningConfig) -> None:
        self.dataset = dataset
        self.config = config

        order = sorted(range(len(dataset.instances)),
                       key=lambda i: (dataset.instances[i].time, i))
        self._sorted_idx = np.asarray(order, dtype=np.int64)
        self._times = np.asarray(
            [dataset.instances[i].time for i in order], dtype=np.float64)
        self._xs = np.asarray([dataset.instances[i].x for i in order], dtype=np.float64)
        self._ys = np.asarray([dataset.instances[i].y for i in order], dtype=np.float64)
        self._types = np.asarray(
            [dataset.instances[i].event_type for i in order], dtype=np.int64)
        if config.metric != METRIC_EUCLIDEAN:
            if not (np.all(np.abs(self._xs) <= 180.0)
                    and np.all(np.abs(self._ys) <= 90.0)):
                raise ValueError("geodesic coordinates must lie within "
                                 "[-180, 180] x [-90, 90] degrees")
            self._rad_lats = np.radians(self._ys)
            self._half_lats = self._rad_lats / 2.0
            self._half_lons = np.radians(self._xs) / 2.0
        self._cache: dict[int, dict[int, tuple[int, ...]]] = {}

    # -- queries ----------------------------------------------------------

    def neighborhood(self, e_idx: int, type_id: int) -> tuple[int, ...]:
        """Sorted neighbor idx tuple for one (instance, type) pair."""
        if not (0 <= e_idx < len(self.dataset.instances)):
            raise KeyError(f"unknown instance idx {e_idx}")
        if type_id not in self.dataset.by_type:
            raise KeyError(f"unknown event type id {type_id}")
        return self._per_type(e_idx).get(type_id, ())

    def union_over(self, sources: Iterable[int], type_id: int) -> frozenset[int]:
        """Union of neighborhoods of all source instances for one type —
        the support-set step of the miner."""
        if type_id not in self.dataset.by_type:
            raise KeyError(f"unknown event type id {type_id}")
        out: set[int] = set()
        for e_idx in sources:
            out.update(self._per_type(e_idx).get(type_id, ()))
        return frozenset(out)

    # -- internals ---------------------------------------------------------

    def _per_type(self, e_idx: int) -> dict[int, tuple[int, ...]]:
        hit = self._cache.get(e_idx)
        if hit is not None:
            return hit
        e = self.dataset.instances[e_idx]
        # Window of strictly-later instances within the temporal threshold.
        lo = int(np.searchsorted(self._times, float(e.time), side="right"))
        upper = float(e.time + self.config.window)
        hi = int(np.searchsorted(self._times, upper, side="right"))
        result: dict[int, tuple[int, ...]] = {}
        if lo < hi:
            if self.config.metric == METRIC_EUCLIDEAN:
                dx = self._xs[lo:hi] - e.x
                dy = self._ys[lo:hi] - e.y
                ok = dx * dx + dy * dy <= float(self.config.radius * self.config.radius)
            else:
                s_lat = np.sin(self._half_lats[lo:hi] - math.radians(e.y) / 2.0)
                s_lon = np.sin(self._half_lons[lo:hi] - math.radians(e.x) / 2.0)
                h = s_lat * s_lat + s_lon * s_lon * (
                    np.cos(self._rad_lats[lo:hi]) * math.cos(math.radians(e.y)))
                np.clip(h, 0.0, 1.0, out=h)
                dist = 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))
                ok = dist <= float(self.config.radius)
            kept_pos = np.nonzero(ok)[0] + lo
            if kept_pos.size:
                kept_types = self._types[kept_pos]
                kept_idx = self._sorted_idx[kept_pos]
                for t in np.unique(kept_types):
                    members = kept_idx[kept_types == t]
                    members.sort()
                    result[int(t)] = tuple(int(i) for i in members)
        self._cache[e_idx] = result
        return result


def build_index(dataset: EventDataset, config: MiningConfig) -> NeighborhoodIndex:
    """Construct the sweep index for a dataset/config pair. Raises
    ValueError for an empty dataset or, in geodesic mode, degrees out of
    range."""
    if len(dataset.instances) == 0:
        raise ValueError("cannot index an empty dataset")
    return NeighborhoodIndex(dataset, config)
