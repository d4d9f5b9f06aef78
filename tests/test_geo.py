"""Distances and timestamps on the live paths: the neighborhood index's
planar and geodesic radius tests, its degree-range check, and the portal
loaders' minute arithmetic.

Geodesic neighborhoods are checked against an independent 50-digit mpmath
reimplementation of the half-angle haversine formula.
"""

import math
import random

import mpmath
import pytest

from csts import EventDataset, EventInstance, EventType, MiningConfig
from csts.ingestion import load_boston, load_pittsburgh
from csts.neighborhoods import build_index

from expected import naive_neighborhood

EARTH_RADIUS_KM = 6371.0


def _dataset(points):
    """One instance per (x, y), one minute apart, all of type A."""
    return EventDataset(
        [EventType(0, "A")],
        [EventInstance(i, 0, float(x), float(y), i) for i, (x, y) in enumerate(points)],
    )


def _reaches(a, b, radius, metric="euclidean"):
    """Whether an instance at b, one minute after one at a, is its neighbor.
    With one type, local ids are idx."""
    index = build_index(_dataset([a, b]),
                        MiningConfig(radius=radius, window=10.0, metric=metric))
    return index.union_over([0], 0, 0).tolist() == [1]


class TestEuclidean:
    def test_three_four_five(self):
        assert _reaches((0, 0), (3, 4), 5.0)
        assert not _reaches((0, 0), (3, 4), 4.999)

    def test_identity(self):
        assert _reaches((2.5, -7.0), (2.5, -7.0), 1e-9)

    def test_radius_boundary(self):
        assert _reaches((0, 0), (10, 0), 10.0)
        assert not _reaches((0, 0), (10.000001, 0), 10.0)


def mp_haversine(lon1, lat1, lon2, lat2, radius_km=EARTH_RADIUS_KM):
    """Independent high-precision route: same formula, 50-digit arithmetic."""
    with mpmath.workdps(50):
        rad = lambda d: mpmath.mpf(d) * mpmath.pi / 180
        s_lat = mpmath.sin(rad(lat2 - lat1) / 2)
        s_lon = mpmath.sin(rad(lon2 - lon1) / 2)
        h = s_lat**2 + s_lon**2 * mpmath.cos(rad(lat1)) * mpmath.cos(rad(lat2))
        return float(2 * mpmath.mpf(radius_km) * 1000 * mpmath.asin(mpmath.sqrt(h)))


def _random_point(rng):
    return rng.uniform(-180, 180), rng.uniform(-90, 90)


def _geo_reaches(a, b, radius):
    return _reaches(a, b, radius, metric="geodesic")


class TestHaversine:
    def test_identity(self):
        assert _geo_reaches((-71.06, 42.36), (-71.06, 42.36), 1e-9)

    def test_one_degree_of_latitude(self):
        # One degree of arc: R * pi / 180 = 111194.93 m.
        assert mp_haversine(0.0, 0.0, 0.0, 1.0) == pytest.approx(111194.9, abs=0.1)
        assert _geo_reaches((0.0, 0.0), (0.0, 1.0), 111195.0)
        assert not _geo_reaches((0.0, 0.0), (0.0, 1.0), 111194.9)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            a, b = _random_point(rng), _random_point(rng)
            radius = mp_haversine(*a, *b) * rng.choice([1 - 1e-6, 1 + 1e-6])
            assert _geo_reaches(a, b, radius) == _geo_reaches(b, a, radius)

    def test_never_exceeds_half_circumference(self):
        # Within half the circumference every point of the globe, the
        # antipode included, is a neighbor of the first instance.
        rng = random.Random(4)
        points = [(10.0, 20.0), (-170.0, -20.0)]
        points += [_random_point(rng) for _ in range(500)]
        bound = math.pi * EARTH_RADIUS_KM * 1000.0
        index = build_index(_dataset(points), MiningConfig(
            radius=bound + 1e-6, window=len(points), metric="geodesic"))
        assert index.union_over([0], 0, 0).tolist() == list(range(1, len(points)))

    def test_against_high_precision_reference(self):
        # Radii a millionth inside and outside the reference distance, for
        # pairs across the globe and pairs a few kilometers apart.
        rng = random.Random(5)
        for trial in range(500):
            a = _random_point(rng)
            if trial % 2:
                b = _random_point(rng)
            else:
                b = (a[0] + rng.uniform(-0.05, 0.05),
                     max(-90.0, min(90.0, a[1] + rng.uniform(-0.05, 0.05))))
            ref = mp_haversine(*a, *b)
            if ref == 0.0:
                continue
            assert _geo_reaches(a, b, ref * (1 + 1e-6)), (a, b, ref)
            assert not _geo_reaches(a, b, ref * (1 - 1e-6)), (a, b, ref)

    @pytest.mark.parametrize("bad", [(200, 0), (-181, 0), (0, 91), (0, -90.5),
                                     (200, 95)])
    def test_degree_range_enforced(self, bad):
        with pytest.raises(ValueError, match="degrees"):
            _geo_reaches((0.0, 0.0), bad, 1000.0)
        # The oracle refuses them with its own check.
        cfg = MiningConfig(radius=1000.0, window=10.0, metric="geodesic")
        with pytest.raises(ValueError, match="degrees"):
            naive_neighborhood(_dataset([(0.0, 0.0), bad]), cfg, 0, 0)
        # In planar mode the same numbers are meters and load fine.
        assert not _reaches((0.0, 0.0), bad, 1.0)


PGH_HEADER = "_id,INCIDENTTIME,INCIDENTHIERARCHYDESC,X,Y\n"
BOS_HEADER = "INCIDENT_NUMBER,OFFENSE_CODE_GROUP,OCCURRED_ON_DATE,Lat,Long\n"


def _portal_minutes(tmp_path, stamps):
    """Minutes each portal loader (Pittsburgh, then Boston) assigns to
    ``"MM-DD HH:MM:SS"`` stamps in the first year of its range, counted
    from that year's start."""
    pgh = tmp_path / "p.csv"
    pgh.write_text(PGH_HEADER + "".join(
        f"{n},2017-{s},THEFT,-79.99,40.44\n" for n, s in enumerate(stamps)))
    bos = tmp_path / "b.csv"
    bos.write_text(BOS_HEADER + "".join(
        f"I{n},Arson,2014-{s},42.35,-71.06\n" for n, s in enumerate(stamps)))
    return [[inst.time for inst in ds.instances]
            for ds, _ in (load_pittsburgh(pgh), load_boston(bos))]


class TestTimestampToMinutes:
    def test_epoch_maps_to_zero(self, tmp_path):
        assert _portal_minutes(tmp_path, ["01-01 00:00:00"]) == [[0], [0]]

    def test_eight_days(self, tmp_path):
        assert _portal_minutes(tmp_path, ["01-09 00:00:00"]) == [[11520]] * 2

    def test_seconds_truncate(self, tmp_path):
        stamps = ["01-01 00:00:59", "01-01 00:01:00", "01-01 00:01:59"]
        assert _portal_minutes(tmp_path, stamps) == [[0, 1, 1]] * 2

    def test_before_epoch_rejected(self, tmp_path):
        pgh = tmp_path / "p.csv"
        pgh.write_text(PGH_HEADER + "1,2016-12-31T23:59:59,THEFT,-79.99,40.44\n")
        bos = tmp_path / "b.csv"
        bos.write_text(BOS_HEADER + "I1,Arson,2013-12-31 23:59:59,42.35,-71.06\n")
        for ds, report in (load_pittsburgh(pgh), load_boston(bos)):
            assert report.filtered == 1
            assert report.instances_kept == 0 and len(ds.instances) == 0
