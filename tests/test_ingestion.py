"""CSV loaders: generic schema, portal schemas, rejection accounting, and
the export round-trip."""

import pytest

from csts.ingestion import (
    BOSTON_TYPES_FILE,
    EXAMPLE_EVENTS_FILE,
    export_generic,
    load_boston,
    load_generic,
    load_pittsburgh,
)
from csts.oracle import RandomSpec, example_dataset, generate_random

from expected import EXAMPLE_NAME_TO_IDX


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _datasets_equal(a, b):
    return a.types == b.types and a.instances == b.instances


# -- generic schema ---------------------------------------------------------

def test_bundled_example_file_loads_to_the_example_dataset():
    ds, report = load_generic(EXAMPLE_EVENTS_FILE)
    # The file is the example's one source; the instance names the tests
    # derive from it must land on the instances its geometry describes.
    def place(name):
        inst = ds.instances[EXAMPLE_NAME_TO_IDX[name]]
        return ds.label_of(inst.event_type), inst.x, inst.y, inst.time

    assert place("c5") == ("C", 1000, 0, 10)
    assert {place(f"e{i}") for i in range(16, 33)} == {("E", 1000, 10, 20)}
    assert {t.label: ds.count(t.id) for t in ds.types} == {"A": 2, "B": 8, "C": 8, "D": 3, "E": 40}
    assert report.rows_read == 61
    assert report.instances_kept == 61
    assert report.rows_rejected == 0
    assert report.types_found == 5


def test_blank_coordinate_rejected(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y,time_minutes\n"
                                     "A,1,2,0\n"
                                     "B,,2,5\n"
                                     "A,3,4,9\n")
    ds, report = load_generic(path)
    assert report.rows_read == 3
    assert report.instances_kept == 2
    assert report.missing_coordinates == 1
    assert report.rows_rejected == 1
    assert len(ds.instances) == 2


def test_header_only_file(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y,time_minutes\n")
    ds, report = load_generic(path)
    assert report.rows_read == 0
    assert report.instances_kept == 0
    assert len(ds.types) == 0
    assert len(ds.instances) == 0


def test_rejection_reasons_are_disjoint(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y,time_minutes\n"
                                     ",1,2,0\n"          # missing type
                                     "A,1,,0\n"          # missing coordinate
                                     "A,1,2,\n"          # missing time
                                     "A,x,2,0\n"         # unparseable float
                                     "A,1,2,later\n"     # unparseable time
                                     "A,1,2,-5\n"        # negative minutes
                                     "A,nan,2,0\n"       # non-finite coordinate
                                     "A,1,2,7\n")        # the one good row
    ds, report = load_generic(path)
    assert report.rows_read == 8
    assert report.instances_kept == 1
    assert report.missing_type == 1
    assert report.missing_coordinates == 1
    assert report.missing_time == 1
    assert report.unparseable == 4
    assert report.rows_rejected == 7
    assert report.rejection_breakdown()["unparseable"] == 4
    assert ds.instances[0].time == 7


def test_pattern_separator_in_type_label_rejected(tmp_path):
    # A type "A->B" would mine to patterns such as "A->B->C" that no query
    # can read back as the two-element pattern they are.
    path = _write(tmp_path, "f.csv", "type,x,y,time_minutes\n"
                                     "A->B,0,0,0\n"
                                     "C,0,0,1\n"
                                     "C,1,1,2\n")
    ds, report = load_generic(path)
    assert report.unparseable == 1
    assert report.rows_read == report.instances_kept + report.rows_rejected == 3
    assert [t.label for t in ds.types] == ["C"]


@pytest.mark.parametrize("minutes", [10**400, 2**53 + 1], ids=["1e400", "2**53+1"])
def test_time_float64_cannot_hold_is_unparseable(tmp_path, minutes):
    # The neighbor index keeps times as float64: 10**400 overflows it and
    # 2**53 + 1 rounds to 2**53, which would shift the window tests.
    path = _write(tmp_path, "big.csv", "type,x,y,time_minutes\n"
                  f"A,0,0,{2**53}\nB,1,1,{minutes}\n")
    ds, report = load_generic(path)
    assert report.unparseable == 1 and report.instances_kept == 1
    assert [inst.time for inst in ds.instances] == [2**53]


def test_type_ids_assigned_label_sorted(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y,time_minutes\n"
                                     "zebra,0,0,0\n"
                                     "ant,0,0,1\n"
                                     "moth,0,0,2\n")
    ds, _ = load_generic(path)
    assert [t.label for t in ds.types] == ["ant", "moth", "zebra"]
    assert ds.instances[0].event_type == ds.id_of("zebra")


def test_missing_column_is_a_hard_error(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y\nA,1,2\n")
    with pytest.raises(ValueError, match="time_minutes"):
        load_generic(path)


def test_unreadable_file_is_a_hard_error(tmp_path):
    with pytest.raises(OSError):
        load_generic(tmp_path / "absent.csv")


@pytest.mark.parametrize("text,counts,kept", [
    ("type,x,y,time_minutes\nA,1,2,0\n\nB,3,4,5\n",
     {"rows_read": 2}, [("A", 1, 2, 0), ("B", 3, 4, 5)]),
    ("type,x,y,time_minutes\nC,1\nA,1,2,0\n",
     {"rows_read": 2, "missing_coordinates": 1}, [("A", 1, 2, 0)]),
    ("type,x,y,x,time_minutes\nA,1,2,3,0\n",
     {"rows_read": 1}, [("A", 3, 2, 0)]),
    ("\ufefftype,x,y,time_minutes\nA,1,2,0\n",
     {"rows_read": 1}, [("A", 1, 2, 0)]),
    ("type,x,y,time_minutes\nA,1,2,0,extra,more\n",
     {"rows_read": 1}, [("A", 1, 2, 0)]),
], ids=["blank-line", "short-row", "repeated-column", "bom", "extra-fields"])
def test_csv_row_handling(tmp_path, text, counts, kept):
    # A blank line is not a row; a short row's missing fields read as
    # blank; a repeated column name maps to its last occurrence; a UTF-8 BOM
    # is not part of the first column name; extra fields are ignored.
    ds, report = load_generic(_write(tmp_path, "f.csv", text))
    for name, value in counts.items():
        assert getattr(report, name) == value
    assert report.rows_read == report.instances_kept + report.rows_rejected
    assert [(ds.label_of(i.event_type), i.x, i.y, i.time)
            for i in ds.instances] == kept


def test_export_round_trip(tmp_path):
    portal, _ = load_boston(_boston_file(tmp_path))
    for ds in [example_dataset(),
               generate_random(RandomSpec(seed=5, n_types=4, n_instances=30)),
               portal]:
        out = tmp_path / "out.csv"
        export_generic(ds, out)
        back, report = load_generic(out)
        assert _datasets_equal(back, ds)
        assert report.rows_rejected == 0


def test_export_matches_committed_fixture_bytes(tmp_path):
    out = tmp_path / "fixture.csv"
    export_generic(example_dataset(), out)
    assert out.read_bytes() == EXAMPLE_EVENTS_FILE.read_bytes()


def test_loading_is_deterministic(tmp_path):
    a, ra = load_generic(EXAMPLE_EVENTS_FILE)
    b, rb = load_generic(EXAMPLE_EVENTS_FILE)
    assert _datasets_equal(a, b)
    assert ra == rb


# -- Pittsburgh schema ------------------------------------------------------

PGH_HEADER = "PK,INCIDENTTIME,INCIDENTHIERARCHYDESC,X,Y\n"


def test_pittsburgh_loader(tmp_path):
    path = _write(tmp_path, "p.csv", PGH_HEADER +
                  "1,2017-01-01T00:10:00,THEFT,-79.99,40.44\n"
                  "2,2017-03-07T15:28:00,ASSAULT,-80.01,40.46\n"
                  "3,2016-12-31T23:59:00,THEFT,-79.98,40.43\n"   # before range
                  "4,2020-01-01T00:00:00,THEFT,-79.98,40.43\n"   # after range
                  "5,2017-05-01T08:00:00,,-79.97,40.41\n"        # no type
                  "6,2017-06-01T09:00:00,THEFT,,40.41\n"         # no coord
                  "7,2018-04-01T12:00:00,THEFT,200,95\n")        # not degrees
    ds, report = load_pittsburgh(path)
    assert report.rows_read == 7
    assert report.instances_kept == 2
    assert report.filtered == 2
    assert report.missing_type == 1
    assert report.missing_coordinates == 1
    assert report.unparseable == 1
    # minutes from the 2017 epoch
    assert ds.instances[0].time == 10
    assert sorted(t.label for t in ds.types) == ["ASSAULT", "THEFT"]


def test_pittsburgh_range_is_inclusive_of_final_day(tmp_path):
    path = _write(tmp_path, "p.csv", PGH_HEADER +
                  "1,2019-12-31T23:59:00,THEFT,-79.99,40.44\n")
    _, report = load_pittsburgh(path)
    assert report.instances_kept == 1


# -- Boston schema ----------------------------------------------------------

BOS_HEADER = ("INCIDENT_NUMBER,OFFENSE_CODE_GROUP,OCCURRED_ON_DATE,"
              "Lat,Long\n")


def _boston_file(tmp_path):
    return _write(tmp_path, "b.csv", BOS_HEADER +
                  "I1,Arson,2014-06-15 13:00:00,42.35,-71.06\n"
                  "I2,HOMICIDE,2014-02-01 02:30:00,42.33,-71.08\n"
                  "I3,Aggravated Assault,2014-03-03 10:00:00,42.36,-71.05\n"
                  "I4,Arson,2013-12-31 23:00:00,42.35,-71.06\n"    # pre-2014
                  "I5,Arson,2015-01-01 00:00:00,42.35,-71.06\n")   # post-2014


def test_boston_reduced_mode(tmp_path):
    ds, report = load_boston(_boston_file(tmp_path), reduced=True)
    # aggravated assault is not in the ten-type reduced list; matching is
    # case-insensitive so HOMICIDE still lands
    assert report.instances_kept == 2
    assert report.filtered == 3
    assert sorted(t.label for t in ds.types) == ["Arson", "HOMICIDE"]


def test_boston_complete_mode(tmp_path):
    ds, report = load_boston(_boston_file(tmp_path), reduced=False)
    assert report.instances_kept == 3
    assert report.filtered == 2
    assert "Aggravated Assault" in {t.label for t in ds.types}


def test_boston_custom_whitelist(tmp_path, monkeypatch):
    custom = _write(tmp_path, "types.json",
                    '{"reduced": ["aggravated assault"], "complete": ["arson"]}')
    monkeypatch.setattr("csts.ingestion.BOSTON_TYPES_FILE", custom)
    _, report = load_boston(_boston_file(tmp_path), reduced=True)
    assert report.instances_kept == 1


def test_boston_bad_whitelist_file(tmp_path, monkeypatch):
    bad = _write(tmp_path, "types.json", '{"reduced": []}')
    monkeypatch.setattr("csts.ingestion.BOSTON_TYPES_FILE", bad)
    with pytest.raises(ValueError, match="non-empty 'reduced' list"):
        load_boston(_boston_file(tmp_path), reduced=True)


def test_boston_default_lists_are_sane():
    import json

    lists = json.loads(BOSTON_TYPES_FILE.read_text(encoding="utf-8"))
    assert len(lists["reduced"]) == 10
    assert len(lists["complete"]) == 26
    assert set(lists["reduced"]) <= set(lists["complete"])


@pytest.mark.parametrize("lon_lat", ["200,0", "-181,0", "0,91", "0,-90.5",
                                     "200,95"])
def test_boston_coordinates_outside_degree_range_unparseable(tmp_path, lon_lat):
    lon, lat = lon_lat.split(",")
    path = _write(tmp_path, "b.csv", BOS_HEADER +
                  "I1,Arson,2014-06-15 13:00:00,42.35,-71.06\n"
                  f"I2,Arson,2014-06-15 13:05:00,{lat},{lon}\n")
    ds, report = load_boston(path)
    assert report.unparseable == 1
    assert report.rows_read == report.instances_kept + report.rows_rejected == 2
    assert [(i.x, i.y) for i in ds.instances] == [(-71.06, 42.35)]
