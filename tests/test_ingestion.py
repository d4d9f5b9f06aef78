"""CSV loaders: generic schema, portal schemas, rejection accounting, and
the export round-trip."""

import csv
import json
import math
import random
import re
import sys
from datetime import datetime, timedelta
from functools import partial
from unittest import mock

import pytest

import csts.ingestion
from csts.ingestion import (
    BOSTON_COLUMNS,
    BOSTON_TYPES_FILE,
    EXAMPLE_EVENTS_FILE,
    GENERIC_COLUMNS,
    PITTSBURGH_COLUMNS,
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


LOADERS = [load_generic, load_pittsburgh, load_boston, partial(load_boston, reduced=True)]


def _load_by_both_routes(path, load=load_generic):
    """What a loader gives for a file, as it runs and with its bulk route
    declined, so that the row loop reads every file: each a (dataset,
    report) pair or the type and text of the error raised."""
    outcomes = []
    for bulk in (csts.ingestion._bulk_rows, lambda path, columns: None):
        with mock.patch.object(csts.ingestion, "_bulk_rows", bulk):
            try:
                outcomes.append(load(path))
            except (ValueError, OSError) as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


def _assert_same_outcome(a, b):
    if isinstance(a[0], type) or isinstance(b[0], type):
        assert a == b
        return
    (ds_a, report_a), (ds_b, report_b) = a, b
    assert report_a == report_b
    assert ds_a.types == ds_b.types
    for name in ("type_ids", "xs", "ys", "times"):
        col_a, col_b = getattr(ds_a, name), getattr(ds_b, name)
        assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes(), name


@pytest.fixture(autouse=True)
def _routes_agree_on_every_written_csv(tmp_path):
    """After each test, both routes of every loader must agree on every CSV
    file it wrote, whatever its layout: a file without a loader's columns
    must give the same missing-column error."""
    yield
    for path in sorted(tmp_path.glob("*.csv")):
        for load in LOADERS:
            _assert_same_outcome(*_load_by_both_routes(path, load))


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


@pytest.mark.parametrize("field,kept", [
    (str(2**53 + 2), 2**53 + 2),   # even, so float64 holds it exactly
    (str(2**53 + 1), None),
    ("-1", None),
    ("-0", 0),
    (" 7 ", 7),
], ids=["2**53+2", "2**53+1", "-1", "-0", "padded"])
def test_generic_time_column_edges(tmp_path, field, kept):
    path = _write(tmp_path, "f.csv", f"type,x,y,time_minutes\nA,0,0,{field}\n")
    ds, report = load_generic(path)
    if kept is None:
        assert report.unparseable == 1 and len(ds) == 0
    else:
        assert report.instances_kept == 1 and int(ds.times[0]) == kept


def test_type_ids_assigned_label_sorted(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y,time_minutes\n"
                                     "zebra,0,0,0\n"
                                     "ant,0,0,1\n"
                                     "moth,0,0,2\n")
    ds, _ = load_generic(path)
    assert [t.label for t in ds.types] == ["ant", "moth", "zebra"]
    assert ds.instances[0].event_type == ds.parse_pattern("zebra")[0]


def test_missing_column_is_a_hard_error(tmp_path):
    path = _write(tmp_path, "f.csv", "type,x,y\nA,1,2\n")
    with pytest.raises(ValueError, match="time_minutes"):
        load_generic(path)


def test_unreadable_file_is_a_hard_error(tmp_path):
    with pytest.raises(OSError):
        load_generic(tmp_path / "absent.csv")


def test_undecodable_byte_names_its_line(tmp_path):
    # The decoder reads kilobytes ahead of the rows: the line must still be
    # the bad byte's own, well past the first chunk.
    path = tmp_path / "f.csv"
    path.write_bytes(b"type,x,y,time_minutes\n"
                     + b"".join(b"A,%d,%d,%d\n" % (i, i, i) for i in range(3000))
                     + b"B\xff,0,0,0\nA,0,0,0\n")
    with pytest.raises(ValueError, match=r"f\.csv: line 3002: 'utf-8' codec"):
        load_generic(path)


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


# -- the bulk route ---------------------------------------------------------

def _clean_rows(seed=0, n=40):
    """Rows in the style of a generated workload: letters, coordinates to
    two decimals, integer minutes."""
    rng = random.Random(seed)
    return [[rng.choice("ABCD"), f"{rng.uniform(0, 1600):.2f}",
             f"{rng.uniform(0, 1600):.2f}", str(rng.randrange(600))]
            for _ in range(n)]


def _lf_file(tmp_path, name, rows, header=GENERIC_COLUMNS):
    return _write(tmp_path, name, "".join(",".join(row) + "\n"
                                          for row in [list(header), *rows]))


@pytest.fixture
def reader_calls(monkeypatch):
    """The number of csv.reader passes csts.ingestion starts."""
    calls = []
    reader = csv.reader

    def counting(*args, **kwargs):
        calls.append(1)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csts.ingestion.csv, "reader", counting)
    return calls


def _one_fault(field, value):
    """Rows of a clean file with one fault planted in row 7."""
    rows = _clean_rows()
    if field == "row":
        rows.insert(7, value)
    else:
        rows[7][GENERIC_COLUMNS.index(field)] = value
    return rows


# (field, planted value, whether the bulk route reads the file). The autouse
# fixture holds the bulk route to the row loop's outcome on each file; the
# flag pins which files it reads: only a fault in the file's structure (a
# quote, a CR, a line of another width) sends it to the row loop. A "row"
# value is a whole row.
ONE_FAULTS = [
    ("x", "nan", True), ("x", "inf", True), ("x", "1_0", True), ("x", "-0", True),
    ("x", " 1e2 ", True), ("x", "+5", True), ("x", "\u0663\u0661", True),
    ("x", str(2**53 + 1), True), ("x", "-7", True), ("x", "1e400", True),
    ("x", "abc", True), ("x", "", True), ("x", " ", True),
    ("time_minutes", "1_0", True), ("time_minutes", "-0", True),
    ("time_minutes", "+5", True), ("time_minutes", "\u0663\u0661", True),
    ("time_minutes", " 7 ", True), ("time_minutes", str(2**53), True),
    ("time_minutes", "nan", True), ("time_minutes", "inf", True),
    ("time_minutes", " 1e2 ", True), ("time_minutes", str(2**53 + 1), True),
    ("time_minutes", str(2**53 + 2), True), ("time_minutes", "-7", True),
    ("time_minutes", str(2**64), True), ("time_minutes", "3.5", True),
    ("type", "A->B", True), ("type", "A\u00a0", True), ("type", "\u00a0A", True),
    ("type", "A\x1c", True), ("type", "\x85A", True), ("type", " A", True),
    ("type", "", True), ("type", '"A"', False), ("type", "A\rB", False),
    ("type", "A\x1cB", True), ("type", "A\u2028B", True),
    ("row", [], False), ("row", ["A", "1", "2"], False),
    ("row", ["A", "1", "2", "3", "4"], False),
]


@pytest.mark.parametrize("field,value,bulk", ONE_FAULTS,
                         ids=[f"{f}={v!r}" for f, v, _ in ONE_FAULTS])
def test_one_fault_variants_of_a_clean_file(tmp_path, reader_calls, field, value,
                                            bulk):
    # The autouse fixture holds both routes to one outcome on this file.
    path = _lf_file(tmp_path, "f.csv", _one_fault(field, value))
    _, report = load_generic(path)
    assert reader_calls == ([] if bulk else [1])
    assert report.rows_read == report.instances_kept + report.rows_rejected


def test_a_short_and_a_long_row_balancing_each_other_decline(tmp_path, reader_calls):
    # The file's comma count is right, and read in lines of four fields its
    # cells convert; the lines' own counts are wrong.
    rows = _clean_rows()
    rows[3].pop()
    rows[4][0] = "5"
    rows[4].append("6")
    _, report = load_generic(_lf_file(tmp_path, "f.csv", rows))
    assert reader_calls == [1]
    assert report.missing_time == 1 and report.rows_read == 40


@pytest.mark.parametrize("seed", [1, 2])
def test_a_clean_workload_style_file_takes_the_bulk_route(tmp_path, reader_calls,
                                                          seed):
    rows = _clean_rows(seed, 2000)
    ds, report = load_generic(_lf_file(tmp_path, "f.csv", rows))
    assert reader_calls == []
    assert report.rows_read == report.instances_kept == 2000
    assert [t.label for t in ds.types] == ["A", "B", "C", "D"]


def test_a_bad_time_in_the_last_row_reads_the_file_once(tmp_path, reader_calls):
    # The rows convert with one map(int); only the range test then finds the
    # -1, and the per-cell loop, not a second read of the file, handles it.
    rows = _clean_rows(3, 2000)
    rows[-1][3] = "-1"
    ds, report = load_generic(_lf_file(tmp_path, "f.csv", rows))
    assert reader_calls == []
    assert report.unparseable == report.rows_rejected == 1
    assert report.rows_read == len(ds) + 1 == 2000


@pytest.mark.parametrize("header,bulk", [
    (("type", "x", "y", "time_minutes"), True),
    (("\ufefftype", "x", "y", "time_minutes"), True),
    (("PAD", "type", "x", "y", "time_minutes"), True),
    (("type", "x", "y", "x", "time_minutes"), True),
    (("type", "x", "y"), False),
], ids=["plain", "bom", "unmapped-column", "repeated-column", "missing-column"])
def test_headers_the_bulk_route_reads(tmp_path, reader_calls, header, bulk):
    rows = [[dict(zip(GENERIC_COLUMNS, row), PAD="pad")[name.lstrip("\ufeff")]
             for name in header] for row in _clean_rows()]
    path = _lf_file(tmp_path, "f.csv", rows, header)
    if bulk:
        load_generic(path)
    else:
        with pytest.raises(ValueError, match="missing required column"):
            load_generic(path)
    assert reader_calls == ([] if bulk else [1])


@pytest.mark.parametrize("edit", [
    lambda text: text.replace(b"\n", b"\r\n"),
    lambda text: text[:-1],
    lambda text: text + b"A",
    lambda text: b"",
], ids=["crlf", "no-final-newline", "unterminated-last-line", "empty"])
def test_line_endings_the_bulk_route_declines(tmp_path, reader_calls, edit):
    path = tmp_path / "f.csv"
    path.write_bytes(edit(_lf_file(tmp_path, "f.csv", _clean_rows()).read_bytes()))
    if path.stat().st_size:
        load_generic(path)
    else:
        with pytest.raises(ValueError, match="missing required column"):
            load_generic(path)
    assert reader_calls == [1]


def test_a_nul_byte_takes_the_row_loop(tmp_path, reader_calls):
    rows = _clean_rows()
    rows[5][0] = "A\0"
    path = _lf_file(tmp_path, "f.csv", rows)
    if sys.version_info < (3, 11):  # 3.10's csv refuses NUL
        with pytest.raises(ValueError, match=r"f\.csv: line 7: .*NUL"):
            load_generic(path)
    else:
        assert "A\0" in [t.label for t in load_generic(path)[0].types]
    assert reader_calls == [1]


def test_an_over_long_unmapped_field_is_refused_by_the_row_loop(tmp_path):
    rows = _clean_rows()
    for row in rows:
        row.append("note")
    rows[5][4] = "9" * (csv.field_size_limit() + 1)
    path = _lf_file(tmp_path, "f.csv", rows, (*GENERIC_COLUMNS, "note"))
    with pytest.raises(ValueError, match=r"f\.csv: line 7: field larger than field limit"):
        load_generic(path)


def test_bundled_example_takes_the_bulk_route(reader_calls):
    bulk, rows = _load_by_both_routes(EXAMPLE_EVENTS_FILE)
    assert reader_calls == [1]  # the declined run only
    _assert_same_outcome(bulk, rows)


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


def test_pittsburgh_portal_timestamp_spellings(tmp_path):
    # ISO-8601 fails on each of these, so the portal spellings decide; the
    # unpadded 2018-3-5 is one that only strptime accepts.
    path = _write(tmp_path, "p.csv", PGH_HEADER +
                  "1,03/15/2018 13:45,THEFT,-79.99,40.44\n"
                  "2,03/15/2018 01:45:00 PM,THEFT,-79.99,40.44\n"
                  "3,03/15/2018,THEFT,-79.99,40.44\n"
                  "4,2018-3-5,THEFT,-79.99,40.44\n"
                  "5,15/03/2018,THEFT,-79.99,40.44\n")    # day first
    ds, report = load_pittsburgh(path)

    def minutes(*stamp):
        return (datetime(*stamp) - datetime(2017, 1, 1)) // timedelta(minutes=1)

    assert [int(t) for t in ds.times] == [
        minutes(2018, 3, 15, 13, 45), minutes(2018, 3, 15, 13, 45),
        minutes(2018, 3, 15), minutes(2018, 3, 5)]
    assert report.instances_kept == 4 and report.unparseable == 1
    assert report.rows_read == report.instances_kept + report.rows_rejected


# Each native spelling, as a formatter, with the resolution it keeps.
NATIVE_SPELLINGS = [
    (lambda d: d.strftime("%m/%d/%Y %H:%M"), timedelta(minutes=1)),
    (lambda d: d.strftime("%m/%d/%Y %I:%M:%S %p"), timedelta(seconds=1)),
    (lambda d: d.strftime("%m/%d/%Y"), timedelta(days=1)),
    (lambda d: f"{d.year}-{d.month}-{d.day}", timedelta(days=1)),  # unpadded
]
PLANTED_WORDS = ["sometime in 2014", "unknown", "n/a", "-", "2014?"]


def _native_and_iso_twins(tmp_path, spellings):
    """One Boston file in the given spellings, row by row in turn, with
    planted words, and its twin with every stamp in ISO-8601."""
    rng = random.Random(len(spellings))
    native, iso = [BOS_HEADER], [BOS_HEADER]
    for n in range(400):
        label = rng.choice(["Arson", "HOMICIDE", "Towed"])
        if n % 17 == 5:
            native_text = iso_text = rng.choice(PLANTED_WORDS)
        else:
            spell, step = spellings[n % len(spellings)]
            stamp = datetime(2013, 12, 1) + rng.random() * timedelta(days=420)
            stamp = datetime.min + (stamp - datetime.min) // step * step
            native_text, iso_text = spell(stamp), stamp.isoformat(sep=" ")
        row = f"I{n},{label},{{}},42.35,-71.06\n"
        native.append(row.format(native_text))
        iso.append(row.format(iso_text))
    return (_write(tmp_path, "native.csv", "".join(native)),
            _write(tmp_path, "iso.csv", "".join(iso)))


@pytest.mark.parametrize("which", [0, 1, 2, 3, "all"])
def test_native_spelled_file_loads_as_its_iso_twin(tmp_path, which):
    spellings = NATIVE_SPELLINGS if which == "all" else [NATIVE_SPELLINGS[which]]
    native, iso = _native_and_iso_twins(tmp_path, spellings)
    ds_native, report_native = load_boston(native)
    ds_iso, report_iso = load_boston(iso)
    assert _datasets_equal(ds_native, ds_iso)
    assert report_native.unparseable == report_iso.unparseable == 24
    assert report_native.filtered > 0
    report_native.source = report_iso.source
    assert report_native == report_iso


def test_a_stamp_opening_with_no_digit_tries_no_spelling(tmp_path, monkeypatch):
    # Every native spelling opens with %m or %Y, so only a planted word that
    # opens with a digit reaches strptime, and it still counts as unparseable.
    import csts.ingestion
    calls = []

    class Counting(datetime):
        @classmethod
        def strptime(cls, text, fmt):
            calls.append(text)
            return datetime.strptime(text, fmt)

    monkeypatch.setattr(csts.ingestion, "datetime", Counting)
    native, _ = _native_and_iso_twins(tmp_path, [NATIVE_SPELLINGS[2]])
    _, report = load_boston(native)
    assert set(calls) & set(PLANTED_WORDS) == {"2014?"}
    assert report.unparseable == 24


# Stamps a Python newer than 3.10 reads but 3.10 does not (hour 24 may read
# as the next midnight), and the ISO forms every supported Python reads alike.
NEWER_ISO_STAMPS = ["20140710", "2014-W28-4", "2014-07-10T2125",
                    "2014-07-10 21:25:00.5", "2014-07-10T21:25:00,500",
                    "2014-07-10T21.500", "2014-07-10x21:25", "2014-07-10T24:00",
                    "2014-07-10 24:00:00"]
ISO_STAMPS = ["2014-07-10", "2014-07-10T21", "2014-07-10 21:25",
              "2014-07-10T21:25:00", "2014-07-10 21:25:00.500",
              "2014-07-10T21:25:00.500000"]


def test_portal_stamps_read_alike_on_every_python(tmp_path):
    path = _write(tmp_path, "b.csv", BOS_HEADER + "".join(
        f"I{n},Arson,{stamp},42.35,-71.06\n"
        for n, stamp in enumerate(NEWER_ISO_STAMPS + ISO_STAMPS)))
    ds, report = load_boston(path)
    assert report.unparseable == len(NEWER_ISO_STAMPS)
    day = (datetime(2014, 7, 10) - datetime(2014, 1, 1)) // timedelta(minutes=1)
    assert [int(t) - day for t in ds.times] == [0, 21 * 60] + [21 * 60 + 25] * 4


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


def test_a_boston_file_with_blank_and_bad_cells_takes_the_bulk_route(tmp_path,
                                                                     reader_calls):
    good = ["I0", "Arson", "2014-06-15 13:00:00", "42.35", "-71.06"]
    spoilers = [("missing_type", 1, ""), ("missing_type", 1, "  "),
                ("missing_coordinates", 3, ""), ("missing_coordinates", 4, " "),
                ("missing_time", 2, ""), ("unparseable", 2, "sometime in 2014"),
                ("unparseable", 3, "north"), ("filtered", 1, "Towed"),
                ("filtered", 2, "2013-12-31 23:59:00")]
    rows = [good] * 5
    for _, column, value in spoilers:
        rows.append(list(good))
        rows[-1][column] = value
    header = tuple(BOS_HEADER.strip().split(","))
    ds, report = load_boston(_lf_file(tmp_path, "b.csv", rows, header))
    assert reader_calls == []
    expected = dict.fromkeys(report.REASONS, 0)
    for reason, *_ in spoilers:
        expected[reason] += 1
    assert report.rejection_breakdown() == expected
    assert report.rows_read == 14 and len(ds) == 5


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


@pytest.mark.parametrize("portal", ["boston", "pittsburgh"])
def test_portal_placeholder_location_unparseable(tmp_path, portal):
    # The portals write (-1, -1) for an unknown location; such rows would all
    # sit at one point and neighbour each other. One coordinate at -1 is a
    # real place, and a generic file's (-1, -1) is an ordinary point.
    points = [("-1.00000000", "-1.00000000"), ("-1", "-1"), ("-1", "42.35"),
              ("-71.06", "-1"), ("-71.06", "42.35")]
    if portal == "boston":
        load, text = load_boston, BOS_HEADER + "".join(
            f"I{n},Arson,2014-06-15 13:0{n}:00,{lat},{lon}\n"
            for n, (lon, lat) in enumerate(points))
    else:
        load, text = load_pittsburgh, PGH_HEADER + "".join(
            f"{n},2017-06-15T13:0{n}:00,THEFT,{lon},{lat}\n"
            for n, (lon, lat) in enumerate(points))
    ds, report = load(_write(tmp_path, "p.csv", text))
    assert report.unparseable == 2
    assert report.rows_read == report.instances_kept + report.rows_rejected == 5
    assert [(i.x, i.y) for i in ds.instances] == [(-1.0, 42.35), (-71.06, -1.0),
                                                  (-71.06, 42.35)]
    ds, report = load_generic(_write(tmp_path, "g.csv", "type,x,y,time_minutes\n"
                                     "A,-1,-1,0\nA,-1.00000000,-1.00000000,5\n"))
    assert report.unparseable == 0
    assert [(i.x, i.y) for i in ds.instances] == [(-1.0, -1.0), (-1.0, -1.0)]


# -- portal reject precedence -----------------------------------------------

# Each row but the last three has two faults or more; the one reason it is
# counted under is the first in missing_type, missing_coordinates,
# missing_time, unparseable, filtered. "Towed" is off the Boston whitelist
# (Pittsburgh has none); {out} is a year outside the loader's range.
PRECEDENCE_ROWS = [
    ("Towed", "not a date", "-71.06", "42.35", "unparseable"),
    ("Arson", "{out}-06-15 13:00:00", "-71.06", "95", "unparseable"),
    ("A->B", "{out}-03-01 00:00:00", "-71.06", "42.35", "unparseable"),
    ("Towed", "{out}-06-15T13:00:00+00:00", "-71.06", "42.35", "unparseable"),
    ("Towed", "{out}-06-15 13:00:00", "nan", "nan", "unparseable"),
    ("A->B", "", "-71.06", "42.35", "missing_time"),
    ("Arson", "not a date", "", "42.35", "missing_coordinates"),
    # Minutes are floored, so the last microsecond before the range is out.
    ("Arson", "{lo}-01-01 00:00:59.999999", "-71.06", "42.35", None),
    ("Arson", "{before}-12-31 23:59:59.999999", "-71.06", "42.35", "filtered"),
    ("Arson", "{hi}-12-31 23:59:59", "-71.06", "42.35", None),
]


@pytest.mark.parametrize("schema", ["boston", "pittsburgh"])
def test_portal_reject_precedence(tmp_path, schema):
    if schema == "boston":
        lo, hi, load = 2014, 2014, load_boston
        line = "I{n},{label},{stamp},{lat},{lon}\n"
        header = BOS_HEADER
    else:
        lo, hi, load = 2017, 2019, load_pittsburgh
        line = "{n},{stamp},{label},{lon},{lat}\n"
        header = PGH_HEADER
    years = {"out": lo - 1, "lo": lo, "before": lo - 1, "hi": hi}
    text = header + "".join(
        line.format(n=n, label=label, stamp=stamp.format(**years), lon=lon, lat=lat)
        for n, (label, stamp, lon, lat, _) in enumerate(PRECEDENCE_ROWS))
    ds, report = load(_write(tmp_path, "p.csv", text))
    expected = {reason: 0 for reason in report.rejection_breakdown()}
    for *_, reason in PRECEDENCE_ROWS:
        if reason is not None:
            expected[reason] += 1
    assert report.rejection_breakdown() == expected
    assert report.rows_read == len(PRECEDENCE_ROWS)
    span = (datetime(hi, 12, 31, 23, 59) - datetime(lo, 1, 1)) // timedelta(minutes=1)
    assert [int(t) for t in ds.times] == [0, span]
    if schema == "boston":
        assert span == 525599


# -- a per-row reference loader ---------------------------------------------

def _reference_load(path, columns, minutes_of, in_scope=None, degrees=False):
    """Every row decided in one place, in reject order: the loaders vet
    whole columns instead and must agree row for row."""
    counts = dict.fromkeys(["rows_read", "missing_type", "missing_coordinates",
                            "missing_time", "unparseable", "filtered"], 0)
    kept = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        position = {name: i for i, name in enumerate(next(reader))}
        for raw in filter(None, reader):
            counts["rows_read"] += 1
            label, x, y, t = (raw[position[c]].strip() if position[c] < len(raw)
                              else "" for c in columns)
            reason = ("missing_type" if not label else
                      "missing_coordinates" if not (x and y) else
                      "missing_time" if not t else None)
            if reason is None:
                try:
                    x, y, t = float(x), float(y), minutes_of(t)
                except (ValueError, OverflowError, TypeError):
                    reason = "unparseable"
                else:
                    if (not (math.isfinite(x) and math.isfinite(y)) or "->" in label
                            or (degrees and not (abs(x) <= 180 and abs(y) <= 90))):
                        reason = "unparseable"
            if reason is None and in_scope is not None and not in_scope(label, t):
                reason = "filtered"
            if reason is None:
                kept.append((label, x, y, t))
            else:
                counts[reason] += 1
    return counts, kept


def _generic_minutes(text):
    minutes = int(text)
    if minutes < 0 or float(minutes) != minutes:
        raise ValueError(text)
    return minutes


# The ISO-8601 forms the portals read on every Python, each of which
# fromisoformat reads alike; 3.11 and later also read forms 3.10 refuses.
ISO_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
                       r"([T ](?!24)[0-9]{2}(:[0-9]{2}(:[0-9]{2}(\.[0-9]{3}([0-9]{3})?)?)?)?)?")


def _portal_minutes(epoch):
    def minutes_of(text):
        try:
            if not ISO_STAMP.fullmatch(text):
                raise ValueError(text)
            stamp = datetime.fromisoformat(text)
        except ValueError:
            for fmt in ("%m/%d/%Y %H:%M", "%m/%d/%Y %I:%M:%S %p", "%m/%d/%Y", "%Y-%m-%d"):
                try:
                    stamp = datetime.strptime(text, fmt)
                    break
                except ValueError:
                    pass
            else:
                raise ValueError(text) from None
        return (stamp - epoch) // timedelta(minutes=1)
    return minutes_of


FUZZ_LABELS = ["Arson", "HOMICIDE", "Towed", "A->B", "", " Larceny ", "larceny", "x"]
FUZZ_COORDS = ["-71.06", "42.35", "", " ", "nan", "inf", "-inf", "200", "-181", "95",
               "-90", "180", "abc", " 1e2 ", "1_0", "-0"]
FUZZ_TIMES = ["2014-06-15 13:00:00", "2014-06-15T13:00:00+00:00", "2014-06-15T13:00:00Z",
              "", "not a date", "06/15/2014 13:00", "06/15/2014 01:00:00 PM", "06/15/2014",
              "2014-6-5", "2013-12-31 23:59:59.999999", "2014-01-01 00:00:59.999999",
              "2015-01-01 00:00:00", "2018-03-05T10:00", "2019-12-31 23:59:59",
              "2016-12-31 23:59", "0", "7", " 7 ", "-1", "-0", str(2**53 + 1),
              str(2**53 + 2), "10" * 200, "1_000", "3.5", str(2**70), str(2**64),
              "20140710", "2014-W28-4", "2014-07-10T2125", "2014-07-10 21:25:00.5",
              " 2014-06-15 13:00:00 ", "\u00a006/15/2018 13:00",
              "0000-01-01", "0001-01-01 00:00", "9999-12-31 23:59:59.999999",
              "2014-02-29", "2016-02-29 12:00", "2014-02-30", "2014-13-01",
              "2014-07-10 21:60", "2016-12-31 23:59:60", "NaT", "nat"]
# Stamps of an ISO shape with a field out of range, for which numpy refuses
# a whole column of stamps.
IMPOSSIBLE_TIMES = ["2014-02-29", "2014-02-30", "2014-13-01", "2014-07-10 21:60",
                    "2016-12-31 23:59:60"]


# schema: loader, mapped columns, epoch, first and last year, whitelist key
REFERENCE_SCHEMAS = {
    "generic": (load_generic, GENERIC_COLUMNS, None, None, None),
    "pittsburgh": (load_pittsburgh, PITTSBURGH_COLUMNS, datetime(2017, 1, 1),
                   (2017, 2019), None),
    "boston": (load_boston, BOSTON_COLUMNS, datetime(2014, 1, 1), (2014, 2014),
               "complete"),
    "boston-reduced": (partial(load_boston, reduced=True), BOSTON_COLUMNS,
                       datetime(2014, 1, 1), (2014, 2014), "reduced"),
}


@pytest.mark.parametrize("schema", list(REFERENCE_SCHEMAS))
def test_loaders_agree_with_a_per_row_reference(tmp_path, reader_calls, schema):
    load, columns, epoch, years, key = REFERENCE_SCHEMAS[schema]
    minutes_of, in_scope, degrees = _generic_minutes, None, False
    if epoch is not None:
        allowed = (None if key is None else
                   set(json.loads(BOSTON_TYPES_FILE.read_text(encoding="utf-8"))[key]))
        lo = (datetime(years[0], 1, 1) - epoch) // timedelta(minutes=1)
        hi = (datetime(years[1] + 1, 1, 1) - epoch) // timedelta(minutes=1)
        minutes_of, degrees = _portal_minutes(epoch), True

        def in_scope(label, minutes):
            return lo <= minutes < hi and (allowed is None or label.lower() in allowed)

    # A ragged CRLF file, with short rows and blank lines, is read by the row
    # loop; an LF file of full-width rows by the bulk route, and again by the
    # row loop with the bulk route declined.
    for form in ["ragged-crlf", "lf", "lf-row-loop"]:
        ragged = form == "ragged-crlf"
        rng = random.Random(schema)
        lines = [["PAD", *columns]]
        for n in range(1500):
            row = [str(n), rng.choice(FUZZ_LABELS), rng.choice(FUZZ_COORDS),
                   rng.choice(FUZZ_COORDS), rng.choice(FUZZ_TIMES)]
            if rng.random() < 0.5:
                row[2:4] = ["-71.06", "42.35"]
            lines.append(row[:rng.randrange(len(row))] if ragged and rng.random() < 0.05
                         else row)
            if ragged and rng.random() < 0.02:
                lines.append([])
        path = tmp_path / f"fuzz-{form}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\r\n" if ragged else "\n").writerows(lines)

        reader_calls.clear()
        bulk = ((lambda path, columns: None) if form == "lf-row-loop"
                else csts.ingestion._bulk_rows)
        with mock.patch.object(csts.ingestion, "_bulk_rows", bulk):
            ds, report = load(path)
        assert reader_calls == ([] if form == "lf" else [1]), form
        counts, kept = _reference_load(path, columns, minutes_of, in_scope, degrees)
        assert {name: getattr(report, name) for name in counts} == counts, form
        assert min(n for name, n in counts.items() if name != "filtered") > 0
        assert (counts["filtered"] > 0) == (schema != "generic")
        assert [(ds.label_of(i.event_type), i.x, i.y, i.time)
                for i in ds.instances] == kept, form
        assert report.instances_kept == len(kept) > 0


def test_a_column_with_one_impossible_date_loads_as_its_per_row_reference(
        tmp_path, monkeypatch):
    # One stamp numpy refuses sends the whole column to fromisoformat, stamp
    # by stamp; without it, no stamp goes there, hour 24 included. Either way
    # every row is decided as the per-row reference decides it, also where
    # fromisoformat reads hour 24 as the next midnight, as a newer Python may.
    calls = []

    class Counting(datetime):
        @classmethod
        def fromisoformat(cls, text):
            calls.append(text)
            if text[11:13] == "24":
                return datetime.fromisoformat(text[:11] + "00" + text[13:]) + timedelta(days=1)
            return datetime.fromisoformat(text)

    monkeypatch.setattr(csts.ingestion, "datetime", Counting)
    allowed = set(json.loads(BOSTON_TYPES_FILE.read_text(encoding="utf-8"))["complete"])

    def in_scope(label, minutes):
        return 0 <= minutes < 365 * 24 * 60 and label.lower() in allowed

    stamps = [t for t in FUZZ_TIMES + ISO_STAMPS + NEWER_ISO_STAMPS
              if t not in IMPOSSIBLE_TIMES]
    for n, impossible in enumerate([None, *IMPOSSIBLE_TIMES]):
        column = stamps if impossible is None else stamps + [impossible]
        path = _write(tmp_path, f"b{n}.csv", BOS_HEADER + "".join(
            f"I{n},Arson,{stamp},42.35,-71.06\n" for n, stamp in enumerate(column)))
        calls.clear()
        ds, report = load_boston(path)
        assert bool(calls) == (impossible is not None), impossible
        counts, kept = _reference_load(path, BOSTON_COLUMNS, _portal_minutes(
            datetime(2014, 1, 1)), in_scope, degrees=True)
        assert {name: getattr(report, name) for name in counts} == counts, impossible
        assert [(ds.label_of(i.event_type), i.x, i.y, i.time)
                for i in ds.instances] == kept, impossible
        assert report.unparseable > 0 and report.filtered > 0 and len(kept) > 1


def test_a_clean_iso_column_is_parsed_by_numpy_alone(tmp_path, monkeypatch):
    # numpy reads every stamp of every ISO shape, so none is tried in the
    # portals' native spellings or read by fromisoformat.
    calls = []
    parse = csts.ingestion._parse_timestamp
    monkeypatch.setattr(csts.ingestion, "_parse_timestamp",
                        lambda text: calls.append(text) or parse(text))

    class Counting(datetime):
        @classmethod
        def fromisoformat(cls, text):
            calls.append(text)
            return datetime.fromisoformat(text)

    monkeypatch.setattr(csts.ingestion, "datetime", Counting)
    column = ISO_STAMPS + ["2014-01-01 00:00:00", "2014-12-31T23:59:59.999999",
                           "2013-12-31 23:59", "2016-02-29 12:00"]
    path = _write(tmp_path, "b.csv", BOS_HEADER + "".join(
        f"I{n},Arson,{stamp},42.35,-71.06\n" for n, stamp in enumerate(column)))
    ds, report = load_boston(path)
    assert calls == []
    assert report.instances_kept == len(ISO_STAMPS) + 2 and report.filtered == 2
    assert ds.times.max() == 365 * 24 * 60 - 1
