"""CSV ingestion: generic event files plus the Pittsburgh and Boston
crime-incident exports.

Every loader cuts a file into cells, then decides its rows in one place,
a column at a time. Two readers cut cells, with equal results, and neither
rejects a row. The spec makes one pass over ``csv.reader`` rows. The header
is read once and each of the four mapped columns found by name (a repeated
name maps to its last occurrence). Blank lines are skipped uncounted, a
short row's missing fields read as blank, and extra fields are ignored.
Text that ``csv.reader`` or the UTF-8 decoder refuses aborts the file with
a ValueError naming it and the line. A file whose structure is plain is
cut with one ``split`` of its text instead: UTF-8 with no ``"``, CR or NUL,
ending in a newline, every line as wide as the header and within csv's
field size limit, and every mapped column present. Only the file's
structure chooses the reader, never the content of a cell.

Then every row is counted and decided from its cells. Labels are stripped
once per distinct label, coordinates read by ``float`` and times parsed by
the loader, a cell that does not convert becoming NaN. One mask keeps a
row whose label is not blank and holds no pattern separator ``->``
(patterns over it could not be read back), whose coordinates and time are
finite, and, for the portals, whose coordinates are within degree range
and not exactly (-1, -1), the portals' placeholder for an unknown place.
A row the mask drops counts as missing_type, missing_coordinates or
missing_time for the first of its label, coordinates and time that is
blank, and as unparseable if none is. Only then do a portal's date range
and whitelist filter, so a row is counted under the first of
:attr:`IngestReport.REASONS` that applies.

The generic format is this package's own interchange schema
(``type,x,y,time_minutes``). The portal loaders map the public exports'
column names, parse timestamps into whole minutes, floored, from a fixed
naive local epoch, January 1 of the first year in scope (2017-01-01T00:00
for Pittsburgh, 2014-01-01T00:00 for Boston), and apply the date-range /
crime-type restrictions the experiments use. A timestamp is read as
ISO-8601 only in the forms ``YYYY-MM-DD``, optionally followed by ``T`` or
a space and ``HH``, ``HH:MM``, ``HH:MM:SS``, ``HH:MM:SS.fff`` or
``HH:MM:SS.ffffff`` with an hour below 24, which every supported Python
reads alike; any other stamp is tried in the portals' native spellings.
So a timestamp carrying a UTC offset (``Z``, ``+00``, ``+00:00``), which
could not be placed against a naive epoch, is unparseable. The Boston
whitelists are edited in ``data/boston_types.json``. Datasets carry no
epoch: minute 0 means whatever the loader counted from.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import ClassVar, Optional

import numpy as np

from .model import EventDataset, EventType

_DATA_DIR = Path(__file__).parent / "data"

#: Editable whitelists for the Boston loader (see that function's docstring).
BOSTON_TYPES_FILE = _DATA_DIR / "boston_types.json"

#: Bundled worked-example dataset in the generic schema.
EXAMPLE_EVENTS_FILE = _DATA_DIR / "example_events.csv"

#: The four mapped columns of each layout: type label, x, y, time.
GENERIC_COLUMNS = ("type", "x", "y", "time_minutes")
PITTSBURGH_COLUMNS = ("INCIDENTHIERARCHYDESC", "X", "Y", "INCIDENTTIME")
BOSTON_COLUMNS = ("OFFENSE_CODE_GROUP", "Long", "Lat", "OCCURRED_ON_DATE")


@dataclass
class IngestReport:
    """Outcome accounting for one file: every row read is either kept or
    rejected for exactly one reason, so rows_read always equals
    instances_kept + rows_rejected."""

    #: The rejection reasons, in the order rows are tested for them.
    REASONS: ClassVar[tuple[str, ...]] = (
        "missing_type", "missing_coordinates", "missing_time", "unparseable",
        "filtered")

    source: str
    rows_read: int = 0
    instances_kept: int = 0
    types_found: int = 0
    missing_type: int = 0
    missing_coordinates: int = 0
    missing_time: int = 0
    unparseable: int = 0
    filtered: int = 0  # outside date range or type whitelist

    @property
    def rows_rejected(self) -> int:
        return sum(self.rejection_breakdown().values())

    def rejection_breakdown(self) -> dict[str, int]:
        return {reason: getattr(self, reason) for reason in self.REASONS}


def _parse_timestamp(text: str) -> datetime:
    """The portals' native spellings, tried on a stamp ISO-8601 refuses."""
    if text[:1].isdecimal():  # every spelling opens with %m or %Y
        for fmt in ("%m/%d/%Y %H:%M", "%m/%d/%Y %I:%M:%S %p", "%m/%d/%Y",
                    "%Y-%m-%d"):
            try:
                return datetime.strptime(text, fmt)
            except ValueError:
                continue
    raise ValueError(f"unparseable timestamp: {text!r}")


#: The ISO-8601 stamps the portals read, each digit written as 9: a date,
#: then optionally T or a space and the time to the hour, minute, second,
#: millisecond or microsecond. ``datetime.fromisoformat`` reads these alike
#: on every supported Python. Python 3.11 and later also read forms that
#: 3.10 refuses, such as 20140710, 2014-W28-4, 2014-07-10T2125 and
#: 2014-07-10 21:25:00.5, so those would load differently by version.
_ISO_SHAPES = frozenset(
    [b"9999-99-99"] + [b"9999-99-99" + sep + b"99:99:99.999999"[:n]
                       for sep in (b"T", b" ") for n in (2, 5, 8, 12, 15)])
_DIGITS_AS_9 = bytes.maketrans(b"0123456789", b"9" * 10)


def _off_iso_shape(stamps: list[str]) -> set[str]:
    """The stamps ``fromisoformat`` must not read: those outside
    :data:`_ISO_SHAPES` that open with four digits, as every form it reads
    on any Python does, and those at hour 24, which 3.10 refuses and a newer
    Python may read as the next midnight. Passes over the joined column
    find them, so a column without them costs no test per stamp."""
    joined = "\n".join(stamps)
    shapes = joined.encode().translate(_DIGITS_AS_9).split(b"\n")
    if len(shapes) != len(stamps):  # a stamp holds a newline
        shapes = [text.encode().translate(_DIGITS_AS_9) for text in stamps]
    odd = {s for s in set(shapes) if s[:4] == b"9999" and s not in _ISO_SHAPES}
    refused = {text for text, s in zip(stamps, shapes) if s in odd} if odd else set()
    if "T24" in joined or " 24" in joined:
        refused.update(text for text in stamps if text[10:13] in ("T24", " 24"))
    return refused


def _load_rows(path, columns: tuple[str, str, str, str],
               ) -> tuple[tuple[str, ...], ...]:
    """The reader that is the spec: the four mapped columns' cells, one
    entry per row, read by ``csv.reader``. Blank lines are skipped and a
    short row's missing fields read as blank."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}
            missing_cols = [c for c in columns if c not in position]
            if missing_cols:
                raise ValueError(
                    f"{path}: missing required column(s) {', '.join(missing_cols)}; "
                    f"found {', '.join(header) or 'no header'}")
            picks = [position[c] for c in columns]
            pick, width = operator.itemgetter(*picks), max(picks) + 1
            rows = [pick(raw if len(raw) >= width else raw + [""] * (width - len(raw)))
                    for raw in reader if raw]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # The decoder reads ahead of the rows, so find the byte in the file.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            line = len((data[:exc.start] + b".").splitlines())
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return tuple(zip(*rows)) or ((),) * 4


def _bulk_rows(path, columns: tuple[str, str, str, str],
               ) -> Optional[list[list[str]]]:
    """The cells :func:`_load_rows` gives, cut with one ``split``, or None
    if the file's structure is not plain (module docstring)."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    if not text.endswith("\n") or '"' in text or "\r" in text or "\0" in text:
        return None
    # Every line is as wide as the header exactly when every width-th comma
    # or newline is a newline. They are ASCII, so the UTF-8 bytes place them,
    # and a line's bytes are at least its longest field's characters.
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = buf == ord("\n")
    breaks = np.flatnonzero(newline | (buf == ord(",")))
    lines = text.count("\n")
    width = len(breaks) // lines
    ends = breaks[width - 1::width]
    if (len(breaks) != width * lines or not newline[ends].all()
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1):
        return None
    cells = text.replace("\n", ",").split(",")
    position = {name: i for i, name in enumerate(cells[:width])}
    if any(c not in position for c in columns):
        return None
    return [cells[width + position[c]:lines * width:width] for c in columns]


def _floats(cells: Sequence[str]) -> np.ndarray:
    """The cells read by ``float``, NaN where it refuses one."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return np.array([_float_or_nan(text) for text in cells], dtype=np.float64)


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _build_dataset(cells: Sequence[Sequence[str]], minutes: Sequence[float],
                   report: IngestReport, end: Optional[int] = None,
                   whitelist: Optional[set[str]] = None) -> EventDataset:
    """Decide every row from its cells, as :func:`_bulk_rows` or
    :func:`_load_rows` give them, and its time in minutes, NaN where the
    time does not parse (module docstring). Only the portals give ``end``,
    keeping minutes in [0, end), and only their x and y are degrees,
    bounded to [-180, 180] x [-90, 90] and never the placeholder point
    (-1, -1)."""
    labels, xs, ys, stamps = cells
    report.rows_read = len(labels)
    stripped = {label: label.strip() for label in set(labels)}
    names = sorted(set(stripped.values()))
    index = {name: i for i, name in enumerate(names)}
    code_of = {label: index[name] for label, name in stripped.items()}
    code = np.fromiter(map(code_of.__getitem__, labels), dtype=np.int64, count=len(labels))
    x, y = _floats(xs), _floats(ys)
    # Exact in float64: generic minutes are checked, portal ones lie within 2**33.
    times = np.array(minutes, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y) & np.isfinite(times)
    if end is not None:
        # Rows at (-1, -1) would all neighbour each other at one point.
        keep &= (np.abs(x) <= 180.0) & (np.abs(y) <= 90.0) & ((x != -1.0) | (y != -1.0))
    keep &= np.array([bool(name) and "->" not in name for name in names],
                     dtype=bool)[code]
    for i in np.flatnonzero(~keep).tolist():
        reason = ("missing_type" if not stripped[labels[i]] else
                  "missing_coordinates" if not (xs[i].strip() and ys[i].strip()) else
                  "missing_time" if not stamps[i].strip() else "unparseable")
        setattr(report, reason, getattr(report, reason) + 1)
    if end is not None:
        in_scope = (times >= 0) & (times < end)
        if whitelist is not None:
            in_scope &= np.array([name.lower() in whitelist for name in names],
                                 dtype=bool)[code]
        report.filtered = int((keep & ~in_scope).sum())
        keep &= in_scope
    # The kept labels' codes index the sorted names, so ids stay label-sorted.
    present, type_ids = np.unique(code[keep], return_inverse=True)
    types = [EventType(i, names[c]) for i, c in enumerate(present)]
    report.instances_kept = len(type_ids)
    report.types_found = len(types)
    return EventDataset.from_columns(types, type_ids, x[keep], y[keep], times[keep])


def load_generic(path) -> tuple[EventDataset, IngestReport]:
    """Load the generic schema: ``type,x,y,time_minutes`` with time already
    expressed as non-negative integer minutes. A time that float64 cannot
    hold exactly, such as 2**53 + 1, is unparseable."""
    report = IngestReport(source=str(path))
    cells = _bulk_rows(path, GENERIC_COLUMNS) or _load_rows(path, GENERIC_COLUMNS)
    stamps = cells[3]
    try:
        minutes = np.fromiter(map(int, stamps), dtype=np.int64, count=len(stamps))
        if len(stamps) and not 0 <= minutes.min() <= minutes.max() <= 2**53:
            raise ValueError("a time outside [0, 2**53]")
    except (ValueError, OverflowError):
        minutes = []
        for text in stamps:
            try:
                m = int(text)
                # float() raises OverflowError past float64's range.
                minutes.append(m if m >= 0 and float(m) == m else math.nan)
            except (ValueError, OverflowError):
                minutes.append(math.nan)
    return _build_dataset(cells, minutes, report), report


def _portal_loader(path, columns: tuple[str, str, str, str], year_lo: int,
                   year_hi: int, whitelist: Optional[set[str]] = None,
                   ) -> tuple[EventDataset, IngestReport]:
    """Minutes count from January 1 of ``year_lo``; rows outside years
    ``year_lo`` through ``year_hi`` are filtered."""
    report = IngestReport(source=str(path))
    epoch = datetime(year_lo, 1, 1)
    minute = timedelta(minutes=1)
    cells = _bulk_rows(path, columns) or _load_rows(path, columns)
    times = [text.strip() for text in cells[3]]
    from_iso = datetime.fromisoformat
    refused = _off_iso_shape(times)
    if refused:  # only such a column pays a test per stamp
        def from_iso(text, read=from_iso):
            if text in refused:
                raise ValueError(f"not an ISO shape the portals read: {text!r}")
            return read(text)
    for i, text in enumerate(times):
        try:
            try:
                stamp = from_iso(text)
            except ValueError:
                stamp = _parse_timestamp(text)
            times[i] = (stamp - epoch) // minute
        except ValueError:
            times[i] = math.nan
    end = (datetime(year_hi + 1, 1, 1) - epoch) // minute
    return _build_dataset(cells, times, report, end, whitelist), report


def load_pittsburgh(path) -> tuple[EventDataset, IngestReport]:
    """Pittsburgh Police Incident Blotter export.

    Maps INCIDENTHIERARCHYDESC / X / Y / INCIDENTTIME, keeps incidents from
    2017-01-01 through 2019-12-31, and counts minutes from 2017-01-01T00:00.
    X and Y are longitude and latitude: rows whose X lies outside
    [-180, 180] or Y outside [-90, 90] count as unparseable.
    """
    return _portal_loader(path, PITTSBURGH_COLUMNS, 2017, 2019)


def load_boston(path, reduced: bool = False) -> tuple[EventDataset, IngestReport]:
    """Boston Crime Incident Reports export.

    Maps OFFENSE_CODE_GROUP / Long / Lat / OCCURRED_ON_DATE, keeps calendar
    2014, counts minutes from 2014-01-01T00:00, and restricts to a crime-type
    whitelist: the ten-type reduced list or the 26-type complete list, both
    read (case-insensitively) from :data:`BOSTON_TYPES_FILE`, which is meant
    to be edited to whatever taxonomy a given portal snapshot uses. Rows
    whose Long lies outside [-180, 180] or Lat outside [-90, 90] count as
    unparseable.
    """
    with open(BOSTON_TYPES_FILE, encoding="utf-8") as fh:
        lists = json.load(fh)
    key = "reduced" if reduced else "complete"
    if key not in lists or not isinstance(lists[key], list) or not lists[key]:
        raise ValueError(f"{BOSTON_TYPES_FILE}: expected a non-empty {key!r} list")
    whitelist = {str(label).lower() for label in lists[key]}
    return _portal_loader(path, BOSTON_COLUMNS, 2014, 2014, whitelist)


def export_generic(dataset: EventDataset, path) -> None:
    """Write a dataset back out in the generic schema; loading the file with
    :func:`load_generic` gives an equal dataset (same types, same instances),
    whichever loader the dataset came from."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GENERIC_COLUMNS)
        for type_id, x, y, time in zip(dataset.type_ids.tolist(), dataset.xs.tolist(),
                                       dataset.ys.tolist(), dataset.times.tolist()):
            writer.writerow([dataset.label_of(type_id), _plain_number(x),
                             _plain_number(y), _minutes_field(time)])


def _plain_number(value: float) -> str:
    # Integral coordinates print without a trailing .0 so exports match
    # hand-written fixture files byte for byte.
    return str(int(value)) if float(value) == int(value) else repr(float(value))


def _minutes_field(value) -> str:
    # The generic schema stores whole minutes; exporting anything else would
    # produce a file load_generic rejects, so refuse up front.
    if float(value) != int(value):
        raise ValueError(f"generic schema stores whole minutes, got {value!r}")
    return str(int(value))
