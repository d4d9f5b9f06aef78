"""CSV ingestion: generic event files plus the Pittsburgh and Boston
crime-incident exports.

Every loader reads rows, then vets whole columns. The row loop, the spec,
makes one pass over ``csv.reader`` rows. The header is read once and each
of the four mapped columns found by name (a repeated name maps to its last
occurrence). Blank lines are skipped uncounted, a short row's missing
fields read as blank, and extra fields are ignored. The row pass counts
each row, rejects it for a blank type, coordinate or time, in that order,
and converts the coordinates with ``float``. The column pass parses the
times, a time that does not parse becoming NaN, then rejects in one mask
as unparseable a row whose time or coordinate is not finite, whose
coordinate is out of degree range or whose location is exactly (-1, -1),
the portals' placeholder for an unknown place (portals only), or whose
type label holds the pattern separator ``->`` (patterns over it could not
be read back). Only then do a portal's date range and whitelist filter, so
a row is counted under the first of :attr:`IngestReport.REASONS` that
applies. Label tests run once per distinct label. Text that ``csv.reader``
or the UTF-8 decoder refuses aborts the file with a ValueError naming it
and the line.

A generic file that is provably clean takes a bulk route instead, with
the identical dataset and report: its text is read once, split into cells
with one ``split`` and converted a column at a time, then vetted by the
same column pass. Clean means UTF-8 with no ``"``, CR or NUL, ending in a
newline, every line as wide as the header and within csv's field size
limit, no label blank or padded, and every coordinate read by ``float``
and every time by ``int`` into [0, 2**53]. Any other file, and every
portal file, takes the row loop.

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


def _load_rows(path, columns: tuple[str, str, str, str], report: IngestReport,
               ) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
    """The per-row pass: count each row, reject it for its first blank
    mapped field or a coordinate ``float`` refuses, and return the other
    rows' labels, x and y (as float64 arrays) and raw time texts, a list
    the caller parses in place."""
    labels, xs, ys, stamps = [], [], [], []
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
            i_label, i_x, i_y, i_time = (position[c] for c in columns)
            width = max(i_label, i_x, i_y, i_time) + 1
            for raw in reader:
                if not raw:
                    continue  # blank line
                report.rows_read += 1
                if len(raw) < width:
                    raw += [""] * (width - len(raw))
                label = raw[i_label].strip()
                if not label:
                    report.missing_type += 1
                    continue
                x_text = raw[i_x].strip()
                y_text = raw[i_y].strip()
                if not x_text or not y_text:
                    report.missing_coordinates += 1
                    continue
                t_text = raw[i_time].strip()
                if not t_text:
                    report.missing_time += 1
                    continue
                try:
                    x = float(x_text)
                    y = float(y_text)
                except ValueError:
                    report.unparseable += 1
                    continue
                labels.append(label)
                xs.append(x)
                ys.append(y)
                stamps.append(t_text)
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
    return (labels, np.array(xs, dtype=np.float64),
            np.array(ys, dtype=np.float64), stamps)


def _build_dataset(rows: tuple[list[str], np.ndarray, np.ndarray,
                              list[float] | np.ndarray],
                   report: IngestReport, end: Optional[int] = None,
                   whitelist: Optional[set[str]] = None) -> EventDataset:
    """The per-column pass over the rows of :func:`_load_rows` or
    :func:`_bulk_rows`, their times in minutes, NaN where a time does not
    parse. Only the portals give
    ``end``, keeping minutes in [0, end), and only their x and y are
    degrees, bounded to [-180, 180] x [-90, 90] and never the placeholder
    point (-1, -1)."""
    labels, x, y, minutes = rows
    names = sorted(set(labels))
    code = np.fromiter(map({lab: i for i, lab in enumerate(names)}.__getitem__,
                           labels), dtype=np.int64, count=len(labels))
    # Exact in float64: generic minutes are checked, portal ones lie within 2**33.
    times = np.array(minutes, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y) & np.isfinite(times)
    if end is not None:
        # Rows at (-1, -1) would all neighbour each other at one point.
        keep &= (np.abs(x) <= 180.0) & (np.abs(y) <= 90.0) & ((x != -1.0) | (y != -1.0))
    keep &= np.array(["->" not in lab for lab in names], dtype=bool)[code]
    report.unparseable += len(keep) - int(keep.sum())
    if end is not None:
        in_scope = (times >= 0) & (times < end)
        if whitelist is not None:
            in_scope &= np.array([lab.lower() in whitelist for lab in names],
                                 dtype=bool)[code]
        report.filtered += int((keep & ~in_scope).sum())
        keep &= in_scope
    # The kept labels' codes index the sorted names, so ids stay label-sorted.
    present, type_ids = np.unique(code[keep], return_inverse=True)
    types = [EventType(i, names[c]) for i, c in enumerate(present)]
    report.instances_kept = len(type_ids)
    report.types_found = len(types)
    return EventDataset.from_columns(types, type_ids, x[keep], y[keep], times[keep])


def _bulk_rows(path, report: IngestReport,
               ) -> Optional[tuple[list[str], np.ndarray, np.ndarray, np.ndarray]]:
    """A generic file's rows as the row loop and the time loop of
    :func:`load_generic` give them, read without ``csv.reader``, or None if
    the file is not clean (module docstring). In a clean file no row is
    blank or refused, so only :func:`_build_dataset` rejects rows, as it
    would after the row loop."""
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
    if any(c not in position for c in GENERIC_COLUMNS):
        return None
    labels, xs, ys, stamps = (cells[width + position[c]:lines * width:width]
                              for c in GENERIC_COLUMNS)
    n = lines - 1
    if any(not label or label.strip() != label for label in set(labels)):
        return None
    try:
        x = np.fromiter(map(float, xs), dtype=np.float64, count=n)
        y = np.fromiter(map(float, ys), dtype=np.float64, count=n)
        minutes = np.fromiter(map(int, stamps), dtype=np.int64, count=n)
    except (ValueError, OverflowError):
        return None
    if n and not 0 <= minutes.min() <= minutes.max() <= 2**53:
        return None
    report.rows_read = n
    return labels, x, y, minutes


def load_generic(path) -> tuple[EventDataset, IngestReport]:
    """Load the generic schema: ``type,x,y,time_minutes`` with time already
    expressed as non-negative integer minutes. A time that float64 cannot
    hold exactly, such as 2**53 + 1, is unparseable."""
    report = IngestReport(source=str(path))
    rows = _bulk_rows(path, report)
    if rows is None:
        rows = _load_rows(path, GENERIC_COLUMNS, report)
        times = rows[3]
        for i, text in enumerate(times):
            try:
                m = int(text)
                # float() raises OverflowError past float64's range.
                times[i] = m if m >= 0 and float(m) == m else math.nan
            except (ValueError, OverflowError):
                times[i] = math.nan
    return _build_dataset(rows, report), report


def _portal_loader(path, columns: tuple[str, str, str, str], year_lo: int,
                   year_hi: int, whitelist: Optional[set[str]] = None,
                   ) -> tuple[EventDataset, IngestReport]:
    """Minutes count from January 1 of ``year_lo``; rows outside years
    ``year_lo`` through ``year_hi`` are filtered."""
    report = IngestReport(source=str(path))
    epoch = datetime(year_lo, 1, 1)
    minute = timedelta(minutes=1)
    rows = _load_rows(path, columns, report)
    times = rows[3]
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
    return _build_dataset(rows, report, end, whitelist), report


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
