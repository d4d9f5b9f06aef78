"""CSV ingestion: generic event files plus the Pittsburgh and Boston
crime-incident exports.

Every loader is a streaming row filter: rows with missing or unparseable
mapped fields are rejected and counted by reason, never aborting the file.
A type label containing the pattern separator ``->`` is unparseable, since
patterns over it could not be read back.
The generic format is this package's own interchange schema
(``type,x,y,time_minutes``); the portal loaders map the public exports'
column names, parse timestamps into minutes from a fixed epoch, and apply
the date-range / crime-type restrictions the experiments use.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Optional

from .model import EventDataset, EventInstance, EventType

_DATA_DIR = Path(__file__).parent / "data"

#: Editable whitelists for the Boston loader (see that function's docstring).
BOSTON_TYPES_FILE = _DATA_DIR / "boston_types.json"

#: Bundled worked-example dataset in the generic schema.
EXAMPLE_EVENTS_FILE = _DATA_DIR / "example_events.csv"


@dataclass
class ColumnSchema:
    """Names of the four mapped columns in a source CSV."""

    type_label: str = "type"
    x: str = "x"
    y: str = "y"
    time: str = "time_minutes"

    def columns(self) -> list[str]:
        return [self.type_label, self.x, self.y, self.time]


GENERIC_SCHEMA = ColumnSchema()
PITTSBURGH_SCHEMA = ColumnSchema(
    type_label="INCIDENTHIERARCHYDESC", x="X", y="Y", time="INCIDENTTIME")
BOSTON_SCHEMA = ColumnSchema(
    type_label="OFFENSE_CODE_GROUP", x="Long", y="Lat", time="OCCURRED_ON_DATE")


@dataclass
class IngestReport:
    """Outcome accounting for one file: every row read is either kept or
    rejected for exactly one reason, so rows_read always equals
    instances_kept + rows_rejected."""

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
        return (self.missing_type + self.missing_coordinates
                + self.missing_time + self.unparseable + self.filtered)

    def rejection_breakdown(self) -> dict[str, int]:
        return {
            "missing_type": self.missing_type,
            "missing_coordinates": self.missing_coordinates,
            "missing_time": self.missing_time,
            "unparseable": self.unparseable,
            "filtered": self.filtered,
        }


@dataclass
class _Row:
    label: str
    x: float
    y: float
    minutes: int


def _parse_timestamp(text: str) -> datetime:
    """ISO-8601 first, then the portals' native spellings."""
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        pass
    for fmt in ("%m/%d/%Y %H:%M", "%m/%d/%Y %I:%M:%S %p", "%m/%d/%Y", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp: {text!r}")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError("non-finite coordinate")
    return value


def _load_rows(path, schema: ColumnSchema, report: IngestReport,
               parse_time, row_filter=None, degrees: bool = False) -> list[_Row]:
    """Shared row loop. ``parse_time`` maps the raw time field to integer
    minutes; ``row_filter`` may veto an otherwise valid row (date range or
    whitelist), counting it as filtered. With ``degrees`` the coordinates
    are (longitude, latitude) and must lie in [-180, 180] x [-90, 90]."""
    rows: list[_Row] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing_cols = [c for c in schema.columns() if c not in header]
        if missing_cols:
            raise ValueError(
                f"{path}: missing required column(s) {', '.join(missing_cols)}; "
                f"found {', '.join(header) or 'no header'}")
        for raw in reader:
            report.rows_read += 1
            label = (raw.get(schema.type_label) or "").strip()
            if not label:
                report.missing_type += 1
                continue
            x_text = (raw.get(schema.x) or "").strip()
            y_text = (raw.get(schema.y) or "").strip()
            if not x_text or not y_text:
                report.missing_coordinates += 1
                continue
            t_text = (raw.get(schema.time) or "").strip()
            if not t_text:
                report.missing_time += 1
                continue
            try:
                if "->" in label:
                    raise ValueError("type label holds the pattern separator")
                x = _finite(float(x_text))
                y = _finite(float(y_text))
                if degrees and not (abs(x) <= 180.0 and abs(y) <= 90.0):
                    raise ValueError("coordinate outside the degree range")
                minutes = parse_time(t_text)
            except ValueError:
                report.unparseable += 1
                continue
            row = _Row(label, x, y, minutes)
            if row_filter is not None and not row_filter(row):
                report.filtered += 1
                continue
            rows.append(row)
    return rows


def _build_dataset(rows: list[_Row], epoch: str,
                   report: IngestReport) -> EventDataset:
    labels = sorted({r.label for r in rows})
    id_of = {lab: i for i, lab in enumerate(labels)}
    types = [EventType(i, lab) for lab, i in id_of.items()]
    instances = [
        EventInstance(idx=i, event_type=id_of[r.label], x=r.x, y=r.y,
                      time=r.minutes)
        for i, r in enumerate(rows)
    ]
    report.instances_kept = len(instances)
    report.types_found = len(types)
    return EventDataset(types, instances, epoch=epoch)


def load_generic(path, schema: Optional[ColumnSchema] = None,
                 epoch: str = "1970-01-01T00:00",
                 ) -> tuple[EventDataset, IngestReport]:
    """Load the generic schema: ``type,x,y,time_minutes`` with time already
    expressed as non-negative integer minutes. ``schema`` renames the four
    columns when reading foreign files; ``epoch`` is recorded on the dataset
    as documentation of what minute 0 means."""
    schema = schema or GENERIC_SCHEMA
    report = IngestReport(source=str(path))

    def parse_minutes(text: str) -> int:
        minutes = int(text)
        if minutes < 0:
            raise ValueError("negative time")
        return minutes

    rows = _load_rows(path, schema, report, parse_minutes)
    return _build_dataset(rows, epoch, report), report


def _portal_loader(path, schema: ColumnSchema, epoch_iso: str,
                   year_lo: int, year_hi: int,
                   whitelist: Optional[set[str]] = None,
                   ) -> tuple[EventDataset, IngestReport]:
    report = IngestReport(source=str(path))
    epoch = datetime.fromisoformat(epoch_iso)

    def parse_minutes(text: str) -> int:
        dt = _parse_timestamp(text)
        return int((dt - epoch).total_seconds() // 60)

    lo = int((datetime(year_lo, 1, 1) - epoch).total_seconds() // 60)
    hi = int((datetime(year_hi + 1, 1, 1) - epoch).total_seconds() // 60)

    def in_scope(row: _Row) -> bool:
        if not (lo <= row.minutes < hi):
            return False
        return whitelist is None or row.label.lower() in whitelist

    rows = _load_rows(path, schema, report, parse_minutes, in_scope, degrees=True)
    return _build_dataset(rows, epoch_iso, report), report


def load_pittsburgh(path) -> tuple[EventDataset, IngestReport]:
    """Pittsburgh Police Incident Blotter export.

    Maps INCIDENTHIERARCHYDESC / X / Y / INCIDENTTIME, keeps incidents from
    2017-01-01 through 2019-12-31, and counts minutes from 2017-01-01T00:00.
    X and Y are longitude and latitude: rows whose X lies outside
    [-180, 180] or Y outside [-90, 90] count as unparseable.
    """
    return _portal_loader(path, PITTSBURGH_SCHEMA, "2017-01-01T00:00",
                          2017, 2019)


def load_boston(path, reduced: bool = False,
                types_file=None) -> tuple[EventDataset, IngestReport]:
    """Boston Crime Incident Reports export.

    Maps OFFENSE_CODE_GROUP / Long / Lat / OCCURRED_ON_DATE, keeps calendar
    2014, counts minutes from 2014-01-01T00:00, and restricts to a crime-type
    whitelist: the ten-type reduced list or the 26-type complete list, both
    read (case-insensitively) from an editable JSON file so they can be
    adapted to whatever taxonomy a given portal snapshot uses. Rows whose
    Long lies outside [-180, 180] or Lat outside [-90, 90] count as
    unparseable.
    """
    types_path = Path(types_file) if types_file is not None else BOSTON_TYPES_FILE
    with open(types_path, encoding="utf-8") as fh:
        lists = json.load(fh)
    key = "reduced" if reduced else "complete"
    if key not in lists or not isinstance(lists[key], list) or not lists[key]:
        raise ValueError(f"{types_path}: expected a non-empty {key!r} list")
    whitelist = {str(label).lower() for label in lists[key]}
    return _portal_loader(path, BOSTON_SCHEMA, "2014-01-01T00:00",
                          2014, 2014, whitelist)


def export_generic(dataset: EventDataset, path) -> None:
    """Write a dataset back out in the generic schema; loading the file with
    :func:`load_generic` reproduces the dataset exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GENERIC_SCHEMA.columns())
        for inst in dataset.instances:
            writer.writerow([
                dataset.label_of(inst.event_type),
                _plain_number(inst.x),
                _plain_number(inst.y),
                _minutes_field(inst.time),
            ])


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
