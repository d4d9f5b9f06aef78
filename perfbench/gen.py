"""Seeded input generators for the three benchmark workloads.

Each generator returns the events the benchmark's reference checker uses
(``Event`` tuples whose fields are the exact values the CSV spells) and
writes the CSV file the program reads. Nothing here imports ``csts``: the
program only ever sees the written file.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import NamedTuple

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class Event(NamedTuple):
    label: str
    x: float        # longitude in geodesic mode
    y: float        # latitude in geodesic mode
    t: int          # whole minutes from the loader's epoch
    x_text: str     # the coordinate strings as written to the CSV
    y_text: str


@dataclass
class Inputs:
    events: list[Event]
    path: str
    # Rows the loader must reject, by the reason it reports them under.
    planted_rejects: dict[str, int] = field(default_factory=dict)


def _event(label: str, x: float, y: float, t: int, decimals: int) -> Event:
    xt, yt = f"{x:.{decimals}f}", f"{y:.{decimals}f}"
    return Event(label, float(xt), float(yt), int(t), xt, yt)


def _exact_counts(weights: list[float], n: int) -> list[int]:
    """Split n into per-type counts proportional to weights, summing to n."""
    total = sum(weights)
    counts = [int(n * w / total) for w in weights]
    for i in range(n - sum(counts)):
        counts[i % len(counts)] += 1
    return counts


def write_generic(events: list[Event], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["type", "x", "y", "time_minutes"])
        for e in events:
            w.writerow([e.label, e.x_text, e.y_text, e.t])


def stratified_events(seed: int, n: int, weights: list[int], area: float,
                      horizon: int) -> list[Event]:
    """Uniform events with stratified placement: the space-time box is cut
    into about n cells and each chosen cell holds one event at a random
    spot. Types are dealt in shuffled blocks of ``weights`` (one block per
    sum(weights) consecutive cells), so type shares are exact locally too.
    Density is uniform as for i.i.d. draws, but local counts fluctuate far
    less, so the lattice size moves less with the seed near the density
    where it grows steeply."""
    rng = random.Random(seed)
    g = max(1, round(n ** (1 / 3)))
    layers = math.ceil(n / (g * g))
    cells = sorted(rng.sample(range(g * g * layers), n))
    block = [LETTERS[i] for i, w in enumerate(weights) for _ in range(w)]
    labels: list[str] = []
    while len(labels) < n:
        rng.shuffle(block)
        labels += block
    events = []
    for label, cell in zip(labels, cells):
        ix, iy, it = cell % g, (cell // g) % g, cell // (g * g)
        x = (ix + rng.random()) * area / g
        y = (iy + rng.random()) * area / g
        t = int((it + rng.random()) * horizon / layers)
        events.append(_event(label, x, y, t, 2))
    return events


# ---------------------------------------------------------------------------
# Boston portal layout
# ---------------------------------------------------------------------------

#: The loader's complete whitelist, spelled as the portal does.
BOSTON_TYPES = [
    "Aggravated Assault", "Arson", "Auto Theft", "Bomb", "Burglary",
    "Counterfeiting", "Crimes Against Children", "Criminal Harassment",
    "Disorderly Conduct", "Drug Violation", "Embezzlement",
    "Firearm Violations", "Forgery", "Fraud", "Gambling Offense",
    "Harassment", "Homicide", "Larceny", "Larceny From Motor Vehicle",
    "Manslaughter", "Operating Under Influence", "Prostitution", "Robbery",
    "Simple Assault", "Vandalism", "Violation Of Liquor Laws",
]
#: Portal groups that are not on the whitelist.
OFF_WHITELIST = ["Towed", "Investigate Person", "Medical Assistance",
                 "Motor Vehicle Accident Response", "Verbal Disputes"]
BOSTON_COLUMNS = ["INCIDENT_NUMBER", "OFFENSE_CODE", "OFFENSE_CODE_GROUP",
                  "DISTRICT", "OCCURRED_ON_DATE", "YEAR", "MONTH", "Lat",
                  "Long"]
_EPOCH = datetime(2014, 1, 1)
_YEAR_MINUTES = 365 * 24 * 60
_LON0, _LON1, _LAT0, _LAT1 = -71.17, -71.00, 42.24, 42.39
_M_PER_DEG_LAT = 111_195.0


@dataclass
class CrimeSpec:
    instances: int
    hotspots: int
    hotspot_share: float   # share of events drawn around a hotspot
    hotspot_sigma_m: float
    zipf: float            # type frequency ~ 1 / rank**zipf
    rejects_each: int      # planted rows per spoiled field


def crime_inputs(seed: int, spec: CrimeSpec, path: str) -> Inputs:
    """Boston-layout CSV: whitelisted types with Zipf frequencies, events
    clustered around hotspots over a uniform background, times uniform over
    2014, plus planted rows the loader must reject. Hotspots sit one per
    cell of a jittered grid over the city box, so they never pile up."""
    rng = random.Random(seed)
    weights = [1 / (r + 1) ** spec.zipf for r in range(len(BOSTON_TYPES))]
    labels = [BOSTON_TYPES[i]
              for i, c in enumerate(_exact_counts(weights, spec.instances))
              for _ in range(c)]
    rng.shuffle(labels)
    side = math.ceil(math.sqrt(spec.hotspots))
    cells = rng.sample(range(side * side), spec.hotspots)
    centers = [(_LON0 + (c % side + 0.25 + 0.5 * rng.random()) * (_LON1 - _LON0) / side,
                _LAT0 + (c // side + 0.25 + 0.5 * rng.random()) * (_LAT1 - _LAT0) / side)
               for c in cells]
    m_per_deg_lon = _M_PER_DEG_LAT * math.cos(math.radians((_LAT0 + _LAT1) / 2))
    n_hot = round(spec.instances * spec.hotspot_share)
    events = []
    for i, label in enumerate(labels):
        if i < n_hot:
            cx, cy = centers[i % len(centers)]
            lon = cx + rng.gauss(0, spec.hotspot_sigma_m) / m_per_deg_lon
            lat = cy + rng.gauss(0, spec.hotspot_sigma_m) / _M_PER_DEG_LAT
        else:
            lon = rng.uniform(_LON0, _LON1)
            lat = rng.uniform(_LAT0, _LAT1)
        events.append(_event(label, lon, lat, rng.randrange(_YEAR_MINUTES), 6))

    def stamp(minutes: int) -> str:
        return (_EPOCH + timedelta(minutes=minutes)).strftime("%Y-%m-%d %H:%M:%S")

    rows = [[e.label, e.x_text, e.y_text, stamp(e.t)] for e in events]
    # Each planted row is a valid row with one field spoiled:
    # (reason the loader must report, column, spoiled value).
    spoilers = [
        ("missing_type", 0, lambda: ""),
        ("missing_coordinates", 1, lambda: ""),
        ("missing_coordinates", 2, lambda: ""),
        ("missing_time", 3, lambda: ""),
        ("unparseable", 3, lambda: "sometime in 2014"),
        ("filtered", 0, lambda: rng.choice(OFF_WHITELIST)),
        ("filtered", 3, lambda: stamp(-1 - rng.randrange(10_000))),
        ("filtered", 3, lambda: stamp(_YEAR_MINUTES + rng.randrange(10_000))),
    ]
    planted: dict[str, int] = {}
    for _ in range(spec.rejects_each):
        for reason, col, spoil in spoilers:
            row = [rng.choice(BOSTON_TYPES), f"{rng.uniform(_LON0, _LON1):.6f}",
                   f"{rng.uniform(_LAT0, _LAT1):.6f}", stamp(rng.randrange(_YEAR_MINUTES))]
            row[col] = spoil()
            rows.append(row)
            planted[reason] = planted.get(reason, 0) + 1
    rng.shuffle(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(BOSTON_COLUMNS)
        for n, (label, lon, lat, when) in enumerate(rows):
            w.writerow([f"I{142000000 + n}", f"{rng.randrange(100, 3900):05d}",
                        label, rng.choice("ABCDE") + str(rng.randrange(1, 19)),
                        when, *((when[:4], when[5:7].lstrip("0"))
                                if when[:4].isdigit() else ("", "")), lat, lon])
    return Inputs(events, path, planted)
