"""Command-line interface: mine / sweep / query.

The machine contract is line-delimited JSON records written to --out (or
stdout): one ``dataset`` record, one ``run`` (or per-grid-point
``sweep_point``) record, ``pattern`` records sorted canonically, and for
sweeps the ratio ``series`` records. Records never contain wall-clock
numbers — timings go to the stderr summary — so identical inputs produce
byte-identical record streams on every run. --out is written only once
the run has succeeded, over an existing file's old bytes (see
`_write_records`).

Exit codes: 0 success; 2 usage or data errors, or a failed write to --out
or stdout; 3 oracle size guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Optional

from .analysis import CstsSet, approximate_pi, extract_closed
from .bottomup import extract_csts, run_bottom_up
from .ingestion import load_boston, load_generic, load_pittsburgh
from .model import EventDataset, MiningConfig, parse_pattern
from .neighborhoods import NeighborhoodIndex
from .oracle import (
    OracleSizeError,
    RandomSpec,
    generate_random,
    oracle_closed,
    oracle_cmax,
    oracle_search,
)
from .topdown import _filter_tree, mine_all, require_bounded

_PROG = "csts"


class _CliError(Exception):
    """Data-level failure: message to stderr, exit 2."""


# ---------------------------------------------------------------------------
# Flag surface
# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Mine constricted spatio-temporal sequential patterns.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, multi_thresholds: bool):
        src = p.add_argument_group("input")
        src.add_argument("--input", help="CSV file to mine")
        src.add_argument(
            "--schema", default="generic",
            choices=["generic", "pittsburgh", "boston", "boston-reduced"],
            help="input layout: generic=type,x,y,time_minutes; pittsburgh="
                 "INCIDENTHIERARCHYDESC/X/Y/INCIDENTTIME (2017-2019); boston="
                 "OFFENSE_CODE_GROUP/Long/Lat/OCCURRED_ON_DATE (2014, 26-type "
                 "whitelist); boston-reduced=same with the 10-type whitelist")
        src.add_argument(
            "--synthetic", metavar="TYPES,INSTANCES[,AREA,HORIZON]",
            help="generate a uniform random dataset instead of reading a file")
        src.add_argument("--seed", type=int, default=0,
                         help="seed for --synthetic (default 0)")
        mine = p.add_argument_group("mining")
        mine.add_argument("--radius", required=True, type=float,
                          help="spatial threshold (meters in geodesic mode)")
        mine.add_argument("--window", required=True, type=float,
                          help="temporal threshold in minutes")
        nargs_help = "comma-separated list" if multi_thresholds else "single value"
        mine.add_argument("--theta", default="0",
                          help=f"participation-index threshold(s), {nargs_help}")
        mine.add_argument("--epsilon", default="0",
                          help=f"approximation margin(s), {nargs_help}")
        mine.add_argument("--metric", default="euclidean",
                          choices=["euclidean", "geodesic"])
        mine.add_argument("--theta-strictness", default="gt",
                          choices=["gt", "ge"],
                          help="keep patterns with pi > theta (gt, default) "
                               "or pi >= theta (ge)")
        mine.add_argument("--max-length", type=int, default=None)
        out = p.add_argument_group("output")
        out.add_argument("--out", help="record file (default: stdout)")

    p_mine = sub.add_parser("mine", help="one mining run")
    add_common(p_mine, multi_thresholds=False)
    p_mine.add_argument("--algorithm", default="csts",
                        choices=["all", "closed", "csts", "oracle"],
                        help="all=threshold-passing patterns only; closed adds "
                             "closure flags; csts adds the constricted set; "
                             "oracle=brute-force reference (small inputs only)")

    p_sweep = sub.add_parser("sweep", help="grid of runs over theta x epsilon")
    add_common(p_sweep, multi_thresholds=True)

    p_query = sub.add_parser("query",
                             help="estimate a pattern's pi from saved records")
    p_query.add_argument("--from", dest="source", required=True,
                         help="record file produced by `mine --algorithm csts`")
    p_query.add_argument("--pattern", dest="patterns", action="append",
                         required=True, metavar="PATTERN",
                         help="event-type labels joined by '->'; repeat it to "
                              "answer several patterns from one load")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _parse_threshold_list(text: str, flag: str, multi: bool) -> list[Fraction]:
    texts = [v.strip() for v in text.split(",") if v.strip()]
    if not texts:
        raise _CliError(f"{flag} needs at least one value")
    if not multi and len(texts) > 1:
        raise _CliError(f"mine takes a single {flag} value; use sweep for lists")
    try:
        values = [Fraction(v) for v in texts]
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"bad {flag} value: {exc}") from exc
    # A grid point given twice would be mined and written twice.
    if len(set(values)) < len(values):
        raise _CliError(f"{flag} lists one value more than once: {text}")
    return values


def _grid(args, multi: bool) -> list[list[MiningConfig]]:
    """One checked MiningConfig per (theta, epsilon) point, one row per
    theta, so a bad value, or a tree search with no bound, fails before any
    data is read. The oracle has a length limit of its own."""
    thetas = _parse_threshold_list(args.theta, "--theta", multi)
    epsilons = _parse_threshold_list(args.epsilon, "--epsilon", multi)
    grid = [[_config(args, theta, epsilon) for epsilon in epsilons]
            for theta in thetas]
    if getattr(args, "algorithm", None) != "oracle":
        try:
            for row in grid:
                require_bounded(row[0])
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    return grid


def _load_dataset(args) -> tuple[EventDataset, dict]:
    """Returns (dataset, 'dataset' record)."""
    if args.synthetic and args.input:
        raise _CliError("--input and --synthetic are mutually exclusive")
    if args.synthetic:
        parts = [p.strip() for p in args.synthetic.split(",")]
        if len(parts) not in (2, 4):
            raise _CliError("--synthetic wants TYPES,INSTANCES[,AREA,HORIZON]")
        try:
            spec = RandomSpec(
                seed=args.seed,
                n_types=int(parts[0]),
                n_instances=int(parts[1]),
                area=float(parts[2]) if len(parts) == 4 else 100.0,
                horizon=int(parts[3]) if len(parts) == 4 else 300,
            )
        except ValueError as exc:
            raise _CliError(f"bad --synthetic spec: {exc}") from exc
        dataset, report = generate_random(spec), None
        source = (f"synthetic(seed={spec.seed},types={spec.n_types},"
                  f"instances={spec.n_instances},area={spec.area},"
                  f"horizon={spec.horizon})")
    elif not args.input:
        raise _CliError("give --input FILE or --synthetic SPEC")
    else:
        loaders = {
            "generic": load_generic,
            "pittsburgh": load_pittsburgh,
            "boston": lambda p: load_boston(p, reduced=False),
            "boston-reduced": lambda p: load_boston(p, reduced=True),
        }
        try:
            dataset, report = loaders[args.schema](args.input)
        except OSError as exc:
            raise _CliError(f"cannot read {args.input}: {exc}") from exc
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        source = str(args.input)
    return dataset, {
        "record": "dataset",
        "source": source,
        "instances": len(dataset),
        "types": len(dataset.types),
        "rows_read": None if report is None else report.rows_read,
        "rejected": None if report is None else report.rejection_breakdown(),
    }


def _start(args, multi: bool):
    """The steps mine and sweep share, in this order: check the grid and
    --out, then load the data. Returns (grid, dataset, 'dataset' record,
    load seconds)."""
    grid = _grid(args, multi)
    _check_out(args.out, args.input)
    t0 = time.perf_counter()
    dataset, ds_record = _load_dataset(args)
    return grid, dataset, ds_record, time.perf_counter() - t0


def _finish(args, ds_record: dict, records: list[dict]) -> None:
    """Write the record stream, then name the input on stderr."""
    _write_records(args.out, [ds_record, *records])
    _say(f"input={ds_record['source']} instances={ds_record['instances']} "
         f"types={ds_record['types']}")


def _config(args, theta: Fraction, epsilon: Fraction) -> MiningConfig:
    try:
        return MiningConfig(
            radius=args.radius,
            window=args.window,
            theta=theta,
            epsilon=epsilon,
            metric=args.metric,
            strict_theta=(args.theta_strictness == "gt"),
            max_length=args.max_length,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"bad mining parameters: {exc}") from exc


def _frac(value: Optional[Fraction]):
    return None if value is None else str(value)


def _dec(value: Optional[Fraction]):
    return None if value is None else float(value)


def _config_echo(cfg: MiningConfig) -> dict:
    # Wall-clock numbers stay out of the records on purpose: the record
    # stream must be byte-identical across runs. Timings go to stderr.
    return {
        "radius": cfg.radius,
        "window": cfg.window,
        "theta": _frac(cfg.theta),
        "theta_decimal": _dec(cfg.theta),
        "theta_strictness": "gt" if cfg.strict_theta else "ge",
        "epsilon": _frac(cfg.epsilon),
        "epsilon_decimal": _dec(cfg.epsilon),
        "metric": cfg.metric,
        "max_length": cfg.max_length,
    }


def _ratio(num: Optional[int], den: Optional[int]) -> Optional[Fraction]:
    """num/den, or None when either count was not computed or den is 0."""
    return None if num is None or not den else Fraction(num, den)


def _point_record(kind: str, cfg: MiningConfig, counts: dict, capped: bool,
                  depth: int) -> dict:
    """A 'run' or 'sweep_point' record: one grid point's counts."""
    ratios = {}
    for den in ("all", "closed"):
        value = _ratio(counts["csts"], counts[den])
        ratios[f"csts_over_{den}"] = _frac(value)
        ratios[f"csts_over_{den}_decimal"] = _dec(value)
    return {"record": kind, "config": _config_echo(cfg), "counts": counts,
            "ratios": ratios, "capped": capped, "depth": depth}


def _pattern_record(dataset: EventDataset, pattern, pi: Fraction, closed,
                    csts, cmax_size, rcmax_size) -> dict:
    return {
        "record": "pattern",
        "pattern": "->".join(dataset.pattern_labels(pattern)),
        "length": len(pattern),
        "pi": _frac(pi),
        "pi_decimal": _dec(pi),
        "closed": closed,
        "csts": csts,
        "cmax_size": cmax_size,
        "rcmax_size": rcmax_size,
    }


def _check_out(path: Optional[str], source: Optional[str]) -> None:
    """Fail before any data is read when --out, or stdout without it, cannot
    be written, or when --out is the --input file ``source`` (by any name,
    so through a symlink or hard link too). The file itself is not opened:
    `_write_records` writes it only once every record is built, so a failed
    run leaves an existing one as it was."""
    if not path:
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise _CliError("cannot write stdout: it is closed")
        return
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        problem = f"no directory {directory}"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif (source and os.path.exists(path) and os.path.exists(source)
          and os.path.samefile(path, source)):
        problem = "it is the --input file"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise _CliError(f"cannot write {path}: {problem}")


def _write_records(path: Optional[str], records: list[dict]) -> None:
    """Write one JSON line per record to --out, or to stdout. An existing
    --out is written over from its first byte and then cut to the new
    length, never truncated first. On ext4, a file truncated to nothing
    and rewritten makes its close wait for write-back, and freeing the
    blocks of a file already on disk, by truncating or unlinking it, can
    take as long; either can exceed the whole run. Writing over the old
    bytes does neither unless the output shrinks. The cost is durability:
    nothing waits for the new bytes to reach the disk, so a power loss
    soon after a run can leave --out with old bytes, or a mix of old and
    new."""
    text = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                   for rec in records)
    if path:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            with open(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):  # not a FIFO or device
                    fh.truncate()
        except OSError as exc:
            raise _CliError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _index(dataset: EventDataset, cfg: MiningConfig):
    """(neighbor index, build seconds)."""
    t0 = time.perf_counter()
    try:
        index = NeighborhoodIndex(dataset, cfg)
    except ValueError as exc:  # bad degrees
        raise _CliError(str(exc)) from exc
    return index, time.perf_counter() - t0


def _run_grid(dataset, grid, algorithm, index):
    """Yields (config, tree, closed, cmax map, (top s, bottom s)) per point of
    `_grid`'s ``grid``, in grid order, freeing each cmax map and filtered tree
    before the next is made unless the caller holds it. One tree grows, at the
    lowest theta, and is filtered for the others; its closed set is found once,
    as a closed node stays closed wherever it survives. ``closed`` is None for
    ``all``; ``cmax`` and the bottom seconds are None unless ``csts``."""
    lowest = min(grid, key=lambda row: row[0].theta)
    t0 = time.perf_counter()
    grown = mine_all(dataset, lowest[0], index=index)
    t_grow = time.perf_counter() - t0
    grown_closed = None if algorithm == "all" else set(extract_closed(grown))
    for row in grid:
        if row is lowest:
            tree, closed, t_top = grown, grown_closed, t_grow
        else:
            t0 = time.perf_counter()
            tree = _filter_tree(grown, row[0], index)
            t_top = time.perf_counter() - t0
            closed = None if grown_closed is None else grown_closed.intersection(tree)
        for cfg in row:
            t0 = time.perf_counter()
            cmax = run_bottom_up(tree, cfg.epsilon) if algorithm == "csts" else None
            t_bot = None if cmax is None else time.perf_counter() - t0
            yield cfg, tree, closed, cmax, (t_top, t_bot)
            del cmax
        del tree, closed


def _say(text: str) -> None:
    print(f"[{_PROG}] {text}", file=sys.stderr)


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

def _run_oracle_algorithm(dataset, cfg):
    """`cmd_mine`'s (items, closed, cmax, capped, depth, timings), by pattern."""
    t0 = time.perf_counter()
    try:
        universe, capped = oracle_search(dataset, cfg,
                                         max_len=cfg.max_length or 7)
    except OracleSizeError:
        raise
    except ValueError as exc:  # bad degrees
        raise _CliError(str(exc)) from exc
    closed = {p for p, _ in oracle_closed(universe)}
    cmax = oracle_cmax(universe, cfg.epsilon)
    timings = {"oracle_s": time.perf_counter() - t0}
    depth = max((len(p) for p, _ in universe), default=0)
    return ([(p, p, pi) for p, pi in universe], closed, cmax, capped, depth,
            timings)


def cmd_mine(args) -> int:
    [[cfg]], dataset, ds_record, t_load = _start(args, multi=False)
    if args.algorithm == "oracle":
        items, closed, cmax, capped, depth, timings = _run_oracle_algorithm(
            dataset, cfg)
    else:  # the sweep's runner at one grid point, keyed by node
        index, t_index = _index(dataset, cfg)
        [(_, tree, closed, cmax, (t_top, t_bot))] = _run_grid(
            dataset, [[cfg]], args.algorithm, index)
        del index  # free it before the records are built
        items = [(node, node.pattern, node.pi) for node in tree]
        capped, depth = tree.capped, tree.depth
        timings = {"index_s": t_index, "topdown_s": t_top, "bottomup_s": t_bot}
    # How many patterns name each one in their cmax set: its rcmax size.
    # The constricted members are exactly the keys.
    rcmax = (None if cmax is None
             else Counter(rep for reps in cmax.values() for rep in reps))
    counts = {"all": len(items),
              "closed": None if closed is None else len(closed),
              "csts": None if rcmax is None else len(rcmax)}
    listing = []
    for key, pattern, pi in items:
        summary = ((None, None, None) if cmax is None
                   else (key in rcmax, len(cmax[key]), rcmax[key]))
        listing.append(_pattern_record(
            dataset, pattern, pi, None if closed is None else key in closed,
            *summary))
    run_record = {**_point_record("run", cfg, counts, capped, depth),
                  "algorithm": args.algorithm,
                  "types": [t.label for t in dataset.types]}
    _finish(args, ds_record, [run_record, *listing])

    _say(f"algorithm={args.algorithm} theta={cfg.theta}"
         f"({args.theta_strictness}) epsilon={cfg.epsilon} "
         f"radius={args.radius} window={args.window} metric={args.metric}")
    _say("patterns: " + " ".join(
        f"{k}={v}" for k, v in counts.items() if v is not None)
        + f" depth={depth}" + (" (capped)" if capped else ""))
    phase_text = " ".join(f"{k.replace('_s', '')}={v:.3f}s"
                          for k, v in timings.items() if v is not None)
    _say(f"time: load={t_load:.3f}s {phase_text}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    grid, dataset, ds_record, t_load = _start(args, multi=True)
    # The index depends only on radius, window and metric: one for the grid.
    index, t_index = _index(dataset, grid[0][0])
    points = []  # (sweep_point record, config, (top s, bottom s)) per point
    for cfg, tree, closed, cmax, secs in _run_grid(dataset, grid, "csts", index):
        counts = {"all": len(tree), "closed": len(closed),
                  "csts": len(extract_csts(tree, cmax))}
        points.append((_point_record("sweep_point", cfg, counts, tree.capped,
                                     tree.depth), cfg, secs))
        del tree, closed, cmax  # so the runner can free them

    _finish(args, ds_record,
            [rec for rec, _, _ in points] + _ratio_series(points))

    _say(f"sweep: {len(grid)} theta x {len(grid[0])} epsilon points")
    _say(f"load: {t_load:.3f}s")
    _say(f"index: {t_index:.3f}s edges={index.edge_count}")
    _say("top(s): growth at the lowest theta, filtering its tree at the others")
    _say(f"{'theta':>8} {'epsilon':>8} {'all':>7} {'closed':>7} "
         f"{'csts':>7} {'top(s)':>8} {'bottom(s)':>9}")
    for rec, cfg, (t_top, t_bot) in points:
        c = rec["counts"]
        _say(f"{str(cfg.theta):>8} {str(cfg.epsilon):>8} {c['all']:>7} "
             f"{c['closed']:>7} {c['csts']:>7} {t_top:>8.3f} {t_bot:>9.3f}")
    return 0


def _ratio_series(points) -> list[dict]:
    """Percent-of-patterns-kept series: csts/all and csts/closed, once per
    epsilon (varying theta) and once per theta (varying epsilon)."""

    def series(axis, fixed_key, fixed_value, den):
        pts = sorted(((getattr(cfg, axis),
                       _ratio(rec["counts"]["csts"], rec["counts"][den]))
                      for rec, cfg, _ in points
                      if getattr(cfg, fixed_key) == fixed_value),
                     key=lambda pt: pt[0])
        out_points = [{axis: str(at), "value": _frac(value),
                       "percent": None if value is None else float(100 * value)}
                      for at, value in pts]
        return {
            "record": "series",
            "ratio": f"csts_over_{den}",
            "axis": axis,
            fixed_key: str(fixed_value),
            "points": out_points,
        }

    return [series(axis, fixed_key, fixed_value, den)
            for axis, fixed_key in (("theta", "epsilon"), ("epsilon", "theta"))
            for fixed_value in sorted({getattr(cfg, fixed_key)
                                       for _, cfg, _ in points})
            for den in ("all", "closed")]


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _fraction(text) -> Fraction:
    """A record's exact ratio. Records write them as "n/d" strings, so a
    number (a binary float, or a bool) is refused; building from two ints
    costs half of parsing the string."""
    if type(text) is not str:
        raise TypeError(f"ratio {text!r} is not an \"n/d\" string")
    num, _, den = text.partition("/")
    if num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
        return Fraction(int(num), int(den))
    return Fraction(text)


def _load_saved_csts(path) -> tuple[CstsSet, list[str], Optional[int]]:
    """Rebuild the queryable summary from a mine --algorithm csts (or
    oracle) record file. The third value is the run's depth when its
    search was capped there, else None. A file whose pattern records
    disagree with its run record's counts or types is refused."""
    run_record = None
    members: dict[tuple, Fraction] = {}
    parsed: dict[str, Fraction] = {}  # members share few distinct pis
    patterns = 0
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh.read().split("\n")
                     if line and not line.isspace()]
        # One json.loads for the whole file, each line in its own brackets:
        # a line holding two documents makes a pair, which the loop refuses,
        # and a document split over lines changes the count.
        records = json.loads("[[" + "],[".join(lines) + "]]")
        if len(records) != len(lines):
            raise ValueError(f"{len(records)} documents on {len(lines)} lines")
        for rec, in records:
            kind = rec.get("record")
            if kind == "pattern":
                patterns += 1
                csts = rec.get("csts")
                if csts is True:
                    text = rec["pi"]
                    value = parsed.get(text)
                    if value is None:
                        value = parsed[text] = _fraction(text)
                    members[tuple(rec["pattern"].split("->"))] = value
                elif csts is not False and csts is not None:
                    raise ValueError(f"csts {csts!r} is not true, false or null")
            elif kind == "run":
                run_record = rec
        if run_record is None:
            raise _CliError(f"{path} holds no run record (was it a sweep?)")
        counts = run_record["counts"]
        if counts.get("csts") is None:
            raise _CliError(
                f"{path} was mined with --algorithm {run_record['algorithm']}; "
                "query needs --algorithm csts or oracle output")
        if (len(members), patterns) != (counts["csts"], counts["all"]):
            raise ValueError(
                f"{len(members)} members and {patterns} patterns, but the run "
                f"counts {counts['csts']} and {counts['all']}")
        summary = CstsSet(members, _fraction(run_record["config"]["epsilon"]))
        labels = run_record.get("types", [])
        if not (isinstance(labels, list)
                and all(isinstance(label, str) for label in labels)):
            raise ValueError("the run record's types are not a list of labels")
        if not set(labels).issuperset(chain.from_iterable(members)):
            raise ValueError("a member names a type the run record does not list")
        capped = run_record["capped"]
        if type(capped) is not bool:
            raise ValueError(f"capped {capped!r} is not true or false")
        capped_at = run_record["depth"] if capped else None
        if not (capped_at is None or type(capped_at) is int):
            raise ValueError("the run record's depth is not a length")
        # A capped search stopped at its depth, so no member is longer.
        if capped_at is not None and capped_at < max(map(len, members), default=1):
            raise ValueError(f"the run was capped at depth {capped_at}, "
                             "below 1 or a member's length")
        return summary, labels, capped_at
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise _CliError(f"{path} is not a record file: {exc}") from exc


def cmd_query(args) -> int:
    summary, labels, capped_at = _load_saved_csts(args.source)
    by_label = {label: label for label in labels}
    try:
        queries = [parse_pattern(text, by_label) for text in args.patterns]
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    except KeyError as exc:
        raise _CliError(
            f"{exc.args[0]} (dataset types: {', '.join(labels)})") from exc
    for query in queries:
        print(_answer(query, approximate_pi(query, summary), len(summary),
                      capped_at))
    return 0


def _answer(query, est, members: int, capped_at: Optional[int]) -> str:
    name = "->".join(query)
    if capped_at is not None and len(query) > capped_at:
        # The search stopped at capped_at with patterns still passing, so
        # no member can say whether a longer pattern is strong.
        return (f"{name}: unknown: longer than the saved run's depth "
                f"{capped_at}, where the search was capped")
    if est is None:
        return (f"{name}: not PI-strong under the saved configuration "
                f"(no supersequence among {members} summary members)")
    if est.exact:
        return (f"{name}: PI-strong, exact pi {est.lower} "
                f"({float(est.lower)}) — member of the summary")
    return (f"{name}: PI-strong, pi in [{est.lower}, {est.upper}] "
            f"([{float(est.lower)}, {float(est.upper)}]) "
            f"via witness {'->'.join(est.witness)}")


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own usage message
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {"mine": cmd_mine, "sweep": cmd_sweep, "query": cmd_query}
    try:
        code = handlers[args.command](args)
        print(end="", flush=True)  # stdout, if open: a reader that left fails here
        return code
    except _CliError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        print(f"{_PROG}: error: cannot write stdout: {exc}", file=sys.stderr)
        return 2
    except OracleSizeError as exc:
        print(f"{_PROG}: oracle guard: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
