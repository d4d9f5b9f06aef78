"""Command-line interface: mine / sweep / query.

The machine contract is line-delimited JSON records written to --out (or
stdout): one ``dataset`` record, one ``run`` (or per-grid-point
``sweep_point``) record, ``pattern`` records sorted canonically, and for
sweeps the ratio ``series`` records. Records never contain wall-clock
numbers — timings go to the stderr summary — so identical inputs produce
byte-identical record streams on every run.

Exit codes: 0 success; 2 usage or data errors; 3 oracle size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Optional

from .analysis import CstsSet, approximate_pi, extract_closed
from .bottomup import extract_csts, run_bottom_up
from .ingestion import load_boston, load_generic, load_pittsburgh
from .model import EventDataset, MiningConfig, parse_pattern
from .neighborhoods import NeighborhoodIndex, build_index
from .oracle import (
    OracleSizeError,
    RandomSpec,
    generate_random,
    oracle_all_patterns,
    oracle_closed,
    oracle_cmax,
)
from .topdown import mine_all

_PROG = "csts"


class _CliError(Exception):
    """Data-level failure: message to stderr, exit 2."""


# ---------------------------------------------------------------------------
# Flag surface
# ---------------------------------------------------------------------------

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
    p_query.add_argument("--pattern", required=True,
                         help="event-type labels joined by '->'")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _parse_threshold_list(text: str, flag: str, multi: bool) -> list[str]:
    values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        raise _CliError(f"{flag} needs at least one value")
    if not multi and len(values) > 1:
        raise _CliError(f"mine takes a single {flag} value; use sweep for lists")
    return values


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
        dataset = generate_random(spec)
        record = {
            "record": "dataset",
            "source": f"synthetic(seed={spec.seed},types={spec.n_types},"
                      f"instances={spec.n_instances},area={spec.area},"
                      f"horizon={spec.horizon})",
            "instances": len(dataset.instances),
            "types": len(dataset.types),
            "rows_read": None,
            "rejected": None,
        }
        return dataset, record
    if not args.input:
        raise _CliError("give --input FILE or --synthetic SPEC")
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
    record = {
        "record": "dataset",
        "source": str(args.input),
        "instances": report.instances_kept,
        "types": report.types_found,
        "rows_read": report.rows_read,
        "rejected": report.rejection_breakdown(),
    }
    return dataset, record


def _config(args, theta: str, epsilon: str) -> MiningConfig:
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


def _ratios(counts: dict) -> dict:
    ratios = {}
    for den in ("all", "closed"):
        value = _ratio(counts["csts"], counts[den])
        ratios[f"csts_over_{den}"] = _frac(value)
        ratios[f"csts_over_{den}_decimal"] = _dec(value)
    return ratios


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


def _rcmax_sizes(cmax) -> Counter:
    """How many patterns name each pattern in their cmax set: its rcmax
    size. The constricted members are exactly the keys."""
    return Counter(rep for reps in cmax.values() for rep in reps)


def _write_records(path: Optional[str], records: list[dict]) -> None:
    text = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
                   for rec in records)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _index(dataset: EventDataset, cfg: MiningConfig):
    """(neighbor index, build seconds); no index for an empty dataset."""
    t0 = time.perf_counter()
    try:
        index = build_index(dataset, cfg) if dataset.instances else None
    except ValueError as exc:  # bad degrees
        raise _CliError(str(exc)) from exc
    return index, time.perf_counter() - t0


def _mine(dataset: EventDataset, cfg: MiningConfig,
          index: Optional[NeighborhoodIndex]):
    try:
        return mine_all(dataset, cfg, index=index)
    except ValueError as exc:  # unbounded theta=0 in ge mode
        raise _CliError(str(exc)) from exc


def _say(text: str) -> None:
    print(f"[{_PROG}] {text}", file=sys.stderr)


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

def _run_tree_algorithms(dataset, cfg, algorithm):
    """Returns (counts, capped, depth, pattern records, timings)."""
    index, t_index = _index(dataset, cfg)
    t0 = time.perf_counter()
    tree = _mine(dataset, cfg, index)
    timings = {"index_s": t_index, "topdown_s": time.perf_counter() - t0}
    counts = {"all": len(tree), "closed": None, "csts": None}

    closed_nodes = cmax = None
    if algorithm in ("closed", "csts"):
        closed_nodes = set(extract_closed(tree))
        counts["closed"] = len(closed_nodes)
    if algorithm == "csts":
        t1 = time.perf_counter()
        cmax = run_bottom_up(tree, cfg.epsilon)
        counts["csts"] = len(extract_csts(tree, cmax))
        rcmax = _rcmax_sizes(cmax)
        timings["bottomup_s"] = time.perf_counter() - t1

    listing = []
    for node in tree:
        closed = None if closed_nodes is None else node in closed_nodes
        summary = ((None, None, None) if cmax is None
                   else (node in rcmax, len(cmax[node]), rcmax[node]))
        listing.append(_pattern_record(dataset, node.pattern, node.pi,
                                       closed, *summary))
    return counts, tree.capped, tree.depth, listing, timings


def _run_oracle_algorithm(dataset, cfg):
    """Returns (counts, capped, depth, pattern records, timings)."""
    t0 = time.perf_counter()
    max_len = cfg.max_length if cfg.max_length is not None else 7
    try:
        universe = oracle_all_patterns(dataset, cfg, max_len=max_len)
    except OracleSizeError:
        raise
    except ValueError as exc:  # bad degrees
        raise _CliError(str(exc)) from exc
    closed = {p for p, _ in oracle_closed(universe)}
    cmax = oracle_cmax(universe, cfg.epsilon)
    rcmax = _rcmax_sizes(cmax)
    timings = {"oracle_s": time.perf_counter() - t0}
    listing = [_pattern_record(dataset, p, pi, p in closed, p in rcmax,
                               len(cmax[p]), rcmax[p])
               for p, pi in universe]
    counts = {"all": len(universe), "closed": len(closed), "csts": len(rcmax)}
    depth = max((len(p) for p, _ in universe), default=0)
    # Like MaxTree.capped: the search stopped at its length limit with
    # patterns still passing there, so longer ones may be missing.
    return counts, depth >= max_len, depth, listing, timings


def cmd_mine(args) -> int:
    theta = _parse_threshold_list(args.theta, "--theta", multi=False)[0]
    epsilon = _parse_threshold_list(args.epsilon, "--epsilon", multi=False)[0]
    t_load0 = time.perf_counter()
    dataset, ds_record = _load_dataset(args)
    t_load = time.perf_counter() - t_load0
    cfg = _config(args, theta, epsilon)

    if args.algorithm == "oracle":
        counts, capped, depth, listing, timings = _run_oracle_algorithm(dataset, cfg)
    else:
        counts, capped, depth, listing, timings = _run_tree_algorithms(
            dataset, cfg, args.algorithm)

    run_record = {
        "record": "run",
        "algorithm": args.algorithm,
        "config": _config_echo(cfg),
        "types": [t.label for t in dataset.types],
        "counts": counts,
        "ratios": _ratios(counts),
        "capped": capped,
        "depth": depth,
    }
    _write_records(args.out, [ds_record, run_record, *listing])

    _say(f"input={ds_record['source']} instances={ds_record['instances']} "
         f"types={ds_record['types']}")
    _say(f"algorithm={args.algorithm} theta={theta}"
         f"({args.theta_strictness}) epsilon={epsilon} "
         f"radius={args.radius} window={args.window} metric={args.metric}")
    _say("patterns: " + " ".join(
        f"{k}={v}" for k, v in counts.items() if v is not None)
        + f" depth={depth}" + (" (capped)" if capped else ""))
    phase_text = " ".join(f"{k.replace('_s', '')}={v:.3f}s"
                          for k, v in timings.items())
    _say(f"time: load={t_load:.3f}s {phase_text}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    thetas = _parse_threshold_list(args.theta, "--theta", multi=True)
    epsilons = _parse_threshold_list(args.epsilon, "--epsilon", multi=True)
    dataset, ds_record = _load_dataset(args)
    # The index depends only on radius, window and metric: one for the grid.
    index, t_index = _index(dataset, _config(args, thetas[0], epsilons[0]))

    points = []
    grid_records = []
    for theta in thetas:
        cfg = _config(args, theta, epsilons[0])
        t0 = time.perf_counter()
        tree = _mine(dataset, cfg, index)
        t_top = time.perf_counter() - t0
        closed_count = len(extract_closed(tree))
        for epsilon in epsilons:
            cfg_pt = _config(args, theta, epsilon)
            t1 = time.perf_counter()
            members = extract_csts(tree, run_bottom_up(tree, cfg_pt.epsilon))
            t_bot = time.perf_counter() - t1
            counts = {"all": len(tree), "closed": closed_count,
                      "csts": len(members)}
            points.append({
                "theta": cfg_pt.theta, "epsilon": cfg_pt.epsilon,
                "counts": counts, "t_top": t_top, "t_bot": t_bot,
            })
            grid_records.append({
                "record": "sweep_point",
                "config": _config_echo(cfg_pt),
                "counts": counts,
                "ratios": _ratios(counts),
                "capped": tree.capped,
                "depth": tree.depth,
            })

    _write_records(args.out, [ds_record, *grid_records, *_ratio_series(points)])

    _say(f"input={ds_record['source']} instances={ds_record['instances']} "
         f"types={ds_record['types']}")
    _say(f"sweep: {len(thetas)} theta x {len(epsilons)} epsilon points")
    _say(f"index: {t_index:.3f}s edges={0 if index is None else index.edge_count}")
    header = f"{'theta':>8} {'epsilon':>8} {'all':>7} {'closed':>7} " \
             f"{'csts':>7} {'top(s)':>8} {'bottom(s)':>9}"
    _say(header)
    for pt in points:
        c = pt["counts"]
        _say(f"{str(pt['theta']):>8} {str(pt['epsilon']):>8} {c['all']:>7} "
             f"{c['closed']:>7} {c['csts']:>7} {pt['t_top']:>8.3f} "
             f"{pt['t_bot']:>9.3f}")
    return 0


def _ratio_series(points) -> list[dict]:
    """Percent-of-patterns-kept series: csts/all and csts/closed, once per
    epsilon (varying theta) and once per theta (varying epsilon)."""

    def series(axis, fixed_key, fixed_value, den):
        pts = sorted((p for p in points if p[fixed_key] == fixed_value),
                     key=lambda p: p[axis])
        out_points = []
        for p in pts:
            value = _ratio(p["counts"]["csts"], p["counts"][den])
            out_points.append({
                axis: str(p[axis]),
                "value": _frac(value),
                "percent": None if value is None else float(100 * value),
            })
        return {
            "record": "series",
            "ratio": f"csts_over_{den}",
            "axis": axis,
            fixed_key: str(fixed_value),
            "points": out_points,
        }

    return [series(axis, fixed_key, fixed_value, den)
            for axis, fixed_key in (("theta", "epsilon"), ("epsilon", "theta"))
            for fixed_value in sorted({p[fixed_key] for p in points})
            for den in ("all", "closed")]


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _load_saved_csts(path) -> tuple[CstsSet, list[str]]:
    """Rebuild the queryable summary from a mine --algorithm csts (or
    oracle) record file."""
    run_record = None
    members: dict[tuple, Fraction] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("record") == "run":
                    run_record = rec
                elif rec.get("record") == "pattern" and rec.get("csts"):
                    members[tuple(rec["pattern"].split("->"))] = \
                        Fraction(rec["pi"])
        if run_record is None:
            raise _CliError(f"{path} holds no run record (was it a sweep?)")
        if run_record["counts"].get("csts") is None:
            raise _CliError(
                f"{path} was mined with --algorithm {run_record['algorithm']}; "
                "query needs --algorithm csts or oracle output")
        summary = CstsSet(members, Fraction(run_record["config"]["epsilon"]))
        labels = run_record.get("types", [])
        if not (isinstance(labels, list)
                and all(isinstance(label, str) for label in labels)):
            raise ValueError("the run record's types are not a list of labels")
        return summary, labels
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"{path} is not a record file: {exc}") from exc


def cmd_query(args) -> int:
    summary, labels = _load_saved_csts(args.source)
    try:
        query = parse_pattern(args.pattern, {label: label for label in labels})
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    except KeyError as exc:
        raise _CliError(
            f"{exc.args[0]} (dataset types: {', '.join(labels)})") from exc
    est = approximate_pi(query, summary)
    name = "->".join(query)
    if est is None:
        print(f"{name}: not PI-strong under the saved configuration "
              f"(no supersequence among {len(summary)} summary members)")
        return 0
    if est.exact:
        print(f"{name}: PI-strong, exact pi {est.lower} "
              f"({float(est.lower)}) — member of the summary")
    else:
        print(f"{name}: PI-strong, pi in [{est.lower}, {est.upper}] "
              f"([{float(est.lower)}, {float(est.upper)}]) "
              f"via witness {'->'.join(est.witness)}")
    return 0


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
        return handlers[args.command](args)
    except _CliError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 2
    except OracleSizeError as exc:
        print(f"{_PROG}: oracle guard: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
