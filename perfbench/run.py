"""Benchmark for csts: mining, sweeping and querying on seeded workloads.

    python3 perfbench/run.py --workload dense-lattice --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. Each workload runs in this one process as a
closed loop (one caller, operations back to back, ``--threads`` left at its
default): rounds of ``csts mine``, ``csts sweep``, library
``approximate_pi`` calls on a summary built from the mined records, and
one-shot ``csts query`` calls, all through the public entry points. The
program only sees the CSV files generated from ``--seed``.

Every output is checked: the warm-up round against the independent
reference in ``reference.py``, every timed round for byte-identical
records and identical answers. The last stdout line is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from traced rounds (alternating with untraced ones, whose ratio
gives the tracing overhead); the traced run also writes its spans'
summary and per-level table to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import reference as ref  # noqa: E402
import selfcheck  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_ROUNDS = 3
KINDS = ("member", "interval", "miss")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    make: Callable[[int, str], gen.Inputs]
    radius: float
    window: float
    theta: str
    epsilon: str
    max_length: int
    sweep_thetas: list[str]
    sweep_epsilons: list[str]
    lib_queries: int        # per kind, per round
    cli_queries: int        # per kind, per round
    schema: str = "generic"
    metric: str = "euclidean"
    decimals: int = 2


def _generic(events_fn):
    def make(seed: int, workdir: str) -> gen.Inputs:
        events = events_fn(seed)
        path = os.path.join(workdir, "events.csv")
        gen.write_generic(events, path)
        return gen.Inputs(events, path)
    return make


# Sizes keep a round short enough for a 30 s run to hold 8 to 22 rounds,
# every lattice well below its max_length, and the dense lattice large
# enough that its size moves little with the seed; README.md gives the
# measurements behind each choice.
CRIME = gen.CrimeSpec(instances=6000, hotspots=8, hotspot_share=0.7,
                      hotspot_sigma_m=250.0, zipf=1.0, rejects_each=25)

WORKLOADS = {
    "sparse-mine": Workload(
        make=_generic(lambda s: gen.stratified_events(
            s, 6000, [1] * 6, 3000.0 * (6000 / 10_000) ** 0.5, 5000)),
        radius=145.0, window=360.0, theta="0.3", epsilon="0.25", max_length=8,
        sweep_thetas=["0.3"], sweep_epsilons=["0", "0.25"],
        lib_queries=30, cli_queries=2),
    "dense-lattice": Workload(
        make=_generic(lambda s: gen.stratified_events(
            s, 12_000, [5, 4, 3, 2, 1], 4400.0 * 2 ** 0.5, 5000)),
        radius=200.0, window=600.0, theta="0.3", epsilon="0.1", max_length=12,
        sweep_thetas=["0.3"], sweep_epsilons=["0", "0.05", "0.1", "0.2"],
        lib_queries=60, cli_queries=2),
    "crime-sweep": Workload(
        make=lambda s, d: gen.crime_inputs(s, CRIME, os.path.join(d, "crime.csv")),
        radius=500.0, window=4320.0, theta="0.08", epsilon="0.1", max_length=10,
        sweep_thetas=["0.08", "0.12"], sweep_epsilons=["0", "0.1", "0.2"],
        lib_queries=40, cli_queries=2, schema="boston", metric="geodesic",
        decimals=6),
}


# ---------------------------------------------------------------------------
# Talking to the program
# ---------------------------------------------------------------------------

def import_csts():
    """Import csts from this checkout's src/, dropping earlier copies so
    each set-up repetition pays for the import."""
    for name in [m for m in sys.modules if m == "csts" or m.startswith("csts.")]:
        del sys.modules[name]
    csts = importlib.import_module("csts")
    importlib.import_module("csts.cli")
    if os.path.dirname(os.path.abspath(csts.__file__)) != os.path.join(SRC, "csts"):
        raise SystemExit(f"csts imported from {csts.__file__}, not from {SRC}")
    return csts


def call_cli(csts, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = csts.cli.main(argv)
    if code != 0:
        return code, err.getvalue()
    return code, out.getvalue()


_EXACT = re.compile(r"^.*: PI-strong, exact pi (\S+) \(")
_INTERVAL = re.compile(r"^.*: PI-strong, pi in \[(\S+), (\S+)\] \(.*\) via witness (.*)$")


def parse_cli_answer(q: tuple, text: str):
    line = text.strip()
    if ": not PI-strong" in line:
        return None
    m = _EXACT.match(line)
    if m:
        v = Fraction(m.group(1))
        return (v, v, q, True)
    m = _INTERVAL.match(line)
    if m:
        return (Fraction(m.group(1)), Fraction(m.group(2)),
                tuple(m.group(3).split("->")), False)
    raise ValueError(f"unrecognised query output {line!r}")


def as_tuple(est) -> Optional[tuple]:
    if est is None:
        return None
    return (est.lower, est.upper, tuple(est.witness), est.exact)


def read_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def patterns_of(records: list[dict]) -> dict[tuple, dict]:
    return {tuple(r["pattern"].split("->")): r for r in records
            if r["record"] == "pattern"}


# ---------------------------------------------------------------------------
# One round of operations
# ---------------------------------------------------------------------------

@dataclass
class Round:
    # Operation times in reference-host seconds (hostspeed.py).
    mine_s: float = 0.0
    sweep_s: float = 0.0
    lib: list[float] = field(default_factory=list)
    cli: list[float] = field(default_factory=list)
    raw: dict[str, float] = field(default_factory=dict)  # unscaled seconds
    kernels: list[float] = field(default_factory=list)   # host-speed passes
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)  # by operation kind
    records: int = 0
    record_bytes: int = 0

    @property
    def op_seconds(self) -> float:
        return self.mine_s + self.sweep_s + sum(self.lib) + sum(self.cli)


class Runner:
    def __init__(self, csts, wl: Workload, inputs: gen.Inputs, workdir: str,
                 seed: int, tracer: Optional[Tracer]) -> None:
        self.csts, self.wl, self.inputs = csts, wl, inputs
        self.mine_out = os.path.join(workdir, "mine.jsonl")
        self.sweep_out = os.path.join(workdir, "sweep.jsonl")
        self.seed = seed
        self.tracer = tracer
        common = ["--input", inputs.path, "--schema", wl.schema,
                  "--radius", str(wl.radius), "--window", str(wl.window),
                  "--metric", wl.metric, "--max-length", str(wl.max_length)]
        self.mine_argv = ["mine", *common, "--theta", wl.theta,
                          "--epsilon", wl.epsilon, "--algorithm", "csts",
                          "--out", self.mine_out]
        self.sweep_argv = ["sweep", *common,
                           "--theta", ",".join(wl.sweep_thetas),
                           "--epsilon", ",".join(wl.sweep_epsilons),
                           "--out", self.sweep_out]
        # Filled by the warm-up round; timed rounds must reproduce them.
        self.mine_bytes = self.sweep_bytes = b""
        self.lib_queries: list[tuple] = []
        self.cli_queries: list[tuple] = []
        self.query_kind: dict[tuple, str] = {}
        self.lib_answers: list = []
        self.cli_answers: list = []

    def _cli(self, argv: list[str]) -> tuple[float, int, str]:
        if self.tracer is None or not self.tracer.active:
            t0 = time.perf_counter()
            code, text = call_cli(self.csts, argv)
            return time.perf_counter() - t0, code, text
        with self.tracer.span("cli.main") as idx:
            code, text = call_cli(self.csts, argv)
        return self.tracer.duration(idx), code, text

    def _summary(self):
        recs = read_records(self.mine_out)
        run = next(r for r in recs if r["record"] == "run")
        members = {p: Fraction(r["pi"]) for p, r in patterns_of(recs).items() if r["csts"]}
        return self.csts.CstsSet(members, Fraction(run["config"]["epsilon"]))

    def choose_queries(self) -> None:
        """Pick the query set from the warm-up records: summary members,
        strong non-members (answered by an interval) and pruned one-step
        extensions (not strong). The reference later confirms each kind."""
        pats = patterns_of(read_records(self.mine_out))
        labels = sorted({lab for p in pats for lab in p})
        pools = {
            "member": sorted(p for p, r in pats.items() if r["csts"]),
            "interval": sorted(p for p, r in pats.items() if not r["csts"]),
            "miss": sorted({p + (lab,) for p in pats for lab in labels
                            if len(p) < self.wl.max_length} - set(pats)),
        }
        rng = random.Random(self.seed * 1_000_003 + 17)
        want = self.wl.lib_queries + self.wl.cli_queries
        lib, cli = [], []
        for kind in KINDS:
            pool = pools[kind]
            if not pool:
                raise RuntimeError(f"no {kind} queries to pick: resize the workload")
            # Every seed gets the same count of each kind; a small pool is
            # repeated rather than letting the mix shift with the seed.
            picked = pool * (want // len(pool)) + rng.sample(pool, want % len(pool)) \
                if len(pool) < want else rng.sample(pool, want)
            rng.shuffle(picked)
            cli += picked[:self.wl.cli_queries]
            lib += picked[self.wl.cli_queries:]
            for q in picked:
                self.query_kind[q] = kind
        rng.shuffle(lib)
        self.lib_queries, self.cli_queries = lib, cli

    def _record_op(self, r: Round, kind: str, argv: list[str], path: str,
                   warm: bool) -> float:
        """Run mine or sweep; a timed round must rewrite the warm-up's
        record file byte for byte."""
        gc.collect()
        dt, code, text = self._cli(argv)
        if warm and code != 0:
            raise RuntimeError(f"{kind} exited {code}: {text.strip()}")
        data = b""
        if code == 0:
            with open(path, "rb") as fh:
                data = fh.read()
        if warm:
            setattr(self, f"{kind}_bytes", data)
        elif data != getattr(self, f"{kind}_bytes"):
            r.failed[kind] += 1
        r.attempted += 1
        r.records += data.count(b"\n")
        r.record_bytes += len(data)
        return dt

    def round(self, warm: bool = False) -> Round:
        """One round. Each timed step sits between two host-speed kernel
        passes, and its times are scaled by them."""
        r = Round()
        r.kernels.append(hostspeed.kernel_seconds())

        def scale(name: str, raw: float) -> float:
            r.kernels.append(hostspeed.kernel_seconds())
            r.raw[name] = raw
            return hostspeed.scale(r.kernels[-2], r.kernels[-1])

        dt = self._record_op(r, "mine", self.mine_argv, self.mine_out, warm)
        r.mine_s = dt * scale("mine_s", dt)
        if warm:
            self.choose_queries()
        dt = self._record_op(r, "sweep", self.sweep_argv, self.sweep_out, warm)
        r.sweep_s = dt * scale("sweep_s", dt)

        # Library queries against a summary built once per round.
        gc.collect()
        summary = self._summary()
        approx = self.csts.approximate_pi
        answers, lat = [], []
        perf = time.perf_counter
        for q in self.lib_queries:
            t0 = perf()
            est = approx(q, summary)
            lat.append(perf() - t0)
            answers.append(est)
        f = scale("lib_s", sum(lat))
        r.lib = [x * f for x in lat]
        answers = [as_tuple(a) for a in answers]
        r.attempted += len(answers)
        if warm:
            self.lib_answers = answers
        else:
            r.failed["lib"] += sum(a != b for a, b in zip(answers, self.lib_answers))

        # Cold one-shot CLI queries: each reloads the records.
        cli_answers, lat = [], []
        for q in self.cli_queries:
            dt, code, text = self._cli(["query", "--from", self.mine_out,
                                        "--pattern", "->".join(q)])
            lat.append(dt)
            try:
                cli_answers.append(parse_cli_answer(q, text) if code == 0 else ("exit", code))
            except ValueError as exc:
                cli_answers.append(("unparsed", str(exc)))
        f = scale("cli_s", sum(lat))
        r.cli = [x * f for x in lat]
        r.attempted += len(cli_answers)
        if warm:
            self.cli_answers = cli_answers
        else:
            r.failed["cli"] += sum(a != b for a, b in zip(cli_answers, self.cli_answers))
        return r

    # -- the full check of the warm-up outputs ----------------------------------

    def check(self) -> dict:
        """Check the warm-up outputs against the reference. Returns which
        operation kinds were wrong, with reasons, plus reference figures."""
        wl, events = self.wl, self.inputs.events
        params = ref.Params(wl.radius, wl.window, wl.metric == "geodesic", wl.decimals)
        nbrs = ref.neighbors(events, params)
        thetas = [Fraction(t) for t in [wl.theta, *wl.sweep_thetas]]
        lattice = ref.Lattice(events, nbrs, min(thetas), wl.max_length)
        faults: dict[str, list[str]] = {"mine": [], "sweep": [], "lib": [], "cli": []}
        sizing: list[str] = []
        if len(lattice.levels) >= wl.max_length:
            sizing.append(f"lattice reaches max_length {wl.max_length}; resize the workload")

        expected_ds = {
            "instances": len(events),
            "rows_read": len(events) + sum(self.inputs.planted_rejects.values()),
            "rejected": {k: self.inputs.planted_rejects.get(k, 0) for k in
                         ("missing_type", "missing_coordinates", "missing_time",
                          "unparseable", "filtered")},
        }

        def check_dataset(rec: dict, where: str) -> None:
            for key, want in expected_ds.items():
                if rec.get(key) != want:
                    faults[where].append(f"dataset {key}: {rec.get(key)} != {want}")

        # mine
        theta, eps = Fraction(wl.theta), Fraction(wl.epsilon)
        pis = lattice.at(theta)
        closed = ref.closed_set(pis)
        members = ref.csts_set(pis, eps)
        recs = read_records(self.mine_out)
        check_dataset(recs[0], "mine")
        run = next(r for r in recs if r["record"] == "run")
        got = patterns_of(recs)
        want_counts = {"all": len(pis), "closed": len(closed), "csts": len(members)}
        if run["counts"] != want_counts:
            faults["mine"].append(f"counts {run['counts']} != {want_counts}")
        depth = max(len(p) for p in pis)
        if run["capped"] or run["depth"] != depth:
            faults["mine"].append(f"depth {run['depth']} capped {run['capped']}, want {depth}")
        if {p: Fraction(r["pi"]) for p, r in got.items()} != pis:
            faults["mine"].append("pattern set or pis differ from the reference")
        if {p for p, r in got.items() if r["closed"]} != closed:
            faults["mine"].append("closed flags differ from the reference")
        if {p for p, r in got.items() if r["csts"]} != members:
            faults["mine"].append("summary differs from the constricted set")
        if not members <= closed:
            faults["mine"].append("summary is not a subset of the closed set")
        if not ref.covers(pis, {p for p, r in got.items() if r["csts"]}, eps):
            faults["mine"].append("a strong pattern has no member within epsilon")

        # sweep
        recs = read_records(self.sweep_out)
        check_dataset(recs[0], "sweep")
        points = [r for r in recs if r["record"] == "sweep_point"]
        grid = [(Fraction(t), Fraction(e)) for t in wl.sweep_thetas for e in wl.sweep_epsilons]
        if len(points) != len(grid):
            faults["sweep"].append(f"{len(points)} sweep points, want {len(grid)}")
        for pt, (t, e) in zip(points, grid):
            p_pis = lattice.at(t)
            p_closed = ref.closed_set(p_pis)
            want = {"all": len(p_pis), "closed": len(p_closed),
                    "csts": len(ref.csts_set(p_pis, e))}
            cfg = pt["config"]
            if (Fraction(cfg["theta"]), Fraction(cfg["epsilon"])) != (t, e):
                faults["sweep"].append(f"point order: got {cfg['theta']}/{cfg['epsilon']}")
            if pt["counts"] != want:
                faults["sweep"].append(f"theta {t} eps {e}: {pt['counts']} != {want}")
            if e == 0 and pt["counts"]["csts"] != pt["counts"]["closed"]:
                faults["sweep"].append(f"theta {t}: csts != closed at epsilon 0")
        n_series = sum(r["record"] == "series" for r in recs)
        if n_series != 2 * (len(wl.sweep_thetas) + len(wl.sweep_epsilons)):
            faults["sweep"].append(f"{n_series} series records")

        # queries
        for q, answer in zip(self.lib_queries, self.lib_answers):
            msg = ref.check_estimate(q, answer, pis, members, eps)
            if msg:
                faults["lib"].append(msg)
        for q, answer in zip(self.cli_queries, self.cli_answers):
            msg = ref.check_estimate(q, answer, pis, members, eps)
            if msg:
                faults["cli"].append(msg)
        # Each query must be of the kind it was picked as (the picks come
        # from the mine records, so only when those are right).
        for q, kind in ({} if faults["mine"] else self.query_kind).items():
            actual = "miss" if q not in pis else ("member" if q in members else "interval")
            if actual != kind:
                sizing.append(f"query {q} picked as {kind} is {actual}")

        shape = [len([p for p in lvl if p in pis]) for lvl in lattice.levels]
        return {"faults": faults, "sizing": sizing, "edges": lattice.edges,
                "shape": [n for n in shape if n], "members": len(members),
                "closed": len(closed)}


# ---------------------------------------------------------------------------
# Per-layer figures from a traced round
# ---------------------------------------------------------------------------

def _candidates(levels: list[list[tuple]], capped: bool) -> list[int]:
    """Candidates the prefix/suffix join generates for each level after the
    first, including the final level that comes back empty."""
    out = []
    for k, level in enumerate(levels, start=1):
        if k == len(levels) and capped:
            break
        if k == 1:
            out.append(len(level) ** 2)
            continue
        by_prefix: dict[tuple, int] = {}
        for p in level:
            by_prefix[p[:-1]] = by_prefix.get(p[:-1], 0) + 1
        out.append(sum(by_prefix.get(p[1:], 0) for p in level))
    return out


def layer_figures(tracer: Tracer, rnd: Round) -> tuple[dict, list]:
    """Per-layer figures of one traced round, plus a per-level table for
    each mine_all call (candidates, kept and seconds per level). Times are
    scaled to the reference host by the round's median kernel pass."""
    f = hostspeed.REFERENCE_S / statistics.median(rnd.kernels)
    total, own = ({k: v * f for k, v in d.items()} for d in tracer.totals())
    c = tracer.counts
    miss = tracer.missing
    fig: dict[str, float] = {}

    def put(name, value, needs=()):
        if not any(n in miss for n in needs):
            fig[name] = value

    put("ingestion.load_s", total.get("ingestion.load", 0.0), ["cli.load_generic"])
    put("ingestion.rows", c["ingestion.rows"], ["cli.load_generic"])
    un = "neighborhoods.NeighborhoodIndex.union_over"
    put("neighborhoods.union_s", total.get("neighborhoods.union_over", 0.0), [un])
    put("neighborhoods.union_calls", c["neighborhoods.union_calls"], [un])
    put("neighborhoods.sources", c["neighborhoods.sources"], [un])
    put("neighborhoods.support_out", c["neighborhoods.support_out"], [un])
    put("topdown.self_s", total.get("topdown.mine_all", 0.0)
        - total.get("neighborhoods.union_over", 0.0), ["cli.mine_all", un])
    per_tree = []
    if "cli.mine_all" not in miss:
        cands = kept = depth = 0
        for idx, tree in tracer.trees:
            levels = [[n.pattern for n in lvl] for lvl in tree.levels]
            per = _candidates(levels, tree.capped)
            cands += sum(per)
            kept += sum(len(lvl) for lvl in levels[1:])
            depth = max(depth, len(levels))
            seconds = {lvl: dt * f for parent, lvl, _, dt in tracer.levels if parent == idx}
            per_tree.append([
                {"level": k + 2, "candidates": n,
                 "kept": len(levels[k + 1]) if k + 1 < len(levels) else 0,
                 "seconds": seconds.get(k + 2)}
                for k, n in enumerate(per)])
        fig.update({"topdown.candidates": cands, "topdown.kept": kept,
                    "topdown.kept_ratio": kept / cands if cands else 0.0,
                    "topdown.depth": depth})
    bu = "bottomup.verify_supersequence"
    put("bottomup.closure_s", total.get("bottomup.closure", 0.0), ["cli.run_bottom_up"])
    put("bottomup.offers", c["bottomup.offers"], [bu])
    put("bottomup.visited", c["bottomup.visited"], [bu])
    put("bottomup.extract_s", total.get("bottomup.extract", 0.0), ["cli.extract_csts"])
    put("analysis.closed_s", total.get("analysis.closed", 0.0), ["cli.extract_closed"])
    put("analysis.summary_build_s", total.get("analysis.summary_build", 0.0), ["cli.CstsSet"])
    put("analysis.query_s", total.get("analysis.query", 0.0), ["cli.approximate_pi"])
    put("analysis.queries", c["analysis.queries"], ["cli.approximate_pi"])
    put("analysis.members_scanned", c["analysis.members_scanned"], ["analysis.CstsSet.patterns"])
    put("analysis.sort_calls", c["analysis.sort_calls"], ["analysis.CstsSet.patterns"])
    fig["cli.self_s"] = own.get("cli.main", 0.0)
    fig["cli.records"] = rnd.records
    fig["cli.record_bytes"] = rnd.record_bytes
    return fig, per_tree


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "csts", "__init__.py")):
        raise SystemExit(f"no csts package under {SRC}: run from the repository root")
    wl = WORKLOADS[name]
    workdir = os.path.join(HERE, ".work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(name, wl, seed, seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def _setup(wl: Workload, seed: int, workdir: str):
    """One set-up: import csts, generate the inputs and write them. Returns
    (reference-host seconds, raw seconds, csts, inputs)."""
    os.makedirs(workdir, exist_ok=True)
    before = hostspeed.kernel_seconds()
    t0 = time.perf_counter()
    csts = import_csts()
    inputs = wl.make(seed, workdir)
    dt = time.perf_counter() - t0
    return dt * hostspeed.scale(before, hostspeed.kernel_seconds()), dt, csts, inputs


def _run(name, wl, seed, seconds, traced, workdir) -> dict:
    # Set-up is repeated after every round, into a directory of its own, so
    # its median spans the whole run like the operations' medians do.
    dt, raw, csts, inputs = _setup(wl, seed, workdir)
    setup, setup_raw = [dt], [raw]
    spare = os.path.join(workdir, "setup")

    tracer = Tracer() if traced else None
    runner = Runner(csts, wl, inputs, workdir, seed, tracer)
    runner.round(warm=True)

    rounds: list[Round] = []
    traced_rounds: list[tuple[Round, dict]] = []
    first_trace = None
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(rounds) - len(traced_rounds) < MIN_ROUNDS
           or (traced and len(traced_rounds) < MIN_ROUNDS)):
        trace_this = traced and len(rounds) % 2 == 1
        if trace_this:
            tracer.reset()
            tracer.install(csts)
            try:
                rnd = runner.round()
            finally:
                tracer.uninstall()
            fig, per_level = layer_figures(tracer, rnd)
            traced_rounds.append((rnd, fig))
            if first_trace is None:
                total, own = tracer.totals()  # unscaled seconds
                first_trace = {"figures": fig, "mine_all_levels": per_level,
                               "spans": {k: {"total_s": total[k], "self_s": own[k]}
                                         for k in sorted(total)}}
            tracer.reset()
        else:
            rnd = runner.round()
        rounds.append(rnd)
        dt, raw, _, _ = _setup(wl, seed, spare)
        setup.append(dt)
        setup_raw.append(raw)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = runner.check()
    faults = report["faults"]
    # A wrong warm-up answer is repeated exactly by every round, so then
    # every operation of that kind failed.
    per_round = {"mine": 1, "sweep": 1, "lib": len(runner.lib_queries),
                 "cli": len(runner.cli_queries)}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(per_round[k] if faults[k] else r.failed[k]
                 for r in rounds for k in per_round)
    try:
        selfcheck_msgs = selfcheck.run(csts)
    except Exception as exc:  # a broken checker must not pass as correct
        selfcheck_msgs = [f"self-check raised {exc!r}"]
    correct = not report["sizing"] and not selfcheck_msgs

    plain = [r for r in rounds if all(r is not t for t, _ in traced_rounds)]
    lib_all = [x for r in plain for x in r.lib]
    cli_all = [x for r in plain for x in r.cli]
    kinds = [runner.query_kind[q] for q in runner.lib_queries]
    info = {
        "workload": name, "seed": seed, "rounds": len(plain),
        "instances": len(runner.inputs.events), "edges": report["edges"],
        "lattice_shape": report["shape"], "closed": report["closed"],
        "summary_members": report["members"],
        "query_mix": {k: kinds.count(k) for k in KINDS},
        "query_p99_us": (statistics.quantiles(lib_all, n=100)[98] * 1e6
                         if len(lib_all) >= 100 else None),
        "setup_runs_s": setup,
        "mine_runs_s": [r.mine_s for r in plain],
        "sweep_runs_s": [r.sweep_s for r in plain],
        "kernel_median_s": median([k for r in rounds for k in r.kernels]),
        "raw_medians_s": {"setup_s": median(setup_raw),
                          **{k: median([r.raw[k] for r in plain]) for k in plain[0].raw}},
        "faults": {k: v[:5] for k, v in faults.items() if v},
        "sizing": report["sizing"], "selfcheck": selfcheck_msgs,
    }
    if traced:
        figs = [f for _, f in traced_rounds]
        metrics = {k: {"value": statistics.median_low([f[k] for f in figs]),
                       "unit": _unit(k)} for k in figs[0]}
        ratio = (median([r.op_seconds for r, _ in traced_rounds])
                 / median([r.op_seconds for r in plain]))
        metrics["trace.overhead"] = {"value": ratio, "unit": "ratio"}
        metrics["neighborhoods.edges"] = {"value": report["edges"], "unit": "count"}
        info["trace_overhead"] = ratio
        info["missing_names"] = sorted(tracer.missing)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"trace-{name}-{seed}.json"), "w") as fh:
            json.dump({"info": info, "first_traced_round": first_trace,
                       "metrics": metrics}, fh, indent=1, default=str)
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "mine_s": {"value": median([r.mine_s for r in plain]), "unit": "s"},
            "sweep_s": {"value": median([r.sweep_s for r in plain]), "unit": "s"},
            "queries_per_s": {"value": median([len(r.lib) / sum(r.lib) for r in plain]),
                              "unit": "1/s"},
            "query_p50_us": {"value": median(lib_all) * 1e6, "unit": "us"},
            "cli_query_p50_ms": {"value": median(cli_all) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(info, default=str), file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_all(seed: int, seconds: float, traced: int) -> int:
    """Run each workload in its own process and print every metric."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:28s} {v['value']:14.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
