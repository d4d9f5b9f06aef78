"""End-to-end checks of the command-line interface.

Everything runs in-process through ``csts.cli.main`` so the suite stays
fast; a few subprocess tests run the console script itself.
"""

import contextlib
import gc
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from csts.cli import main
from csts.ingestion import EXAMPLE_EVENTS_FILE

FIXTURE = str(EXAMPLE_EVENTS_FILE)

BASE = ["mine", "--input", FIXTURE, "--radius", "10", "--window", "20"]

# Record streams committed byte for byte under tests/data/streams/, with
# the dataset record's source reduced to the file name: the bundled
# example's, and one per portal layout over a small export in tests/data/
# that holds every rejection reason and some rows with two faults.
DATA = Path(__file__).parent / "data"
STREAMS = DATA / "streams"
PORTAL_ARGV = ["--metric", "geodesic", "--radius", "300", "--window", "120",
               "--theta", "0.2", "--epsilon", "0.25"]
STREAM_ARGV = {
    **{f"mine-{schema}": ["mine", "--input", str(DATA / f"{schema}-small.csv"),
                          "--schema", schema] + PORTAL_ARGV
       for schema in ("boston", "pittsburgh")},
    **{f"mine-{alg}": BASE + ["--theta", "0.2", "--epsilon", "0.25",
                              "--algorithm", alg]
       for alg in ("all", "closed", "csts", "oracle")},
    "sweep": ["sweep", "--input", FIXTURE, "--radius", "10", "--window", "20",
              "--theta", "0,0.2,0.4", "--epsilon", "0,0.1,0.25"],
    # capped at thetas 0 and 1/5; at 2/5 length 3 is reached uncapped.
    "sweep-capped": ["sweep", "--input", FIXTURE, "--radius", "10",
                     "--window", "20", "--theta", "0,0.2,0.4",
                     "--epsilon", "0,0.25", "--max-length", "3"],
}


@pytest.fixture
def pipeline_calls(monkeypatch):
    """The names of the load, index, growth, closed-set and closure calls
    made through csts.cli, in call order."""
    import csts.cli
    calls = []

    def counting(name):
        real = getattr(csts.cli, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("load_generic", "NeighborhoodIndex", "mine_all",
                 "extract_closed", "run_bottom_up"):
        monkeypatch.setattr(csts.cli, name, counting(name))
    return calls


def run_records(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


def patterns_of(records):
    return [r for r in records if r["record"] == "pattern"]


def run_of(records):
    (rec,) = [r for r in records if r["record"] == "run"]
    return rec


# tests/data/streams/query.txt holds one `csts query` run per source, in
# this order, over golden_query_patterns().
QUERY_SOURCES = ("mine-csts", "mine-oracle")


def golden_query_patterns() -> list[str]:
    """Every pattern of the example tree, then every one-step extension at
    either end that is not listed yet."""
    lines = (STREAMS / "mine-all.jsonl").read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    tree = [rec["pattern"] for rec in recs if rec["record"] == "pattern"]
    labels = run_of(recs)["types"]
    listed = dict.fromkeys(tree)
    for pattern in tree:
        for label in labels:
            listed.setdefault(f"{label}->{pattern}")
            listed.setdefault(f"{pattern}->{label}")
    return list(listed)


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

class TestMine:
    @pytest.mark.parametrize("algorithm, phases", [
        ("all", ["mine_all"]),
        ("closed", ["mine_all", "extract_closed"]),
        ("csts", ["mine_all", "extract_closed", "run_bottom_up"]),
    ])
    def test_each_algorithm_runs_only_its_phases(self, tmp_path, pipeline_calls,
                                                 algorithm, phases):
        run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--epsilon", "0.25", "--algorithm", algorithm])
        assert pipeline_calls == ["load_generic", "NeighborhoodIndex", *phases]

    def test_csts_run_counts_and_ratios(self, tmp_path):
        recs = run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--epsilon", "0.25", "--algorithm", "csts"])
        run = run_of(recs)
        assert run["counts"] == {"all": 26, "closed": 14, "csts": 8}
        assert run["ratios"]["csts_over_all"] == "4/13"
        assert run["ratios"]["csts_over_closed"] == "4/7"
        assert run["depth"] == 6 and run["capped"] is False
        assert run["types"] == ["A", "B", "C", "D", "E"]
        assert run["config"]["theta"] == "1/5"
        assert run["config"]["epsilon"] == "1/4"
        assert run["config"]["theta_strictness"] == "gt"

    def test_pattern_records_complete_and_sorted(self, tmp_path):
        recs = run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--epsilon", "0.25", "--algorithm", "csts"])
        pats = patterns_of(recs)
        assert len(pats) == 26
        keys = [(r["length"], tuple(r["pattern"].split("->"))) for r in pats]
        assert keys == sorted(keys)
        by_name = {r["pattern"]: r for r in pats}
        bbd = by_name["B->B->D"]
        assert bbd["pi"] == "1/3" and bbd["pi_decimal"] == pytest.approx(1 / 3)
        assert by_name["A->B->C"]["pi"] == "3/8"
        assert by_name["C->E"]["pi"] == "4/5"
        full = by_name["A->B->B->C->E->C"]
        assert full["pi"] == "1/4" and full["csts"] is True
        # every member of its own cmax once self-augmented
        assert full["cmax_size"] == 1 and full["rcmax_size"] >= 1
        members = {r["pattern"] for r in pats if r["csts"]}
        assert members == {"A", "B->D", "C->E", "A->B->D", "B->B->D",
                           "B->B->C->E", "A->B->C->E->C", "A->B->B->C->E->C"}

    def test_dataset_record_row_accounting(self, tmp_path):
        recs = run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--algorithm", "all"])
        (ds,) = [r for r in recs if r["record"] == "dataset"]
        assert ds["rows_read"] == ds["instances"] + sum(ds["rejected"].values())
        assert ds["instances"] == 61 and ds["types"] == 5

    def test_algorithm_all_leaves_closure_fields_null(self, tmp_path):
        recs = run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--algorithm", "all"])
        run = run_of(recs)
        assert run["counts"] == {"all": 26, "closed": None, "csts": None}
        assert run["ratios"]["csts_over_all"] is None
        for rec in patterns_of(recs):
            assert rec["closed"] is None and rec["csts"] is None
            assert rec["cmax_size"] is None and rec["rcmax_size"] is None

    def test_algorithm_closed_flags_without_csts(self, tmp_path):
        recs = run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--algorithm", "closed"])
        run = run_of(recs)
        assert run["counts"]["closed"] == 14 and run["counts"]["csts"] is None
        closed = {r["pattern"] for r in patterns_of(recs) if r["closed"]}
        assert "B->B" in closed and "B->C->E" not in closed
        assert all(r["csts"] is None for r in patterns_of(recs))

    @pytest.mark.parametrize("limit", [[], ["--max-length", "6"]],
                             ids=["no-max-length", "max-length-6"])
    def test_oracle_mode_matches_tree_mode_record_for_record(
            self, tmp_path, capsys, limit):
        # At --max-length 6 the example's deepest patterns sit at the limit
        # and none one longer passes, so neither run is capped.
        args = ["--theta", "0.2", "--epsilon", "0.25", *limit]
        tree = run_records(tmp_path, "t.jsonl",
                           BASE + args + ["--algorithm", "csts"])
        oracle = run_records(tmp_path, "o.jsonl",
                             BASE + args + ["--algorithm", "oracle"])
        assert patterns_of(tree) == patterns_of(oracle)
        tree_run, oracle_run = run_of(tree), run_of(oracle)
        assert tree_run.pop("algorithm") == "csts"
        assert oracle_run.pop("algorithm") == "oracle"
        assert tree_run == oracle_run
        assert oracle_run["capped"] is False and oracle_run["depth"] == 6
        capsys.readouterr()
        assert main(["query", "--from", str(tmp_path / "o.jsonl"),
                     "--pattern", "B->B->C->E->E->E->E"]) == 0
        assert capsys.readouterr().out.startswith(
            "B->B->C->E->E->E->E: not PI-strong under the saved configuration")

    def test_records_to_stdout_summary_to_stderr(self, capsys):
        assert main(BASE + ["--theta", "0.2", "--algorithm", "all"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in
                   captured.out.strip().splitlines()]
        assert {r["record"] for r in records} == {"dataset", "run", "pattern"}
        assert "time:" in captured.err and "index=" in captured.err
        assert "topdown=" not in captured.out and "load=" not in captured.out
        assert "index=" not in captured.out

    def test_synthetic_input(self, tmp_path):
        recs = run_records(tmp_path, "syn.jsonl", [
            "mine", "--synthetic", "4,60", "--seed", "3",
            "--radius", "25", "--window", "60",
            "--theta", "0.25", "--epsilon", "0.1", "--algorithm", "csts"])
        (ds,) = [r for r in recs if r["record"] == "dataset"]
        assert ds["instances"] == 60 and ds["rows_read"] is None
        run = run_of(recs)
        assert run["counts"]["all"] > 0
        assert run["counts"]["csts"] <= run["counts"]["closed"]

    def test_max_length_reports_capped(self, tmp_path):
        recs = run_records(tmp_path, "cap.jsonl", BASE + [
            "--theta", "0", "--theta-strictness", "ge",
            "--max-length", "3", "--algorithm", "all"])
        run = run_of(recs)
        assert run["capped"] is True and run["depth"] == 3

    def test_oracle_reports_cap(self, tmp_path):
        # A 40-instance one-type chain, each step one meter and one minute
        # on: every length passes, so the oracle stops at its default
        # length limit of 7 and must say so.
        chain = tmp_path / "chain.csv"
        chain.write_text("type,x,y,time_minutes\n" + "".join(
            f"A,{i},0,{i}\n" for i in range(40)))
        recs = run_records(tmp_path, "o.jsonl", [
            "mine", "--input", str(chain), "--radius", "1", "--window", "1",
            "--theta", "0.5", "--algorithm", "oracle"])
        run = run_of(recs)
        assert run["depth"] == 7 and run["capped"] is True

    def test_pattern_separator_label_rows_rejected(self, tmp_path, capsys):
        data = tmp_path / "arrow.csv"
        data.write_text("type,x,y,time_minutes\n"
                        "A->B,0,0,0\nC,0,0,1\nA->B,5,5,10\nC,5,5,11\n")
        saved = tmp_path / "arrow.jsonl"
        recs = run_records(tmp_path, saved.name, [
            "mine", "--input", str(data), "--radius", "10", "--window", "5",
            "--algorithm", "csts"])
        (ds,) = [r for r in recs if r["record"] == "dataset"]
        assert ds["rows_read"] == 4 and ds["rejected"]["unparseable"] == 2
        assert run_of(recs)["types"] == ["C"]
        assert [r["pattern"] for r in patterns_of(recs)] == ["C"]
        assert main(["query", "--from", str(saved),
                     "--pattern", "C"]) == 0
        assert "exact pi 1" in capsys.readouterr().out

    @pytest.mark.parametrize("schema,stamp", [
        ("boston", "2014-06-15 13:05:00+00:00"),
        ("boston", "2014-06-15 13:05:00+00"),
        ("pittsburgh", "2017-06-15T13:05:00Z"),
        ("pittsburgh", "2017-06-15T13:05:00+00:00"),
    ], ids=["boston-plus-hh-mm", "boston-plus-hh", "pittsburgh-z",
            "pittsburgh-plus-hh-mm"])
    def test_offset_timestamp_rows_unparseable(self, tmp_path, schema, stamp):
        # The loaders count minutes from a naive local epoch, which an
        # offset-bearing stamp cannot be placed against.
        data = tmp_path / "portal.csv"
        if schema == "boston":
            data.write_text(
                "INCIDENT_NUMBER,OFFENSE_CODE_GROUP,OCCURRED_ON_DATE,Lat,Long\n"
                "I1,Arson,2014-06-15 13:00:00,42.35,-71.06\n"
                f"I2,Arson,{stamp},42.35,-71.06\n"
                "I3,Arson,2014-06-15 13:10:00,42.35,-71.06\n")
        else:
            data.write_text(
                "PK,INCIDENTTIME,INCIDENTHIERARCHYDESC,X,Y\n"
                "1,2017-06-15T13:00:00,THEFT,-79.99,40.44\n"
                f"2,{stamp},THEFT,-79.99,40.44\n"
                "3,2017-06-15T13:10:00,THEFT,-79.99,40.44\n")
        recs = run_records(tmp_path, "portal.jsonl", [
            "mine", "--input", str(data), "--schema", schema,
            "--radius", "500", "--window", "60", "--metric", "geodesic"])
        (ds,) = [r for r in recs if r["record"] == "dataset"]
        assert ds["rows_read"] == ds["instances"] + sum(ds["rejected"].values())
        assert ds["rows_read"] == 3 and ds["rejected"]["unparseable"] == 1

    def test_geodesic_metric_accepted(self, tmp_path, capsys):
        # The default synthetic area spans 0..100, past latitude 90, so
        # the geodesic run needs the smaller area to be valid degrees.
        argv = ["mine", "--seed", "1", "--radius", "200000", "--window", "120",
                "--metric", "geodesic", "--theta", "0.1", "--algorithm", "all"]
        recs = run_records(tmp_path, "geo.jsonl",
                           argv + ["--synthetic", "3,30,80,300"])
        assert run_of(recs)["config"]["metric"] == "geodesic"
        assert main(argv + ["--synthetic", "3,30"]) == 2
        assert "degrees" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        argv = BASE + ["--theta", "0.2", "--epsilon", "0.25",
                       "--algorithm", "csts"]
        blobs = []
        for name in ("a.jsonl", "b.jsonl", "c.jsonl"):
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("name", sorted(STREAM_ARGV))
    def test_example_stream_matches_committed_bytes(self, tmp_path, name):
        argv = STREAM_ARGV[name]
        source = argv[argv.index("--input") + 1]
        out = tmp_path / "out.jsonl"
        assert main(argv + ["--out", str(out)]) == 0
        first, rest = out.read_bytes().split(b"\n", 1)
        dataset = json.loads(first)
        assert dataset["record"] == "dataset" and dataset["source"] == source
        dataset["source"] = Path(source).name
        got = json.dumps(dataset, sort_keys=True,
                         separators=(",", ":")).encode() + b"\n" + rest
        assert got == (STREAMS / f"{name}.jsonl").read_bytes()

    def test_geodesic_synthetic_stream_matches_pinned_hash(self, tmp_path):
        # Geodesic distances and multi-type supports down to depth 10: 1,924
        # patterns, 310,975 bytes.
        out = tmp_path / "geo.jsonl"
        assert main(["mine", "--synthetic", "4,400,0.05,2000", "--seed", "2",
                     "--metric", "geodesic", "--radius", "800", "--window", "300",
                     "--theta", "0.1", "--epsilon", "0.1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GEODESIC_SHA256

    @pytest.mark.parametrize("command", ["mine", "sweep"])
    def test_dense_synthetic_stream_matches_pinned_hash(self, tmp_path, command):
        thresholds, digest = DENSE_SHA256[command]
        out = tmp_path / "dense.jsonl"
        assert main([command] + DENSE_ARGV + thresholds + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_no_timing_keys_in_records(self, tmp_path):
        recs = run_records(tmp_path, "run.jsonl", BASE + [
            "--theta", "0.2", "--epsilon", "0.25", "--algorithm", "csts"])
        recs += run_records(tmp_path, "sweep.jsonl", STREAM_ARGV["sweep"])
        text = json.dumps(recs)
        assert "_s\"" not in text and "seconds" not in text
        assert "threads" not in text
        assert "index" not in text and "edges" not in text
        assert "load=" not in text and "load: " not in text


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class TestSweep:
    def test_grid_and_series(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--input", FIXTURE,
                     "--radius", "10", "--window", "20",
                     "--theta", "0,0.2,0.4", "--epsilon", "0,0.25",
                     "--out", str(out)])
        assert code == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        points = [r for r in recs if r["record"] == "sweep_point"]
        series = [r for r in recs if r["record"] == "series"]
        assert len(points) == 6
        # margin zero collapses the summary onto the closed set
        for pt in points:
            if pt["config"]["epsilon"] == "0":
                assert pt["counts"]["csts"] == pt["counts"]["closed"]
        by_cfg = {(p["config"]["theta"], p["config"]["epsilon"]): p["counts"]
                  for p in points}
        assert by_cfg[("1/5", "1/4")] == {"all": 26, "closed": 14, "csts": 8}
        assert by_cfg[("2/5", "1/4")]["all"] == 13
        # two ratios x (two epsilons + three thetas)
        assert len(series) == 10
        assert {s["ratio"] for s in series} == {"csts_over_all",
                                                "csts_over_closed"}
        theta_series = [s for s in series if s["axis"] == "theta"]
        assert all(len(s["points"]) == 3 for s in theta_series)
        sample = theta_series[0]["points"][0]
        assert set(sample) == {"theta", "value", "percent"}

    def test_larger_theta_never_grows_counts(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        assert main(["sweep", "--input", FIXTURE,
                     "--radius", "10", "--window", "20",
                     "--theta", "0,0.1,0.25,0.5", "--epsilon", "0.25",
                     "--out", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        points = [r for r in recs if r["record"] == "sweep_point"]
        alls = [p["counts"]["all"] for p in points]
        assert alls == sorted(alls, reverse=True)

    def test_grows_and_finds_the_closed_set_once(self, tmp_path, pipeline_calls):
        run_records(tmp_path, "sweep.jsonl", [
            "sweep", "--input", FIXTURE, "--radius", "10", "--window", "20",
            "--theta", "0.2,0,0.4", "--epsilon", "0,0.25"])
        assert pipeline_calls == ["load_generic", "NeighborhoodIndex", "mine_all",
                                  "extract_closed"] + ["run_bottom_up"] * 6

    def test_holds_one_tree_at_a_time(self, monkeypatch, tmp_path):
        # One tree grows, at the lowest theta, and every point's closure runs
        # on it or on a filter of it. With the cyclic collector off, each
        # filtered tree must be freed by reference counting before the next.
        import csts.cli
        real_mine, real_closure = csts.cli.mine_all, csts.cli.run_bottom_up
        thetas, grown, trees, live = [], set(), [], []

        def mine_all(dataset, cfg, **kwargs):
            thetas.append(cfg.theta)
            tree = real_mine(dataset, cfg, **kwargs)
            grown.update(map(id, tree))
            trees.append(weakref.ref(tree))
            return tree

        def run_bottom_up(tree, eps):
            assert grown.issuperset(map(id, tree))
            if all(ref() is not tree for ref in trees):
                trees.append(weakref.ref(tree))
            live.append(sum(ref() is not None for ref in trees))
            return real_closure(tree, eps)

        monkeypatch.setattr(csts.cli, "mine_all", mine_all)
        monkeypatch.setattr(csts.cli, "run_bottom_up", run_bottom_up)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(["sweep", "--input", FIXTURE, "--radius", "10",
                         "--window", "20", "--theta", "0.2,0,0.4",
                         "--epsilon", "0,0.25",
                         "--out", str(tmp_path / "sweep.jsonl")]) == 0
        finally:
            if enabled:
                gc.enable()
        assert thetas == [0]
        # The grown tree, plus theta 1/5's and then 2/5's filtered tree.
        assert live == [2, 2, 1, 1, 2, 2] and len(trees) == 3
        assert all(ref() is None for ref in trees)

    @pytest.mark.parametrize("max_length,probes", [("3", 2), (None, 0)])
    def test_probes_only_thetas_whose_tree_reaches_the_cap(
            self, monkeypatch, tmp_path, max_length, probes):
        # Capped at length 3 from theta 0, the example's filtered trees reach
        # that length at thetas 1/5 and 2/5 but not at 1/2, so only those two
        # look past it. An uncapped tree has nothing past it to look at.
        import csts.cli
        import csts.topdown
        real_mine, real_children = csts.cli.mine_all, csts.topdown._children
        growing, outside = [], []

        def mine_all(*args, **kwargs):
            growing.append(True)
            try:
                return real_mine(*args, **kwargs)
            finally:
                growing.pop()

        def children(*args):
            if not growing:
                outside.append(args[2].theta)
            return real_children(*args)

        monkeypatch.setattr(csts.cli, "mine_all", mine_all)
        monkeypatch.setattr(csts.topdown, "_children", children)
        argv = ["sweep", "--input", FIXTURE, "--radius", "10", "--window",
                "20", "--theta", "0.5,0,0.2,0.4", "--epsilon", "0",
                "--out", str(tmp_path / "sweep.jsonl")]
        assert main(argv + (["--max-length", max_length] if max_length
                            else [])) == 0
        assert len(outside) == probes
        assert set(outside) <= {Fraction(1, 5), Fraction(2, 5)}

    @pytest.mark.parametrize("strictness", ["gt", "ge"])
    @pytest.mark.parametrize("source,max_length", [
        (["--input", FIXTURE, "--radius", "10", "--window", "20"], "3"),
        (["--input", FIXTURE, "--radius", "10", "--window", "20"], "4"),
        (["--input", FIXTURE, "--radius", "10", "--window", "20"], None),
        *((["--synthetic", "4,300,400,300", "--seed", seed, "--radius", "60",
            "--window", "60"], max_length)
          for seed in ("1", "2") for max_length in ("2", "3")),
    ], ids=["example-3", "example-4", "example", "seed1-2", "seed1-3",
            "seed2-2", "seed2-3"])
    def test_points_match_mine_runs(self, tmp_path, source, max_length,
                                    strictness):
        # Every theta but the lowest is filtered from the lowest theta's
        # tree, so each point must still say what mining it alone says.
        common = [*source, "--theta-strictness", strictness]
        if max_length is not None:
            common += ["--max-length", max_length]
        thetas, epsilons = ["0.3", "0.1", "0.45"], ["0", "0.25"]
        points = [r for r in run_records(tmp_path, "sweep.jsonl", [
            "sweep", *common, "--theta", ",".join(thetas),
            "--epsilon", ",".join(epsilons)]) if r["record"] == "sweep_point"]
        assert len(points) == len(thetas) * len(epsilons)
        for point, (theta, epsilon) in zip(points, [
                (t, e) for t in thetas for e in epsilons]):
            run = run_of(run_records(tmp_path, "run.jsonl", [
                "mine", *common, "--theta", theta, "--epsilon", epsilon,
                "--algorithm", "csts"]))
            assert point["config"] == run["config"]
            for key in ("counts", "capped", "depth"):
                assert point[key] == run[key], (theta, epsilon, key)

    def test_index_built_once_and_reported_on_stderr(self, monkeypatch, capsys):
        # mine_all would build its own index through csts.topdown if the
        # sweep did not pass one, so both names are counted.
        import csts.cli
        import csts.topdown
        built = []
        real = csts.topdown.NeighborhoodIndex

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(csts.cli, "NeighborhoodIndex", counting)
        monkeypatch.setattr(csts.topdown, "NeighborhoodIndex", counting)
        assert main(["sweep", "--input", FIXTURE, "--radius", "10",
                     "--window", "20", "--theta", "0,0.2",
                     "--epsilon", "0,0.25"]) == 0
        assert len(built) == 1
        captured = capsys.readouterr()
        assert "index: " in captured.err and "edges=90" in captured.err
        assert "load: " in captured.err
        assert "index" not in captured.out and "edges" not in captured.out
        assert "load: " not in captured.out

    @pytest.mark.parametrize("theta,epsilon", [
        ("0.2", "0.1,1.5"),
        ("0.2,1.5", "0.1"),
    ])
    def test_bad_threshold_fails_before_loading(self, tmp_path, pipeline_calls,
                                                capsys, theta, epsilon):
        # Every grid point's range check runs before the data is read, so
        # a bad later value costs no index build and no mining run.
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--input", FIXTURE,
                     "--radius", "10", "--window", "20",
                     "--theta", theta, "--epsilon", epsilon, "--out", str(out)])
        assert code == 2
        assert pipeline_calls == []
        assert "must lie in" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theta,epsilon,flag", [
        ("0.2,0.20", "0.25", "--theta"),
        ("0,1/5,0.2", "0.25", "--theta"),
        ("0.2", "0.25,0,1/4", "--epsilon"),
    ])
    def test_duplicate_threshold_is_usage_error(self, tmp_path, capsys,
                                                theta, epsilon, flag):
        out = tmp_path / "sweep.jsonl"
        code = main(["sweep", "--input", FIXTURE,
                     "--radius", "10", "--window", "20",
                     "--theta", theta, "--epsilon", epsilon, "--out", str(out)])
        assert code == 2
        assert f"{flag} lists" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_theta_list_is_usage_error(self, capsys):
        code = main(["sweep", "--input", FIXTURE,
                     "--radius", "10", "--window", "20",
                     "--theta", "", "--epsilon", "0.25"])
        assert code == 2
        assert "--theta" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the mining path reads the dataset's columns
# ---------------------------------------------------------------------------

BOSTON_HEADER = "INCIDENT_NUMBER,OFFENSE_CODE_GROUP,OCCURRED_ON_DATE,Lat,Long\n"


def _boston_chain_file(tmp_path):
    """Four days of Arson, then Burglary, then Robbery ten minutes apart at
    one corner, plus a row of each reject kind."""
    rows = [f"I{day}{k},{label},2014-03-0{day} 10:{10 * k:02d}:00,42.35,-71.06"
            for day in range(1, 5)
            for k, label in enumerate(["Arson", "Burglary", "Robbery"])]
    rows += ["R1,,2014-03-01 10:00:00,42.35,-71.06",        # missing type
             "R2,Arson,2013-03-01 10:00:00,42.35,-71.06",   # filtered
             "R3,Arson,2014-03-01 10:00:00,95,-71.06"]      # unparseable
    path = tmp_path / "boston.csv"
    path.write_text(BOSTON_HEADER + "\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def instance_inits(monkeypatch):
    """The idx of every EventInstance built while the fixture is active."""
    from csts.model import EventInstance
    built = []
    real = EventInstance.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self.idx)

    monkeypatch.setattr(EventInstance, "__init__", counting)
    return built


@pytest.mark.parametrize("command", ["mine", "sweep"])
@pytest.mark.parametrize("source", ["example", "boston"])
def test_mining_path_builds_no_event_instance(tmp_path, capsys, instance_inits,
                                              source, command):
    if source == "example":
        data = ["--input", FIXTURE, "--radius", "10", "--window", "20"]
    else:
        data = ["--input", str(_boston_chain_file(tmp_path)), "--schema", "boston",
                "--metric", "geodesic", "--radius", "100", "--window", "30"]
    thresholds = {"mine": ["--theta", "0.2", "--epsilon", "0.25", "--algorithm", "csts"],
                  "sweep": ["--theta", "0,0.2", "--epsilon", "0,0.25"]}[command]
    recs = run_records(tmp_path, "out.jsonl", [command, *data, *thresholds])
    (ds,) = [r for r in recs if r["record"] == "dataset"]
    assert ds["instances"] == (61 if source == "example" else 12)
    # The trees grew past the roots, so the index and its unions ran.
    counts = [r["counts"]["all"] for r in recs if "counts" in r]
    assert counts and min(counts) > ds["types"]
    assert instance_inits == []
    # The fixture does see the rows that the instances view builds.
    from csts.oracle import example_dataset
    assert len(example_dataset().instances) == 61 and instance_inits == list(range(61))


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

class TestQuery:
    @pytest.fixture()
    def saved(self, tmp_path):
        out = tmp_path / "saved.jsonl"
        assert main(BASE + ["--theta", "0.25", "--theta-strictness", "ge",
                            "--epsilon", "0.25", "--algorithm", "csts",
                            "--out", str(out)]) == 0
        return str(out)

    def test_interval_for_non_member(self, saved, capsys):
        assert main(["query", "--from", saved,
                     "--pattern", "B->B->C"]) == 0
        text = capsys.readouterr().out
        assert "[3/8, 5/8]" in text
        assert "witness B->B->C->E" in text
        assert "PI-strong" in text

    def test_exact_for_member(self, saved, capsys):
        assert main(["query", "--from", saved,
                     "--pattern", "B->B->C->E"]) == 0
        text = capsys.readouterr().out
        assert "exact pi 3/8" in text

    def test_unknown_label_exits_2(self, saved, capsys):
        assert main(["query", "--from", saved, "--pattern", "B->Q"]) == 2
        err = capsys.readouterr().err
        assert "unknown event type label" in err and "Q" in err

    def test_needs_csts_output(self, tmp_path, capsys):
        out = tmp_path / "all.jsonl"
        assert main(BASE + ["--theta", "0.2", "--algorithm", "all",
                            "--out", str(out)]) == 0
        assert main(["query", "--from", str(out), "--pattern", "B->B"]) == 2
        assert "--algorithm csts" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["run-without-counts",
                                      "run-without-epsilon",
                                      "line-not-an-object",
                                      "epsilon-above-one",
                                      "types-not-labels",
                                      "pi-above-one",
                                      "pi-below-zero",
                                      "pi-zero-denominator",
                                      "epsilon-zero-denominator",
                                      "two-documents-on-one-line",
                                      "split-and-joined-lines",
                                      "bracket-joined-line",
                                      "pi-as-number",
                                      "pi-as-bool",
                                      "epsilon-as-number",
                                      "csts-as-string",
                                      "capped-as-string",
                                      "capped-missing",
                                      "capped-depth-negative",
                                      "capped-depth-zero",
                                      "capped-depth-below-a-member",
                                      "truncated",
                                      "count-mismatch",
                                      "member-label-unknown"])
    def test_malformed_record_file_exits_2(self, saved, tmp_path, capsys,
                                           case):
        with open(saved) as fh:
            recs = [json.loads(line) for line in fh]
        run = run_of(recs)
        if case == "run-without-counts":
            del run["counts"]
        elif case == "run-without-epsilon":
            del run["config"]["epsilon"]
        elif case == "epsilon-above-one":
            run["config"]["epsilon"] = "3/2"
        elif case == "epsilon-zero-denominator":
            run["config"]["epsilon"] = "1/0"
        elif case == "epsilon-as-number":
            run["config"]["epsilon"] = 0.25
        elif case == "types-not-labels":
            run["types"] = [["A"], "B"]
        elif case == "csts-as-string":
            # Records write only true, false or null; a truthy string on
            # the non-member B->B->C must not make it a member.
            row, = [rec for rec in recs if rec.get("pattern") == "B->B->C"]
            row["csts"] = "no"
        elif case == "capped-as-string":
            # A truthy "false" would cap the run at its depth, 6.
            run["capped"] = "false"
        elif case == "capped-missing":
            del run["capped"]
        elif case.startswith("capped-depth-"):
            # A capped search stops at its depth, at least 1 and no shorter
            # than any member; B->B->C->E is a member.
            run["capped"] = True
            run["depth"] = {"capped-depth-negative": -3, "capped-depth-zero": 0,
                            "capped-depth-below-a-member": 3}[case]
        elif case == "count-mismatch":
            member, = [rec for rec in recs if rec.get("pattern") == "B->B->C->E"]
            member["csts"] = False
        elif case == "member-label-unknown":
            member, = [rec for rec in recs if rec.get("pattern") == "B->D"]
            member["pattern"] = "B->Q"
        elif case.startswith("pi-"):
            member, = [rec for rec in recs if rec.get("pattern") == "B->B->C->E"]
            member["pi"] = {"pi-above-one": "3/2", "pi-below-zero": "-1/8",
                            "pi-zero-denominator": "1/0", "pi-as-number": 0.3,
                            "pi-as-bool": True}[case]
        lines = [json.dumps(rec) for rec in recs]
        if case == "line-not-an-object":
            lines.insert(1, "[1,2]")
        elif case == "two-documents-on-one-line":
            at = recs.index(run)
            lines[at:at + 2] = [lines[at] + "," + lines[at + 1]]
        elif case == "split-and-joined-lines":
            # The line count still equals the document count.
            at = recs.index(run)
            cut = lines[at].index(', "config"')
            lines[at:at + 1] = [lines[at][:cut], lines[at][cut + 2:]]
            lines[-2:] = [lines[-2] + "," + lines[-1]]
        elif case == "truncated":
            lines = lines[:20]
        elif case == "bracket-joined-line":
            # Valid JSON inside the loader's brackets, but one line too few
            # for its documents: only the count check refuses it.
            lines[-2:] = [lines[-2] + "],[" + lines[-1]]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["query", "--from", str(broken),
                     "--pattern", "B->B->C"]) == 2
        err = capsys.readouterr().err
        assert "is not a record file" in err
        if case == "bracket-joined-line":
            assert "28 documents on 27 lines" in err

    @pytest.mark.parametrize("at, name", enumerate(QUERY_SOURCES))
    def test_query_output_matches_committed_bytes(self, capsys, at, name):
        patterns = golden_query_patterns()
        argv = ["query", "--from", str(STREAMS / f"{name}.jsonl")]
        for pattern in patterns:
            argv += ["--pattern", pattern]
        assert main(argv) == 0
        n = len(patterns)
        want = (STREAMS / "query.txt").read_bytes().splitlines(keepends=True)
        assert len(want) == len(QUERY_SOURCES) * n
        assert capsys.readouterr().out.encode() == b"".join(want[at * n:(at + 1) * n])

    def test_missing_file_exits_2(self, capsys):
        assert main(["query", "--from", "/nonexistent/x.jsonl",
                     "--pattern", "A"]) == 2

    def test_blank_lines_between_records_load(self, saved, tmp_path, capsys):
        patterns = ["--pattern", "B->B->C", "--pattern", "B->B->C->E",
                    "--pattern", "B->A"]
        assert main(["query", "--from", saved, *patterns]) == 0
        want = capsys.readouterr().out
        with open(saved) as fh:
            lines = fh.read().splitlines()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + "\n  \n".join(lines) + "\n\n")
        assert main(["query", "--from", str(spaced), *patterns]) == 0
        assert capsys.readouterr().out == want

    def test_capped_run_leaves_longer_patterns_unknown(self, tmp_path, capsys):
        # At full depth B->B->C->E is a member with pi 3/8; a search capped
        # at length 3 cannot tell.
        out = tmp_path / "cap.jsonl"
        assert main(BASE + ["--theta", "0.2", "--epsilon", "0.25",
                            "--max-length", "3", "--out", str(out)]) == 0
        run = run_of([json.loads(line) for line in out.read_text().splitlines()])
        assert run["capped"] is True and run["depth"] == 3
        capsys.readouterr()
        assert main(["query", "--from", str(out), "--pattern", "B->B->C->E",
                     "--pattern", "B->B->C"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "B->B->C->E: unknown: longer than the saved run's depth 3, "
            "where the search was capped",
            "B->B->C: PI-strong, exact pi 1/2 (0.5) — member of the summary",
        ]

    def test_upper_bound_clamps_at_one(self, tmp_path, capsys):
        out = tmp_path / "wide.jsonl"
        assert main(BASE + ["--theta", "0.2", "--epsilon", "0.75",
                            "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["query", "--from", str(out), "--pattern", "B->B->C"]) == 0
        assert capsys.readouterr().out == (
            "B->B->C: PI-strong, pi in [1/4, 1] ([0.25, 1.0]) "
            "via witness A->B->B->C->E->C\n")

    def test_consecutive_calls_share_no_parser_state(self, saved, tmp_path,
                                                     capsys):
        assert main(["query", "--from", saved, "--pattern", "B->B->C",
                     "--pattern", "B->B->C->E"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert main(["query", "--from", saved, "--pattern", "B->B->C"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        argv = BASE + ["--theta", "0.2", "--epsilon", "0.25"]
        assert run_of(run_records(tmp_path, "all.jsonl", argv + [
            "--algorithm", "all"]))["algorithm"] == "all"
        assert run_of(run_records(tmp_path, "plain.jsonl", argv))["algorithm"] == "csts"

    def test_repeated_pattern_prints_one_shot_lines_in_order(self, saved, capsys):
        patterns = ["B->B->C", "B->B->C->E", "B->A", "B->B->C"]
        one_shot = []
        for pattern in patterns:
            assert main(["query", "--from", saved, "--pattern", pattern]) == 0
            one_shot.append(capsys.readouterr().out)
        argv = ["query", "--from", saved]
        for pattern in patterns:
            argv += ["--pattern", pattern]
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(one_shot)

    def test_repeated_pattern_loads_once(self, saved, monkeypatch, capsys):
        import csts.cli
        loads = []
        real = csts.cli._load_saved_csts
        monkeypatch.setattr(csts.cli, "_load_saved_csts",
                            lambda path: loads.append(path) or real(path))
        assert main(["query", "--from", saved, "--pattern", "B->B",
                     "--pattern", "C->E", "--pattern", "A"]) == 0
        assert loads == [saved]
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("bad", ["B->Q", "B->->C"])
    def test_bad_label_in_any_pattern_prints_nothing(self, saved, capsys, bad):
        assert main(["query", "--from", saved, "--pattern", "B->B->C",
                     "--pattern", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------

class TestErrors:
    def test_no_input_source(self, capsys):
        assert main(["mine", "--radius", "10", "--window", "20"]) == 2

    def test_input_and_synthetic_conflict(self, capsys):
        assert main(["mine", "--input", FIXTURE, "--synthetic", "3,30",
                     "--radius", "10", "--window", "20"]) == 2

    def test_missing_input_file(self, capsys):
        assert main(["mine", "--input", "/nonexistent.csv",
                     "--radius", "10", "--window", "20"]) == 2

    @pytest.mark.parametrize("content,where", [
        (b"type,x,y,time_minutes\nA,0,0,0\nB,0,0," + b"9" * 200_000 + b"\n",
         "line 3: field larger than field limit"),
        (b"type,x,y,time_minutes\nA\xe9,0,0,0\n", "line 2: 'utf-8' codec"),
        # Python 3.10's csv refuses the NUL; later ones read a header that
        # lacks time_minutes.
        (b"type,x,y,time_minutes\x00\nA,0,0,0\n", ""),
    ], ids=["field-over-csv-limit", "latin-1", "nul-byte"])
    def test_unreadable_csv_exits_2_naming_the_file(self, tmp_path, capsys,
                                                    content, where):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main(["mine", "--input", str(path), "--radius", "10",
                     "--window", "20"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {where}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["mine", "sweep"])
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, pipeline_calls, capsys,
                                    command, where):
        # Checked before the load, so no load, index build or mining run.
        out = tmp_path / "missing" / "x.jsonl" if where == "missing-dir" else tmp_path
        argv = [command, "--input", FIXTURE, "--radius", "10", "--window", "20",
                "--theta", "0.2", "--out", str(out)]
        assert main(argv) == 2
        assert pipeline_calls == []
        err = capsys.readouterr().err
        assert f"cannot write {out}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["mine", "sweep"])
    @pytest.mark.parametrize("name", ["same-path", "symlink", "hard-link"])
    def test_out_that_is_the_input_exits_2(self, tmp_path, pipeline_calls, capsys,
                                           command, name):
        # Checked before the load, so the input is neither read nor written.
        source = tmp_path / "events.csv"
        source.write_bytes(Path(FIXTURE).read_bytes())
        out = source if name == "same-path" else tmp_path / "out.jsonl"
        if name == "symlink":
            out.symlink_to(source)
        elif name == "hard-link":
            os.link(source, out)
        argv = [command, "--input", str(source), "--radius", "10", "--window", "20",
                "--theta", "0.2", "--out", str(out)]
        assert main(argv) == 2
        assert pipeline_calls == []
        assert source.read_bytes() == Path(FIXTURE).read_bytes()
        err = capsys.readouterr().err
        assert f"cannot write {out}: it is the --input file" in err

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root may write to a read-only directory")
    def test_read_only_out_directory_fails_before_loading(self, tmp_path,
                                                          pipeline_calls, capsys):
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            out = locked / "x.jsonl"
            assert main(BASE + ["--theta", "0.2", "--out", str(out)]) == 2
        finally:
            locked.chmod(0o700)
        assert pipeline_calls == []
        assert f"cannot write {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine", "sweep"])
    @pytest.mark.parametrize("failure", ["missing-input", "bad-degrees"])
    def test_failed_run_leaves_existing_out_untouched(self, tmp_path, capsys,
                                                      command, failure):
        out = tmp_path / "kept.jsonl"
        out.write_text("earlier output\n")
        source = (["--input", "/nonexistent.csv"] if failure == "missing-input"
                  else ["--synthetic", "3,30,500,300", "--metric", "geodesic"])
        assert main([command, *source, "--radius", "10", "--window", "20",
                     "--theta", "0.2", "--out", str(out)]) == 2
        assert out.read_text() == "earlier output\n"

    def test_mine_rejects_threshold_lists(self, capsys):
        assert main(BASE + ["--theta", "0.1,0.2"]) == 2
        assert "use sweep" in capsys.readouterr().err

    def test_oracle_size_guard_exits_3(self, capsys):
        assert main(["mine", "--synthetic", "5,250", "--seed", "7",
                     "--radius", "20", "--window", "60",
                     "--theta", "0.2", "--algorithm", "oracle"]) == 3
        assert "guard" in capsys.readouterr().err
        assert main(BASE + ["--algorithm", "oracle", "--max-length", "9"]) == 3
        assert "oracle refuses max_len 9 (guard: 8)" in capsys.readouterr().err

    def test_unbounded_inclusive_zero_theta_exits_2(self, capsys):
        assert main(BASE + ["--theta", "0", "--theta-strictness", "ge"]) == 2
        assert "max_length" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        BASE + ["--theta", "0"],
        ["sweep", "--input", FIXTURE, "--radius", "10", "--window", "20",
         "--theta", "0.2,0"],
    ])
    def test_unbounded_search_fails_before_loading(self, tmp_path, pipeline_calls,
                                                   capsys, argv):
        # The tree search's bound is checked with the thresholds, so the
        # refusal costs no load and no index build.
        out = tmp_path / "out.jsonl"
        assert main(argv + ["--theta-strictness", "ge", "--out", str(out)]) == 2
        assert pipeline_calls == []
        assert "set max_length to bound the search" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_radius_or_window_exits_2(self, tmp_path, capsys):
        # Infinity is not JSON, so it must never reach the run record.
        out = tmp_path / "out.jsonl"
        for flags in (["--radius", "inf", "--window", "1e400"],
                      ["--radius", "10", "--window", "nan"]):
            assert main(["mine", "--input", FIXTURE, *flags, "--out", str(out)]) == 2
            assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("minutes", [10**400, 2**53 + 1], ids=["1e400", "2**53+1"])
    def test_time_float64_cannot_hold_is_unparseable(self, tmp_path, minutes):
        # Such a time used to crash the index (10**400) or make the tree and
        # the oracle disagree (2**53 + 1 rounds to 2**53 in the index).
        events = tmp_path / "big.csv"
        events.write_text(f"type,x,y,time_minutes\nA,0,0,{2**53}\nB,1,1,{minutes}\n")
        runs = []
        for algorithm in ("csts", "oracle"):
            recs = run_records(tmp_path, f"{algorithm}.jsonl", [
                "mine", "--input", str(events), "--radius", "10", "--window", "1",
                "--algorithm", algorithm])
            assert recs[0]["rejected"]["unparseable"] == 1
            runs.append(run_of(recs)["counts"])
        assert runs[0] == runs[1] == {"all": 1, "closed": 1, "csts": 1}

    def test_oracle_keeps_its_own_length_limit(self, tmp_path):
        # theta 0 in ge mode with no --max-length is bounded for the oracle
        # by its default length limit, so it still runs.
        chain = tmp_path / "pair.csv"
        chain.write_text("type,x,y,time_minutes\nA,0,0,0\nB,1,0,1\n")
        recs = run_records(tmp_path, "o.jsonl", [
            "mine", "--input", str(chain), "--radius", "1", "--window", "1",
            "--theta", "0", "--theta-strictness", "ge", "--algorithm", "oracle"])
        assert run_of(recs)["depth"] == 7 and run_of(recs)["capped"] is True

    def test_out_of_range_degrees_exit_2_for_both_algorithms(self, capsys):
        # The default synthetic area 0..100 is not valid latitude.
        argv = ["mine", "--synthetic", "3,30", "--seed", "1",
                "--radius", "200000", "--window", "120",
                "--metric", "geodesic", "--theta", "0.1", "--algorithm"]
        for algorithm in ("csts", "oracle"):
            assert main(argv + [algorithm]) == 2
            assert "[-180, 180] x [-90, 90]" in capsys.readouterr().err

    def test_bad_synthetic_spec(self, capsys):
        assert main(["mine", "--synthetic", "5", "--radius", "10",
                     "--window", "20"]) == 2
        capsys.readouterr()
        # A non-finite area is a bad spec, not a traceback out of generation.
        for area in ["nan", "inf", "1e400"]:
            assert main(["mine", "--synthetic", f"3,30,{area},300", "--radius", "10",
                         "--window", "20"]) == 2, area
            assert "bad --synthetic spec" in capsys.readouterr().err

    def test_bad_threshold_value(self, capsys):
        assert main(BASE + ["--theta", "banana"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(BASE + ["--frobnicate"]) == 2
        assert main(BASE + ["--threads", "2"]) == 2


# ---------------------------------------------------------------------------
# --out: written over in place, then cut to length
# ---------------------------------------------------------------------------

GEODESIC_ARGV = ["mine", "--synthetic", "4,400,0.05,2000", "--seed", "2",
                 "--metric", "geodesic", "--radius", "800", "--window", "300",
                 "--theta", "0.1", "--epsilon", "0.1"]
GEODESIC_SHA256 = "9fbb0cee80c5457b080dd7e056ca24f5b97712716661aa2019eca258d4da020f"
# Every pattern over 4 types up to the cap, length 6: unions in full batches
# of 64 prefixes and a closure over 5,460 patterns, 5,189 of them closed and
# 4,099 in the summary; the mine writes 884,197 bytes. Per command: its
# thresholds and the sha256 of its records.
DENSE_ARGV = ["--synthetic", "4,2000,1600,600", "--seed", "1", "--radius", "200",
              "--window", "600", "--max-length", "6"]
DENSE_SHA256 = {
    "mine": (["--theta", "0.3", "--epsilon", "0.1"],
             "15474fa51192f140c6818853c489dda7d822eb00a32bd7eb6e45b20adbee4708"),
    "sweep": (["--theta", "0.3,0.4", "--epsilon", "0,0.1"],
              "8a97f81e3f29df6c8a452a08b70e2acc41513a10e48ee54b7ba7c1019033978f"),
}
EXAMPLE_ARGV = BASE + ["--theta", "0.2", "--epsilon", "0.25"]


@pytest.fixture
def example_bytes(tmp_path):
    """The example run's records, written to a fresh path outside the
    directory a test lists."""
    (tmp_path / "ref").mkdir()
    ref = tmp_path / "ref" / "example.jsonl"
    assert main(EXAMPLE_ARGV + ["--out", str(ref)]) == 0
    return ref.read_bytes()


class TestOutFile:
    @pytest.mark.parametrize("command", ["mine", "sweep"])
    def test_rerun_into_one_out_gives_the_same_bytes(self, tmp_path, command):
        argv = GEODESIC_ARGV if command == "mine" else STREAM_ARGV["sweep"]
        out = tmp_path / "run.jsonl"
        assert main(argv + ["--out", str(out)]) == 0
        first, inode = out.read_bytes(), out.stat().st_ino
        if command == "mine":
            assert hashlib.sha256(first).hexdigest() == GEODESIC_SHA256
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert out.stat().st_ino == inode
        assert os.listdir(tmp_path) == ["run.jsonl"]

    def test_longer_old_file_is_cut_to_the_records(self, tmp_path,
                                                   example_bytes):
        out = tmp_path / "run.jsonl"
        out.write_bytes(b"earlier output\n" * 100_000)
        assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
        assert out.read_bytes() == example_bytes

    def test_out_keeps_its_mode(self, tmp_path, example_bytes):
        out = tmp_path / "run.jsonl"
        out.write_text("earlier output\n")
        out.chmod(0o640)
        assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
        assert out.read_bytes() == example_bytes
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_new_out_gets_the_mode_open_gives(self, tmp_path):
        out, opened = tmp_path / "run.jsonl", tmp_path / "opened"
        old = os.umask(0o027)
        try:
            assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
            with open(opened, "w"):
                pass
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == \
            stat.S_IMODE(opened.stat().st_mode) == 0o640

    def test_broken_pipe_exits_2(self, tmp_path, capsys):
        # The reader takes one byte and leaves; the 310 kB stream outgrows
        # the pipe's buffer, so the writer sees the broken pipe.
        out = tmp_path / "pipe"
        os.mkfifo(out)

        def read_one_byte():
            with open(out, "rb") as fh:
                fh.read(1)
        reader = threading.Thread(target=read_one_byte, daemon=True)
        reader.start()
        assert main(GEODESIC_ARGV + ["--out", str(out)]) == 2
        reader.join(timeout=10)
        assert not reader.is_alive()
        err = capsys.readouterr().err
        assert f"cannot write {out}: " in err and "Broken pipe" in err

    @pytest.mark.parametrize("device, code", [("/dev/null", 0), ("/dev/full", 2)])
    def test_device_out(self, capsys, device, code):
        if not os.path.exists(device):
            pytest.skip(f"needs {device}")
        assert main(EXAMPLE_ARGV + ["--out", device]) == code
        err = capsys.readouterr().err
        assert (f"cannot write {device}: " in err) == (code == 2)
        assert "Traceback" not in err

    def test_symlink_out_stays_a_link(self, tmp_path, example_bytes):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("earlier output\n")
        link.symlink_to(target)
        assert main(EXAMPLE_ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == example_bytes

    def test_hard_linked_out_is_written_in_place(self, tmp_path, example_bytes):
        out, other = tmp_path / "run.jsonl", tmp_path / "other.jsonl"
        out.write_text("earlier output\n")
        os.link(out, other)
        inode = out.stat().st_ino
        assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
        assert out.read_bytes() == other.read_bytes() == example_bytes
        assert out.stat().st_ino == other.stat().st_ino == inode

    def test_fifo_out_receives_the_stream(self, tmp_path, example_bytes):
        out, received = tmp_path / "pipe", []

        def read_all():
            with open(out, "rb") as fh:
                received.append(fh.read())
        os.mkfifo(out)
        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [example_bytes]
        assert stat.S_ISFIFO(os.lstat(out).st_mode)

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                        reason="only root can give a file any owner and group")
    def test_out_of_another_owner_keeps_owner_and_group(self, tmp_path,
                                                        example_bytes):
        out = tmp_path / "run.jsonl"
        out.write_text("earlier output\n")
        os.chown(out, 65534, 65534)
        assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
        assert out.read_bytes() == example_bytes
        assert (out.stat().st_uid, out.stat().st_gid) == (65534, 65534)

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root may write to a read-only directory")
    def test_writable_out_in_read_only_directory(self, tmp_path,
                                                 example_bytes):
        locked = tmp_path / "locked"
        locked.mkdir()
        out = locked / "run.jsonl"
        out.write_text("earlier output\n")
        locked.chmod(0o500)
        try:
            assert main(EXAMPLE_ARGV + ["--out", str(out)]) == 0
        finally:
            locked.chmod(0o700)
        assert out.read_bytes() == example_bytes


# ---------------------------------------------------------------------------
# Inputs with no instances
# ---------------------------------------------------------------------------

EMPTY_INPUTS = {"synthetic": ["--synthetic", "3,0"],
                "header-only": ["--input", "header.csv"]}
EMPTY_GRIDS = {"mine": ["--theta", "0.2", "--epsilon", "0.25"],
               "sweep": ["--theta", "0,0.2", "--epsilon", "0,0.25"]}
# Their record streams: all counts 0, every ratio null.
EMPTY_SHA256 = {
    ("mine", "synthetic"):
        "f5ad6b430e3ac8c57bc54fb0d247e3398f6cdd3b181dd4c2e62ead36580621c7",
    ("sweep", "synthetic"):
        "a11fe074646bb31b0de834d29af5bd488c210a67083032d7e3446740f6d1334d",
    ("mine", "header-only"):
        "a46c4756aad70d443c05a34be1d7befdaaf48fb3dc8690cdad0d8ddf19d04bbf",
    ("sweep", "header-only"):
        "a7a84847a6eb8e4fb9492a6c4acc291b14a7a32d7ee972e3907629b18dc57d56",
}


@pytest.mark.parametrize("source", sorted(EMPTY_INPUTS))
@pytest.mark.parametrize("command", sorted(EMPTY_GRIDS))
def test_empty_input_streams(tmp_path, monkeypatch, capsys, command, source):
    # The CSV's source in the dataset record is the relative path given.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "header.csv").write_text("type,x,y,time_minutes\n")
    assert main([command, *EMPTY_INPUTS[source], "--radius", "10",
                 "--window", "20", *EMPTY_GRIDS[command]]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        EMPTY_SHA256[command, source]
    assert ("edges=0" in captured.err) == (command == "sweep")


# ---------------------------------------------------------------------------
# stdout whose reader has left
# ---------------------------------------------------------------------------

class _LeftReader:
    """A stdout whose reader has closed its end: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    EXAMPLE_ARGV,
    STREAM_ARGV["sweep"],
    ["query", "--from", str(STREAMS / "mine-csts.jsonl"), "--pattern", "B->B->C"],
], ids=["mine", "sweep", "query"])
def test_broken_stdout_exits_2(capsys, argv):
    with contextlib.redirect_stdout(_LeftReader()):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "csts: error: cannot write stdout: [Errno 32] Broken pipe\n" in err
    assert "Traceback" not in err


def test_console_script_reports_a_reader_that_left():
    proc = subprocess.Popen([sys.executable, "-m", "csts.cli", *GEODESIC_ARGV],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the run writes its first record
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "csts: error: cannot write stdout: " in err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("command", [BASE, ["sweep", *BASE[1:], "--theta", "0.2,0.4"]])
def test_console_script_with_stdout_closed_exits_2(command):
    # Started with file descriptor 1 closed, Python has no sys.stdout: a run
    # that writes its records there fails before loading, with no traceback.
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh",
                           sys.executable, "-m", "csts.cli", *command],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "csts: error: cannot write stdout: it is closed\n"


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "csts.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mine" in proc.stdout and "sweep" in proc.stdout \
        and "query" in proc.stdout
