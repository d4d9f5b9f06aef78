"""End-to-end checks of the command-line interface.

Everything runs in-process through ``csts.cli.main`` so the suite stays
fast; one subprocess test proves the installed console script works.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from csts.cli import main
from csts.ingestion import EXAMPLE_EVENTS_FILE

FIXTURE = str(EXAMPLE_EVENTS_FILE)

BASE = ["mine", "--input", FIXTURE, "--radius", "10", "--window", "20"]

# The bundled example's record streams, committed byte for byte under
# tests/data/streams/ with the dataset record's source reduced to the
# file name.
STREAMS = Path(__file__).parent / "data" / "streams"
STREAM_ARGV = {
    **{f"mine-{alg}": BASE + ["--theta", "0.2", "--epsilon", "0.25",
                              "--algorithm", alg]
       for alg in ("all", "closed", "csts", "oracle")},
    "sweep": ["sweep", "--input", FIXTURE, "--radius", "10", "--window", "20",
              "--theta", "0,0.2,0.4", "--epsilon", "0,0.1,0.25"],
}


@pytest.fixture
def pipeline_calls(monkeypatch):
    """The names of the load, index and mining calls made through csts.cli,
    in call order."""
    import csts.cli
    calls = []

    def counting(name):
        real = getattr(csts.cli, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("load_generic", "build_index", "mine_all"):
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


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

class TestMine:
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

    def test_oracle_mode_matches_tree_mode_record_for_record(self, tmp_path):
        args = ["--theta", "0.2", "--epsilon", "0.25"]
        tree = run_records(tmp_path, "t.jsonl",
                           BASE + args + ["--algorithm", "csts"])
        oracle = run_records(tmp_path, "o.jsonl",
                             BASE + args + ["--algorithm", "oracle"])
        assert patterns_of(tree) == patterns_of(oracle)
        assert run_of(tree)["counts"] == run_of(oracle)["counts"]

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
        out = tmp_path / "out.jsonl"
        assert main(STREAM_ARGV[name] + ["--out", str(out)]) == 0
        first, rest = out.read_bytes().split(b"\n", 1)
        dataset = json.loads(first)
        assert dataset["record"] == "dataset" and dataset["source"] == FIXTURE
        dataset["source"] = Path(FIXTURE).name
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
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9fbb0cee80c5457b080dd7e056ca24f5b97712716661aa2019eca258d4da020f")

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

    def test_holds_one_tree_at_a_time(self, monkeypatch, tmp_path):
        # With the cyclic collector off, each theta's tree must be freed by
        # reference counting before the next theta's tree grows.
        import csts.cli
        real = csts.cli.mine_all
        grown = []
        alive_before = []

        def mine_all(*args, **kwargs):
            alive_before.append(sum(ref() is not None for ref in grown))
            tree = real(*args, **kwargs)
            grown.extend(weakref.ref(node) for node in tree)
            return tree

        monkeypatch.setattr(csts.cli, "mine_all", mine_all)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert main(["sweep", "--input", FIXTURE, "--radius", "10",
                         "--window", "20", "--theta", "0,0.2,0.4",
                         "--epsilon", "0,0.25",
                         "--out", str(tmp_path / "sweep.jsonl")]) == 0
        finally:
            if enabled:
                gc.enable()
        assert alive_before == [0, 0, 0]

    def test_index_built_once_and_reported_on_stderr(self, monkeypatch, capsys):
        # mine_all would build its own index through csts.topdown if the
        # sweep did not pass one, so both names are counted.
        import csts.cli
        import csts.topdown
        built = []
        real = csts.topdown.build_index

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(csts.cli, "build_index", counting)
        monkeypatch.setattr(csts.topdown, "build_index", counting)
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
    real = EventInstance.__post_init__

    def counting(self):
        built.append(self.idx)
        real(self)

    monkeypatch.setattr(EventInstance, "__post_init__", counting)
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
                                      "epsilon-zero-denominator"])
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
        elif case == "types-not-labels":
            run["types"] = [["A"], "B"]
        elif case.startswith("pi-"):
            member, = [rec for rec in recs if rec.get("pattern") == "B->B->C->E"]
            member["pi"] = {"pi-above-one": "3/2", "pi-below-zero": "-1/8",
                            "pi-zero-denominator": "1/0"}[case]
        lines = [json.dumps(rec) for rec in recs]
        if case == "line-not-an-object":
            lines.insert(1, "[1,2]")
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        assert main(["query", "--from", str(broken),
                     "--pattern", "B->B->C"]) == 2
        assert "is not a record file" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["query", "--from", "/nonexistent/x.jsonl",
                     "--pattern", "A"]) == 2

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


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "csts.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mine" in proc.stdout and "sweep" in proc.stdout \
        and "query" in proc.stdout
