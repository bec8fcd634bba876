"""tools/bench_pairs.py: the pair tally and the spreads it reports."""

import json
import os
import pathlib
import platform
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

METRICS = [{"name": "rate", "unit": "1/s", "better": "higher"},
           {"name": "setup_s", "unit": "s", "better": "lower"}]


def run(rate, setup, correct=True):
    return {"exit_code": 0 if correct else 1, "result": {
        "correct": correct, "metrics": {"rate": {"value": rate, "unit": "1/s"},
                                        "setup_s": {"value": setup, "unit": "s"}}}}


def test_spread_gives_inclusive_quartiles():
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert bench_pairs.spread([7.0])["iqr"] == 0.0


def test_summary_tallies_each_metric_in_its_better_direction():
    pairs = [
        {"parent": run(100, 0.10), "change": run(150, 0.10)},   # rate won, setup tied
        {"parent": run(100, 0.10), "change": run(140, 0.12)},   # rate won, setup lost
        {"parent": run(100, 0.12), "change": run(90, 0.11)},    # rate lost, setup won
        {"parent": run(100, 0.10), "change": run(999, 0.01, correct=False)},  # not counted
    ]
    summary = bench_pairs.summarise(pairs, METRICS)
    rate, setup = summary["rate"], summary["setup_s"]
    assert (rate["change_wins"], rate["change_losses"], rate["ties"]) == (2, 1, 0)
    assert (setup["change_wins"], setup["change_losses"], setup["ties"]) == (1, 1, 1)
    assert rate["parent"]["n"] == 4 and rate["change"]["n"] == 3
    assert rate["change_over_parent"] == pytest.approx(140 / 100)


def test_fewer_than_ten_pairs_are_refused():
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--change", ".", "--pairs", "9",
                          "--seed", "1", "--out", "unused.json"])
    assert exc.value.code == 2


def test_report_records_the_conditions_of_the_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "load_benchmark", lambda checkout: {
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "w"}], "end_to_end": METRICS})
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: run(100, 0.1))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", ".", "--change", ".", "--pairs", "10",
                             "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["conditions"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(), "PYTHONDONTWRITEBYTECODE": "1"}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.conditions()["PYTHONDONTWRITEBYTECODE"] is None


def test_workloads_option_runs_only_the_named_ones_and_refuses_unknown(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "load_benchmark", lambda checkout: {
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}], "end_to_end": METRICS})
    ran = []
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, workload, *args: ran.append(workload) or run(100, 0.1))
    out = tmp_path / "bench.json"
    argv = ["--parent", ".", "--change", ".", "--pairs", "10", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv + ["--workloads", "c", "a"]) == 0
    assert set(ran) == {"a", "c"} and len(ran) == 2 * 10 * 2
    assert list(json.loads(out.read_text())["workloads"]) == ["a", "c"]

    ran.clear()
    assert bench_pairs.main(argv) == 0
    assert set(ran) == {"a", "b", "c"}

    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv + ["--workloads", "a", "nope"])
    assert exc.value.code == 2
