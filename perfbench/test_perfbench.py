"""Self-tests of the benchmark, at tiny workload sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from check import check
from layertrace import LAYERS
from refclock import RefClock
from workloads import WORKLOADS, invocations

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, trace: int, tmp_path: Path, monkeypatch) -> tuple[run.Runner, dict]:
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    cli = run.import_cli()
    runner = run.Runner(cli.main, invocations(workload, 0, samples_scale=0.1))
    runner.record(runner.run_pass())
    if trace:
        return runner, run.run_traced(runner, 0.0, tmp_path / "spans.json")
    return runner, run.run_plain(runner, 0.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_emitted_with_its_unit(workload, tmp_path, monkeypatch):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        runner, result = _tiny(workload, trace, tmp_path, monkeypatch)
        emitted = {name: result["units"][name] for name in result["metrics"]}
        assert emitted == {m["name"]: m["unit"] for m in BENCH[key]}
        assert all(math.isfinite(v) for v in result["metrics"].values())
        assert runner.attempted == (2 + trace) * len(WORKLOADS[workload])
        assert runner.failed == 0
    metrics = result["metrics"]
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS + ("cli",))
    assert total == pytest.approx(metrics["trace.pass_s"], rel=1e-9)
    assert (tmp_path / "spans.json").is_file()


def _text(argv):
    runner = run.Runner(run.import_cli().main, [argv])
    ((rc, text, _),) = runner.run_pass()
    assert rc == 0 and check(argv, rc, text) == []
    return text


def _edit_rows(text: str, edit) -> str:
    comments = [line for line in text.splitlines(keepends=True) if line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO(text[sum(map(len, comments)):])))
    edit(rows)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return "".join(comments) + buf.getvalue()


def test_checker_flags_corrupted_output():
    kahler = ["limit-kahler", "--n", "2", "--rho2", "0.55", "--grid", "1:1e3:4",
              "--samples", "24", "--seed", "3"]
    text = _text(kahler)

    def flatten(rows):
        rows[2]["hausdorff_norm"] = rows[1]["hausdorff_norm"]
    assert any("hausdorff_norm" in p for p in check(kahler, 0, _edit_rows(text, flatten)))

    def overshoot(rows):
        rows[0]["fiber_ratio"] = "1.01"
    assert any("fiber_ratio" in p for p in check(kahler, 0, _edit_rows(text, overshoot)))

    assert check(kahler, 1, text) == ["exit code 1"]
    assert any("unparsable" in p for p in check(kahler, 0, "Traceback ...\n"))

    report = ["polytope-report", "--n", "2"]
    data = json.loads(_text(report))
    data["self_dual"]["holds"] = False
    assert check(report, 0, json.dumps(data)) == ["self_dual.holds is not true"]


def test_predictions_name_benchmark_metrics_and_workloads():
    names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert workloads == set(WORKLOADS)
    preds = json.loads((Path(__file__).parent / "predictions.json").read_text())
    for p in preds["predictions"]:
        assert set(p["layer_metrics"]) <= names, p["id"]
        for table in (p["moves"], p["flat"]):
            assert set(table) <= workloads, p["id"]
            assert all(set(metrics) <= names for metrics in table.values()), p["id"]


def test_refclock_leaves_kernel_time_out():
    t0 = time.perf_counter()
    with RefClock() as clock:
        time.sleep(0.3)
    elapsed = time.perf_counter() - t0
    assert len(clock.runs) >= 4
    assert 0.25 < clock.wall_s() < elapsed
    assert clock.ref_units() > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "fibers",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
