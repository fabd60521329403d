"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_counts.py

Each workload runs twice, traced, at one seed and with the shortest run
length: one traced and one untraced pass.  Both take about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def traced_run(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    counts = {name for name, m in first["metrics"].items() if m["unit"] != "s"}
    assert {"trace.spans", "moments.stacked.rows", "cli.csv_bytes"} <= counts
    for name in sorted(counts):
        assert first["metrics"][name] == second["metrics"][name], name
    assert any(first["metrics"][name]["value"] for name in counts
               if name != "trace.spans")


def test_benchmark_json_names_the_printed_metrics():
    per_layer = list(run.layer_metrics(tracing.Tracer())) + [
        "trace.overhead_s", "wall_s", "speed.kernel_s", "task_p50_s",
        "task_p90_s"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer
    passes = [{"wall_s": 1.0, "wall_ref_s": 0.9,
               "tasks": [{"wall_s": 0.4}, {"wall_s": 0.6}]}]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        run.end_to_end_metrics(passes, 0.5))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)
    sys.path.insert(0, str(run.SRC))
    import workloads

    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
