"""Tests of the benchmark itself, at tiny problem sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_prints_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # fail_frac is 0 at this commit
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]
    assert any(line.startswith("fail_frac 0 ratio") for line in lines)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1])
    if trace:
        record_path = ROOT / lines[-2].split()[1]
        record = json.loads(record_path.read_text())["results"]
        plain, traced = record["timed"], record["traced"]
        # tracing changes no result and sees the same inputs
        assert plain["output_digests"] and plain["output_digests"] == traced["output_digests"]
        assert plain["input_digests"] == traced["input_digests"]
        assert "outputs bit-identical" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_the_inputs(workload):
    assert workloads.draw_params(workload, 3) == workloads.draw_params(workload, 3)
    assert workloads.draw_params(workload, 3) != workloads.draw_params(workload, 4)


def test_tail_weighs_operations_by_their_share_of_a_round():
    # 40 rounds of a 1 s and a 10 s operation: 440 s, so p90 leaves 44 s beyond
    steady = [[1.0, 10.0] for _ in range(40)]
    assert run.tail(steady)[0] == 1.0
    long_slow = [[1.0, 20.0 if r < 12 else 10.0] for r in range(40)]
    slowdown, pct, beyond = run.tail(long_slow)
    assert slowdown == 2.0 and beyond == 10 and pct < 90.0
    # a short operation's slow calls carry little of the round time
    short_slow = [[5.0 if r < 15 else 1.0, 10.0] for r in range(40)]
    assert run.tail(short_slow)[0] == 1.0
    # ten samples beyond the tail are required
    assert run.tail([[1.0, 20.0 if r < 3 else 10.0] for r in range(40)])[0] == 1.0
    assert run.tail([[1.0], [3.0], [2.0]]) == (1.5, 100.0, 0)


def test_checks_reject_a_perturbed_output(tmp_path):
    params = workloads.draw_params("auto_dist", 7, "tiny")
    wl = workloads.build("auto_dist", params, {}, str(tmp_path))
    wl.prepare()
    op = wl.ops[0]
    out = op.run({})
    assert op.check({}, out) is None
    assert op.check({}, out.with_values(out.values * (1 + 1e-5))) is not None


def test_write_checks_read_only_what_this_round_wrote(tmp_path):
    params = workloads.draw_params("cross_ops_io", 7, "tiny")
    wl = workloads.build("cross_ops_io", params, {}, str(tmp_path))
    wl.prepare()
    assert worker.run_round(wl.ops)[1] == []
    # writers and CLI calls that write nothing must fail, though the files
    # of the round before are still there
    writers = {op.name for op in wl.ops if op.removes}
    assert {"write_matrix", "write_signal_f", "cli_transform_bj_cross", "cli_op_bj"} <= writers
    idle = [dataclasses.replace(op, run=lambda s: 0) if op.removes else op for op in wl.ops]
    failed = {error.split(":")[0] for error in worker.run_round(idle)[1]}
    assert writers <= failed


def test_spans_nest_and_split_self_time():
    import tfq
    from tfq.synth import SignalRecipe

    recorder = spans.SpanRecorder()
    spans.install(recorder)  # wrappers pass calls through while phase is None
    f = tfq.synth(SignalRecipe(kind="gaussian", n=256, dx=1 / 16))
    tracemalloc.start()
    try:
        recorder.phase = "rounds"
        tfq.born_jordan(f)
        recorder.phase = None
    finally:
        tracemalloc.stop()
    by_name = {s.name: s for s in recorder.spans}
    parent = {s.id: s.name for s in recorder.spans}
    assert parent[by_name["distributions.cohen"].parent] == "distributions.born_jordan"
    assert parent[by_name["distributions.wigner"].parent] == "distributions.cohen"
    sf = [s for s in recorder.spans if s.name == "grid.symplectic_fourier"]
    assert len(sf) == 2 and all(parent[s.parent] == "distributions.cohen" for s in sf)
    own = recorder.self_times()
    root = by_name["distributions.born_jordan"]
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(root.end - root.start, rel=1e-9)
    metrics = spans.layer_metrics(recorder, 1, ["distributions.born_jordan.n2_peak",
                                                "grid.symplectic_fourier.calls"])
    assert 2.0 < metrics["distributions.born_jordan.n2_peak"] < 12.0
    assert metrics["grid.symplectic_fourier.calls"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("auto_dist", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
