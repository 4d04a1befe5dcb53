"""tfq benchmark: four closed-loop, single-client workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload auto_dist --seed 1 --seconds 20 --trace 0

The seed draws every input.  Set-up, the timed rounds and the traced
rounds each run in fresh worker processes (``worker.py``), one at a time,
with the library's defaults (``TFQ_THREADS`` removed from their
environment) and one OpenBLAS thread.

``--trace 0`` runs the set-up alone twice more, then one untraced worker
for ``--seconds`` of rounds, and reports the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` splits ``--seconds`` between an
untraced and a traced worker and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object.  The drawn parameters, input and output hashes, round times and
failures are recorded under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
TAIL_PCT = 90.0
TAIL_BEYOND = 10
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="problem sizes; 'tiny' is for the benchmark's own tests")
    return ap.parse_args(argv)


def spawn(spec_path: Path, mode: str, result_path: Path, deadline: float):
    """Run one worker; returns (set-up seconds, result dict or None)."""
    env = dict(os.environ)
    env.pop("TFQ_THREADS", None)
    # One BLAS thread: idle pool threads spin on the second core and made
    # round times swing by a fifth on a 2-core machine.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), mode, str(result_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], deadline - time.perf_counter())
        line = proc.stdout.readline() if readable else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError(f"{mode} worker ended before set-up finished")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if code != 0:
            raise BenchError(f"{mode} worker exited with code {code}")
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the time budget") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(result_path.read_text())


def tail(op_times: list[list[float]]) -> tuple[float, float, int]:
    """Tail slowdown of the operations: (slowdown, percentile, samples beyond).

    A run holds too few rounds for a round-time tail, but many operation
    times.  Each operation's time in a round is divided by its median over
    the run and weighted by that median, so an operation counts by its share
    of a round.  The result is the slowdown at the highest weighted
    percentile, at most p90, that has at least ten samples beyond it; the
    largest slowdown when there are too few samples.
    """
    columns = list(zip(*op_times))
    samples = []
    for column in columns:
        median = statistics.median(column)
        if median > 0.0:
            samples.extend((t / median, median) for t in column)
    samples.sort(reverse=True)
    total = sum(w for _, w in samples)
    beyond = 0.0
    for k, (slowdown, weight) in enumerate(samples):
        if k >= TAIL_BEYOND and beyond >= (1.0 - TAIL_PCT / 100.0) * total:
            return slowdown, 100.0 * (1.0 - beyond / total), k
        beyond += weight
    return samples[0][0], 100.0, 0


def end_to_end(setups: list[float], timed: dict) -> tuple[dict, dict]:
    """End-to-end metric values, and a note on each, from an untraced run."""
    times = timed["round_times"]
    p50 = statistics.median(times)
    slowdown, tail_pct, beyond = tail(timed["op_times"])
    values = {
        "setup_s": statistics.median(setups),
        "round_p50_s": p50,
        "round_tail_s": p50 * slowdown,
        "peak_rss_mb": timed["ru_maxrss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups from a fresh interpreter: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "round_p50_s": f"median of {len(times)} rounds",
        "round_tail_s": f"round_p50_s x {slowdown:.4f}, the time-weighted p{tail_pct:.0f} of "
                        f"{sum(map(len, timed['op_times']))} operation slowdowns, "
                        f"{beyond} samples beyond it",
        "peak_rss_mb": "ru_maxrss of the untraced worker",
    }
    return values, notes


def per_layer(timed: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer metric values, and a note on each, from a traced run."""
    plain = statistics.median(timed["round_times"])
    values = dict(traced["layer_metrics"])
    values["trace.overhead_frac"] = statistics.median(traced["round_times"]) / plain - 1.0
    notes = {"trace.overhead_frac": f"traced round median over untraced {plain:.4f} s"}
    return values, notes


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tfq" / "__init__.py").is_file():
        print(f"error: no tfq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + BUDGET_S

    params = workloads.draw_params(args.workload, args.seed, args.size)
    refs = workloads.references(args.workload, params)
    run_dir = WORK / f"run-{os.getpid()}"
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"

    def worker(mode: str, seconds: float):
        workdir = run_dir / f"{mode}{len(list(run_dir.iterdir()))}"
        workdir.mkdir()
        spec = {
            "root": str(ROOT), "workload": args.workload, "params": params,
            "refs": refs, "workdir": str(workdir), "seconds": seconds,
            "layer_metric_names": [m["name"] for m in declared["per_layer"]],
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        return spawn(spec_path, mode, workdir / "result.json", deadline)

    setups: list[float] = []
    try:
        if args.trace == 0:
            setups = [worker("setup", 0.0)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup_s, timed = worker("timed", args.seconds)
            setups.append(setup_s)
            results = {"timed": timed}
            values, notes = end_to_end(setups, timed)
        else:
            _, timed = worker("timed", args.seconds / 2)
            _, traced = worker("traced", args.seconds / 2)
            shutil.copyfile(traced.pop("spans_file"), records / f"{name}.spans.jsonl")
            results = {"timed": timed, "traced": traced}
            values, notes = per_layer(timed, traced)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    lines = [
        f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
        f"rounds {len(timed['round_times'])} x {timed['ops_per_round']} operations",
        "inputs " + "  ".join(f"{k}={v[:16]}" for k, v in timed["input_digests"].items()),
    ]
    if args.trace:
        same = timed["output_digests"] == results["traced"]["output_digests"]
        lines.append("trace identity: outputs " + (
            "bit-identical with and without span wrappers" if same
            else "DIFFER with span wrappers"))
    metrics = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        lines.append(f"{m['name']:48s} {value:.6g} {m['unit']}{note}")
    lines.append(f"fail_frac {failed / attempted:.6g} ratio  "
                 f"({failed} failed of {attempted} operations)")
    for r in results.values():
        lines.extend(f"failure: {f}" for f in r["failures"])

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "params": params, "setups_s": setups,
              "results": results, "metrics": metrics}
    record_path = records / f"{name}.json"
    record_path.write_text(json.dumps(record, indent=1))
    lines.append(f"record {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
