"""Run-to-run spread and drift of the end-to-end metrics, for their bounds.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 11-20

Each seed range is one set.  A set makes one ``run.py --trace 0`` run of
``run_seconds`` per (workload, seed) pair, for every workload in
``BENCHMARK.json``, one after the other; the sets run in order.  For every
metric the script reports, per set, the median of the runs and the spread:
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  It then
compares the median of each later set with that of the first, against the
metric's bound.  The record, with the machine the runs were made on, is
written to ``perfbench/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = HERE / "steadiness.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft": f"pocketfft bundled with numpy {np.__version__}",
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(seeds: list[int], names: list[str], seconds: int, bounds: dict) -> dict:
    """One run per (workload, seed); the runs and their summary per workload."""
    report = {"seeds": seeds, "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(proc.stdout + proc.stderr)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, "correct": out["correct"],
                         "attempted": out["attempted"], "failed": out["failed"],
                         **{k: v["value"] for k, v in out["metrics"].items()}})
            print(f"{name} seed {seed}: wall {wall:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in out["metrics"].items()),
                  flush=True)
        summary = {}
        for metric in bounds:
            values = [r[metric] for r in runs]
            summary[metric] = {"median": statistics.median(values),
                               "spread": spread(values), "bound": bounds[metric]}
            print(f"  {metric:14s} median {summary[metric]['median']:.4g}  spread "
                  f"{summary[metric]['spread']:.4f}  bound {bounds[metric]}", flush=True)
        report["workloads"][name] = {"runs": runs, "summary": summary}
    return report


def agreement(first: dict, later: dict, bounds: dict) -> dict:
    """Change of each metric's median from the first set to a later one,
    and whether it stays within the metric's bound."""
    out = {}
    for name, wl in later["workloads"].items():
        out[name] = {}
        for metric, bound in bounds.items():
            a = first["workloads"][name]["summary"][metric]["median"]
            b = wl["summary"][metric]["median"]
            out[name][metric] = {"first": a, "later": b, "change": b / a - 1.0,
                                 "bound": bound, "within": abs(b / a - 1.0) <= bound}
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", nargs="+", default=["1-10", "11-20"],
                    help="one seed range (1-10) or list (1,5,9) per set")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {"machine": machine(), "seconds": declared["run_seconds"], "sets": []}
    for text in args.seeds:
        try:
            report["sets"].append(run_set(_seeds(text), names, report["seconds"], bounds))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    first = report["sets"][0]
    report["agreement"] = [agreement(first, later, bounds) for later in report["sets"][1:]]
    for k, table in enumerate(report["agreement"], start=2):
        for name, metrics in table.items():
            for metric, a in metrics.items():
                print(f"set {k} vs 1  {name:18s} {metric:14s} change {a['change']:+.4f}  "
                      f"bound {a['bound']}  {'within' if a['within'] else 'OUTSIDE'}")
    OUTPUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
