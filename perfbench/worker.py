"""One benchmark process: set up a workload, then run timed rounds of it.

Usage (from ``run.py``, never by hand)::

    python3 perfbench/worker.py SPEC_JSON MODE RESULT_JSON

MODE is ``setup`` (set up, report ready, exit), ``timed`` (untraced rounds)
or ``traced`` (rounds with the span recorder and ``tracemalloc``).  The
worker writes the line ``ready`` to its standard output when set-up ends:
``tfq`` is imported, the inputs are synthesised and one warm-up round has
run.  The parent times set-up from process start to that line.  Anything
the library prints goes to the null device.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import spans
import workloads

MIN_ROUNDS = 5  # a round median of at least five rounds


def _import_tfq(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import tfq

    if src.resolve() not in Path(tfq.__file__).resolve().parents:
        raise SystemExit(f"tfq was imported from {tfq.__file__}, not from {src}")


def digest(obj) -> str:
    """sha256 over the numeric content of an input or output."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + str(x.shape).encode())
            h.update(np.ascontiguousarray(x).data)
        elif hasattr(x, "values") and hasattr(x, "grid"):  # TFMatrix
            feed(x.values)
            h.update(repr((x.grid, x.domain_tag)).encode())
        elif hasattr(x, "samples"):  # SampledSignal
            feed(x.samples)
            h.update(repr((x.x0, x.dx)).encode())
        elif hasattr(x, "matrix"):  # Symbol
            feed(x.matrix)
        elif isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def run_round(ops, on_result=None) -> tuple[list, list]:
    """Run every operation once; returns each operation's time and the
    round's errors.

    Only the calls into the library are timed.  An operation that raises or
    fails its check is an error; the round goes on.
    """
    state: dict = {}
    op_times = []
    errors = []
    for op in ops:
        for stale in op.removes:
            if os.path.exists(stale):
                os.remove(stale)
        t0 = time.perf_counter()
        try:
            out, error = op.run(state), None
        except Exception as exc:  # counted as a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        op_times.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = op.check(state, out)
            except Exception as exc:  # a check that cannot run fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(f"{op.name}: {error}")
        if on_result is not None:
            on_result(op, out)
        if op.keep:
            state[op.name] = out
        out = None
    return op_times, errors


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    mode = argv[2]
    ready = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")

    root = Path(spec["root"])
    _import_tfq(root)
    recorder = None
    if mode == "traced":
        recorder = spans.SpanRecorder()
        tracemalloc.start()
        spans.install(recorder)
        recorder.phase = "setup"

    wl = workloads.build(spec["workload"], spec["params"], spec["refs"], spec["workdir"])
    if recorder is not None:
        recorder.phase = "warmup"
    run_round(wl.ops)
    if recorder is not None:
        recorder.phase = None
    ready.write("ready\n")
    ready.flush()
    if mode == "setup":
        return 0

    inputs = {name: digest(value) for name, value in wl.inputs.items()}
    wl.prepare()
    outputs: dict = {}
    times: list[float] = []
    op_times: list[list[float]] = []
    failures: list[str] = []
    attempted = failed = 0
    seconds = float(spec["seconds"])
    cap = max(seconds, min(3.0 * seconds, 120.0))
    if recorder is not None:
        recorder.phase = "rounds"
    start = time.perf_counter()
    while True:
        record = None if times else (lambda op, out: outputs.__setitem__(op.name, digest(out)))
        round_op_times, errors = run_round(wl.ops, record)
        times.append(sum(round_op_times))
        op_times.append(round_op_times)
        attempted += len(wl.ops)
        failed += len(errors)
        failures.extend(errors[: max(0, 10 - len(failures))])
        wall = time.perf_counter() - start
        if (wall >= seconds and len(times) >= MIN_ROUNDS) or wall >= cap:
            break
    result = {
        "round_times": times,
        "op_times": op_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "ops_per_round": len(wl.ops),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "input_digests": inputs,
        "output_digests": outputs,
    }
    if recorder is not None:
        recorder.phase = None
        result["layer_metrics"] = spans.layer_metrics(
            recorder, len(times), spec["layer_metric_names"])
        spans_path = Path(argv[3]).with_suffix(".spans.jsonl")
        recorder.write(spans_path)
        result["spans_file"] = str(spans_path)
    tmp = Path(argv[3]).with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, argv[3])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
