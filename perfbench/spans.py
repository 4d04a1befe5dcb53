"""Span recorder for the traced run, attached to ``tfq`` from outside.

``install`` wraps every public function of each ``tfq`` layer module and
rebinds the wrapper in every ``tfq`` module namespace that holds the
function.  Modules import each other's functions by name (``from .grid
import symplectic_fourier``), so rebinding there is what makes nested calls
such as ``cohen -> wigner -> symplectic_fourier`` record nested spans.

Spans (name, start, end, parent, phase, traced-memory peak, counters) stay
in memory until ``write`` at the end of the run.  A span's self time is its
duration minus that of its direct children; the library runs these calls
on one thread (``TFQ_THREADS`` unset), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("grid", "distributions", "kernels", "special", "operators", "norms",
          "io", "cli", "synth", "gaussians")

MB = float(1 << 20)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _signal_files(path) -> tuple:
    return (path, os.path.splitext(str(path))[0] + ".json")


# Counters recorded after a call returns, outside its span's time.
COUNTERS = {
    "io.write_matrix": lambda args, out: {"bytes": _file_bytes(args[1])},
    "io.read_matrix": lambda args, out: {"bytes": _file_bytes(args[0])},
    "io.write_signal": lambda args, out: {"bytes": _file_bytes(*_signal_files(args[1]))},
    "io.read_signal": lambda args, out: {"bytes": _file_bytes(*_signal_files(args[0]))},
    "special.cosine_integral": lambda args, out: {"evals": int(np.size(args[0]))},
    "special.sine_integral": lambda args, out: {"evals": int(np.size(args[0]))},
    "kernels.vg_theta_grid": lambda args, out: {"err": float(out[1])},
    "distributions.born_jordan": lambda args, out: {"n": args[0].n},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    phase: str
    peak_bytes: int = 0
    counters: dict = field(default_factory=dict)


class _Frame:
    __slots__ = ("id", "base", "peak")

    def __init__(self, span_id: int, base: int):
        self.id = span_id
        self.base = base
        self.peak = base


class SpanRecorder:
    """Collects spans while ``phase`` is set; passes calls straight through
    when it is ``None``.  Each span also records the ``tracemalloc`` peak
    reached inside it, above its starting level; the caller starts
    ``tracemalloc``."""

    def __init__(self):
        self.phase: str | None = None
        self.spans: list[Span] = []
        self._stack: list[_Frame] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, counter, args, kwargs)

        return traced

    def _call(self, name, fn, counter, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        base, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        frame = _Frame(len(self.spans), base)
        span = Span(frame.id, name, 0.0, 0.0, parent.id if parent else None, self.phase)
        self.spans.append(span)
        self._stack.append(frame)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = frame.peak - frame.base
            if parent is not None:
                parent.peak = max(parent.peak, frame.peak)
            tracemalloc.reset_peak()
        if counter is not None:
            span.counters = counter(args, out)
        return out

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def install(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every layer in ``recorder``'s spans."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tfq.{layer}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrappers[id(obj)] = (obj, recorder.wrap(f"{layer}.{name}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "tfq" and not modname.startswith("tfq."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


@dataclass
class _Totals:
    self_s: float = 0.0
    calls: int = 0
    peak_bytes: int = 0
    bytes: int = 0
    evals: int = 0
    err: float = 0.0
    n2: float = 0.0


# stat name -> value from a function's totals and the number of rounds
STATS = {
    "self_s": lambda t, per: t.self_s / per,
    "calls": lambda t, per: t.calls / per,
    "bytes": lambda t, per: t.bytes / per,
    "peak_mb": lambda t, per: t.peak_bytes / MB,
    "err_max": lambda t, per: t.err,
    "n2_peak": lambda t, per: t.n2,
    "evals_per_s": lambda t, per: t.evals / t.self_s if t.self_s > 0 else 0.0,
}


def layer_metrics(recorder: SpanRecorder, rounds: int, names) -> dict:
    """Values of the per-layer metrics ``<layer>.<function>.<stat>``.

    Spans of the ``rounds`` phase count, and ``self_s``, ``calls`` and
    ``bytes`` are per round; ``peak_mb`` and ``err_max`` are maxima over
    calls; ``evals_per_s`` is evaluations over self time; ``n2_peak`` is the
    largest traced peak over 16 n^2 bytes.  ``synth.synth.self_s`` comes
    from the set-up phase, where the inputs are synthesised.  Names with a
    stat not in ``STATS`` are skipped.
    """
    totals: dict = {}
    for s, own in zip(recorder.spans, recorder.self_times()):
        t = totals.setdefault((s.phase, s.name), _Totals())
        t.self_s += own
        t.calls += 1
        t.peak_bytes = max(t.peak_bytes, s.peak_bytes)
        t.bytes += s.counters.get("bytes", 0)
        t.evals += s.counters.get("evals", 0)
        t.err = max(t.err, s.counters.get("err", 0.0))
        if "n" in s.counters:
            t.n2 = max(t.n2, s.peak_bytes / (16.0 * s.counters["n"] ** 2))
    out = {}
    for metric in names:
        fn_name, stat = metric.rsplit(".", 1)
        if stat not in STATS:
            continue
        phase, per = ("setup", 1) if fn_name == "synth.synth" else ("rounds", max(rounds, 1))
        out[metric] = STATS[stat](totals.get((phase, fn_name), _Totals()), per)
    return out
