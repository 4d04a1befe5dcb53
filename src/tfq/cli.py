"""Command-line front end.

Subcommands: synth, transform, kernel, norm, op, oracle, experiment.
Exit codes: 0 success, 2 usage or domain error, 3 I/O error, 4 numerical
accuracy not reached.  ``--json`` reports carry ``schema_version`` and
validate against ``schemas/report.schema.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as tfq_io
from .distributions import cohen, stft, wigner_grid
from .errors import AccuracyError, TfqError
from .gaussians import fourier_wigner_gaussian, wigner_gaussian
from .grid import PhaseSpaceGrid, TFMatrix, AMBIGUITY
from .kernels import ambiguity_multiplier, born_jordan_kernel, delta_kernel, tau_kernel
from .norms import (
    FREQUENCY_INNER,
    POSITION_INNER,
    MixedNormSpec,
    amalgam_norm,
    canonical_window,
    fit_loglog,
    ghost_energy_report,
    interference_region,
    modulation_norm,
    scaling_table,
)
from .operators import Symbol, apply as apply_operator
from .synth import KINDS, SignalRecipe, synth


def _exponent(text: str) -> float:
    if text == "oo":  # float reads inf, Inf, INF and infinity itself
        return float("inf")
    return float(text)


def _checked(convert, ok, what: str):
    """argparse type: convert the text, then reject values failing ``ok``
    (argparse names the flag and exits 2)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


def _exp_out(value: float):
    return "inf" if np.isinf(value) else value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tfq")
    sub = top.add_subparsers(dest="command", required=True)
    leaf = argparse.ArgumentParser(add_help=False)  # shared by the report commands
    leaf.add_argument("--json", action="store_true")
    finite = _checked(float, np.isfinite, "finite")

    p = sub.add_parser("synth", help="generate a test signal", parents=[leaf])
    p.add_argument("--kind", required=True,
                   choices=KINDS)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--dx", type=float, default=1.0 / 16.0)
    p.add_argument("--lam", type=float)
    for name in ("--t0", "--nu0", "--dt", "--dnu", "--nu1", "--nu2", "--rate"):
        p.add_argument(name, type=finite)
    p.add_argument("--path")
    p.add_argument("--output", required=True)

    p = sub.add_parser("transform", help="compute a distribution", parents=[leaf])
    p.add_argument("--method", required=True, choices=["stft", "wigner", "tau", "bj"])
    p.add_argument("--tau", type=float)
    p.add_argument("--input", required=True)
    p.add_argument("--cross")
    p.add_argument("--output", required=True)

    p = sub.add_parser("kernel", help="sample a kernel's ambiguity multiplier", parents=[leaf])
    p.add_argument("--kind", required=True, choices=["bj", "tau", "delta"])
    p.add_argument("--tau", type=float)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--dx", type=float, default=1.0 / 16.0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("norm", help="mixed norm of a signal", parents=[leaf])
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=_exponent, required=True)
    p.add_argument("--q", type=_exponent, required=True)
    p.add_argument("--amalgam", action="store_true")

    p = sub.add_parser("op", help="apply a quantized operator", parents=[leaf])
    p.add_argument("--rule", required=True, choices=["weyl", "bj", "tau"])
    p.add_argument("--tau", type=float)
    p.add_argument("--symbol", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("oracle", help="closed-form Gaussian references", parents=[leaf])
    p.add_argument("--which", required=True,
                   choices=["wigner", "fourier-plain", "fourier-symplectic"])
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--x", type=finite, default=0.0)
    p.add_argument("--w", type=finite, default=0.0)

    p = sub.add_parser("experiment", help="scaling and interference experiments")
    esub = p.add_subparsers(dest="experiment", required=True)

    ps = esub.add_parser("scaling", parents=[leaf])
    ps.add_argument("--family", required=True,
                    choices=["gaussian_mod", "gaussian_amalgam", "bump_amalgam"])
    ps.add_argument("--p", type=_exponent, required=True)
    ps.add_argument("--q", type=_exponent, required=True)
    dilation = _checked(float, lambda v: 0.0 < v < np.inf, "positive and finite")
    ps.add_argument("--lambda-min", type=dilation, required=True)
    ps.add_argument("--lambda-max", type=dilation, required=True)
    ps.add_argument("--points", type=_checked(int, lambda v: v >= 6, "at least 6"),
                    default=8)
    ps.add_argument("--output")

    pg = esub.add_parser("ghost", parents=[leaf])
    pg.add_argument("--signal", default="two_atoms", choices=["two_atoms"])
    pg.add_argument("--dt", type=finite, default=4.0)
    pg.add_argument("--dnu", type=finite, default=0.0)
    pg.add_argument("--n", type=int, default=512)
    pg.add_argument("--dx", type=float, default=1.0 / 16.0)
    pg.add_argument("--tau", type=float, default=0.0)
    pg.add_argument("--output")
    return top


_RECIPE_ARGS = ("lam", "t0", "nu0", "dt", "dnu", "nu1", "nu2", "rate", "path")


def _kernel(name: str, tau):
    """The kernel a CLI method, kind or rule name selects."""
    if name != "tau":
        if tau is not None:
            raise TfqError("--tau applies only to the tau kernel")
        return born_jordan_kernel() if name == "bj" else delta_kernel()
    if tau is None:
        raise TfqError("--tau is required for the tau kernel")
    return tau_kernel(tau)


def _cmd_synth(args) -> tuple[dict, list]:
    params = {k: getattr(args, k) for k in _RECIPE_ARGS if getattr(args, k) is not None}
    sig = synth(SignalRecipe(kind=args.kind, n=args.n, dx=args.dx, params=params))
    tfq_io.write_signal(sig, args.output, meta={"kind": args.kind})
    return {"output": args.output}, [f"wrote {args.output} ({sig.n} samples)"]


def _cmd_transform(args) -> tuple[dict, list]:
    if args.method == "stft" and args.cross:
        raise TfqError("--cross needs a Cohen-class method (wigner, tau or bj), not stft")
    kernel = _kernel(args.method, args.tau)  # stft takes no kernel, and so no --tau
    f = tfq_io.read_signal(args.input)
    g = tfq_io.read_signal(args.cross) if args.cross else None
    if args.method == "stft":
        out = stft(f, canonical_window(f))
    else:
        out = cohen(f, g, kernel)
    tfq_io.write_matrix(out, args.output)
    return {"output": args.output}, [f"wrote {args.output} ({out.grid.nx} x {out.grid.nw})"]


def _cmd_kernel(args) -> tuple[dict, list]:
    kernel = _kernel(args.kind, args.tau)
    grid = PhaseSpaceGrid.dft_compatible(args.n, args.dx)
    vals = ambiguity_multiplier(kernel, grid.x_axis[:, None], grid.w_axis[None, :])
    tfq_io.write_matrix(TFMatrix(vals, grid, AMBIGUITY), args.output)
    return {"output": args.output}, [f"wrote {args.output} ({kernel.label})"]


def _cmd_norm(args) -> tuple[dict, list]:
    f = tfq_io.read_signal(args.input)
    spec = MixedNormSpec(args.p, args.q)
    value = amalgam_norm(f, spec) if args.amalgam else modulation_norm(f, spec)
    fields = {
        "value": value,
        "p": _exp_out(args.p),
        "q": _exp_out(args.q),
        "nesting": FREQUENCY_INNER if args.amalgam else POSITION_INNER,
        "input": args.input,
    }
    return fields, [f"{value!r}"]


def _cmd_op(args) -> tuple[dict, list]:
    a = Symbol(tfq_io.read_matrix(args.symbol))
    f = tfq_io.read_signal(args.input)
    out = apply_operator(a, _kernel(args.rule, args.tau), f)
    tfq_io.write_signal(out, args.output)
    return {"output": args.output}, [f"wrote {args.output}"]


@np.errstate(all="ignore")  # a value that over- or underflows to NaN exits 2 below
def _cmd_oracle(args) -> tuple[dict, list]:
    if args.which == "wigner":
        value = complex(wigner_gaussian(args.lam, args.x, args.w))
    else:
        variant = "plain" if args.which == "fourier-plain" else "symplectic"
        value = complex(fourier_wigner_gaussian(args.lam, args.x, args.w, variant))
    if not np.isfinite(value):
        raise TfqError(f"the {args.which} oracle is not finite there, got {value!r}")
    fields = {
        "which": args.which,
        "lam": args.lam,
        "at": [args.x, args.w],
        "re": value.real,
        "im": value.imag,
    }
    return fields, [f"{value!r}"]


def _cmd_experiment(args) -> tuple[dict, list]:
    if args.experiment == "scaling":
        spec = MixedNormSpec(args.p, args.q)
        lams = np.geomspace(args.lambda_min, args.lambda_max, args.points)
        table = scaling_table(args.family, spec, lams)
        fit = fit_loglog([t[0] for t in table], [t[1] for t in table])
        fields = {
            "family": args.family,
            "p": _exp_out(args.p),
            "q": _exp_out(args.q),
            "exponent": fit.exponent,
            "stderr": fit.stderr,
            "lambda_min": fit.lam_range[0],
            "lambda_max": fit.lam_range[1],
            "points": fit.points,
            "table": [{"lambda": l, "norm": v} for l, v in table],
        }
        return fields, [f"exponent {fit.exponent:+.6f} +- {fit.stderr:.6f} "
                        f"({fit.points} points)"]
    f = synth(SignalRecipe(kind="two_atoms", n=args.n, dx=args.dx,
                           params={"dt": args.dt, "dnu": args.dnu}))
    region = interference_region(0.0, 0.0, wigner_grid(f))
    rows = ghost_energy_report(
        f, [born_jordan_kernel(), tau_kernel(args.tau)], region
    )
    fields = {
        "signal": args.signal,
        "region": {"x_lo": region.x_lo, "x_hi": region.x_hi,
                   "w_lo": region.w_lo, "w_hi": region.w_hi},
        "rows": [
            {"kernel": r.kernel_label, "energy": r.energy,
             "ratio_vs_wigner": r.ratio_vs_wigner}
            for r in rows
        ],
    }
    return fields, [f"{r.kernel_label:12s} energy={r.energy:.6e} "
                    f"ratio={r.ratio_vs_wigner:.6f}" for r in rows]


# each returns its report: the --json fields after the envelope, and the text lines
_HANDLERS = {
    "synth": _cmd_synth,
    "transform": _cmd_transform,
    "kernel": _cmd_kernel,
    "norm": _cmd_norm,
    "op": _cmd_op,
    "oracle": _cmd_oracle,
    "experiment": _cmd_experiment,
}


def run(argv) -> int:
    """Parse, dispatch and print the handler's report (an experiment's
    ``--output`` gets the ``--json`` text); returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # an overflow or a NaN (a huge sample, say) exits 2 before anything is written
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            fields, lines = _HANDLERS[args.command](args)
        kind = getattr(args, "experiment", args.command)  # experiments report their own kind
        text = json.dumps({"schema_version": "1", "report": kind, **fields}, indent=2)
        if args.command == "experiment" and args.output:
            tfq_io._atomic_write({args.output: [text.encode()]})
    except AccuracyError as exc:
        print(f"accuracy error: {exc} (achieved {exc.achieved:.3e})", file=sys.stderr)
        return 4
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (TfqError, MemoryError, FloatingPointError) as exc:  # numpy: too large, inf or NaN
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text if args.json else "\n".join(lines))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
