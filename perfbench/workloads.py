"""The four benchmark workloads: seeded inputs, job lists and reference checks.

Each workload has three parts, run in different processes:

* ``draw_params(workload, seed, size)`` turns the seed into the drawn
  parameters (signal recipes, lambda values, tau, symbols, zeta points).  It
  uses numpy only, so the parent process (``run.py``) never imports
  ``tfq``.
* ``references(workload, params)`` computes the references that come from
  outside the library (``mpmath`` Ci/Si values).  The parent process calls
  it before any worker starts, so it is neither set-up nor timed work.
* ``build(workload, params, refs, workdir)`` runs in the worker process.
  It synthesises the inputs through ``tfq`` (part of set-up) and returns a
  :class:`Workload`: the fixed list of operations one round runs, plus a
  ``prepare`` step that evaluates the closed-form references once, after
  set-up and before the timed rounds.

Every operation is one call into the ``tfq`` public API.  Its check runs
after the call, outside the timed region, against a fixed tolerance; a
check returns ``None`` when the output is correct and a message otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

WORKLOADS = ("auto_dist", "cross_ops_io", "dilation_sweeps", "kernel_quadrature")

INF = float("inf")
DX = 1.0 / 16.0

# Acceptance criterion 5: (family, p, q, direction, target exponent).
SCALING_CASES = (
    ("gaussian_mod", 2.0, 2.0, "up", -0.25),
    ("gaussian_mod", 1.0, INF, "up", -0.5),
    ("gaussian_mod", INF, 1.0, "up", 0.0),
    ("gaussian_mod", 2.0, 2.0, "down", -0.25),
    ("gaussian_mod", 1.0, INF, "down", -0.5),
    ("gaussian_mod", INF, 1.0, "down", 0.0),
    ("bump_amalgam", 2.0, 2.0, "up", -0.25),
    ("bump_amalgam", 1.0, INF, "up", 0.0),
    ("bump_amalgam", INF, 1.0, "up", -0.5),
    ("bump_amalgam", 2.0, 2.0, "down", -0.25),
    ("bump_amalgam", 1.0, INF, "down", 0.0),
    ("bump_amalgam", INF, 1.0, "down", -0.5),
)

# Problem sizes.  "full" is what the benchmark measures; "tiny" keeps every
# check meaningful and exists for the benchmark's own tests.
SIZES = {
    "full": {
        "auto_dist": {"n_wigner": 2048, "n_bj": 1024, "n_cohen": 512, "n_ghost": 512},
        "cross_ops_io": {"n_cross": 1024, "n_op": 256},
        "dilation_sweeps": {"lam_lo": 8.0, "lam_hi": 32.0, "points": 6},
        "kernel_quadrature": {
            "ci_per_branch": 65536, "ci_checked": 64, "n_direct": 256,
            "vg_points": 3, "growth_radii": 8,
        },
    },
    "tiny": {
        "auto_dist": {"n_wigner": 512, "n_bj": 512, "n_cohen": 512, "n_ghost": 512},
        "cross_ops_io": {"n_cross": 512, "n_op": 256},
        "dilation_sweeps": {"lam_lo": 4.0, "lam_hi": 16.0, "points": 6},
        "kernel_quadrature": {
            "ci_per_branch": 2048, "ci_checked": 16, "n_direct": 256,
            "vg_points": 1, "growth_radii": 4,
        },
    },
}

# Ci/Si branch strata (series up to 4, panel quadrature to 32, asymptotic
# beyond), so every seed puts the same number of points on each branch.
CI_STRATA = ((1e-8, 4.0), (4.0, 32.0), (32.0, 1e4))

VG_AXIS_SPACING = 0.5
VG_Z_MAGNITUDES = ((2.0, 1.0), (0.5, 2.5), (1.5, 1.5))
# theta_growth_integral's panel count grows with R^2, so the radii are fixed
GROWTH_R0 = 3.0
VG_TOL = 1e-6


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


# ---------------------------------------------------------------------------
# seed -> drawn parameters (parent process, numpy only)

def draw_params(workload: str, seed: int, size: str = "full") -> dict:
    """Drawn parameters of one run; the same seed gives the same dict."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sz = dict(SIZES[size][workload])
    if workload == "auto_dist":
        return {
            "sizes": sz,
            "gaussian": {"lam": _log_uniform(rng, 0.5, 2.0)},
            "gabor_atom": {
                "t0": float(rng.uniform(-1.0, 1.0)),
                "nu0": float(rng.uniform(-1.0, 1.0)),
                "lam": _log_uniform(rng, 0.5, 2.0),
            },
            "chirp": {"rate": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.0))},
            "cohen_tau": float(rng.uniform(0.1, 0.9)),
            "two_atoms": {"dt": float(rng.uniform(3.0, 5.0)),
                          "dnu": float(rng.uniform(0.0, 1.0))},
            "ghost_tau": float(rng.uniform(0.1, 0.9)),
        }
    if workload == "cross_ops_io":
        bumps = [
            {
                "cx": float(rng.uniform(-1.0, 1.0)),
                "cw": float(rng.uniform(-1.0, 1.0)),
                "amp": [float(rng.normal()), float(rng.normal())],
            }
            for _ in range(4)
        ]
        return {
            "sizes": sz,
            "cross_lam": _log_uniform(rng, 0.25, 4.0),
            "op_signal": {"t0": float(rng.uniform(-0.4, 0.4)),
                          "nu0": float(rng.uniform(-0.3, 0.3)),
                          "lam": _log_uniform(rng, 1.0, 1.25)},
            "probe_signal": {"t0": float(rng.uniform(-0.4, 0.4)),
                             "nu0": float(rng.uniform(-1.0, 1.0)),
                             "lam": _log_uniform(rng, 1.0, 1.5)},
            "symbol_bumps": bumps,
            "op_tau": float(rng.uniform(0.1, 0.9)),
        }
    if workload == "dilation_sweeps":
        cases = []
        for family in ("gaussian_mod", "bump_amalgam"):
            for direction in ("up", "down"):
                pool = [i for i, c in enumerate(SCALING_CASES)
                        if c[0] == family and c[3] == direction]
                cases.append(int(rng.choice(pool)))
        order = [int(i) for i in rng.permutation(len(cases))]
        return {"sizes": sz, "cases": [cases[i] for i in order]}
    # kernel_quadrature
    half = 6.0
    centres = np.arange(-half, half, VG_AXIS_SPACING) + VG_AXIS_SPACING / 2
    # The panel count of vg_theta_grid grows with |z1|, |z2|, so they are
    # fixed; the seed draws the quadrant of each z and whether its two
    # coordinates swap, which leaves the work unchanged on the symmetric axis.
    zs = []
    for k in range(sz["vg_points"]):
        mag = VG_Z_MAGNITUDES[k % len(VG_Z_MAGNITUDES)]
        if rng.integers(2):
            mag = mag[::-1]
        zs.append([float(m * rng.choice([-1.0, 1.0])) for m in mag])
    return {
        "sizes": sz,
        "points_seed": int(rng.integers(2**31)),
        "direct_signal": {"t0": float(rng.uniform(-0.25, 0.25)),
                          "nu0": float(rng.uniform(-0.5, 0.5)),
                          "lam": _log_uniform(rng, 0.75, 1.0)},
        "vg_axis": [float(c) for c in centres],
        "vg_z": zs,
        "growth_p": [float(rng.uniform(1.0, 2.0)), float(rng.uniform(2.0, 8.0))],
    }


def quadrature_points(params: dict) -> tuple[np.ndarray, np.ndarray]:
    """The Ci/Si argument array and the indices checked against mpmath,
    the same number on each branch stratum."""
    sz = params["sizes"]
    rng = np.random.default_rng(params["points_seed"])
    count = sz["ci_per_branch"]
    blocks, checked = [], []
    for k, (lo, hi) in enumerate(CI_STRATA):
        blocks.append(np.exp(rng.uniform(np.log(lo), np.log(hi), size=count)))
        checked.append(k * count + np.sort(rng.choice(count, sz["ci_checked"], replace=False)))
    return np.concatenate(blocks), np.concatenate(checked)


def references(workload: str, params: dict) -> dict:
    """References from outside the library: ``mpmath`` Ci and Si values."""
    if workload != "kernel_quadrature":
        return {}
    import mpmath

    t, idx = quadrature_points(params)
    with mpmath.workdps(30):
        ci = [float(mpmath.ci(mpmath.mpf(float(t[i])))) for i in idx]
        si = [float(mpmath.si(mpmath.mpf(float(t[i])))) for i in idx]
    return {"ci": ci, "si": si}


# ---------------------------------------------------------------------------
# worker side

@dataclass
class Op:
    """One call into the library, and the check of its output.

    ``run(state)`` is timed; ``check(state, out)`` is not.  ``state`` holds
    the outputs of earlier operations of the same round under their names,
    for operations marked ``keep``.  The files in ``removes`` are deleted
    before the call, untimed, so that the check reads what this call wrote
    and not a file left by an earlier round.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], Optional[str]]
    keep: bool = False
    removes: tuple = ()


@dataclass
class Workload:
    inputs: dict
    ops: list
    prepare: Callable[[], None] = lambda: None


def _sup_rel(got, ref) -> float:
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _within(label: str, value: float, bound: float) -> Optional[str]:
    if np.isfinite(value) and value < bound:
        return None
    return f"{label} {value:.3e} exceeds {bound:.1e}"


def _realness(m) -> Optional[str]:
    v = m.values
    return _within("diagonal realness residual",
                   float(np.abs(v.imag).max() / np.abs(v.real).max()), 1e-9)


def _spectrum(sig, w_axis) -> np.ndarray:
    """Direct-sum Fourier transform of a sampled signal at the given w."""
    return np.exp(-2j * np.pi * np.outer(w_axis, sig.axis)) @ sig.samples * sig.dx


def _marginal_refs(f, g, grid) -> tuple[np.ndarray, np.ndarray]:
    return (f.samples * np.conj(g.samples),
            _spectrum(f, grid.w_axis) * np.conj(_spectrum(g, grid.w_axis)))


def _marginals(m, refs, tol: float = 1e-5) -> Optional[str]:
    ref_x, ref_w = refs
    got_x = m.values.sum(axis=1) * m.grid.dw
    got_w = m.values.sum(axis=0) * m.grid.dx
    return (_within("x marginal error", _sup_rel(got_x, ref_x), tol)
            or _within("w marginal error", _sup_rel(got_w, ref_w), tol))


def build(workload: str, params: dict, refs: dict, workdir: str) -> Workload:
    return _BUILDERS[workload](params, refs, workdir)


def _auto_dist(params: dict, refs: dict, workdir: str) -> Workload:
    import tfq
    from tfq.synth import SignalRecipe

    sz = params["sizes"]

    def recipe(kind, n, p):
        return tfq.synth(SignalRecipe(kind=kind, n=n, dx=DX, params=dict(p)))

    inputs = {
        "gaussian": recipe("gaussian", sz["n_wigner"], params["gaussian"]),
        "gabor_atom": recipe("gabor_atom", sz["n_bj"], params["gabor_atom"]),
        "chirp": recipe("chirp", sz["n_cohen"], params["chirp"]),
        "two_atoms": recipe("two_atoms", sz["n_ghost"], params["two_atoms"]),
    }
    gauss, atom, chirp, pair = (inputs[k] for k in inputs)
    cohen_kernel = tfq.tau_kernel(params["cohen_tau"])
    ghost_kernels = [tfq.born_jordan_kernel(), tfq.tau_kernel(params["ghost_tau"])]
    region = tfq.interference_region(0.0, 0.0, tfq.wigner_grid(pair))
    ref = {}

    def prepare():
        grid = tfq.wigner_grid(gauss)
        quarter = slice(3 * gauss.n // 8, 5 * gauss.n // 8)
        ref["quarter"] = quarter
        ref["wigner"] = tfq.wigner_gaussian_diag(
            params["gaussian"]["lam"],
            grid.x_axis[quarter, None], grid.w_axis[None, quarter])
        ref["bj"] = _marginal_refs(atom, atom, tfq.wigner_grid(atom))
        ref["cohen"] = _marginal_refs(chirp, chirp, tfq.wigner_grid(chirp))

    def check_wigner(state, out):
        q = ref["quarter"]
        return (_realness(out) or _within(
            "closed-form error", _sup_rel(out.values[q, q], ref["wigner"]), 1e-6))

    def check_ghost(state, out):
        ratio = out[1].ratio_vs_wigner
        return None if ratio < 0.5 else f"ghost ratio {ratio:.3f} not below 0.5"

    ops = [
        Op(f"wigner@{gauss.n}", lambda s: tfq.wigner(gauss), check_wigner),
        Op(f"born_jordan@{atom.n}", lambda s: tfq.born_jordan(atom),
           lambda s, out: _realness(out) or _marginals(out, ref["bj"])),
        Op(f"cohen_tau@{chirp.n}", lambda s: tfq.cohen(chirp, chirp, cohen_kernel),
           lambda s, out: _marginals(out, ref["cohen"])),
        Op(f"ghost_energy_report@{pair.n}",
           lambda s: tfq.ghost_energy_report(pair, ghost_kernels, region), check_ghost),
    ]
    return Workload(inputs, ops, prepare)


def _same_signal(a, b) -> bool:
    return (np.array_equal(a.samples, b.samples)
            and a.x0 == b.x0 and a.dx == b.dx)


def _same_matrix(a, b) -> bool:
    return (np.array_equal(a.values, b.values) and a.grid == b.grid
            and a.domain_tag == b.domain_tag)


def _same_bytes(a, b) -> bool:
    return Path(a).read_bytes() == Path(b).read_bytes()


def _cross_ops_io(params: dict, refs: dict, workdir: str) -> Workload:
    import tfq
    import tfq.cli
    from tfq.synth import SignalRecipe

    sz = params["sizes"]
    lam = params["cross_lam"]
    n = sz["n_cross"]
    f = tfq.synth(SignalRecipe(kind="gaussian", n=n, dx=DX, params={"lam": 1.0}))
    g = tfq.synth(SignalRecipe(kind="gaussian", n=n, dx=DX, params={"lam": lam}))
    fs = tfq.synth(SignalRecipe(kind="gabor_atom", n=sz["n_op"], dx=DX,
                                params=params["op_signal"]))
    probe = tfq.synth(SignalRecipe(kind="gabor_atom", n=sz["n_op"], dx=DX,
                                   params=params["probe_signal"]))
    def bumps(x, w):
        vals = np.zeros(np.broadcast(x, w).shape, dtype=complex)
        for b in params["symbol_bumps"]:
            amp = complex(*b["amp"])
            vals += amp * np.exp(-np.pi * ((x - b["cx"]) ** 2 + (w - b["cw"]) ** 2) / 0.8**2)
        return vals

    a = tfq.Symbol.sample(bumps, tfq.symbol_grid_for(fs))
    # criterion 4's intertwining: Op(a o J) f = F^-1 Op(a) F f
    a_rot = tfq.Symbol.sample(lambda x, w: bumps(w, -x), tfq.symbol_grid_for(fs))
    a_dual = tfq.Symbol.sample(bumps, tfq.symbol_grid_for(tfq.dft(fs)))
    rules = {"weyl": tfq.weyl_rule(), "bj": tfq.born_jordan_rule(),
             "tau": tfq.tau_rule(params["op_tau"])}
    inputs = {"f": f, "g": g, "op_signal": fs, "probe_signal": probe, "symbol": a.matrix}

    path = {name: os.path.join(workdir, name) for name in (
        "f.csv", "g.csv", "bj.mat", "cli_bj.mat", "symbol.mat", "op_in.csv",
        "op_lib.csv", "op_cli.csv")}
    # the CLI operator call reads its symbol and signal from files
    tfq.io.write_matrix(a.matrix, path["symbol.mat"])
    tfq.io.write_signal(fs, path["op_in.csv"])
    ref = {}

    def prepare():
        wg = tfq.wigner_grid(f)
        quarter = slice(3 * n // 8, 5 * n // 8)
        ref["quarter"] = quarter
        ref["wigner"] = tfq.wigner_gaussian(lam, wg.x_axis[quarter, None],
                                            wg.w_axis[None, quarter])
        ref["bj"] = _marginal_refs(f, g, wg)
        ref["weak"] = {k: tfq.weak_apply(a, r, fs, probe) for k, r in rules.items()}

    def check_wigner(state, out):
        q = ref["quarter"]
        return _within("closed-form error", _sup_rel(out.values[q, q], ref["wigner"]), 1e-6)

    def weak_pairing(rule):
        def check(state, out):
            if isinstance(out, np.ndarray):
                out = fs.with_samples(out @ fs.samples)
            want = ref["weak"][rule]
            err = abs(out.inner(probe) - want) / max(1.0, abs(want))
            return _within(f"{rule} weak-pairing error", err, 1e-8)
        return check

    def check_identity(state, out):
        m_bj = state["operator_matrix_bj"]
        return _within("BJ = Weyl o symbol_transform error",
                       float(np.abs(m_bj - out).max() / np.abs(m_bj).max()), 1e-6)

    def check_adjoint(state, out):
        m_bj = state["operator_matrix_bj"]
        return _within("adjoint-law error",
                       float(np.abs(out - m_bj.conj().T).max() / np.abs(m_bj).max()), 1e-8)

    def check_contraction(state, out):
        if out.matrix.l2_norm() <= a.matrix.l2_norm() * (1 + 1e-12):
            return None
        return "symbol_transform enlarged the L2 norm"

    def check_parseval(state, out):
        return _within("Parseval error", abs(out.energy() / fs.energy() - 1.0), 1e-12)

    def check_intertwining(state, out):
        lhs = state["apply_weyl_rotated"].samples
        return _within("intertwining error", _sup_rel(out.samples, lhs), 1e-5)

    def files(*names) -> tuple:
        """The paths of the named files, with the sidecar of each signal."""
        out = []
        for name in names:
            out.append(path[name])
            if name.endswith(".csv"):
                out.append(str(tfq.io.sidecar_path(path[name])))
        return tuple(out)

    def check_written(*names):
        def check(state, out):
            missing = [p for p in files(*names) if not os.path.exists(p)]
            return f"not written: {missing}" if missing else None
        return check

    def check_read_signal(orig):
        return lambda state, out: None if _same_signal(out, orig) else "signal round trip differs"

    def check_cli(lib_name, cli_name):
        def check(state, out):
            if out != 0:
                return f"cli exit code {out}"
            if all(_same_bytes(*p) for p in zip(files(lib_name), files(cli_name))):
                return None
            return "cli output differs from the library call"
        return check

    cli_transform = ["transform", "--method", "bj", "--input", path["f.csv"],
                     "--cross", path["g.csv"], "--output", path["cli_bj.mat"]]
    cli_op = ["op", "--rule", "bj", "--symbol", path["symbol.mat"],
              "--input", path["op_in.csv"], "--output", path["op_cli.csv"]]
    ops = [
        Op(f"wigner_cross@{n}", lambda s: tfq.wigner(f, g), check_wigner),
        Op(f"born_jordan_cross@{n}", lambda s: tfq.born_jordan(f, g),
           lambda s, out: _marginals(out, ref["bj"]), keep=True),
        Op("write_matrix", lambda s: tfq.io.write_matrix(s[f"born_jordan_cross@{n}"],
                                                           path["bj.mat"]),
           check_written("bj.mat"), removes=files("bj.mat")),
        Op("read_matrix", lambda s: tfq.io.read_matrix(path["bj.mat"]),
           lambda s, out: None if _same_matrix(out, s[f"born_jordan_cross@{n}"])
           else "matrix round trip differs"),
        Op("write_signal_f", lambda s: tfq.io.write_signal(f, path["f.csv"]),
           check_written("f.csv"), removes=files("f.csv")),
        Op("write_signal_g", lambda s: tfq.io.write_signal(g, path["g.csv"]),
           check_written("g.csv"), removes=files("g.csv")),
        Op("read_signal_f", lambda s: tfq.io.read_signal(path["f.csv"]), check_read_signal(f)),
        Op("read_signal_g", lambda s: tfq.io.read_signal(path["g.csv"]), check_read_signal(g)),
        Op("cli_transform_bj_cross", lambda s: tfq.cli.run(cli_transform),
           check_cli("bj.mat", "cli_bj.mat"), removes=files("cli_bj.mat")),
        Op("operator_matrix_weyl", lambda s: tfq.operator_matrix(a, rules["weyl"]),
           weak_pairing("weyl")),
        Op("operator_matrix_bj", lambda s: tfq.operator_matrix(a, rules["bj"]),
           weak_pairing("bj"), keep=True),
        Op("operator_matrix_tau", lambda s: tfq.operator_matrix(a, rules["tau"]),
           weak_pairing("tau")),
        Op("symbol_transform", lambda s: tfq.symbol_transform(a), check_contraction,
           keep=True),
        Op("operator_matrix_weyl_of_transform",
           lambda s: tfq.operator_matrix(s["symbol_transform"], rules["weyl"]),
           check_identity),
        Op("operator_matrix_bj_conj", lambda s: tfq.operator_matrix(a.conj(), rules["bj"]),
           check_adjoint),
        Op("apply_weyl", lambda s: tfq.apply(a, rules["weyl"], fs), weak_pairing("weyl")),
        Op("apply_tau", lambda s: tfq.apply(a, rules["tau"], fs), weak_pairing("tau")),
        Op("apply_bj", lambda s: tfq.apply(a, rules["bj"], fs), weak_pairing("bj"),
           keep=True),
        # the two applies are checked through the intertwining identity
        Op("apply_weyl_rotated", lambda s: tfq.apply(a_rot, rules["weyl"], fs),
           lambda s, out: None, keep=True),
        Op("dft_forward", lambda s: tfq.dft(fs), check_parseval, keep=True),
        Op("apply_weyl_dual", lambda s: tfq.apply(a_dual, rules["weyl"], s["dft_forward"]),
           lambda s, out: None, keep=True),
        Op("dft_inverse", lambda s: tfq.dft(s["apply_weyl_dual"], "inverse"),
           check_intertwining),
        Op("write_signal_op", lambda s: tfq.io.write_signal(s["apply_bj"], path["op_lib.csv"]),
           check_written("op_lib.csv"), removes=files("op_lib.csv")),
        Op("read_signal_op", lambda s: tfq.io.read_signal(path["op_lib.csv"]),
           lambda s, out: None if _same_signal(out, s["apply_bj"])
           else "signal round trip differs"),
        Op("cli_op_bj", lambda s: tfq.cli.run(cli_op), check_cli("op_lib.csv", "op_cli.csv"),
           removes=files("op_cli.csv")),
    ]
    return Workload(inputs, ops, prepare)


def _dilation_sweeps(params: dict, refs: dict, workdir: str) -> Workload:
    import tfq

    sz = params["sizes"]
    grid = np.geomspace(sz["lam_lo"], sz["lam_hi"], sz["points"])
    ops = []
    inputs = {}
    for index in params["cases"]:
        family, p, q, direction, target = SCALING_CASES[index]
        lams = grid if direction == "up" else 1.0 / grid
        spec = tfq.MixedNormSpec(p, q)
        inputs[f"case{index}"] = lams

        def check(state, fit, target=target):
            return (_within("exponent error", abs(fit.exponent - target), 0.05)
                    or _within("fit stderr", fit.stderr, 0.05))

        ops.append(Op(f"scaling_{family}_{direction}_p{p:g}_q{q:g}",
                      lambda s, family=family, spec=spec, lams=lams:
                      tfq.scaling_experiment(family, spec, lams),
                      check))
    return Workload(inputs, ops)


def _kernel_quadrature(params: dict, refs: dict, workdir: str) -> Workload:
    import tfq
    from tfq.synth import SignalRecipe

    sz = params["sizes"]
    t, idx = quadrature_points(params)
    sig = tfq.synth(SignalRecipe(kind="gabor_atom", n=sz["n_direct"], dx=DX,
                                 params=params["direct_signal"]))
    axis = np.asarray(params["vg_axis"])
    radii = [GROWTH_R0 * 2.0**k for k in range(sz["growth_radii"])]
    inputs = {"t": t, "direct_signal": sig, "vg_axis": axis}
    ref = {}

    def prepare():
        ref["bj"] = tfq.born_jordan(sig)

    def special(kind):
        want = np.asarray(refs[kind])

        def check(state, out):
            if not np.all(np.isfinite(out)):
                return f"non-finite {kind} value"
            err = np.abs(out[idx] - want) / np.maximum(1.0, np.abs(want))
            return _within(f"{kind} error vs mpmath", float(err.max()), 1e-10)
        return check

    def check_direct(state, out):
        qm = ref["bj"].values
        rel = float(np.linalg.norm(qm - out.values) / np.linalg.norm(qm))
        return _within("dual-route relative L2 error", rel, 2e-3)

    def vg_mass(vals) -> float:
        return float(np.sum(np.abs(vals)) * VG_AXIS_SPACING**2)

    def check_vg(state, out):
        vals, err = out
        bad = _within("vg_theta_grid error estimate", err, VG_TOL)
        if bad or not np.all(np.isfinite(vals)):
            return bad or "non-finite vg_theta_grid value"
        base = state.get("vg_theta_grid_z0")
        if base is None:
            return "no z = 0 reference in this round"
        if vg_mass(vals) > 1.05 * vg_mass(base[0]):
            return "window mass exceeds the z = 0 bound by more than 5%"
        return None

    def check_growth(prev_name):
        def check(state, out):
            if not (np.isfinite(out) and out > 0.0):
                return f"growth integral {out!r} not positive"
            if prev_name is not None and not out > state[prev_name]:
                return "growth integral not increasing in R"
            return None
        return check

    ops = [
        Op("cosine_integral", lambda s: tfq.cosine_integral(t), special("ci")),
        Op("sine_integral", lambda s: tfq.sine_integral(t), special("si")),
        Op(f"born_jordan_direct@{sig.n}", lambda s: tfq.born_jordan_direct(sig), check_direct),
        Op("vg_theta_grid_z0", lambda s: tfq.vg_theta_grid(0.0, 0.0, axis, axis, tol=VG_TOL),
           lambda s, out: _within("vg_theta_grid error estimate", out[1], VG_TOL), keep=True),
    ]
    for k, (z1, z2) in enumerate(params["vg_z"]):
        ops.append(Op(f"vg_theta_grid_z{k + 1}",
                      lambda s, z1=z1, z2=z2: tfq.vg_theta_grid(z1, z2, axis, axis, tol=VG_TOL),
                      check_vg))
    for j, p in enumerate(params["growth_p"]):
        prev = None
        for k, r in enumerate(radii):
            name = f"theta_growth_p{j}_r{k}"
            ops.append(Op(name, lambda s, p=p, r=r: tfq.theta_growth_integral(p, r),
                          check_growth(prev), keep=True))
            prev = name
    return Workload(inputs, ops, prepare)


_BUILDERS = {
    "auto_dist": _auto_dist,
    "cross_ops_io": _cross_ops_io,
    "dilation_sweeps": _dilation_sweeps,
    "kernel_quadrature": _kernel_quadrature,
}
