"""Acceptance criteria, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see
them live).  Field comparisons at "relative" tolerance use the supremum
error normalised by the reference field's peak over the compared region.
"""

import time

import numpy as np

from tfq import (
    MixedNormSpec,
    Symbol,
    apply,
    born_jordan,
    born_jordan_direct,
    born_jordan_kernel,
    born_jordan_rule,
    cohen,
    cosine_integral,
    dft,
    fourier_wigner_gaussian,
    operator_matrix,
    scaling_experiment,
    symbol_grid_for,
    symbol_transform,
    symplectic_fourier,
    tau_kernel,
    theta_growth_integral,
    vg_theta_grid,
    weyl_rule,
    wigner,
    wigner_gaussian,
)
from tfq.distributions import wigner_grid
from tfq.grid import PHASE_SPACE, PhaseSpaceGrid, TFMatrix
from tfq.norms import ghost_energy_report, interference_region
from tfq.synth import SignalRecipe, synth

from conftest import band_limited_signal, gaussian_signal, sup_rel_error
from oracles import ci_brute

INF = float("inf")
RNG_SEED = 74210


def _report(ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _random_symbol(rng, grid):
    x = grid.x_axis[:, None]
    w = grid.w_axis[None, :]
    vals = np.zeros((grid.nx, grid.nw), dtype=complex)
    for _ in range(4):
        cx, cw = rng.uniform(-1.0, 1.0, size=2)
        amp = rng.normal() + 1j * rng.normal()
        vals += amp * np.exp(-np.pi * ((x - cx) ** 2 + (w - cw) ** 2) / 0.8**2)
    return Symbol(TFMatrix(vals, grid, PHASE_SPACE))


def test_criterion_1_gaussian_wigner_oracle():
    n, dx = 1024, 1 / 16
    worst = 0.0
    slowest = 0.0
    for lam in (0.25, 1.0, 2.0, 5.0):
        t0 = time.perf_counter()
        f = gaussian_signal(1.0, n, dx)
        g = gaussian_signal(lam, n, dx)
        w = wigner(f, g)
        elapsed = time.perf_counter() - t0
        ref = wigner_gaussian(lam, w.grid.x_axis[:, None], w.grid.w_axis[None, :])
        quarter = np.arange(3 * n // 8, 5 * n // 8)
        err = sup_rel_error(w.values, ref, np.ix_(quarter, quarter))
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    _report(
        worst < 1e-6 and slowest < 5.0,
        "criterion 1: Gaussian cross-distribution matches the closed form",
        f"max rel err {worst:.2e}, slowest {slowest:.2f}s",
    )


def test_criterion_2_fourier_oracle():
    n, dx, lam = 1024, 1 / 16, 2.0
    f = gaussian_signal(1.0, n, dx)
    g = gaussian_signal(lam, n, dx)
    amb = symplectic_fourier(wigner(f, g))
    ref = fourier_wigner_gaussian(
        lam, amb.grid.x_axis[:, None], amb.grid.w_axis[None, :], "symplectic"
    )
    half = np.arange(n // 4, 3 * n // 4)
    err = sup_rel_error(amb.values, ref, np.ix_(half, half))
    rng = np.random.default_rng(RNG_SEED)
    jerr = 0.0
    for _ in range(50):
        lam_r = float(rng.uniform(0.2, 5.0))
        z1, z2 = rng.uniform(-3, 3, size=2)
        s = fourier_wigner_gaussian(lam_r, z1, z2, "symplectic")
        p = fourier_wigner_gaussian(lam_r, z2, -z1, "plain")
        jerr = max(jerr, abs(s - p))
    _report(
        err < 1e-6 and jerr < 1e-14,
        "criterion 2: grid transform matches the symplectic closed form",
        f"field err {err:.2e}, J-relation err {jerr:.2e}",
    )


def test_criterion_3_born_jordan_dual_route():
    t0 = time.perf_counter()
    f = gaussian_signal(1.0, 512, 1 / 16)
    qm = born_jordan(f, f)
    qd = born_jordan_direct(f, f)
    elapsed = time.perf_counter() - t0
    rel = np.linalg.norm(qm.values - qd.values) / np.linalg.norm(qm.values)
    _report(
        rel < 2e-3 and elapsed < 30.0,
        "criterion 3: multiplier and direct kernel routes agree",
        f"rel L2 {rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_quantization_identity():
    rng = np.random.default_rng(RNG_SEED + 1)
    n, dx = 128, 1 / 16
    f = band_limited_signal(rng, n=n, dx=dx, band_fraction=0.2, width=1.2)
    grid = symbol_grid_for(f)
    worst_id = 0.0
    worst_adj = 0.0
    for _ in range(5):
        a = _random_symbol(rng, grid)
        m_bj = operator_matrix(a, born_jordan_rule())
        m_w = operator_matrix(symbol_transform(a), weyl_rule())
        worst_id = max(
            worst_id, np.abs(m_bj - m_w).max() / np.abs(m_bj).max()
        )
        m_conj = operator_matrix(a.conj(), born_jordan_rule())
        worst_adj = max(
            worst_adj, np.abs(m_conj - m_bj.conj().T).max() / np.abs(m_bj).max()
        )

    def symbol_fn(x, w):
        return np.exp(-np.pi * ((x - 0.4) ** 2 + (w + 0.3) ** 2) / 0.8**2) + \
            0.5 * np.exp(-np.pi * (x**2 + w**2))

    a = Symbol.sample(symbol_fn, grid)
    a_j = Symbol.sample(lambda x, w: symbol_fn(w, -x), grid)
    lhs = apply(a_j, weyl_rule(), f)
    fhat = dft(f)
    a_hat = Symbol.sample(symbol_fn, symbol_grid_for(fhat))
    rhs = dft(apply(a_hat, weyl_rule(), fhat), "inverse")
    inter = np.abs(lhs.samples - rhs.samples).max() / np.abs(lhs.samples).max()
    _report(
        worst_id < 1e-6 and worst_adj < 1e-8 and inter < 1e-5,
        "criterion 4: quantization identities hold as dense matrices",
        f"filter-symbol {worst_id:.2e}, adjoint {worst_adj:.2e}, "
        f"intertwining {inter:.2e}",
    )


SCALING_CASES = [
    # (family, p, q, lam_lo, lam_hi, target)
    ("gaussian_mod", 2.0, 2.0, 16.0, 1024.0, -0.25),
    ("gaussian_mod", 1.0, INF, 16.0, 1024.0, -0.5),
    ("gaussian_mod", INF, 1.0, 16.0, 1024.0, 0.0),
    ("gaussian_mod", 2.0, 2.0, 1 / 1024.0, 1 / 16.0, -0.25),
    ("gaussian_mod", 1.0, INF, 1 / 1024.0, 1 / 16.0, -0.5),
    ("gaussian_mod", INF, 1.0, 1 / 1024.0, 1 / 16.0, 0.0),
    ("bump_amalgam", 2.0, 2.0, 16.0, 1024.0, -0.25),
    ("bump_amalgam", 1.0, INF, 16.0, 1024.0, 0.0),
    ("bump_amalgam", INF, 1.0, 16.0, 1024.0, -0.5),
    ("bump_amalgam", 2.0, 2.0, 1 / 1024.0, 1 / 16.0, -0.25),
    ("bump_amalgam", 1.0, INF, 1 / 1024.0, 1 / 16.0, 0.0),
    ("bump_amalgam", INF, 1.0, 1 / 1024.0, 1 / 16.0, -0.5),
]


def test_criterion_5_scaling_exponents():
    ok = True
    details = []
    for family, p, q, lo, hi, target in SCALING_CASES:
        t0 = time.perf_counter()
        fit = scaling_experiment(
            family, MixedNormSpec(p, q), np.geomspace(lo, hi, 8)
        )
        elapsed = time.perf_counter() - t0
        good = abs(fit.exponent - target) < 0.05 and fit.stderr < 0.05 \
            and elapsed < 60.0
        ok = ok and good
        details.append(
            f"{family}(p={p:g},q={q:g},{'up' if hi > 1 else 'down'}): "
            f"{fit.exponent:+.3f} vs {target:+.3f} [{elapsed:.0f}s]"
        )
    _report(ok, "criterion 5: dilation exponents reproduced", "; ".join(details))


def test_criterion_6_kernel_analysis():
    # cosine integral vs the brute oscillatory oracle
    ci_err = max(
        abs(cosine_integral(t) - ci_brute(t))
        for t in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    )
    # growth of the box integrals of |Theta|
    radii = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    vals = [theta_growth_integral(1.0, r) for r in radii]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))
    floor_ok = all(
        (b - a) > 0.5
        for (ra, a), (rb, b) in zip(zip(radii, vals), list(zip(radii, vals))[1:])
        if ra >= 8.0
    )
    # window-integrated kernel STFT magnitude: z = 0 dominates within 5%
    rng = np.random.default_rng(RNG_SEED + 2)
    spacing = 0.5
    axis = np.arange(-6.0, 6.0, spacing) + spacing / 2
    base, _ = vg_theta_grid(0.0, 0.0, axis, axis)
    ref = float(np.sum(np.abs(base)) * spacing**2)
    sup = 0.0
    for _ in range(100):
        z1, z2 = rng.uniform(-3.0, 3.0, size=2)
        v, _ = vg_theta_grid(z1, z2, axis, axis)
        sup = max(sup, float(np.sum(np.abs(v)) * spacing**2))
    bound_ok = np.isfinite(sup) and sup <= 1.05 * ref
    _report(
        ci_err < 1e-9 and monotone and floor_ok and bound_ok,
        "criterion 6: kernel special-function analysis",
        f"Ci err {ci_err:.2e}, growth monotone {monotone}, "
        f"increments>0.5 {floor_ok}, sup/ref {sup / ref:.3f}",
    )


def test_criterion_7_ghost_damping_and_marginals():
    f = synth(SignalRecipe(kind="two_atoms", n=512, dx=1 / 16,
                           params={"dt": 4.0, "dnu": 0.0}))
    region = interference_region(0.0, 0.0, wigner_grid(f))
    rows = ghost_energy_report(f, [born_jordan_kernel()], region)
    ratio = rows[1].ratio_vs_wigner
    phi = gaussian_signal(1.0, 512, 1 / 16)
    q = born_jordan(phi, phi)
    marg_x = np.abs(
        np.sum(q.values, axis=1).real * q.grid.dw - np.abs(phi.samples) ** 2
    ).max()
    marg_w = np.abs(
        np.sum(q.values, axis=0).real * q.grid.dx
        - np.exp(-2 * np.pi * q.grid.w_axis**2)
    ).max()
    _report(
        ratio < 0.5 and marg_x < 1e-5 and marg_w < 1e-5,
        "criterion 7: interference damping and marginal preservation",
        f"ghost ratio {ratio:.4f}, marginals {marg_x:.2e}/{marg_w:.2e}",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(RNG_SEED + 3)
    failures = []

    # symplectic transform involution (200 random matrices)
    for i in range(200):
        n = 32
        dw = float(rng.choice([1.0, 0.5])) / (n * 0.25)
        grid = PhaseSpaceGrid.centered(n, 0.25, n, dw)
        m = TFMatrix(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), grid, PHASE_SPACE
        )
        back = symplectic_fourier(symplectic_fourier(m))
        if np.abs(back.values - m.values).max() > 1e-10:
            failures.append(f"involution #{i}")

    # Moyal energy identity
    for i in range(200):
        f = band_limited_signal(rng, n=128)
        g = band_limited_signal(rng, n=128)
        w = wigner(f, g)
        if abs(w.l2_norm() ** 2 - f.energy() * g.energy()) > 1e-6:
            failures.append(f"moyal #{i}")

    # realness of the diagonal distributions, plain and filtered, on the
    # complex cross route (g is f takes the float64 route, real by type)
    for i in range(200):
        f = band_limited_signal(rng, n=128)
        copy = f.with_samples(f.samples.copy())
        w = wigner(f, copy)
        q = born_jordan(f, copy)
        if np.abs(w.values.imag).max() > 1e-9 * np.abs(w.values.real).max():
            failures.append(f"realness W #{i}")
        if np.abs(q.values.imag).max() > 1e-9 * np.abs(q.values.real).max():
            failures.append(f"realness Q #{i}")

    # tau conjugation symmetry (window wide enough that no ambiguity mass
    # reaches the grid seam, where a non-periodic chirp multiplier cannot
    # pair under wrapped negation)
    for i in range(200):
        f = band_limited_signal(rng, n=256)
        tau = float(rng.uniform(0.0, 1.0))
        a = cohen(f, f, tau_kernel(tau))
        b = cohen(f, f, tau_kernel(1.0 - tau))
        if np.abs(a.values - np.conj(b.values)).max() \
                > 1e-8 * np.abs(a.values).max():
            failures.append(f"tau-conj #{i}")

    # multiplier contraction of the symbol filter
    for i in range(200):
        n = 32
        grid = PhaseSpaceGrid.centered(n, 0.25, n, 0.125)
        a = Symbol(TFMatrix(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
            grid, PHASE_SPACE,
        ))
        if symbol_transform(a).matrix.l2_norm() > a.matrix.l2_norm() * (1 + 1e-12):
            failures.append(f"contraction #{i}")

    _report(
        not failures,
        "criterion 8: randomized property suites (5 x 200 cases)",
        f"{len(failures)} failures" + (f": {failures[:3]}" if failures else ""),
    )
