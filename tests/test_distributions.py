import tracemalloc

import numpy as np
import pytest

from tfq import (
    AliasingError,
    DomainError,
    GridError,
    SampledSignal,
    WindowError,
    born_jordan,
    born_jordan_direct,
    cohen,
    canonical_window,
    delta_kernel,
    dft,
    born_jordan_kernel,
    centered_signal_axis,
    gaussian,
    stft,
    tau_kernel,
    wigner,
    wigner_gaussian,
    wigner_gaussian_diag,
)

from conftest import band_limited_signal, gaussian_signal, sup_rel_error
from oracles import born_jordan_tau_average, stft_point_brute, tau_wigner_direct


# --- STFT -----------------------------------------------------------------------

def test_stft_gaussian_center_value():
    f = gaussian_signal(1.0, 512, 1 / 16)
    v = stft(f, canonical_window(f))
    n = f.n
    # (0, 0) sits at indices (n/2, n/2); value is 2^{-1/2}
    got = abs(v.values[n // 2, n // 2])
    assert abs(got - 2.0**-0.5) < 1e-6
    # and the brute-force defining integral agrees
    ref = abs(stft_point_brute(lambda y: gaussian(y), lambda y: gaussian(y), 0.0, 0.0))
    assert abs(got - ref) < 1e-6


def test_stft_zero_signal():
    f = gaussian_signal(1.0, 128, 1 / 16)
    z = f.with_samples(np.zeros(f.n))
    v = stft(z, canonical_window(f))
    assert np.all(v.values == 0)


def test_stft_rejects_mismatched_grids_and_zero_window():
    f = gaussian_signal(1.0, 128, 1 / 16)
    g = gaussian_signal(1.0, 128, 1 / 8)
    with pytest.raises(GridError):
        stft(f, g)
    zero = f.with_samples(np.zeros(f.n))
    with pytest.raises(WindowError):
        stft(f, zero)
    with pytest.raises(GridError):  # the grid is checked first
        stft(g, zero)


def test_stft_fundamental_identity(rng):
    # |V_g f(x, w)| = |V_{Fg} Ff (w, -x)| at grid points
    f = band_limited_signal(rng, n=256, dx=1 / 16)
    g = canonical_window(f)
    v_direct = stft(f, g)
    v_hat = stft(dft(f), dft(g))
    n = f.n
    neg = (-np.arange(n)) % n
    # rows of v_hat are positions on the frequency axis == columns of v_direct
    lhs = np.abs(v_direct.values)
    rhs = np.abs(v_hat.values)[:, neg].T
    assert np.abs(lhs - rhs).max() < 1e-8


def test_stft_moyal(rng):
    for _ in range(10):
        f = band_limited_signal(rng, n=256)
        g = canonical_window(f)
        v = stft(f, g)
        lhs = v.l2_norm() ** 2
        rhs = f.energy() * g.energy()
        assert abs(lhs - rhs) < 1e-10 * rhs


# --- quadratic engines ------------------------------------------------------------

def test_wigner_center_values():
    f = gaussian_signal(1.0, 1024, 1 / 16)
    w = wigner(f, f)
    n = f.n
    assert abs(w.values[n // 2, n // 2].real - np.sqrt(2.0)) < 1e-6 * np.sqrt(2.0)
    lam = 4.0
    g = gaussian_signal(lam, 1024, 1 / 16)
    wd = wigner(g, g)
    want = float(wigner_gaussian_diag(lam, 0.0, 0.0))
    assert abs(want - np.sqrt(2.0) * lam**-0.5) < 1e-12
    assert abs(wd.values[n // 2, n // 2].real - want) < 1e-6 * want


def test_wigner_full_field_cross_gaussian():
    lam = 2.0
    n, dx = 1024, 1 / 16
    f = gaussian_signal(1.0, n, dx)
    g = gaussian_signal(lam, n, dx)
    w = wigner(f, g)
    ref = wigner_gaussian(lam, w.grid.x_axis[:, None], w.grid.w_axis[None, :])
    quarter = np.arange(3 * n // 8, 5 * n // 8)
    assert sup_rel_error(w.values, ref, np.ix_(quarter, quarter)) < 1e-6


def test_wigner_is_real_on_diagonal(rng):
    f = band_limited_signal(rng, n=256)
    w = wigner(f, f.with_samples(f.samples.copy()))  # the complex cross route
    assert np.abs(w.values.imag).max() < 1e-10 * np.abs(w.values.real).max()


def test_wigner_rejects_leaky_support():
    n, dx = 256, 1 / 16
    f = gaussian_signal(1.0, n, dx)
    shifted = f.with_samples(gaussian(f.axis - 7.0))
    with pytest.raises(AliasingError):
        wigner(shifted, shifted)


def test_wigner_rejects_signals_on_two_grids():
    f = gaussian_signal(n=64)
    g = gaussian_signal(n=64, dx=1 / 8)
    for call in (lambda: wigner(f, g), lambda: born_jordan(f, g)):
        with pytest.raises(GridError, match="common grid"):
            call()


@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
def test_quadratic_engines_of_zero_signal_are_exact_zeros(cross):
    # the support guard returns early on an all-zero signal; every route,
    # the compact cross band included, must then give exact zeros
    n = 64
    f = SampledSignal(np.zeros(n, dtype=complex), x0=-2.0, dx=1 / 16)
    g = f.with_samples(f.samples.copy()) if cross else None
    for out in (wigner(f, g), born_jordan(f, g), cohen(f, g, tau_kernel(0.3))):
        assert out.values.shape == (n, n)
        assert not out.values.any()


def test_wigner_time_shift_covariance(rng):
    f = band_limited_signal(rng, n=512, width=2.0)
    cells = 12
    shifted = f.with_samples(np.roll(f.samples, cells))
    w0 = wigner(f, f)
    w1 = wigner(shifted, shifted)
    assert np.abs(np.roll(w0.values, cells, axis=0) - w1.values).max() < 1e-10


def test_moyal_energy_identity(rng):
    for _ in range(10):
        f = band_limited_signal(rng, n=256)
        g = band_limited_signal(rng, n=256)
        w = wigner(f, g)
        lhs = w.l2_norm() ** 2
        rhs = f.energy() * g.energy()
        assert abs(lhs - rhs) < 1e-6 * rhs


# --- Cohen class -------------------------------------------------------------------

def test_delta_kernel_reproduces_wigner(rng):
    f = band_limited_signal(rng, n=256)
    w = wigner(f, f)
    m = cohen(f, f, delta_kernel())
    assert np.abs(m.values - w.values).max() < 1e-12 * np.abs(w.values).max()


def test_born_jordan_marginals():
    f = gaussian_signal(1.0, 512, 1 / 16)
    q = born_jordan(f, f)
    marg_x = np.sum(q.values, axis=1).real * q.grid.dw
    assert np.abs(marg_x - np.abs(f.samples) ** 2).max() < 1e-5
    marg_w = np.sum(q.values, axis=0).real * q.grid.dx
    spectrum = np.exp(-2 * np.pi * q.grid.w_axis**2)  # |F phi|^2
    assert np.abs(marg_w - spectrum).max() < 1e-5


def test_cohen_tau_preserves_total_energy():
    # two-tone signal, tau = 0: grid mass equals the signal energy
    from tfq.synth import SignalRecipe, synth

    f = synth(SignalRecipe(kind="two_tone", n=1024, dx=1 / 16,
                           params={"nu1": 0.5, "nu2": 1.5}))
    m = cohen(f, f, tau_kernel(0.0))
    total = float(np.sum(m.values).real) * m.grid.cell_measure
    assert abs(total - f.energy()) < 1e-6 * f.energy()


def test_born_jordan_realness(rng):
    f = band_limited_signal(rng, n=256)
    q = born_jordan(f, f.with_samples(f.samples.copy()))  # the complex cross route
    assert np.abs(q.values.imag).max() < 1e-9 * np.abs(q.values.real).max()


def test_born_jordan_linearity(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128)
    alpha = 2.0 + 1.0j
    lhs = born_jordan(f.with_samples(alpha * f.samples), g)
    rhs = born_jordan(f, g)
    assert np.abs(lhs.values - alpha * rhs.values).max() \
        < 1e-10 * np.abs(rhs.values).max()
    # and conjugate-linear in the second slot
    lhs2 = born_jordan(f, g.with_samples(alpha * g.samples))
    assert np.abs(lhs2.values - np.conj(alpha) * rhs.values).max() \
        < 1e-10 * np.abs(rhs.values).max()


def test_born_jordan_dual_route_gaussian():
    f = gaussian_signal(1.0, 512, 1 / 16)
    qm = born_jordan(f, f)
    qd = born_jordan_direct(f, f)
    rel = np.linalg.norm(qm.values - qd.values) / np.linalg.norm(qm.values)
    assert rel < 2e-3


@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
def test_born_jordan_matches_tau_average(cross):
    # third route: no ambiguity multiplier and no Ci machinery
    f = gaussian_signal(1.0, 256, 1 / 16)
    g = f
    if cross:  # shifted by 1/2 and modulated to frequency 1
        x = centered_signal_axis(256, 1 / 16)
        g = SampledSignal(np.exp(-np.pi * (x - 0.5) ** 2 + 2j * np.pi * x),
                          x0=float(x[0]), dx=1 / 16)
    ref = born_jordan_tau_average(f, g, 32)
    assert sup_rel_error(born_jordan(f, g).values, ref) <= 1e-12


def test_born_jordan_direct_traced_peak():
    # peak in units of 16 n^2 bytes: two zero-padded 2n x 2n spectra, each
    # transformed in place, and W itself (measured 9.0)
    n = 512
    f = gaussian_signal(1.0, n, 1 / 16)
    born_jordan_direct(f)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        born_jordan_direct(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 16 * n * n


def test_ghost_damping_two_atoms():
    from tfq.distributions import wigner_grid
    from tfq.norms import ghost_energy_report, interference_region
    from tfq.synth import SignalRecipe, synth

    f = synth(SignalRecipe(kind="two_atoms", n=512, dx=1 / 16,
                           params={"dt": 4.0, "dnu": 0.0}))
    region = interference_region(0.0, 0.0, wigner_grid(f))
    rows = ghost_energy_report(f, [born_jordan_kernel()], region)
    assert rows[0].ratio_vs_wigner == 1.0
    assert rows[1].ratio_vs_wigner < 0.5


# --- tau family --------------------------------------------------------------------

def test_tau_half_is_wigner(rng):
    f = band_limited_signal(rng, n=256)
    w = wigner(f, f)
    t = tau_wigner_direct(f, f, 0.5)
    assert np.abs(w.values - t.values).max() < 1e-8 * np.abs(w.values).max()


def test_tau_zero_factorizes():
    f = gaussian_signal(1.0, 512, 1 / 16)
    t = tau_wigner_direct(f, f, 0.0)
    fhat = np.exp(-np.pi * t.grid.w_axis**2)  # F phi on the output axis
    ref = np.outer(f.samples, fhat) * np.exp(
        -2j * np.pi * np.outer(t.grid.x_axis, t.grid.w_axis)
    )
    assert sup_rel_error(t.values, ref) < 1e-6


def test_tau_dual_route(rng):
    f = band_limited_signal(rng, n=256)
    for tau in (0.0, 0.3, 1.0):
        direct = tau_wigner_direct(f, f, tau)
        spectral = cohen(f, f, tau_kernel(tau))
        rel = np.linalg.norm(direct.values - spectral.values) / np.linalg.norm(
            spectral.values
        )
        assert rel < 1e-4


def test_tau_conjugation_symmetry(rng):
    f = band_limited_signal(rng, n=256)
    for tau in (0.0, 0.25, 0.4):
        a = cohen(f, f, tau_kernel(tau))
        b = cohen(f, f, tau_kernel(1.0 - tau))
        assert np.abs(a.values - np.conj(b.values)).max() \
            < 1e-8 * np.abs(a.values).max()


def test_tau_domain_error(rng):
    f = band_limited_signal(rng, n=128)
    with pytest.raises(DomainError):
        tau_wigner_direct(f, f, 1.2)


def test_tau_half_kernel_identical_to_delta(rng):
    f = band_limited_signal(rng, n=256)
    a = cohen(f, f, tau_kernel(0.5))
    b = cohen(f, f, delta_kernel())
    assert np.abs(a.values - b.values).max() == 0.0
    # wigner itself, bit for bit, on the diagonal and on the cross route
    g = band_limited_signal(rng, n=256)
    for h in (None, g):
        got, ref = cohen(f, h, tau_kernel(0.5)).values, wigner(f, h).values
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_stft_grid_is_dft_compatible():
    f = gaussian_signal(1.0, 256, 1 / 16)
    v = stft(f, canonical_window(f))
    g = v.grid
    assert g.nx == g.nw and abs(g.dx * g.dw * g.nx - 1.0) < 1e-12


def test_ghost_tau0_golden_number():
    # recorded at first computation with this fixed configuration; the
    # Rihaczek-type kernel relocates cross terms off the midpoint entirely,
    # so the region ratio is tiny rather than near one
    from tfq.distributions import wigner_grid
    from tfq.norms import ghost_energy_report, interference_region
    from tfq.synth import SignalRecipe, synth

    golden = 1.0601710405525778e-10
    f = synth(SignalRecipe(kind="two_atoms", n=512, dx=1 / 16,
                           params={"dt": 4.0, "dnu": 0.0}))
    region = interference_region(0.0, 0.0, wigner_grid(f))
    rows = ghost_energy_report(f, [tau_kernel(0.0)], region)
    ratio = rows[1].ratio_vs_wigner
    assert ratio < 1e-6
    assert abs(ratio - golden) < 1e-3 * golden
