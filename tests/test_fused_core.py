"""The fused ambiguity-domain engine against the three-step route.

``wigner`` and ``cohen`` run on the lag correlation with in-place 1-D FFT
passes; ``cohen``'s lag filter (time FFT, multiplier, inverse) also serves
``ghost_energy_report``, which reads region energies of ``cohen``, and
``operator_matrix``, which runs it with the conjugate multiplier on the
Weyl lag kernel of a symbol.  ``symbol_transform`` runs the same filter
with sinc(z1 z2) at the FFT frequencies, between an FFT and an inverse FFT
over w.  The oracles rebuild every result from a direct DFT sum or from
symplectic transform -> multiplier -> symplectic transform.  Every kernel's
multiplier is a function of z1 z2, so the filter's own row blocks are
checked with a plain multiplier callable that is not.
The diagonal half-lag route of ``wigner`` and ``born_jordan`` is checked
against the full route, which a copy of the signal selects.  ``cohen`` and
the engines fill only the lags |m| <= n/4 of the central rows [n/4, 3n/4),
and ``wigner`` lag-transforms only those rows; signals with tails just
below the support floor check that against oracles that sum every entry,
within a provable bound on what the other entries carry.  On both routes
the band is a compact array in the output's own memory, starting at the
first output row the lag step writes, checked by spies.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest

from tfq import (
    PHASE_SPACE,
    PhaseSpaceGrid,
    SampledSignal,
    Symbol,
    TFMatrix,
    ambiguity_multiplier,
    born_jordan,
    born_jordan_kernel,
    born_jordan_rule,
    canonical_window,
    cohen,
    delta_kernel,
    ghost_energy_report,
    interference_region,
    operator_matrix,
    stft,
    symbol_grid_for,
    symbol_transform,
    tau_kernel,
    tau_rule,
    weyl_rule,
    wigner,
    wigner_grid,
)
from tfq import distributions
from tfq.distributions import _lag_step
from tfq.kernels import _lag_filter, _lattice_multiplier
from tfq.synth import SignalRecipe, synth

from conftest import band_limited_signal, sup_rel_error
from oracles import (
    cohen_full_lag,
    cohen_three_step,
    dropped_lag_bound,
    flushed_sample_bound,
    symbol_filter_three_step,
    wigner_direct_sum,
)

TOL = 1e-12

KERNELS = {
    "delta": delta_kernel(),
    "bj": born_jordan_kernel(),
    "tau0.3": tau_kernel(0.3),
}


def _asymmetric(z1, z2):
    """A multiplier asymmetric in z1 <-> z2 and in the sign of each
    argument, so a swapped, mirrored or transposed block of the filter
    shows up at O(1)."""
    return np.exp(-0.3 * z1**2 - 0.05 * z2**2 + 0.7j * z1 + 0.2j * z1 * z2)


def _asymmetric_rows(dx, lags, n):
    """``_asymmetric`` on the lattice of ``_lattice_multiplier``, (2 lags dx,
    k / (n dx)), as the same callable of row blocks."""
    z1, z2 = 2.0 * dx * lags[None, :], np.fft.fftfreq(n, dx)[:, None]
    return lambda rows: _asymmetric(z1, z2[rows])


def _pair(n, cross):
    rng = np.random.default_rng(n + cross)
    f = band_limited_signal(rng, n=n)
    return f, band_limited_signal(rng, n=n) if cross else f


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
def test_wigner_matches_direct_sum(n, cross):
    f, g = _pair(n, cross)
    assert sup_rel_error(wigner(f, g).values, wigner_direct_sum(f, g)) < TOL


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
@pytest.mark.parametrize("name", list(KERNELS))
def test_cohen_matches_three_step(name, cross, n):
    f, g = _pair(n, cross)
    got = cohen(f, g, KERNELS[name])
    ref = cohen_three_step(f, g, KERNELS[name])
    assert got.grid.close_to(ref.grid)
    assert sup_rel_error(got.values, ref.values) < TOL


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("conj", [False, True])
@pytest.mark.parametrize("name", list(KERNELS) + ["asymmetric"])
def test_ambiguity_filter_matches_three_step(name, conj, n):
    # a full-band random matrix, so the Nyquist rows and columns count
    rng = np.random.default_rng(n)
    grid = symbol_grid_for(_pair(n, False)[0])
    m = TFMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), grid, PHASE_SPACE)
    # the symbol-domain filter, plain or conjugate, is the lag filter on the
    # lag kernel (the inverse FFT over w), along time at lag m = fftfreq(n,
    # 1/n), the Nyquist lag column included; a kernel's multiplier comes
    # from the engines' lattice, the asymmetric one is a plain callable
    lags = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    if name == "asymmetric":
        kernel, phi = _asymmetric, _asymmetric_rows(grid.dx, lags, n)
    else:
        kernel = KERNELS[name]
        phi = _lattice_multiplier(kernel, lags, n)
    ref = symbol_filter_three_step(m, kernel, conj=conj)
    mult = (lambda rows: np.conj(phi(rows))) if conj else phi
    got = _lag_filter(np.fft.ifft(m.values, axis=1), mult)
    assert sup_rel_error(got, np.fft.ifft(ref.values, axis=1)) < TOL


@pytest.mark.parametrize("n", [64, 512])
def test_symbol_side_matches_three_step(n):
    rng = np.random.default_rng(n)
    grid = symbol_grid_for(_pair(n, False)[0])
    a = Symbol(TFMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), grid))
    ref = symbol_filter_three_step(a.matrix, born_jordan_kernel())
    assert sup_rel_error(symbol_transform(a).matrix.values, ref.values) < TOL
    for rule in (born_jordan_rule(), tau_rule(0.3)):
        # Op(a) under a rule is the Weyl operator of the effective symbol
        eff = Symbol(symbol_filter_three_step(a.matrix, rule, conj=True))
        ref = operator_matrix(eff, weyl_rule())
        assert sup_rel_error(operator_matrix(a, rule), ref) < TOL


# criterion 8's grid (2 n dx dw = 2) and one with no simple spacing ratio
OFF_GRIDS = {"criterion_8": (32, 0.25, 32, 0.125), "decimal": (64, 0.3, 64, 0.07)}


@pytest.mark.parametrize("args", list(OFF_GRIDS.values()), ids=list(OFF_GRIDS))
def test_symbol_map_matches_three_step_off_the_operator_grid(args):
    n = args[0]
    rng = np.random.default_rng(n)
    grid = PhaseSpaceGrid.centered(*args)
    a = Symbol(TFMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), grid))
    ref = symbol_filter_three_step(a.matrix, born_jordan_kernel())
    got = symbol_transform(a).matrix
    assert got.grid == grid
    assert sup_rel_error(got.values, ref.values) < TOL


@pytest.mark.parametrize("args", [(256, 1 / 16, 256, 1 / 32)] + list(OFF_GRIDS.values()),
                         ids=["operator"] + list(OFF_GRIDS))
def test_symbol_map_matches_the_2d_fft_route(args):
    # the filter between an FFT and an inverse FFT over w against fft2,
    # sinc(z2 z1) at the FFT frequencies, ifft2, on the operator grid
    # (dw = 1/(2 n dx)) and off it: only the order of the inverse FFT axes
    # differs
    n = args[0]
    rng = np.random.default_rng(n + 1)
    grid = PhaseSpaceGrid.centered(*args)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    z1, z2 = np.fft.fftfreq(n, grid.dw), np.fft.fftfreq(n, grid.dx)
    ref = np.fft.ifft2(np.sinc(z2[:, None] * z1[None, :]) * np.fft.fft2(a))
    got = symbol_transform(Symbol(TFMatrix(a, grid))).matrix.values
    assert sup_rel_error(got, ref) <= 1e-14


@pytest.mark.parametrize("n", [64, 512])
def test_ghost_report_matches_three_step(n):
    f = synth(SignalRecipe(kind="two_atoms", n=n, dx=16 / n, params={"dt": 1.0}))
    grid = wigner_grid(f)
    region = interference_region(0.0, 0.0, grid)
    kernels = [born_jordan_kernel(), tau_kernel(0.3)]
    in_x = (grid.x_axis >= region.x_lo) & (grid.x_axis <= region.x_hi)
    in_w = (grid.w_axis >= region.w_lo) & (grid.w_axis <= region.w_hi)

    def energy(m):
        return np.sum(np.abs(m.values[np.ix_(in_x, in_w)]) ** 2) * grid.cell_measure

    e_w = energy(wigner(f, f))
    rows = ghost_energy_report(f, kernels, region)
    assert [r.kernel_label for r in rows] == ["delta"] + [k.label for k in kernels]
    assert abs(rows[0].energy - e_w) < TOL * e_w
    for k, row in zip(kernels, rows[1:]):
        e = energy(cohen_three_step(f, f, k))
        assert abs(row.energy - e) < TOL * max(e, e_w)
        assert abs(row.ratio_vs_wigner - e / e_w) < TOL * max(1.0, e / e_w)


def _copy(f):
    """Same samples, another object: the full (cross) route."""
    return f.with_samples(f.samples.copy())


def _central_noise(n, dx=1 / 16, seed=None):
    """Complex noise filling the central half-window, so every lag the
    support guard admits is nonzero."""
    rng = np.random.default_rng(n if seed is None else seed)
    samples = np.zeros(n, dtype=complex)
    samples[n // 4 : 3 * n // 4] = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
    return SampledSignal(samples, x0=-n * dx / 2, dx=dx)


@pytest.mark.parametrize("n", [8, 64, 1024])
@pytest.mark.parametrize("engine", [wigner, born_jordan], ids=["wigner", "born_jordan"])
def test_half_route_matches_full_route(engine, n):
    f = _central_noise(n)
    half, full = engine(f), engine(f, _copy(f))
    assert half.grid == full.grid
    assert half.values.dtype == np.float64
    assert sup_rel_error(half.values, full.values) < 1e-13


@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
@pytest.mark.parametrize("name", ["bj", "tau0.3"])
def test_lag_filter_sees_only_the_quarter_band(monkeypatch, name, cross):
    # a lag |m| >= n/4 pairs two samples n/2 or more apart, one of them
    # outside the central half, so cohen filters only the band |m| <= n/4:
    # n/2 + 1 columns on the cross route (the diagonal tau included), the
    # n/4 + 1 lags m >= 0 on the diagonal Born-Jordan route
    shapes, seen_lags = [], []

    def lattice_spy(kernel, lags, n):
        seen_lags.append(lags.copy())
        return _lattice_multiplier(kernel, lags, n)

    def filter_spy(r, mult, norm="backward"):
        shapes.append(r.shape)
        return _lag_filter(r, mult, norm)

    monkeypatch.setattr(distributions, "_lattice_multiplier", lattice_spy)
    monkeypatch.setattr(distributions, "_lag_filter", filter_spy)
    n = 64
    f = _central_noise(n)
    cohen(f, _copy(f) if cross else None, KERNELS[name])
    (shape,), (lags,) = shapes, seen_lags
    half = name == "bj" and not cross
    want = np.arange(0 if half else -(n // 4), n // 4 + 1)
    assert shape == (n, len(want))
    assert np.array_equal(lags, want)


@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
def test_lag_step_sees_only_the_central_rows(monkeypatch, cross):
    # on a row outside [n/4, 3n/4), i + m and i - m are never both central,
    # so wigner writes and lag-transforms only the n/2 central rows and its
    # outer rows are exactly 0; cohen's time filter spreads rows, so its lag
    # FFT runs on all n
    seen = []

    def spy(out, band, rows=slice(None)):
        seen.append(len(band))
        return _lag_step(out, band, rows)

    monkeypatch.setattr(distributions, "_lag_step", spy)
    n = 64
    f = synth(SignalRecipe(kind="gabor_atom", n=n, dx=1 / 4))
    g = _copy(f) if cross else None
    w = wigner(f, g).values
    assert not w[: n // 4].any() and not w[3 * n // 4 :].any()
    assert np.abs(w[n // 4 : 3 * n // 4]).max() > 0.0
    for kernel in (born_jordan_kernel(), tau_kernel(0.3)):
        cohen(f, g, kernel)
    assert seen == [n // 2, n, n]


@pytest.mark.parametrize("case", ["bj-cross", "tau0.3-cross", "tau0.3-diag", "wigner-cross",
                                  "bj-diag", "wigner-diag"])
def test_band_is_compact_in_the_output(monkeypatch, case):
    # the band is a C-contiguous view of the output's own bytes that starts
    # at the first output row the lag step writes: row n/4 for wigner's n/2
    # central rows, row 0 for cohen's n; its rows hold the n/2 + 1 lags
    # |m| <= n/4 across (an odd row stride for the time FFT down its
    # columns), the n/4 + 1 lags m >= 0 in the float64 output on the
    # diagonal half route
    name, route = case.split("-")
    seen = []

    def filter_spy(r, mult, norm="backward"):
        seen.append(r)
        return _lag_filter(r, mult, norm)

    def step_spy(out, band, rows=slice(None)):
        seen.append(band)
        return _lag_step(out, band, rows)

    if name == "wigner":
        monkeypatch.setattr(distributions, "_lag_step", step_spy)
    else:
        monkeypatch.setattr(distributions, "_lag_filter", filter_spy)
    n = 256
    f = _central_noise(n)
    g = _copy(f) if route == "cross" else None
    out = wigner(f, g) if name == "wigner" else cohen(f, g, KERNELS[name])
    half = route == "diag" and name != "tau0.3"
    count, lo = (n // 4 + 1 if half else n // 2 + 1), (n // 4 if name == "wigner" else 0)
    (band,) = seen
    assert out.values.dtype == (np.float64 if half else np.complex128)
    assert band.dtype == np.complex128
    assert band.shape == (n - 2 * lo, count)
    assert band.flags.c_contiguous
    assert band.strides[0] == count * 16
    assert np.shares_memory(band, out.values)
    assert band.ctypes.data == out.values[lo:].ctypes.data


@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
def test_outer_rows_exactly_zero_at_1024(cross):
    # wigner's band starts at output row n/4 and lies inside the rows the
    # lag step overwrites, so the outer rows are never written, on either
    # route
    n = 1024
    f = _central_noise(n)
    w = wigner(f, _copy(f) if cross else None).values
    assert not w[: n // 4].any() and not w[3 * n // 4 :].any()
    assert w[n // 4 : 3 * n // 4].any(axis=1).all()


@pytest.mark.parametrize("n", [64, 256])
def test_cross_routes_match_full_lag_oracles_off_dyadic_spacing(n):
    # at dx = 0.07 the factor 2 dx / n folded into the signal is not a power
    # of two, so the engines round differently from the oracles, which sum
    # every lag |m| < n/2 (exactly 0 outside the band here)
    f, g = _central_noise(n, dx=0.07), _central_noise(n, dx=0.07, seed=n + 1)
    assert sup_rel_error(wigner(f, g).values, wigner_direct_sum(f, g)) <= 1e-13
    for name in ("bj", "tau0.3"):
        ref = cohen_full_lag(f, g, KERNELS[name])
        assert sup_rel_error(cohen(f, g, KERNELS[name]).values, ref) <= 1e-13


def _sub_floor_tails(sig, rng, phases):
    """``sig`` with every outer-half sample at 0.9e-13 of its peak, the most
    the support guard lets through: with random phases, or all with phase
    one, so the products at a lag add up coherently."""
    n = sig.n
    samples = sig.samples.copy()
    outer = np.r_[0 : n // 4, 3 * n // 4 : n]
    unit = np.exp(2j * np.pi * rng.random(outer.size)) if phases == "random" else 1.0
    samples[outer] = 0.9e-13 * np.abs(samples).max() * unit
    return sig.with_samples(samples)


@pytest.mark.parametrize("phases", ["random", "equal"])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_sub_floor_tails_stay_within_the_dropped_lag_bound(n, phases):
    # wigner, cohen and the diagonal routes drop the lags |m| > n/4 and the
    # rows outside [n/4, 3n/4), each product of which has a factor below the
    # support floor; the oracles sum every lag |m| < n/2 on every row.  No
    # fixed sup-relative figure bounds what the dropped entries carry (it
    # grows with n and with aligned phases), so the engines must stay within
    # the provable bound ``dropped_lag_bound`` (0.3e-12 to 5.8e-12 of the
    # peak here), plus 1e-14 of the peak for rounding
    rng = np.random.default_rng(n + 3)
    f, g = (_sub_floor_tails(band_limited_signal(rng, n=n), rng, phases) for _ in range(2))

    def check(out, ref, h):
        err = np.abs(out - ref).max()
        assert err <= dropped_lag_bound(f, h) + 1e-14 * np.abs(ref).max()

    for h in (f, g):
        check(wigner(f, h).values, wigner_direct_sum(f, h), h)
    for name in ("bj", "tau0.3"):
        for h in (None, g):
            check(cohen(f, h, KERNELS[name]).values, cohen_full_lag(f, h, KERNELS[name]), h)


def test_result_dtypes():
    f = _pair(64, False)[0]
    for real in (wigner(f), wigner(f, f), born_jordan(f), born_jordan(f, f),
                 cohen(f, None, born_jordan_kernel()), cohen(f, f, tau_kernel(0.5))):
        assert real.values.dtype == np.float64
    g = _copy(f)
    for cplx in (wigner(f, g), born_jordan(f, g), cohen(f, f, tau_kernel(0.3))):
        assert cplx.values.dtype == np.complex128
    assert TFMatrix(np.ones((64, 64)), wigner_grid(f)).values.dtype == np.float64


LATTICE_KERNELS = {"bj": born_jordan_kernel(), "delta": delta_kernel(),
                   **{f"tau{t:g}": tau_kernel(t) for t in (0.0, 0.3, 0.7, 1.0)}}


@pytest.mark.parametrize("name, n", [(name, n) for name in LATTICE_KERNELS
                                     for n in (8, 64, 256, 1024)] + [("bj", 4096)])
def test_lattice_multiplier_matches_ambiguity_multiplier(name, n):
    # every lag the engines use, -n/2..n/2, at every row of the time FFT,
    # against the public multiplier at the products of the engines' float
    # axes, on both spacings the tests use (at dx = 0.07, z1 z2 is 2 k m / n
    # only up to rounding), in row blocks to keep memory small.  The
    # reference rounds its phase pi (2 tau - 1) z1 z2 at full size (up to
    # pi n / 2) with about four roundings, so it may be 4 eps |phase| off;
    # the lattice reduces the turns to [-1/2, 1/2] first, so against the exact phase
    # it is within 1e-15 (checked with mpmath at the extreme and a spread of
    # k m).  The sine table is folded onto sin(2 pi s / n), |s| <= n/4, its
    # argument rounded once, and divided by 2 pi k m / n: against mpmath at
    # every residue of k m mod n (and a spread up to n^2 / 4) it is within
    # 4 eps relative, and exactly 0 where sinc(2 k m / n) is (k m = n/2 mod n)
    eps = np.finfo(float).eps
    kernel = LATTICE_KERNELS[name]
    c = 2.0 * kernel.tau - 1.0 if kernel.kind == "tau" else 0.0
    m = np.arange(-(n // 2), n // 2 + 1)
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    phi = _lattice_multiplier(kernel, m, n)
    for dx in (1 / 16, 0.07):
        z1, z2 = 2.0 * dx * m, np.fft.fftfreq(n, dx)
        for lo in range(0, n, 256):
            rows = slice(lo, lo + 256)
            got, km = phi(rows), np.multiply.outer(k[rows], m)
            ref = ambiguity_multiplier(kernel, z1[None, :], z2[rows, None])
            if kernel.kind == "born_jordan":
                assert got.dtype == np.float64
                tol = 1e-15 + 8 * eps / np.where(km == 0, 1.0, np.abs(km) * (2 * np.pi / n))
            else:
                tol = 1e-15 + 4 * eps * np.pi * abs(c) * np.abs(km) * (2.0 / n)
            assert (np.abs(got - ref) <= tol).all()
    if kernel.kind == "born_jordan":
        spread = np.linspace(-n * n // 4, n * n // 4, 65).astype(np.int64)
        kms = np.r_[np.arange(-n, n + 1), spread]
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.sincpi(mpmath.mpf(2 * int(v)) / n)) for v in kms])
        lattice = _lattice_multiplier(kernel, kms, n)(slice(1, 2))[0]  # row k = 1: k m = m
        assert (np.abs(lattice - exact) <= 4 * eps * np.abs(exact)).all()
    else:
        kms = np.unique(np.multiply.outer(k, m))
        kms = np.r_[kms[:8], kms[-8:], kms[:: max(1, len(kms) // 48)]]
        with mpmath.workdps(30):
            exact = [complex(mpmath.expjpi(mpmath.mpf(c) * 2 * int(v) / n)) for v in kms]
        lattice = _lattice_multiplier(kernel, kms, n)(slice(1, 2))[0]  # row k = 1: k m = m
        assert np.abs(lattice - exact).max() <= 1e-15


def test_operator_matrix_off_a_power_of_two():
    # a symbol grid may have any even size; the lattice's k m mod n was a
    # bit mask, right only on a power of two (Born-Jordan off by 10% at n = 12)
    n, dx = 12, 0.25
    rng = np.random.default_rng(n)
    grid = PhaseSpaceGrid.centered(n, dx, n, 1 / (2 * n * dx))
    a = Symbol(TFMatrix(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), grid))
    for rule in (born_jordan_rule(), tau_rule(0.3)):
        ref = operator_matrix(Symbol(symbol_filter_three_step(a.matrix, rule, conj=True)),
                              weyl_rule())
        assert sup_rel_error(operator_matrix(a, rule), ref) < TOL


@pytest.mark.parametrize("at", ["origin", "row_n/4"])
@pytest.mark.parametrize("n", [64, 512])
def test_ghost_report_region_rows_are_bit_identical(monkeypatch, n, at):
    # the report lag-transforms the region's rows alone, after the same
    # correlation and the same full lag filter as cohen, so its region
    # blocks, and the energies summed from them, are cohen's to the bit; a
    # region across row n/4 has delta rows outside wigner's band, exactly 0
    f = synth(SignalRecipe(kind="two_atoms", n=n, dx=16 / n, params={"dt": 1.0}))
    grid = wigner_grid(f)
    region = interference_region(0.0 if at == "origin" else grid.x_axis[n // 4], 0.0, grid)
    kernels = [born_jordan_kernel(), tau_kernel(0.3)]
    in_x = (grid.x_axis >= region.x_lo) & (grid.x_axis <= region.x_hi)
    in_w = (grid.w_axis >= region.w_lo) & (grid.w_axis <= region.w_hi)
    first, last = np.flatnonzero(in_x)[[0, -1]]
    seen = []

    def spy(out, band, rows=slice(None)):
        seen.append(rows)
        return _lag_step(out, band, rows)

    monkeypatch.setattr(distributions, "_lag_step", spy)
    reports = ghost_energy_report(f, kernels, region)
    assert seen == [slice(first, last + 1)] * 3
    monkeypatch.undo()
    for kernel, report in zip([delta_kernel()] + kernels, reports):
        full = cohen(f, f, kernel).values[np.ix_(in_x, in_w)]
        rows = distributions._cohen_rows(f, f, kernel, slice(first, last + 1))
        assert np.array_equal(rows[np.ix_(in_x, in_w)], full)
        assert report.energy == float(np.sum(np.abs(full) ** 2) * grid.cell_measure)


def _gaussian(n, lam, scale=1.0):
    """e^{-pi lam x^2} on a 64-unit window (the benchmark's at n = 1024):
    its tails underflow, so its products reach the subnormal range."""
    f = synth(SignalRecipe(kind="gaussian", n=n, dx=64 / n, params={"lam": lam}))
    return f.with_samples(f.samples * scale)


@pytest.mark.parametrize("n, scale", [(64, 1.0), (256, 1.0), (1024, 1.0), (64, 1e-150),
                                      (256, 1e-150)])
def test_flushed_samples_stay_within_the_flush_bound(n, scale):
    # the engines zero each sample below min(2^-510 / sqrt(min(scale, 1)),
    # 2^-100 of its signal's peak) (the kept products are then normal
    # numbers); what the zeroed samples carried is bounded by
    # ``flushed_sample_bound``, the dropped lags and rows by
    # ``dropped_lag_bound``, and the two add.  The bound stays far below the
    # output: a signal whose peak is 1e-150 keeps its samples (an absolute
    # floor alone would zero it whole), and its relative floor zeroes only
    # products that underflow to 0 anyway, so its bound reads 0
    f, g = _gaussian(n, 1.0, scale), _gaussian(n, 2.0, scale)
    for name in ("wigner", "bj", "tau0.3"):
        for h in (None, g):
            if name == "wigner":
                out, ref = wigner(f, h).values, wigner_direct_sum(f, f if h is None else h)
                flushed = flushed_sample_bound(f, h, 2 * f.dx)
            else:
                out, ref = cohen(f, h, KERNELS[name]).values, cohen_full_lag(f, h, KERNELS[name])
                flushed = flushed_sample_bound(f, h, 2 * f.dx / n)
            assert flushed <= 1e-20 * np.abs(ref).max()
            assert flushed > 0.0 or scale < 1.0
            bound = dropped_lag_bound(f, h) + flushed + 1e-14 * np.abs(ref).max()
            assert np.abs(out - ref).max() <= bound, name


@pytest.mark.parametrize("peak, small, kept", [
    # at a tiny peak the relative floor 2^-100 of the peak governs
    pytest.param(2.0**-450, 2.0**-549, True, id="relative-kept"),
    pytest.param(2.0**-450, 2.0**-551, False, id="relative-zeroed"),
    # at a normal peak the absolute floor 2^-510 / sqrt(2 dx) = 2^-508.5 does
    pytest.param(1.0, 2.0**-400, True, id="absolute-kept-2^-400"),
    pytest.param(1.0, 2.0**-505, True, id="absolute-kept-2^-505"),
    pytest.param(1.0, 2.0**-509, False, id="absolute-zeroed"),
])
@pytest.mark.parametrize("cross", [False, True], ids=["diag", "cross"])
def test_flush_floors_keep_and_zero_at_their_edges(peak, small, kept, cross):
    # two samples 4 cells apart: only their products reach row 32, and
    # every such product is a normal number, so the row is zero exactly
    # when the small sample was flushed
    n, dx = 64, 1 / 16
    samples = np.zeros(n)
    samples[30], samples[34] = peak, small
    f = SampledSignal(samples, x0=-n * dx / 2, dx=dx)
    row = wigner(f, f.with_samples(samples) if cross else None).values[32]
    assert (np.abs(row).max() > 0.0) == kept


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_cross_wigner_of_gaussians_holds_no_subnormal(lam):
    # the benchmark's cross pair at n = 1024: tails that underflow made
    # 10,000 to 20,000 subnormal output entries, each one slow in every pass
    # (with lam = 1 the imaginary parts are rounding noise about 0, and some
    # of that noise is subnormal, so the entries' magnitudes are checked)
    w = np.abs(wigner(_gaussian(1024, 1.0), _gaussian(1024, lam)).values)
    assert not ((w != 0.0) & (w < np.finfo(float).tiny)).any()


def _stft_call(f):
    window = canonical_window(f)
    return lambda: stft(f, window)


def _ghost_call(f):
    # every kernel's distribution in turn, no per-kernel copy of the
    # correlation: one n x n array plus the region's few cells at a time
    f = synth(SignalRecipe(kind="two_atoms", n=f.n, dx=16 / f.n, params={"dt": 1.0}))
    region = interference_region(0.0, 0.0, wigner_grid(f))
    return lambda: ghost_energy_report(f, [born_jordan_kernel(), tau_kernel(0.3)], region)


def _matrix_call(rule):
    def setup(f):
        a = Symbol.sample(lambda x, w: np.exp(-np.pi * (x**2 + w**2)), symbol_grid_for(f))
        return lambda: operator_matrix(a, rule)
    return setup


@pytest.mark.parametrize("setup, bound", [
    pytest.param(lambda f: lambda g=_copy(f): wigner(f, g), 2, id="wigner-2"),
    pytest.param(lambda f: lambda g=_copy(f): born_jordan(f, g), 3, id="born_jordan-3"),
    pytest.param(lambda f: lambda: wigner(f), 1.1, id="wigner_diag-1.1"),
    pytest.param(lambda f: lambda: born_jordan(f), 1.1, id="born_jordan_diag-1.1"),
    # the diagonal routes hold one n x n float64 array, the band in its bytes
    pytest.param(lambda f: lambda: wigner(f), 0.6, id="wigner_diag-0.6"),
    pytest.param(lambda f: lambda: born_jordan(f), 0.6, id="born_jordan_diag-0.6"),
    pytest.param(lambda f: lambda g=_copy(f): born_jordan(f, g), 1.08,
                 id="born_jordan_cross-1.08"),
    pytest.param(lambda f: lambda g=_copy(f): cohen(f, g, tau_kernel(0.3)), 1.1,
                 id="cohen_tau_cross-1.1"),
    pytest.param(_stft_call, 1.5, id="stft-1.5"),
    pytest.param(_matrix_call(weyl_rule()), 2.5, id="operator_matrix-2.5"),
    pytest.param(_matrix_call(born_jordan_rule()), 2.5, id="operator_matrix_bj-2.5"),
    pytest.param(_ghost_call, 1.5, id="ghost_energy_report-1.5"),
])
def test_traced_peak_memory(setup, bound):
    # peak of one call in units of 16 n^2 bytes, beyond its arguments (the
    # window, the symbol and the signal copy that selects the full route
    # are built before the measurement)
    n = 1024
    f = synth(SignalRecipe(kind="gabor_atom", n=n, dx=1 / 16))
    call = setup(f)
    call()  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * 16 * n * n
