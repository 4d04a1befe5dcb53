import tracemalloc

import numpy as np
import pytest

from tfq import (
    DomainError,
    MixedNormSpec,
    PhaseSpaceGrid,
    ResolutionError,
    SampledSignal,
    TFMatrix,
    amalgam_norm,
    canonical_window,
    centered_signal_axis,
    dft,
    fit_loglog,
    mixed_norm,
    modulation_norm,
    scaling_experiment,
    scaling_norm,
)
from tfq.grid import PHASE_SPACE, signal_from_function
from tfq.norms import FREQUENCY_INNER, POSITION_INNER

from conftest import band_limited_signal, gaussian_signal
from oracles import conjugate_exponent

INF = float("inf")


def test_conjugate_exponents():
    assert conjugate_exponent(1.0) == INF
    assert conjugate_exponent(INF) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert abs(conjugate_exponent(4.0) - 4.0 / 3.0) < 1e-15
    with pytest.raises(DomainError):
        conjugate_exponent(0.5)


def test_spec_validation():
    with pytest.raises(DomainError):
        MixedNormSpec(0.5, 2.0)
    with pytest.raises(DomainError, match="unknown nesting"):
        mixed_norm(single_cell_matrix(1.0), MixedNormSpec(2.0, 2.0), "diagonal")


def single_cell_matrix(value, n=16, dx=0.3, dw=0.7):
    grid = PhaseSpaceGrid.centered(n, dx, n, dw)
    vals = np.zeros((n, n), dtype=complex)
    vals[3, 5] = value
    return TFMatrix(vals, grid, PHASE_SPACE)


def test_single_cell_values():
    m = single_cell_matrix(2.0 - 1.0j)
    v = abs(2.0 - 1.0j)
    dx, dw = m.grid.dx, m.grid.dw
    for p in (1.0, 2.0, INF):
        for q in (1.0, 2.0, INF):
            want = v
            if not np.isinf(p):
                want *= dx ** (1.0 / p)
            if not np.isinf(q):
                want *= dw ** (1.0 / q)
            got = mixed_norm(m, MixedNormSpec(p, q), POSITION_INNER)
            assert abs(got - want) < 1e-12 * want


def test_sup_norm_is_max():
    m = single_cell_matrix(3.0 + 4.0j)
    assert mixed_norm(m, MixedNormSpec(INF, INF)) == 5.0


def test_l22_is_moyal(rng):
    from tfq import stft

    for _ in range(5):
        f = band_limited_signal(rng, n=256)
        g = canonical_window(f)
        v = stft(f, g)
        got = mixed_norm(v, MixedNormSpec(2.0, 2.0))
        want = np.sqrt(f.energy() * g.energy())
        assert abs(got - want) < 1e-6 * want


def test_homogeneity_and_triangle(rng):
    grid = PhaseSpaceGrid.centered(32, 0.25, 32, 0.125)
    a = TFMatrix(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)), grid, PHASE_SPACE)
    b = TFMatrix(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)), grid, PHASE_SPACE)
    alpha = -2.5 + 1.25j
    for p in (1.0, 2.0, INF):
        for q in (1.0, 2.0, INF):
            spec = MixedNormSpec(p, q)
            for order in (POSITION_INNER, FREQUENCY_INNER):
                na = mixed_norm(a, spec, order)
                scaled = mixed_norm(a.with_values(alpha * a.values), spec, order)
                assert abs(scaled - abs(alpha) * na) < 1e-12 * scaled
                nsum = mixed_norm(a.with_values(a.values + b.values), spec, order)
                assert nsum <= na + mixed_norm(b, spec, order) + 1e-12


def test_modulation_norm_gaussian_moyal():
    f = gaussian_signal(1.0, 512, 1 / 16)
    got = modulation_norm(f, MixedNormSpec(2.0, 2.0))
    assert abs(got - 2.0**-0.5) < 1e-5


def test_modulation_norm_zero_signal():
    f = gaussian_signal(1.0, 128, 1 / 16).with_samples(np.zeros(128))
    assert modulation_norm(f, MixedNormSpec(2.0, 2.0)) == 0.0


def test_gaussian_mixed_norm_closed_form():
    # |V_phi phi_lam| = (lam+1)^{-1/2} e^{-pi lam x^2/(lam+1)} e^{-pi w^2/(lam+1)}
    # gives N(p, q) = (lam+1)^{-1/2} (p a)^{-1/(2p)} (q b)^{-1/(2q)}
    lam = 1.0
    f = gaussian_signal(lam, 512, 1 / 16)
    a = lam / (lam + 1.0)
    b = 1.0 / (lam + 1.0)
    for p in (1.0, 2.0, INF):
        for q in (1.0, 2.0, INF):
            want = (lam + 1.0) ** -0.5
            if not np.isinf(p):
                want *= (p * a) ** (-0.5 / p)
            if not np.isinf(q):
                want *= (q * b) ** (-0.5 / q)
            got = modulation_norm(f, MixedNormSpec(p, q))
            assert abs(got - want) < 1e-5 * want


def test_gaussian_norm_nonincreasing_in_exponents():
    f = gaussian_signal(1.0, 512, 1 / 16)
    grid_vals = {
        (p, q): modulation_norm(f, MixedNormSpec(p, q))
        for p in (1.0, 2.0, INF)
        for q in (1.0, 2.0, INF)
    }
    order = [1.0, 2.0, INF]
    for qi in order:
        for a, b in zip(order, order[1:]):
            assert grid_vals[(b, qi)] <= grid_vals[(a, qi)] + 1e-8
    for pi in order:
        for a, b in zip(order, order[1:]):
            assert grid_vals[(pi, b)] <= grid_vals[(pi, a)] + 1e-8


def test_amalgam_consistency(rng):
    # transform-side identity: modulation norm of f == amalgam norm of Ff
    for _ in range(3):
        f = band_limited_signal(rng, n=256)
        for (p, q) in [(1.0, 2.0), (2.0, 2.0), (INF, 1.0)]:
            lhs = modulation_norm(f, MixedNormSpec(p, q))
            rhs = amalgam_norm(dft(f), MixedNormSpec(p, q))
            assert abs(lhs - rhs) < 1e-6 * lhs


def _norm_signal(kind, n):
    # "real" is exactly even on its centred axis, so the streamed norms
    # transform only half the window shifts; "shifted" is real but not
    # even, "complex_even" is even but complex (row n - s is row s with its
    # bins reversed) and "nudged" misses evenness by one ulp in one sample
    dx = min(1 / 16, 4.0 / n)
    x = centered_signal_axis(n, dx)
    if kind in ("real", "nudged"):
        samples = np.exp(-np.pi * x**2)
        if kind == "nudged":
            samples[n // 4] = np.nextafter(samples[n // 4], 0.0)
    elif kind == "shifted":
        samples = np.exp(-np.pi * (x - 0.3) ** 2)
    elif kind == "complex_even":
        samples = np.exp(-np.pi * x**2) * (1 + 0.5j * np.cos(2 * np.pi * 0.7 * x))
    else:
        samples = np.exp(-np.pi * 1.5 * (x - 0.3) ** 2 + 2j * np.pi * 0.7 * x)
    f = SampledSignal(samples, x0=float(x[0]), dx=dx)
    return dft(f) if kind == "dft" else f


@pytest.mark.parametrize("n", [8, 16, 256, 1024])
@pytest.mark.parametrize("kind", ["real", "complex", "dft", "shifted", "complex_even", "nudged"])
def test_streamed_norms_match_dense_stft(kind, n):
    # the streamed |V| route against the dense transform, every exponent
    # pair and both nestings; n = 8 and 16 lie below the row block
    from tfq import stft

    f = _norm_signal(kind, n)
    v = stft(f, canonical_window(f))
    exps = (1.0, 2.0, 3.5, INF)
    for p in exps:
        for q in exps:
            for norm, order in ((modulation_norm, POSITION_INNER),
                                (amalgam_norm, FREQUENCY_INNER)):
                want = mixed_norm(v, MixedNormSpec(p, q), order)
                got = norm(f, MixedNormSpec(p, q))
                assert abs(got - want) <= 1e-13 * want, (p, q, order)


@pytest.mark.parametrize("kind, halved", [("real", True), ("shifted", False), ("nudged", False)])
def test_streamed_norms_halve_rows_only_when_even(monkeypatch, kind, halved):
    # rows 0..n/2 of |V| carry the norm of an exactly even real f; any
    # other real f transforms every window shift
    n = 256
    f = _norm_signal(kind, n)
    rfft = np.fft.rfft
    count = []

    def spy(a, *args, **kwargs):
        count.append(a.shape[0])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    for norm in (modulation_norm, amalgam_norm):
        count.clear()
        norm(f, MixedNormSpec(2.0, 3.5))
        assert sum(count) == (n // 2 + 1 if halved else n)


def test_streamed_norm_memory_is_row_blocks():
    # tracemalloc peak in units of 16 n^2 bytes: the dense STFT route reads
    # 2.00, the streamed route holds a few 64-row blocks (measured 0.02)
    n = 4096
    f = gaussian_signal(1.0, n, 1 / 16)
    spec = MixedNormSpec(2.0, 2.0)
    modulation_norm(f, spec)  # first-call set-up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        modulation_norm(f, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 16 * n * n


def test_fit_loglog_recovers_slope(rng):
    lams = np.geomspace(1, 100, 8)
    vals = 3.0 * lams**-0.37
    fit = fit_loglog(lams, vals)
    assert abs(fit.exponent + 0.37) < 1e-12
    assert fit.stderr < 1e-12
    assert fit.points == 8
    with pytest.raises(DomainError):
        fit_loglog(lams[:4], vals[:4])


def test_fit_loglog_stderr_is_ols(rng):
    # a noisy six-point fit against the textbook OLS slope and its
    # standard error, sqrt(SSR / (N - 2) / Sxx)
    lams = np.geomspace(2.0, 500.0, 6)
    vals = 1.7 * lams**-0.3 * np.exp(0.05 * rng.normal(size=6))
    x, y = np.log(lams), np.log(vals)
    sxx = np.sum((x - x.mean()) ** 2)
    slope = np.sum((x - x.mean()) * (y - y.mean())) / sxx
    resid = y - y.mean() - slope * (x - x.mean())
    stderr = np.sqrt(np.sum(resid**2) / (len(x) - 2) / sxx)
    fit = fit_loglog(lams, vals)
    assert abs(fit.exponent - slope) <= 1e-12
    assert abs(fit.stderr - stderr) <= 1e-12 * stderr
    assert stderr > 1e-3


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_fit_loglog_rejects_bad_norms(bad):
    lams = np.geomspace(1, 100, 8)
    vals = lams**-0.5
    vals[3] = bad
    with pytest.raises(DomainError):
        fit_loglog(lams, vals)


def test_scaling_slopes_smoke():
    # one fast sweep per family; acceptance runs the full table
    lams = np.geomspace(16.0, 256.0, 6)
    fit = scaling_experiment("gaussian_mod", MixedNormSpec(2.0, 2.0), lams)
    assert abs(fit.exponent + 0.25) < 0.03
    fit = scaling_experiment("bump_amalgam", MixedNormSpec(INF, 1.0), lams)
    assert abs(fit.exponent + 0.5) < 0.05
    lams_small = np.geomspace(1.0 / 256.0, 1.0 / 16.0, 6)
    fit = scaling_experiment("gaussian_mod", MixedNormSpec(1.0, INF), lams_small)
    assert abs(fit.exponent + 0.5) < 0.05


def test_scaling_resolution_error():
    with pytest.raises(ResolutionError) as info:
        scaling_norm("gaussian_mod", MixedNormSpec(2.0, 2.0), 2.0**22)
    assert info.value.lam == 2.0**22


def test_sweep_signal_rejects_under_resolved_dilation(monkeypatch):
    # a profile that samples to all zeros on the sweep grid has no norm to
    # scale; stand in a zero bump, since the real grids resolve every family
    from tfq import norms

    monkeypatch.setattr(norms, "_bump", np.zeros_like)
    with pytest.raises(ResolutionError, match="under-resolved") as info:
        norms._sweep_signal("bump_amalgam", 4.0)
    assert info.value.lam == 4.0


@pytest.mark.parametrize("lam", [8.0, 11.3, 32.0])
@pytest.mark.parametrize("family", ["gaussian_mod", "bump_amalgam"])
def test_sweep_signals_and_windows_exactly_even(family, lam):
    # the sweep spacings, (n sqrt(lam))^{-1/2} for the Gaussians and
    # lam^{-1/2}/16 for the bump, are not dyadic; the centred axis is still
    # exactly antisymmetric, so both even profiles sample exactly even
    from tfq import norms

    f = norms._sweep_signal(family, lam)
    for s in (f.samples, canonical_window(f).samples):
        assert np.array_equal(s[1:], s[:0:-1])


def _gauss_sweep_closed_form(lam, p, q, amalgam):
    # |V_g f| = (lam+1)^{-1/2} e^{-pi a x^2} e^{-pi b w^2}, a = lam/(lam+1),
    # b = 1/(lam+1); the inner exponent p integrates over x (M^{p,q}) or,
    # for the amalgam nesting, over w
    a, b = lam / (lam + 1.0), 1.0 / (lam + 1.0)
    inner, outer = (b, a) if amalgam else (a, b)
    want = (lam + 1.0) ** -0.5
    if not np.isinf(p):
        want *= (p * inner) ** (-0.5 / p)
    if not np.isinf(q):
        want *= (q * outer) ** (-0.5 / q)
    return want


def _gauss_no_slack_points():
    # the dilations where 4 r^2 (lam+1)/sqrt(lam) = 2^k, r^2 = 53 ln 2 / pi,
    # for every n = 2^k from 128 (the least, at lam = 1) to the cap; each k
    # has a root lam > 1 and its reciprocal; in (k, lam, side), lam / side
    # lies just inside the point (n = 2^k) and lam * side just outside it
    out = []
    for k in range(7, 13):
        c = 2.0**k * np.pi / (4.0 * 53.0 * np.log(2.0))  # (lam+1)/sqrt(lam)
        s = (c + np.sqrt(c * c - 4.0)) / 2.0  # sqrt(lam) of the root above 1
        out += [(k, s * s, 1.0 + 1e-9), (k, 1.0 / (s * s), 1.0 - 1e-9)]
    return out


def test_gaussian_sweep_grids_change_at_no_slack_points():
    # just inside each no-slack point the grid holds exactly 2^k samples,
    # just outside 2^(k+1) (or the cap refuses it): this pins r and both
    # factors of the rule
    from tfq import norms

    for k, lam, side in _gauss_no_slack_points():
        assert norms._sweep_signal("gaussian_mod", lam / side).n == 2**k
        if k < 12:
            assert norms._sweep_signal("gaussian_mod", lam * side).n == 2 ** (k + 1)
        else:
            with pytest.raises(ResolutionError):
                norms._sweep_signal("gaussian_mod", lam * side)


_GAUSS_SWEEP_SPECS = [(1.0, 1.0), (1.0, INF), (INF, 1.0), (1.5, 1.5), (2.0, 4.0)]


@pytest.mark.parametrize("family", ["gaussian_mod", "gaussian_amalgam"])
def test_gaussian_sweep_norms_match_closed_form(family):
    # both Gaussian families to 1.2e-15 of the closed form, at every
    # no-slack point of the grid rule (taken just inside it, where each
    # error term sits at 2^-53 of the peak) and on a geometric grid
    lams = [lam / side for _, lam, side in _gauss_no_slack_points()]
    lams += list(np.geomspace(1.0 / 2048.0, 2048.0, 13))
    for lam in lams:
        for p, q in _GAUSS_SWEEP_SPECS:
            want = _gauss_sweep_closed_form(lam, p, q, family == "gaussian_amalgam")
            got = scaling_norm(family, MixedNormSpec(p, q), lam)
            assert abs(got - want) <= 1.2e-15 * want, (lam, p, q)


@pytest.mark.parametrize("lam, n", [(1 / 64, 512), (1.0, 256), (24.25, 1024), (96.0, 2048)])
def test_bump_sweep_grid_keeps_its_margins(lam, n):
    # the bump family keeps dx = lam^{-1/2}/16 capped at 1/16 and a window
    # of 1.15 x the combined supports at radius 2.96 (the n given here); its
    # norms are bit for bit those of a signal built on that grid here
    from tfq import norms

    dx = min(1.0, lam**-0.5) / 16.0
    f = norms._sweep_signal("bump_amalgam", lam)
    assert (f.n, f.dx) == (n, dx)
    ref = signal_from_function(lambda x: norms._bump(np.sqrt(lam) * x), n, dx)
    for p, q in [(1.0, INF), (2.0, 2.0), (INF, 1.0)]:
        spec = MixedNormSpec(p, q)
        assert scaling_norm("bump_amalgam", spec, lam) == amalgam_norm(ref, spec)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        scaling_norm("mystery", MixedNormSpec(2.0, 2.0), 4.0)


def test_ghost_region_outside_grid(rng):
    from tfq.norms import Rect, ghost_energy_report
    from tfq.synth import SignalRecipe, synth

    f = synth(SignalRecipe(kind="two_atoms", n=512, dx=1 / 16,
                           params={"dt": 4.0, "dnu": 0.0}))
    with pytest.raises(DomainError):
        ghost_energy_report(f, [], Rect(100.0, 101.0, 0.0, 0.1))


def test_ghost_report_rejects_zero_reference_energy():
    # a region in the outer rows x < -n dx / 4, where W is exactly 0
    from tfq.norms import Rect, ghost_energy_report
    from tfq.synth import SignalRecipe, synth

    f = synth(SignalRecipe(kind="two_atoms", n=512, dx=1 / 16,
                           params={"dt": 4.0, "dnu": 0.0}))
    with pytest.raises(DomainError, match="no region energy"):
        ghost_energy_report(f, [], Rect(-15.0, -13.0, -1.0, 1.0))


def test_ghost_report_rejects_overflowing_region_energy():
    # at dx = 1e300 the distribution, which carries 2 dx, squares past the
    # float range: a DomainError, where it warned and returned inf and NaN
    from tfq import born_jordan_kernel, wigner_grid
    from tfq.norms import ghost_energy_report, interference_region
    from tfq.synth import SignalRecipe, synth

    f = synth(SignalRecipe(kind="two_atoms", n=512, dx=1e300))
    region = interference_region(0.0, 0.0, wigner_grid(f))
    with pytest.raises(DomainError, match="region energy overflows"):
        ghost_energy_report(f, [born_jordan_kernel()], region)


def test_fit_loglog_rejects_repeated_dilations():
    lams = np.geomspace(1, 100, 8)
    vals = lams**-0.5
    with pytest.raises(DomainError, match="distinct"):
        fit_loglog(np.full(8, 5.0), np.full(8, 0.3))
    lams[3] = lams[2]
    with pytest.raises(DomainError, match="distinct"):
        fit_loglog(lams, vals)
