import warnings

import numpy as np
import pytest

from tfq import (
    AccuracyError,
    DomainError,
    PHASE_SPACE,
    PhaseSpaceGrid,
    SingularPointError,
    TFMatrix,
    ambiguity_multiplier,
    born_jordan_kernel,
    cosine_integral,
    delta_kernel,
    symplectic_fourier,
    tau_kernel,
    theta_growth_integral,
    theta_sigma_cell_averages,
    theta_sigma_d1,
    vg_theta_grid,
)
from tfq import kernels as kernels_module
from tfq.special import EULER_GAMMA

from conftest import sup_rel_error
from oracles import (
    cell_averages_four_corner,
    ci_brute,
    growth_brute2d,
    growth_mpmath,
    growth_p2_by_parts,
    growth_sinc_panels,
    vg_theta_brute,
    vg_theta_grid_dyadic,
)


# --- ambiguity multipliers ------------------------------------------------------

def test_multiplier_mass_one():
    for k in (delta_kernel(), born_jordan_kernel(), tau_kernel(0.3)):
        assert abs(ambiguity_multiplier(k, 0.0, 0.0) - 1.0) < 1e-12


def test_born_jordan_multiplier_axes_and_bounds(rng):
    k = born_jordan_kernel()
    z = rng.uniform(-20, 20, size=200)
    on_axis = ambiguity_multiplier(k, z, np.zeros_like(z))
    assert np.abs(on_axis - 1.0).max() < 1e-14
    z1 = rng.uniform(-20, 20, size=500)
    z2 = rng.uniform(-20, 20, size=500)
    vals = ambiguity_multiplier(k, z1, z2)
    assert np.abs(vals.imag).max() == 0.0
    assert np.abs(vals).max() <= 1.0
    # depends on the product only
    swap = ambiguity_multiplier(k, z2, z1)
    assert np.abs(vals - swap).max() < 1e-15


def test_tau_multiplier_values(rng):
    assert abs(ambiguity_multiplier(tau_kernel(0.0), 1.0, 1.0) + 1.0) < 1e-15
    assert abs(ambiguity_multiplier(tau_kernel(1.0), 1.0, 1.0) + 1.0) < 1e-15
    half = ambiguity_multiplier(tau_kernel(0.5), rng.normal(size=50), rng.normal(size=50))
    assert np.abs(half - 1.0).max() == 0.0
    z1 = rng.uniform(-5, 5, size=100)
    z2 = rng.uniform(-5, 5, size=100)
    a = ambiguity_multiplier(tau_kernel(0.2), z1, z2)
    b = ambiguity_multiplier(tau_kernel(0.8), z1, z2)
    assert np.abs(a - np.conj(b)).max() < 1e-14
    assert np.abs(np.abs(a) - 1.0).max() < 1e-14


def test_tau_conjugate_exponents_against_grid_transform():
    # the tau and (1-tau) kernels are pointwise conjugates, so their grid
    # transforms satisfy G_{1-tau}(z) = conj(G_tau(-z)) exactly; the
    # multipliers inherit the same relation (product even under z -> -z)
    tau = 0.2
    n, d = 256, 1 / 16
    grid = PhaseSpaceGrid.dft_compatible(n, d)
    x = grid.x_axis[:, None]
    w = grid.w_axis[None, :]

    def kernel_grid(t):
        scale = 2.0 / abs(2 * t - 1)
        return TFMatrix(
            scale * np.exp(2j * np.pi * (2.0 / (2 * t - 1)) * x * w),
            grid,
            PHASE_SPACE,
        )

    g_tau = symplectic_fourier(kernel_grid(tau)).values
    g_conj = symplectic_fourier(kernel_grid(1.0 - tau)).values
    neg = (-np.arange(n)) % n
    flipped = np.conj(g_tau[np.ix_(neg, neg)])
    assert np.abs(g_conj - flipped).max() < 1e-9 * np.abs(g_tau).max()


def test_kernel_validation():
    from tfq.kernels import CohenKernel

    with pytest.raises(DomainError):
        tau_kernel(1.5)
    with pytest.raises(DomainError):
        CohenKernel("nonsense")


# --- the Born-Jordan phase-space kernel -------------------------------------------

def test_theta_sigma_reference_value():
    # |z1 z2| = 1/(4 pi)  ->  -2 Ci(1)
    got = theta_sigma_d1(1.0, 1.0 / (4 * np.pi))
    assert got < 0
    assert abs(got - (-2 * ci_brute(1.0))) < 1e-9


def test_theta_sigma_small_argument_law():
    p = 1e-8
    got = theta_sigma_d1(p, 1.0)
    assert abs(got + 2 * (EULER_GAMMA + np.log(4 * np.pi * p))) < 1e-6


def test_theta_sigma_symmetries(rng):
    pts = rng.uniform(0.05, 3.0, size=(50, 2))
    a = theta_sigma_d1(pts[:, 0], pts[:, 1])
    assert np.abs(a - theta_sigma_d1(pts[:, 1], -pts[:, 0])).max() == 0.0
    assert np.abs(a - theta_sigma_d1(-pts[:, 0], -pts[:, 1])).max() == 0.0


def test_theta_sigma_singular_axis():
    with pytest.raises(SingularPointError):
        theta_sigma_d1(0.0, 1.0)
    with pytest.raises(SingularPointError):
        theta_sigma_d1(np.array([1.0, 2.0]), np.array([3.0, -0.0]))


@pytest.mark.parametrize("z1, z2", [(1e-200, 1e-200), (1e-200, -1e-120), (-1e-160, 1e-150),
                                     (3e-155, 7e-154)])
def test_theta_sigma_underflowing_product(z1, z2):
    # z1 z2 below the normal range is off the axes: the series law from
    # log|z1| + log|z2|, against mpmath's Ci of the exact product
    import mpmath

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = theta_sigma_d1(z1, z2)
    with mpmath.workdps(40):
        want = float(-2 * mpmath.ci(4 * mpmath.pi * abs(mpmath.mpf(z1) * mpmath.mpf(z2))))
    assert abs(got - want) <= 4e-16 * want


@pytest.mark.parametrize("z1, z2", [(1e200, 1e200), (-1e154, 1.3e154), (1e300, -1e10)])
def test_theta_sigma_overflowing_product(z1, z2):
    # 4 pi |z1 z2| past the float range: Ci there is below 2e-308, and the
    # kernel reads 0.0, with no overflow warning
    import mpmath

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = theta_sigma_d1(z1, z2)
    with mpmath.workdps(40):
        want = -2 * mpmath.ci(4 * mpmath.pi * abs(mpmath.mpf(z1) * mpmath.mpf(z2)))
    assert got == 0.0 and abs(want) < 2e-308


def test_theta_sigma_extremes_in_one_array():
    z1 = np.array([1e-200, 1.0, 1e200, 0.3])
    z2 = np.array([1e-200, 0.25, 1e200, -1e-310])
    got = theta_sigma_d1(z1, z2)
    assert np.array_equal(got, [theta_sigma_d1(a, b) for a, b in zip(z1, z2)])
    with pytest.raises(DomainError, match="theta_sigma_d1"):
        theta_sigma_d1(np.inf, 1.0)
    with pytest.raises(DomainError, match="theta_sigma_d1"):
        theta_sigma_d1(1.0, np.nan)


def test_cell_averages_match_fine_quadrature_off_axis():
    dx, dw = 1 / 16, 1 / 64
    gx, gw = np.polynomial.legendre.leggauss(24)
    for u0, v0 in [(0.5, 0.25), (-1.5, 2.0), (3.0, 0.25)]:
        got = theta_sigma_cell_averages(np.array([u0]), np.array([v0]), dx, dw)[0, 0]
        um = u0 + 0.5 * dx * gx
        vm = v0 + 0.5 * dw * gx
        vals = -2.0 * cosine_integral(4 * np.pi * np.abs(np.outer(um, vm)))
        ref = (gw @ vals @ gw) / 4.0  # weights normalised to the unit cell
        assert abs(got - ref) < 1e-10


def test_cell_averages_nested_consistency():
    # the average over a cell equals the mean over its four quadrant subcells,
    # including cells sitting on the singular axes
    dx, dw = 1 / 16, 1 / 64
    for u0 in [0.0, 0.5, -1.5]:
        for v0 in [0.0, 0.25]:
            whole = theta_sigma_cell_averages(
                np.array([u0]), np.array([v0]), dx, dw
            )[0, 0]
            subs = theta_sigma_cell_averages(
                np.array([u0 - dx / 4, u0 + dx / 4]),
                np.array([v0 - dw / 4, v0 + dw / 4]),
                dx / 2,
                dw / 2,
            )
            assert abs(whole - subs.mean()) < 1e-9 * max(1.0, abs(whole))


def test_cell_averages_match_pointwise_away_from_axes():
    # far from the axes the kernel is smooth; the cell average approaches the
    # centre value
    dx = dw = 1 / 64
    u = np.array([2.0, 3.5])
    v = np.array([1.5, 2.5])
    avg = theta_sigma_cell_averages(u, v, dx, dw)
    point = theta_sigma_d1(u[:, None], v[None, :])
    assert np.abs(avg - point).max() < 1e-4


def _bj_lattice(n, dx):
    # born_jordan_direct's cells: 2n - 1 offsets per axis, dw = 1/(2 n dx)
    dw = 1.0 / (2.0 * n * dx)
    return dx * np.arange(-(n - 1), n), dw * np.arange(-(n - 1), n), dx, dw


@pytest.mark.parametrize("dx", [1 / 16, 0.1], ids=["dyadic", "decimal"])
@pytest.mark.parametrize("n", [64, 255, 256])
def test_cell_averages_match_four_corner_oracle(n, dx):
    args = _bj_lattice(n, dx)
    got = theta_sigma_cell_averages(*args)
    assert sup_rel_error(got, cell_averages_four_corner(*args)) <= 1e-13


def test_cell_averages_match_four_corner_oracle_off_lattice(rng):
    dx, dw = 0.07, 0.13
    # overlapping cells at random offsets; cells centred on the axes or
    # with an edge on them
    on_axes = np.array([0.0, dx / 2, -dx / 2, dx / 4, -1.5 * dx, 0.3])
    cases = [
        (rng.uniform(-6, 6, 200), rng.uniform(-3, 3, 150)),
        (on_axes, np.array([0.0, dw / 2, -dw / 2, 0.9, -2.0])),
    ]
    for u, v in cases:
        got = theta_sigma_cell_averages(u, v, dx, dw)
        assert sup_rel_error(got, cell_averages_four_corner(u, v, dx, dw)) <= 1e-13


def test_cell_averages_evaluate_once_per_distinct_corner(monkeypatch):
    sizes = []
    real = kernels_module._on_branches

    def counted(t, arr, series, far):
        sizes.append(np.size(arr))
        return real(t, arr, series, far)

    monkeypatch.setattr(kernels_module, "_on_branches", counted)
    n = 256
    # dyadic lattice: corners at |x|, |w| = (k + 1/2) d, k < n, so n^2 in
    # all, where every cell's own four corners would be 4 (2n - 1)^2
    theta_sigma_cell_averages(*_bj_lattice(n, 1 / 16))
    assert sum(sizes) == n * n
    # on a decimal lattice rounding splits some shared edges in two
    sizes.clear()
    theta_sigma_cell_averages(*_bj_lattice(n, 0.07))
    assert sum(sizes) <= (2 * n) ** 2


# --- growth of |Theta|^p ----------------------------------------------------------

def test_growth_matches_brute_2d():
    for p, R in [(1.0, 2.0), (2.0, 4.0), (3.5, 8.0)]:
        got = theta_growth_integral(p, R)
        ref = growth_brute2d(p, R)
        assert abs(got - ref) / ref < 1e-4


@pytest.mark.parametrize("R", [8.0, 48.0, 384.0, 1.0e4])
def test_growth_p2_matches_integration_by_parts(R):
    # an independent route through Si; R = 384 and 1e4 also reach the
    # closed-form tail past u = 16384.  It measured <= 3.3e-14 relative
    got = theta_growth_integral(2.0, R)
    ref = growth_p2_by_parts(R)
    assert abs(got - ref) <= 1e-11 * ref


@pytest.mark.parametrize("R", [1.0, 1.2, 3.0, 7.3, 24.0, 128.5, 384.0, 1.0e4])
@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 4.7, 8.0])
def test_growth_matches_sinc_panel_oracle(p, R):
    # no unit panel (R = 1, 1.2), a partial last panel (1.2, 7.3), whole unit
    # panels only (3, 24) and the period-average tail (128.5, 384, 1e4)
    got = theta_growth_integral(p, R)
    ref = growth_sinc_panels(p, R)
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("R", [1.2, 1.7, 3.0, 7.3])
@pytest.mark.parametrize("p", [1.3, 1.57, 3.5, 4.7, 6.2])
def test_growth_matches_mpmath_at_non_integer_p(p, R):
    # |sinc|^p meets each zero as |t|^p, which a rule exact only for
    # polynomials resolves slowly at non-integer p; it measured <= 3e-16
    got = theta_growth_integral(p, R)
    ref = growth_mpmath(p, R)
    assert abs(got - ref) <= 1e-14 * ref


@pytest.mark.parametrize("R", [384.0, 1.0e4])
def test_growth_continuous_as_p_tends_to_one(R):
    # the tail past u = 16384 has no branch at p = 1; dI/dp measured about -1.06e3
    base = theta_growth_integral(1.0, R)
    for d in (1e-12, 1e-10, 1e-8, 1e-6):
        assert abs(theta_growth_integral(1.0 + d, R) - base) <= 2e3 * d + 1e-12 * base


def test_growth_monotone_with_increment_floor():
    radii = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    vals = [theta_growth_integral(1.0, R) for R in radii]
    for a, b in zip(vals, vals[1:]):
        assert b > a
    for (Ra, a), (Rb, b) in zip(zip(radii, vals), list(zip(radii, vals))[1:]):
        if Ra >= 8.0:
            assert b - a > 0.5


def test_growth_lower_bound():
    # (2/pi)^p meas{|x w| <= 1/2 inside the box}
    for p in (1.0, 2.0):
        for R in (2.0, 16.0, 256.0):
            meas = 4.0 * (0.5 + 0.5 * np.log(R * R / 0.5))
            assert theta_growth_integral(p, R) >= (2.0 / np.pi) ** p * meas


def test_growth_domain_errors():
    with pytest.raises(DomainError):
        theta_growth_integral(0.5, 10.0)
    with pytest.raises(DomainError):
        theta_growth_integral(2.0, 2.0e4)


# --- STFT of the sinc kernel ------------------------------------------------------

VG_POINTS = [
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 1.0),
    (1.0, 1.0, 0.0, 0.0),
    (2.0, -1.0, 0.5, 0.3),
    (0.3, 0.7, 1.5, -1.2),
    (3.0, 2.0, 2.0, 2.0),
    (1.2, -0.4, 0.02, 3.0),
    (-2.0, 3.0, 1.0, -0.7),
    (0.0, 0.0, 2.8, 2.8),
]


def vg_theta(z1, z2, zeta1, zeta2, tol=1e-6):
    """vg_theta_grid at the single point (zeta1, zeta2)."""
    return complex(vg_theta_grid(z1, z2, [zeta1], [zeta2], tol)[0][0, 0])


def test_vg_theta_against_direct_definition():
    for pt in VG_POINTS:
        got = vg_theta(*pt)
        ref = vg_theta_brute(*pt)
        assert abs(got - ref) < 1e-5


def test_vg_theta_zero_frequency_value():
    # at z = zeta = 0 the integral collapses to 2 asinh(1/2)
    assert abs(vg_theta(0, 0, 0, 0) - 2.0 * np.arcsinh(0.5)) < 1e-10


def test_vg_theta_symplectic_symmetry(rng):
    for _ in range(20):
        z1, z2 = rng.uniform(-2, 2, size=2)
        zeta1, zeta2 = rng.uniform(-2, 2, size=2)
        a = abs(vg_theta(z1, z2, zeta1, zeta2))
        b = abs(vg_theta(z2, -z1, zeta2, -zeta1))
        assert abs(a - b) < 1e-6


def test_vg_theta_grid_matches_scalar(rng):
    z1, z2 = 0.7, -0.3
    zeta1 = np.linspace(-2, 2, 7)
    zeta2 = np.linspace(-1.5, 1.5, 5)
    grid_vals, est = vg_theta_grid(z1, z2, zeta1, zeta2)
    assert est < 1e-6
    for i, a in enumerate(zeta1):
        for j, b in enumerate(zeta2):
            assert abs(grid_vals[i, j] - vg_theta(z1, z2, a, b)) < 1e-9


def test_vg_theta_uniform_bound_smoke(rng):
    # the window-integrated magnitude is maximised at z = 0 (where the
    # kernel's axis mass sits); random window positions stay below that
    # constant within tolerance.  Fast version; the acceptance suite runs
    # the full 100-point sweep.
    axis = np.arange(-6.0, 6.0, 0.5) + 0.25
    base, _ = vg_theta_grid(0.0, 0.0, axis, axis)
    ref = np.sum(np.abs(base)) * 0.25
    assert np.isfinite(ref)
    for _ in range(5):
        z1, z2 = rng.uniform(-3, 3, size=2)
        vals, _ = vg_theta_grid(z1, z2, axis, axis)
        tot = np.sum(np.abs(vals)) * 0.25
        assert np.isfinite(tot)
        assert tot <= (1.0 + 0.05) * ref


# the benchmark's zeta axis and window positions: three magnitudes in every
# quadrant and both coordinate orders, the centre, and one far point
VG_AXIS = np.arange(-6.0, 6.0, 0.5) + 0.25
VG_ORACLE_Z = sorted(
    {(0.0, 0.0), (6.0, 5.0)}
    | {(s1 * m[o], s2 * m[1 - o])
       for m in ((2.0, 1.0), (0.5, 2.5), (1.5, 1.5))
       for o in (0, 1) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)}
)


@pytest.mark.parametrize("z", VG_ORACLE_Z, ids=str)
def test_vg_theta_grid_matches_dyadic_oracle(z):
    vals, est = vg_theta_grid(*z, VG_AXIS, VG_AXIS)
    ref, _ = vg_theta_grid_dyadic(*z, VG_AXIS, VG_AXIS)
    assert est < 1e-6
    assert sup_rel_error(vals, ref) <= 1e-12


def _count_integrand_calls(monkeypatch):
    calls = []
    real = kernels_module._vg_integrand

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels_module, "_vg_integrand", counted)
    return calls


def test_vg_theta_grid_integrand_calls(monkeypatch):
    # uniform panels sized by the phase rate at the live points: at z = (2, 1)
    # on the benchmark axis that rate is below 24 (about 52 over the whole
    # grid), so 3 sub-panels per rule, 6 calls in all
    calls = _count_integrand_calls(monkeypatch)
    vg_theta_grid(2.0, 1.0, VG_AXIS, VG_AXIS)
    assert len(calls) <= 6


def test_vg_theta_grid_ignores_rate_at_dead_points(monkeypatch):
    # at z = 0 the rate |zeta1 zeta2| reaches 1e6 at (-1000, -1000), far past
    # the budget, but only (0.25, 0.25) lies within reach of the integrand
    calls = _count_integrand_calls(monkeypatch)
    axis = [-1000.0, 0.25]
    vals, est = vg_theta_grid(0.0, 0.0, axis, axis)
    assert len(calls) == 2  # one sub-panel per rule
    assert est < 1e-6
    assert abs(vals[1, 1] - vg_theta_brute(0.0, 0.0, 0.25, 0.25)) < 1e-12
    assert np.max(np.abs(vals[0])) <= 2.0**-60 and abs(vals[1, 0]) <= 2.0**-60


@pytest.mark.parametrize("side, calls_expected", [(-1.0, 4), (1.0, 2)])
def test_vg_theta_grid_live_point_threshold(monkeypatch, side, calls_expected):
    # a point is live while its amplitude bound e^{-pi d^2 / 1.25} is at
    # least 2^-60.  At z = 0 the point (a, a) lies at squared distance 2 a^2
    # from the segment, just inside or just outside that threshold; its rate
    # a^2 = 8.27 is the only one above 8, so it alone decides 2 or 1 sub-panels
    dead_d2 = 1.25 * 60.0 * np.log(2.0) / np.pi
    a = np.sqrt(0.5 * dead_d2 * (1.0 + side * 1e-9))
    calls = _count_integrand_calls(monkeypatch)
    vg_theta_grid(0.0, 0.0, [0.0, a], [0.0, a])
    assert len(calls) == calls_expected


@pytest.mark.parametrize(
    "args",
    [
        (1e300, 1e300, [1.0], [1.0]),
        (0.0, 0.0, [1e300], [1e300]),
        (0.0, 0.0, [1e300, 0.25], [1e300, 0.25]),
    ],
)
def test_vg_theta_grid_overflowing_rate_raises_before_allocating(monkeypatch, args):
    # finite input whose phase rate overflows, even only at a dead point:
    # no OverflowError, RuntimeWarning or NaN result, and no integrand call
    calls = _count_integrand_calls(monkeypatch)
    with pytest.raises(AccuracyError, match="overflows") as info:
        vg_theta_grid(*args)
    assert info.value.achieved == np.inf
    assert not calls


def test_vg_theta_grid_nan_error_raises(monkeypatch):
    monkeypatch.setattr(kernels_module, "_vg_integrand",
                        lambda t, *rest: np.full(np.broadcast(t, *rest[2:]).shape, np.nan))
    with pytest.raises(AccuracyError) as info:
        vg_theta_grid(0.0, 0.0, [0.25], [0.25])
    assert np.isnan(info.value.achieved)


@pytest.mark.parametrize(
    "args, name",
    [
        ((np.nan, 0.0, [1.0], [1.0]), "z1"),
        ((0.0, np.inf, [1.0], [1.0]), "z2"),
        ((0.0, 0.0, [1.0, -np.inf], [1.0]), "zeta1_axis"),
        ((0.0, 0.0, [1.0], [np.nan]), "zeta2_axis"),
        ((0.0, 0.0, [], [1.0]), "zeta1_axis"),
        ((0.0, 0.0, [1.0], []), "zeta2_axis"),
    ],
)
def test_vg_theta_grid_rejects_non_finite_or_empty_input(args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(DomainError, match=name):
            vg_theta_grid(*args)


# --- round trip: grid transform of sinc vs the Ci formula -------------------------

def test_grid_transform_of_sinc_matches_ci_formula():
    # Sampling must respect the x-bandwidth |w|/2 of sinc(x w): n dx^2 <= 2.
    # The remaining finite-window deficit along each axis is the exact strip
    # integral 2 Ci(pi L |zeta|), subtracted before comparing.
    n, d = 2048, 1 / 32
    L = n * d
    grid = PhaseSpaceGrid.centered(n, d, n, d)
    x = grid.x_axis
    vals = np.sinc(np.outer(x, x))
    amb = symplectic_fourier(TFMatrix(vals, grid, PHASE_SPACE))
    z1 = amb.grid.x_axis[:, None]
    z2 = amb.grid.w_axis[None, :]
    P = np.abs(z1 * z2)
    sel = (P >= 0.2) & (P <= 2.0)
    ref = -2.0 * cosine_integral(4 * np.pi * P[sel])
    window_deficit = 2.0 * cosine_integral(
        np.pi * L * np.abs(np.broadcast_to(z1, P.shape)[sel])
    ) + 2.0 * cosine_integral(np.pi * L * np.abs(np.broadcast_to(z2, P.shape)[sel]))
    got = amb.values[sel].real - window_deficit
    denom_ok = np.abs(ref) >= 0.1
    rel = np.abs(got - ref)[denom_ok] / np.abs(ref)[denom_ok]
    assert rel.max() < 1e-2


def test_vg_theta_accuracy_error_carries_bound():
    from tfq import AccuracyError

    with pytest.raises(AccuracyError) as info:
        vg_theta(0.5, -0.4, 1.0, 2.0, tol=1e-30)
    assert info.value.achieved > 1e-30


def test_vg_theta_grid_panel_budget_raises_before_allocating():
    # the phase rate at z = (1e9, 0) asks for ~1.2e8 sub-panels; the budget
    # ends the call before any per-panel array exists
    from tfq import AccuracyError

    with pytest.raises(AccuracyError, match="budget") as info:
        vg_theta_grid(1e9, 0.0, [1.0], [0.0])
    assert info.value.achieved == np.inf
