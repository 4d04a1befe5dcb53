"""Brute-force oracles used by the tests.

Most deliberately avoid the library's evaluation paths: plain panel
quadrature against defining integrals only.  Four check the fused
distribution engine: a direct DFT sum for the cross-distribution, the
same sum after a time filter of the correlation (both over every lag
|m| < n/2 of every row, where the engines build only |m| <= n/4 on the
central rows; ``dropped_lag_bound`` bounds what the other entries carry,
``flushed_sample_bound`` what the samples the engines zero carry),
and the three-step ambiguity route (symplectic transform, multiplier,
symplectic transform back) built from public functions only, for a
kernel or for any multiplier callable (z1, z2) -> complex.  Two check the
centred transforms at any size, n = 2 mod 4 and odd n included: the
symplectic transform as its defining double sum
(``symplectic_fourier_direct``) and the Weyl operator matrix as its lag
sum over w (``weyl_matrix_direct``).  Two more
check the Born-Jordan kernel: its cell averages with one antiderivative evaluation
per cell corner, and the distribution as a tau-average of tau-Wigner
distributions, with neither the multiplier nor Ci.  Two are the library's
former routes, kept as references: Ci evaluated on one named branch of
the former series / panel-quadrature / asymptotic dispatch (``ci_evaluate``,
with its own copy of the eight-term expansion) and the kernel STFT on
dyadic t-panels (``vg_theta_grid_dyadic``).  Three check the growth
integral: ``np.sinc`` on every u-panel, each halving toward the zeros of
sinc at both ends (``growth_sinc_panels``), mpmath's tanh-sinh quadrature
between those zeros (``growth_mpmath``), and at p = 2 the integral
integrated by parts through mpmath's Si (``growth_p2_by_parts``).

The rest were library functions that only the tests called:
``tau_wigner_direct`` (the tau-distribution by spectral fractional delays,
with its own lag FFT, the oracle for ``cohen`` with a tau kernel),
``circular_convolve`` (the grid convolution behind the convolution
identity of the symplectic transform), ``compose_j`` with
``is_j_closed`` (a matrix composed with the rotation J on a grid whose two
axes coincide) and ``conjugate_exponent`` (the Hoelder pair p').
"""

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, log

import mpmath
import numpy as np

from tfq import (
    PHASE_SPACE,
    DomainError,
    GridError,
    TFMatrix,
    ambiguity_multiplier,
    assert_central_support,
    cosine_integral,
    sine_integral,
    symplectic_fourier,
    wigner,
    wigner_grid,
)
from tfq.grid import _ORIGIN_RTOL
from tfq.kernels import _vg_integrand
from tfq.special import _SERIES_CUT, _ci_series

_ASYM_CUT = 32.0  # where ci_evaluate's own dispatch turns to the expansion


def _cos_panel_integral(t: float, m: int, order: int) -> float:
    """-int_t^{m pi} cos(s)/s ds by Gauss-Legendre panels between the zeros
    of cos; the first panel is refined geometrically (the 1/s factor is
    steep for small t)."""
    far = m * np.pi
    k0 = int(np.floor(t / np.pi - 0.5)) + 1
    zeros = (np.arange(k0, m) + 0.5) * np.pi
    zeros = zeros[(zeros > t) & (zeros < far)]
    first_end = zeros[0] if len(zeros) else far
    nlog = max(4, int(np.ceil(np.log2(first_end / t))) * 4)
    head = np.geomspace(t, first_end, nlog + 1)
    rest = zeros[1:] if len(zeros) else np.empty(0)
    bounds = np.concatenate([head, rest, [far]])
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = bounds[:-1], bounds[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    s = mid[:, None] + half[:, None] * x
    segs = ((np.cos(s) / s) @ w) * half
    return -fsum(segs.tolist())


def ci_brute(t: float, far_target: float = 1.0e6, order: int = 12) -> float:
    """-int_t^inf cos(s)/s ds by panels out to a zero of sin near
    ``far_target``; the dropped tail is then bounded by 1/T^2 + 2/T^3
    (integration by parts twice), ~1e-12."""
    return _cos_panel_integral(t, int(round(far_target / np.pi)), order)


@dataclass(frozen=True)
class CiEvaluation:
    """A cosine-integral value together with the method that produced it."""

    t: float
    value: float
    method_tag: str  # "series" | "quadrature" | "asymptotic"


def _ci_asymptotic(t):
    """Ci(t) = sin t f(t) - cos t g(t) with the divergent expansions
    f ~ (1/t)(1 - 2!/t^2 + 4!/t^4 - ...) and g ~ (1/t^2)(1 - 3!/t^2 + ...)
    truncated at eight terms: off by 2e-8 at t = 16, 5e-14 at 32, 5e-18 at 64."""
    t2 = t * t
    f = np.ones_like(t)
    g = np.ones_like(t)
    cf = np.ones_like(t)
    cg = np.ones_like(t)
    sign = 1.0
    for k in range(1, 8):
        sign = -sign
        cf = cf * ((2 * k - 1) * (2 * k)) / t2
        cg = cg * ((2 * k) * (2 * k + 1)) / t2
        f = f + sign * cf
        g = g + sign * cg
    return np.sin(t) * (f / t) - np.cos(t) * (g / t2)


def _ci_quadrature_scalar(t: float) -> float:
    """Panel quadrature of -int_t^inf cos(s)/s ds up to a zero of sin past
    max(64, t + 8 pi); the remainder uses the eight-term expansion, whose
    error there is below 1e-16."""
    m = int(np.ceil(max(64.0, t + 8 * np.pi) / np.pi))
    return _cos_panel_integral(t, m, 24) + float(_ci_asymptotic(np.array([m * np.pi]))[0])


def ci_evaluate(t: float, method: str | None = None) -> CiEvaluation:
    """Evaluate Ci(t) on one named branch, explicit or chosen by this
    oracle's own cut points: the series up to 4, panel quadrature up to 32
    and the eight-term expansion from 32 on.  The library no longer
    dispatches this way; above 4 it takes Ci from the auxiliary functions
    f and g.

    ``series`` is admissible only for t <= 4 and ``asymptotic`` only for
    t >= 16; ``quadrature`` (a scalar panel route) is admissible everywhere
    and serves as the reference branch.
    """
    t = float(t)
    if t <= 0.0:
        raise DomainError("cosine_integral requires t > 0")
    if method is None:
        if t <= _SERIES_CUT:
            method = "series"
        elif t >= _ASYM_CUT:
            method = "asymptotic"
        else:
            method = "quadrature"
    if method == "series":
        if t > _SERIES_CUT:
            raise DomainError("series branch is restricted to t <= 4")
        value = float(_ci_series(np.array([t]))[0])
    elif method == "asymptotic":
        if t < 16.0:
            raise DomainError("asymptotic branch is restricted to t >= 16")
        value = float(_ci_asymptotic(np.array([t]))[0])
    elif method == "quadrature":
        value = _ci_quadrature_scalar(t)
    else:
        raise DomainError(f"unknown Ci method {method!r}")
    return CiEvaluation(t=t, value=value, method_tag=method)


def gauss_legendre_cells(lo: float, hi: float, cell: float, order: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    n = int(np.ceil((hi - lo) / cell))
    mids = lo + cell * (np.arange(n) + 0.5)
    h = cell / 2.0
    nodes = (mids[:, None] + h * x[None, :]).ravel()
    weights = np.tile(w * h, n)
    return nodes, weights


def wigner_point_brute(f_fn, g_fn, x: float, w: float, span: float = 20.0,
                       cell: float = 0.05, order: int = 8) -> complex:
    """Quadrature of int e^{-2 pi i y w} f(x + y/2) conj(g(x - y/2)) dy."""
    y, wt = gauss_legendre_cells(-span, span, cell, order)
    vals = f_fn(x + y / 2.0) * np.conj(g_fn(x - y / 2.0)) * np.exp(-2j * np.pi * y * w)
    return complex(np.sum(vals * wt))


def stft_point_brute(f_fn, g_fn, x: float, w: float, span: float = 12.0,
                     cell: float = 0.05, order: int = 8) -> complex:
    """Quadrature of int f(y) conj(g(y - x)) e^{-2 pi i y w} dy."""
    y, wt = gauss_legendre_cells(-span, span, cell, order)
    vals = f_fn(y) * np.conj(g_fn(y - x)) * np.exp(-2j * np.pi * y * w)
    return complex(np.sum(vals * wt))


def vg_theta_brute(z1, z2, zeta1, zeta2, span: float = 5.0, cell: float = 1 / 16,
                   order: int = 6) -> complex:
    """Direct 2D quadrature of the defining STFT integral of sinc(y1 y2)
    against the standard Gaussian window, on a window-centred box."""
    y1, w1 = gauss_legendre_cells(z1 - span, z1 + span, cell, order)
    y2, w2 = gauss_legendre_cells(z2 - span, z2 + span, cell, order)
    Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
    vals = (
        np.sinc(Y1 * Y2)
        * np.exp(-np.pi * ((Y1 - z1) ** 2 + (Y2 - z2) ** 2))
        * np.exp(-2j * np.pi * (Y1 * zeta1 + Y2 * zeta2))
    )
    return complex(w1 @ vals @ w2)


def vg_theta_grid_dyadic(z1, z2, zeta1_axis, zeta2_axis):
    """``vg_theta_grid``'s t-integral on a different panel layout: 12 dyadic
    levels toward t = 0 on each side of [-1/2, 1/2], each split so that no
    chunk holds more than a few phase cycles at the grid's fastest rate.
    Shares only the integrand with the library (``vg_theta_brute`` checks
    that against the defining 2D integral).

    Returns (values, error_estimate), the estimate summing the largest
    32- vs 20-node difference over the panels.
    """
    Z1 = np.asarray(zeta1_axis, dtype=float)[:, None]
    Z2 = np.asarray(zeta2_axis, dtype=float)[None, :]
    rate = float(np.max(np.abs(Z1 * Z2 - z1 * z2) + np.abs(z1 * Z1 + z2 * Z2)))
    rules = [np.polynomial.legendre.leggauss(n) for n in (32, 20)]
    total = np.zeros((Z1.shape[0], Z2.shape[1]), dtype=complex)
    err = 0.0
    for sgn in (1.0, -1.0):
        for k in range(12):
            hi = sgn * 2.0 ** -(k + 1)
            lo = hi / 2.0 if k < 11 else 0.0
            a, b = (lo, hi) if sgn > 0 else (hi, lo)
            nsub = max(1, int(np.ceil(rate * abs(b - a) / 4.0)))
            e = np.linspace(a, b, nsub + 1)
            mid = 0.5 * (e[:-1] + e[1:])
            half = 0.5 * (e[1:] - e[:-1])
            v32, v20 = (
                sum(np.tensordot(w, _vg_integrand((m + h * x)[:, None, None], z1, z2, Z1, Z2),
                                 axes=(0, 0)) * h for m, h in zip(mid, half))
                for x, w in rules
            )
            total += v32
            err += float(np.max(np.abs(v32 - v20)))
    return total, err


def growth_brute2d(p: float, R: float, cell: float = 1 / 8, order: int = 8) -> float:
    y, wt = gauss_legendre_cells(-R, R, cell, order)
    Y1, Y2 = np.meshgrid(y, y, indexing="ij")
    return float(wt @ (np.abs(np.sinc(Y1 * Y2)) ** p) @ wt)


# the edges of a unit panel, halving toward both ends to 2^-20 of its width
_UNIT_EDGES = np.concatenate([[0.0], 2.0 ** np.arange(-20.0, 0.0),
                              1.0 - 2.0 ** np.arange(-2.0, -21.0, -1.0), [1.0]])


def _panel_sums(fn, edges) -> list:
    """12-node Gauss-Legendre integrals of ``fn`` over the panels between
    consecutive edges along the last axis of ``edges``, flattened."""
    x, w = np.polynomial.legendre.leggauss(12)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    half = 0.5 * (b - a)
    return ((fn(0.5 * (a + b) + half * x) * half) @ w).ravel().tolist()


def growth_sinc_panels(p: float, R: float) -> float:
    """I_p(R) = 4 int_0^{R^2} |sinc u|^p log(R^2/u) du with ``np.sinc`` at
    the 12 Gauss-Legendre nodes of every panel: dyadic panels in [2^-44, 1]
    with [0, 2^-44] taken as |sinc| = 1, then every unit panel to
    min(R^2, 16384) and a partial last one, each halving toward both ends
    to 2^-20 of its width, where |sinc|^p meets a zero as |t|^p.  Past
    16384 a closed-form tail times the average of |sin|^p over a period,
    taken on the same graded panels (a plain 64-node average is off by
    4.6e-9 at p = 1.3).  Evaluated 512 unit panels at a time."""
    R2 = R * R
    u_hi = min(R2, 16384.0)
    j_hi = np.floor(u_hi)

    def integrand(u):
        return np.abs(np.sinc(u)) ** p * np.log(R2 / u)

    sums = _panel_sums(integrand, np.concatenate([2.0 ** np.arange(-44.0, -20.0), _UNIT_EDGES[1:]]))
    starts = np.arange(1.0, j_hi)
    for k in range(0, len(starts), 512):
        sums += _panel_sums(integrand, starts[k:k + 512, None] + _UNIT_EDGES)
    if u_hi > j_hi:
        sums += _panel_sums(integrand, j_hi + (u_hi - j_hi) * _UNIT_EDGES)
    main = fsum(sums) + 2.0**-44 * (1.0 + log(R2 / 2.0**-44))
    if R2 <= u_hi:
        return 4.0 * main
    period_avg = fsum(_panel_sums(lambda t: np.abs(np.sin(np.pi * t)) ** p, _UNIT_EDGES))
    if abs(p - 1.0) < 1e-12:
        iv = (log(R2) ** 2 / 2.0) - (log(R2) * log(u_hi) - log(u_hi) ** 2 / 2.0)
    else:
        q = 1.0 - p

        def prim(uv: float) -> float:
            return (uv**q / q) * (log(R2) - log(uv)) + uv**q / (q * q)

        iv = prim(R2) - prim(u_hi)
    return 4.0 * (main + period_avg * iv / np.pi**p)


def growth_mpmath(p: float, R: float) -> float:
    """I_p(R) = 4 int_0^{R^2} |sinc u|^p log(R^2/u) du by mpmath's
    tanh-sinh quadrature at 20 digits, with a breakpoint at every integer
    (each zero of sinc) below R^2."""
    with mpmath.workdps(20):
        r2, q = mpmath.mpf(R) ** 2, mpmath.mpf(p)
        pts = [mpmath.mpf(k) for k in range(int(mpmath.floor(r2)) + 1)]
        pts += [r2] if r2 > pts[-1] else []
        return float(4 * mpmath.quad(lambda u: abs(mpmath.sincpi(u)) ** q * mpmath.log(r2 / u), pts))


_GROWTH_CUT = 2000  # where growth_p2_by_parts turns to the two-term tail


def _h_over_u(u: float) -> float:
    """H(u)/u, H(u) = int_0^u sinc^2 = (Si(2 pi u) - sin^2(pi u)/(pi u))/pi,
    in 30-digit mpmath arithmetic (the two terms cancel to O(u) near 0)."""
    with mpmath.workdps(30):
        pu = mpmath.pi * mpmath.mpf(u)
        return float((mpmath.si(2 * pu) - mpmath.sin(pu) ** 2 / pu) / pu)


def _unit_panel(a: float, b: float, order: int = 10) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * fsum(wk * _h_over_u(mid + half * xk) for xk, wk in zip(x, w))


@lru_cache(maxsize=None)
def _unit_panels() -> tuple:
    return tuple(_unit_panel(j, j + 1.0) for j in range(_GROWTH_CUT))


def growth_p2_by_parts(R: float) -> float:
    """I_2(R) = 4 int_0^{R^2} sinc(u)^2 log(R^2/u) du integrated by parts:
    4 int_0^{R^2} H(u)/u du, with H(u) = int_0^u sinc^2 through mpmath's Si.
    Unit panels to min(R^2, 2000); past that H(u)/u = 1/(2u) - 1/(2 pi^2
    u^2) plus an oscillating O(u^-3), whose integral from 2000 on is below
    2e-13.  Neither sinc^p, the log weight nor the library is evaluated."""
    r2, cut = R * R, float(_GROWTH_CUT)
    u_hi = min(r2, cut)
    j = int(u_hi)
    head = fsum(_unit_panels()[:j]) + (_unit_panel(j, u_hi) if u_hi > j else 0.0)
    tail = 0.5 * np.log(r2 / cut) - (1.0 / cut - 1.0 / r2) / (2.0 * np.pi**2) if r2 > cut else 0.0
    return 4.0 * (head + tail)


def _full_lag_correlation(f, g):
    """The lags m = -n/2..n/2 - 1 and r[i, m] = f[i + m] conj(g[i - m]),
    zero where an index leaves the window: every lag, none assumed zero."""
    n = f.n
    m = np.arange(-n // 2, n // 2)
    i = np.arange(n)[:, None]
    ia, ib = i + m, i - m
    valid = (ia >= 0) & (ia < n) & (ib >= 0) & (ib < n)
    return m, np.where(valid, f.samples[ia % n] * np.conj(g.samples[ib % n]), 0.0)


def _dense_lag_sum(m, r, dx):
    """2 dx sum_m r[i, m] e^{-2 pi i (2 m dx) w_k} on the engines' frequency
    axis, as a dense matrix product (no FFT, no folded signs)."""
    n = len(r)
    w = -1.0 / (4.0 * dx) + np.arange(n) / (2.0 * n * dx)
    return 2.0 * dx * r @ np.exp(-2j * np.pi * np.outer(2.0 * m * dx, w))


def wigner_direct_sum(f, g):
    """2 dx sum_m f[i + m] conj(g[i - m]) e^{-2 pi i (2 m dx) w_k} as a dense
    matrix product over the lags |m| < n/2 (no FFT, no folded signs)."""
    return _dense_lag_sum(*_full_lag_correlation(f, g), f.dx)


def cohen_full_lag(f, g, kernel):
    """The Cohen distribution from every lag |m| < n/2: the correlation of
    ``wigner_direct_sum`` filtered along time (DFT, the public
    ``ambiguity_multiplier`` at (2 m dx, k/(n dx)), so ``np.sinc`` for
    Born-Jordan, inverse DFT), then the same dense lag sum."""
    if g is None:
        g = f
    m, r = _full_lag_correlation(f, g)
    mult = ambiguity_multiplier(kernel, 2.0 * f.dx * m[None, :], np.fft.fftfreq(f.n, f.dx)[:, None])
    r = np.fft.ifft(np.fft.fft(r, axis=0) * mult, axis=0)
    return _dense_lag_sum(m, r, f.dx)


def _entry_bound(r, entries, dx):
    """(2 dx / n) sum over m and k of |R[k, m]|, R the time DFT of the
    correlation ``r`` on ``entries`` alone: a bound on the sup of what those
    entries add to W(f, g) or to any Cohen distribution whose multiplier
    has |Phi| <= 1 (each filtered lag column is an inverse DFT of R Phi, so
    its sup is at most (1/n) sum_k |R[k, m]|, and the lag sum adds the
    columns with unit phases times 2 dx)."""
    spectrum = np.fft.fft(np.where(entries, r, 0.0), axis=0)
    return 2.0 * dx / len(r) * float(np.abs(spectrum).sum())


def _written(m, n):
    """The entries (i, m) the engines write: the central rows
    n/4 <= i < 3n/4 x the band |m| <= n/4."""
    i = np.arange(n)[:, None]
    return (n // 4 <= i) & (i < 3 * n // 4) & (np.abs(m) <= n // 4)


def dropped_lag_bound(f, g):
    """``_entry_bound`` on the entries the engines do not write, every one
    outside the central rows x the band."""
    if g is None:
        g = f
    m, r = _full_lag_correlation(f, g)
    return _entry_bound(r, ~_written(m, f.n), f.dx)


def flushed_sample_bound(f, g, scale):
    """``_entry_bound`` on the written entries with a factor that the
    engines zero: a sample below min(2^-510 / sqrt(min(scale, 1)), 2^-100
    of its signal's peak), ``scale`` the constant on f (2 dx for ``wigner``,
    2 dx / n for ``cohen``).  Disjoint from ``dropped_lag_bound``'s
    entries, so the two bounds add."""
    if g is None:
        g = f
    n = f.n
    m, r = _full_lag_correlation(f, g)
    floor = 2.0**-510 / np.sqrt(min(scale, 1.0))

    def small(s):
        mag = np.abs(s)
        return mag < min(floor, 2.0**-100 * mag.max())

    i = np.arange(n)[:, None]
    zeroed = small(f.samples)[(i + m) % n] | small(g.samples)[(i - m) % n]
    return _entry_bound(r, zeroed & _written(m, n), f.dx)


def _centred_axis(n, d):
    return d * (np.arange(n) - n / 2)


def symplectic_fourier_direct(m):
    """dx dw sum_i sum_j F[i, j] e^{-2 pi i (z2 x_i - z1 w_j)} on the centred
    dual axes, dz1 = 1/(nw dw) down and dz2 = 1/(nx dx) across, as two dense
    matrix products (no FFT, no folded signs) on a centred grid."""
    g = m.grid
    x, w = _centred_axis(g.nx, g.dx), _centred_axis(g.nw, g.dw)
    z1, z2 = _centred_axis(g.nw, 1.0 / (g.nw * g.dw)), _centred_axis(g.nx, 1.0 / (g.nx * g.dx))
    e1 = np.exp(2j * np.pi * np.outer(z1, w))
    e2 = np.exp(-2j * np.pi * np.outer(x, z2))
    return g.dx * g.dw * (e1 @ m.values.T @ e2)


def weyl_matrix_direct(a):
    """M[i + m, i - m] = 2 dx dw sum_l a[i, l] e^{2 pi i (2 m dx) w_l} for
    |m| < n/2 and |m| <= i < n - |m|, zero elsewhere: the Weyl operator
    matrix of a symbol on its centred grid, one dense sum per lag."""
    g = a.grid
    n = g.nx
    w = _centred_axis(n, g.dw)
    out = np.zeros((n, n), dtype=complex)
    for m in range(1 - n // 2, n // 2):
        i = np.arange(abs(m), n - abs(m))
        out[i + m, i - m] = 2.0 * g.dx * g.dw * (
            a.matrix.values[i] @ np.exp(2j * np.pi * 2.0 * m * g.dx * w))
    return out


def symbol_filter_three_step(matrix, kernel, conj=False):
    """Fs[Phi . Fs matrix] with Phi sampled on the centred dual grid: the
    kernel's multiplier, or ``kernel`` itself when it is a callable."""
    amb = symplectic_fourier(matrix)
    z1, z2 = amb.grid.x_axis[:, None], amb.grid.w_axis[None, :]
    mult = kernel(z1, z2) if callable(kernel) else ambiguity_multiplier(kernel, z1, z2)
    return symplectic_fourier(amb.with_values(amb.values * (np.conj(mult) if conj else mult)))


def cohen_three_step(f, g, kernel):
    """The Cohen distribution as W(f, g) filtered by the three-step route."""
    return symbol_filter_three_step(wigner(f, g), kernel)


def cell_averages_four_corner(x_offsets, w_offsets, dx, dw):
    """Cell averages of -2 Ci(4 pi |u v|) from the antiderivative
    H(x, y) = x y Ci(c) - (sin c + Si c)/(4 pi), c = 4 pi x y, taken
    separately at each of every cell's four corners, odd in each corner
    coordinate."""

    def corner(u, v):
        x, y = np.abs(u)[:, None], np.abs(v)[None, :]
        c = 4.0 * np.pi * x * y
        h = np.zeros_like(c)
        nz = c > 0
        h[nz] = (x * y)[nz] * cosine_integral(c[nz]) - (
            np.sin(c[nz]) + sine_integral(c[nz])
        ) / (4.0 * np.pi)
        return np.sign(u)[:, None] * np.sign(v)[None, :] * h

    u = np.asarray(x_offsets, dtype=float)
    v = np.asarray(w_offsets, dtype=float)
    u1, u2 = u - dx / 2.0, u + dx / 2.0
    v1, v2 = v - dw / 2.0, v + dw / 2.0
    rect = corner(u2, v2) - corner(u1, v2) - corner(u2, v1) + corner(u1, v1)
    return -2.0 * rect / (dx * dw)


def born_jordan_tau_average(f, g, order):
    """Q(f, g) as int_0^1 of the tau-Wigner distribution d tau, by an
    ``order``-node Gauss-Legendre rule in tau: the tau multipliers
    e^{pi i (2 tau - 1) z1 z2} average to sinc(z1 z2) (Boggiatto, De Donno
    and Oliaro, Trans. AMS 2010)."""
    x, w = np.polynomial.legendre.leggauss(order)
    out = np.zeros((f.n, f.n), dtype=complex)
    for t, wt in zip(0.5 + 0.5 * x, 0.5 * w):
        out += wt * tau_wigner_direct(f, g, t).values
    return out


def tau_wigner_direct(f, g, tau):
    """Direct tau-distribution via spectral fractional delays.

    Evaluates int e^{-2pi i y w} f(x + tau y) conj(g(x - (1-tau) y)) dy on
    the same half-Nyquist grid as ``wigner`` (lag step 2 dx), with
    f and g shifted in the DFT domain; exact for band-limited inputs
    occupying at most half the Nyquist band.  The oracle for ``cohen`` with
    a tau kernel (tau = 1/2 reduces to the plain engine): it does its own
    lag FFT, so it shares no evaluation code with the engine it checks.
    """
    if g is None:
        g = f
    if not 0.0 <= tau <= 1.0:
        raise DomainError("tau must lie in [0, 1]")
    if not f.same_grid(g):
        raise GridError("tau_wigner_direct requires a common grid")
    assert_central_support(f)
    assert_central_support(g)
    n = f.n
    dx = f.dx
    m = np.arange(-n // 2, n // 2)
    nu = np.fft.fftfreq(n, dx)
    fh = np.fft.fft(f.samples)
    gh = np.fft.fft(g.samples)
    shift_f = np.exp(2j * np.pi * np.outer(2.0 * tau * m * dx, nu))
    shift_g = np.exp(-2j * np.pi * np.outer(2.0 * (1.0 - tau) * m * dx, nu))
    fs = np.fft.ifft(fh[None, :] * shift_f, axis=1)
    gs = np.fft.ifft(gh[None, :] * shift_g, axis=1)
    r = fs * np.conj(gs)
    # genuine correlations vanish beyond half the window; clearing the outer
    # lags removes circular-shift aliases of the fractional delays
    r[np.abs(m) > n // 4, :] = 0.0
    r[1::2] *= -1.0  # the lag phase (-1)^m
    vals = np.fft.fft(r.T, axis=1) * (2.0 * dx)  # lag FFT, times 2 dx (-1)^k
    vals[:, 1::2] *= -1.0
    return TFMatrix(vals, wigner_grid(f), PHASE_SPACE)


def circular_convolve(a, b):
    """Grid convolution (a * b)[u] = sum_v a[v] b[u - v] dx dw, circular.

    Satisfies Fs[a * b] = Fs a . Fs b exactly on matching grids.
    """
    if not a.grid.close_to(b.grid):
        raise GridError("convolution requires matching grids")
    # index the second factor relative to the (centered) origin cell
    fa = np.fft.fft2(np.fft.ifftshift(a.values))
    fb = np.fft.fft2(np.fft.ifftshift(b.values))
    out = np.fft.fftshift(np.fft.ifft2(fa * fb)) * a.grid.cell_measure
    return TFMatrix(out, a.grid, a.domain_tag)


def is_j_closed(grid):
    """True when the two axes of ``grid`` coincide, so J acts by index
    permutation."""
    return (
        grid.nx == grid.nw
        and np.isclose(grid.dx, grid.dw, rtol=_ORIGIN_RTOL, atol=0)
        and np.isclose(grid.x0, grid.w0, rtol=0, atol=_ORIGIN_RTOL * grid.dx)
    )


def compose_j(m):
    """Sample of F(J z) = F(w, -x) on a J-closed grid, by index permutation."""
    if not is_j_closed(m.grid):
        raise GridError("composition with J needs identical centered axes")
    n = m.grid.nx
    neg = (-np.arange(n)) % n  # index of -x_i on the centered axis
    out = m.values[:, neg].T  # out[i, j] = values[j, index(-x_i)]
    return TFMatrix(out, m.grid, m.domain_tag)


def conjugate_exponent(p: float) -> float:
    """p' with 1/p + 1/p' = 1; the pair (1, inf) maps to each other."""
    if p == 1.0:
        return np.inf
    if np.isinf(p):
        return 1.0
    if p < 1.0:
        raise DomainError("exponents must lie in [1, inf]")
    return p / (p - 1.0)
