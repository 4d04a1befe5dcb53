"""Cohen kernels: the time-frequency filter bank in the ambiguity domain.

Every kernel is represented by its ambiguity-domain multiplier, the
symplectic transform of the phase-space kernel, a function of z1 z2 alone:

* delta (Wigner)      -> 1
* Born-Jordan         -> sinc(z1 z2), real, |.| <= 1, equal to 1 on both axes
* tau family          -> e^{+pi i (2 tau - 1) z1 z2}, unimodular

The Born-Jordan phase-space kernel itself is -2 Ci(4 pi |z1 z2|) in
dimension one: logarithmically singular along the axes, slowly decaying off
them.  ``theta_sigma_cell_averages`` integrates it exactly over grid cells
(closed-form antiderivative, a function of c = 4 pi x y at each distinct
|cell corner|), which is what the direct convolution route needs to
coexist with the spectral multiplier route.

On the engines' lattice the product z1 z2 is exactly 2 k m / n for integer
time frequency k and lag m, so every multiplier is read from tables at the
integer k m, not evaluated from rounded products: Born-Jordan's sinc(z1 z2)
from a sine table, the tau phase from two unit-modulus tables, one per
quotient and one per residue of k m mod n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gamma, log

import numpy as np

from .errors import AccuracyError, DomainError, SingularPointError
from .special import (EULER_GAMMA, _ci_series, _on_branches, _si_series, cosine_integral,
                      gauss_legendre)

DELTA = "delta"
BORN_JORDAN = "born_jordan"
TAU = "tau"


@dataclass(frozen=True)
class CohenKernel:
    kind: str
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in (DELTA, BORN_JORDAN, TAU):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == TAU and (self.tau is None or not 0.0 <= self.tau <= 1.0):
            raise DomainError("tau must lie in [0, 1]")

    @property
    def label(self) -> str:
        if self.kind == TAU:
            return f"tau({self.tau:g})"
        return self.kind


def delta_kernel() -> CohenKernel:
    return CohenKernel(DELTA)


def born_jordan_kernel() -> CohenKernel:
    return CohenKernel(BORN_JORDAN)


def tau_kernel(tau: float) -> CohenKernel:
    return CohenKernel(TAU, tau=float(tau))


def ambiguity_multiplier(kernel: CohenKernel, z1, z2):
    """Evaluate the kernel's ambiguity-domain multiplier at (z1, z2).

    Works pointwise on scalars or broadcast arrays.  The tau multiplier is
    e^{+pi i (2 tau - 1) z1 z2}: the symplectic transform of the tau
    kernel's plain transform e^{-pi i (2 tau - 1) z1 z2}, the sign being
    pinned by the requirement that tau = 1/2 reproduce the Wigner case and
    confirmed against direct fractional-shift evaluation.  In the library,
    ``operators.symbol_transform`` (off the engines' lattice) and the
    ``tfq kernel`` command call it; the distribution engines and operator
    matrices read the same values from exact-lattice tables instead.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if kernel.kind == DELTA:
        return np.ones(np.broadcast(z1, z2).shape, dtype=complex)
    if kernel.kind == BORN_JORDAN:
        return np.sinc(z1 * z2).astype(complex)
    return np.exp(1j * np.pi * (2.0 * kernel.tau - 1.0) * z1 * z2)


def _is_identity(kernel: CohenKernel) -> bool:
    """Delta and tau = 1/2: the kernels whose multiplier is exactly 1."""
    return kernel.kind == DELTA or (kernel.kind == TAU and kernel.tau == 0.5)


def _lattice_multiplier(kernel: CohenKernel, lags: np.ndarray, n: int):
    """The kernel's multiplier at (2 lags dx, k / (n dx)), z1 z2 = 2 k m / n
    whatever dx is, on a block of rows k of an n-point time FFT, as a
    callable of the block: read from tables at the integer k m = a n + r
    (0 <= r < n), any even n.  Born-Jordan is sin_table[r] / (2 pi k m / n),
    1 at k m = 0, the table folded onto sin(2 pi s / n), |s| <= n/4 (s = r,
    n/2 - r or r - n): within a few ulp, and exactly 0 at r = n/2.  Tau
    (delta: tau = 1/2) is T_a[a] T_r[r], each turn count reduced to
    [-1/2, 1/2] exactly (a 27-bit head of 2 tau - 1 times a is exact), so
    no phase of up to pi n / 2 is rounded at full size."""
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    if kernel.kind == BORN_JORDAN:
        u = (np.arange(n) + n // 4) % n - n // 4  # r moved onto [-n // 4, n - n // 4)
        table = np.sin((2.0 * np.pi / n) * np.minimum(u, n // 2 - u))

        def phi(rows):
            km = np.multiply.outer(k[rows], lags)
            den = km * (2.0 * np.pi / n)
            km -= km // n * n
            out = table[km]
            # k m = 0 only on the row k = 0 and the column m = 0, where sinc is 1
            out[k[rows] == 0] = den[k[rows] == 0] = 1.0
            out[:, lags == 0] = den[:, lags == 0] = 1.0
            out /= den
            return out
        return phi
    c = 2.0 * kernel.tau - 1.0 if kernel.kind == TAU else 0.0
    head = np.round(c * 2.0**26) / 2.0**26
    a0 = -(n // 4) - 1  # the least a: k m >= -n^2 / 4
    a = np.arange(a0, n // 4 + 1)
    t_a = np.exp(2j * np.pi * (head * a - np.round(head * a) + (c - head) * a))
    r = c * np.arange(n) / n
    t_r = np.exp(2j * np.pi * (r - np.round(r)))

    def phi(rows):
        km = np.multiply.outer(k[rows], lags) - a0 * n  # (a - a0) n + r >= 0
        a = km // n
        km -= a * n
        out = t_r[km]
        out *= t_a[a]
        return out
    return phi


def _lag_filter(r: np.ndarray, mult, norm: str = "backward") -> np.ndarray:
    """In place along axis 0: time FFT, rows times ``mult(rows)`` in 16
    blocks of ceil(n / 16) rows (no n x n multiplier at once), inverse time
    FFT with numpy's ``norm``."""
    np.fft.fft(r, axis=0, out=r)
    step = -(-len(r) // 16)
    for k in range(0, len(r), step):
        rows = slice(k, k + step)
        r[rows] *= mult(rows)
    return np.fft.ifft(r, axis=0, norm=norm, out=r)


# ---------------------------------------------------------------------------
# Born-Jordan phase-space kernel (dimension one)

def theta_sigma_d1(z1, z2):
    """-2 Ci(4 pi |z1 z2|); singular on the axes z1 = 0 and z2 = 0.

    Where |z1 z2| underflows the normal float range, the series law
    -2 (gamma + log 4 pi + log|z1| + log|z2|) (its next term is below
    1e-600 there); where 4 pi |z1 z2| overflows, 0.0, the limit of Ci at
    infinity (|Ci(t)| < 2/t, below 2e-308 there).

    Raises:
        SingularPointError: if any requested point has z1 = 0 or z2 = 0.
            Callers integrating across the axes should use the cell
            averages below.
        DomainError: on a non-finite z1 or z2.
    """
    a, b = np.broadcast_arrays(np.abs(np.asarray(z1, dtype=float)),
                               np.abs(np.asarray(z2, dtype=float)))
    if np.any(a == 0.0) or np.any(b == 0.0):
        raise SingularPointError(
            "the Born-Jordan kernel is unbounded on the axes z1 z2 = 0"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("theta_sigma_d1 requires finite z1, z2")
    with np.errstate(over="ignore", under="ignore"):
        p = a * b
        t = 4.0 * np.pi * p
    out = np.zeros(t.shape)  # 0.0 where t overflows
    tiny = p < np.finfo(float).tiny
    mid = ~tiny & (t < np.inf)
    out[mid] = -2.0 * cosine_integral(t[mid])
    out[tiny] = -2.0 * (EULER_GAMMA + log(4.0 * np.pi) + np.log(a[tiny]) + np.log(b[tiny]))
    return float(out) if out.ndim == 0 else out


def _corner_antiderivative(c):
    # int_0^x int_0^y Ci(4 pi u v) dv du for x, y >= 0, a function of
    # c = 4 pi x y alone: (c Ci(c) - sin c - Si(c)) / (4 pi), 0 at c = 0
    out = np.zeros_like(c)
    nz = c > 0
    out[nz] = _on_branches(
        c, c[nz], lambda t: t * _ci_series(t) - np.sin(t) - _si_series(t),
        lambda t, f, g, sin, cos: t * (f * sin - g * cos) - sin - (np.pi / 2 - f * cos - g * sin))
    out /= 4.0 * np.pi
    return out


def theta_sigma_cell_averages(x_offsets, w_offsets, dx: float, dw: float):
    """Exact cell averages of -2 Ci(4 pi |u v|) over dx-by-dw cells.

    The rectangle integral of Ci(4 pi |u v|) has the closed antiderivative
    H(x, y) = (c Ci(c) - sin c - Si(c))/(4 pi), c = 4 pi x y, extended to
    all quadrants by oddness in each corner coordinate; cells crossing the
    axes are handled by the same corner combination, with no singular
    evaluations.  H is evaluated once per distinct (|corner x|, |corner w|)
    and gathered into every cell's four corners: on a lattice of 2n - 1
    offsets per axis that is n^2 evaluations, not 4 (2n - 1)^2.
    """
    u = np.asarray(x_offsets, dtype=float)
    v = np.asarray(w_offsets, dtype=float)
    ex = np.concatenate([u - dx / 2.0, u + dx / 2.0])  # lower, then upper edges
    ew = np.concatenate([v - dw / 2.0, v + dw / 2.0])
    ax, ix = np.unique(np.abs(ex), return_inverse=True)
    aw, iw = np.unique(np.abs(ew), return_inverse=True)
    h = _corner_antiderivative(4.0 * np.pi * ax[:, None] * aw[None, :])
    sx, ix = np.sign(ex).reshape(2, -1), ix.reshape(2, -1)
    sw, iw = np.sign(ew).reshape(2, -1), iw.reshape(2, -1)

    def corner(a, b):  # sign(x) sign(w) H(|x|, |w|) on edge a of x, edge b of w
        return sx[a][:, None] * sw[b][None, :] * h[np.ix_(ix[a], iw[b])]

    rect = corner(1, 1) - corner(0, 1) - corner(1, 0) + corner(0, 0)
    return -2.0 * rect / (dx * dw)


# ---------------------------------------------------------------------------
# growth of |Theta|^p over expanding boxes

_U_EXACT = 16384.0  # the growth integral's unit panels stop here; whole-period tail beyond
# (4096 is an equivalent mutant: every cut from 1024 up moved it <= 3.1e-16)
# panel edges on [0, 1] halving toward 0 (to 2^-45), where log u or a zero of
# sinc sits, and toward 1 (to 2^-20)
_GRADED = np.concatenate([[0.0], 2.0 ** np.arange(-45.0, 0.0),
                          1.0 - 2.0 ** np.arange(-2.0, -21.0, -1.0), [1.0]])


def _panel_rule(edges, order: int):
    """Gauss-Legendre nodes and weights, ``order`` per panel, on the panels
    between consecutive ``edges`` along the last axis: two arrays of shape
    edges.shape[:-1] + (panels, order), the half-widths in the weights."""
    x, w = gauss_legendre(order)
    half = 0.5 * np.diff(edges)[..., None]
    return 0.5 * (edges[..., :-1, None] + edges[..., 1:, None]) + half * x, half * w


def theta_growth_integral(p: float, R: float) -> float:
    """I_p(R) = iint_{[-R,R]^2} |sinc(x w)|^p dx dw.

    Along hyperbolic bands u = x w the box measure is exactly
    meas{x w <= u, 0 < x, w < R} = u (1 + log(R^2/u)), so

        I_p(R) = 4 int_0^{R^2} |sinc u|^p log(R^2/u) du.

    [0, 1] and the partial last panel [floor(R^2), R^2] take ``np.sinc``
    at 12 Gauss nodes on panels halving toward both ends.  Every whole
    unit panel [j, j + 1] up to min(R^2, ``_U_EXACT`` = 16384) takes the
    10-node Gauss rule for the weight |sin(pi t)|^p on [0, 1]
    (Gauss-Jacobi for (t (1 - t))^p, times the smooth factor), so each
    node costs one log and one exp.  On the whole periods past 16384
    |sin|^p is replaced by its period average, the rule's weight sum,
    times int h for h = (pi u)^-p log(R^2/u), taken in v = log u on four
    12-node panels, plus the second-moment end term of the same rule.
    Against mpmath: 4.4e-16 relative or better at 64 (p, R), p from 1 to
    8, R up to 24.  Against every panel summed to R^2 at R = 128.5, 160,
    200 and 384 it measured 2.3e-15 or better at p = 1, 1.3 and 2.  At
    p = 2 an independent route (integration by parts through Si) agrees to
    3.7e-14 relative or better at 44 radii from 1 to 1e4.
    """
    if not 1.0 <= p <= 8.0:
        raise DomainError("exponent must lie in [1, 8]")
    if not 1.0 <= R <= 1.0e4:
        raise DomainError("box half-width must lie in [1, 1e4]")
    R2 = R * R
    L = log(R2)
    j_top = np.floor(R2)
    j_hi = min(j_top, _U_EXACT)

    # np.sinc on [0, 1] and on the partial last panel [j_top, R^2] (width 0 at an integer R^2)
    u, w = _panel_rule(np.array([_GRADED, j_top + (R2 - j_top) * _GRADED]), 12)
    panels = (np.abs(np.sinc(u)) ** p * np.log(R2 / u) * w).sum(axis=-1).ravel().tolist()
    # Gauss-Jacobi for (t (1 - t))^p on [0, 1] = (1 + x) / 2 by Golub-Welsch
    # (eigh reads the lower triangle), then the weights times (sin(pi t) / (t (1 - t)))^p
    n = np.arange(1.0, 10.0)
    x, vec = np.linalg.eigh(np.diag(np.sqrt(n * (n + 2 * p) / ((2 * n + 2 * p) ** 2 - 1)), -1))
    # s = t is an equivalent mutant at the documented accuracy (the nodes stay
    # >= 0.027 from t = 1 for p in [1, 8]; it moved the integral <= 1.8e-16)
    s = 0.5 - 0.5 * np.abs(x)  # min(t, 1 - t), so sin(pi t) keeps its relative accuracy
    mass = np.sqrt(np.pi) * gamma(p + 1.0) / (gamma(p + 1.5) * 2.0 ** (2.0 * p + 1.0))
    wt = mass * vec[0] ** 2 * (np.sin(np.pi * s) / (s * (1.0 - s))) ** p
    t = 0.5 + 0.5 * x
    log_u = np.log(np.arange(1.0, j_hi)[:, None] + t)
    vals = np.exp(-p * (log(np.pi) + log_u))
    vals *= L - log_u
    panels += (vals @ wt).tolist()

    # the whole periods [j_hi, j_top], empty when R^2 < 16385: with
    # h = (pi u)^-p (L - log u), the period average of |sin|^p times int h,
    # in v = log u, plus m2 (h'(j_top) - h'(j_hi)) from the second moment
    # (the odd terms vanish, |sin(pi t)|^p being even about t = 1/2)
    v, w = _panel_rule(np.linspace(log(j_hi), log(j_top), 5), 12)
    m2 = 0.5 * (wt @ t**2 - wt.sum() / 3.0)
    dh = lambda u: -(np.pi * u) ** -p * (p * (L - log(u)) + 1.0) / u  # h'(u)
    tail = wt.sum() * np.sum(np.exp((1.0 - p) * v - p * log(np.pi)) * (L - v) * w)
    return 4.0 * (fsum(panels) + float(tail + m2 * (dh(j_top) - dh(j_hi))))


# ---------------------------------------------------------------------------
# STFT of the sinc kernel against the standard Gaussian window

def _vg_integrand(t, z1, z2, zeta1, zeta2):
    # one-dimensional reduction of the defining double integral; the
    # apparent 1/t chirp of the two half-kernels cancels in the sum, leaving
    # an analytic phase (verified against direct 2D quadrature)
    t2p1 = t * t + 1.0
    decay = np.pi * ((t * z1 - zeta2) ** 2 + (t * z2 - zeta1) ** 2) / t2p1
    phase = (t * (zeta1 * zeta2 - z1 * z2) + z1 * zeta1 + z2 * zeta2) / t2p1
    return np.exp(-decay - 2j * np.pi * phase) / np.sqrt(t2p1)


_MAX_PANELS = 1024  # sub-panel budget of vg_theta_grid: live phase rate up to 8192
# squared distance from a zeta to the segment t (z2, z1), |t| <= 1/2, past
# which e^{-pi d^2 / 1.25} bounds the integrand below 2^-60 on all of [-1/2, 1/2]
_DEAD_D2 = 1.25 * 60.0 * log(2.0) / np.pi


# an overflowing rate and a NaN error raise below; an overflowing amplitude exponent weighs 0
@np.errstate(over="ignore", invalid="ignore")
def vg_theta_grid(z1, z2, zeta1_axis, zeta2_axis, tol: float = 1e-6):
    """STFT of the sinc kernel against g(x, w) = e^{-pi(x^2 + w^2)} for one
    window position z over the outer grid of (zeta1, zeta2), in a single
    vectorised pass.

    Evaluates the one-dimensional t-integral over [-1/2, 1/2] on
    ceil(rate / 8) uniform sub-panels, where rate bounds the phase's
    t-derivative over the live grid points, so no sub-panel holds more
    than eight phase cycles where the integrand has weight.  A point is
    live when its amplitude bound e^{-pi d^2 / 1.25} is at least 2^-60,
    d the distance from zeta to the segment t (z2, z1), |t| <= 1/2; at
    every other point the integrand stays below 2^-60 on the whole
    interval, so no resolution is owed there.  t = 0 needs no refinement:
    the 1/t chirps of the two half-kernels cancel, and what remains is
    analytic on the whole interval.  The error estimate is the largest
    difference between 32- and 20-node Gauss rules over the same
    sub-panels, taken at every point.

    Returns (values, error_estimate) where values has shape
    (len(zeta1_axis), len(zeta2_axis)).

    Raises:
        DomainError: when z1, z2 or any zeta is non-finite, or a zeta axis
            is empty.
        AccuracyError: when the estimated error exceeds ``tol`` or is NaN,
            or at once (``achieved`` = inf) when the phase rate overflows
            at any point or needs more than ``_MAX_PANELS`` = 1024
            sub-panels at the live ones.
    """
    zeta1_axis = np.asarray(zeta1_axis, dtype=float)
    zeta2_axis = np.asarray(zeta2_axis, dtype=float)
    named = {"z1": z1, "z2": z2, "zeta1_axis": zeta1_axis, "zeta2_axis": zeta2_axis}
    for name, v in named.items():
        if np.size(v) == 0 or not np.isfinite(v).all():
            raise DomainError(f"vg_theta_grid needs a finite, non-empty {name}")
    Z1 = zeta1_axis[:, None]
    Z2 = zeta2_axis[None, :]
    rate = np.abs(Z1 * Z2 - z1 * z2) + np.abs(z1 * Z1 + z2 * Z2)
    if not np.isfinite(rate).all():
        raise AccuracyError("vg_theta_grid's phase rate overflows", achieved=np.inf)
    s = z1 * z1 + z2 * z2
    t = np.clip((Z1 * z2 + Z2 * z1) / s, -0.5, 0.5) if s > 0.0 else 0.0
    dead = (t * z2 - Z1) ** 2 + (t * z1 - Z2) ** 2 > _DEAD_D2  # NaN counts as live
    panels = max(1, int(np.ceil(np.max(rate, where=~dead, initial=0.0) / 8.0)))
    if panels > _MAX_PANELS:
        raise AccuracyError(
            f"vg_theta_grid needs {panels} sub-panels (budget {_MAX_PANELS})",
            achieved=np.inf,
        )
    e = np.linspace(-0.5, 0.5, panels + 1)
    v32, v20 = (  # the 32- and 20-node rules over the sub-panels
        sum(np.tensordot(w, _vg_integrand(t[:, None, None], z1, z2, Z1, Z2), axes=(0, 0))
            for t, w in zip(*_panel_rule(e, order)))
        for order in (32, 20)
    )
    err = float(np.max(np.abs(v32 - v20)))
    if not err <= tol:
        raise AccuracyError(
            f"vg_theta_grid reached only {err:.3e} (target {tol:.3e})", achieved=err
        )
    return v32, err
