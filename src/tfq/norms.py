"""Mixed-norm functionals and the dilation scaling experiments.

The two nestings of the grid L^{p,q} norm:

* ``position_inner``  (sum over w of (sum over x |M|^p dx)^{q/p} dw)^{1/q}
  -- the joint time-frequency norm with the inner integral over position;
* ``frequency_inner`` the same with the roles of the axes swapped -- the
  amalgam-style nesting.

Infinite exponents replace the corresponding power sum with a maximum (no
measure factor).  One reducer serves every norm: ``mixed_norm`` hands it a
dense matrix as one block; ``modulation_norm`` (position inner, M^{p,q})
and ``amalgam_norm`` (frequency inner, W(FL^p, L^q)) stream |V_g f| to it
in row blocks of ``_BLOCK`` window shifts, magnitude only, with ``rfft``
and mirror weights 1, 2, ..., 2, 1 on the frequency bins when f is real
(the Gaussian window always is), on window shifts 0..n/2 alone when f and
the window are also exactly even; so their memory is O(block n), not n^2.
The dense ``stft`` stays the reference route.  The dilation experiments
fit log-norm against log-dilation over a sweep and report the
least-squares slope with its standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ResolutionError
from .gaussians import _check_dilation, gaussian
from .grid import SampledSignal, TFMatrix, signal_from_function
from .distributions import _cohen_rows, wigner_grid
from .kernels import DELTA, CohenKernel, delta_kernel

POSITION_INNER = "position_inner"
FREQUENCY_INNER = "frequency_inner"


@dataclass(frozen=True)
class MixedNormSpec:
    p: float
    q: float

    def __post_init__(self):
        for e in (self.p, self.q):
            if not (e >= 1.0):
                raise DomainError("exponents must lie in [1, inf]")


def _reduce(blocks, weights, spec: MixedNormSpec, order: str, dx: float, dw: float) -> float:
    """Grid L^{p,q} norm of a magnitude matrix given as (row weights, row
    block) pairs, rows on the position axis and columns on the frequency
    axis; column k counts ``weights[k]`` times and block row r ``w[r]`` times
    (either may be the scalar 1, and a maximum ignores both).  Every sum is
    an ``np.sum``: a result depends on the blocks, not the BLAS thread count."""
    p, q = spec.p, spec.q
    acc = 0.0
    if order == POSITION_INNER:
        for w, mags in blocks:
            if np.isinf(p):
                acc = np.maximum(acc, mags.max(axis=0))
            else:
                mags **= p  # blocks are the reducer's own: weighting costs no temporary
                mags *= w
                acc = acc + np.sum(mags, axis=0)
        inner = acc if np.isinf(p) else (acc * dx) ** (1.0 / p)
        if np.isinf(q):
            return float(inner.max())
        return float((np.sum(weights * inner**q) * dw) ** (1.0 / q))
    for w, mags in blocks:
        if np.isinf(p):
            inner = mags.max(axis=1, keepdims=True)
        else:
            inner = (np.sum(weights * mags**p, axis=1, keepdims=True) * dw) ** (1.0 / p)
        acc = max(acc, inner.max()) if np.isinf(q) else acc + np.sum(w * inner**q)
    return float(acc) if np.isinf(q) else float((acc * dx) ** (1.0 / q))


def mixed_norm(m: TFMatrix, spec: MixedNormSpec, order: str = POSITION_INNER) -> float:
    """Grid L^{p,q} norm of a matrix with the given nesting."""
    if order not in (POSITION_INNER, FREQUENCY_INNER):
        raise DomainError(f"unknown nesting {order!r}")
    g = m.grid
    return _reduce([(1.0, np.abs(m.values))], 1.0, spec, order, g.dx, g.dw)


def canonical_window(f: SampledSignal) -> SampledSignal:
    """Unit Gaussian window on the signal's own grid."""
    return f.with_samples(gaussian(f.axis))


_BLOCK = 64  # rows of |V| held at once by the streamed norms


def _mirror(m: int) -> np.ndarray:
    """Weights 1, 2, ..., 2, 1: entries 1..m-2 each stand for a mirror pair."""
    return np.concatenate([[1.0], np.full(m - 2, 2.0), [1.0]])


def _stft_norm(f: SampledSignal, spec: MixedNormSpec, order: str) -> float:
    """Mixed norm of |V_g f| for g = canonical_window(f), in row blocks.

    A mixed norm does not see the order of rows or columns, nor any phase,
    so each block is |fft(rows * f)| over ``_BLOCK`` window shifts in
    circulant order, without the centring sign or the x0 phase of ``stft``;
    the factor dx of V comes out of the norm, which is homogeneous.
    The Gaussian window is real, so a real f gives Hermitian rows: ``rfft``
    keeps bins 0..n/2 and the weights count bins 1..n/2 - 1 twice (n is
    even, so bin n/2 is the Nyquist bin).  If f and the window are also
    exactly even (f[j] == f[-j mod n]), row n - s is row s reversed, with
    the same bin magnitudes, so only rows 0..n/2 are transformed and they
    carry the same mirror weights.  Any other f keeps all n rows.
    """
    n, dx = f.n, f.dx
    fs, gs = f.samples, canonical_window(f).samples.real
    fft, weights, rw, m = np.fft.fft, 1.0, np.ones((n, 1)), n
    if not fs.imag.any():
        fs, fft, weights = fs.real, np.fft.rfft, _mirror(n // 2 + 1)
        if np.array_equal(fs[1:], fs[:0:-1]) and np.array_equal(gs[1:], gs[:0:-1]):
            rw, m = weights[:, None], n // 2 + 1
    rows = sliding_window_view(np.tile(gs, 2), n)[:m]  # rows[s, j] = gs[(s + j) % n]
    blocks = ((rw[s : s + _BLOCK], np.abs(fft(rows[s : s + _BLOCK] * fs, axis=1)))
              for s in range(0, m, _BLOCK))
    return dx * _reduce(blocks, weights, spec, order, dx, 1.0 / (n * dx))


def modulation_norm(f: SampledSignal, spec: MixedNormSpec) -> float:
    """Joint norm of the Gaussian-window STFT, position-inner nesting.

    Equal to ``mixed_norm(stft(f, canonical_window(f)), ...)`` to rounding,
    but streamed ``_BLOCK`` rows of |V| at a time, with no phases, through a
    real FFT with mirror weights when f is real (on half the rows when f is
    also exactly even): O(block n) memory, not one n x n complex array.
    """
    return _stft_norm(f, spec, POSITION_INNER)


def amalgam_norm(f: SampledSignal, spec: MixedNormSpec) -> float:
    """Amalgam-style norm: same streamed |V|, frequency-inner nesting.

    Related to the joint norm through the transform side:
    modulation_norm(f) == amalgam_norm(dft(f)) up to grid rounding.
    """
    return _stft_norm(f, spec, FREQUENCY_INNER)


# ---------------------------------------------------------------------------
# dilation sweeps

@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    stderr: float
    lam_range: tuple[float, float]
    points: int


def fit_loglog(lams: Sequence[float], norms: Sequence[float]) -> ScalingFit:
    """Ordinary least squares of log-norm against log-dilation over at least
    six distinct, positive dilations."""
    lams = np.asarray(lams, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if len(lams) < 6:
        raise DomainError("a sweep needs at least six points")
    for name, v in (("dilations", lams), ("norms", norms)):
        if not (np.isfinite(v).all() and (v > 0).all()):
            raise DomainError(f"{name} must be positive and finite")
    # sorted neighbours, not np.unique: that imports numpy.ma (~1.5 MB RSS)
    if (np.diff(np.sort(lams)) == 0.0).any():
        raise DomainError("dilations must be distinct")
    lx = np.log(lams)
    ly = np.log(norms)
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    scale = np.sum(resid**2) / (len(lams) - 2)  # at least 4 degrees of freedom
    stderr = float(np.sqrt(scale / np.sum((lx - lx.mean()) ** 2)))
    return ScalingFit(
        exponent=float(coef[0]),
        stderr=stderr,
        lam_range=(float(lams.min()), float(lams.max())),
        points=len(lams),
    )


_GAUSS_RADIUS = 2.96  # e^{-pi r^2} ~ 1e-12: the bump family's window support
_ULP_RADIUS = float(np.sqrt(53.0 * np.log(2.0) / np.pi))  # e^{-pi r^2} = 2^-53
_MAX_SWEEP_N = 4096


def _bump(x):
    out = np.zeros_like(x)
    m = np.abs(x) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    return out


def _sweep_signal(family: str, lam: float) -> SampledSignal:
    """Signal for one sweep point, on a power-of-two grid of n samples.

    The Gaussian families, f = e^{-pi lam x^2} under the unit window g,
    are sized from the two errors the streamed |V_g f| can make, each held
    to e^{-pi r^2} = 2^-53 of the peak (r = ``_ULP_RADIUS``):

    * wrap: a product f(t) g(v) of a wrapped window row has |t - v| >= L/2,
      L = n dx, so it is at most e^{-pi (L/2)^2 lam/(lam+1)}; hence
      L/2 >= r sqrt(1 + 1/lam);
    * aliasing: the spectrum of f g(. - x) is e^{-pi w^2/(lam+1)} at the
      band edge w = 1/(2 dx); hence 1/(2 dx) >= r sqrt(1 + lam).

    So n is the next power of two >= L/dx = 4 r^2 (lam+1)/sqrt(lam), and dx
    the geometric mean of its two bounds, which splits the power-of-two
    slack evenly between them: dx = (n sqrt(lam))^{-1/2}.

    The bump family keeps its hand-set margins, dx = lam^{-1/2}/16 capped
    at 1/16 and a window 1.15 x the combined supports: its (1, q)
    frequency-inner norms are limited by the frequency spacing 1/L, not by
    the wrap, and move by about 1e-4 relative when n halves.
    """
    _check_dilation(lam)
    if family in ("gaussian_mod", "gaussian_amalgam"):
        band = _ULP_RADIUS * np.sqrt(1.0 + lam)  # 1/(2 dx)
        half = band / np.sqrt(lam)  # L/2 = r sqrt(1 + 1/lam)
        n = 1 << int(np.ceil(np.log2(4.0 * half * band)))
        dx = float(np.sqrt(half / (band * n)))
        fn = lambda x: gaussian(x, lam)
    elif family == "bump_amalgam":
        dx = min(1.0, lam**-0.5) / 16.0
        span = 1.15 * 2.0 * (lam**-0.5 + _GAUSS_RADIUS)
        n = 1 << int(np.ceil(np.log2(span / dx)))
        fn = lambda x: _bump(np.sqrt(lam) * x)
    else:
        raise DomainError(f"unknown family {family!r}")
    if n > _MAX_SWEEP_N:
        raise ResolutionError(
            f"dilation {lam:g} needs {n} samples (cap {_MAX_SWEEP_N})", lam=lam
        )
    sig = signal_from_function(fn, n, dx)
    if sig.energy() == 0.0:
        raise ResolutionError(f"dilation {lam:g} under-resolved", lam=lam)
    return sig


def scaling_norm(family: str, spec: MixedNormSpec, lam: float) -> float:
    f = _sweep_signal(family, lam)
    if family == "gaussian_mod":
        return modulation_norm(f, spec)
    return amalgam_norm(f, spec)


def scaling_table(
    family: str, spec: MixedNormSpec, lam_grid: Iterable[float]
) -> list[tuple[float, float]]:
    lams = [float(l) for l in lam_grid]
    return [(l, scaling_norm(family, spec, l)) for l in lams]


def scaling_experiment(
    family: str, spec: MixedNormSpec, lam_grid: Iterable[float]
) -> ScalingFit:
    """Fit the dilation exponent of a norm family over a lambda sweep.

    Large-lambda targets: -1/(2q') for the joint Gaussian norm and
    -1/(2p') for the amalgam families; small-lambda targets -1/(2p) and
    -1/(2q) respectively (dimension one).
    """
    table = scaling_table(family, spec, lam_grid)
    return fit_loglog([t[0] for t in table], [t[1] for t in table])


# ---------------------------------------------------------------------------
# interference-region energies

@dataclass(frozen=True)
class Rect:
    x_lo: float
    x_hi: float
    w_lo: float
    w_hi: float


@dataclass(frozen=True)
class GhostReport:
    kernel_label: str
    energy: float
    ratio_vs_wigner: float


_HALF_CELLS = 2  # half-width of the interference region, in grid cells


def interference_region(center_x: float, center_w: float, grid) -> Rect:
    """Rectangle of +- ``_HALF_CELLS`` = 2 grid cells around a midpoint."""
    reach = _HALF_CELLS + 1e-9  # the edge cells stay inside despite rounding
    return Rect(
        x_lo=center_x - reach * grid.dx,
        x_hi=center_x + reach * grid.dx,
        w_lo=center_w - reach * grid.dw,
        w_hi=center_w + reach * grid.dw,
    )


def ghost_energy_report(
    f: SampledSignal, kernels: Sequence[CohenKernel], region: Rect
) -> list[GhostReport]:
    """|M(f, f)|^2 integrated over the declared region, per kernel,
    with the ratio against the plain (delta-kernel) distribution.

    Each energy is that of ``cohen(f, f, kernel)`` (half-lag route for delta
    and Born-Jordan), so one n x n array is live at a time; its lag step
    runs on the region's rows alone, which hold the same values."""
    g = wigner_grid(f)
    in_x = (g.x_axis >= region.x_lo) & (g.x_axis <= region.x_hi)
    in_w = (g.w_axis >= region.w_lo) & (g.w_axis <= region.w_hi)
    if not in_x.any() or not in_w.any():
        raise DomainError("interference region lies outside the grid")
    first, last = np.flatnonzero(in_x)[[0, -1]]
    rows = slice(first, last + 1)

    @np.errstate(over="ignore")  # an overflow to inf is rejected below
    def region_energy(k: CohenKernel) -> float:
        block = _cohen_rows(f, f, k, rows)[np.ix_(in_x, in_w)]
        return float(np.sum(np.abs(block) ** 2) * g.cell_measure)

    ks = [delta_kernel()] + [k for k in kernels if k.kind != DELTA]
    energies = [region_energy(k) for k in ks]
    if energies[0] == 0.0:
        raise DomainError("reference distribution carries no region energy")
    if not np.isfinite(energies).all():
        raise DomainError("a region energy overflows: rescale the signal or the grid")
    return [GhostReport(k.label, e, e / energies[0]) for k, e in zip(ks, energies)]
