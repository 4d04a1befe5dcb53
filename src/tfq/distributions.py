"""Distribution engines: STFT, cross-distribution, tau family, Born-Jordan.

The quadratic engines share one grid layout.  For a length-n signal with
spacing dx the correlation product r_i[m] = f[i+m] conj(g[i-m]) is exact at
integer lags (sample spacing in the correlation variable is 2 dx), so the
frequency axis of the output spans only half the Nyquist band:
dw = 1/(2 n dx) over n centered bins.  Inputs must be twice oversampled and
supported in the central half of the window; the engines enforce the
support condition and reject violations.

The lag phase is (-1)^m whatever x0 is, and lag m sits at column m mod n
of the lag FFT, so no output phase is left; the factor 2 dx (``cohen``:
2 dx / n, the 1/n of its inverse time FFT too) rides on the f-side signal.
A product f[i + m] conj(g[i - m]) pairs two samples 2|m| apart, and the
central half [n/4, 3n/4) holds no two samples n/2 or more apart, so every
lag |m| >= n/4 pairs a sample below the support floor with another; on a
row i outside [n/4, 3n/4), i + m and i - m are never both central.  The
engines write only the central rows x the band |m| <= n/4, into a band
that lives in the zero-filled n x n output's own bytes from the first
output row the lag step writes.  ``wigner`` lag-transforms the central
rows alone and never writes the outer rows; ``cohen`` runs ``_lag_filter``
(time FFT, multiplier, inverse time FFT) on the band's n rows, since the
filter spreads rows, then the lag FFT on all n rows, as operator matrices
do on their whole lag kernel.  Summed over every entry instead, W(f, g),
or a Cohen distribution whose multiplier has |Phi| <= 1, would differ by
at most B = (2 dx / n) sum_m sum_k |R[k, m]|, R the time DFT of the
correlation restricted to the entries not written.  Operator matrices and
the symbol map in ``operators`` run ``_lag_filter`` too.  The ghost report
of ``norms`` reads a few rows: it runs the same correlation and the same
full lag filter, then the lag FFT of the region's rows alone, which hold
``cohen``'s values to the bit.

Gaussian tails underflow into subnormal products, which slow every FFT
pass.  ``_correlation`` zeroes each sample below t = min(2^-510 /
sqrt(min(s, 1)), 2^-100 max|f|), s the constant on f, alike on both sides
(the diagonal stays Hermitian; the half and full routes drop the same
products): a kept product, s included, is normal unless the signal is
that small.  The zeroed samples carry at most B, with R restricted to the
written entries that have a zeroed factor (each below t times the other).

On the diagonal (g omitted or ``g is f``) the correlation is Hermitian in
the lag, r_i[-m] = conj(r_i[m]), and the Born-Jordan multiplier keeps that
symmetry (it is real and even), so ``wigner`` and ``born_jordan`` fill
only the n/4 + 1 lags m = 0..n/4 and finish each row with a real inverse
FFT into a float64 output: half the lag work, half the memory.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridError, WindowError
from .grid import (PHASE_SPACE, PhaseSpaceGrid, SampledSignal, TFMatrix, _centered_dft,
                   assert_central_support)
from .kernels import (BORN_JORDAN, CohenKernel, _is_identity, _lag_filter, _lattice_multiplier,
                      born_jordan_kernel, delta_kernel, theta_sigma_cell_averages)


def stft(f: SampledSignal, window: SampledSignal) -> TFMatrix:
    """Dense discrete STFT: one column per signal sample.

    Column i holds dx * DFT_y[f(y) conj(window(y - x_i))] on the centered
    frequency axis with spacing 1/(n dx).  Window shifts are circular; the
    central-half support convention keeps wrapped products at zero.  Row i
    of the circulant window is a view into the tiled conjugate window, and
    the centered DFT of ``grid`` runs on the one n x n product with f.
    Raises GridError off the signal's grid and WindowError for a window of
    zero energy.
    """
    if not f.same_grid(window):
        raise GridError("signal and window must share one grid")
    if window.energy() <= 0.0:
        raise WindowError("window energy must be positive")
    n = f.n
    i0 = int(round(-f.x0 / f.dx)) % n  # index of x = 0 on the axis
    # rows[s, j] = conj(window)[(s + j) % n]; row i needs s = i0 - i (mod n)
    rows = sliding_window_view(np.tile(np.conj(window.samples), 3), n)
    vals, w0, dw = _centered_dft(rows[i0 + n : i0 : -1] * f.samples, f.x0, f.dx)
    grid = PhaseSpaceGrid(nx=n, x0=f.x0, dx=f.dx, nw=n, w0=w0, dw=dw)
    return TFMatrix(vals, grid, PHASE_SPACE)


def wigner_grid(f: SampledSignal) -> PhaseSpaceGrid:
    """Output grid of the quadratic engines for a given signal grid."""
    n = f.n
    dw = 1.0 / (2.0 * n * f.dx)
    return PhaseSpaceGrid(nx=n, x0=f.x0, dx=f.dx, nw=n, w0=-n * dw / 2.0, dw=dw)


def _correlation(f: SampledSignal, g: SampledSignal | None, scale: float, half: bool,
                 first: int = 0):
    """The zero-filled n x n output, float64 with ``half``, complex128
    otherwise, and its band: scale (-1)^m f[i + m] conj(g[i - m]) on the
    central rows [n/4, 3n/4), lag m at column m + n/4 for |m| <= n/4, or
    with ``half`` at column m for m = 0..n/4.  The band is a C-contiguous
    complex view of the output's bytes at an odd row stride, holding the
    output rows [first, n - first): all n, or with ``first`` = n/4
    ``wigner``'s central n/2.  Every other entry pairs a sample below the
    support floor with another (see the module docstring), the band's edge
    lags +-n/4 too.  The lag sign i^(i + m) i^-(i - m) and ``scale`` ride
    on the signals, so the written entries are the product of two sliding
    windows over the signals: on a central row, i + m and i - m lie in
    [0, n) for every |m| <= n/4."""
    if g is None:
        g = f
    if not f.same_grid(g):
        raise GridError("quadratic distributions require a common grid")
    assert_central_support(f)
    assert_central_support(g)
    n, q = f.n, f.n // 4
    # the first lag written, and how many
    m0, count = (0, q + 1) if half else (-q, 2 * q + 1)
    # zero the samples below the floor t of the module docstring, alike on
    # both sides, so the diagonal's products stay Hermitian in the lag
    floor = 2.0**-510 / np.sqrt(min(scale, 1.0))

    def flushed(s):
        mag = np.abs(s)
        return np.where(mag < min(floor, 2.0**-100 * mag.max()), 0.0, s)

    quarter = np.array([1, 1j, -1, -1j])[np.arange(n) % 4]
    fs = flushed(f.samples) * quarter * scale
    gr = np.conj(flushed(g.samples) * quarter)[::-1]
    window = slice(n // 4 + m0, 3 * n // 4 + m0)  # windows i + m0 of the central rows i
    # allocated after the small arrays above (before them, it left the heap
    # 3 MB larger over a run of born_jordan_direct calls at n = 256); fresh
    # pages come zeroed from the system, so np.zeros clears a large buffer
    # for free, and pages never written take no memory (exactly n^2 across:
    # n + 4 columns raised the benchmark's peak RSS by 15 MB)
    out = np.zeros((n, n), dtype=float if half else complex)
    band = out[first:].reshape(-1).view(complex)[: (n - 2 * first) * count].reshape(-1, count)
    np.multiply(sliding_window_view(fs, count)[window],
                sliding_window_view(gr, count)[window][::-1],
                out=band[n // 4 - first : 3 * n // 4 - first])
    return out, band


def _lag_step(out: np.ndarray, band: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Lag FFT of ``_correlation``'s band into the len(band) central rows
    of ``out`` it holds, or into those of them among the output ``rows``
    alone (every other row then keeps whatever bytes it holds).  Bottom
    up, each block of band rows goes to a zero row buffer, lag m at column
    m mod n, and its transform into the same output rows; output row
    lo + a starts a output rows past the band, band row a - 1 ends a band
    rows (each at most 3/4 of an output row) past it.
    Across, an FFT; on a float64 ``out`` (lags m >= 0 of a Hermitian
    correlation, padded to n/2 + 1), a real inverse FFT of the conjugate:
    sum_m r[m] e^{-2 pi i m k / n} is real, so it is n irfft(conj(r))."""
    n = len(out)
    lo, q, step = (n - len(band)) // 2, n // 4, 16  # step: rows per FFT block
    start, stop, _ = rows.indices(n)
    first, last = max(start - lo, 0), min(stop - lo, len(band))
    buf = np.zeros((step, n), dtype=complex)
    for b in range(last, first, -step):
        a = max(first, b - step)
        if out.dtype == complex:
            buf[: b - a, : q + 1] = band[a:b, q:]
            buf[: b - a, n - q :] = band[a:b, :q]
            np.fft.fft(buf[: b - a], axis=1, out=out[lo + a : lo + b])
        else:
            np.conj(band[a:b], out=buf[: b - a, : q + 1])
            np.fft.irfft(buf[: b - a, : n // 2 + 1], n, axis=1, norm="forward",
                         out=out[lo + a : lo + b])
    return out


def _cohen_rows(f: SampledSignal, g: SampledSignal | None, kernel: CohenKernel,
                rows=slice(None)) -> np.ndarray:
    """``cohen``'s values, only the output ``rows`` lag-transformed (every
    other row then holds band bytes); kernels whose multiplier is exactly
    one take ``wigner``'s central-row route."""
    n, diag = f.n, g is None or g is f
    if _is_identity(kernel):
        out, band = _correlation(f, g, 2.0 * f.dx, diag, n // 4)
    else:
        half = diag and kernel.kind == BORN_JORDAN
        out, band = _correlation(f, g, 2.0 * f.dx / n, half)
        lags = np.arange(band.shape[1]) - (0 if half else n // 4)
        _lag_filter(band, _lattice_multiplier(kernel, lags, n), "forward")
    return _lag_step(out, band, rows)


def wigner(f: SampledSignal, g: SampledSignal | None = None) -> TFMatrix:
    """Cross-distribution W(f, g) by exact integer-lag correlation.

    Sesquilinear with the conjugate on g; real-valued on the diagonal.
    Only the lags |m| <= n/4 of the central rows [n/4, 3n/4) of 2 dx f by
    g are built, in the output's own memory, and lag-transformed;
    the outer rows are exactly 0.  With g omitted or ``g is f`` only
    m = 0..n/4, and float64 values, otherwise complex128.  Raises
    AliasingError when either support leaks outside the central half-window.
    """
    return TFMatrix(_cohen_rows(f, g, delta_kernel()), wigner_grid(f), PHASE_SPACE)


def cohen(f: SampledSignal, g: SampledSignal | None, kernel: CohenKernel) -> TFMatrix:
    """Cohen-class distribution: W(f, g) filtered by the kernel's ambiguity
    multiplier Phi(z1, z2), applied to the correlation's time FFT at
    (lag 2 m dx, time frequency) on the band |m| <= n/4, filled on the
    central rows only (the entries the support guard leaves nonzero) with
    2 dx / n on f, so neither the inverse time FFT nor the lag FFT scales;
    the band lies in the output's own memory.  Kernels whose
    multiplier is exactly one (delta, tau = 1/2) give ``wigner`` itself.
    The multiplier is read from tables at the exact lattice products on
    either route; on the diagonal (g omitted or ``g is f``) Born-Jordan
    runs on the lags m = 0..n/4 only and returns float64 values, every
    other case complex128."""
    return TFMatrix(_cohen_rows(f, g, kernel), wigner_grid(f), PHASE_SPACE)


def born_jordan(f: SampledSignal, g: SampledSignal | None = None) -> TFMatrix:
    """Born-Jordan distribution Q(f, g): W filtered by sinc(z1 z2)."""
    return cohen(f, g, born_jordan_kernel())


def born_jordan_direct(f: SampledSignal, g: SampledSignal | None = None) -> TFMatrix:
    """Direct route: linear convolution of W(f, g) with the cell-averaged
    Ci-formula kernel over all (2n-1)^2 lattice offsets.

    Independent of the ambiguity multiplier; used to validate the spectral
    route (the two stay within a couple of 1e-3 in relative L^2 at n = 512).
    Cost: n^2 Ci and Si evaluations on a power-of-two n (one per distinct
    |cell corner|) and three in-place 2-D FFTs of side 2n; traced peak ~9
    n x n complex arrays.
    """
    grid = wigner_grid(f)
    n, dx, dw = grid.nx, grid.dx, grid.dw
    off_x = dx * np.arange(-(n - 1), n)
    off_w = dw * np.arange(-(n - 1), n)

    def padded_spectrum(block):
        buf = np.zeros((2 * n, 2 * n), dtype=complex)  # 2n: n is a power of two
        buf[: block.shape[0], : block.shape[1]] = block
        return np.fft.fftn(buf, axes=(0, 1), out=buf)

    # the kernel first, so its set-up never overlaps a padded spectrum
    kernel = padded_spectrum(theta_sigma_cell_averages(off_x, off_w, dx, dw))
    conv = padded_spectrum(wigner(f, g).values)
    conv *= kernel
    # ifftn, not ifft2: numpy's ifft2 drops its out= and allocates anew
    np.fft.ifftn(conv, axes=(0, 1), out=conv)
    vals = conv[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1] * dx * dw
    return TFMatrix(vals, grid, PHASE_SPACE)
