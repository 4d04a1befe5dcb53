"""Desk-scale quantization: weak pairings and dense operator realisations.

An operator with symbol a acts weakly through <Op(a) f, g> = <a, D(g, f)>
where D is the Cohen distribution of the rule.  A quantization rule is its
Cohen kernel: ``weyl_rule``, ``tau_rule`` and ``born_jordan_rule`` are the
delta, tau and Born-Jordan kernels under their operator names.  All
brackets are antilinear in their second slot.

``apply`` realises the same pairing against the grid basis.  Internally it
uses the equivalent integral-kernel form

    (Op(a) f)[j] = 2 dx sum_i K[i, j - i] f[2 i - j],
    K[i, m] = dw sum_l a_eff[i, l] e^{+2 pi i (2 m dx) w_l},

with a_eff the rule's effective Weyl symbol, a filtered by the conjugate
ambiguity multiplier.  ``operator_matrix`` filters K of a along time, at
(2 m dx, time frequency): the lag filter that ``cohen`` runs on a
correlation.  This is an exact rearrangement of the basis pairing, which
the tests verify directly.  ``symbol_transform`` filters a symbol by
sinc(z1 z2): the same lag filter between an FFT and an inverse FFT over w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .grid import _ORIGIN_RTOL, PHASE_SPACE, PhaseSpaceGrid, SampledSignal, TFMatrix
from .distributions import cohen, wigner_grid
from .kernels import (CohenKernel, _is_identity, _lag_filter, _lattice_multiplier,
                      ambiguity_multiplier, born_jordan_kernel, delta_kernel, tau_kernel)

# a quantization rule is its Cohen kernel
weyl_rule = delta_kernel
born_jordan_rule = born_jordan_kernel
tau_rule = tau_kernel
# the grid on which symbols pair with distributions of signals like f
symbol_grid_for = wigner_grid


@dataclass(frozen=True)
class Symbol:
    """Phase-space symbol sampled on the quadratic-engine grid."""

    matrix: TFMatrix

    def __post_init__(self):
        if self.matrix.domain_tag != PHASE_SPACE:
            raise GridError("symbols live in phase space")
        g = self.matrix.grid
        if g.nx != g.nw or g.nx % 2 or not g.is_centered():
            raise GridError("symbol grids must be square and centered, with an even count")
        if not np.isfinite(self.matrix.values).all():
            raise DomainError("symbol values must be finite")

    @classmethod
    def sample(cls, fn, grid: PhaseSpaceGrid) -> "Symbol":
        vals = np.asarray(
            fn(grid.x_axis[:, None], grid.w_axis[None, :]), dtype=complex
        )
        vals = np.broadcast_to(vals, (grid.nx, grid.nw))
        return cls(TFMatrix(vals, grid, PHASE_SPACE))

    @property
    def grid(self) -> PhaseSpaceGrid:
        return self.matrix.grid

    def conj(self) -> "Symbol":
        return Symbol(self.matrix.with_values(np.conj(self.matrix.values)))


def weak_apply(a: Symbol, rule: CohenKernel, f: SampledSignal, g: SampledSignal) -> complex:
    """<Op(a) f, g> = <a, D(g, f)> as a grid inner product."""
    dist = cohen(g, f, rule)
    if not a.grid.close_to(dist.grid):
        raise GridError("symbol grid does not match the distribution grid")
    return a.matrix.inner(dist)


def operator_matrix(a: Symbol, rule: CohenKernel) -> np.ndarray:
    """Dense n x n matrix M with (Op(a) f)[j] = sum_u M[j, u] f[u].

    The Weyl lag kernel of a is one inverse FFT over w and a sign; a rule
    whose multiplier is not exactly 1 filters it along time by its conjugate.

    Raises:
        GridError: unless dw = 1/(2 n dx), the one spacing on which the
            lag-kernel form below holds (``symbol_grid_for``'s grid).
    """
    g = a.grid
    n = g.nx
    if not np.isclose(2.0 * n * g.dx * g.dw, 1.0, rtol=_ORIGIN_RTOL, atol=0):
        raise GridError("operator symbols need the grid spacing dw = 1/(2 n dx)")
    # 2 dx K[i, m] in DFT residue order (m and m mod n agree for |m| < n/2);
    # w0 = -1/(4 dx) on the centred grid, so e^{2 pi i (2 m dx) w0} = (-1)^m
    lag = np.fft.ifft(a.matrix.values, axis=1)
    lag *= 2.0 * n * g.dx * g.dw
    lag[:, 1::2] *= -1.0
    if not _is_identity(rule):
        phi = _lattice_multiplier(rule, np.fft.fftfreq(n, 1.0 / n).astype(np.int64), n)
        _lag_filter(lag, lambda rows: np.conj(phi(rows)))
    # lag m fills M[i + m, i - m], i in [|m|, n - |m|): one stride-(n + 1)
    # anti-diagonal of the flat matrix; entries with j + u odd stay zero
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    for m in range(1 - n // 2, n // 2):
        lo = abs(m)
        start = lo * (n + 1) + m * (n - 1)
        flat[start : start + (n - 2 * lo) * (n + 1) : n + 1] = lag[lo : n - lo, m % n]
    return out


def apply(a: Symbol, rule: CohenKernel, f: SampledSignal) -> SampledSignal:
    """Op(a) f as a sampled signal (weak pairing against the grid basis)."""
    if not a.grid.close_to(symbol_grid_for(f)):
        raise GridError("signal grid does not match the symbol grid")
    mat = operator_matrix(a, rule)
    return f.with_samples(mat @ f.samples)


def symbol_transform(a: Symbol) -> Symbol:
    """The Born-Jordan-to-Weyl symbol map: filter a by sinc(z1 z2).

    Computed spectrally as Fs^{-1}[ sinc(z1 z2) . Fs a ]: FFT over w, the
    lag filter along x, inverse FFT over w; sinc(z1 z2) is even in each
    argument, so it is read at the FFT frequencies.  The output grid equals
    the input grid and the map contracts the grid L^2 norm.
    """
    g = a.grid
    z1, z2 = np.fft.fftfreq(g.nw, g.dw), np.fft.fftfreq(g.nx, g.dx)[:, None]
    spec = np.fft.fft(a.matrix.values, axis=1)
    _lag_filter(spec, lambda rows: ambiguity_multiplier(born_jordan_kernel(), z1, z2[rows]))
    return Symbol(a.matrix.with_values(np.fft.ifft(spec, axis=1, out=spec)))
