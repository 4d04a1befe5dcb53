"""Desk-scale quantization: weak pairings and dense operator realisations.

An operator with symbol a acts weakly through <Op(a) f, g> = <a, D(g, f)>
where D is the rule's distribution: the plain cross-distribution for Weyl,
the tau distribution for the tau rules, the Born-Jordan distribution for
the Born-Jordan rule.  All brackets are antilinear in their second slot.

``apply`` realises the same pairing against the grid basis.  Internally it
uses the equivalent integral-kernel form

    (Op(a) f)[j] = 2 dx sum_i K[i, j - i] f[2 i - j],
    K[i, m] = dw sum_l a_eff[i, l] e^{+2 pi i (2 m dx) w_l},

with a_eff the rule's effective Weyl symbol: a filtered by the conjugate
ambiguity multiplier through ``ambiguity_filter``, the same filter that
``symbol_transform`` applies with sinc(z1 z2).  This is an exact
rearrangement of the basis pairing, which the tests verify directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridError
from .grid import PHASE_SPACE, PhaseSpaceGrid, SampledSignal, TFMatrix
from .distributions import ambiguity_filter, cohen, wigner_grid
from .kernels import (
    CohenKernel,
    born_jordan_kernel,
    delta_kernel,
    tau_kernel,
)

WEYL = "weyl"
BORN_JORDAN_RULE = "bj"
TAU_RULE = "tau"


@dataclass(frozen=True)
class QuantizationRule:
    kind: str
    tau: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (WEYL, BORN_JORDAN_RULE, TAU_RULE):
            raise DomainError(f"unknown quantization rule {self.kind!r}")
        if self.kind == TAU_RULE and (self.tau is None or not 0.0 <= self.tau <= 1.0):
            raise DomainError("tau rule needs tau in [0, 1]")

    def kernel(self) -> CohenKernel:
        if self.kind == WEYL:
            return delta_kernel()
        if self.kind == BORN_JORDAN_RULE:
            return born_jordan_kernel()
        return tau_kernel(self.tau)


def weyl_rule() -> QuantizationRule:
    return QuantizationRule(WEYL)


def born_jordan_rule() -> QuantizationRule:
    return QuantizationRule(BORN_JORDAN_RULE)


def tau_rule(tau: float) -> QuantizationRule:
    return QuantizationRule(TAU_RULE, tau=float(tau))


@dataclass(frozen=True)
class Symbol:
    """Phase-space symbol sampled on the quadratic-engine grid."""

    matrix: TFMatrix

    def __post_init__(self):
        if self.matrix.domain_tag != PHASE_SPACE:
            raise GridError("symbols live in phase space")
        g = self.matrix.grid
        if g.nx != g.nw or not g.is_centered():
            raise GridError("symbol grids must be square and centered")

    @classmethod
    def sample(cls, fn, grid: PhaseSpaceGrid) -> "Symbol":
        vals = np.asarray(
            fn(grid.x_axis[:, None], grid.w_axis[None, :]), dtype=complex
        )
        vals = np.broadcast_to(vals, (grid.nx, grid.nw))
        return cls(TFMatrix(vals, grid, PHASE_SPACE))

    @classmethod
    def constant(cls, value: complex, grid: PhaseSpaceGrid) -> "Symbol":
        return cls(
            TFMatrix(np.full((grid.nx, grid.nw), value, dtype=complex), grid, PHASE_SPACE)
        )

    @property
    def grid(self) -> PhaseSpaceGrid:
        return self.matrix.grid

    def conj(self) -> "Symbol":
        return Symbol(self.matrix.with_values(np.conj(self.matrix.values)))


def symbol_grid_for(f: SampledSignal) -> PhaseSpaceGrid:
    """Grid on which symbols pair with distributions of signals like f."""
    return wigner_grid(f)


def weak_apply(
    a: Symbol, rule: QuantizationRule, f: SampledSignal, g: SampledSignal
) -> complex:
    """<Op(a) f, g> = <a, D(g, f)> as a grid inner product."""
    dist = cohen(g, f, rule.kernel())
    if not a.grid.close_to(dist.grid):
        raise GridError("symbol grid does not match the distribution grid")
    return a.matrix.inner(dist)


def operator_matrix(a: Symbol, rule: QuantizationRule) -> np.ndarray:
    """Dense n x n matrix M with (Op(a) f)[j] = sum_u M[j, u] f[u]."""
    g = a.grid
    n = g.nx
    vals = a.matrix.values
    if rule.kind != WEYL:  # the effective Weyl symbol
        vals = ambiguity_filter(a.matrix, rule.kernel(), conj=True).values
    # lag kernel K[i, m] = dw sum_l vals[i, l] e^{+2 pi i (2 m dx) w_l},
    # kept in DFT residue order (m and m mod n agree for |m| < n/2)
    m_resid = np.fft.fftfreq(n, 1.0 / n)
    lag = np.fft.ifft(vals, axis=1) * n * g.dw
    lag *= np.exp(2j * np.pi * (2.0 * m_resid * g.dx) * g.w0)[None, :]
    out = np.zeros((n, n), dtype=complex)
    j = np.arange(n)[:, None]
    u = np.arange(n)[None, :]
    same_parity = (j + u) % 2 == 0
    i_mid = (j + u) // 2
    m_idx = ((j - u) // 2) % n
    out[same_parity] = 2.0 * g.dx * lag[i_mid[same_parity], m_idx[same_parity]]
    return out


def apply(a: Symbol, rule: QuantizationRule, f: SampledSignal) -> SampledSignal:
    """Op(a) f as a sampled signal (weak pairing against the grid basis)."""
    g = a.grid
    if f.n != g.nx or not np.isclose(f.dx, g.dx, rtol=1e-9, atol=0):
        raise GridError("signal grid does not match the symbol grid")
    mat = operator_matrix(a, rule)
    return f.with_samples(mat @ f.samples)


def symbol_transform(a: Symbol) -> Symbol:
    """The Born-Jordan-to-Weyl symbol map: filter a by sinc(z1 z2).

    Computed spectrally as Fs^{-1}[ sinc(z1 z2) . Fs a ] by
    ``ambiguity_filter``; the output grid equals the input grid and the map
    contracts the grid L^2 norm.
    """
    return Symbol(ambiguity_filter(a.matrix, born_jordan_kernel()))
