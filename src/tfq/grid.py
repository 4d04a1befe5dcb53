"""Sampled signals, phase-space grids, and the discrete Fourier transforms.

Conventions: the forward transform approximates F f(w) = int e^{-2pi i x w}
f(x) dx with the Riemann factor dx, so a unit Gaussian maps to itself.  The
symplectic transform of a matrix F(x, w) is

    Fs F(z1, z2) = int int F(x, w) e^{-2pi i (z2 x - z1 w)} dx dw,

i.e. the plain 2D transform composed with the rotation J(z1, z2) = (z2, -z1).
Both transforms track axis origins; output axes are always centered.  Every
axis is x_j = c + d (j - n/2) about its centre c = x0 + n d/2, and a centered
origin x0 = -n d/2 gives c = 0 exactly, so x_j = -x_{n-j} exactly.  On such
axes every phase is a sign (-1)^index, the post-phase e^{-+2 pi i x0 w_k} =
(-1)^k e^{-+2 pi i c w_k} (4 | n, turns c w_k reduced mod 1) included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import fsum

import numpy as np

from .errors import AliasingError, DomainError, GridError, SizeError

PHASE_SPACE = "phase_space"
AMBIGUITY = "ambiguity"

_ORIGIN_RTOL = 1e-9


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _same_axis(n: int, x0: float, dx: float, m: int, y0: float, dy: float) -> bool:
    """The one axis rule of every grid check: equal counts, spacings within
    relative ``_ORIGIN_RTOL``, origins within ``_ORIGIN_RTOL`` dx."""
    return (n == m and np.isclose(dx, dy, rtol=_ORIGIN_RTOL, atol=0)
            and np.isclose(x0, y0, rtol=0, atol=_ORIGIN_RTOL * dx))


def _check_spacing(dx: float, x0: float = 0.0) -> None:
    if not (dx > 0 and np.isfinite(dx) and np.isfinite(x0)):
        raise GridError("dx must be positive and finite, x0 finite")


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex signal on x_j = x0 + j dx."""

    samples: np.ndarray
    x0: float
    dx: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        _check_spacing(self.dx, self.x0)
        if samples.ndim != 1:
            raise SizeError("samples must be one-dimensional")
        if len(samples) < 8 or not _is_power_of_two(len(samples)):
            raise SizeError(
                f"sample count must be a power of two >= 8, got {len(samples)}"
            )
        if not np.isfinite(samples).all():
            raise DomainError("samples must be finite")

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def axis(self) -> np.ndarray:
        return self.x0 + self.n * self.dx / 2.0 + centered_signal_axis(self.n, self.dx)

    def energy(self) -> float:
        """sum |f|^2 dx, accumulated with compensated summation."""
        mags = np.abs(self.samples) ** 2
        return fsum(mags.tolist()) * self.dx

    def inner(self, other: "SampledSignal") -> complex:
        """<f, g> = sum f conj(g) dx; antilinear in the second argument."""
        if not self.same_grid(other):
            raise GridError("inner product requires a common grid")
        return complex(np.sum(self.samples * np.conj(other.samples)) * self.dx)

    def same_grid(self, other: "SampledSignal") -> bool:
        return _same_axis(self.n, self.x0, self.dx, other.n, other.x0, other.dx)

    def with_samples(self, samples) -> "SampledSignal":
        return replace(self, samples=np.asarray(samples, dtype=complex))


def centered_signal_axis(n: int, dx: float) -> np.ndarray:
    _check_spacing(dx)  # before inf * 0 makes a NaN axis
    return dx * (np.arange(n) - n / 2)


def signal_from_function(fn, n: int, dx: float) -> SampledSignal:
    x = centered_signal_axis(n, dx)
    return SampledSignal(np.asarray(fn(x), dtype=complex), x0=-n * dx / 2.0, dx=dx)


_SUPPORT_FLOOR = 1e-13  # samples above this fraction of the peak are support


def assert_central_support(sig: SampledSignal) -> None:
    """Reject signals whose support leaks out of the central half-window:
    support is every sample above ``_SUPPORT_FLOOR`` = 1e-13 times the
    peak magnitude."""
    mags = np.abs(sig.samples)
    peak = mags.max()
    if peak == 0.0:
        return
    idx = np.nonzero(mags > _SUPPORT_FLOOR * peak)[0]
    lo, hi = idx.min(), idx.max()
    n = sig.n
    if lo < n // 4 or hi >= 3 * n // 4:
        raise AliasingError(
            "signal support touches the outer half of the window "
            f"(nonzero cells span [{lo}, {hi}] of {n}); add padding"
        )


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular grid in (x, w): nx x nw cells with explicit origins."""

    nx: int
    x0: float
    dx: float
    nw: int
    w0: float
    dw: float

    def __post_init__(self):
        finite = np.isfinite([self.x0, self.dx, self.w0, self.dw]).all()
        if not (finite and self.dx > 0 and self.dw > 0):
            raise GridError("grid spacings must be positive and finite, origins finite")
        if self.nx < 1 or self.nw < 1:
            raise GridError("grid counts must be positive")

    @classmethod
    def centered(cls, nx: int, dx: float, nw: int, dw: float) -> "PhaseSpaceGrid":
        return cls(nx=nx, x0=-nx * dx / 2.0, dx=dx, nw=nw, w0=-nw * dw / 2.0, dw=dw)

    @classmethod
    def dft_compatible(cls, n: int, dx: float) -> "PhaseSpaceGrid":
        """Square grid with dw = 1/(n dx), so dx dw n = 1 exactly."""
        if not (n >= 1 and dx > 0):
            raise GridError(f"a DFT grid needs n >= 1 and dx > 0, got n={n}, dx={dx}")
        return cls.centered(n, dx, n, 1.0 / (n * dx))

    @property
    def x_axis(self) -> np.ndarray:
        return self.x0 + self.nx * self.dx / 2.0 + centered_signal_axis(self.nx, self.dx)

    @property
    def w_axis(self) -> np.ndarray:
        return self.w0 + self.nw * self.dw / 2.0 + centered_signal_axis(self.nw, self.dw)

    @property
    def cell_measure(self) -> float:
        return self.dx * self.dw

    def is_centered(self) -> bool:
        return self.close_to(PhaseSpaceGrid.centered(self.nx, self.dx, self.nw, self.dw))

    def close_to(self, other: "PhaseSpaceGrid") -> bool:
        return (_same_axis(self.nx, self.x0, self.dx, other.nx, other.x0, other.dx)
                and _same_axis(self.nw, self.w0, self.dw, other.nw, other.w0, other.dw))


@dataclass(frozen=True)
class TFMatrix:
    """Matrix sampled on a phase-space (or ambiguity) grid.

    ``values[i, j]`` sits at (x_i, w_j) in phase space, or at (z1_i, z2_j)
    in the ambiguity domain.  Values are read-only float64 when given real
    input (the diagonal Wigner and Born-Jordan distributions) and
    complex128 otherwise; code that writes into a copy of them must not
    assume a complex dtype.
    """

    values: np.ndarray
    grid: PhaseSpaceGrid
    domain_tag: str = PHASE_SPACE

    def __post_init__(self):
        values = np.asarray(self.values)
        values = np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.nx, self.grid.nw):
            raise GridError(
                f"matrix shape {values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.nw})"
            )
        if self.domain_tag not in (PHASE_SPACE, AMBIGUITY):
            raise GridError(f"unknown domain tag {self.domain_tag!r}")

    def l2_norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_measure)
        )

    def inner(self, other: "TFMatrix") -> complex:
        """<A, B> = sum A conj(B) dx dw; antilinear in the second argument."""
        if not self.grid.close_to(other.grid):
            raise GridError("inner product requires matching grids")
        return complex(
            np.sum(self.values * np.conj(other.values)) * self.grid.cell_measure
        )

    def with_values(self, values) -> "TFMatrix":
        return replace(self, values=values)


# ---------------------------------------------------------------------------
# one-dimensional transform

def _centered_dft(samples: np.ndarray, x0: float, dx: float, inverse: bool = False,
                  rows: np.ndarray | None = None):
    """``dft`` of the samples on x0 + j dx, or with ``rows`` of each row of
    rows times them (``stft``), along the last axis into a new array, and
    the centered output axis (o0, do), do = 1/(n dx): (-1)^j on the samples,
    then dx (-1)^k e^{-+2 pi i c w_k} for the centre c (dx (-1)^k if c = 0)."""
    n = len(samples)
    do = 1.0 / (n * dx)
    v = samples.copy()
    v[1::2] *= -1.0
    v = v if rows is None else rows * v
    if inverse:
        np.fft.ifft(v, axis=-1, norm="forward", out=v)
    else:
        np.fft.fft(v, axis=-1, out=v)
    turns = (x0 + n * dx / 2.0) * centered_signal_axis(n, do)
    post = dx * np.exp((1.0 if inverse else -1.0) * 2j * np.pi * (turns - np.round(turns)))
    post[1::2] *= -1.0
    v *= post
    return v, -n * do / 2.0, do


def dft(signal: SampledSignal, direction: str = "forward") -> SampledSignal:
    """Unitary-convention discrete Fourier transform of a sampled signal.

    Forward output lives on the centered frequency axis with spacing
    1/(n dx) and carries the Riemann factor dx; the inverse undoes it, so
    dft(dft(f), "inverse") == f up to rounding.
    """
    if not _is_power_of_two(signal.n):
        raise SizeError("dft requires a power-of-two length")
    if direction not in ("forward", "inverse"):
        raise GridError(f"unknown dft direction {direction!r}")
    spec, o0, do = _centered_dft(signal.samples, signal.x0, signal.dx, direction == "inverse")
    return SampledSignal(spec, x0=o0, dx=do)


# ---------------------------------------------------------------------------
# symplectic transform on grids

def symplectic_fourier(m: TFMatrix) -> TFMatrix:
    """Symplectic Fourier transform of a matrix on a centered square grid.

    The x axis pairs with z2 through e^{-2pi i x z2} and the w axis with z1
    through e^{+2pi i w z1}; the final transpose realises the rotation J by
    index permutation.  The output grid is the centered dual grid and the
    domain tag flips; a second application restores matrix, grid, and tag.
    On centered axes every pre- and post-phase is (-1)^index; the constants
    e^{-i pi n/2} (x axis) and e^{+i pi n/2} (w axis) cancel for every n.
    """
    g = m.grid
    if g.nx != g.nw:
        raise GridError("symplectic_fourier requires a square grid")
    if not g.is_centered():
        raise GridError("symplectic_fourier requires centered axes")
    v = m.values * complex(g.cell_measure)  # a complex copy of real values too
    v[1::2] *= -1.0  # pre-phases (-1)^(i + j)
    v[:, 1::2] *= -1.0
    np.fft.fft(v, axis=0, out=v)  # x axis -> z2 (forward kernel)
    np.fft.ifft(v, axis=1, norm="forward", out=v)  # w axis -> z1 (conjugate kernel)
    v[1::2] *= -1.0  # post-phases (-1)^(k + l)
    v[:, 1::2] *= -1.0
    tag = AMBIGUITY if m.domain_tag == PHASE_SPACE else PHASE_SPACE
    dual = PhaseSpaceGrid.centered(g.nw, 1.0 / (g.nw * g.dw), g.nx, 1.0 / (g.nx * g.dx))
    return TFMatrix(v.T, dual, tag)
