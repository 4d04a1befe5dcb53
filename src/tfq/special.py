"""Scalar special functions: sinc, the cosine integral Ci, and the sine
integral Si.

Ci(t) = -int_t^inf cos(s)/s ds is evaluated by three methods:

* ``series``      gamma + log t + sum_k (-t^2)^k / (2k (2k)!)   for t <= 4
* ``quadrature``  Gauss-Legendre panels between the zeros of cos, plus an
                  asymptotic tail started on a far zero (valid everywhere;
                  this is the oracle-grade branch)
* ``asymptotic``  sin t * f(t) - cos t * g(t) with the divergent expansions
                  of f and g truncated at eight terms, for t >= 32

The automatic dispatcher uses the series up to 4, quadrature on (4, 32) and
the asymptotic expansion from 32 on.  The classical handoff at 16 leaves the
eight-term expansion ~2e-8 short of the 1e-10 target, so the quadrature
branch covers the gap up to 32 (validated against the brute-force oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

_SERIES_CUT = 4.0
_ASYM_CUT = 32.0
_QUAD_FAR = 64.0  # panels stop here; asymptotic tail beyond


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def sinc(t):
    """sin(pi t) / (pi t) with sinc(0) = 1; accepts scalars or arrays."""
    return np.sinc(t)


# ---------------------------------------------------------------------------
# branch implementations (array-valued)

def _ci_series(t):
    acc = np.zeros_like(t)
    u = np.ones_like(t)
    t2 = t * t
    for k in range(1, 31):
        u = u * (-t2) / ((2 * k - 1) * (2 * k))
        acc = acc + u / (2 * k)
    return EULER_GAMMA + np.log(t) + acc


def _fg_asymptotic(t, terms=8):
    # f ~ (1/t)(1 - 2!/t^2 + 4!/t^4 - ...), g ~ (1/t^2)(1 - 3!/t^2 + ...)
    t2 = t * t
    f = np.ones_like(t)
    g = np.ones_like(t)
    cf = np.ones_like(t)
    cg = np.ones_like(t)
    sign = 1.0
    for k in range(1, terms):
        sign = -sign
        cf = cf * ((2 * k - 1) * (2 * k)) / t2
        cg = cg * ((2 * k) * (2 * k + 1)) / t2
        f = f + sign * cf
        g = g + sign * cg
    return f / t, g / t2


def _ci_asymptotic(t):
    f, g = _fg_asymptotic(t)
    return np.sin(t) * f - np.cos(t) * g


def _si_asymptotic(t):
    f, g = _fg_asymptotic(t)
    return np.pi / 2 - f * np.cos(t) - g * np.sin(t)


def _panel_integrals(fn, a, b, order=16):
    x, w = gauss_legendre(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    s = mid[..., None] + half[..., None] * x
    # einsum, not a BLAS @: a threaded matrix-vector product splits its sums
    # by array size, so a value would depend on what else is in the call
    return np.einsum("...j,j->...", fn(s) / s, w) * half


# fixed unit-panel partition for vectorised mid-range evaluation
_EDGES = np.arange(_SERIES_CUT, _QUAD_FAR + 0.5, 1.0)


@lru_cache(maxsize=None)
def _cumulative_tail(fn):
    segs = _panel_integrals(fn, _EDGES[:-1], _EDGES[1:])
    return np.concatenate([np.cumsum(segs[::-1])[::-1], [0.0]])


def _mid_tail(fn, t):
    """int_t^inf fn(s)/s ds for fn = cos or sin and 4 < t < 32: the partial
    panel [t, next unit edge], the cached unit panels up to 64, then the
    asymptotic tail beyond 64."""
    nxt = np.minimum(np.searchsorted(_EDGES, t, side="right"), len(_EDGES) - 1)
    far = np.array([_QUAD_FAR])
    if fn is np.cos:
        tail = -_ci_asymptotic(far)[0]
    else:
        tail = np.pi / 2 - _si_asymptotic(far)[0]
    return _panel_integrals(fn, t, _EDGES[nxt]) + _cumulative_tail(fn)[nxt] + tail


def _si_series(t):
    out = t.copy()
    u = t.copy()
    t2 = t * t
    for k in range(1, 31):
        u = u * (-t2) / ((2 * k) * (2 * k + 1))
        out = out + u / (2 * k + 1)
    return out


def _ci_quadrature_scalar(t: float) -> float:
    """Oracle-grade panel quadrature of -int_t^inf cos(s)/s ds.

    Panels run between consecutive zeros of cos up to a far zero; the first
    panel is refined geometrically (the 1/s factor is steep for small t).
    The remainder past the far point uses the eight-term expansion, whose
    error there is below 1e-16.
    """
    far = max(_QUAD_FAR, t + 8 * np.pi)
    m = int(np.ceil(far / np.pi))
    far = m * np.pi
    k0 = int(np.floor(t / np.pi - 0.5)) + 1
    zeros = (np.arange(k0, m) + 0.5) * np.pi
    zeros = zeros[(zeros > t) & (zeros < far)]
    first_end = zeros[0] if len(zeros) else far
    nlog = max(4, int(np.ceil(np.log2(first_end / t))) * 4)
    head = np.geomspace(t, first_end, nlog + 1)
    rest = zeros[1:] if len(zeros) else np.empty(0)
    bounds = np.concatenate([head, rest, [far]])
    segs = _panel_integrals(np.cos, bounds[:-1], bounds[1:], order=24)
    return -fsum(segs.tolist()) + float(_ci_asymptotic(np.array([far]))[0])


# ---------------------------------------------------------------------------
# public surface

@dataclass(frozen=True)
class CiEvaluation:
    """A cosine-integral value together with the method that produced it."""

    t: float
    value: float
    method_tag: str  # "series" | "quadrature" | "asymptotic"


def cosine_integral(t):
    """Ci(t) for t > 0; accepts scalars or arrays.

    Raises:
        DomainError: on any non-positive argument.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("cosine_integral requires t > 0")
    out = np.empty_like(arr)
    lo = arr <= _SERIES_CUT
    hi = arr >= _ASYM_CUT
    mid = ~lo & ~hi
    if lo.any():
        out[lo] = _ci_series(arr[lo])
    if mid.any():
        out[mid] = -_mid_tail(np.cos, arr[mid])
    if hi.any():
        out[hi] = _ci_asymptotic(arr[hi])
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


def ci_evaluate(t: float, method: str | None = None) -> CiEvaluation:
    """Evaluate Ci(t) with an explicit (or automatically chosen) method.

    ``series`` is admissible only for t <= 4 and ``asymptotic`` only for
    t >= 16; ``quadrature`` is admissible everywhere and serves as the
    reference branch.
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


def sine_integral(t):
    """Si(t) = int_0^t sin(s)/s ds for t >= 0; scalars or arrays."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("sine_integral requires t >= 0")
    out = np.empty_like(arr)
    lo = arr <= _SERIES_CUT
    hi = arr >= _ASYM_CUT
    mid = ~lo & ~hi
    if lo.any():
        out[lo] = _si_series(arr[lo])
    if mid.any():
        out[mid] = np.pi / 2 - _mid_tail(np.sin, arr[mid])
    if hi.any():
        out[hi] = _si_asymptotic(arr[hi])
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out
