"""Scalar special functions: sinc, the cosine integral Ci, and the sine
integral Si.

Ci(t) = -int_t^inf cos(s)/s ds is evaluated on three branches:

* ``series``      gamma + log t + sum_k (-t^2)^k / (2k (2k)!)   for t <= 4
* ``quadrature``  16-node Gauss-Legendre on unit panels up to 64 (cached
                  cumulative sums), plus the asymptotic tail from 64 on,
                  for 4 < t < 32
* ``asymptotic``  sin t * f(t) - cos t * g(t) with the divergent expansions
                  of f and g truncated at eight terms, for t >= 32

The classical handoff at 16 leaves the eight-term expansion ~2e-8 short of
the 1e-10 target, so the quadrature branch covers the gap up to 32
(validated against the brute-force oracle).  Si uses the same branches.
"""

from __future__ import annotations

from functools import lru_cache

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


def _panel_integrals(fn, a, b):
    x, w = gauss_legendre(16)
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


def _si_series(t):
    out = t.copy()
    u = t.copy()
    t2 = t * t
    for k in range(1, 31):
        u = u * (-t2) / ((2 * k) * (2 * k + 1))
        out = out + u / (2 * k + 1)
    return out


def _on_branches(t, arr, series, fn, asymptotic, reflect):
    """Ci or Si on its three branches; ``reflect`` turns the tail
    int_t^inf fn(s)/s ds into the value and back (Ci = -tail, Si = pi/2 -
    tail).  The mid branch sums the partial panel [t, next unit edge], the
    cached unit panels up to 64 and the asymptotic tail beyond 64."""
    out = np.empty_like(arr)
    lo = arr <= _SERIES_CUT
    hi = arr >= _ASYM_CUT
    mid = ~lo & ~hi
    if lo.any():
        out[lo] = series(arr[lo])
    if mid.any():
        m = arr[mid]
        nxt = np.minimum(np.searchsorted(_EDGES, m, side="right"), len(_EDGES) - 1)
        far = reflect(asymptotic(np.array([_QUAD_FAR]))[0])
        out[mid] = reflect(_panel_integrals(fn, m, _EDGES[nxt]) + _cumulative_tail(fn)[nxt] + far)
    if hi.any():
        out[hi] = asymptotic(arr[hi])
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


# ---------------------------------------------------------------------------
# public surface

def cosine_integral(t):
    """Ci(t) for t > 0; accepts scalars or arrays.

    Raises:
        DomainError: on any non-positive argument.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("cosine_integral requires t > 0")
    return _on_branches(t, arr, _ci_series, np.cos, _ci_asymptotic, lambda v: -v)


def sine_integral(t):
    """Si(t) = int_0^t sin(s)/s ds for t >= 0; scalars or arrays."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("sine_integral requires t >= 0")
    return _on_branches(t, arr, _si_series, np.sin, _si_asymptotic, lambda v: np.pi / 2 - v)
