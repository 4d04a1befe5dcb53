"""Scalar special functions: the cosine integral Ci and the sine integral Si.

Ci(t) = -int_t^inf cos(s)/s ds and Si(t) = int_0^t sin(s)/s ds are evaluated
on two branches, split by ``_on_branches``, which also serves the
Born-Jordan cell-average corners of ``kernels``:

* ``series``  gamma + log t + sum_k (-t^2)^k / (2k (2k)!) for Ci, and
              sum_k (-1)^k t^(2k+1) / ((2k+1) (2k+1)!) for Si, for t <= 4,
              each a Horner polynomial in t^2 cut where the first omitted
              term at t = 4 is below 2^-60 (16 terms each)
* ``f/g``     Ci = f sin t - g cos t and Si = pi/2 - f cos t - g sin t,
              for t > 4

f(t) = int_0^inf e^{-tu}/(1 + u^2) du and g(t) = int_0^inf u e^{-tu}/(1 + u^2)
du, the auxiliary functions of Abramowitz & Stegun 5.2, are smooth Laplace
integrals.  Substituting u = x/t puts them in Gauss-Laguerre form; the
32-node rule reaches ~4e-14 against mpmath over t > 4, where 24 nodes leave
5e-12.  Its trailing 9 nodes weigh sum w x < 2^-60 together, so only the
leading 23 are summed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

_SERIES_CUT = 4.0
_TINY = 2.0 ** -60  # bounds the first omitted series term at t = 4 and the dropped Laguerre tail
_BLOCK = 16384  # points per pass of _fg's node loop, so its 1-D buffers stay in cache


def _series_table(coef, factor):
    """coef(0), coef(1), ..., up to the first k whose term at t = 4,
    factor 16^k |coef(k)|, is below 2^-60: that one is omitted."""
    out = []
    while factor * 16.0 ** len(out) * abs(coef(len(out))) >= _TINY:
        out.append(coef(len(out)))
    return tuple(out)


# Horner coefficients in t^2: Ci - gamma - log t = t^2 P(t^2) and Si = t Q(t^2)
_CI_SERIES = _series_table(lambda k: (-1) ** (k + 1) / ((2 * k + 2) * math.factorial(2 * k + 2)),
                           16.0)
_SI_SERIES = _series_table(lambda k: (-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)), 4.0)


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _gauss_laguerre():
    """Nodes x and weights w of the 32-node Gauss-Laguerre rule for
    int_0^inf e^{-x} h(x) dx, without the trailing nodes whose summed w x
    is below 2^-60 (a bound on what they add to t f and t^2 g, which stay
    above 0.79 for t > 4); built on first use."""
    x, w = np.polynomial.laguerre.laggauss(32)
    tail = np.cumsum((w * x)[::-1])[::-1]  # tail[k] = sum of w x over nodes k..31
    keep = int(np.argmax(tail < _TINY))
    return x[:keep], w[:keep]


# ---------------------------------------------------------------------------
# branch implementations (array-valued)

def _horner(u, coef):
    """sum_k coef[k] u^k, highest power first, in one buffer."""
    p = np.full_like(u, coef[-1])
    for c in coef[-2::-1]:
        p *= u
        p += c
    return p


def _ci_series(t):
    t2 = t * t
    return EULER_GAMMA + np.log(t) + t2 * _horner(t2, _CI_SERIES)


def _si_series(t):
    return t * _horner(t * t, _SI_SERIES)


def _fg(t):
    """f(t) = s sum_k w_k / (1 + (x_k s)^2) and g(t) = s^2 sum_k w_k x_k /
    (1 + (x_k s)^2), s = 1/t, on a 1-D array of t > 4.  The sums run node
    by node over blocks of _BLOCK points, so each point's terms add in node
    order whatever else is in the call; t is never squared, so no finite t
    overflows."""
    x, w = _gauss_laguerre()
    nodes = list(zip(x.tolist(), w.tolist()))
    f = np.zeros_like(t)
    g = np.zeros_like(t)
    for i in range(0, t.size, _BLOCK):
        s = 1.0 / t[i:i + _BLOCK]
        fb, gb = f[i:i + _BLOCK], g[i:i + _BLOCK]
        q = np.empty_like(s)
        for xk, wk in nodes:
            np.multiply(s, xk, out=q)
            q *= q
            q += 1.0
            np.divide(wk, q, out=q)
            fb += q
            q *= xk
            gb += q
        fb *= s
        gb *= s
        gb *= s
    return f, g


def _on_branches(t, arr, series, far):
    """``series`` on the points of ``arr`` at or below 4 and, above, ``far``
    applied to (t, f, g, sin t, cos t); a float when ``t`` is a scalar."""
    out = np.empty_like(arr)
    lo = arr <= _SERIES_CUT
    out[lo] = series(arr[lo])
    hi = arr[~lo]
    out[~lo] = far(hi, *_fg(hi), np.sin(hi), np.cos(hi))
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
    return _on_branches(t, arr, _ci_series, lambda _, f, g, s, c: f * s - g * c)


def sine_integral(t):
    """Si(t) = int_0^t sin(s)/s ds for t >= 0; scalars or arrays."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("sine_integral requires t >= 0")
    return _on_branches(t, arr, _si_series, lambda _, f, g, s, c: np.pi / 2 - f * c - g * s)
