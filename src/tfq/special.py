"""Scalar special functions: the cosine integral Ci and the sine integral Si.

Ci(t) = -int_t^inf cos(s)/s ds and Si(t) = int_0^t sin(s)/s ds are evaluated
on two branches, split by ``_on_branches``, which also serves the
Born-Jordan cell-average corners of ``kernels``:

* ``series``  gamma + log t + sum_k (-t^2)^k / (2k (2k)!) for Ci, and
              sum_k (-1)^k t^(2k+1) / ((2k+1) (2k+1)!) for Si, for t <= 4
* ``f/g``     Ci = f sin t - g cos t and Si = pi/2 - f cos t - g sin t,
              for t > 4

f(t) = int_0^inf e^{-tu}/(1 + u^2) du and g(t) = int_0^inf u e^{-tu}/(1 + u^2)
du, the auxiliary functions of Abramowitz & Stegun 5.2, are smooth Laplace
integrals.  Substituting u = x/t puts them in Gauss-Laguerre form; 32 nodes
reach ~4e-14 against mpmath over t > 4, where 24 nodes leave 5e-12.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

_SERIES_CUT = 4.0
_BLOCK = 4096  # rows of the block-by-32 scratch array of _fg


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def _gauss_laguerre():
    """The 32-node Gauss-Laguerre rule for int_0^inf e^{-x} h(x) dx: nodes x
    and the weight vectors w and w x, built on first use."""
    x, w = np.polynomial.laguerre.laggauss(32)
    return x, w, w * x


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


def _si_series(t):
    out = t.copy()
    u = t.copy()
    t2 = t * t
    for k in range(1, 31):
        u = u * (-t2) / ((2 * k) * (2 * k + 1))
        out = out + u / (2 * k + 1)
    return out


def _fg(t):
    """f(t) = (1/t) sum_k w_k / (1 + (x_k/t)^2) and g(t) = (1/t^2) sum_k
    w_k x_k / (1 + (x_k/t)^2) on a 1-D array of t > 4, in blocks of _BLOCK
    points.  t is divided by twice, never squared, so no finite t
    overflows."""
    x, w, wx = _gauss_laguerre()
    f = np.empty_like(t)
    g = np.empty_like(t)
    for i in range(0, t.size, _BLOCK):
        tb = t[i:i + _BLOCK]
        q = x / tb[:, None]
        q *= q
        q += 1.0
        np.reciprocal(q, out=q)
        # einsum, not a BLAS @: a threaded matrix-vector product splits its
        # sums by array size, so a value would depend on what else is in the call
        f[i:i + _BLOCK] = np.einsum("ij,j->i", q, w) / tb
        g[i:i + _BLOCK] = np.einsum("ij,j->i", q, wx) / tb / tb
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
