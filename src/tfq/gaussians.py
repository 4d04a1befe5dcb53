"""Closed-form references for dilated Gaussians phi_lam(x) = e^{-pi lam x^2}.

These are the ground-truth formulas used throughout the test suite:
the cross-distribution of phi with phi_lam and its plain/symplectic
Fourier transforms.

Note on phases: published versions of the two Fourier formulas circulate
with the opposite sign on the cross phase; the signs used here were fixed
by brute-force quadrature of the defining integrals and by the identity
F W(f, g)(x, w) = 2^{-d} W(f, g~)(w/2, -x/2), and they are what the grid
transforms reproduce.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _check_dilation(lam: float) -> None:
    """Reject a dilation unless 0 < pi lam < inf (NaN included)."""
    if not 0.0 < np.pi * float(lam) < np.inf:  # float: no overflow warning
        raise DomainError(f"dilation must be positive with pi * lam finite, got {lam!r}")


def gaussian(x, lam: float = 1.0):
    """phi_lam(x) = e^{-pi lam x^2}."""
    _check_dilation(lam)
    return np.exp(-np.pi * lam * np.asarray(x, dtype=float) ** 2)


def wigner_gaussian(lam: float, x, w):
    """Cross-distribution W(phi, phi_lam)(x, w), dimension one.

    (2/sqrt(lam+1)) e^{-4 pi lam x^2/(lam+1)} e^{-4 pi w^2/(lam+1)}
    e^{-4 pi i (lam-1) x w/(lam+1)}, each dilation taken as its ratio to
    c = lam + 1 (4 pi lam alone may overflow).
    """
    _check_dilation(lam)
    c = lam + 1.0
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return (
        (2.0 / np.sqrt(c))
        * np.exp(-4 * np.pi * (lam / c) * x**2)
        * np.exp(-4 * np.pi * w**2 / c)
        * np.exp(-4j * np.pi * ((lam - 1.0) / c) * (x * w))
    )


def wigner_gaussian_diag(lam: float, x, w):
    """Diagonal W(phi_lam, phi_lam)(x, w) = 2^{1/2} lam^{-1/2}
    phi(sqrt(2 lam) x) phi(sqrt(2/lam) w), with lam x^2 and w^2 / lam
    formed first (2 pi lam alone may overflow)."""
    _check_dilation(lam)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return (
        np.sqrt(2.0 / lam)
        * np.exp(-2 * np.pi * (lam * x**2))
        * np.exp(-2 * np.pi * (w**2 / lam))
    )


def fourier_wigner_gaussian(lam: float, z1, z2, variant: str = "symplectic"):
    """Fourier transform of W(phi, phi_lam); ``plain`` or ``symplectic``.

    plain:      (lam+1)^{-1/2} e^{-pi z1^2/c} e^{-pi lam z2^2/c}
                e^{+pi i (lam-1) z1 z2 / c}
    symplectic: plain evaluated at J(z1, z2) = (z2, -z1), i.e.
                (lam+1)^{-1/2} e^{-pi lam z1^2/c} e^{-pi z2^2/c}
                e^{-pi i (lam-1) z1 z2 / c}
    Each dilation is taken as its ratio to c = lam + 1.
    """
    _check_dilation(lam)
    c = lam + 1.0
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if variant == "symplectic":
        z1, z2 = z2, -z1
    elif variant != "plain":
        raise DomainError(f"unknown variant {variant!r}")
    return (
        c**-0.5
        * np.exp(-np.pi * z1**2 / c)
        * np.exp(-np.pi * (lam / c) * z2**2)
        * np.exp(1j * np.pi * ((lam - 1.0) / c) * (z1 * z2))
    )
