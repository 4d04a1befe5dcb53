"""Deterministic test-signal synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError
from .gaussians import gaussian
from .grid import SampledSignal, assert_central_support, centered_signal_axis
from . import io as tfq_io

KINDS = ("gaussian", "gabor_atom", "two_atoms", "two_tone", "chirp", "from_file")


@dataclass(frozen=True)
class SignalRecipe:
    kind: str
    n: int = 1024
    dx: float = 1.0 / 16.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GenerationError(f"unknown recipe kind {self.kind!r}")


def gabor_atom(x, t0: float, nu0: float, lam: float = 1.0):
    """Unit-energy Gaussian atom at (t0, nu0)."""
    return (2.0 * lam) ** 0.25 * gaussian(x - t0, lam) * np.exp(2j * np.pi * nu0 * x)


@np.errstate(over="ignore", invalid="ignore")
def synth(recipe: SignalRecipe) -> SampledSignal:
    """Generate the recipe's signal, a pure function of the recipe.

    Params read per kind: gaussian ``lam``; gabor_atom ``t0, nu0, lam``;
    two_atoms ``dt, dnu``; two_tone ``nu1, nu2`` under the envelope
    e^{-pi x^2 / 16}; chirp ``rate``; from_file ``path``.

    Every signal must be finite, not all zero, and meet the central-half
    support condition of the quadratic engines; a huge parameter overflows,
    without a warning, to zeros or NaNs that these checks reject.
    """
    p = recipe.params
    if recipe.kind == "from_file":
        if "path" not in p:
            raise GenerationError("from_file recipe needs a path")
        sig = tfq_io.read_signal(p["path"])
    else:
        x = centered_signal_axis(recipe.n, recipe.dx)
        if recipe.kind == "gaussian":
            samples = gaussian(x, p.get("lam", 1.0)).astype(complex)
        elif recipe.kind == "gabor_atom":
            samples = gabor_atom(
                x, p.get("t0", 0.0), p.get("nu0", 0.0), p.get("lam", 1.0)
            )
        elif recipe.kind == "two_atoms":
            dt = p.get("dt", 4.0)
            dnu = p.get("dnu", 0.0)
            samples = gabor_atom(x, -dt / 2.0, -dnu / 2.0) + gabor_atom(
                x, dt / 2.0, dnu / 2.0
            )
        elif recipe.kind == "two_tone":
            nu1 = p.get("nu1", 0.5)
            nu2 = p.get("nu2", 1.5)
            samples = gaussian(x, 1.0 / 16.0) * (
                np.exp(2j * np.pi * nu1 * x) + np.exp(2j * np.pi * nu2 * x)
            )
        elif recipe.kind == "chirp":
            rate = p.get("rate", 1.0)
            samples = gaussian(x) * np.exp(1j * np.pi * rate * x**2)
        sig = SampledSignal(samples, x0=-recipe.n * recipe.dx / 2.0, dx=recipe.dx)
    if not sig.samples.any():  # the support check passes vacuously on zeros
        raise GenerationError("recipe produced an all-zero signal")
    try:
        assert_central_support(sig)
    except Exception as exc:
        raise GenerationError(f"recipe violates the support condition: {exc}") from exc
    return sig
