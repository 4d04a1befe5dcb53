import numpy as np
import pytest

from tfq import (
    DomainError,
    fourier_wigner_gaussian,
    gaussian,
    symplectic_fourier,
    wigner,
    wigner_gaussian,
    wigner_gaussian_diag,
)

from conftest import gaussian_signal, sup_rel_error
from oracles import wigner_point_brute


def test_center_values():
    assert abs(wigner_gaussian(1.0, 0.0, 0.0) - np.sqrt(2.0)) < 1e-15
    assert wigner_gaussian(1.0, 0.0, 0.0).imag == 0.0
    # the cross phase vanishes identically at lam = 1
    x = np.linspace(-2, 2, 41)
    vals = wigner_gaussian(1.0, x[:, None], x[None, :])
    assert np.abs(vals.imag).max() < 1e-15


def test_diagonal_dilation_value():
    assert abs(wigner_gaussian_diag(4.0, 0.0, 0.0) - np.sqrt(2.0) / 2.0) < 1e-12


def test_against_defining_integral():
    lam = 2.0
    got = wigner_gaussian(lam, 0.5, 0.5)
    ref = wigner_point_brute(
        lambda y: gaussian(y), lambda y: gaussian(y, lam), 0.5, 0.5
    )
    assert abs(got - ref) < 1e-10


def test_domain_errors():
    with pytest.raises(DomainError):
        wigner_gaussian(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        fourier_wigner_gaussian(-1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        fourier_wigner_gaussian(1.0, 0.0, 0.0, variant="twisted")


@pytest.mark.parametrize("lam", [1e308, np.finfo(float).max])
def test_dilation_whose_pi_lam_overflows_is_rejected(lam):
    # pi lam overflows above 5.7e307, and inf * 0 at x = 0 made a NaN
    # sample; the check names the dilation
    for call in (lambda: gaussian(0.0, lam), lambda: wigner_gaussian(lam, 0.0, 0.0),
                 lambda: wigner_gaussian_diag(lam, 0.0, 0.0),
                 lambda: fourier_wigner_gaussian(lam, 0.0, 0.0, "plain")):
        with pytest.raises(DomainError, match="dilation must be positive with pi"):
            call()


def test_largest_dilation_with_finite_pi_lam_is_a_spike():
    x = np.array([-1e-300, 0.0, 1e-300, 1.0])
    assert np.array_equal(gaussian(x, 5.7e307), [1.0, 1.0, 1.0, 0.0])


@pytest.mark.parametrize("oracle, peak", [
    (wigner_gaussian, lambda lam: 2.0 / np.sqrt(lam + 1.0)),
    (wigner_gaussian_diag, lambda lam: np.sqrt(2.0 / lam)),
], ids=["cross", "diag"])
def test_largest_dilation_oracles_are_finite_at_the_origin(oracle, peak):
    # 4 pi lam (2 pi lam) overflowed before x^2 scaled it, and inf * 0 made
    # a NaN or an invalid-value warning; RuntimeWarnings are test errors
    value = oracle(5.7e307, 0.0, 0.0)
    assert np.isfinite(value) and value == peak(5.7e307)


def test_fourier_center_value():
    assert abs(fourier_wigner_gaussian(3.0, 0.0, 0.0, "symplectic") - 0.5) < 1e-15


def test_j_relation_exact(rng):
    # symplectic(z) == plain(J z) pointwise
    for _ in range(50):
        lam = float(rng.uniform(0.2, 5.0))
        z1, z2 = rng.uniform(-3, 3, size=2)
        s = fourier_wigner_gaussian(lam, z1, z2, "symplectic")
        p = fourier_wigner_gaussian(lam, z2, -z1, "plain")
        assert abs(s - p) < 1e-14


def test_dilation_swap_identity(rng):
    # |F(lam; z1, z2)| = lam^{-1/2} |F(1/lam; z2, z1)| for both variants
    for _ in range(30):
        lam = float(rng.uniform(0.2, 5.0))
        z1, z2 = rng.uniform(-2, 2, size=2)
        for variant in ("plain", "symplectic"):
            a = abs(fourier_wigner_gaussian(lam, z1, z2, variant))
            b = abs(fourier_wigner_gaussian(1.0 / lam, z2, z1, variant))
            assert abs(a - b / np.sqrt(lam)) < 1e-14


def test_grid_cross_check_lam2():
    lam = 2.0
    n, dx = 1024, 1 / 16
    f = gaussian_signal(1.0, n, dx)
    g = gaussian_signal(lam, n, dx)
    amb = symplectic_fourier(wigner(f, g))
    ref = fourier_wigner_gaussian(
        lam, amb.grid.x_axis[:, None], amb.grid.w_axis[None, :], "symplectic"
    )
    half = np.arange(n // 4, 3 * n // 4)
    err = sup_rel_error(amb.values, ref, np.ix_(half, half))
    assert err < 1e-6


def test_total_mass_matches_inner_product():
    # grid sum of W(phi, phi_lam) == <phi, phi_lam> == (lam+1)^{-1/2}
    for lam in (0.5, 1.0, 3.0):
        f = gaussian_signal(1.0, 512, 1 / 16)
        g = gaussian_signal(lam, 512, 1 / 16)
        w = wigner(f, g)
        mass = complex(np.sum(w.values) * w.grid.cell_measure)
        assert abs(mass - f.inner(g)) < 1e-8
        assert abs(mass - (lam + 1.0) ** -0.5) < 1e-8
