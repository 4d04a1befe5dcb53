import numpy as np
import pytest

from tfq import (
    GridError,
    PhaseSpaceGrid,
    SampledSignal,
    Symbol,
    apply,
    born_jordan_rule,
    cohen,
    dft,
    operator_matrix,
    symbol_grid_for,
    symbol_transform,
    tau_rule,
    weak_apply,
    weyl_rule,
)

from conftest import band_limited_signal
from oracles import compose_j, is_j_closed


def random_symbol(rng, grid, centers_box=1.0, width=0.8, terms=4):
    """Smooth random symbol: a few Gaussian blobs with complex weights."""
    x = grid.x_axis[:, None]
    w = grid.w_axis[None, :]
    vals = np.zeros((grid.nx, grid.nw), dtype=complex)
    for _ in range(terms):
        cx, cw = rng.uniform(-centers_box, centers_box, size=2)
        amp = rng.normal() + 1j * rng.normal()
        vals += amp * np.exp(-np.pi * ((x - cx) ** 2 + (w - cw) ** 2) / width**2)
    from tfq.grid import PHASE_SPACE, TFMatrix

    return Symbol(TFMatrix(vals, grid, PHASE_SPACE))


def test_weak_apply_identity_symbol(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128)
    grid = symbol_grid_for(f)
    one = Symbol.sample(lambda x, w: 1.0, grid)
    for rule in (weyl_rule(), born_jordan_rule(), tau_rule(0.3)):
        got = weak_apply(one, rule, f, g)
        want = f.inner(g)
        assert abs(got - want) < 1e-6 * abs(want)


def test_weak_apply_linearity(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128)
    grid = symbol_grid_for(f)
    a = random_symbol(rng, grid)
    b = random_symbol(rng, grid)
    rule = weyl_rule()
    alpha = 1.3 - 0.7j
    lhs = weak_apply(
        Symbol(a.matrix.with_values(alpha * a.matrix.values + b.matrix.values)),
        rule, f, g,
    )
    rhs = alpha * weak_apply(a, rule, f, g) + weak_apply(b, rule, f, g)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
    # linear in f, antilinear in g
    beta = 0.4 + 2.2j
    lf = weak_apply(a, rule, f.with_samples(beta * f.samples), g)
    assert abs(lf - beta * weak_apply(a, rule, f, g)) < 1e-12 * max(1.0, abs(lf))
    lg = weak_apply(a, rule, f, g.with_samples(beta * g.samples))
    assert abs(lg - np.conj(beta) * weak_apply(a, rule, f, g)) < 1e-12 * max(1.0, abs(lg))


def test_apply_matches_literal_basis_pairing(rng):
    # the dense kernel realisation is an exact rearrangement of the weak
    # pairing against the grid basis
    n = 32
    f = band_limited_signal(rng, n=n, dx=1 / 8)
    grid = symbol_grid_for(f)
    a = random_symbol(rng, grid, centers_box=0.5, width=0.6)
    for rule in (weyl_rule(), born_jordan_rule(), tau_rule(0.7)):
        out = apply(a, rule, f)
        # basis vectors must sit in the central half to satisfy the
        # correlation support precondition
        for j in [n // 2 - 7, n // 2, n // 2 + 5]:
            basis = f.with_samples(np.eye(n)[j])
            want = weak_apply(a, rule, f, basis) / f.dx
            assert abs(out.samples[j] - want) < 1e-11 * max(1.0, abs(want))


def test_apply_identity_symbol(rng):
    f = band_limited_signal(rng, n=128)
    one = Symbol.sample(lambda x, w: 1.0, symbol_grid_for(f))
    for rule in (weyl_rule(), born_jordan_rule()):
        out = apply(one, rule, f)
        err = np.abs(out.samples - f.samples).max()
        assert err < 1e-6 * np.abs(f.samples).max()


def test_apply_consistent_with_weak(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128)
    a = random_symbol(rng, symbol_grid_for(f))
    for rule in (weyl_rule(), born_jordan_rule(), tau_rule(0.25)):
        lhs = apply(a, rule, f).inner(g)
        rhs = weak_apply(a, rule, f, g)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_adjoint_law(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128)
    a = random_symbol(rng, symbol_grid_for(f))
    rule = born_jordan_rule()
    lhs = apply(a, rule, f).inner(g)
    rhs = f.inner(apply(a.conj(), rule, g))
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


def test_self_adjoint_for_real_symbol(rng):
    f = band_limited_signal(rng, n=128)
    grid = symbol_grid_for(f)
    a = random_symbol(rng, grid)
    a_real = Symbol(a.matrix.with_values(a.matrix.values.real))
    mat = operator_matrix(a_real, born_jordan_rule())
    assert np.abs(mat - mat.conj().T).max() < 1e-8 * np.abs(mat).max()


def test_bj_equals_weyl_of_filtered_symbol(rng):
    f = band_limited_signal(rng, n=128)
    grid = symbol_grid_for(f)
    for _ in range(5):
        a = random_symbol(rng, grid)
        m_bj = operator_matrix(a, born_jordan_rule())
        m_w = operator_matrix(symbol_transform(a), weyl_rule())
        assert np.abs(m_bj - m_w).max() < 1e-6 * np.abs(m_bj).max()


def test_symbol_transform_constant_fixed_point(rng):
    grid = symbol_grid_for(band_limited_signal(rng, n=64))
    one = Symbol.sample(lambda x, w: 1.0, grid)
    out = symbol_transform(one)
    assert np.abs(out.matrix.values - 1.0).max() < 1e-12


def test_symbol_transform_j_covariance(rng):
    # on a J-closed grid: A(a o J) == (A a) o J
    n, dx = 128, 1 / 16  # wigner layout with dw == dx
    f = band_limited_signal(rng, n=n, dx=dx)
    grid = symbol_grid_for(f)
    assert is_j_closed(grid)
    a = random_symbol(rng, grid)
    lhs = symbol_transform(Symbol(compose_j(a.matrix)))
    rhs = compose_j(symbol_transform(a).matrix)
    assert np.abs(lhs.matrix.values - rhs.values).max() \
        < 1e-10 * np.abs(rhs.values).max()


def test_symbol_transform_contracts_l2(rng):
    grid = symbol_grid_for(band_limited_signal(rng, n=64))
    for _ in range(10):
        a = random_symbol(rng, grid)
        assert symbol_transform(a).matrix.l2_norm() <= a.matrix.l2_norm() * (1 + 1e-12)


def test_symbol_transform_dual_route(rng):
    # spectral filtering vs direct convolution with the cell-averaged kernel
    from tfq import born_jordan_direct
    from conftest import gaussian_signal

    f = gaussian_signal(1.0, 512, 1 / 16)
    w = cohen(f, f, __import__("tfq").delta_kernel())
    a = Symbol(w)
    filtered = symbol_transform(a)
    direct = born_jordan_direct(f, f)
    rel = np.linalg.norm(filtered.matrix.values - direct.values) / np.linalg.norm(
        direct.values
    )
    assert rel < 2e-3


def test_intertwining_with_fourier(rng):
    # conjugating the Weyl operator by the transform rotates the symbol by J
    n, dx = 128, 1 / 16
    f = band_limited_signal(rng, n=n, dx=dx, band_fraction=0.2, width=1.2)
    grid = symbol_grid_for(f)

    def symbol_fn(x, w):
        return np.exp(-np.pi * ((x - 0.4) ** 2 + (w + 0.3) ** 2) / 0.8**2) + \
            0.5 * np.exp(-np.pi * (x**2 + w**2))

    a = Symbol.sample(symbol_fn, grid)
    a_j = Symbol.sample(lambda x, w: symbol_fn(w, -x), grid)
    lhs = apply(a_j, weyl_rule(), f)
    fhat = dft(f)
    grid_hat = symbol_grid_for(fhat)
    a_hat = Symbol.sample(symbol_fn, grid_hat)
    rhs = dft(apply(a_hat, weyl_rule(), fhat), "inverse")
    scale = np.abs(lhs.samples).max()
    assert np.abs(lhs.samples - rhs.samples).max() < 1e-5 * scale


def test_grid_mismatch_rejected(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128, dx=1 / 8)
    a = Symbol.sample(lambda x, w: 1.0, symbol_grid_for(f))
    with pytest.raises(GridError):
        weak_apply(a, weyl_rule(), g, g)
    with pytest.raises(GridError):
        apply(a, weyl_rule(), g)


def test_symbol_rejects_non_square_or_uncentred_grid():
    for grid in (PhaseSpaceGrid.centered(8, 0.25, 16, 0.25),
                 PhaseSpaceGrid(nx=8, x0=0.0, dx=0.25, nw=8, w0=-1.0, dw=0.25)):
        with pytest.raises(GridError, match="square and centered"):
            Symbol.sample(lambda x, w: 1.0, grid)


@pytest.mark.parametrize("n", [9, 31, 33, 63])
def test_symbol_rejects_odd_grid_count(n):
    # the symbol map filters at the FFT frequencies, which an odd count's
    # centred dual axis misses by half a cell: O(1) wrong, so refused
    with pytest.raises(GridError, match="even count"):
        Symbol.sample(lambda x, w: 1.0, PhaseSpaceGrid.centered(n, 0.25, n, 1.0 / (2 * n * 0.25)))


def test_symbol_grid_must_match_whole(rng):
    f = band_limited_signal(rng, n=128)
    # the STFT's grid: same n and dx, but dw = 1/(n dx)
    a = Symbol.sample(lambda x, w: 1.0, PhaseSpaceGrid.dft_compatible(f.n, f.dx))
    for rule in (weyl_rule(), born_jordan_rule(), tau_rule(0.3)):
        with pytest.raises(GridError):
            operator_matrix(a, rule)
        with pytest.raises(GridError):
            apply(a, rule, f)
    # the right spacing, but the signal's origin is off the symbol's
    b = random_symbol(rng, symbol_grid_for(f))
    shifted = SampledSignal(f.samples, x0=f.x0 + f.dx, dx=f.dx)
    with pytest.raises(GridError):
        apply(b, weyl_rule(), shifted)
    # no rule writes into the symbol's own values
    before = b.matrix.values.copy()
    for rule in (weyl_rule(), born_jordan_rule(), tau_rule(0.3)):
        operator_matrix(b, rule)
    assert np.array_equal(b.matrix.values, before)


def test_weyl_equals_tau_half(rng):
    f = band_limited_signal(rng, n=128)
    g = band_limited_signal(rng, n=128)
    a = random_symbol(rng, symbol_grid_for(f))
    assert weak_apply(a, weyl_rule(), f, g) == weak_apply(a, tau_rule(0.5), f, g)
    # the tau = 1/2 multiplier is exactly one, so both rules skip the filter
    m_w = operator_matrix(a, weyl_rule())
    m_t = operator_matrix(a, tau_rule(0.5))
    assert m_w.tobytes() == m_t.tobytes()
    f_w, f_t = (apply(a, rule, f).samples for rule in (weyl_rule(), tau_rule(0.5)))
    assert f_w.tobytes() == f_t.tobytes()
