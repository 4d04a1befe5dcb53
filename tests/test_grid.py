from dataclasses import replace

import numpy as np
import pytest

from tfq import (
    AMBIGUITY,
    AliasingError,
    DomainError,
    GenerationError,
    GridError,
    PHASE_SPACE,
    PhaseSpaceGrid,
    SampledSignal,
    SignalRecipe,
    SizeError,
    TFMatrix,
    assert_central_support,
    centered_signal_axis,
    dft,
    signal_from_function,
    symplectic_fourier,
    synth,
)

from conftest import band_limited_signal, gaussian_signal, sup_rel_error
from oracles import circular_convolve, compose_j


def random_matrix(rng, n=64, dx=1 / 8, dw=None):
    dw = dw if dw is not None else 1.0 / (n * dx)
    grid = PhaseSpaceGrid.centered(n, dx, n, dw)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return TFMatrix(vals, grid, PHASE_SPACE)


def smooth_matrix(rng, n=64, dx=1 / 8):
    # band-limited 2D noise so grid convolutions behave like integrals
    grid = PhaseSpaceGrid.dft_compatible(n, dx)
    spec = np.zeros((n, n), dtype=complex)
    keep = n // 8
    block = rng.normal(size=(keep, keep)) + 1j * rng.normal(size=(keep, keep))
    spec[:keep, :keep] = block
    vals = np.fft.ifft2(spec)
    return TFMatrix(vals, grid, PHASE_SPACE)


# --- signal model -------------------------------------------------------------

def test_signal_validation():
    with pytest.raises(SizeError):
        SampledSignal(np.zeros(7), x0=0.0, dx=0.1)
    with pytest.raises(SizeError):
        SampledSignal(np.zeros(48), x0=0.0, dx=0.1)
    with pytest.raises(GridError):
        SampledSignal(np.zeros(8), x0=0.0, dx=-1.0)


def test_energy_is_reproducible(rng):
    f = band_limited_signal(rng)
    values = {f.energy() for _ in range(5)}
    assert len(values) == 1


def test_support_check(rng):
    good = gaussian_signal(1.0, n=256, dx=1 / 16)
    assert_central_support(good)
    x = good.axis
    bad = good.with_samples(np.exp(-np.pi * (x - 7.0) ** 2))
    with pytest.raises(AliasingError):
        assert_central_support(bad)


@pytest.mark.parametrize("index, ok", [(48, False), (47, True), (15, False), (16, True)])
def test_support_check_edges(index, ok):
    # support must lie in [n/4, 3n/4): at n = 64 a sample at index 48 or 15
    # is rejected, one at 47 or 16 accepted
    samples = np.zeros(64)
    samples[32] = 1.0
    samples[index] = 0.5
    sig = SampledSignal(samples, x0=-2.0, dx=1 / 16)
    if ok:
        assert_central_support(sig)
    else:
        with pytest.raises(AliasingError):
            assert_central_support(sig)


@pytest.mark.parametrize("level, ok", [(1.01e-13, False), (0.99e-13, True)])
def test_support_check_floor(level, ok):
    # a sample above 1e-13 of the peak is support, one below it is not
    samples = np.zeros(64, dtype=complex)
    samples[32] = 2.0j
    samples[0] = 2.0 * level
    sig = SampledSignal(samples, x0=-2.0, dx=1 / 16)
    if ok:
        assert_central_support(sig)
    else:
        with pytest.raises(AliasingError):
            assert_central_support(sig)


# --- one-dimensional transform --------------------------------------------------

def test_dft_gaussian_self_transform():
    f = signal_from_function(lambda x: np.exp(-np.pi * x**2), 256, 1 / 16)
    F = dft(f)
    assert np.abs(F.samples - np.exp(-np.pi * F.axis**2)).max() < 1e-10


def test_dft_zero_and_roundtrip(rng):
    z = signal_from_function(lambda x: 0.0 * x, 64, 0.1)
    assert np.all(dft(z).samples == 0)
    f = band_limited_signal(rng, n=256)
    back = dft(dft(f), "inverse")
    assert np.abs(back.samples - f.samples).max() < 1e-12
    assert back.same_grid(f)


def test_dft_rejects_bad_direction(rng):
    f = band_limited_signal(rng, n=64)
    with pytest.raises(GridError):
        dft(f, "sideways")


@pytest.mark.parametrize("direction, sign, dx, centred", [
    pytest.param("forward", -1.0, 1 / 16, False, id="forward--1.0"),
    pytest.param("inverse", 1.0, 1 / 16, False, id="inverse-1.0"),
    *(pytest.param(d, s, dx, True, id=f"{d}-centred-{dx:g}")
      for d, s in (("forward", -1.0), ("inverse", 1.0)) for dx in (1 / 16, 0.07)),
])
def test_dft_matches_exactly_reduced_direct_sum(rng, direction, sign, dx, centred):
    # at x0 = 0, x_j w_k = j dx (o0 + k do) = -j/2 + jk/n: the kernel is
    # (-1)^j e^{-+2 pi i (jk mod n)/n}, with the phase reduced exactly; a
    # centred x0 = -n dx/2 adds -k/2 + n/4, a factor (-1)^k as 4 | n
    n = 2048
    x0 = -n * dx / 2.0 if centred else 0.0
    f = SampledSignal(rng.normal(size=n) + 1j * rng.normal(size=n), x0=x0, dx=dx)
    j = np.arange(n)
    roots = np.exp(sign * 2j * np.pi * j / n)
    signed = f.samples * (-1.0) ** j
    ref = dx * np.array([signed @ roots[(j * k) % n] for k in range(n)])
    ref = ref * (-1.0) ** j if centred else ref
    assert sup_rel_error(dft(f, direction).samples, ref) < 1e-14


def test_parseval(rng):
    for _ in range(20):
        f = band_limited_signal(rng, n=256)
        F = dft(f)
        assert abs(F.energy() - f.energy()) < 1e-10 * f.energy()


# --- symplectic transform -------------------------------------------------------

def test_sft_involution(rng):
    for dw_scale in (1.0, 0.5):  # self-dual and half-band layouts
        m = random_matrix(rng, n=64, dx=1 / 8, dw=dw_scale / (64 / 8))
        once = symplectic_fourier(m)
        assert once.domain_tag == AMBIGUITY
        twice = symplectic_fourier(once)
        assert twice.domain_tag == PHASE_SPACE
        assert np.abs(twice.values - m.values).max() < 1e-10
        assert twice.grid.close_to(m.grid)


@pytest.mark.parametrize("n", [512, 2048, 2049])
def test_sft_involution_exact_to_rounding(rng, n):
    # every phase is a sign, odd n included, so only the FFTs round
    m = random_matrix(rng, n=n, dx=1 / 16)
    twice = symplectic_fourier(symplectic_fourier(m))
    assert twice.grid.close_to(m.grid)
    assert sup_rel_error(twice.values, m.values) < 1e-14


def test_sft_impulse_is_constant():
    n = 32
    grid = PhaseSpaceGrid.dft_compatible(n, 0.25)
    vals = np.zeros((n, n), dtype=complex)
    vals[n // 2, n // 2] = 1.0  # the origin cell
    out = symplectic_fourier(TFMatrix(vals, grid, PHASE_SPACE))
    assert np.abs(out.values - out.values[0, 0]).max() < 1e-12


def test_sft_preserves_l2(rng):
    m = random_matrix(rng)
    assert abs(symplectic_fourier(m).l2_norm() - m.l2_norm()) < 1e-10 * m.l2_norm()


def test_sft_rejects_non_square(rng):
    grid = PhaseSpaceGrid.centered(16, 0.5, 32, 0.25)
    m = TFMatrix(np.zeros((16, 32)), grid, PHASE_SPACE)
    with pytest.raises(GridError):
        symplectic_fourier(m)


def test_convolution_identity(rng):
    # Fs[F * G] = Fs F . Fs G on matching grids
    for _ in range(5):
        a = smooth_matrix(rng)
        b = smooth_matrix(rng)
        lhs = symplectic_fourier(circular_convolve(a, b))
        rhs_a = symplectic_fourier(a)
        rhs = rhs_a.with_values(rhs_a.values * symplectic_fourier(b).values)
        scale = np.abs(rhs.values).max()
        assert np.abs(lhs.values - rhs.values).max() < 1e-8 * scale


def test_compose_j_involution_on_quarter_turn(rng):
    n = 32
    grid = PhaseSpaceGrid.centered(n, 0.5, n, 0.5)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = TFMatrix(vals, grid, PHASE_SPACE)
    j4 = compose_j(compose_j(compose_j(compose_j(m))))
    assert np.abs(j4.values - m.values).max() == 0.0
    # check a sample point: (J F)(x, w) = F(w, -x)
    x_axis = grid.x_axis
    i, j = 5, 11
    w_idx = int(np.where(np.isclose(x_axis, -x_axis[i]))[0][0])
    assert compose_j(m).values[i, j] == m.values[j, w_idx]


# --- file formats ---------------------------------------------------------------

def test_signal_file_roundtrip(tmp_path, rng):
    from tfq import io as tfq_io

    f = band_limited_signal(rng, n=128)
    path = tmp_path / "sig.csv"
    tfq_io.write_signal(f, path)
    back = tfq_io.read_signal(path)
    assert back.same_grid(f)
    assert np.array_equal(back.samples, f.samples)


def test_matrix_file_roundtrip(tmp_path, rng):
    from tfq import io as tfq_io

    m = random_matrix(rng, n=32)
    path = tmp_path / "mat.mat"
    tfq_io.write_matrix(m, path)
    back = tfq_io.read_matrix(path)
    assert np.array_equal(back.values, m.values)
    assert back.grid.close_to(m.grid)
    assert back.domain_tag == m.domain_tag


def test_matrix_file_rejects_garbage(tmp_path):
    from tfq import io as tfq_io

    path = tmp_path / "bad.mat"
    path.write_bytes(b"\x10\x00\x00\x00not json at all!")
    with pytest.raises(ValueError):
        tfq_io.read_matrix(path)


@pytest.mark.parametrize("x0, dx", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.1), (-np.inf, 0.1)])
def test_signal_rejects_non_finite_grid(x0, dx):
    with pytest.raises(GridError):
        SampledSignal(np.zeros(16), x0=x0, dx=dx)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_signal_rejects_non_finite_samples(bad):
    samples = np.zeros(16, dtype=complex)
    samples[5] = complex(0.0, bad)
    with pytest.raises(DomainError):
        SampledSignal(samples, x0=-1.0, dx=0.125)


@pytest.mark.parametrize("field", ["x0", "dx", "w0", "dw"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_phase_space_grid_rejects_non_finite(field, bad):
    spec = dict(nx=8, x0=-1.0, dx=0.25, nw=8, w0=-2.0, dw=0.5)
    spec[field] = bad
    with pytest.raises(GridError):
        PhaseSpaceGrid(**spec)


# --- error contract: each guard named by its message ----------------------------

@pytest.mark.parametrize("nx, nw", [(0, 4), (4, 0), (-1, 4)])
def test_phase_space_grid_rejects_non_positive_counts(nx, nw):
    with pytest.raises(GridError, match="counts must be positive"):
        PhaseSpaceGrid(nx=nx, x0=0.0, dx=0.1, nw=nw, w0=0.0, dw=0.1)


def test_signal_recipe_rejects_unknown_kind():
    with pytest.raises(GenerationError, match="unknown recipe kind"):
        SignalRecipe(kind="mystery", n=64, dx=1 / 16)


def test_synth_rejects_all_zero_signal():
    # the atom underflows to exact zeros on the window, where the support
    # check has no support to test
    with pytest.raises(GenerationError, match="all-zero signal"):
        synth(SignalRecipe(kind="gabor_atom", n=64, dx=1 / 16, params={"t0": 1e6}))


def test_signal_rejects_two_dimensional_samples():
    # 8 rows of 8 would pass the power-of-two length check
    with pytest.raises(SizeError, match="one-dimensional"):
        SampledSignal(np.zeros((8, 8)), x0=-0.5, dx=0.125)


def test_matrix_rejects_wrong_shape_and_domain_tag():
    grid = PhaseSpaceGrid.centered(8, 0.25, 8, 0.5)
    with pytest.raises(GridError, match="does not match grid"):
        TFMatrix(np.zeros((8, 4)), grid, PHASE_SPACE)
    with pytest.raises(GridError, match="unknown domain tag"):
        TFMatrix(np.zeros((8, 8)), grid, "frequency")


def test_dft_rejects_non_power_of_two_length():
    # a SampledSignal cannot hold 12 samples, so a stand-in reaches the check
    class Twelve:
        samples = np.ones(12, dtype=complex)
        n, x0, dx = 12, -0.75, 0.125

    with pytest.raises(SizeError, match="dft requires a power-of-two length"):
        dft(Twelve())


def test_inner_products_reject_mismatched_grids():
    f = SampledSignal(np.ones(8), x0=-0.5, dx=0.125)
    with pytest.raises(GridError, match="common grid"):
        f.inner(SampledSignal(np.ones(8), x0=-0.5, dx=0.25))
    a = TFMatrix(np.ones((8, 8)), PhaseSpaceGrid.centered(8, 0.25, 8, 0.5))
    with pytest.raises(GridError, match="matching grids"):
        a.inner(TFMatrix(np.ones((8, 8)), PhaseSpaceGrid.centered(8, 0.25, 8, 0.25)))


def test_sft_rejects_uncentred_grid():
    grid = PhaseSpaceGrid(nx=8, x0=0.0, dx=0.25, nw=8, w0=-2.0, dw=0.5)
    with pytest.raises(GridError, match="centered axes"):
        symplectic_fourier(TFMatrix(np.ones((8, 8)), grid))


def test_signal_from_function_rejects_empty_axis():
    # the origin is -n dx/2, not the first point of an empty axis
    with pytest.raises(SizeError):
        signal_from_function(lambda x: x, 0, 0.1)


@pytest.mark.parametrize("dx", [0.07, 8**-0.5 / 16])
def test_centred_axes_exactly_antisymmetric(dx):
    # one axis rule: on a centred origin the centre is exactly 0, so point j
    # is exactly minus point n - j at any spacing, not only a dyadic one
    n = 1024
    grid = PhaseSpaceGrid.centered(n, dx, n, 1.0 / (n * dx))
    axes = (centered_signal_axis(n, dx), signal_from_function(np.cos, n, dx).axis,
            SampledSignal(np.ones(n), x0=-n * dx / 2.0, dx=dx).axis,
            grid.x_axis, grid.w_axis)
    for a in axes:
        assert a[n // 2] == 0.0
        assert np.array_equal(a[1:], -a[:0:-1])


def test_signal_from_function_rejects_infinite_dx():
    # checked before the centred axis is built, where inf * 0 would warn
    with pytest.raises(GridError, match="dx must be positive and finite"):
        signal_from_function(lambda x: np.exp(-np.pi * x**2), 64, np.inf)


# every grid check reads one axis rule: equal counts, spacings within a
# relative 1e-9, origins within 1e-9 of the spacing; each case sits a
# factor of two inside or outside one of those edges
AXIS_EDGES = {  # (count factor, origin offset / dx, spacing ratio - 1), accepted
    "origin_inside": ((1, 0.5e-9, 0.0), True),
    "origin_outside": ((1, 2e-9, 0.0), False),
    "spacing_inside": ((1, 0.0, 0.5e-9), True),
    "spacing_outside": ((1, 0.0, 2e-9), False),
    "count": ((2, 0.0, 0.0), False),
}


@pytest.mark.parametrize("case", list(AXIS_EDGES))
def test_axis_rule_edges(case):
    (factor, offset, ratio), accepted = AXIS_EDGES[case]
    n, dx, x0 = 64, 0.07, -2.1  # an off-centre origin
    f = SampledSignal(np.ones(n), x0=x0, dx=dx)
    moved = SampledSignal(np.ones(factor * n), x0=x0 + offset * dx, dx=dx * (1 + ratio))
    assert f.same_grid(moved) == accepted
    grid = PhaseSpaceGrid(nx=n, x0=x0, dx=dx, nw=n, w0=0.3, dw=1.3)
    for nx, x0_, dx_, nw, w0, dw in (
            (factor * n, x0 + offset * dx, dx * (1 + ratio), n, 0.3, 1.3),
            (n, x0, dx, factor * n, 0.3 + offset * 1.3, 1.3 * (1 + ratio))):
        assert grid.close_to(PhaseSpaceGrid(nx, x0_, dx_, nw, w0, dw)) == accepted
    # a centered grid stays centered at any spacing: is_centered meets the
    # origin and the count edges
    c = PhaseSpaceGrid.centered(n, dx, n, 1.3)
    if ratio == 0.0:
        for moved_grid in (replace(c, nx=factor * n, x0=c.x0 + offset * dx),
                           replace(c, nw=factor * n, w0=c.w0 + offset * 1.3)):
            assert moved_grid.is_centered() == accepted
