import mpmath
import numpy as np
import pytest

from tfq import (
    DomainError,
    ambiguity_multiplier,
    born_jordan_kernel,
    cosine_integral,
    sine_integral,
)
from tfq.kernels import _corner_antiderivative
from tfq.special import EULER_GAMMA

from oracles import ci_brute, ci_evaluate

# brute-oracle values, frozen (ci_brute reproduces them to < 2e-12)
CI_ORACLE = {
    0.01: -4.027979520981361,
    0.1: -1.727868386656266,
    1.0: 0.33740392290199855,
    10.0: -0.04545643300345552,
    100.0: -0.005148825141610875,
    1000.0: 0.0008263155120914122,
}


def sinc(t):
    """sin(pi t) / (pi t), as the Born-Jordan multiplier at z1 = 1."""
    return ambiguity_multiplier(born_jordan_kernel(), 1.0, t)


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(0.5) - 2.0 / np.pi) < 1e-15
    for k in [1, 2, 3, -5, 17]:
        assert abs(sinc(float(k))) < 1e-15
    t = np.linspace(-3, 3, 101)
    assert np.allclose(sinc(t), sinc(-t))


def test_ci_small_argument_is_gamma_plus_log():
    t = 1e-6
    assert abs(cosine_integral(t) - np.log(t) - EULER_GAMMA) < 1e-8


def test_ci_domain_error():
    with pytest.raises(DomainError):
        cosine_integral(0.0)
    with pytest.raises(DomainError):
        cosine_integral(-1.0)
    with pytest.raises(DomainError):
        cosine_integral(np.array([1.0, -2.0]))


def test_si_domain_error():
    with pytest.raises(DomainError, match="t >= 0"):
        sine_integral(-1.0)
    with pytest.raises(DomainError):
        sine_integral(np.array([1.0, -2.0]))
    assert sine_integral(0.0) == 0.0


def test_ci_against_frozen_oracle_values():
    for t, ref in CI_ORACLE.items():
        assert abs(cosine_integral(t) - ref) < 1e-9
        # and the oracle itself still reproduces the frozen numbers
        assert abs(ci_brute(t) - ref) < 2e-12


def test_ci_method_tags_and_restrictions():
    assert ci_evaluate(2.0).method_tag == "series"
    assert ci_evaluate(10.0).method_tag == "quadrature"
    assert ci_evaluate(50.0).method_tag == "asymptotic"
    with pytest.raises(DomainError):
        ci_evaluate(5.0, method="series")
    with pytest.raises(DomainError):
        ci_evaluate(10.0, method="asymptotic")


def test_ci_branches_agree_on_overlaps():
    # series vs quadrature on [0.1, 4]
    for t in np.geomspace(0.1, 4.0, 25):
        s = ci_evaluate(float(t), method="series").value
        q = ci_evaluate(float(t), method="quadrature").value
        assert abs(s - q) < 1e-10
    # asymptotic vs quadrature on [32, 200]: the eight-term expansion only
    # clears 1e-9 from ~24 on, which is why ci_evaluate's own switch sits at 32
    for t in np.geomspace(32.0, 200.0, 15):
        a = ci_evaluate(float(t), method="asymptotic").value
        q = ci_evaluate(float(t), method="quadrature").value
        assert abs(a - q) < 1e-9


def test_ci_envelope_decay():
    for t in np.geomspace(10.0, 1.0e4, 40):
        assert abs(cosine_integral(float(t))) <= 2.0 / t


def test_ci_vectorized_matches_scalar():
    t = np.geomspace(1e-3, 300.0, 60)
    vec = cosine_integral(t)
    for i, ti in enumerate(t):
        assert abs(vec[i] - cosine_integral(float(ti))) < 1e-13


def test_si_against_quadrature():
    from oracles import gauss_legendre_cells

    for t in [0.5, 2.0, 10.0, 40.0, 200.0]:
        nodes, wts = gauss_legendre_cells(0.0, t, min(0.125, t / 16), 12)
        ref = float(np.sum(np.sin(nodes) / nodes * wts))
        assert abs(sine_integral(t) - ref) < 1e-9
    assert sine_integral(0.0) == 0.0


@pytest.mark.parametrize("fn", [cosine_integral, sine_integral], ids=["ci", "si"])
def test_mid_branch_value_does_not_depend_on_the_call(fn):
    # the Gauss-Laguerre node sums behind every t > 4 must not follow the
    # BLAS thread split or the block split, both of which change with the
    # array size: each point alone equals itself in bulk
    rng = np.random.default_rng(7)
    bulk = np.exp(rng.uniform(np.log(4.0), np.log(1.0e4), size=200_000))
    picked = rng.choice(len(bulk), size=400, replace=False)
    in_bulk = fn(bulk)[picked]
    alone = np.array([fn(float(bulk[i])) for i in picked])
    assert np.array_equal(alone, in_bulk)


@pytest.mark.parametrize("fn, hi", [(cosine_integral, 4.0), (sine_integral, 4.0),
                                    (_corner_antiderivative, 1.0e4)], ids=["ci", "si", "corner"])
def test_series_and_corner_values_do_not_depend_on_the_call(fn, hi):
    # the Horner series and the corner H(c) are elementwise: a point alone
    # equals itself in bulk, on (1e-8, 4] and, for the corner, on both branches
    rng = np.random.default_rng(8)
    bulk = np.exp(rng.uniform(np.log(1e-8), np.log(hi), size=100_000))
    bulk[:2] = [4.0, 1e-8]
    picked = np.concatenate([[0, 1], rng.choice(np.arange(2, len(bulk)), size=400, replace=False)])
    alone = np.array([fn(bulk[i:i + 1])[0] for i in picked])
    assert np.array_equal(alone, fn(bulk)[picked])


def test_series_cut_is_where_the_first_omitted_term_at_4_drops_below_2_to_the_minus_60():
    # Ci - gamma - log t = sum_{k >= 1} (-t^2)^k / (2k (2k)!) and
    # Si = sum_{k >= 0} (-1)^k t^(2k+1) / ((2k+1) (2k+1)!), in exact arithmetic
    from fractions import Fraction
    from math import factorial

    from tfq.special import _CI_SERIES, _SI_SERIES

    def ci_term(k):
        return Fraction(16**k, 2 * k * factorial(2 * k))

    def si_term(k):
        return Fraction(4 ** (2 * k + 1), (2 * k + 1) * factorial(2 * k + 1))

    tiny = Fraction(1, 2**60)
    kept_ci, kept_si = len(_CI_SERIES), len(_SI_SERIES)  # k = 1..kept_ci and k = 0..kept_si - 1
    assert ci_term(kept_ci + 1) < tiny <= ci_term(kept_ci)
    assert si_term(kept_si) < tiny <= si_term(kept_si - 1)
    assert (kept_ci, kept_si) == (16, 16)
    assert list(_CI_SERIES) == [float(Fraction((-1) ** k, 2 * k * factorial(2 * k)))
                                for k in range(1, kept_ci + 1)]
    assert list(_SI_SERIES) == [float(Fraction((-1) ** k, (2 * k + 1) * factorial(2 * k + 1)))
                                for k in range(kept_si)]


def _full_laguerre_fg(t):
    """f and g from all 32 Gauss-Laguerre nodes, node by node in double."""
    x, w = np.polynomial.laguerre.laggauss(32)
    s = 1.0 / t
    f, g = np.zeros_like(t), np.zeros_like(t)
    for xk, wk in zip(x, w):
        r = wk / (1.0 + (xk * s) ** 2)
        f += r
        g += r * xk
    return f * s, g * s * s


def test_dropped_laguerre_nodes_carry_less_than_2_to_the_minus_60():
    from tfq.special import _fg, _gauss_laguerre

    x, w = _gauss_laguerre()
    xf, wf = np.polynomial.laguerre.laggauss(32)
    m = len(x)
    assert np.array_equal(x, xf[:m]) and np.array_equal(w, wf[:m])
    assert (wf[m:] * xf[m:]).sum() < 2.0**-60 <= (wf[m - 1:] * xf[m - 1:]).sum()
    assert m == 23
    # the trimmed rule against the full one, over 4..1e300 (g underflows to
    # 0 past ~1e154, where both are 0)
    t = np.geomspace(4.0, 1e300, 5001)
    f, g = _fg(t)
    f_ref, g_ref = _full_laguerre_fg(t)
    assert np.all(np.abs(f - f_ref) <= 4e-16 * f_ref)
    assert np.all(np.abs(g - g_ref) <= 4e-16 * g_ref)


def _branch_handoff_points():
    eps = np.array([1e-12, 1e-9, 1e-6])
    edges = [4.0 * (1 + s * eps) for s in (-1, 1)] + [32.0 * (1 + s * eps) for s in (-1, 1)]
    near_far = 64.0 + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6, 0.5, -0.5])
    # t * t overflows past 1.3e154; the library must never form it
    huge = [1e100, 1e200, 1.7e308]
    return np.concatenate([np.geomspace(1e-8, 1e4, 400), *edges, near_far, [4.0, 32.0], huge])


@pytest.mark.parametrize("fn, ref_fn", [(cosine_integral, mpmath.ci), (sine_integral, mpmath.si)],
                         ids=["ci", "si"])
def test_ci_si_against_mpmath_across_branch_handoffs(fn, ref_fn):
    # |err| / max(1, |ref|) over 1e-8..1e4, around the series/(f, g)
    # handoff at 4, at 32 and 64 (the former asymptotic handoff and panel
    # end, kept as plain points) and at 1e100..1.7e308; measured worst:
    # Ci 3.8e-14, Si 3.4e-14
    t = _branch_handoff_points()
    got = fn(t)
    with mpmath.workdps(30):
        ref = np.array([float(ref_fn(mpmath.mpf(float(v)))) for v in t])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-12, (t[err.argmax()], err.max())


def test_corner_antiderivative_against_mpmath_across_branch_handoffs():
    # the Born-Jordan cell-average corner H(c) = (c Ci(c) - sin c - Si(c))/(4 pi)
    # combines both functions on one pass of each branch; measured worst
    # 7.4e-15 as |err| / max(1, |ref|)
    t = _branch_handoff_points()
    got = _corner_antiderivative(t)
    with mpmath.workdps(30):
        ref = np.array([float((v * mpmath.ci(v) - mpmath.sin(v) - mpmath.si(v)) / (4 * mpmath.pi))
                        for v in map(mpmath.mpf, t.tolist())])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-13, (t[err.argmax()], err.max())
    assert _corner_antiderivative(np.zeros(3)).tolist() == [0.0] * 3
