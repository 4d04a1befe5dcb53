import mpmath
import numpy as np
import pytest

from tfq import DomainError, cosine_integral, sinc, sine_integral
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
