"""Kernel tests: quadrature/series oracles for K0, K1, constants."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from permono import specfn

mp.mp.dps = 30


def k_quadrature(nu, x):
    """Independent oracle: K_nu(x) = int_0^inf e^{-x cosh s} cosh(nu s) ds."""
    s_max = max(5.0, math.acosh(800.0 / x)) if x < 800 else 5.0
    val, err = quad(
        lambda s: math.exp(-x * math.cosh(s)) * math.cosh(nu * s),
        0.0,
        s_max,
        epsabs=1e-16,
        epsrel=1e-13,
        limit=400,
    )
    return val


def assert_in_budget(nu, x):
    """|K_nu(x) - mpmath| <= _ENC_REL K_nu(x) + 2^-1074, the kernels' stated budget."""
    v = (specfn.bessel_k0, specfn.bessel_k1)[nu](x)
    exact = mp.besselk(nu, mp.mpf(x))
    assert abs(v - exact) <= mp.mpf(specfn._ENC_REL) * v + mp.mpf(2) ** -1074, (nu, x)
    return v, exact


def test_k0_at_one_vs_quadrature():
    assert specfn.bessel_k0(1.0) == pytest.approx(k_quadrature(0, 1.0), abs=1e-13)
    assert specfn.bessel_k0(1.0) == pytest.approx(0.42102443824070834, abs=1e-14)


def test_k1_at_one_vs_quadrature():
    assert specfn.bessel_k1(1.0) == pytest.approx(k_quadrature(1, 1.0), abs=1e-12)
    assert specfn.bessel_k1(1.0) == pytest.approx(0.6019072301972346, abs=1e-13)


def test_k0_small_x_log_law():
    # Ascending-series oracle: K0 + (log(x/2)+gamma) I0 = sum_k H_k (x^2/4)^k/(k!)^2,
    # which is x^2/4 + O(x^4); at x = 1e-4 that is 2.5e-9 <= 3e-9.
    x = 1e-4
    i0 = float(mp.besseli(0, mp.mpf(x)))
    s = specfn.bessel_k0(x) + (math.log(x / 2.0) + specfn.EULER_GAMMA) * i0
    assert abs(s) <= 3e-9
    # and the raw combination still vanishes in the limit
    for xx in (1e-2, 1e-3, 1e-4):
        raw = specfn.bessel_k0(xx) + math.log(xx / 2.0) + specfn.EULER_GAMMA
        assert abs(raw) <= xx ** 2 * abs(math.log(xx))


def test_k0_large_x_asymptotics():
    r = specfn.bessel_k0(50.0) / (math.sqrt(math.pi / 100.0) * math.exp(-50.0))
    assert 0.99 <= r <= 1.0


def test_k1_small_x_pole():
    x = 1e-3
    assert 1.0 - 1e-5 <= x * specfn.bessel_k1(x) <= 1.0


@pytest.mark.parametrize("nu", [0, 1])
def test_relative_accuracy_against_mpmath(nu):
    f = specfn.bessel_k0 if nu == 0 else specfn.bessel_k1
    xs = np.concatenate([
        np.geomspace(1e-6, 1.999, 60),
        np.linspace(2.0, 8.0, 40),
        np.geomspace(8.0, 700.0, 40),
    ])
    for x in xs:
        exact = float(mp.besselk(nu, mp.mpf(float(x))))
        assert abs(f(float(x)) / exact - 1.0) <= 1e-14, f"x={x}"


def test_derivative_identity_k0prime_is_minus_k1():
    # K0' = -K1 via central differences
    for x in (0.5, 1.0, 2.0, 5.0):
        h = 1e-5
        d = (specfn.bessel_k0(x + h) - specfn.bessel_k0(x - h)) / (2 * h)
        assert abs(specfn.bessel_k1(x) - (-d)) <= 1e-8


def test_wronskian_with_test_only_i_kernels():
    # I0 K1 + I1 K0 = 1/x; I0, I1 taken from an independent library oracle
    for x in np.linspace(0.1, 10.0, 25):
        i0 = float(mp.besseli(0, mp.mpf(float(x))))
        i1 = float(mp.besseli(1, mp.mpf(float(x))))
        w = i0 * specfn.bessel_k1(x) + i1 * specfn.bessel_k0(x)
        assert abs(w - 1.0 / x) <= 1e-10


def test_monotone_decreasing_and_positive():
    xs = np.geomspace(1e-3, 100.0, 400)
    for f in (specfn.bessel_k0, specfn.bessel_k1):
        vals = f(xs)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)


def test_underflow_returns_zero():
    assert specfn.bessel_k0(800.0) == 0.0
    assert specfn.bessel_k1(800.0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        specfn.bessel_k0(0.0)
    with pytest.raises(ValueError):
        specfn.bessel_k1(-1.0)
    for bad in (math.inf, math.nan, -0.0):
        for f in (specfn.bessel_k0, specfn.bessel_k1):
            with pytest.raises(ValueError, match="finite x > 0"):
                f(np.array([1.0, bad]))


def test_k1_overflow_raises_and_k0_stays_finite():
    # K1(x) ~ 1/x exceeds DBL_MAX below x ~ 5.6e-309; K0 ~ -log(x/2) does not.
    for x in (1e-310, np.array([1.0, 1e-310]), 5e-324):
        with pytest.raises(ValueError, match="overflow"):
            specfn.bessel_k1(x)
    assert specfn.bessel_k0(1e-310) == pytest.approx(float(mp.besselk(0, mp.mpf(1e-310))), rel=1e-14)
    assert specfn.bessel_k1(6e-309) == pytest.approx(1.0 / 6e-309, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(log_x=st.floats(math.log(1e-300), math.log(700.0)), nu=st.sampled_from([0, 1]))
def test_relative_accuracy_and_enclosure_log_uniform(log_x, nu):
    v, exact = assert_in_budget(nu, math.exp(log_x))
    assert abs(mp.mpf(v) / exact - 1) <= 1e-14


def test_enclosure_through_gradual_underflow():
    # Beyond x ~ 705 the value is subnormal and its rounding is absolute;
    # beyond x ~ 745 it is exactly 0 and the truth lies below one subnormal unit.
    for x in np.linspace(700.0, 750.0, 101):
        for nu in (0, 1):
            v, _ = assert_in_budget(nu, float(x))
            assert v >= 0.0


def test_shapes():
    for f in (specfn.bessel_k0, specfn.bessel_k1):
        for x in (2.5, np.float64(2.5), np.array(2.5), 3):
            assert type(f(x)) is float
        x = np.geomspace(0.01, 50.0, 12).reshape(3, 4)
        out = f(x)
        assert isinstance(out, np.ndarray) and out.shape == (3, 4)
        assert np.array_equal(out.ravel(), [f(float(v)) for v in x.ravel()])
        assert f(np.empty((0, 5))).shape == (0, 5)


def test_euler_gamma_by_accelerated_limit():
    # gamma = lim sum 1/k - log n; Richardson-style: gamma_n = H_n - log(n+1/2)
    # has O(1/n^2) error, one extrapolation step kills it.
    def g(n):
        return sum(1.0 / k for k in range(1, n + 1)) - math.log(n + 0.5)

    acc = (4.0 * g(4000) - g(2000)) / 3.0
    assert abs(acc - specfn.EULER_GAMMA) <= 1e-10
    assert 0.57 < specfn.EULER_GAMMA < 0.58
    assert str(specfn.EULER_GAMMA)[:12] == "0.5772156649"


def test_a0_constant():
    # oracle: high-precision evaluation of (log 4 pi - gamma)/pi
    a0 = float((mp.log(4 * mp.pi) - mp.euler) / mp.pi)
    assert specfn.A0 == pytest.approx(a0, abs=1e-15)
    assert specfn.A0 == pytest.approx(0.6219165873829015, abs=1e-9)


def test_enclosures_contain_truth():
    for x in (1e-5, 0.3, 1.0, 1.9999, 2.0, 5.0, 8.0, 30.0, 300.0):
        for nu in (0, 1):
            assert_in_budget(nu, x)
