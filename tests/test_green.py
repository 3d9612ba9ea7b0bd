"""Periodic Green's function: regimes, certified bounds, asymptotic laws."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

import oracles
from permono import green, specfn
from permono.errors import OutOfRegimeError, SingularPointError, ToleranceUnreachableError
from permono.green import ORIGIN, CirclePoint3, Regime

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def test_circle_point_normalization_and_distance():
    p = CirclePoint3(1.0 + 2.0j, 7.0)
    assert 0.0 <= p.t < TWO_PI
    assert p.t == pytest.approx(7.0 - TWO_PI)
    a = CirclePoint3(0.0, 0.1)
    b = CirclePoint3(0.0, TWO_PI - 0.1)
    assert a.distance(b) == pytest.approx(0.2, abs=1e-15)
    assert a.distance(a) == 0.0


@pytest.mark.parametrize("z, t", [
    (2.0, math.nan),                      # was NaN labelled FourierBessel
    (0.3, math.nan),                      # was NaN labelled ImageSum
    (complex(math.nan, 0.0), 1.0),        # was "cannot convert float NaN to integer"
    (complex(math.inf, 0.0), 1.0),        # was a Bessel-domain error
])
def test_circle_point_rejects_non_finite(z, t):
    with pytest.raises(ValueError, match="finite"):
        green.green_eval(CirclePoint3(z, t), ORIGIN, 1e-10)


def test_image_sum_even_in_t_exactly():
    # Pairing +/-m makes the partial sum bitwise even in the circle offset.
    # Bitwise equality needs the mod-2pi storage round trip of -t to be exact,
    # which holds when fl(2pi) - t is exact (t in the same binade works).
    for t in (0.5, 1.0, 2.0, 3.0):
        v1 = green.green_image_sum(CirclePoint3(0.7 + 0.2j, t), ORIGIN, 500)
        v2 = green.green_image_sum(CirclePoint3(0.7 + 0.2j, -t), ORIGIN, 500)
        assert v1.value == v2.value
        assert v1.grad[2] == -v2.grad[2]
    # generic t: the round trip may cost one ulp of the circle offset
    for t in (0.3, 1.7):
        v1 = green.green_image_sum(CirclePoint3(0.7 + 0.2j, t), ORIGIN, 500)
        v2 = green.green_image_sum(CirclePoint3(0.7 + 0.2j, -t), ORIGIN, 500)
        assert v1.value == pytest.approx(v2.value, abs=5e-16)


#: points of the shell rho >= RHO_SERIES inside r <= R_SWITCH, where the image
#: sum runs; the seam dt = +-pi is drawn on its own
shell = st.builds(
    CirclePoint3,
    st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 0.5), st.floats(0.0, TWO_PI)),
    st.one_of(st.floats(green.RHO_SERIES, math.pi), st.floats(-math.pi, -green.RHO_SERIES),
              st.sampled_from([math.pi, -math.pi])))
BLOCK = green._IMAGE_BLOCK


@settings(max_examples=60, deadline=None)
@given(p=shell, M=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]))
def test_blocked_image_sum_matches_unblocked(p, M):
    # the blocked sum against all M images at once: the same terms, so
    # rounding alone separates them; one, several and a partial last block
    g = green.green_image_sum(p, ORIGIN, M)
    ref = oracles.image_sum_unblocked(p, ORIGIN, M)
    assert g.regime is ref.regime and g.terms == ref.terms == M
    assert g.trunc_bound == ref.trunc_bound
    assert abs(g.value - ref.value) <= 1e-15 * (1.0 + abs(ref.value))
    assert np.all(np.abs(g.grad - ref.grad) <= 1e-15 * (1.0 + np.abs(ref.grad)))


def test_image_sum_memory_is_independent_of_m():
    # a million images through block buffers; the unblocked sum peaked at 80 MB
    p = CirclePoint3(0.3 + 0.1j, 2.0)
    green.green_image_sum(p, ORIGIN, 10)
    tracemalloc.start()
    try:
        green.green_image_sum(p, ORIGIN, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("series", [green.green_image_sum, green.green_fourier_bessel])
@pytest.mark.parametrize("M", [2.5, 3.0, "3", None, True])
def test_series_lengths_must_be_integers(series, M):
    # 2.5 image pairs once summed 3 and reported terms=2.5; FB raised numpy errors
    with pytest.raises(ValueError, match="M must be an integer"):
        series(CirclePoint3(1.0, 0.5), ORIGIN, M)


def test_image_sum_rotation_invariance():
    r, t, M = 1.3, 0.8, 2000
    base = green.green_image_sum(CirclePoint3(r, t), ORIGIN, M).value
    for th in (0.5, 2.0, 4.0):
        v = green.green_image_sum(CirclePoint3(r * np.exp(1j * th), t), ORIGIN, M).value
        assert abs(v - base) <= 1e-13


def test_image_sum_tail_bound_is_sound():
    # empirical truncation error (vs a 10x longer sum) never exceeds the bound
    for (r, t) in [(1.0, 0.5), (0.3, 2.0), (2.5, 3.0), (0.05, 0.02)]:
        p = CirclePoint3(complex(r), t)
        for M in (100, 1000, 10000):
            g = green.green_image_sum(p, ORIGIN, M)
            ref = green.green_image_sum(p, ORIGIN, 10 * M)
            assert abs(g.value - ref.value) <= g.trunc_bound
        g4 = green.green_image_sum(p, ORIGIN, 10**4)
        g8 = green.green_image_sum(p, ORIGIN, 2 * 10**4)
        assert abs(g4.value - g8.value) <= g4.trunc_bound


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.0, 4.0), dt=st.floats(-math.pi, math.pi),
       M=st.one_of(st.integers(1, 3), st.integers(1, 10**4)))
def test_image_tail_constant_bounds_the_exact_tail(r, dt, M):
    # max(2 dt^2, r^2)/(32 pi^3 M^2) against the exact tail, at every M >= 1
    assume(r > 0.0 or dt != 0.0)
    assert oracles.image_sum_tail(r, dt, M) <= green.image_tail_constant(r, dt) / (M * M)


@pytest.mark.parametrize("r, dt", [(math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
                                   (1.0, math.nan), (1.0, 3.2), (1.0, -3.2)])
def test_image_tail_constant_rejects_bad_offsets(r, dt):
    # image_tail_constant(nan) used to return nan
    with pytest.raises(ValueError, match="image tail"):
        green.image_tail_constant(r, dt)


def test_cross_regime_agreement_and_gradients():
    p = CirclePoint3(1.0, 0.5)
    gi = green.green_image_sum(p, ORIGIN, 200000)
    gf = green.green_fourier_bessel(p, ORIGIN, 60)
    assert gi.trunc_bound <= 5e-11 and gf.trunc_bound <= 5e-11
    assert abs(gi.value - gf.value) <= 1e-10
    assert np.max(np.abs(gi.grad - gf.grad)) <= 1e-9


def test_fourier_bessel_tail_bound_is_sound():
    for (r, t) in [(0.6, 0.1), (1.0, 2.0), (3.0, 1.0)]:
        p = CirclePoint3(complex(r), t)
        g = green.green_fourier_bessel(p, ORIGIN, 8)
        ref = green.green_fourier_bessel(p, ORIGIN, 200)
        assert abs(g.value - ref.value) <= g.trunc_bound


def test_log_asymptotics_with_decaying_constant():
    # e^r |G - log(r)/2pi| bounded by a single constant <= 10, non-increasing
    vals = []
    for r in range(2, 11):
        g = green.green_fourier_bessel(CirclePoint3(float(r), 0.0), ORIGIN, 80)
        vals.append(math.exp(r) * abs(g.value - math.log(r) / TWO_PI))
    assert max(vals) <= 10.0
    for a, b in zip(vals, vals[1:]):
        assert b <= 1.05 * a


def test_t_average_recovers_log():
    # (1/2pi) int G(r, t) dt = log(r)/2pi: trapezoid over the circle modes
    r = 1.5
    n = 256
    ts = np.arange(n) * TWO_PI / n
    avg = np.mean([
        green.green_fourier_bessel(CirclePoint3(r, t), ORIGIN, 60).value for t in ts
    ])
    assert abs(avg - math.log(r) / TWO_PI) <= 1e-12


def test_multipole_residual_and_richardson_ratio():
    # t-axis residuals of the K = 0 model a0/2 - 1/(2 rho): inside its closed-form
    # bound zeta(3) rho^2/(8 pi^3 (1 - x)) <= 0.00517 rho^2, quadratic with
    # Richardson ratio ~ 1/4
    res = {}
    for rho in (0.2, 0.1, 0.05, 0.025):
        p = CirclePoint3(0.0, rho)
        gi = green.green_image_sum(p, ORIGIN, 30000)
        model = green.green_multipole(p, ORIGIN, tol=1.0)
        assert model.terms == 0 and model.trunc_bound <= 0.00517 * rho**2
        res[rho] = abs(gi.value - model.value)
        assert res[rho] <= model.trunc_bound + gi.trunc_bound
    for hi, lo in [(0.2, 0.1), (0.1, 0.05), (0.05, 0.025)]:
        assert 0.2 <= res[lo] / res[hi] <= 0.3


def test_multipole_near_pole_agreement():
    rho = 0.01
    p = CirclePoint3(0.0, rho)
    gi = green.green_image_sum(p, ORIGIN, 20000)
    gm = green.green_multipole(p, ORIGIN, tol=1e-12)
    assert gi.trunc_bound <= 7e-11 and gm.trunc_bound <= 1e-12
    assert abs(gi.value - gm.value) <= gi.trunc_bound + gm.trunc_bound + 1e-13


def test_singular_part_dominates():
    # rho * G -> -1/2 as rho -> 0
    for rho in (1e-3, 1e-4):
        g = green.green_multipole(CirclePoint3(complex(rho), 0.0), ORIGIN)
        assert rho * g.value == pytest.approx(-0.5, abs=1e-2)


def test_multipole_domain_errors():
    with pytest.raises(OutOfRegimeError):
        green.green_multipole(CirclePoint3(2.0, 0.0), ORIGIN)
    with pytest.raises(SingularPointError):
        green.green_multipole(CirclePoint3(0.0, 0.0), ORIGIN)
    with pytest.raises(SingularPointError):  # 2 rho^3 underflows: no finite gradient
        green.green_eval(CirclePoint3(0.0, 3e-133), ORIGIN)


@pytest.mark.parametrize("rho, tol", [
    (1e-6, 1e-13),      # the K = 0 bound 5e-15 meets tol, but one ulp of |G| is 5.8e-11
    (0.09, 9.99e-13),
    (1.5, 1e-14),       # green_multipole alone, beyond R_SWITCH: the series takes more terms
    (0.3, 1e-13),       # the band RHO_SWITCH <= rho < RHO_SERIES: the series takes more terms
])
def test_near_pole_tolerance_floor(rho, tol):
    # the floor refuses only near the pole, rho < RHO_SWITCH; past it the series
    # meets a tol below the floor, alone and in the dispatcher
    p = CirclePoint3(complex(rho), 0.0)
    if rho < green.RHO_SWITCH:
        with pytest.raises(ToleranceUnreachableError):
            green.green_multipole(p, ORIGIN, tol)
        with pytest.raises(ToleranceUnreachableError):
            green.green_eval(p, ORIGIN, tol)
    else:
        g = green.green_multipole(p, ORIGIN, tol)
        assert g.regime is Regime.MULTIPOLE and g.trunc_bound <= tol
        if rho <= green.R_SWITCH:
            e = green.green_eval(p, ORIGIN, tol)
            assert e.regime is Regime.MULTIPOLE and e.trunc_bound <= tol
            assert (e.value, e.terms) == (g.value, g.terms)
    g = green.green_multipole(p, ORIGIN, 1e-12)
    assert g.trunc_bound <= 1e-12
    if rho <= green.R_SWITCH:
        g = green.green_eval(p, ORIGIN, 1e-12)
        assert g.regime is Regime.MULTIPOLE and g.trunc_bound <= 1e-12


def test_legendre_zeta_k0_is_the_model():
    for p in (CirclePoint3(3e-4 - 2e-4j, 1e-4), CirclePoint3(0.0, TWO_PI - 0.02),
              CirclePoint3(0.05j, 0.0)):
        g = green.green_multipole(p, ORIGIN, tol=1e-4)
        dx, dy, dt = green._offsets(p, ORIGIN)
        rho = math.sqrt(dx * dx + dy * dy + dt * dt)
        assert g.terms == 0
        assert g.value == 0.5 * green.A0 - 0.5 / rho
        np.testing.assert_array_equal(g.grad, np.array([dx, dy, dt]) / (2.0 * rho**3))


def near_pole(rho_max):
    """Points at rho log-uniform in [1e-6, rho_max] from ORIGIN in any
    direction; polar angle 0 or pi puts them on the t-axis r = 0."""
    def build(e, polar, az):
        rho = 10.0**e
        r = rho * math.sin(polar)
        return CirclePoint3(complex(r * math.cos(az), r * math.sin(az)), rho * math.cos(polar))
    return st.builds(build, st.floats(-6.0, math.log10(rho_max)), st.floats(0.0, math.pi),
                     st.floats(0.0, TWO_PI))


lz_tol = st.floats(-12.0, -4.0).map(lambda e: 10.0**e)


def lz_tail(x, K):
    """zeta(3)/(2 pi) x^(K+1)/(1 - x): the Legendre-zeta tail after K terms."""
    return special.zeta(3.0) / TWO_PI * x ** (K + 1) / (1.0 - x)


@settings(max_examples=60, deadline=None)
@given(p=near_pole(1.5707), tol=lz_tol)
def test_legendre_zeta_bound_is_minimal_and_sound(p, tol):
    g = green.green_multipole(p, ORIGIN, tol)
    dx, dy, dt = green._offsets(p, ORIGIN)
    rho = math.sqrt(dx * dx + dy * dy + dt * dt)
    x = (rho / TWO_PI) ** 2
    assert g.regime is Regime.MULTIPOLE
    assert g.trunc_bound == lz_tail(x, g.terms) and g.trunc_bound <= tol
    if g.terms > 0:
        assert lz_tail(x, g.terms - 1) > tol  # K - 1 terms miss tol
    oracle = green.green_image_sum(
        p, ORIGIN, math.ceil(math.sqrt(green.image_tail_constant(math.hypot(dx, dy), dt) / 1e-12)))
    rounding = 8.0 * EPS * (0.5 / rho + 1.0)
    assert abs(g.value - oracle.value) <= g.trunc_bound + oracle.trunc_bound + rounding


@settings(max_examples=60, deadline=None)
@given(p=near_pole(1.567), tol=lz_tol)
def test_legendre_zeta_gradient_matches_central_differences(p, tol):
    # fourth-order central differences of the series at its own K, step h = rho/1000:
    # truncation ~ (h/rho)^4 |grad|; rounding of the values and of the shifted
    # points (t is stored mod 2 pi, to 2 eps) ~ 4 eps (|G| + |grad|)/h
    g = green.green_multipole(p, ORIGIN, tol)
    h = 1e-3 * p.distance(ORIGIN)
    fd = []
    for e in np.eye(3):
        v = {}
        for s in (-2, -1, 1, 2):
            q = CirclePoint3(p.z + s * h * complex(e[0], e[1]), p.t + s * h * e[2])
            shifted = green.green_multipole(q, ORIGIN, tol)
            assume(shifted.terms == g.terms)
            v[s] = shifted.value
        fd.append((8.0 * (v[1] - v[-1]) - (v[2] - v[-2])) / (12.0 * h))
    scale = np.abs(g.grad).max()
    allow = 1e-10 * scale + 4.0 * EPS * (abs(g.value) + scale) / h
    assert np.abs(np.array(fd) - g.grad).max() <= allow


def band_point(rho, u, az, sign):
    """The point at distance rho from ORIGIN with r = u min(rho, R_SWITCH) and dt of the sign."""
    r = u * min(rho, green.R_SWITCH)
    return CirclePoint3(r * cmath.exp(1j * az), sign * math.sqrt(max(rho * rho - r * r, 0.0)))


#: points of the band RHO_SWITCH <= rho < RHO_SERIES inside r <= R_SWITCH
band = st.builds(band_point, st.floats(green.RHO_SWITCH, green.RHO_SERIES, exclude_max=True),
                 st.floats(0.0, 1.0), st.floats(0.0, TWO_PI), st.sampled_from([1.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(p=band,
       tol=st.floats(-16.0, -4.0).map(lambda e: 10.0**e))
@example(p=CirclePoint3(0.3, 1.0), tol=1e-13)
@example(p=CirclePoint3(0.0, 1.5), tol=1e-16)
def test_series_takes_the_band_at_every_tol(p, tol):
    # RHO_SWITCH <= rho < RHO_SERIES inside r <= R_SWITCH: the series at any tol, its
    # value within its bound of the whole image sum (mpmath), up to rounding; its
    # gradient within the gradient of its tail, sum_{k>K} c_k |grad S_2k| <=
    # zeta(3)/(2 pi rho) sum_{k>K} (2k+1) x^k, as |grad S_n| <= sqrt(n(n+1)) rho^(n-1)
    dx, dy, dt = green._offsets(p, ORIGIN)
    r, rho = math.hypot(dx, dy), math.sqrt(dx * dx + dy * dy + dt * dt)
    assume(r <= green.R_SWITCH and green.RHO_SWITCH <= rho < green.RHO_SERIES)
    g = green.green_eval(p, ORIGIN, tol)
    assert g.regime is Regime.MULTIPOLE and g.trunc_bound <= tol
    value, grad = oracles.green_image_nsum(dx, dy, dt)
    assert abs(g.value - value) <= g.trunc_bound + 8.0 * EPS * (0.5 / rho + 1.0)
    x, K = (rho / TWO_PI) ** 2, g.terms
    grad_tail = (special.zeta(3.0) / (TWO_PI * rho) * x ** (K + 1)
                 * ((2 * K + 3) / (1.0 - x) + 2.0 * x / (1.0 - x) ** 2))
    assert np.abs(g.grad - grad).max() <= grad_tail + 8.0 * EPS * (0.5 / rho**2 + 1.0)


def test_series_refuses_a_tol_beyond_its_table():
    # 16 terms leave about 1.5e-22 at rho = 1.5: a ToleranceUnreachableError, not StopIteration
    p = CirclePoint3(0.0, 1.5)
    for evaluate in (green.green_multipole, green.green_eval):
        with pytest.raises(ToleranceUnreachableError):
            evaluate(p, ORIGIN, 1e-25)
    assert green.green_multipole(p, ORIGIN, 1e-21).terms == len(green._LZ_COEF) == 16


@pytest.mark.parametrize("series, cap", [(green.green_image_sum, green._MAX_IMAGE_TERMS),
                                         (green.green_fourier_bessel, green._MAX_FOURIER_TERMS)])
def test_explicit_series_lengths_are_capped(series, cap):
    # an unchecked M allocated (2, M+1) planes or looped M/8192 blocks; only cap + 1 is
    # tried, which must raise before any allocation
    with pytest.raises(ValueError, match=f"M={cap + 1}"):
        series(CirclePoint3(1.0, 0.5), ORIGIN, cap + 1)


def test_dispatcher_regime_selection():
    g = green.green_eval(CirclePoint3(5.0, 1.0), ORIGIN, tol=1e-10)
    assert g.regime is Regime.FOURIER_BESSEL
    g = green.green_eval(CirclePoint3(0.0, 1e-3), ORIGIN, tol=1e-5)
    assert g.regime is Regime.MULTIPOLE and g.terms == 0
    assert g.trunc_bound <= 0.00517 * 1e-6
    g = green.green_eval(CirclePoint3(0.3, 2.0), ORIGIN, tol=1e-10)  # rho > RHO_SERIES
    assert g.regime is Regime.IMAGE_SUM
    assert g.trunc_bound <= 1e-10
    # the band RHO_SWITCH <= rho < RHO_SERIES: the series at the floor and below it
    g = green.green_eval(CirclePoint3(0.3, 1.0), ORIGIN, tol=1e-12)
    assert g.regime is Regime.MULTIPOLE and g.terms <= 9 and g.trunc_bound <= 1e-12
    g = green.green_eval(CirclePoint3(0.3, 1.0), ORIGIN, tol=1e-13)
    assert g.regime is Regime.MULTIPOLE and g.terms <= 16 and g.trunc_bound <= 1e-13
    # near the pole with tol below the K = 0 bound: one more series term
    g = green.green_eval(CirclePoint3(0.05, 0.0), ORIGIN, tol=1e-9)
    assert g.regime is Regime.MULTIPOLE and g.terms == 1 and g.trunc_bound <= 1e-9


@settings(max_examples=80, deadline=None)
@given(z=st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 0.5), st.floats(0.0, TWO_PI)),
       t=st.floats(-math.pi, math.pi), tol=st.floats(-14.0, -6.0).map(lambda e: 10.0**e))
def test_dispatcher_follows_the_regime_rule(z, t, tol):
    # inside the cylinder r <= R_SWITCH the point alone picks the regime: the
    # series at rho < RHO_SERIES (an error below the floor at rho < RHO_SWITCH),
    # the image sum on the shell rho >= RHO_SERIES
    p = CirclePoint3(z, t)
    dx, dy, dt = green._offsets(p, ORIGIN)
    r, rho = math.hypot(dx, dy), math.sqrt(dx * dx + dy * dy + dt * dt)
    pole = not 2.0 * rho**3 >= np.finfo(float).tiny  # no finite gradient
    if pole or (rho < green.RHO_SWITCH and tol < green._TOL_FLOOR):
        with pytest.raises(SingularPointError if pole else ToleranceUnreachableError):
            green.green_eval(p, ORIGIN, tol)
        return
    g = green.green_eval(p, ORIGIN, tol)
    assert g.trunc_bound <= tol
    if r > green.R_SWITCH:  # |z| = 0.5 can round up
        assert g.regime is Regime.FOURIER_BESSEL
    elif rho < green.RHO_SERIES:
        assert g.regime is Regime.MULTIPOLE
        m = green.green_multipole(p, ORIGIN, tol)
        assert (g.value, g.trunc_bound, g.terms) == (m.value, m.trunc_bound, m.terms)
        np.testing.assert_array_equal(g.grad, m.grad)
    else:
        assert g.regime is Regime.IMAGE_SUM


def test_dispatcher_errors():
    with pytest.raises(SingularPointError):
        green.green_eval(CirclePoint3(0.0, 0.0), ORIGIN, 1e-8)
    with pytest.raises(ToleranceUnreachableError):
        green.green_eval(CirclePoint3(0.01, 0.0), ORIGIN, tol=1e-13)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            green.green_eval(CirclePoint3(1.0, 0.0), ORIGIN, tol=bad)


@pytest.mark.parametrize("call", [
    lambda tol: green.green_multipole(CirclePoint3(0.05, 0.0), ORIGIN, tol),
    lambda tol: green.evaluate_batch([], ORIGIN, tol),
])
@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
def test_bad_tolerances_fail_at_the_boundary(call, tol):
    # the series took tol = inf as K = 0 and an empty batch accepted nan
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        call(tol)


def test_dispatcher_meets_tolerance_across_space():
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = CirclePoint3(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)), rng.uniform(0, TWO_PI))
        if p.distance(ORIGIN) < 1e-3:
            continue
        tol = 10.0 ** rng.uniform(-11, -5)
        assert green.green_eval(p, ORIGIN, tol).trunc_bound <= tol


def test_regime_overlap_consistency():
    # any two regimes agree within the sum of their bounds
    for (r, t) in [(0.6, 0.3), (1.0, 1.0), (2.0, 0.05)]:
        p = CirclePoint3(complex(r), t)
        gi = green.green_image_sum(p, ORIGIN, 50000)
        gf = green.green_fourier_bessel(p, ORIGIN, 120)
        assert abs(gi.value - gf.value) <= gi.trunc_bound + gf.trunc_bound
    p = CirclePoint3(complex(0.05), 0.05)
    gi = green.green_image_sum(p, ORIGIN, 50000)
    gm = green.green_multipole(p, ORIGIN)
    assert abs(gi.value - gm.value) <= gi.trunc_bound + gm.trunc_bound


def test_dt_vanishing_on_half_period_planes():
    for r in (1.0, 3.0):
        assert oracles.green_dt_zero_check(r) <= 1e-12
        for t in (0.0, math.pi):
            assert abs(green.green_eval(CirclePoint3(r, t), ORIGIN, 1e-14).grad[2]) <= 1e-12
    # cross-regime: image-sum gradient at r = 0.5, t in {0, pi}
    g0 = green.green_image_sum(CirclePoint3(0.5, 0.0), ORIGIN, 50000)
    gpi = green.green_image_sum(CirclePoint3(0.5, math.pi), ORIGIN, 50000)
    assert abs(g0.grad[2]) <= 1e-10
    assert abs(gpi.grad[2]) <= 1e-10


def test_evenness_about_the_center():
    q = CirclePoint3(0.3 + 0.1j, 1.2)
    for s in (0.2, 0.9, 2.5):
        up = green.green_eval(CirclePoint3(1.5 + 0.4j, q.t + s), q, 1e-12)
        dn = green.green_eval(CirclePoint3(1.5 + 0.4j, q.t - s), q, 1e-12)
        assert abs(up.value - dn.value) <= 1e-12


def test_discrete_harmonicity_second_order():
    # 7-point Laplacian residual decreases at O(h^2) under mesh halving
    def lap(h):
        c = CirclePoint3(1.2 + 0.3j, 1.0)
        tol = 1e-13
        ctr = green.green_eval(c, ORIGIN, tol).value
        acc = -6.0 * ctr
        for dx, dy, dt in [(h, 0, 0), (-h, 0, 0), (0, h, 0), (0, -h, 0), (0, 0, h), (0, 0, -h)]:
            acc += green.green_eval(CirclePoint3(c.z + complex(dx, dy), c.t + dt), ORIGIN, tol).value
        return abs(acc) / h**2

    r1, r2 = lap(0.02), lap(0.01)
    slope = math.log2(r1 / r2)
    assert 1.8 <= slope <= 2.2


def test_batch_evaluation_matches_pointwise():
    pts = [CirclePoint3(complex(1.0 + 0.1 * i), 0.3 * i) for i in range(5)]
    batch = green.evaluate_batch(pts, ORIGIN, 1e-9)
    for p, g in zip(pts, batch):
        assert g.value == green.green_eval(p, ORIGIN, 1e-9).value


@settings(max_examples=200, deadline=None)
@given(x=st.floats(1e-3, 700.0), nu=st.sampled_from([0, 1]))
def test_k_majorant_bounds_bessel_k(x, nu):
    exact = mp.besselk(nu, mp.mpf(x))
    assert float(exact) <= oracles.k_majorant(x, nu)


@settings(max_examples=150, deadline=None)
@given(r=st.floats(0.05, 20.0), log_tol=st.floats(-15.0, -2.0), nu=st.sampled_from([0, 1]))
# counts one above the smallest
@example(r=2.62, log_tol=-3.0, nu=0)
@example(r=3.29, log_tol=-12.0, nu=1)
@example(r=13.06, log_tol=-5.5, nu=1)
def test_mode_counts_minimal_with_bound_below_tol(r, log_tol, nu):
    # the closed-form count is sound, and at most one above the smallest count
    tol = 10.0**log_tol
    M = int(green._mode_counts(np.array([r]), tol, nu)[0])
    pref = green._tail_prefactor(r, nu)
    assert pref == pytest.approx(r**nu / (math.pi * (1.0 - math.exp(-r))), rel=1e-14)
    assert pref * oracles.k_majorant((M + 1) * r, nu) <= tol
    if M > 1:
        assert pref * oracles.k_majorant((M - 1) * r, nu) > tol  # M - 2 modes miss tol


@settings(max_examples=150, deadline=None)
@given(log_r=st.floats(math.log(0.01), math.log(50.0)), log_tol=st.floats(-16.0, 1.0),
       nu=st.sampled_from([0, 1]))
# rows where L = max(log(pref r^nu sqrt(pi/2)/tol), 2) is clamped at 2
@example(log_r=math.log(0.6), log_tol=0.0, nu=0)
@example(log_r=math.log(50.0), log_tol=1.0, nu=1)
@example(log_r=math.log(0.01), log_tol=1.0, nu=1)
def test_mode_counts_bound_the_true_tail(log_r, log_tol, nu):
    # pref(r) r^nu K_nu((M+1) r) <= tol with K_nu in mpmath, not only its majorant
    r, tol = math.exp(log_r), 10.0**log_tol
    M = int(green._mode_counts(np.array([r]), tol, nu)[0])
    assert green._tail_prefactor(r, nu) * float(mp.besselk(nu, (M + 1) * mp.mpf(r))) <= tol


@settings(max_examples=60, deadline=None)
@given(data=st.data(), nu=st.sampled_from([0, 1]), log_tol=st.floats(-15.0, -2.0),
       shape=st.sampled_from([(), (1,), (3,), (64, 64)]))
def test_mode_counts_match_linear_rule_oracle(data, nu, log_tol, shape):
    # the log-form counts against the smallest count of the rule pref Kmaj_nu((M+1) r)
    # <= tol itself, row by row: never below it, at most one above; a 0-d row is
    # passed as a float, as connection_radial_gauge does
    r = data.draw(hnp.arrays(float, shape, elements=st.floats(0.05, 20.0)))
    tol = 10.0**log_tol
    M = green._mode_counts(r if shape else float(r), tol, nu)
    assert np.shape(M) == shape
    want = np.array([oracles.mode_count(x, tol, nu) for x in r.ravel().tolist()], dtype=int)
    assert (want <= np.ravel(M)).all() and (np.ravel(M) <= want + 1).all()


@settings(max_examples=150, deadline=None)
@given(r=st.floats(0.05, 20.0), t=st.floats(0.0, TWO_PI), log_tol=st.floats(-15.0, -2.0))
@example(r=1.0, t=0.3, log_tol=-5.5)  # 10 modes meet tol, the majorant needs 11
def test_fourier_bessel_bound_is_the_next_mode(r, t, log_tol):
    # the M-mode sum reports pref(r) K0((M+1) r); G's FB rows take the fewest modes
    # whose reported bound meets tol, never more than the majorant count
    tol = 10.0**log_tol
    M = green.fourier_terms_for(r, tol)
    p = CirclePoint3(complex(r), t)
    pref = green._tail_prefactor(r, 0)
    g = green.green_fourier_bessel(p, ORIGIN, M)
    assert g.terms == M
    assert g.trunc_bound == pref * specfn.bessel_k0((M + 1) * r) <= tol
    if r > green.R_SWITCH:
        e = green.green_eval(p, ORIGIN, tol)
        n = e.terms
        assert e.regime is Regime.FOURIER_BESSEL and n <= M
        assert n == 0 or pref * specfn.bessel_k0(n * r) > tol  # n - 1 modes miss tol
        assert e.trunc_bound == pref * specfn.bessel_k0((n + 1) * r) <= tol
        f = green.green_fourier_bessel(p, ORIGIN, n)
        assert e.value == f.value and (e.grad == f.grad).all() and e.trunc_bound == f.trunc_bound


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.5, 20.0, exclude_min=True), st.floats(0.0, TWO_PI)),
                     min_size=1, max_size=3),
       log_tol=st.floats(-15.0, -2.0))
# rows whose plane count G is M + 2: M = 10 of G = 12, 8 of 10 and 0 of 2
@example(rows=[(1.0, 0.3)], log_tol=-5.5)
@example(rows=[(0.65, 1.0)], log_tol=-3.0)
@example(rows=[(3.65, 2.0)], log_tol=-2.25)
def test_fourier_bessel_rows_take_the_first_count_that_meets_tol(rows, log_tol):
    # 1-3 centres at mixed r share one plane stack; each row's count is the oracle's,
    # stepped on scipy's K0, and its bound is the tail at that count
    tol = 10.0**log_tol
    evals = green.green_eval_many(ORIGIN, [CirclePoint3(-r, t) for r, t in rows], tol)
    for (r, _), e in zip(rows, evals):
        M = oracles.fourier_bessel_count(r, tol)
        assert e.regime is Regime.FOURIER_BESSEL and e.terms == M
        assert e.trunc_bound == green._tail_prefactor(r, 0) * specfn.bessel_k0((M + 1) * r) <= tol


def test_fourier_bessel_row_at_a_loose_tol_takes_no_mode():
    # tol so large that log(pref sqrt(pi/2)/tol) < 1: the clamp of L at 2 may add
    # planes, but the first meets tol, so the row takes no mode
    r, tol = 0.6, 1.0
    assert math.log(green._tail_prefactor(r, 0) * math.sqrt(math.pi / 2.0) / tol) < 1.0
    e = green.green_eval_many(ORIGIN, [CirclePoint3(-r, 0.4)], tol)[0]
    assert e.terms == 0 == oracles.fourier_bessel_count(r, tol)
    assert e.trunc_bound == green._tail_prefactor(r, 0) * specfn.bessel_k0(r) <= tol


def test_fourier_bessel_row_that_misses_tol_raises(monkeypatch):
    # plane G meets tol by the majorant; a K0 1e6 times too large misses it in every
    # row, which must raise, never report M = 0 or the bound of a zeroed plane
    monkeypatch.setattr(specfn, "bessel_k0", lambda x, k0=specfn.bessel_k0: 1e6 * k0(x))
    centres = [CirclePoint3(-0.7, 0.0), CirclePoint3(-6.0, 1.0)]
    for some in (centres[:1], centres):
        with pytest.raises(RuntimeError, match="missed tol"):
            green.green_eval_many(ORIGIN, some, 1e-10)


def test_fourier_bessel_rows_refuse_unreachable_and_overflowing_rows():
    rows = [np.array([v]) for v in (1e-6, 0.0, 0.0, 1e-6)]
    with pytest.raises(ToleranceUnreachableError):  # about 7e8 planes
        green._fourier_bessel_to_tol(*rows, 1e-300)
    with pytest.raises(ValueError, match="overflows to inf"):  # |z - q| from finite points
        green.green_eval(CirclePoint3(1e308, 0.0), CirclePoint3(-1e308, 0.0))


def test_bessel_modes_fill_kept_pairs_and_zero_beyond():
    # 1-D rows, with a spare plane past the largest count
    r = np.array([0.6, 2.0, 7.5])
    M = green._mode_counts(r, 1e-12, 0)
    assert M[0] > M[1] > M[2]
    k0, k1 = np.full((2, M.max() + 1, r.size), np.nan)
    green.bessel_modes(r, M, k0, k1)
    for j in range(r.size):
        x = np.arange(1, M[j] + 1) * r[j]
        np.testing.assert_array_equal(k0[:M[j], j], specfn.bessel_k0(x))
        np.testing.assert_array_equal(k1[:M[j], j], specfn.bessel_k1(x))
        assert np.all(k0[M[j]:, j] == 0.0) and np.all(k1[M[j]:, j] == 0.0)
    # a (16, ny) slab of grid nodes with mixed counts, into views of one buffer
    X, Y = np.arange(2.0, 2.8, 0.05), np.arange(-3.0, 3.0, 0.25)
    r = np.hypot(X[:, None], Y[None, :])
    M = green._mode_counts(r, 1e-15, 1)
    assert r.shape == (16, Y.size) and M.min() < M.max()
    F = np.full((3, M.max() + 2, 16, Y.size), np.nan)
    green.bessel_modes(r, M, F[0, 1:], F[2, :-1])
    m = np.arange(1, M.max() + 2)[:, None, None]
    keep = m <= M
    x = (m * r)[keep]
    for plane, kernel in ((F[0, 1:], specfn.bessel_k0), (F[2, :-1], specfn.bessel_k1)):
        np.testing.assert_array_equal(plane[keep], kernel(x))
        assert np.all(plane[~keep] == 0.0)
    assert np.isnan(F[1]).all() and np.isnan(F[0, 0]).all() and np.isnan(F[2, -1]).all()


def test_mode_counts_reject_bad_rows_and_tolerances():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            green._mode_counts(np.array([1.0, bad]), 1e-12, 0)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            green._mode_counts(np.array([0.6, 2.0, 7.5]), bad, 1)


def test_mode_counts_at_extreme_rows_and_tolerances():
    # L is formed as a difference of logs, so no product overflows: the largest rows
    # take no mode, and the smallest tol a count the oracle bounds
    for nu in (0, 1):
        assert green._mode_counts(np.array([1e8, 1e308]), 1e-300, nu).tolist() == [0, 0]
        want = oracles.mode_count(3.0, 5e-324, nu)
        assert want <= green._mode_counts(np.array([3.0]), 5e-324, nu)[0] <= want + 1


def fourier_bessel_oracle(r, t):
    """(1/2 pi) log r - (1/pi) sum_m K0(m r) cos(m t) with scipy's K0, tail < 1e-30."""
    m = np.arange(1, math.ceil(72.0 / r) + 1)
    return math.log(r) / TWO_PI - math.fsum(special.k0(m * r) * np.cos(m * t)) / math.pi


@settings(max_examples=100, deadline=None)
@given(r=st.floats(0.5001, 8.0), t=st.floats(0.0, TWO_PI), log_tol=st.floats(-14.0, -4.0))
def test_fourier_bessel_value_within_its_bound(r, t, log_tol):
    tol = 10.0**log_tol
    g = green.green_eval(CirclePoint3(complex(r), t), ORIGIN, tol)
    assert g.regime is Regime.FOURIER_BESSEL
    assert g.trunc_bound <= tol
    assert abs(g.value - fourier_bessel_oracle(r, t)) <= g.trunc_bound + 1e-15


def test_green_eval_many_matches_green_eval():
    rng = np.random.default_rng(11)
    p = CirclePoint3(0.4 - 0.3j, 1.1)
    centers = [
        CirclePoint3(0.4 - 0.3j, 1.1 + 5e-6),       # Multipole
        CirclePoint3(0.43 - 0.3j, 1.14),            # Multipole, K > 0 below 1e-6
        CirclePoint3(0.1 - 0.1j, 3.0),              # ImageSum
        ORIGIN,                                     # Multipole, RHO_SWITCH < rho < RHO_SERIES
    ] + [CirclePoint3(complex(*rng.uniform(-5, 5, 2)), rng.uniform(0, TWO_PI)) for _ in range(6)]
    for tol in (1e-6, 1e-10, 1e-12):
        many = green.green_eval_many(p, centers, tol)
        assert {g.regime for g in many} == set(Regime)
        for q, g in zip(centers, many):
            one = green.green_eval(p, q, tol)
            assert g.regime is one.regime
            assert g.trunc_bound == one.trunc_bound and g.terms == one.terms
            assert abs(g.value - one.value) <= 1e-15
            assert np.abs(g.grad - one.grad).max() <= 1e-15
    assert green.green_eval_many(p, [], 1e-10) == []
    with pytest.raises(SingularPointError):
        green.green_eval_many(p, [ORIGIN, p], 1e-10)
    with pytest.raises(ValueError):
        green.green_eval_many(p, centers, math.nan)


#: property-test points: r in [0.2, 4] from the centre (every regime,
#: |grad G| <= 1/(2 r^2)), at tolerances the image sum reaches within
#: about 10^4 terms
planar = st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.2, 4.0), st.floats(0.0, TWO_PI))
circle = st.floats(-math.pi, math.pi)
image_tol = st.floats(-9.0, -6.0).map(lambda e: 10.0**e)


def seam_slack(g, tol):
    """The truncated image sum is centred on the reduced offset dt in
    (-pi, pi], so its t-gradient jumps across the seam dt = pi by
    1/(4 pi^2 M^2) to leading order; M is sized by C(r, pi)/M^2 <= tol with
    C(r, pi) = 1/(16 pi) for r <= 4, so the jump is (4/pi) tol to leading
    order. The Fourier-Bessel series is periodic term by term."""
    return 2.0 * tol if g.regime is Regime.IMAGE_SUM else 0.0


@pytest.mark.parametrize("r", [0.02, 0.3, 0.5])
@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-6])
def test_image_sum_gradient_jump_at_the_seam(r, tol):
    # dt = pi, its mirror (stored as pi again) and the next float above pi
    # (reduced to -pi + ulp) put the image sum on both sides of the seam
    g = green.green_eval(CirclePoint3(r, math.pi), ORIGIN, tol)
    mirror = green.green_eval(CirclePoint3(-r, -math.pi), ORIGIN, tol)
    across = green.green_eval(CirclePoint3(r, math.nextafter(math.pi, 4.0)), ORIGIN, tol)
    assert g.regime is Regime.IMAGE_SUM
    for other, sign in ((mirror, -1.0), (across, 1.0)):
        assert other.regime is g.regime and other.terms == g.terms
        assert abs(other.value - g.value) <= 1e-13
        assert np.abs(other.grad - sign * g.grad).max() <= 1e-12 + seam_slack(g, tol)


@settings(max_examples=60, deadline=None)
@given(z=planar, t=circle, n=st.integers(-3, 3).filter(bool), tol=image_tol)
def test_green_periodic_in_t(z, t, n, tol):
    g = green.green_eval(CirclePoint3(z, t), ORIGIN, tol)
    shifted = green.green_eval(CirclePoint3(z, t + TWO_PI * n), ORIGIN, tol)
    assert shifted.regime is g.regime and shifted.terms == g.terms
    # the shifted t is rounded to a few ulps of 20 before it is reduced
    assert abs(shifted.value - g.value) <= 1e-13
    assert np.abs(shifted.grad - g.grad).max() <= 1e-12 + seam_slack(g, tol)


@settings(max_examples=60, deadline=None)
@given(z=planar, t=circle, tol=image_tol)
def test_green_even_under_reflection(z, t, tol):
    g = green.green_eval(CirclePoint3(z, t), ORIGIN, tol)
    mirror = green.green_eval(CirclePoint3(-z, -t), ORIGIN, tol)
    assert mirror.regime is g.regime and mirror.terms == g.terms
    assert abs(mirror.value - g.value) <= 1e-13
    assert np.abs(mirror.grad + g.grad).max() <= 1e-12 + seam_slack(g, tol)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.5, 3.0, exclude_min=True), a=st.floats(0.0, TWO_PI), t=circle,
       tol=image_tol)
def test_fourier_bessel_and_image_sum_agree(r, a, t, tol):
    p = CirclePoint3(r * np.exp(1j * a), t)
    assume(abs(p.z) > green.R_SWITCH)  # r = 0.5 + ulp can round back to |z| = 0.5
    fb = green.green_eval(p, ORIGIN, 1e-13)
    assert fb.regime is Regime.FOURIER_BESSEL
    im = green.green_image_sum(p, ORIGIN, math.ceil(math.sqrt(green.image_tail_constant(r, t) / tol)))
    assert abs(fb.value - im.value) <= fb.trunc_bound + im.trunc_bound + 1e-14
