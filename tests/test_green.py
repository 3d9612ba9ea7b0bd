"""Periodic Green's function: regimes, certified bounds, asymptotic laws."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
    (1.5, 1e-14),       # green_multipole alone, beyond R_SWITCH
    (0.3, 1e-13),       # the band RHO_SWITCH <= rho < RHO_SERIES: the image sum takes over
])
def test_near_pole_tolerance_floor(rho, tol):
    p = CirclePoint3(complex(rho), 0.0)
    with pytest.raises(ToleranceUnreachableError):
        green.green_multipole(p, ORIGIN, tol)
    g = green.green_multipole(p, ORIGIN, 1e-12)
    assert g.trunc_bound <= 1e-12
    if rho < green.RHO_SWITCH:
        with pytest.raises(ToleranceUnreachableError):
            green.green_eval(p, ORIGIN, tol)
    elif rho <= green.R_SWITCH:
        g = green.green_eval(p, ORIGIN, tol)
        assert g.regime is Regime.IMAGE_SUM and g.trunc_bound <= tol
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
        p, ORIGIN, math.ceil(math.sqrt(green.image_tail_constant(math.hypot(dx, dy)) / 1e-12)))
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


def test_dispatcher_regime_selection():
    g = green.green_eval(CirclePoint3(5.0, 1.0), ORIGIN, tol=1e-10)
    assert g.regime is Regime.FOURIER_BESSEL
    g = green.green_eval(CirclePoint3(0.0, 1e-3), ORIGIN, tol=1e-5)
    assert g.regime is Regime.MULTIPOLE and g.terms == 0
    assert g.trunc_bound <= 0.00517 * 1e-6
    g = green.green_eval(CirclePoint3(0.3, 2.0), ORIGIN, tol=1e-10)  # rho > RHO_SERIES
    assert g.regime is Regime.IMAGE_SUM
    assert g.trunc_bound <= 1e-10
    # the band RHO_SWITCH <= rho < RHO_SERIES: the series at the floor, the image sum below it
    g = green.green_eval(CirclePoint3(0.3, 1.0), ORIGIN, tol=1e-12)
    assert g.regime is Regime.MULTIPOLE and g.terms <= 9 and g.trunc_bound <= 1e-12
    g = green.green_eval(CirclePoint3(0.3, 1.0), ORIGIN, tol=1e-13)
    assert g.regime is Regime.IMAGE_SUM and g.trunc_bound <= 1e-13
    # near the pole with tol below the K = 0 bound: one more series term
    g = green.green_eval(CirclePoint3(0.05, 0.0), ORIGIN, tol=1e-9)
    assert g.regime is Regime.MULTIPOLE and g.terms == 1 and g.trunc_bound <= 1e-9


@settings(max_examples=80, deadline=None)
@given(z=st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 0.5), st.floats(0.0, TWO_PI)),
       t=st.floats(-math.pi, math.pi), tol=st.floats(-14.0, -6.0).map(lambda e: 10.0**e))
def test_dispatcher_follows_the_regime_rule(z, t, tol):
    # inside the cylinder r <= R_SWITCH: the series where it is certified, the
    # image sum on the shell rho >= RHO_SERIES and below the floor, an error
    # below the floor at rho < RHO_SWITCH
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
    elif rho < green.RHO_SWITCH or (rho < green.RHO_SERIES and tol >= green._TOL_FLOOR):
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
    assert float(exact) <= green.k_majorant(x, nu)


@settings(max_examples=150, deadline=None)
@given(r=st.floats(0.05, 20.0), log_tol=st.floats(-15.0, -2.0), nu=st.sampled_from([0, 1]))
def test_mode_counts_minimal_with_bound_below_tol(r, log_tol, nu):
    tol = 10.0**log_tol
    M = int(green._mode_counts(np.array([r]), tol, nu)[0])
    pref = green._tail_prefactor(r, nu)
    assert pref == pytest.approx(r**nu / (math.pi * (1.0 - math.exp(-r))), rel=1e-14)
    assert pref * green.k_majorant((M + 1) * r, nu) <= tol
    if M > 0:
        assert pref * green.k_majorant(M * r, nu) > tol  # M - 1 modes miss tol


@settings(max_examples=150, deadline=None)
@given(r=st.floats(0.05, 20.0), t=st.floats(0.0, TWO_PI), log_tol=st.floats(-15.0, -2.0))
def test_fourier_bessel_bound_is_the_next_mode(r, t, log_tol):
    # G's FB trunc_bound is pref(r) K0((M+1) r) at the count of _mode_counts
    tol = 10.0**log_tol
    M = green.fourier_terms_for(r, tol)
    p = CirclePoint3(complex(r), t)
    g = green.green_fourier_bessel(p, ORIGIN, M)
    assert g.terms == M
    assert g.trunc_bound == green._tail_prefactor(r, 0) * specfn.bessel_k0((M + 1) * r) <= tol
    if r > green.R_SWITCH:
        e = green.green_eval(p, ORIGIN, tol)
        assert e.regime is Regime.FOURIER_BESSEL and e.terms == M
        assert e.trunc_bound == g.trunc_bound and e.value == g.value


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
    1/(4 pi^2 M^2) to leading order, just below its value bound
    C(r)/M^2 <= tol; the Fourier-Bessel series is periodic term by term."""
    return 2.0 * tol if g.regime is Regime.IMAGE_SUM else 0.0


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
    im = green.green_image_sum(p, ORIGIN, math.ceil(math.sqrt(green.image_tail_constant(r) / tol)))
    assert abs(fb.value - im.value) <= fb.trunc_bound + im.trunc_bound + 1e-14
