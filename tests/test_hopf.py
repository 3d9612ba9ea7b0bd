"""Hopf lift: projection algebra, Gibbons-Hawking data, ASD of the lift."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permono import hopf
from permono.errors import OutOfRegimeError
from permono.hopf import Quat4Point


def test_gibbons_hawking_data_refuse_a_subnormal_rho():
    # at rho = 1e-320 1/(2 rho) is not finite: both refuse, as at rho = 0, at a
    # point and in an array of points; rho = 1e-300 still answers. The lift
    # pi^* a - 2 psi fiber_tangent forms no h, so it answers everywhere and is 0 at the origin
    a = [0.1, 0.2, 0.3]
    fns = (hopf.gh_potential, hopf.gibbons_hawking_connection)
    for p in (Quat4Point(0.0, 0.0), Quat4Point(1e-160, 0.0), Quat4Point(0.0, 1e-160j),
              Quat4Point(np.array([1.0, 1e-160]), np.zeros(2))):
        for fn in fns:
            with pytest.raises(OutOfRegimeError):
                fn(p)
        want = np.tensordot(a, hopf.projection_jacobian(p), axes=(0, 0)) - hopf.fiber_tangent(p)
        assert np.array_equal(hopf.lift_form(a, 0.5, p), want)
    assert np.array_equal(hopf.lift_form(a, 0.5, Quat4Point(0.0, 0.0)), np.zeros(4))
    for p, rho in ((Quat4Point(1e-150, 0.0), 1e-300), (Quat4Point(1e150, 0.0), 1e300)):
        assert hopf.gh_potential(p) == 0.5 / rho
        assert all(np.isfinite(fn(p)).all() for fn in fns)
        assert np.isfinite(hopf.hopf_project(p)).all()


def rand_points(n, seed, lo=0.25, hi=1.2):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        p = Quat4Point(
            complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi)),
            complex(rng.uniform(-hi, hi), rng.uniform(-hi, hi)),
        )
        if abs(p.z1) > lo and abs(p.z2) > lo:
            pts.append(p)
    return pts


def base_chart(p):
    """The chart singular_gauge_phase(chart='auto') picks at p, held fixed
    over a whole stencil."""
    return "+" if abs(p.z1) >= abs(p.z2) else "-"


@pytest.mark.parametrize("z1, z2", [(math.nan, 0.5), (0.5, complex(0.0, math.inf)),
                                    (1e160, 0.0), (np.array([1e160, 1.0]), np.zeros(2)), (1e160, 1.0)])
def test_quat_point_rejects_non_finite(z1, z2):
    # rho = |z1|^2 + |z2|^2 must be finite too: at 1e160 it overflowed, so
    # gh_potential raised OverflowError at a point and read h = 0 (with a
    # warning) in an array, and lift_dirac_connection(1, 0, (1e160, 1), "+")
    # returned 0 with no error
    with pytest.raises(ValueError, match="finite"):
        Quat4Point(z1, z2)


def test_projection_poles_and_norm_identity():
    assert np.allclose(hopf.hopf_project(Quat4Point(1, 0)), [1.0, 0.0, 0.0])
    assert np.allclose(hopf.hopf_project(Quat4Point(0, 1)), [-1.0, 0.0, 0.0])
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = Quat4Point(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        assert np.linalg.norm(hopf.hopf_project(p)) == pytest.approx(p.rho, rel=1e-14)


def test_projection_jacobian_algebra():
    for p in rand_points(10, seed=5):
        J = hopf.projection_jacobian(p)
        assert np.allclose(J @ J.T, 4.0 * p.rho * np.eye(3), atol=1e-12)
        assert np.allclose(J @ hopf.fiber_tangent(p), 0.0, atol=1e-12)


def test_theta0_fiber_normalization_and_invariance():
    for p in rand_points(5, seed=8):
        th = hopf.gibbons_hawking_connection(p)
        assert th @ hopf.fiber_tangent(p) == pytest.approx(1.0, abs=1e-12)
        # S^1-invariance: pull back along the action
        for s in (0.4, 2.0):
            q = hopf.circle_act(p, s)
            thq = hopf.gibbons_hawking_connection(q)
            R = oracles.circle_pushforward(s)
            v = np.array([0.3, -0.2, 0.5, 0.1])
            assert thq @ (R @ v) == pytest.approx(th @ v, abs=1e-12)
    with pytest.raises(OutOfRegimeError):
        hopf.gibbons_hawking_connection(Quat4Point(0, 0))


def test_dtheta0_equals_star_dh():
    # *dh = d theta0 (h = 1/(2 rho)) by finite differences, O(h^2) convergence
    p = Quat4Point(0.8 + 0.1j, -0.3 + 0.55j)  # rho ~ 1
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        F = hopf.curvature_fd(hopf.gibbons_hawking_connection, p, h)
        errs.append(np.abs(F - oracles.star_dh(p)).max())
    assert errs[0] <= 1e-2
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


def test_metric_correspondence():
    rng = np.random.default_rng(11)
    for p in rand_points(20, seed=12):
        h = hopf.gh_potential(p)
        th = hopf.gibbons_hawking_connection(p)
        J = hopf.projection_jacobian(p)
        u, v = rng.normal(size=4), rng.normal(size=4)
        gh = h * float(np.dot(J @ u, J @ v)) + (1.0 / h) * (th @ u) * (th @ v)
        assert gh == pytest.approx(oracles.lifted_metric(u, v), abs=1e-10 * (1 + abs(gh)))


def test_lift_form_norm_identity_examples():
    p_half = Quat4Point(math.sqrt(0.5), 0.0)  # rho = 1/2
    assert hopf.lifted_norm_sq(hopf.lift_form([1.0, 0.0, 0.0], 0.0, p_half)) == pytest.approx(1.0, abs=1e-14)
    p_two = Quat4Point(1.0, 1.0)  # rho = 2
    assert hopf.lifted_norm_sq(hopf.lift_form([0.0, 0.0, 0.0], 1.0, p_two)) == pytest.approx(4.0, abs=1e-13)
    z = hopf.lift_form([0.0, 0.0, 0.0], 0.0, p_two)
    assert np.all(z == 0.0) and hopf.lifted_norm_sq(z) == 0.0


def test_lift_form_norm_identity_random():
    rng = np.random.default_rng(21)
    worst = 0.0
    for p in rand_points(100, seed=22, lo=0.05, hi=1.5):
        a = rng.normal(size=3)
        psi = rng.normal()
        lhs = hopf.lifted_norm_sq(hopf.lift_form(a, psi, p))
        rhs = (float(np.dot(a, a)) + psi * psi) / hopf.gh_potential(p)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-12


def test_singular_gauge_flatness_mass_zero():
    # chart '+': w - k dtheta1 = 0 identically, so the gauged connection is 0
    for p in rand_points(6, seed=30):
        for k in (1, 2):
            w = hopf.lift_dirac_connection(k, 0.0, p, chart="+")
            assert np.abs(w - k * hopf._dtheta(p, "+")).max() <= 1e-12
            wm = hopf.lift_dirac_connection(k, 0.0, p, chart="-")
            assert np.abs(wm + k * hopf._dtheta(p, "-")).max() <= 1e-12
            # chart transition is k (dtheta1 + dtheta2)
            trans = w - wm
            assert np.abs(trans - k * (hopf._dtheta(p, "+") + hopf._dtheta(p, "-"))).max() <= 1e-12


def test_flatness_residual_second_order():
    p = Quat4Point(0.6 - 0.3j, 0.5 + 0.4j)
    errs = []
    for h in (0.02, 0.01, 0.005):
        F = hopf.curvature_fd(lambda q: hopf.lift_dirac_connection(1, 0.0, q, base_chart(p)), p, h)
        errs.append(float(np.abs(F).max()))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_asd_residual_second_order(mass):
    pts = rand_points(8, seed=40)
    hs = (0.02, 0.01, 0.005)
    res = []
    for h in hs:
        worst = 0.0
        for p in pts:
            F = hopf.curvature_fd(
                lambda q: hopf.lift_dirac_connection(1, mass, q, base_chart(p)), p, h
            )
            worst = max(worst, hopf.self_dual_part_norm(F))
        res.append(worst)
    slope = np.polyfit(np.log2(hs), np.log2(res), 1)[0]
    assert slope >= 1.8


def test_curvature_matches_analytic_constant():
    for p in rand_points(5, seed=50):
        for mass in (0.5, 2.0):
            F = hopf.curvature_richardson(
                lambda q: hopf.lift_dirac_connection(1, mass, q, base_chart(p)), p, 1e-2
            )
            assert np.abs(F - hopf.dirac_curvature_analytic(mass)).max() <= 1e-9
            # the charge part of the lift is flat, so by the Bogomolny equation
            # |F|^2 = 2 |d(h^{-1} Phi)|^2 = 2 |d(2 mass rho theta0)|^2 = 8 mass^2,
            # whatever the charge and the point
            got = oracles.curvature_norm_sq_lifted(F)
            want = 8.0 * mass**2
            assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_lift_matches_lift_form_of_dirac_pair():
    # the closed form against lift_form of a+- = (k/2)(+-1 - cos theta) dphi,
    # psi = mass - k/(2 rho), built on the base at X = hopf_project(p)
    rng = np.random.default_rng(70)
    worst = 0.0
    for p in rand_points(200, seed=71, lo=0.05, hi=1.5):
        X = hopf.hopf_project(p)
        rho = float(np.linalg.norm(X))
        k, mass = int(rng.integers(-3, 4)), float(rng.uniform(-2.0, 2.0))
        for chart, sign in (("+", 1.0), ("-", -1.0)):
            f = 0.5 * k * (sign - X[0] / rho) / (X[1] ** 2 + X[2] ** 2)
            a = np.array([0.0, -f * X[2], f * X[1]])  # f (X2 dX3 - X3 dX2)
            want = hopf.lift_form(a, mass - k / (2.0 * rho), p)
            got = hopf.lift_dirac_connection(k, mass, p, chart)
            worst = max(worst, np.abs(got - want).max() / max(1.0, np.abs(want).max()))
    assert worst <= 1e-12


def test_equivariance_of_lift_and_gauge_weight():
    # the lifted connection is invariant under the circle action; the singular
    # gauge transforms with weight k
    for p in rand_points(5, seed=60):
        for s in (0.7, 1.9):
            q = hopf.circle_act(p, s)
            R = oracles.circle_pushforward(s)
            v = np.array([0.2, 0.1, -0.4, 0.3])
            wp = hopf.lift_dirac_connection(1, 1.0, p, chart="+")
            wq = hopf.lift_dirac_connection(1, 1.0, q, chart="+")
            assert wq @ (R @ v) == pytest.approx(wp @ v, abs=1e-12)
            for k in (1, 3):
                gp = hopf.singular_gauge_phase(k, p, chart="+")
                gq = hopf.singular_gauge_phase(k, q, chart="+")
                assert gq == pytest.approx(gp * np.exp(1j * k * s), abs=1e-12)


def test_axis_rejection():
    with pytest.raises(OutOfRegimeError):
        hopf.lift_dirac_connection(1, 0.0, Quat4Point(0.0, 1.0), chart="+")
    with pytest.raises(OutOfRegimeError):
        hopf.lift_dirac_connection(1, 0.0, Quat4Point(1e-9, 1e-9), chart="+")


def test_lift_chart_is_explicit():
    p = Quat4Point(0.8, 0.3j)
    for chart in ("auto", "x"):
        with pytest.raises(ValueError):
            hopf.lift_dirac_connection(1, 1.0, p, chart)
    with pytest.raises(ValueError):
        hopf.singular_gauge_phase(1, p, chart="x")
    assert hopf.singular_gauge_phase(1, p, chart="auto") == hopf.singular_gauge_phase(1, p, chart="+")


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_lift_rejects_non_finite_mass(mass):
    p = Quat4Point(0.8, 0.3j)
    with pytest.raises(ValueError, match="finite"):
        hopf.lift_dirac_connection(1, mass, p, "+")
    # and the curvature stencil rejects a step that is not finite and > 0
    for h in (0.0, -1e-2, mass):
        with pytest.raises(ValueError, match="finite and > 0"):
            hopf.curvature_richardson(lambda q: hopf.lift_dirac_connection(1, 1.0, q, "+"), p, h)


@pytest.mark.parametrize("mass", [0.5, 2.0])
def test_curvature_across_equal_moduli(mass):
    # ||z1| - |z2|| = 1e-3 < h: the stencil straddles |z1| = |z2|, where a
    # per-point chart choice would switch gauge inside it
    p = Quat4Point(0.972 * np.exp(0.3j), 0.971 * np.exp(-1.1j))
    h = 1e-2
    assert abs(abs(p.z1) - abs(p.z2)) < h
    for chart in ("+", "-"):
        F = hopf.curvature_richardson(lambda q: hopf.lift_dirac_connection(1, mass, q, chart), p, h)
        assert hopf.self_dual_part_norm(F) <= 1e-9
        assert np.abs(F - hopf.dirac_curvature_analytic(mass)).max() <= 1e-9


@pytest.mark.parametrize("call", [
    lambda p: hopf.lift_dirac_connection(1.5, 1.0, p, "+"),
    lambda p: hopf.lift_dirac_connection(np.nan, 1.0, p, "+"),
    lambda p: hopf.singular_gauge_phase(0.5, p),
    lambda p: hopf.lift_dirac_connection(True, 1.0, p, "+"),
])
def test_charges_must_be_integers(call):
    with pytest.raises(ValueError, match="charge k must be an integer"):
        call(Quat4Point(0.8, 0.3j))


@pytest.mark.parametrize("psi", [math.nan, math.inf])
def test_lift_form_rejects_non_finite_psi(psi):
    with pytest.raises(ValueError, match="psi must be finite"):
        hopf.lift_form([0.1, 0.2, 0.3], psi, Quat4Point(0.8, 0.3j))


@pytest.mark.parametrize("a", [[math.inf, 0.0, 0.0], [0.1, math.nan, 0.3], [0.0, 0.0, -math.inf]])
def test_lift_form_rejects_non_finite_a(a):
    # a = [inf, 0, 0] lifted to [inf, nan, nan, -inf]
    with pytest.raises(ValueError, match="a and psi must be finite"):
        hopf.lift_form(a, 0.5, Quat4Point(0.8, 0.3j))


def test_quat_point_holds_arrays_of_one_shape():
    z1, z2 = np.array([0.5 + 0.1j, -0.3j]), np.array([0.2, 0.7 + 0.7j])
    p = Quat4Point(z1, z2)
    assert np.array([p.z1.real, p.z1.imag, p.z2.real, p.z2.imag]).shape == (4, 2)
    for i in range(2):
        q = Quat4Point(z1[i], z2[i])
        assert np.array_equal(hopf.fiber_tangent(p)[:, i], hopf.fiber_tangent(q))
        assert np.array_equal(hopf.lift_dirac_connection(2, 0.5, p, "+")[:, i],
                              hopf.lift_dirac_connection(2, 0.5, q, "+"))
    with pytest.raises(ValueError, match="one shape"):
        Quat4Point(z1, z2[:1])
    with pytest.raises(OutOfRegimeError):
        hopf.lift_dirac_connection(1, 0.0, Quat4Point(z1, np.array([0.2, 0.0])), "-")


@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_forms_of_point_array_are_pointwise(shape):
    # at 4 points a transposed (point, component) array still broadcasts
    pts = rand_points(math.prod(shape), seed=80)
    p = Quat4Point(np.array([q.z1 for q in pts]).reshape(shape),
                   np.array([q.z2 for q in pts]).reshape(shape))
    a, psi = np.array([0.3, -0.2, 0.5]), 0.7
    th, lift = hopf.gibbons_hawking_connection(p), hopf.lift_form(a, psi, p)
    assert th.shape == lift.shape == (4, *shape)
    # equal to rounding: numpy's complex abs and Python's may differ in the last bit
    for i, q in enumerate(pts):
        assert np.abs(th.reshape(4, -1)[:, i] - hopf.gibbons_hawking_connection(q)).max() <= 1e-15
        assert np.abs(lift.reshape(4, -1)[:, i] - hopf.lift_form(a, psi, q)).max() <= 1e-14
    # theta0 is dual to the fiber, whose g_hat length squared is 1/h
    assert np.abs(hopf.lifted_norm_sq(th) - hopf.gh_potential(p)).max() <= 1e-14


@settings(max_examples=60, deadline=None)
@given(mods=st.lists(st.tuples(st.floats(0.25, 1.2), st.floats(0.25, 1.2)), min_size=6, max_size=6),
       angs=st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
                     min_size=6, max_size=6),
       k=st.integers(-3, 3))
def test_point_functions_at_an_array_point_are_pointwise(mods, angs, k):
    z1 = np.array([m[0] * np.exp(1j * a[0]) for m, a in zip(mods, angs)])
    z2 = np.array([m[1] * np.exp(1j * a[1]) for m, a in zip(mods, angs)])
    p = Quat4Point(z1.reshape(2, 3), z2.reshape(2, 3))
    at = {
        "hopf_project": hopf.hopf_project,
        "fiber_tangent": hopf.fiber_tangent,
        "projection_jacobian": hopf.projection_jacobian,
        "gh_potential": hopf.gh_potential,
        **{f"phase {c}": lambda q, c=c: hopf.singular_gauge_phase(k, q, c) for c in ("+", "-", "auto")},
    }
    for name, fn in at.items():
        got = np.asarray(fn(p))
        for i, j in np.ndindex(2, 3):
            want = fn(Quat4Point(complex(z1[3 * i + j]), complex(z2[3 * i + j])))
            # equal to rounding: numpy's complex abs and Python's may differ in the last bit
            assert np.abs(got[..., i, j] - want).max() <= 1e-15 * max(1.0, np.abs(want).max()), name
    # 'auto' takes chart '+' exactly where |z1| >= |z2|, point by point
    plus = np.abs(p.z1) >= np.abs(p.z2)
    assert np.array_equal(hopf.singular_gauge_phase(k, p, "auto"),
                          np.where(plus, hopf.singular_gauge_phase(k, p, "+"), hopf.singular_gauge_phase(k, p, "-")))


@pytest.mark.parametrize("shape", [(2,), (4,), (2, 3)])
@pytest.mark.parametrize("curvature", [hopf.curvature_fd, hopf.curvature_richardson])
def test_curvature_takes_one_point(curvature, shape):
    # an array of 4 points would broadcast against the 4 stencil directions
    pts = rand_points(math.prod(shape), seed=90)
    p = Quat4Point(np.array([q.z1 for q in pts]).reshape(shape),
                   np.array([q.z2 for q in pts]).reshape(shape))
    with pytest.raises(ValueError, match="one point"):
        curvature(lambda q: hopf.lift_dirac_connection(1, 1.0, q, "+"), p, 1e-2)


def per_point_richardson(form_fn, p, h):
    """The Richardson curvature with one scalar form_fn call per stencil point,
    stepped in the real coordinates x1..x4."""
    x = np.array([p.z1.real, p.z1.imag, p.z2.real, p.z2.imag])

    def fd(step):
        grad = np.zeros((4, 4))  # grad[mu, nu] = d_mu w_nu
        for mu in range(4):
            e = np.zeros(4)
            e[mu] = step
            wp = form_fn(Quat4Point(complex(*(x + e)[:2]), complex(*(x + e)[2:])))
            wm = form_fn(Quat4Point(complex(*(x - e)[:2]), complex(*(x - e)[2:])))
            grad[mu] = (wp - wm) / (2.0 * step)
        return np.array([grad[mu, nu] - grad[nu, mu] for mu, nu in hopf._PAIRS])

    return (4.0 * fd(0.5 * h) - fd(h)) / 3.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-3, 3), mass=st.floats(0.0, 1.5),
       mod=st.tuples(st.floats(0.25, 1.2), st.floats(0.25, 1.2)),
       ang=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
       chart=st.sampled_from(["+", "-"]))
def test_richardson_lifts_its_stencil_in_one_call(k, mass, mod, ang, chart):
    p = Quat4Point(mod[0] * np.exp(1j * ang[0]), mod[1] * np.exp(1j * ang[1]))
    lift = hopf.lift_dirac_connection
    calls = []

    def counted(*args):
        calls.append(args)
        return lift(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopf, "lift_dirac_connection", counted)
        F = hopf.curvature_richardson(lambda q: hopf.lift_dirac_connection(k, mass, q, chart), p, 1e-2)
    assert len(calls) == 1 and np.shape(calls[0][2].z1) == (2, 2, 4)
    want = per_point_richardson(lambda q: lift(k, mass, q, chart), p, 1e-2)
    assert np.abs(F - want).max() <= 1e-12
