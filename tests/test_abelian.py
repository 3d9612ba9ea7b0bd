"""Abelian monopole fields: radial gauge, holonomy, asymptotics, residuals."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

import oracles
from permono import abelian, green, specfn
from permono.abelian import AbelianMonopole, DiracTerm, Kind
from permono.errors import OutOfRegimeError, SingularPointError
from permono.green import ORIGIN, CirclePoint3

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def unit_monopole(v=0.0, b=0.0, charge=1, center=ORIGIN):
    return AbelianMonopole([DiracTerm(center, charge)], v=v, b=b)


def test_term_validation():
    with pytest.raises(ValueError):
        DiracTerm(ORIGIN, 0)
    for charge in (0.5, math.nan, 1.0, True):
        with pytest.raises(ValueError, match="integer"):
            DiracTerm(ORIGIN, charge)
    assert abelian.winding_number(AbelianMonopole([DiracTerm(ORIGIN, np.int64(2))]), 3.0) == -2
    with pytest.raises(ValueError):
        AbelianMonopole([DiracTerm(ORIGIN, 1), DiracTerm(CirclePoint3(0, TWO_PI), 1)])
    for v, b in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            AbelianMonopole([], v=v, b=b)
    with pytest.raises(ValueError, match="finite"):
        abelian.higgs(unit_monopole(), CirclePoint3(3.0, 0.0), math.inf)


@pytest.mark.parametrize("b", [-1e-20, -5e-324, -0.0, 1.0, 3.0, -2.0])
def test_flat_twist_folds_into_unit_interval(b):
    # float(b) % 1.0 rounds a tiny negative b to 1.0, and a_t read 1.0 for 0
    m = unit_monopole(v=1.0, b=b)
    assert 0.0 <= m.b < 1.0
    assert abelian.connection_radial_gauge(m, CirclePoint3(3.0, 0.5)).a_t == m.b
    z = 2.0 + 1.5j
    want = cmath.exp(-1j * cmath.phase(z) - 2j * math.pi * b)
    assert abs(abelian.holonomy(m, z) - want) <= 4 * EPS


@pytest.mark.parametrize("kind", ["Periodic", "Euclidean", None, 0])
def test_term_kind_must_be_a_kind(kind):
    # a string kind once matched neither Kind, so the term silently dropped out
    with pytest.raises(ValueError, match="must be a Kind"):
        DiracTerm(CirclePoint3(0.5, 0.0), 1, kind)


def test_higgs_vacuum_everywhere():
    m = abelian.vacuum(2.5, 0.7)
    for p in (CirclePoint3(1.0, 0.0), CirclePoint3(-3.0 + 2.0j, 4.0)):
        assert abelian.higgs(m, p) == 2.5


def test_higgs_near_singularity_multipole_profile():
    m = unit_monopole(v=0.0)
    rho = 0.01
    h = abelian.higgs(m, CirclePoint3(complex(rho), 0.0), tol=1e-12)
    # the K = 0 Legendre-zeta bound zeta(3) rho^2/(8 pi^3 (1 - x)) <= 0.00517 rho^2
    assert h == pytest.approx(0.5 * green.A0 - 0.5 / rho, abs=0.00517 * rho**2 + 1e-12)


def test_higgs_negative_charge_flips_sign():
    plus = unit_monopole(charge=1)
    minus = unit_monopole(charge=-1)
    p = CirclePoint3(0.05, 0.0)
    assert abelian.higgs(minus, p, 1e-12) == pytest.approx(-abelian.higgs(plus, p, 1e-12), abs=1e-11)
    # the singular part flips sign: -G blows up to +infinity at the pole
    assert abelian.higgs(plus, p, 1e-12) < 0.0 < abelian.higgs(minus, p, 1e-12)


def test_higgs_euclidean_term_is_coulomb():
    c = CirclePoint3(1.0, 2.0)
    m = AbelianMonopole([DiracTerm(c, 2, Kind.EUCLIDEAN)], v=5.0)
    p = CirclePoint3(1.0 + 0.5j, 2.0)
    assert abelian.higgs(m, p) == pytest.approx(5.0 - 1.0 / 0.5, abs=1e-14)
    with pytest.raises(SingularPointError):
        abelian.higgs(m, c)
    # near the centre a term answers while 2 rho^3 is a normal float (green_multipole's
    # rule): below it the gradient's d/(2 rho^3) overflows, and from rho ~ 1e-154 on
    # the subnormal d . d costs the value its digits
    unit = AbelianMonopole([DiracTerm(ORIGIN, 1, Kind.EUCLIDEAN)], v=1.0)
    close = CirclePoint3(1e-100, 0.0)
    assert abelian.higgs(unit, close) == pytest.approx(1.0 - 0.5e100, rel=1e-15)
    np.testing.assert_allclose(abelian.higgs_gradient(unit, close), [0.5e200, 0.0, 0.0], rtol=1e-15)
    for rho in (1e-110, 1e-160, 1e-200):
        for field in (abelian.higgs, abelian.higgs_gradient):
            with pytest.raises(SingularPointError):
                field(unit, CirclePoint3(rho, 0.0))


def test_higgs_additivity_over_terms():
    m1 = unit_monopole(v=1.0, charge=2)
    m2 = AbelianMonopole([DiracTerm(CirclePoint3(2.0, 1.0), -1)], v=0.5)
    both = AbelianMonopole(m1.terms + m2.terms, v=1.5)
    p = CirclePoint3(1.0 + 1.0j, 0.3)
    assert abelian.higgs(both, p, 1e-12) == pytest.approx(
        abelian.higgs(m1, p, 1e-12) + abelian.higgs(m2, p, 1e-12), abs=1e-11
    )


def three_term_monopole():
    terms = [
        DiracTerm(ORIGIN, 2),
        DiracTerm(CirclePoint3(0.9 + 0.6j, 0.3), -1),
        DiracTerm(CirclePoint3(-0.7 - 0.8j, TWO_PI - 0.2), 1),
    ]
    return AbelianMonopole(terms, v=1.0, b=0.25)


def test_higgs_gradient_matches_central_differences():
    m = three_term_monopole()
    step = 1e-4
    far = CirclePoint3(2.5 + 1.5j, 1.0)
    near = CirclePoint3(0.9 + 0.6j + (0.2 + 0.1j), 0.6)
    shell = CirclePoint3(0.9 + 0.6j + (0.2 + 0.1j), 2.3)  # dt = 2.0 from the charge -1 term

    def regimes(p, tol):
        # higgs evaluates each term at tol / (number of terms)
        return {green.green_eval(p, term.center, tol / len(m.terms)).regime for term in m.terms}

    assert regimes(far, 1e-12) == {green.Regime.FOURIER_BESSEL}
    assert green.Regime.MULTIPOLE in regimes(near, 1e-12)  # 3.3e-13 per term: the series
    assert green.Regime.MULTIPOLE in regimes(near, 3e-12)  # 1e-12 per term: the series
    assert green.Regime.IMAGE_SUM in regimes(shell, 1e-12)  # rho >= pi/2 inside r <= 0.5
    # the same monopole with a Euclidean term
    euclid = DiracTerm(CirclePoint3(2.0 + 1.0j, 1.0 - 2.8), -1, Kind.EUCLIDEAN)
    mixed = AbelianMonopole(m.terms + [euclid], v=1.0, b=0.25)
    for mono, p, tol in ((m, far, 1e-12), (m, near, 1e-12), (m, near, 3e-12), (m, shell, 1e-12),
                         (mixed, far, 1e-12)):
        got = abelian.higgs_gradient(mono, p, tol)
        fd = []
        for e in (1.0, 1j):
            up = abelian.higgs(mono, CirclePoint3(p.z + step * e, p.t), tol)
            dn = abelian.higgs(mono, CirclePoint3(p.z - step * e, p.t), tol)
            fd.append((up - dn) / (2 * step))
        up = abelian.higgs(mono, CirclePoint3(p.z, p.t + step), tol)
        dn = abelian.higgs(mono, CirclePoint3(p.z, p.t - step), tol)
        fd.append((up - dn) / (2 * step))
        assert np.abs(got - np.array(fd)).max() <= 1e-6 * (1.0 + np.abs(got).max())


def grid_fields(m, X, Y, T, h):
    """phi, a_x and a_y on the grid as products of the residual's factors,
    with the row-range builder called for all rows."""
    planes, C, S, _, _ = abelian._grid_planes(m, X, Y, T, h)
    Fp, Fx, Fy = np.empty((3, C.shape[0], X.size, Y.size))
    abelian._factor_rows(planes, 0, X.size, Fp, Fx, Fy)
    phi, a_x, a_y = (np.tensordot(F, basis, (0, 0)) for F, basis in ((Fp, C), (Fx, S), (Fy, S)))
    return m.v + phi, a_x, a_y


def test_grid_fields_match_pointwise_fields():
    # the factor products against the pointwise series, at seeded nodes
    X = np.arange(3.2, 4.0, 0.1)
    Y = np.arange(-1.0, 1.0, 0.1)
    T = np.arange(-1.5, 1.5, 0.1)
    rng = np.random.default_rng(7)
    nodes = list(zip(*(rng.integers(0, n, 12) for n in (X.size, Y.size, T.size))))
    m = three_term_monopole()
    phi, _, _ = grid_fields(m, X, Y, T, 0.1)
    single = AbelianMonopole([DiracTerm(CirclePoint3(0.9 + 0.6j, 0.3), -1)], v=1.0, b=0.25)
    _, a_x, a_y = grid_fields(single, X, Y, T, 0.1)
    for i, j, k in nodes:
        p = CirclePoint3(complex(X[i], Y[j]), T[k])
        assert abs(phi[i, j, k] - abelian.higgs(m, p, 1e-13)) <= 1e-12
        dz = p.z - single.terms[0].center.z
        a_theta = dz.real * a_y[i, j, k] - dz.imag * a_x[i, j, k]
        want = abelian.connection_radial_gauge(single, p, tol=1e-14).a_theta
        assert abs(a_theta - want) <= 1e-12


def test_higgs_is_vacuum_plus_charge_weighted_green():
    m = three_term_monopole()
    m.terms.append(DiracTerm(CirclePoint3(-2.0 + 1.0j, 1.0), -1, Kind.EUCLIDEAN))
    tol = 1e-10
    n = len(m.terms)
    for p in (CirclePoint3(2.5 + 1.5j, 1.0), CirclePoint3(1.1 + 0.7j, 0.6),
              CirclePoint3(1e-5j, 2e-5), CirclePoint3(-3.0 - 2.0j, 4.0),
              CirclePoint3(1.5 - 2.0j, 5.0)):  # t - 1.0 = 4.0 reduces to 4.0 - 2 pi
        want = m.v
        want_grad = np.zeros(3)
        for term in m.terms[:3]:
            g = green.green_eval(p, term.center, tol / n)
            want += term.charge * g.value
            want_grad += term.charge * g.grad
        e = m.terms[3]
        d = np.array([p.x - e.center.x, p.y - e.center.y, green.reduce_angle_signed(p.t - e.center.t)])
        rho = np.linalg.norm(d)
        want += 1.0 / (2.0 * rho)
        want_grad -= d / (2.0 * rho**3)
        assert abs(abelian.higgs(m, p, tol) - want) <= 1e-14 * max(1.0, abs(want))
        assert np.abs(abelian.higgs_gradient(m, p, tol) - want_grad).max() <= 1e-14 * max(
            1.0, np.abs(want_grad).max())


#: the Bogomolny box of the benchmark's monopole frames: 64^3 nodes at h = 0.05
BENCH_BOX = ((3.2, 6.35), (-1.6, 1.55), (-1.55, 1.6))


def field_difference_residual(m, box, h):
    """The residual from central differences of phi, a_x and a_y built on
    every grid node (per term: log/linear part plus the Fourier-Bessel modes
    m <= the node's ``_mode_counts`` count, from scipy's K0/K1), as an oracle
    for the factor-basis residual."""
    X, Y, T = (np.arange(lo, hi + 0.5 * h, h) for lo, hi in box)
    Z = (X[:, None] + 1j * Y[None, :]).ravel()
    phi = np.full((Z.size, T.size), m.v)
    a_x = np.zeros_like(phi)
    a_y = np.zeros_like(phi)
    for term in m.terms:
        k = term.charge
        dz = Z - term.center.z
        r = np.abs(dz)
        dt = np.array([green.reduce_angle_signed(t - term.center.t) for t in T])
        M = green._mode_counts(r, abelian._GRID_TOL / abs(k), 1)
        mode = np.arange(1, M.max() + 1)
        x = np.multiply.outer(r, mode)
        keep = mode <= M[:, None]
        k0, k1 = np.where(keep, special.k0(x), 0.0), np.where(keep, special.k1(x), 0.0)
        mt = np.multiply.outer(mode, dt)
        phi += k * (np.log(r)[:, None] / TWO_PI - k0 @ np.cos(mt) / math.pi)
        a_theta = k * ((0.5 - dt / TWO_PI)[None, :] - (r[:, None] * k1) @ np.sin(mt) / math.pi)
        a_x -= a_theta * (dz.imag / r**2)[:, None]
        a_y += a_theta * (dz.real / r**2)[:, None]
    phi, a_x, a_y = (f.reshape(X.size, Y.size, T.size) for f in (phi, a_x, a_y))

    def d(f, axis):
        hi = [slice(1, -1)] * 3
        lo = list(hi)
        hi[axis], lo[axis] = slice(2, None), slice(0, -2)
        return f[tuple(hi)] - f[tuple(lo)]

    res_x = -d(a_y, 2) - d(phi, 0)
    res_y = d(a_x, 2) - d(phi, 1)
    res_t = d(a_y, 0) - d(a_x, 1) - d(phi, 2)
    return float(np.sqrt((res_x**2 + res_y**2 + res_t**2).max())) / (2.0 * h)


def slab_box(nx):
    """A box with nx x-nodes at h = 0.05 for the three-term monopole."""
    box = ((3.2, 3.2 + 0.05 * (nx - 1)), (-0.5, 0.5), (-0.5, 0.5))
    assert np.arange(box[0][0], box[0][1] + 0.025, 0.05).size == nx
    return box


@pytest.mark.parametrize("make, box, h", [
    (three_term_monopole, BENCH_BOX, 0.05),
    (lambda: unit_monopole(v=0.5, b=0.1), ((2.5, 4.5), (-1.0, 1.0), (-1.0, 1.5)), 0.1),
    (lambda: AbelianMonopole([DiracTerm(CirclePoint3(0.3 - 0.2j, 1.0), -3),
                              DiracTerm(CirclePoint3(-0.4 + 0.5j, 5.0), 2)], v=0.5, b=0.1),
     ((2.6, 3.5), (-0.4, 0.5), (-0.9, 0.0)), 0.03),
    # 3, 18 and 37 x-nodes: less than one slab, exactly one, and not a multiple
    *((three_term_monopole, slab_box(nx), 0.05) for nx in (3, 18, 37)),
], ids=["three-term", "unit", "charges-3-2", "x3", "x18", "x37"])
def test_residual_matches_field_differences(make, box, h):
    # the t-differences as column weights of the factor basis against
    # differences of the fields themselves
    m = make()
    got = abelian.bogomolny_residual(m, box, h)
    want = field_difference_residual(m, box, h)
    assert want > 0.0
    assert abs(got - want) <= 1e-12


def test_kernel_traffic_of_residual_and_green(monkeypatch):
    # every K0/K1 call goes through specfn's module attributes (the tracer's view)
    sizes = []
    for name in ("bessel_k0", "bessel_k1"):
        def counted(x, kernel=getattr(specfn, name)):
            sizes.append(np.size(x))
            return kernel(x)
        monkeypatch.setattr(specfn, name, counted)
    got = abelian.bogomolny_residual(three_term_monopole(), BENCH_BOX, 0.05)
    assert got == pytest.approx(1.1288722445160181e-4, rel=1e-15, abs=0.0)
    assert len(sizes) == 30 and sum(sizes) == 168_858
    sizes.clear()
    g = green.green_eval(CirclePoint3(2.0 + 1.0j, 0.7), ORIGIN, 1e-12)
    assert g.regime is green.Regime.FOURIER_BESSEL and len(sizes) == 2


def test_residual_memory_is_bounded_by_the_slab():
    # tracemalloc peak of one call: the slab buffers do not grow with nx
    m = three_term_monopole()
    longer = ((3.2, 3.2 + 0.05 * 255), *BENCH_BOX[1:])
    peaks = []
    for box in (BENCH_BOX, longer):
        abelian.bogomolny_residual(m, box, 0.05)
        tracemalloc.start()
        try:
            abelian.bogomolny_residual(m, box, 0.05)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 4e6
    assert peaks[1] <= 2.0 * peaks[0]


def test_per_node_mode_counts_match_global_count(monkeypatch):
    # every node summing the count of the grid's smallest r, as a reference
    m = three_term_monopole()
    h = 0.05
    axes = [np.arange(lo, hi + 0.5 * h, h) for lo, hi in BENCH_BOX]
    fields = grid_fields(m, *axes, h)
    residual = abelian.bogomolny_residual(m, BENCH_BOX, h)
    per_node = green._mode_counts
    calls = []

    def global_count(r, tol, nu):
        calls.append(r.shape)
        M = per_node(r, tol, nu)
        return np.full_like(M, M.max())

    monkeypatch.setattr(green, "_mode_counts", global_count)
    ref_fields = grid_fields(m, *axes, h)
    ref_residual = abelian.bogomolny_residual(m, BENCH_BOX, h)
    assert calls == [(64, 64)] * 6  # three terms, twice, each on the whole planar grid
    for f, ref in zip(fields, ref_fields):
        assert np.abs(f - ref).max() <= 1e-14
    assert abs(residual - ref_residual) <= 1e-12


def test_radial_gauge_requires_single_term_and_exterior():
    m = unit_monopole()
    with pytest.raises(OutOfRegimeError):
        abelian.connection_radial_gauge(m, CirclePoint3(1.0, 0.0))
    two = AbelianMonopole([DiracTerm(ORIGIN, 1), DiracTerm(CirclePoint3(1.0, 0), 1)])
    with pytest.raises(ValueError):
        abelian.connection_radial_gauge(two, CirclePoint3(3.0, 0.0))


def test_radial_gauge_coclosed():
    # the gauge has a_r = 0, theta-independent a_theta/r and constant a_t,
    # so every term of the cylindrical divergence vanishes by construction
    m = unit_monopole(v=1.0, b=0.4)
    delta = 1e-3
    worst = 0.0
    for (r, t) in [(2.5, 0.7), (4.0, 2.0), (3.0, 5.5)]:
        # d/dtheta at fixed r, dt: rotate the evaluation point about the center
        s0 = abelian.connection_radial_gauge(m, CirclePoint3(r * cmath.exp(0.0j), t))
        sp = abelian.connection_radial_gauge(m, CirclePoint3(r * cmath.exp(1j * delta), t))
        sm = abelian.connection_radial_gauge(m, CirclePoint3(r * cmath.exp(-1j * delta), t))
        div = (sp.a_theta / r - sm.a_theta / r) / (2 * delta) / r
        # d/dt of a_t
        tp = abelian.connection_radial_gauge(m, CirclePoint3(complex(r), t + delta))
        tm = abelian.connection_radial_gauge(m, CirclePoint3(complex(r), t - delta))
        div += (tp.a_t - tm.a_t) / (2 * delta)
        worst = max(worst, abs(div))
        assert s0.a_t == m.b
    assert worst <= 1e-10


@settings(max_examples=200, deadline=None)
@given(r=st.floats(2.0, 8.0), angle=st.floats(-math.pi, math.pi), t=st.floats(-10.0, 10.0),
       k=st.sampled_from([-3, -2, -1, 1, 2, 3]), log_tol=st.floats(-14.0, -8.0))
def test_radial_gauge_matches_scipy_mode_sum(r, angle, t, k, log_tol):
    # the same count of _mode_counts, with the radial factors from scipy
    tol = 10.0**log_tol
    center = CirclePoint3(0.4 - 0.3j, 2.0)
    p = CirclePoint3(center.z + r * cmath.exp(1j * angle), t)
    rr = abs(p.z - center.z)
    assume(rr >= 2.0)
    m = AbelianMonopole([DiracTerm(center, k)], v=0.7, b=0.2)
    fs = abelian.connection_radial_gauge(m, p, tol)
    dt = green.reduce_angle_signed(p.t - center.t)
    mode = np.arange(1, int(green._mode_counts(rr, tol / abs(k), 1)) + 1)
    higgs = m.v + k * (math.log(rr) / TWO_PI - float(special.k0(mode * rr) @ np.cos(mode * dt)) / math.pi)
    a_theta = k * (0.5 - dt / TWO_PI - rr * float(special.k1(mode * rr) @ np.sin(mode * dt)) / math.pi)
    assert abs(fs.higgs - higgs) <= 1e-15 * max(abs(higgs), 1.0)
    assert abs(fs.a_theta - a_theta) <= 1e-15 * max(abs(a_theta), 1.0)
    assert fs.a_t == m.b


def test_radial_gauge_exponential_decay():
    m = unit_monopole(b=0.0)
    fs = abelian.connection_radial_gauge(m, CirclePoint3(6.0, 1.0))
    flat = -1.0 / TWO_PI + 0.5
    assert abs(fs.a_theta - flat) <= 10.0 * math.exp(-6.0)


def test_radial_gauge_bessel_sum_vs_quadrature():
    # closed form of -int_r^inf r' d_t psi dr' via int x K0 = -x K1
    r, t = 3.0, 1.0
    m = unit_monopole()
    fs = abelian.connection_radial_gauge(m, CirclePoint3(complex(r), t), tol=1e-14)
    closed = fs.a_theta - (-t / TWO_PI + 0.5)

    def dpsi_dt(rp):
        ks = np.arange(1, 60)
        return float(np.sum(ks * specfn.bessel_k0(ks * rp) * np.sin(ks * t))) / math.pi

    val, _ = quad(lambda rp: rp * dpsi_dt(rp), r, 60.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert abs(closed - (-val)) <= 1e-8


def test_holonomy_closed_form_examples():
    m = unit_monopole(b=0.0)
    assert abelian.holonomy(m, 1.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert abelian.holonomy(m, 1j) == pytest.approx(-1j, abs=1e-12)
    mb = unit_monopole(b=0.5)
    for z in (1.0, 2.0 + 1.0j):
        assert abelian.holonomy(mb, z) == pytest.approx(-abelian.holonomy(m, z), abs=1e-12)
    with pytest.raises(SingularPointError):
        abelian.holonomy(m, 0.0)
    for z in (complex(math.inf, 0.0), math.nan, complex(1.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            abelian.holonomy(m, z)


def test_holonomy_integral_route_matches():
    m = unit_monopole(b=0.25)
    for ang in np.linspace(-2.8, 2.8, 7):
        z = 2.0 * cmath.exp(1j * ang)
        assert abs(oracles.holonomy_integral(m, z) - abelian.holonomy(m, z)) <= 1e-6
    three = three_term_monopole()
    for z in (2.0 + 1.0j, -1.5 + 0.2j):
        assert abs(oracles.holonomy_integral(three, z) - abelian.holonomy(three, z)) <= 1e-6
    assert oracles.holonomy_integral(abelian.vacuum(0.0, 0.3), 1.0) == pytest.approx(
        abelian.holonomy(abelian.vacuum(0.0, 0.3), 1.0), abs=1e-15)


def test_holonomy_multiplicative_over_terms():
    m1 = unit_monopole(b=0.2)
    m2 = AbelianMonopole([DiracTerm(CirclePoint3(1.0 + 1.0j, 2.0), -2)], b=0.45)
    msum = AbelianMonopole(m1.terms + m2.terms, b=0.65)
    for z in (3.0, -2.0 + 0.5j):
        prod = abelian.holonomy(m1, z) * abelian.holonomy(m2, z)
        assert abs(abelian.holonomy(msum, z) - prod) <= 1e-10


def test_holonomy_gauge_consistency():
    # quadrature of a_t around the fiber plus the angle phase = holonomy
    m = unit_monopole(v=1.0, b=0.37)
    for z in (3.0, 2.5j):
        ts = np.linspace(0.0, TWO_PI, 65)
        a_t = [abelian.connection_radial_gauge(m, CirclePoint3(z, t)).a_t for t in ts]
        circ = np.trapezoid(a_t, ts)
        theta = math.atan2(complex(z).imag, complex(z).real)
        recon = cmath.exp(-1j * (circ + theta))
        assert abs(recon - abelian.holonomy(m, z)) <= 1e-6


def test_winding_matches_total_charge():
    cases = [
        (unit_monopole(), -1),
        (AbelianMonopole([DiracTerm(ORIGIN, 2), DiracTerm(CirclePoint3(1.0, 1.0), 1)]), -3),
        (AbelianMonopole([DiracTerm(ORIGIN, 1), DiracTerm(CirclePoint3(0.5, 0.0), -1)]), 0),
    ]
    for m, expect in cases:
        assert abelian.winding_number(m, 8.0) == expect
        assert expect == -m.total_periodic_charge


def test_winding_rejects_circle_through_center():
    m = unit_monopole(center=CirclePoint3(2.0, 0.0))
    with pytest.raises(SingularPointError):
        abelian.winding_number(m, 2.0)
    for radius in (math.nan, math.inf, 0.0, -3.0):
        with pytest.raises(ValueError, match="finite and > 0"):
            abelian.winding_number(m, radius)


@pytest.mark.parametrize("center, expect", [
    # inside, between the arc and a chord of a 720-gon around the origin
    (1.99999 * cmath.exp(1j * math.pi / 720), -1),
    # outside by 1e-9, and inside by one ulp
    (2.0 + 1e-9, 0),
    (float(np.nextafter(2.0, 0.0)), -1),
    (-2.0 - 1e-7j, 0),
])
def test_winding_near_the_circle_counts_enclosed_charge(center, expect):
    m = unit_monopole(center=CirclePoint3(center, 0.0))
    assert abelian.winding_number(m, 2.0) == expect


def test_winding_counts_only_enclosed_centers():
    m = AbelianMonopole([DiracTerm(CirclePoint3(0.5j, 1.0), 2), DiracTerm(CirclePoint3(4.0, 0.0), -1),
                         DiracTerm(CirclePoint3(-1.0, 0.0), 1, Kind.EUCLIDEAN)])
    assert [abelian.winding_number(m, r) for r in (0.4, 1.0, 5.0)] == [0, -2, -1]


def test_translated_asymptotics_reduces_at_centered():
    m = unit_monopole(v=0.7, b=0.1)
    p = CirclePoint3(20.0, 1.0)
    fs = abelian.translated_asymptotics(m, p)
    assert fs.a_theta == pytest.approx(-p.t / TWO_PI + 0.5, abs=1e-15)
    assert fs.a_t == m.b
    assert fs.higgs == pytest.approx(0.7 + math.log(20.0) / TWO_PI, abs=1e-15)


def test_translated_asymptotics_accuracy():
    q = CirclePoint3(1.0, 0.8)
    m = AbelianMonopole([DiracTerm(q, 1)], v=0.0, b=0.0)
    for ang in (0.0, 1.0, 2.5):
        p = CirclePoint3(20.0 * cmath.exp(1j * ang), 0.3)
        exact = abelian.higgs(m, p, tol=1e-13)
        model = abelian.translated_asymptotics(m, p).higgs
        assert abs(exact - model) <= 5.0 / 20.0**2


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 3.0), scale=st.floats(1.01, 8.0),
       angles=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
       t0=st.floats(0.0, 6.28), t=st.floats(-math.pi, math.pi),
       k=st.sampled_from([-3, -2, -1, 1, 2, 3]), v=st.floats(-2.0, 2.0))
def test_translated_asymptotics_higgs_remainder_bound(a, scale, angles, t0, t, k, v):
    # |model - higgs| <= |k| (|w|^2/(4 pi (1 - |w|)) + Kmaj0(r')/(pi (1 - e^{-r'}))),
    # w = z0/z, r' = |z - z0|: the log tail past Re w and the whole Bessel sum
    z0 = a * cmath.exp(1j * angles[0])
    z = max(2.0 * a, 1.0) * scale * cmath.exp(1j * angles[1])
    m = AbelianMonopole([DiracTerm(CirclePoint3(z0, t0), k)], v=v, b=0.3)
    p = CirclePoint3(z, t)
    model = abelian.translated_asymptotics(m, p).higgs
    exact = abelian.higgs(m, p, 1e-14)
    w, rp = abs(z0 / z), abs(z - z0)
    kmaj0 = math.sqrt(math.pi / (2.0 * rp)) * math.exp(-rp)
    bound = abs(k) * (w * w / (4.0 * math.pi * (1.0 - w)) + kmaj0 / (math.pi * -math.expm1(-rp)))
    rounding = 1e-14 * (1.0 + abs(v) + abs(k) * (1.0 + abs(math.log(abs(z)))))
    assert abs(model - exact) <= bound + rounding


def test_translated_asymptotics_dipole_antisymmetry():
    q = CirclePoint3(1.0, 0.0)
    m = AbelianMonopole([DiracTerm(q, 1)])
    z = 8.0 * cmath.exp(0.6j)
    up = abelian.translated_asymptotics(m, CirclePoint3(z, 0.5))
    dn = abelian.translated_asymptotics(m, CirclePoint3(z.conjugate(), 0.5))
    iso = up.a_t - dn.a_t
    assert abs(iso - (-(1.0 / math.pi) * (1.0 / z).imag)) <= 1e-8
    assert up.higgs == pytest.approx(dn.higgs, abs=1e-15)
    with pytest.raises(OutOfRegimeError):
        abelian.translated_asymptotics(m, CirclePoint3(1.5, 0.0))


def test_rescale_identity():
    m = unit_monopole(v=2.0)
    ev = abelian.rescale(m, 1.0)
    p = CirclePoint3(1.0 + 0.2j, 0.7)
    assert ev.higgs(p.z, p.t) == abelian.higgs(m, p)


def test_rescale_rejects_bad_ratio():
    m = AbelianMonopole([DiracTerm(CirclePoint3(1.0, 0.0), 1)], v=1.0)
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            abelian.rescale(m, lam)
    with pytest.raises(SingularPointError):
        abelian.euclidean_limit_profile(0.0, 0.0)
    for r, t in ((math.inf, 0.0), (math.nan, 0.0), (0.3, math.inf), (0.3, -math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            abelian.euclidean_limit_profile(r, t)


def test_rescale_large_mass_euclidean_limit():
    v = 100.0
    lam = v + 0.5 * green.A0
    ev = abelian.rescale(unit_monopole(v=v), lam)
    r, t = 0.3, 0.2
    lim = abelian.euclidean_limit_profile(r, t)
    assert abs(ev.higgs(complex(r), t) - lim) <= 0.02


def test_rescale_doubling_mass_halves_discrepancy():
    # with the bare normalization lam = v the residual is a0/(2v) + O(v^-3)
    r, t = 0.3, 0.2
    lim = abelian.euclidean_limit_profile(r, t)

    def dev(v):
        return abs(abelian.rescale(unit_monopole(v=v), v).higgs(complex(r), t) - lim)

    assert dev(100.0) / dev(200.0) == pytest.approx(2.0, abs=0.1)


@settings(max_examples=60, deadline=None)
@given(v=st.floats(2.0, 1000.0),
       s=st.floats(-6.0, math.log10(0.9 * math.pi)).map(lambda e: 10.0**e),
       polar=st.floats(0.0, 0.5 * math.pi), az=st.floats(0.0, TWO_PI))
def test_euclidean_limit_profile_rate(v, s, polar, az):
    # zeta(3)/(2 pi lam) x/(1 - x) at rho = s lam; t >= 0 only, because a
    # negative t near the pole is stored as 2 pi - |t| and misses its bound
    # by far more than this rate (the stored-angle defect of the near-pole G)
    lam = v + 0.5 * green.A0
    r, t = s * lam * math.sin(polar), s * lam * math.cos(polar)
    tol = 1e-12
    dev = abs(abelian.rescale(unit_monopole(v=v), lam).higgs(r * cmath.exp(1j * az), t, tol)
              - abelian.euclidean_limit_profile(r, t))
    rho = math.hypot(r, t)
    x = (rho / (TWO_PI * lam)) ** 2
    bound = special.zeta(3.0) / (TWO_PI * lam) * x / (1.0 - x)
    slack = tol / lam + 8.0 * EPS * (0.5 / rho + 1.0 + v / lam)
    assert dev <= bound + slack


def test_bogomolny_vacuum_zero():
    box = ((3.0, 3.4), (0.0, 0.4), (1.0, 1.4))
    assert abelian.bogomolny_residual(abelian.vacuum(2.0, 0.3), box, 0.05) == 0.0


def test_bogomolny_second_order_and_linearity():
    box = ((3.0, 3.6), (0.0, 0.6), (1.0, 1.6))
    m = unit_monopole(v=1.0, b=0.3)
    r1 = abelian.bogomolny_residual(m, box, 0.05)
    r2 = abelian.bogomolny_residual(m, box, 0.025)
    assert 3.5 <= r1 / r2 <= 4.5
    pair = AbelianMonopole(
        [DiracTerm(ORIGIN, 1), DiracTerm(CirclePoint3(-0.5, 3.0), -1)], v=1.0, b=0.3
    )
    rp = abelian.bogomolny_residual(pair, box, 0.05)
    assert rp <= 4.0 * r1  # same order: the equation is linear in the fields


def test_bogomolny_second_order_near_gauge_boundary():
    # smallest r just above 2, where the mode count of the grid is largest
    box = ((2.02, 2.62), (0.0, 0.6), (1.0, 1.6))
    m = unit_monopole(v=1.0, b=0.3)
    r1 = abelian.bogomolny_residual(m, box, 0.05)
    r2 = abelian.bogomolny_residual(m, box, 0.025)
    assert 3.5 <= r1 / r2 <= 4.5


def test_bogomolny_region_guards():
    m = unit_monopole()
    with pytest.raises(OutOfRegimeError):
        abelian.bogomolny_residual(m, ((0.1, 0.5), (0.0, 0.4), (1.0, 1.4)), 0.05)
    with pytest.raises(OutOfRegimeError):
        abelian.bogomolny_residual(m, ((3.0, 3.4), (0.0, 0.4), (3.0, 3.4)), 0.05)


def test_bogomolny_rejects_bad_mesh_and_box():
    m = unit_monopole()
    box = ((3.0, 3.4), (0.0, 0.4), (1.0, 1.4))
    for h in (0.0, -0.05, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            abelian.bogomolny_residual(m, box, h)
    for edge in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            abelian.bogomolny_residual(m, ((3.0, edge), (0.0, 0.4), (1.0, 1.4)), 0.05)
        with pytest.raises(ValueError, match="finite"):
            abelian.bogomolny_residual(m, ((3.0, 3.4), (0.0, 0.4), (edge, 1.4)), 0.05)


def test_bogomolny_center_guard_checks_every_node():
    # every corner is 2.408 from the centre, outside 4h = 2.4, but the edge
    # node (2, 0, 0) is only 2.0 away
    box = ((2.0, 3.2), (-1.2, 1.2), (-0.6, 0.6))
    with pytest.raises(OutOfRegimeError, match="too close to a singular center"):
        abelian.bogomolny_residual(unit_monopole(), box, 0.6)
