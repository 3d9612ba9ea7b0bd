"""Model problems: cylinder decay, exterior modes, Poincare, weight identity."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

import oracles
from permono import modelsolve as ms
from permono import specfn, spectral
from permono.errors import ExceptionalWeightError, UnderResolvedError, WeightRangeError


def test_gamma_roots():
    gp, gm = ms.gamma_roots(0.75)
    assert (gp, gm) == (0.5, -1.5)
    assert ms.gamma_roots(0.0) == (0.0, -1.0)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ms.gamma_roots(lam)


def test_log_slope_matches_polyfit():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = np.sort(rng.uniform(-3.0, 40.0, int(rng.integers(8, 400))))
        u = rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-5.0, 5.0) * x / 40.0
                                             + 0.3 * rng.standard_normal(x.size))
        want = np.polyfit(x, np.log(np.abs(u)), 1)[0]
        assert ms._log_slope(x, u) == pytest.approx(want, rel=1e-12, abs=1e-14)
    # the |u| > 1e-280 mask and the 8-node floor
    x = np.arange(10.0)
    u = np.exp(-x)
    u[[2, 5]] = 0.0
    assert ms._log_slope(x, u) == pytest.approx(-1.0, rel=1e-12)
    u[7] = 1e-300
    assert math.isnan(ms._log_slope(x, u))


def test_cylinder_constant_solution():
    sol = ms.cylinder_solve(ms.CylinderProblem(lam=0.0, phi=1.0), 1e-2)
    assert np.abs(sol.u - 1.0).max() <= 1e-10
    assert abs(sol.decay_rate - 0.0) <= 1e-8


def test_cylinder_exact_exponential():
    sol = ms.cylinder_solve(ms.CylinderProblem(lam=0.75, phi=1.0), 1e-3)
    assert np.abs(sol.u - np.exp(-0.5 * sol.tau)).max() <= 1e-8
    assert abs(sol.decay_rate - 0.5) <= 1e-3


def test_cylinder_manufactured_source_second_order():
    # lam = 2: -u'' + u' + 2u applied to e^{-3 tau} gives -10 e^{-3 tau},
    # so f = e^{-3 tau} is solved by (e^{-tau} - e^{-3 tau})/10 with phi = 0
    lam = 2.0
    exact = lambda t: (np.exp(-t) - np.exp(-3.0 * t)) / 10.0
    errs = []
    for mesh in (4e-3, 2e-3, 1e-3):
        sol = ms.cylinder_solve(
            ms.CylinderProblem(lam=lam, phi=0.0, f=lambda t: np.exp(-3.0 * t)), mesh
        )
        errs.append(np.abs(sol.u - exact(sol.tau)).max())
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2
    # the solution lies in every weighted space below the decay rate
    sol = ms.cylinder_solve(
        ms.CylinderProblem(lam=lam, phi=0.0, f=lambda t: np.exp(-3.0 * t), delta=0.3), 1e-3
    )
    for delta in (-0.9, 0.0, 0.6):
        assert sol.decay_rate > delta


def test_cylinder_decay_rates_match_indicial_roots():
    for m in (0, 1, 2):
        for e in spectral.operator_L_spectrum(m, 3).entries:
            sol = ms.cylinder_solve(ms.CylinderProblem(lam=e.lam, phi=1.0, delta=-0.5), 1e-3)
            assert abs(sol.decay_rate - e.gamma_plus) <= 1e-3


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.0, 6.0), delta=st.floats(-5.0, 5.0))
def test_cylinder_weight_range(lam, delta):
    # away from the exceptional guard the problem builds exactly when
    # gamma^- < delta < gamma^+, and the solution then lies in the weighted space
    gp, gm = ms.gamma_roots(lam)
    assume(min(abs(delta - gp), abs(delta - gm)) > 1e-3)
    if not gm < delta < gp:
        with pytest.raises(WeightRangeError, match="outside"):
            ms.CylinderProblem(lam=lam, delta=delta)
        return
    sol = ms.cylinder_solve(ms.CylinderProblem(lam=lam, phi=1.0, delta=delta), 1e-2)
    assert sol.decay_rate > delta


def test_cylinder_linearity_and_zero_data():
    lam = 2.0
    f1 = lambda t: np.exp(-3.0 * t)
    f2 = lambda t: np.exp(-4.0 * t) * np.sin(t)
    s1 = ms.cylinder_solve(ms.CylinderProblem(lam=lam, phi=0.0, f=f1), 1e-3)
    s2 = ms.cylinder_solve(ms.CylinderProblem(lam=lam, phi=0.0, f=f2), 1e-3)
    s12 = ms.cylinder_solve(
        ms.CylinderProblem(lam=lam, phi=0.0, f=lambda t: f1(t) + f2(t)), 1e-3
    )
    assert np.abs(s12.u - (s1.u + s2.u)).max() <= 1e-12
    z = ms.cylinder_solve(ms.CylinderProblem(lam=lam, phi=0.0), 1e-2)
    assert np.abs(z.u).max() == 0.0


def test_cylinder_guards():
    with pytest.raises(ExceptionalWeightError):
        ms.CylinderProblem(lam=0.75, delta=0.5)
    with pytest.raises(ExceptionalWeightError):
        ms.CylinderProblem(lam=0.75, delta=-1.5 + 5e-10)
    ms.CylinderProblem(lam=0.75, delta=0.5 - 1e-6)  # off the root, inside (gamma^-, gamma^+): fine
    with pytest.raises(WeightRangeError, match="outside"):  # off the root, above gamma^+
        ms.CylinderProblem(lam=0.75, delta=0.5 + 1e-6)
    with pytest.raises(UnderResolvedError):
        ms.cylinder_solve(ms.CylinderProblem(lam=20.0, delta=0.3), 0.5)
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ms.CylinderProblem(lam=lam)
    for delta in (math.nan, math.inf, -math.inf):
        with pytest.raises(WeightRangeError, match="finite"):
            ms.CylinderProblem(lam=1.0, delta=delta)
    for T in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="T must be finite"):
            ms.CylinderProblem(lam=1.0, T=T)
    # a finite T so large that T + window rounds to T: the interval is named, not the mesh
    with pytest.raises(ValueError, match=r"interval \[1e\+300, 1e\+300\]"):
        ms.cylinder_solve(ms.CylinderProblem(lam=1.0, T=1e300), 1e-2)
    # too few cells for the grid and its decay fit (the window is 20 at lam = 0)
    for mesh in (100.0, 3.0, 1.0):
        with pytest.raises(UnderResolvedError):
            ms.cylinder_solve(ms.CylinderProblem(lam=0.0), mesh)
    for lam in (0.0, 2.0):
        for mesh in (0.0, -1e-2, math.nan, math.inf):
            with pytest.raises(ValueError, match="mesh must be finite"):
                ms.cylinder_solve(ms.CylinderProblem(lam=lam), mesh)


@pytest.mark.parametrize("lam", [1e4, 1e5, 2e5])
@pytest.mark.parametrize("mesh", [1e-3, 5e-4, 2e-4])
def test_cylinder_window_follows_gamma_plus_at_large_lambda(lam, mesh):
    # the window was at least 8, where the decaying branch e^(-gamma+ tau) underflows
    # the fit (decay_rate nan at lam = 1e5, 2e5); it is 20/gamma+ at gamma+ > 1
    gp, _ = ms.gamma_roots(lam)
    if mesh * gp > 0.25:
        with pytest.raises(UnderResolvedError):
            ms.cylinder_solve(ms.CylinderProblem(lam=lam), mesh)
        return
    sol = ms.cylinder_solve(ms.CylinderProblem(lam=lam), mesh)
    assert sol.tau.size - 1 == round(20.0 / gp / mesh)
    # the scheme decays at its discrete rate; the fit may differ from gamma+ by
    # that mesh error, doubled for the fit itself
    assert abs(sol.decay_rate - gp) <= 2.0 * abs(oracles.discrete_decay_rate(lam, sol.mesh) - gp)


def test_cylinder_window_is_twenty_below_gamma_plus_one():
    for lam in (0.0, 0.5, 2.0):
        sol = ms.cylinder_solve(ms.CylinderProblem(lam=lam), 1e-2)
        assert sol.tau[-1] == 20.0 and sol.tau.size == 2001


def test_exterior_diagonal_constant_mode():
    p = ms.ExteriorModeProblem(ms.Sector.diagonal_invariant(0), R=1.0, phi=1.0)
    sol = ms.exterior_diagonal_solve(p, 1e-3)
    assert np.abs(sol.u - 1.0).max() <= 1e-10


def test_exterior_diagonal_harmonic_mode_one():
    p = ms.ExteriorModeProblem(ms.Sector.diagonal_invariant(1), R=1.0, phi=1.0)
    sol = ms.exterior_diagonal_solve(p, 1e-4)
    assert np.abs(sol.u - 1.0 / sol.r).max() <= 1e-8
    assert sol.fitted_power == pytest.approx(-1.0, abs=0.05)
    # the fit is scale invariant: tiny data decays like r^-n too, and zero data has no power
    for n in (1, 2):
        for phi in (1e-15, 1e-13):
            p = ms.ExteriorModeProblem(ms.Sector.diagonal_invariant(n), R=1.0, phi=phi)
            assert ms.exterior_diagonal_solve(p, 1e-3).fitted_power == pytest.approx(-n, abs=0.05)
        p = ms.ExteriorModeProblem(ms.Sector.diagonal_invariant(n), R=1.0, phi=0.0)
        assert math.isnan(ms.exterior_diagonal_solve(p, 1e-3).fitted_power)


def test_exterior_diagonal_source_vs_closed_form():
    # f = r^-4, mode 0, phi = 0: (r u')' = -r^-3 with u'(r_max) = 0 selects
    # c = -r_max^-2/2; u = c log r - r^-2/4 + 1/4 - c log R
    p = ms.ExteriorModeProblem(
        ms.Sector.diagonal_invariant(0), R=1.0, phi=0.0, f=lambda r: r**-4.0
    )
    errs = []
    for mesh in (4e-3, 2e-3, 1e-3):
        sol = ms.exterior_diagonal_solve(p, mesh)
        c = -0.5 * sol.r[-1] ** -2
        exact = c * np.log(sol.r) - 0.25 * sol.r**-2.0 + 0.25
        errs.append(np.abs(sol.u - exact).max())
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


def test_exterior_diagonal_guards():
    sec = ms.Sector.diagonal_invariant(0)
    with pytest.raises(ValueError):
        ms.exterior_diagonal_solve(
            ms.ExteriorModeProblem(ms.Sector.oscillatory(1), R=1.0), 1e-3
        )
    for R in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="R must be positive and finite"):
            ms.ExteriorModeProblem(sec, R=R)
    p = ms.ExteriorModeProblem(sec, R=1.0)
    for mesh in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="mesh must be finite"):
            ms.exterior_diagonal_solve(p, mesh)
    with pytest.raises(UnderResolvedError):
        ms.exterior_diagonal_solve(p, 0.5)  # 18 cells on [1, 10]


def test_coercive_zero_data_and_guards():
    p = ms.ExteriorModeProblem(ms.Sector.oscillatory(1), R=1.0, phi=0.0)
    sol = ms.exterior_coercive_solve(p, 1e-2)
    assert np.abs(sol.u).max() == 0.0 and sol.energy_ratio == 0.0
    assert math.isnan(sol.decay_slope)
    with pytest.raises(ValueError):
        ms.Sector.oscillatory(0)
    for c in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mass_sq"):
            ms.Sector(0, c)
    for mesh in (0.0, -1e-2, math.nan, math.inf):
        with pytest.raises(ValueError, match="mesh must be finite"):
            ms.exterior_coercive_solve(p, mesh)
    with pytest.raises(UnderResolvedError):
        ms.exterior_coercive_solve(p, 1.0)  # mesh * mu = 1 > 1/4, and 16 cells on [1, 17]


def test_coercive_bessel_mode_second_order():
    # K0(r) solves the mu = 1 screened equation exactly
    p = ms.ExteriorModeProblem(
        ms.Sector.oscillatory(1), R=1.0, phi=float(specfn.bessel_k0(1.0))
    )
    errs = []
    for mesh in (4e-3, 2e-3, 1e-3):
        sol = ms.exterior_coercive_solve(p, mesh)
        errs.append(np.abs(sol.u - specfn.bessel_k0(sol.r)).max())
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


def test_coercive_interior_decay_slope():
    bump = lambda r: np.exp(-(((r - 3.0) / 0.5) ** 2))
    p = ms.ExteriorModeProblem(ms.Sector.oscillatory(1), R=1.0, phi=0.0, f=bump)
    sol = ms.exterior_coercive_solve(p, 2e-3)
    assert abs(sol.decay_slope - (-1.0)) <= 0.05
    assert sol.energy_ratio > 0.0


def test_coercive_mass_doubling_halves_l2():
    bump = lambda r: np.exp(-(((r - 3.0) / 0.5) ** 2))
    base = ms.exterior_coercive_solve(
        ms.ExteriorModeProblem(ms.Sector.oscillatory(1), R=1.0, f=bump), 2e-3
    )
    dbl = ms.exterior_coercive_solve(
        ms.ExteriorModeProblem(ms.Sector(0, 4.0), R=1.0, f=bump), 2e-3
    )

    def l2(sol):
        return math.sqrt(np.trapezoid(sol.u**2 * sol.r, dx=sol.mesh))

    assert l2(dbl) <= 0.5 * l2(base)


def test_sector_is_its_mode_and_mass():
    assert ms.Sector.diagonal_invariant(2) == ms.Sector(2, 0.0)
    assert ms.Sector.diagonal_invariant() == ms.Sector(0, 0.0)
    assert ms.Sector.oscillatory(-3) == ms.Sector(0, 9.0)
    assert ms.Sector.diagonal_invariant(np.int64(1)).mode == 1


@pytest.mark.parametrize("mode", [1.5, True, 2.0, None])
def test_sector_refuses_a_non_integer_mode(mode):
    # diagonal_invariant(1.5) was accepted, and the solve fitted power -1.5
    for build in (ms.Sector.diagonal_invariant, ms.Sector.oscillatory,
                  lambda n: ms.Sector(n, 1.0)):
        with pytest.raises(ValueError, match="mode must be an integer"):
            build(mode)


@pytest.mark.parametrize("c", [0.0, -1.0, -math.inf, math.nan, math.inf])
def test_sector_refuses_a_bad_coercivity_where_it_is_built(c):
    # the error waited until the solve; c = 0 is the diagonal sector, which
    # the screened solve refuses
    if c == 0.0:
        with pytest.raises(ValueError, match="mu > 0"):
            ms.exterior_coercive_solve(ms.ExteriorModeProblem(ms.Sector(0, c), R=1.0), 1e-2)
    else:
        with pytest.raises(ValueError, match="mass_sq"):
            ms.Sector(0, c)


def test_each_exterior_solve_needs_its_mass():
    with pytest.raises(ValueError, match="mu = 0"):
        ms.exterior_diagonal_solve(ms.ExteriorModeProblem(ms.Sector(1, 0.5), R=1.0), 1e-3)
    for sec in (ms.Sector.diagonal_invariant(0), ms.Sector(2, 0.0)):
        with pytest.raises(ValueError, match="mu > 0"):
            ms.exterior_coercive_solve(ms.ExteriorModeProblem(sec, R=1.0), 1e-2)


@pytest.mark.parametrize("mu", [30.0, 50.0, 200.0])
def test_coercive_refuses_an_unresolved_mass(mu):
    # at mesh 1e-2 the slope read -34.8 (mu = 50) and -35.2 (mu = 200), with no error
    bump = lambda r: np.exp(-(((r - 3.0) / 0.5) ** 2))
    p = ms.ExteriorModeProblem(ms.Sector(0, mu * mu), R=1.0, f=bump)
    with pytest.raises(UnderResolvedError, match="cannot resolve"):
        ms.exterior_coercive_solve(p, 1e-2)
    sol = ms.exterior_coercive_solve(p, 0.25 / mu)  # mesh * mu = 1/4 is accepted
    assert sol.mesh == 0.25 / mu
    # past the bump u ~ f/mu^2 still follows the source, so no node is fit:
    # the slope read the source's (slope + mu = 0.41 at mu = 30, 15.2 at 50)
    assert math.isnan(sol.decay_slope)


@settings(max_examples=40, deadline=None)
@given(mu=st.integers(1, 8), mesh=st.floats(5e-4, 4e-3))
def test_coercive_decay_slope_property(mu, mesh):
    # the benchmark's bound: the log-derivative of sqrt(r) K0(mu r) is
    # -mu + 1/(8 mu r^2) + ..., and the fit starts at r >= 4 past the bump at 3;
    # the scheme's own rate error mu^3 h^2 / 24 is below 1e-3 on these meshes
    bump = lambda r: np.exp(-(((r - 3.0) / 0.5) ** 2))
    p = ms.ExteriorModeProblem(ms.Sector.oscillatory(mu), R=1.0, f=bump)
    sol = ms.exterior_coercive_solve(p, mesh)
    assert abs(sol.decay_slope + mu) <= 1.0 / (36.0 * mu)


@pytest.mark.parametrize("n", [1, 2])
def test_coercive_solves_the_sector_mode(n):
    # K_n(r) solves -u'' - u'/r + (n^2/r^2 + 1) u = 0; the far condition
    # u'/u = -(1 + 1/(2r)) holds to O(r^-2) for every n
    p = ms.ExteriorModeProblem(ms.Sector(n, 1.0), R=1.0, phi=float(special.kn(n, 1.0)))
    errs = []
    for mesh in (4e-3, 2e-3, 1e-3):
        sol = ms.exterior_coercive_solve(p, mesh)
        errs.append(np.abs(sol.u - special.kn(n, sol.r)).max())
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


def test_coercive_energy_ratio_without_source():
    # f = 0 with u != 0 read 0.0; u = 0 too keeps 0.0
    p = ms.ExteriorModeProblem(ms.Sector.oscillatory(1), R=1.0, phi=1.0)
    sol = ms.exterior_coercive_solve(p, 1e-2)
    assert sol.energy_f == 0.0 and sol.energy_u > 1.0 and sol.energy_ratio == math.inf


def test_poincare_ratio_bounded_with_power():
    rep = ms.poincare_constant_check(1.0, -0.45, trials=40, seed=5)
    assert rep.max_ratio <= 1.0
    assert rep.max_ratio >= 0.2
    assert rep.n_trials == 40
    rep = ms.poincare_constant_check(0.5, 0.1, trials=40, seed=6)
    assert 0.2 <= rep.max_ratio <= 1.0
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(WeightRangeError):
            ms.poincare_constant_check(1.0, delta, 10)
    for R in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="R must be positive and finite"):
            ms.poincare_constant_check(R, 0.3, 2)
    for trials in (0, -1, 2.0, None, True):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            ms.poincare_constant_check(1.0, 0.3, trials)
    for n_grid in (2, 0, -5, 101.0, True):
        with pytest.raises(ValueError, match="n_grid must be an integer >= 3"):
            ms.poincare_constant_check(1.0, 0.3, 2, n_grid=n_grid)
    assert ms.poincare_constant_check(1.0, 0.3, np.int64(1), n_grid=3).n_trials == 1


@pytest.mark.parametrize("R, delta", [(1.0, 2.5), (1.0, -2.5), (1.0, 50.0), (1.0, -50.0),
                                      (0.5, 2.5), (2.0, -2.5)])
def test_poincare_check_refuses_weights_past_float_range(R, delta):
    # omega^(2 |delta|) at r = R e^160 overflows past |delta| ~ 2.2; the ratio was nan
    with pytest.raises(WeightRangeError, match=r"\|delta\| must be <= 2\.\d+ at R="):
        ms.poincare_constant_check(R, delta, 2)


@pytest.mark.parametrize("delta", [2.0, -2.0])
def test_poincare_check_answers_up_to_its_float_range(delta):
    # runs under the suite's error::RuntimeWarning filter: no overflow on the way
    rep = ms.poincare_constant_check(1.0, delta, 4, seed=1)
    assert 0.0 < rep.max_ratio <= 1.0


def test_poincare_constant_guards():
    assert ms.poincare_constant(1.0) == math.sqrt(3.0)
    assert ms.poincare_constant(2.0) == pytest.approx(math.sqrt(6.0) / 2.0, rel=1e-15)
    assert ms.poincare_constant(1e200) == 1.0  # R * R overflowed to inf here
    for R in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="R must be positive and finite"):
            ms.poincare_constant(R)


def _oracle_window(r, r1, r2, w_up, w_dn):
    """sin^2-ramped indicator of [r1, r2], by masks over all nodes."""
    out = np.zeros_like(r)
    out[(r >= r1 + w_up) & (r <= r2 - w_dn)] = 1.0
    up = (r > r1) & (r < r1 + w_up)
    out[up] = np.sin(0.5 * math.pi * (r[up] - r1) / w_up) ** 2
    dn = (r > r2 - w_dn) & (r < r2)
    out[dn] = np.sin(0.5 * math.pi * (r2 - r[dn]) / w_dn) ** 2
    return out


def _oracle_poincare_ratios(R, delta, trials, seed, n_grid):
    """The same random trials on the whole grid, with np.gradient in s,
    (du/dr)^2 r^2 = (du/ds)^2 and np.trapezoid over s. The weights are powers
    of omega taken through log(hypot(1, r)), so they stay finite at any R
    where r = R e^s is a float."""
    rng = np.random.default_rng(seed)
    span = ms._POINCARE_LOG_SPAN
    s = np.linspace(0.0, span, n_grid)
    r = R * np.exp(s)
    log_w = np.log(np.hypot(1.0, r))
    C = math.sqrt(2.0 + R * R) / R
    num_w = np.exp(2.0 * np.log(r) - 2.0 * (delta + 1.0) * log_w)
    den_w = np.exp(-2.0 * delta * log_w)
    ratios = np.empty(trials)
    for i in range(trials):
        if i % 2 == 0:
            u = np.zeros_like(s)
            for _ in range(rng.integers(1, 4)):
                wdt = rng.uniform(0.15, 0.8)
                margin = wdt + 0.02 if delta > 0.0 else -wdt * rng.uniform(0.0, 0.9)
                c = rng.uniform(margin, 3.0)
                u += rng.uniform(-1.0, 1.0) * ms._smooth_bump((s - c) / wdt)
        else:
            s1 = rng.uniform(0.02, 0.3) if delta > 0.0 else 0.0
            s2 = rng.uniform(0.9, 0.97) * span
            w_up = rng.uniform(0.3, 1.2)
            w_dn = rng.uniform(0.35, 0.45) * span
            u = np.exp(delta * log_w) * _oracle_window(s, s1, s2, w_up, w_dn)
        if np.abs(u).max() == 0.0:
            ratios[i] = 0.0
            continue
        du = np.gradient(u, s)
        num = math.sqrt(np.trapezoid(num_w * u**2, x=s))
        den = math.sqrt(np.trapezoid(den_w * du**2, x=s))
        ratios[i] = num / ((C / abs(delta)) * den)
    return ratios


@settings(max_examples=30, deadline=None)
@given(R=st.floats(0.5, 2.0), mag=st.floats(0.1, 0.5), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2**31 - 1), trials=st.integers(1, 6),
       n_grid=st.sampled_from([3, 101, 2001, 8001, 32001]))
def test_poincare_check_matches_full_grid_oracle(R, mag, sign, seed, trials, n_grid):
    rep = ms.poincare_constant_check(R, sign * mag, trials, seed=seed, n_grid=n_grid)
    want = _oracle_poincare_ratios(R, sign * mag, trials, seed, n_grid)
    np.testing.assert_allclose(rep.ratios, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("R, delta", [(1e60, 1.0), (1e80, 1.0), (1e100, 0.5), (1e100, -0.5),
                                      (1.0, 2.0)])
def test_poincare_check_keeps_far_weights(R, delta):
    # the mass weight omega^{-2(delta+1)} r^2 was exp(-2(delta+1) log omega) r^2, whose
    # exponential underflowed once 2(delta+1) log omega > 745 (max_ratio 0.19 at
    # R = 1e80, delta = 1; one trial 0.5752 for 0.5768 at R = 1, delta = 2), and r^2
    # overflowed at R = 1e100 (nan)
    rep = ms.poincare_constant_check(R, delta, 8, seed=3)
    np.testing.assert_allclose(rep.ratios, _oracle_poincare_ratios(R, delta, 8, 3, 32001),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("delta", [0.3, -0.3, 0.41])
@pytest.mark.parametrize("R", [1e200, 1e300])
def test_poincare_check_answers_at_huge_R(R, delta):
    # the constant squared R (inf past R ~ 1.3e154: every ratio read 0), and the delta
    # bound took log(hypot(1, R e^160)) (inf at R = 1e300: every delta was refused)
    want = ms.poincare_constant_check(1e150, delta, 4, seed=1).max_ratio
    got = ms.poincare_constant_check(R, delta, 4, seed=1).max_ratio
    assert got == pytest.approx(want, rel=1e-12, abs=0.0) and got > 0.5


def test_poincare_check_bounds_delta_at_huge_R():
    with pytest.raises(WeightRangeError, match=r"\|delta\| must be <= 0\.416649 at R=1e\+300"):
        ms.poincare_constant_check(1e300, 0.42, 2)


def test_poincare_check_max_ratio_independent_of_large_R():
    # at R >> 1, omega = r to relative 1/R^2, so the ratio no longer depends on R
    worst = [ms.poincare_constant_check(R, 1.0, 8, seed=3).max_ratio for R in (1e20, 1e60, 1e80)]
    np.testing.assert_allclose(worst, worst[0], rtol=1e-9, atol=0.0)


def test_poincare_ratio_scale_invariant():
    # homogeneity degree 0: computed directly on one profile
    R, delta = 1.0, -0.5
    r = np.linspace(R, 30.0, 20001)
    u = ms._smooth_bump((r - 4.0) / 1.5)
    C = ms.poincare_constant(R)
    w = ms.omega(r)

    def ratio(v):
        dv = np.gradient(v, r[1] - r[0])
        num = math.sqrt(np.trapezoid(w ** (-2 * (delta + 1)) * v**2 * r, x=r))
        den = math.sqrt(np.trapezoid(w ** (-2 * delta) * dv**2 * r, x=r))
        return num / ((C / abs(delta)) * den)

    assert ratio(2.0 * u) == pytest.approx(ratio(u), rel=1e-12)
    assert ratio(u) <= 1.0


def test_weight_identity():
    rs = np.concatenate([[0.0, 1.0, 100.0], np.geomspace(1e-2, 1e2, 97)])
    assert oracles.weight_identity_check(rs) <= 1e-12
    assert ms.omega_gradient_norm(0.0) == 0.0
    assert -ms.omega(0.0) * ms.omega_laplacian(0.0) == pytest.approx(2.0, abs=1e-15)
    assert ms.omega_gradient_norm(100.0) == pytest.approx(100.0 / math.sqrt(10001.0), rel=1e-15)
    assert ms.omega_gradient_norm(100.0) < 1.0


def test_weight_identity_at_huge_r():
    # omega squared r and overflowed past r ~ 1.3e154: omega(1e155) was inf and
    # |grad omega| 0.0 there
    r = np.array([0.0, 1.0, 100.0, 1e155, 1e300])
    np.testing.assert_array_equal(-ms.omega(r) * ms.omega_laplacian(r)
                                  + ms.omega_gradient_norm(r) ** 2, 2.0)
    assert ms.omega(1e155) == 1e155 and ms.omega_gradient_norm(1e155) == 1.0
