"""Separated model problems behind the mapping theory: the half-cylinder
Dirichlet problem -u'' + u' + lambda u = f with its indicial decay rates, the
mode-decomposed exterior problems on r >= R (harmonic modes for the invariant
diagonal sector, screened modes for the oscillatory and off-diagonal sectors),
the weighted Poincare inequality with the explicit constant sqrt(2+R^2)/R,
and the algebraic identities of the weight omega = sqrt(1+r^2).

Sign convention: the geometer's Laplacian (nonnegative, = -sum of second
derivatives on flat space) throughout, which is what makes
-omega lap(omega) + |grad omega|^2 = +2 hold; the analyst's sign would give
-2/(1+r^2).

All solvers share one three-point solver (``_robin_solve``): second-order
central differences on a uniform mesh, on a domain cut where truncation falls
below mesh error. Window rule: the cylinder ends at T + 20/max(gamma^+, 1)
with the exact decaying-branch Robin condition u' + gamma^+ u = 0, exterior
domains at 10 R (or R + 16/mu if screened) with the per-mode harmonic/decaying
condition. Resolution rule: each solve passes the rate of its decaying branch
(gamma^+, mu, or 0 for algebraic decay); mesh * rate > 1/4 is UnderResolvedError.

All solvers fit their decay by one rule (``_log_slope``): the least-squares
slope of log|u| over the tail-window nodes with |u| > 1e-280, nan when fewer
than 8 qualify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    CoercivityError,
    ExceptionalWeightError,
    UnderResolvedError,
    WeightRangeError,
    require_integer,
)

_EXCEPTIONAL_GUARD = 1e-9


def gamma_roots(lam: float) -> tuple[float, float]:
    """Indicial roots gamma^+- = -1/2 +- sqrt(1/4 + lambda)."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    s = math.sqrt(0.25 + lam)
    return -0.5 + s, -0.5 - s


#: fewest cells of a model grid; the cylinder's decay fit over [0.5 n, 0.8 n)
#: needs 8 nodes, which n >= 27 gives.
_MIN_CELLS = 32


def _log_slope(x: np.ndarray, u: np.ndarray) -> float:
    """Least-squares slope of log|u| against x over the nodes with |u| > 1e-280;
    nan when fewer than 8 nodes qualify."""
    keep = np.abs(u) > 1e-280
    if np.count_nonzero(keep) < 8:
        return math.nan
    x = x[keep] - x[keep].mean()
    y = np.log(np.abs(u[keep]))
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def _robin_solve(x0: float, x_max: float, mesh: float, drift, pot, f, phi: float,
                 q: float, rate: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve -u'' + drift(x) u' + pot(x) u = f(x), u(x0) = phi, u'(x_max) = q u(x_max)
    by central differences on the uniform grid of [x0, x_max] nearest to `mesh`;
    drift and pot are callables of the nodes, f is one or None (f = 0). The
    Robin end eliminates the ghost node u_{N+1} = u_{N-1} + 2 h q u_N from the
    last row. Returns (x, u, h).

    Raises ValueError unless mesh > 0 and x0 < x_max are finite, and
    UnderResolvedError when the grid has fewer than _MIN_CELLS cells or
    mesh * rate > 1/4 (too coarse for e^{-rate x}).
    """
    if not 0.0 < mesh < math.inf:
        raise ValueError(f"mesh must be finite and > 0, got {mesh} on [{x0}, {x_max}]")
    if not (math.isfinite(x0) and x0 < x_max < math.inf):
        raise ValueError(f"the interval [{x0}, {x_max}] must be finite with x0 < x_max")
    if mesh * rate > 0.25:
        raise UnderResolvedError(f"mesh {mesh} cannot resolve e^(-{rate} x)")
    n = int(round((x_max - x0) / mesh))
    if n < _MIN_CELLS:
        raise UnderResolvedError(f"mesh {mesh} leaves {n} < {_MIN_CELLS} cells on [{x0}, {x_max}]")
    h = (x_max - x0) / n
    x = x0 + h * np.arange(n + 1)
    xi = x[1:]
    b = np.zeros(n)
    if f is not None:
        b[:] = f(xi)
    adv = np.broadcast_to(drift(xi), (n,)) / (2.0 * h)
    lower = -1.0 / h**2 - adv
    upper = -1.0 / h**2 + adv
    main = 2.0 / h**2 + np.broadcast_to(pot(xi), (n,))
    b[0] -= lower[0] * phi
    lower[-1] += upper[-1]
    main[-1] += 2.0 * h * q * upper[-1]
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = main
    ab[2, :-1] = lower[1:]
    return x, np.concatenate([[phi], solve_banded((1, 1), ab, b)]), h


# ---------------------------------------------------------------------------
# half-cylinder problem
# ---------------------------------------------------------------------------

@dataclass
class CylinderProblem:
    """Dirichlet data for -u'' + u' + lambda u = f on tau >= T, in the space of
    weight e^{delta tau}. It is uniquely solvable for gamma^- < delta < gamma^+, where
    the default delta = -0.5 lies at every lambda >= 0; a delta outside raises, as does
    a non-finite lambda or T."""

    lam: float
    T: float = 0.0
    f: Callable[[np.ndarray], np.ndarray] | None = None
    phi: float = 1.0
    delta: float = -0.5

    def __post_init__(self):
        gp, gm = gamma_roots(self.lam)
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T}")
        if not math.isfinite(self.delta):
            raise WeightRangeError(f"delta must be finite, got {self.delta}")
        if min(abs(self.delta - gp), abs(self.delta - gm)) < _EXCEPTIONAL_GUARD:
            raise ExceptionalWeightError(
                f"delta={self.delta} is an exceptional weight of lambda={self.lam}"
            )
        if not gm < self.delta < gp:
            raise WeightRangeError(f"delta={self.delta} outside (gamma^-, gamma^+) = "
                                   f"({gm}, {gp}) of lambda={self.lam}")


@dataclass
class CylinderSolution:
    tau: np.ndarray
    u: np.ndarray
    decay_rate: float
    gamma_plus: float
    mesh: float


def cylinder_solve(p: CylinderProblem, mesh: float) -> CylinderSolution:
    """Solve the half-cylinder Dirichlet problem, selecting the decaying
    branch at the far end, and fit the decay rate of |u|."""
    gp, _ = gamma_roots(p.lam)
    window = 20.0 / max(gp, 1.0)
    # the decaying branch: u' + gp u = 0 at the far end
    tau, u, h = _robin_solve(p.T, p.T + window, mesh, lambda x: 1.0, lambda x: p.lam,
                             p.f, p.phi, -gp, rate=gp)
    sel = slice(int(0.5 * tau.size), int(0.8 * tau.size))
    return CylinderSolution(tau, u, -_log_slope(tau[sel], u[sel]), gp, h)


# ---------------------------------------------------------------------------
# exterior mode problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    """An exterior sector as the angular mode n and screening mass mu^2 of its
    model equation -u'' - u'/r + (n^2/r^2 + mu^2) u = f, checked where it is
    built: an integer n (ValueError) and a finite mu^2 >= 0 (CoercivityError).
    mu = 0 is the harmonic diagonal problem; the oscillatory sector of circle
    mode k has mu^2 = k^2, the off-diagonal sector of coercivity c > 0 mu^2 = c."""

    mode: int
    mass_sq: float

    def __post_init__(self):
        require_integer("mode", self.mode)
        if not 0.0 <= self.mass_sq < math.inf:
            raise CoercivityError(f"mass_sq must be finite and >= 0, got {self.mass_sq}")

    @staticmethod
    def diagonal_invariant(angular_mode: int = 0) -> "Sector":
        return Sector(angular_mode, 0.0)

    @staticmethod
    def oscillatory(mode: int) -> "Sector":
        if require_integer("mode", mode) == 0:
            raise ValueError("oscillatory sector needs a nonzero circle mode")
        return Sector(0, float(mode * mode))

    @staticmethod
    def off_diagonal(coercivity: float) -> "Sector":
        if not 0.0 < coercivity < math.inf:
            raise CoercivityError(f"coercivity must be finite and > 0, got {coercivity}")
        return Sector(0, float(coercivity))


@dataclass
class ExteriorModeProblem:
    sector: Sector
    R: float
    delta: float = -0.5
    f: Callable[[np.ndarray], np.ndarray] | None = None
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if not math.isfinite(self.delta):
            raise WeightRangeError(f"delta must be finite, got {self.delta}")


@dataclass
class ExteriorSolution:
    r: np.ndarray
    u: np.ndarray
    fitted_power: float
    mesh: float


def exterior_diagonal_solve(p: ExteriorModeProblem, mesh: float) -> ExteriorSolution:
    """Harmonic-mode exterior problem on [R, 10R] for the circle-invariant
    diagonal sector: -u'' - u'/r + (n^2/r^2) u = f. The far condition selects
    the bounded branch: a constant for n = 0 (log growth rejected), r^{-n}
    for n >= 1."""
    if p.sector.mass_sq != 0.0:
        raise ValueError("exterior_diagonal_solve needs the unscreened sector, mu = 0")
    if not (-1.0 < p.delta < 0.0):
        raise WeightRangeError(f"delta={p.delta} outside (-1, 0)")
    n_mode = abs(p.sector.mode)
    r_max = 10.0 * p.R
    r, u, h = _robin_solve(p.R, r_max, mesh, lambda r: -1.0 / r, lambda r: (n_mode / r) ** 2,
                           p.f, p.phi, -n_mode / r_max, rate=0.0)
    sel = (r >= 4.0 * p.R) & (r <= 7.0 * p.R)
    return ExteriorSolution(r, u, _log_slope(np.log(r[sel]), u[sel]), h)


@dataclass
class CoerciveSolution:
    r: np.ndarray
    u: np.ndarray
    mu: float
    energy_u: float
    energy_f: float
    energy_ratio: float
    decay_slope: float
    mesh: float


def exterior_coercive_solve(p: ExteriorModeProblem, mesh: float) -> CoerciveSolution:
    """Screened exterior problem -u'' - u'/r + (n^2/r^2 + mu^2) u = f of a
    sector with mu > 0, with the decaying Bessel-type far condition
    u'/u = -(mu + 1/(2r)). Reports the energy ratio
    (|u'|^2 + (mu^2 + n^2/r^2) u^2 measure r dr) / |f|^2, inf when only f = 0,
    and the fitted exponential decay slope of sqrt(r) u beyond the source support."""
    if not p.sector.mass_sq > 0.0:
        raise ValueError("exterior_coercive_solve needs a screened sector, mu > 0")
    mu, n_mode = math.sqrt(p.sector.mass_sq), abs(p.sector.mode)
    r_max = max(10.0 * p.R, p.R + 16.0 / mu)
    pot = lambda r: (n_mode / r) ** 2 + mu * mu
    r, u, h = _robin_solve(p.R, r_max, mesh, lambda r: -1.0 / r, pot, p.f, p.phi,
                           -(mu + 0.5 / r_max), rate=mu)
    du = np.gradient(u, h)
    energy_u = float(np.trapezoid((du**2 + pot(r) * u**2) * r, dx=h))
    f_all = np.zeros(r.size)
    if p.f is not None:
        f_all[:] = p.f(r)
    energy_f = float(np.trapezoid(f_all**2 * r, dx=h))
    ratio = energy_u / energy_f if energy_f > 0.0 else math.inf if energy_u > 0.0 else 0.0
    supp = np.nonzero(np.abs(f_all) > 1e-14 * max(np.abs(f_all).max(), 1e-300))[0]
    fit_lo = r[supp[-1]] + 1.0 if supp.size else p.R + 1.0
    sel = (r >= fit_lo) & (r <= r_max - 2.0)
    slope = _log_slope(r[sel], np.sqrt(r[sel]) * u[sel])
    return CoerciveSolution(r, u, mu, energy_u, energy_f, ratio, slope, h)


# ---------------------------------------------------------------------------
# weight function and Poincare inequality
# ---------------------------------------------------------------------------

def omega(r):
    """omega = sqrt(1 + r^2), as hypot(1, r): r * r overflows past r ~ 1.3e154."""
    return np.hypot(1.0, np.asarray(r, dtype=float))


def omega_gradient_norm(r):
    """|grad omega| = r / omega (< 1 everywhere)."""
    return np.asarray(r, dtype=float) / omega(r)


def omega_laplacian(r):
    """Geometer's Laplacian of omega on R^2: -(1+r^2)^{-3/2} - (1+r^2)^{-1/2}."""
    w = omega(r)
    return -(w**-3 + w**-1)


def poincare_constant(R: float) -> float:
    """The explicit constant sqrt(2 + R^2)/R of the weighted inequality, as
    sqrt(1 + 2/R^2) for R >= 1, where R^2 may overflow.

    Raises ValueError unless R is finite and > 0."""
    if not 0.0 < R < math.inf:
        raise ValueError(f"R must be positive and finite, got {R}")
    return math.sqrt(1.0 + 2.0 / (R * R)) if R >= 1.0 else math.sqrt(2.0 + R * R) / R


@dataclass
class PoincareReport:
    max_ratio: float
    ratios: np.ndarray
    n_trials: int


def _smooth_bump(x):
    """C^infty bump supported on |x| < 1."""
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
    return out


def _smooth_window(s, s1, s2, w_up, w_dn, out):
    """Write into out the sin^2-ramped indicator of [s1, s2] with ramp widths
    (w_up, w_dn) at the ascending nodes s, with s1 + w_up < s2 - w_dn."""
    i0, i2 = np.searchsorted(s, (s1, s2 - w_dn), side="right")
    i1, i3 = np.searchsorted(s, (s1 + w_up, s2), side="left")
    out[:i0] = 0.0
    out[i0:i1] = np.sin(0.5 * math.pi * (s[i0:i1] - s1) / w_up) ** 2
    out[i1:i2] = 1.0
    out[i2:i3] = np.sin(0.5 * math.pi * (s2 - s[i2:i3]) / w_dn) ** 2
    out[i3:] = 0.0
    return out


#: logarithmic extent of the trial domain, r in [R, R e^span]. Long windows
#: are what lets the near-extremal trials climb to O(1) ratios at small
#: |delta| (the ratio saturates like |delta| log(extent) before leveling off
#: near the sharp constant).
_POINCARE_LOG_SPAN = 160.0
_LOG_DBL_MAX = math.log(np.finfo(float).max)


def _trial_ratio(u: np.ndarray, mass: np.ndarray, stiff: np.ndarray, ds: float,
                 buf: np.ndarray) -> float:
    """sqrt(mass . u^2) / sqrt(stiff . (du/ds)^2) over the first u.size nodes, with
    du/ds the central difference (one-sided at the ends), worked out in buf."""
    n = u.size
    d = buf[:n]
    num_sq = np.dot(mass[:n], np.multiply(u, u, out=d))
    np.subtract(u[2:], u[:-2], out=d[1:-1])
    d[1:-1] *= 0.5
    d[0] = u[1] - u[0]
    d[-1] = u[-1] - u[-2]
    d /= ds
    return math.sqrt(num_sq) / math.sqrt(np.dot(stiff[:n], np.multiply(d, d, out=d)))


def poincare_constant_check(R: float, delta: float, trials: int,
                            seed: int = 0, n_grid: int = 32001) -> PoincareReport:
    """Test the inequality  |omega^{-(delta+1)} u| <= (C/|delta|) |omega^{-delta} u'|
    (planar measure r dr, radial diagonal trial functions) over randomized
    smooth compactly supported profiles; for delta > 0 the trials vanish at
    r = R. Returns the worst (largest) ratio, which must stay <= 1.

    Half the trials are generic bump superpositions near the boundary; the
    other half are near-extremal tapered envelopes omega^delta spread over the
    whole logarithmic window, which attain ratios >= 0.2 for |delta| >= 0.1
    and R in [1/2, 2], so the test has power.

    Quadrature: the trapezoid rule on the uniform grid s = log(r/R) of n_grid
    nodes, in which r dr = r^2 ds and (du/dr)^2 r^2 = (du/ds)^2, so each trial
    is two dot products against weights built once per call,
    mass = trapezoid weight * omega^{-2(delta+1)} r^2 and
    stiffness = trapezoid weight * omega^{-2 delta}. Each weight is one exp of
    its logarithm, with log r = s + log R and log omega = log(1 + e^(2 log r))/2,
    so neither underflows nor overflows where the weight itself is a normal
    float, at any R (r^2 alone overflows past r ~ 1e154). du/ds is the central
    difference, one-sided at the ends. A bump trial vanishes past its support
    s < 3.8, so it is evaluated on the grid prefix that ends two zero nodes
    past it; the windows use the whole grid.

    Floating point bounds |delta|. With L = log omega(R e^span), the weights
    and the squares of the near-extremal trials grow to e^(2 |delta| L) at the
    far end, and the squared derivatives to (1 + |delta|)^2 times that. As
    log(1 + |delta|) <= |delta|, all stay finite while
    |delta| <= log(DBL_MAX)/(2 (L + 1)), about 2.2 at R = 1.

    Raises ValueError unless trials is an integer >= 1, n_grid an integer >= 3
    and R finite and > 0, and WeightRangeError unless delta is finite, nonzero
    and within that bound.
    """
    if not (math.isfinite(delta) and delta != 0.0):
        raise WeightRangeError(f"delta must be finite and nonzero, got {delta}")
    scale = poincare_constant(R) / abs(delta)
    span = _POINCARE_LOG_SPAN
    # L = log omega(R e^span) = log(1 + e^(2 ell))/2, ell = log R + span, in log space
    ell = math.log(R) + span
    L = max(ell, 0.0) + 0.5 * math.log1p(math.exp(-2.0 * abs(ell)))
    delta_max = _LOG_DBL_MAX / (2.0 * (L + 1.0))
    if not abs(delta) <= delta_max:
        raise WeightRangeError(
            f"|delta| must be <= {delta_max:.6g} at R={R}, or the weights overflow; got {delta}")
    trials = require_integer("trials", trials, least=1)
    n_grid = require_integer("n_grid", n_grid, least=3)
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, span, n_grid)
    ds = span / (n_grid - 1)
    # every fresh full-grid array costs page faults, so the weights are built in
    # place: 2 log r becomes the stiffness and log(omega) the envelope omega^delta
    two_log_r = np.add(s, math.log(R))
    two_log_r *= 2.0
    # log(1 + r^2) is 2 log r to rounding once 2 log r >= 40 (e^-40 is below half
    # an ulp of 40), so exp runs only below that and never overflows
    log_w = two_log_r.copy()
    near = int(np.searchsorted(two_log_r, 40.0))
    np.log1p(np.exp(two_log_r[:near]), out=log_w[:near])
    log_w *= 0.5
    mass = np.multiply(log_w, -2.0 * (delta + 1.0))
    mass += two_log_r
    np.exp(mass, out=mass)
    stiff = np.multiply(log_w, -2.0 * delta, out=two_log_r)
    np.exp(stiff, out=stiff)
    for weight in (mass, stiff):  # the trapezoid rule
        weight *= ds
        weight[[0, -1]] *= 0.5
    envelope = np.exp(np.multiply(log_w, delta, out=log_w), out=log_w)
    window = np.empty(n_grid)
    buf = np.empty(n_grid)
    ratios = np.empty(trials)
    for i in range(trials):
        if i % 2 == 0:
            bumps = []
            for _ in range(rng.integers(1, 4)):
                wdt = rng.uniform(0.15, 0.8)
                margin = wdt + 0.02 if delta > 0.0 else -wdt * rng.uniform(0.0, 0.9)
                bumps.append((rng.uniform(margin, 3.0), wdt, rng.uniform(-1.0, 1.0)))
            # every bump vanishes from node n - 2 on
            n = min(int(np.searchsorted(s, max(c + w for c, w, _ in bumps))) + 2, n_grid)
            u = np.zeros(n)
            for c, wdt, a in bumps:
                u += a * _smooth_bump((s[:n] - c) / wdt)
        else:
            s1 = rng.uniform(0.02, 0.3) if delta > 0.0 else 0.0
            s2 = rng.uniform(0.9, 0.97) * span
            w_up = rng.uniform(0.3, 1.2)
            w_dn = rng.uniform(0.35, 0.45) * span
            u = _smooth_window(s, s1, s2, w_up, w_dn, window)
            u *= envelope
        if not u.any():
            ratios[i] = 0.0
            continue
        ratios[i] = _trial_ratio(u, mass, stiff, ds, buf) / scale
    return PoincareReport(float(ratios.max()), ratios, trials)
