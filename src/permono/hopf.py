"""Hopf projection, Gibbons-Hawking data and the lift of Dirac-monopole pairs
to circle-invariant anti-self-dual connections on the punctured 4-ball.

Projection and circle action:

    pi(z1, z2) = (|z1|^2 - |z2|^2, 2 z1 z2),   e^{is}.(z1, z2) = (e^{is}z1, e^{-is}z2).

With rho = |pi(p)| (= |p|^2 in R^4) the Gibbons-Hawking potential is
h = 1/(2 rho) and theta0 = Im(conj(z1) dz1 - conj(z2) dz2)/rho, normalized so
that theta0(fiber tangent) = 1 and d theta0 = pi^*(*_3 dh) exactly. These
choices force the lifted metric to be

    g_hat = h pi^* g_3 + h^{-1} theta0^2 = 2 g_euclid,

a constant conformal rescaling of the flat metric (the fiber period is 2 pi).
All norms in this module are taken in g_hat; anti-self-duality and the
equation *dh = d theta0 are insensitive to the constant factor, and the norm
identity |lift(a, psi)|^2 = h^{-1}(|a|^2 + |psi|^2) holds exactly.

The configurations are reducible (valued in the sigma_3 line of su(2)), so
connections are handled through their real u(1) coefficient 1-form w, with
curvature dw; the weight-k circle action of the singular gauge acts on the
off-diagonal part by the phase e^{i k theta_1} (chart z1 != 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegimeError

_AXIS_EPS = 1e-8


@dataclass
class Quat4Point:
    """A point of R^4 = C^2."""

    z1: complex
    z2: complex

    def __post_init__(self):
        self.z1 = complex(self.z1)
        self.z2 = complex(self.z2)
        if not (cmath.isfinite(self.z1) and cmath.isfinite(self.z2)):
            raise ValueError(f"point coordinates must be finite, got ({self.z1}, {self.z2})")

    @property
    def rho(self) -> float:
        """|pi(p)| = |z1|^2 + |z2|^2, the base distance to the origin."""
        return abs(self.z1) ** 2 + abs(self.z2) ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.z1.real, self.z1.imag, self.z2.real, self.z2.imag])

    @staticmethod
    def from_array(x) -> "Quat4Point":
        return Quat4Point(complex(x[0], x[1]), complex(x[2], x[3]))


@dataclass
class LiftedForm:
    """A 1-form on R^4 at a base point, in the Cartesian frame (dx1..dx4)."""

    components: np.ndarray
    base: Quat4Point

    @property
    def norm_sq(self) -> float:
        """Squared norm in the lifted metric g_hat = 2 g_euclid."""
        return 0.5 * float(np.dot(self.components, self.components))

    def pair(self, v: np.ndarray) -> float:
        """Evaluate on a tangent vector."""
        return float(np.dot(self.components, v))


def hopf_project(p: Quat4Point) -> np.ndarray:
    """(|z1|^2 - |z2|^2, Re(2 z1 z2), Im(2 z1 z2))."""
    w = 2.0 * p.z1 * p.z2
    return np.array([abs(p.z1) ** 2 - abs(p.z2) ** 2, w.real, w.imag])


def projection_jacobian(p: Quat4Point) -> np.ndarray:
    """3x4 Jacobian of hopf_project; J J^T = 4 rho I_3 and J (fiber) = 0."""
    x1, x2, x3, x4 = p.as_array()
    return 2.0 * np.array([
        [x1, x2, -x3, -x4],
        [x3, -x4, x1, -x2],
        [x4, x3, x2, x1],
    ])


def fiber_tangent(p: Quat4Point) -> np.ndarray:
    """Generator (i z1, -i z2) of the circle action."""
    x1, x2, x3, x4 = p.as_array()
    return np.array([-x2, x1, x4, -x3])


def circle_act(p: Quat4Point, s: float) -> Quat4Point:
    return Quat4Point(p.z1 * np.exp(1j * s), p.z2 * np.exp(-1j * s))


def circle_pushforward(s: float) -> np.ndarray:
    """Differential of the circle action (block rotation by +s and -s)."""
    c, n = math.cos(s), math.sin(s)
    return np.array([
        [c, -n, 0, 0],
        [n, c, 0, 0],
        [0, 0, c, n],
        [0, 0, -n, c],
    ])


def gh_potential(p: Quat4Point) -> float:
    """h = 1/(2 rho)."""
    rho = p.rho
    if rho == 0.0:
        raise OutOfRegimeError("Gibbons-Hawking data undefined at the origin")
    return 0.5 / rho


def gibbons_hawking_connection(p: Quat4Point) -> LiftedForm:
    """theta0 = Im(conj(z1) dz1 - conj(z2) dz2)/rho; theta0(fiber) = 1 and
    d theta0 = pi^*(*dh) with h = 1/(2 rho)."""
    rho = p.rho
    if rho == 0.0:
        raise OutOfRegimeError("Gibbons-Hawking data undefined at the origin")
    x1, x2, x3, x4 = p.as_array()
    return LiftedForm(np.array([-x2, x1, x4, -x3]) / rho, p)


def lifted_metric(u: np.ndarray, v: np.ndarray) -> float:
    """g_hat(u, v) = 2 u . v."""
    return 2.0 * float(np.dot(u, v))


def lift_form(a, psi: float, p: Quat4Point) -> LiftedForm:
    """Lift of a pair (1-form a on R^3, scalar psi):
    pi^* a - (psi/h) theta0, with |lift|^2 = h^{-1}(|a|^2 + psi^2) exactly."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError("a must be a 3-component base covector")
    h = gh_potential(p)
    comps = projection_jacobian(p).T @ a - (psi / h) * gibbons_hawking_connection(p).components
    return LiftedForm(comps, p)


def _chart(p: Quat4Point, chart: str) -> str:
    if chart not in ("+", "-", "auto"):
        raise ValueError(f"chart must be '+', '-' or 'auto', got {chart!r}")
    r1, r2 = abs(p.z1), abs(p.z2)
    if r1 < _AXIS_EPS and r2 < _AXIS_EPS:
        raise OutOfRegimeError("point too close to the origin of the 4-ball")
    if chart == "auto":
        chart = "+" if r1 >= r2 else "-"
    if chart == "+" and r1 < _AXIS_EPS:
        raise OutOfRegimeError("chart '+' is singular on the z1 = 0 axis")
    if chart == "-" and r2 < _AXIS_EPS:
        raise OutOfRegimeError("chart '-' is singular on the z2 = 0 axis")
    return chart


def _dtheta1(p: Quat4Point) -> np.ndarray:
    x1, x2, x3, x4 = p.as_array()
    r2 = x1 * x1 + x2 * x2
    return np.array([-x2, x1, 0.0, 0.0]) / r2


def _dtheta2(p: Quat4Point) -> np.ndarray:
    x1, x2, x3, x4 = p.as_array()
    r2 = x3 * x3 + x4 * x4
    return np.array([0.0, 0.0, -x4, x3]) / r2


def lift_dirac_connection(k: int, mass: float, p: Quat4Point, chart: str) -> LiftedForm:
    """u(1) coefficient of the lifted charge-k, mass `mass` Dirac monopole:

        w = k dtheta1 - 2 mass rho theta0 (chart '+'),   -k dtheta2 - 2 mass rho theta0 (chart '-'),

    with rho theta0 = x1 dx2 - x2 dx1 - x3 dx4 + x4 dx3 (``fiber_tangent``). This
    is ``lift_form`` of the base Dirac pair a+- = (k/2)(+-1 - cos theta) dphi,
    psi = mass - k/(2 rho): with z1 = sqrt(rho) cos(theta/2) e^{i theta1} and
    z2 = sqrt(rho) sin(theta/2) e^{i theta2}, phi = theta1 + theta2 and
    theta0 = cos^2(theta/2) dtheta1 - sin^2(theta/2) dtheta2, so pi^* a+ + k theta0
    = k dtheta1 and pi^* a- + k theta0 = -k dtheta2, while -(psi/h) theta0 =
    (k - 2 mass rho) theta0. The charge part is closed off its axis, and
    d(rho theta0) = 2 (dx12 - dx34) gives ``dirac_curvature_analytic``.

    The chart is '+' or '-' and has no automatic choice: a form differenced
    over a stencil must keep one gauge at every stencil point, and a
    per-point choice switches gauge where |z1| = |z2| crosses the stencil.
    """
    if chart not in ("+", "-"):
        raise ValueError(f"chart must be '+' or '-', got {chart!r}")
    if not math.isfinite(mass):
        raise ValueError(f"mass must be finite, got {mass}")
    charge = k * _dtheta1(p) if _chart(p, chart) == "+" else -k * _dtheta2(p)
    return LiftedForm(charge - 2.0 * mass * fiber_tangent(p), p)


def singular_gauge_phase(k: int, p: Quat4Point, chart: str = "auto") -> complex:
    """Unit phase of the singular gauge transformation on the off-diagonal
    line: e^{i k theta1} on chart '+', e^{-i k theta2} on chart '-'."""
    chart = _chart(p, chart)
    if chart == "+":
        th = math.atan2(p.z1.imag, p.z1.real)
        return complex(math.cos(k * th), math.sin(k * th))
    th = math.atan2(p.z2.imag, p.z2.real)
    return complex(math.cos(k * th), -math.sin(k * th))


_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def curvature_fd(form_fn, p: Quat4Point, h: float) -> np.ndarray:
    """Central-difference curvature F_{mu nu} = d_mu w_nu - d_nu w_mu of a
    1-form field; returns the 6 components ordered (12, 13, 14, 23, 24, 34)."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be finite and > 0, got {h}")
    x = p.as_array()
    grad = np.zeros((4, 4))  # grad[mu, nu] = d_mu w_nu
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        wp = form_fn(Quat4Point.from_array(x + e)).components
        wm = form_fn(Quat4Point.from_array(x - e)).components
        grad[mu] = (wp - wm) / (2.0 * h)
    return np.array([grad[mu, nu] - grad[nu, mu] for mu, nu in _PAIRS])


def curvature_richardson(form_fn, p: Quat4Point, h: float) -> np.ndarray:
    """Fourth-order curvature via Richardson extrapolation of the stencil."""
    return (4.0 * curvature_fd(form_fn, p, 0.5 * h) - curvature_fd(form_fn, p, h)) / 3.0


def self_dual_part_norm(F: np.ndarray) -> float:
    """Euclidean norm of the self-dual components (F12+F34, F13-F24, F14+F23);
    zero exactly when F is anti-self-dual (orientation dx1^dx2^dx3^dx4)."""
    s1 = F[0] + F[5]
    s2 = F[1] - F[4]
    s3 = F[2] + F[3]
    return math.sqrt(s1 * s1 + s2 * s2 + s3 * s3)


def curvature_norm_sq_lifted(F: np.ndarray) -> float:
    """|F|^2 in g_hat (2-forms scale by the inverse square conformal factor)."""
    return 0.25 * float(np.dot(F, F))


def dirac_curvature_analytic(mass: float) -> np.ndarray:
    """Exact curvature of the lifted Dirac connection: -4 mass (dx12 - dx34)."""
    return np.array([-4.0 * mass, 0.0, 0.0, 0.0, 0.0, 4.0 * mass])


def pullback_base_two_form(beta: np.ndarray, p: Quat4Point) -> np.ndarray:
    """pi^* of a 2-form on R^3 given by components (b23, b31, b12) -> the six
    4D components ordered as in curvature_fd."""
    J = projection_jacobian(p)
    B = np.array([
        [0.0, beta[2], -beta[1]],
        [-beta[2], 0.0, beta[0]],
        [beta[1], -beta[0], 0.0],
    ])
    M = J.T @ B @ J
    return np.array([M[mu, nu] for mu, nu in _PAIRS])


def star_dh(p: Quat4Point) -> np.ndarray:
    """pi^*(*_3 dh) at p, for h = 1/(2 rho): the exact value of d theta0."""
    X = hopf_project(p)
    rho = float(np.linalg.norm(X))
    grad_h = -X / (2.0 * rho**3)
    # (*dh)_{jk} = eps_{jkl} d_l h; components (23, 31, 12) = grad_h
    return pullback_base_two_form(grad_h, p)
