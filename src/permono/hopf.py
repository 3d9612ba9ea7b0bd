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

A point is held one way only: ``Quat4Point(z1, z2)``, z1 = x1 + i x2 and
z2 = x3 + i x4 complex scalars, or complex arrays of one shape for an array
of points, at which every function of a point but the curvature stencils
works elementwise. A 1-form is a plain array of its components (dx1..dx4),
of shape (4, *shape) at an array point: it evaluates on a tangent vector v
as w @ v, and ``lifted_norm_sq`` is its g_hat norm at every point. So
``curvature_richardson`` steps z1 and z2 by complex offsets and gets its 16
stencil forms from one ``form_fn`` call. Charges are integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegimeError, require_integer

_AXIS_EPS = 1e-8


@dataclass
class Quat4Point:
    """A point of R^4 = C^2, or an array of points: z1 and z2 are complex
    scalars or complex arrays of one shape, with rho = |z1|^2 + |z2|^2 finite
    (so |p| < sqrt(DBL_MAX), about 1.34e154), else ValueError."""

    z1: complex | np.ndarray
    z2: complex | np.ndarray

    def __post_init__(self):
        z1, z2 = np.asarray(self.z1, dtype=complex), np.asarray(self.z2, dtype=complex)
        with np.errstate(over="ignore"):  # rho is not finite where it overflows or a coordinate is not
            rho = np.abs(z1) ** 2 + np.abs(z2) ** 2 if z1.shape == z2.shape else math.nan
        if not np.isfinite(rho).all():
            raise ValueError(f"coordinates and rho must be finite, of one shape, got ({self.z1}, {self.z2})")
        self.z1, self.z2 = (complex(z1), complex(z2)) if z1.ndim == 0 else (z1, z2)

    @property
    def rho(self) -> float | np.ndarray:
        """|pi(p)| = |z1|^2 + |z2|^2, the base distance to the origin, per point."""
        return abs(self.z1) ** 2 + abs(self.z2) ** 2


def lifted_norm_sq(w: np.ndarray):
    """Squared norm of the 1-form w, shape (4, *shape), in the lifted metric
    g_hat = 2 g_euclid, at each of its points."""
    return 0.5 * np.einsum("i...,i...->...", w, w)


def hopf_project(p: Quat4Point) -> np.ndarray:
    """(|z1|^2 - |z2|^2, Re(2 z1 z2), Im(2 z1 z2))."""
    w = 2.0 * p.z1 * p.z2
    return np.array([abs(p.z1) ** 2 - abs(p.z2) ** 2, w.real, w.imag])


def projection_jacobian(p: Quat4Point) -> np.ndarray:
    """3x4 Jacobian of hopf_project; J J^T = 4 rho I_3 and J (fiber) = 0."""
    x1, x2, x3, x4 = p.z1.real, p.z1.imag, p.z2.real, p.z2.imag
    return 2.0 * np.array([
        [x1, x2, -x3, -x4],
        [x3, -x4, x1, -x2],
        [x4, x3, x2, x1],
    ])


def fiber_tangent(p: Quat4Point) -> np.ndarray:
    """Generator (i z1, -i z2) of the circle action."""
    return np.array([-p.z1.imag, p.z1.real, p.z2.imag, -p.z2.real])


def circle_act(p: Quat4Point, s: float) -> Quat4Point:
    return Quat4Point(p.z1 * np.exp(1j * s), p.z2 * np.exp(-1j * s))


def gh_potential(p: Quat4Point) -> float | np.ndarray:
    """h = 1/(2 rho): a float, or an array of the points' shape. OutOfRegimeError
    where rho is below the smallest normal float (0, or 1/(2 rho) not finite)."""
    rho = p.rho
    if np.any(rho < np.finfo(float).tiny):
        raise OutOfRegimeError(f"Gibbons-Hawking data undefined at the origin, rho={np.min(rho)}")
    return 0.5 / rho


def gibbons_hawking_connection(p: Quat4Point) -> np.ndarray:
    """theta0 = Im(conj(z1) dz1 - conj(z2) dz2)/rho; theta0(fiber) = 1 and
    d theta0 = pi^*(*dh) with h = 1/(2 rho)."""
    return 2.0 * gh_potential(p) * fiber_tangent(p)


def lift_form(a, psi: float, p: Quat4Point) -> np.ndarray:
    """Lift of a pair (1-form a on R^3, scalar psi): pi^* a - (psi/h) theta0,
    formed as pi^* a - 2 psi T, T = ``fiber_tangent(p)``, since theta0 = 2 h T;
    |lift|^2 = h^{-1}(|a|^2 + psi^2) exactly. No h is formed, so the lift is 0
    at the origin; at an array of points, the lift of the same pair at each."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError("a must be a 3-component base covector")
    if not (math.isfinite(psi) and np.isfinite(a).all()):
        raise ValueError(f"a and psi must be finite, got a={a}, psi={psi}")
    return np.tensordot(a, projection_jacobian(p), axes=(0, 0)) - 2.0 * psi * fiber_tangent(p)


def _chart(p: Quat4Point, chart: str) -> bool | np.ndarray:
    """Whether each point of p takes chart '+' (a bool, or a bool array),
    checked at every point; 'auto' takes '+' where |z1| >= |z2|."""
    if chart not in ("+", "-", "auto"):
        raise ValueError(f"chart must be '+', '-' or 'auto', got {chart!r}")
    near1, near2 = np.abs(p.z1) < _AXIS_EPS, np.abs(p.z2) < _AXIS_EPS
    if (near1 & near2).any():
        raise OutOfRegimeError("point too close to the origin of the 4-ball")
    if chart == "auto":
        return np.abs(p.z1) >= np.abs(p.z2)
    if chart == "+" and near1.any():
        raise OutOfRegimeError("chart '+' is singular on the z1 = 0 axis")
    if chart == "-" and near2.any():
        raise OutOfRegimeError("chart '-' is singular on the z2 = 0 axis")
    return chart == "+"


def _dtheta(p: Quat4Point, chart: str) -> np.ndarray:
    """d theta1 = d arg z1 on chart '+', d theta2 = d arg z2 on chart '-'."""
    z, a = (p.z1, 0) if chart == "+" else (p.z2, 2)
    out = np.zeros((4, *np.shape(z)))
    out[a], out[a + 1] = -z.imag, z.real
    return out / (z.real * z.real + z.imag * z.imag)


def lift_dirac_connection(k: int, mass: float, p: Quat4Point, chart: str) -> np.ndarray:
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
    k = require_integer("charge k", k)
    if chart == "auto":
        raise ValueError("chart must be '+' or '-', got 'auto'")
    if not math.isfinite(mass):
        raise ValueError(f"mass must be finite, got {mass}")
    sign = 1 if _chart(p, chart) else -1
    return sign * k * _dtheta(p, chart) - 2.0 * mass * fiber_tangent(p)


def singular_gauge_phase(k: int, p: Quat4Point, chart: str = "auto") -> complex | np.ndarray:
    """Unit phase of the singular gauge transformation on the off-diagonal
    line: e^{i k theta1} on chart '+', e^{-i k theta2} on chart '-'; a
    complex, or a complex array of the points' shape. A phase is never
    differenced, so 'auto' chooses the chart at each point."""
    k = require_integer("charge k", k)
    th = k * np.angle(np.where(_chart(p, chart), p.z1, np.conj(p.z2)))
    return np.cos(th) + 1j * np.sin(th)


_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_MU, _NU = np.array(_PAIRS).T
# the unit steps e_mu of x1..x4 as offsets of z1 and of z2
_UNIT1, _UNIT2 = np.array([1.0, 1j, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1j])


def _stencil_curvatures(form_fn, p: Quat4Point, h: float, fractions) -> np.ndarray:
    """Central-difference curvatures F_{mu nu} = d_mu w_nu - d_nu w_mu of a
    1-form field at each step h * fraction, shape (len(fractions), 6), from
    one form_fn call on all 8 len(fractions) stencil points p +- step e_mu."""
    if np.ndim(p.z1):
        raise ValueError(f"the curvature stencil takes one point, got an array of shape {np.shape(p.z1)}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be finite and > 0, got {h}")
    steps = h * np.asarray(fractions)
    d = np.multiply.outer(steps, [1.0, -1.0])[:, :, None]  # d[s, sign, 0]
    w = form_fn(Quat4Point(p.z1 + d * _UNIT1, p.z2 + d * _UNIT2))  # w[nu, s, sign, mu]
    grad = (w[:, :, 0] - w[:, :, 1]) / (2.0 * steps[:, None])  # grad[nu, s, mu] = d_mu w_nu
    return (grad[_NU, :, _MU] - grad[_MU, :, _NU]).T


def curvature_fd(form_fn, p: Quat4Point, h: float) -> np.ndarray:
    """Central-difference curvature F_{mu nu} = d_mu w_nu - d_nu w_mu of a
    1-form field at one point p, ordered (12, 13, 14, 23, 24, 34). form_fn
    takes a Quat4Point array of stencil points and returns their forms at
    once, as ``lift_dirac_connection`` does; an array p raises ValueError."""
    return _stencil_curvatures(form_fn, p, h, [1.0])[0]


def curvature_richardson(form_fn, p: Quat4Point, h: float) -> np.ndarray:
    """Fourth-order curvature via Richardson extrapolation of the stencil at
    steps h/2 and h, both from one form_fn call on their 16 points."""
    half, full = _stencil_curvatures(form_fn, p, h, [0.5, 1.0])
    return (4.0 * half - full) / 3.0


def self_dual_part_norm(F: np.ndarray) -> float:
    """Euclidean norm of the self-dual components (F12+F34, F13-F24, F14+F23);
    zero exactly when F is anti-self-dual (orientation dx1^dx2^dx3^dx4)."""
    s1 = F[0] + F[5]
    s2 = F[1] - F[4]
    s3 = F[2] + F[3]
    return math.sqrt(s1 * s1 + s2 * s2 + s3 * s3)


def dirac_curvature_analytic(mass: float) -> np.ndarray:
    """Exact curvature of the lifted Dirac connection: -4 mass (dx12 - dx34)."""
    return np.array([-4.0 * mass, 0.0, 0.0, 0.0, 0.0, 4.0 * mass])
