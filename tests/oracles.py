"""Oracles of the test suite that check ``permono`` by routes of their own:
Fourier-Bessel sums of G built from scipy's K0/K1, never from the package's
mode kernel ``green.bessel_modes``, and the closed forms of the flat lifted
metric g_hat = 2 g_euclid that the Hopf tests compare against."""

import cmath
import math

import numpy as np
from scipy import special

from permono import abelian, green, hopf
from permono.errors import SingularPointError

TWO_PI = 2.0 * math.pi
N_CIRCLE = 128  # trapezoid nodes on the fiber circle of holonomy_integral


def green_dt_zero_check(r: float) -> float:
    """max(|d_t G(r, 0)|, |d_t G(r, pi)|) from the Fourier-Bessel gradient
    d_t G = (1/pi) sum_m m K0(m r) sin(m t), with scipy's K0 at tail 1e-14."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    m = np.arange(1, green.fourier_terms_for(r, 1e-14) + 1)
    mk0 = m * special.k0(m * r)
    return max(abs(float(mk0 @ np.sin(m * t))) / math.pi for t in (0.0, math.pi))


def flux_through_fiber(r: float, dt_nodes: np.ndarray) -> float:
    """Trapezoid value of the circle integral of r d_r G over the fiber {r} x S^1
    at circle offsets dt_nodes, with d_r G = 1/(2 pi r) + (1/pi) sum_m m K1(m r)
    cos(m dt) from scipy's K1 (tail < 1e-30)."""
    m = np.arange(1, math.ceil(72.0 / r) + 1)
    g_r = 1.0 / (TWO_PI * r) + (m * special.k1(m * r)) @ np.cos(np.multiply.outer(m, dt_nodes)) / math.pi
    return TWO_PI * r * float(np.mean(g_r))


def holonomy_integral(m: abelian.AbelianMonopole, z: complex) -> complex:
    """Integral-route holonomy: the derivative of the fiber integral of A in
    the base angle equals i times the flux of the curvature through the fiber
    (the circle integral of r d_r G). That flux is computed by quadrature; it
    is angle-independent by rotational invariance of G about its center, so
    the arc integral from each term's reference ray collapses to
    flux * theta. A correct quadrature must return flux = 1 per unit charge,
    which is exactly what the comparison with the closed form verifies."""
    ts = np.arange(N_CIRCLE) * TWO_PI / N_CIRCLE
    phase = TWO_PI * m.b
    for term in m.terms:
        if term.kind is not abelian.Kind.PERIODIC:
            continue
        dz = complex(z) - term.center.z
        if dz == 0:
            raise SingularPointError("holonomy undefined through a singular center")
        phase += term.charge * flux_through_fiber(abs(dz), ts - term.center.t) * cmath.phase(dz)
    return cmath.exp(-1j * phase)


def circle_pushforward(s: float) -> np.ndarray:
    """Differential of the circle action (block rotation by +s and -s)."""
    c, n = math.cos(s), math.sin(s)
    return np.array([
        [c, -n, 0, 0],
        [n, c, 0, 0],
        [0, 0, c, n],
        [0, 0, -n, c],
    ])


def lifted_metric(u: np.ndarray, v: np.ndarray) -> float:
    """g_hat(u, v) = 2 u . v."""
    return 2.0 * float(np.dot(u, v))


def curvature_norm_sq_lifted(F: np.ndarray) -> float:
    """|F|^2 in g_hat (2-forms scale by the inverse square conformal factor)."""
    return 0.25 * float(np.dot(F, F))


def star_dh(p: hopf.Quat4Point) -> np.ndarray:
    """pi^*(*_3 dh) at p, for h = 1/(2 rho): the exact value of d theta0, as
    the six components (12, 13, 14, 23, 24, 34) of ``hopf.curvature_fd``."""
    X = hopf.hopf_project(p)
    b = -X / (2.0 * float(np.linalg.norm(X)) ** 3)
    # (*dh)_{jk} = eps_{jkl} d_l h: components (23, 31, 12) = grad h
    B = np.array([
        [0.0, b[2], -b[1]],
        [-b[2], 0.0, b[0]],
        [b[1], -b[0], 0.0],
    ])
    J = hopf.projection_jacobian(p)
    M = J.T @ B @ J
    return np.array([M[mu, nu] for mu, nu in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))])
