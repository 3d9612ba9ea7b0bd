"""Oracles of the test suite that check ``permono`` by routes of their own:
Fourier-Bessel sums of G built from scipy's K0/K1, never from the package's
mode kernel ``green.bessel_modes``, the closed-form majorant of K0/K1, and the
mode counts by the linear form of the sizing rule and by stepping the true K0
tail; the image sum of G over all M images at once, the reference of the
blocked ``green.green_image_sum``, the exact tail of that sum in mpmath, the
reference of its bound, and the whole image sum of G and its gradient in
mpmath, the reference of the Legendre-zeta series; the closed forms of the flat
lifted metric g_hat = 2 g_euclid that the Hopf tests compare against; and the
closed forms of the charge-m sphere spectrum and of the decay rate of the
cylinder's central-difference scheme."""

import cmath
import math

import mpmath as mp
import numpy as np
from scipy import special

from permono import abelian, green, hopf
from permono.errors import SingularPointError
from permono.specfn import A0

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


def k_majorant(x: float, nu: int) -> float:
    """The closed-form upper bound sqrt(pi/2x) e^{-x} (1 + 3/(8x))^nu of K_nu(x),
    nu in {0, 1}, x > 0 (DLMF 10.40(ii), see the ``green`` module docstring)."""
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 0.375 / x) ** nu


def mode_count(r: float, tol: float, nu: int) -> int:
    """The smallest M >= 0 with pref(r) r^nu Kmaj_nu((M+1) r) <= tol, in the
    rule's linear form and in pure math, with pref(r) = 1/(pi (1 - e^{-r})),
    by bisection over 0 <= M <= green._MAX_FOURIER_TERMS (the bound decreases
    in M). ``green._mode_counts``, which decides in log form, meets or exceeds
    it by at most one."""
    def bound(M):
        return r**nu / (math.pi * -math.expm1(-r)) * k_majorant((M + 1) * r, nu)

    lo, hi = -1, green._MAX_FOURIER_TERMS
    if bound(hi) > tol:
        raise ValueError(f"no count up to {hi} meets tol={tol} at r={r}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= tol else (mid, hi)
    return hi


def fourier_bessel_count(r: float, tol: float) -> int:
    """The smallest M >= 0 whose tail bound pref(r) K0((M+1) r) <= tol, with
    the true K0 of scipy and pref(r) = 1/(pi (1 - e^{-r})) in pure math, found
    by stepping M up from 0: the fewest count, which the closed-form count
    of G's Fourier-Bessel rows meets or exceeds by at most one."""
    pref = 1.0 / (math.pi * -math.expm1(-r))
    M = 0
    while pref * float(special.k0((M + 1) * r)) > tol:
        M += 1
    return M


def image_sum_unblocked(p: green.CirclePoint3, q: green.CirclePoint3, M: int) -> green.GreenEval:
    """The paired image sum over m = 1..M from arrays of length M formed at
    once: the reference of the blocked ``green.green_image_sum``, which must
    agree up to rounding."""
    dx, dy, dt = green._offsets(p, q)
    r2 = dx * dx + dy * dy
    m = np.arange(1, M + 1, dtype=float)
    up = dt - TWO_PI * m
    dn = dt + TWO_PI * m
    dup = np.sqrt(r2 + up * up)
    ddn = np.sqrt(r2 + dn * dn)
    a_m = 1.0 / (TWO_PI * m)
    d0 = math.sqrt(r2 + dt * dt)
    value = -0.5 * ((1.0 / d0 - A0) + float(np.sum((1.0 / dup - a_m) + (1.0 / ddn - a_m))))
    iup3 = dup**-3
    idn3 = ddn**-3
    s3 = float(np.sum(iup3 + idn3)) + d0**-3
    gt = 0.5 * (float(np.sum(up * iup3 + dn * idn3)) + dt * d0**-3)
    bound = green.image_tail_constant(math.sqrt(r2), dt) / (M * M)
    return green.GreenEval(value, np.array([0.5 * dx * s3, 0.5 * dy * s3, gt]), bound,
                           green.Regime.IMAGE_SUM, terms=M)


def image_sum_tail(r: float, dt: float, M: int) -> float:
    """|G - image sum over m <= M| at the offset (r, dt), 0 < rho < 2 pi (M+1),
    in mpmath: the Legendre generating function (DLMF 18.12.11) expands each
    image pair of s = 2 pi m > rho as 2 sum_{n even} rho^n P_n(mu)/s^(n+1),
    mu = dt/rho, and sum_{m>M} s^-(n+1) = zeta(n+1, M+1)/(2 pi)^(n+1), so the
    tail is |sum_{k>=1} rho^2k P_2k(mu) zeta(2k+1, M+1)/(2 pi)^(2k+1)|. As
    |P_n| <= 1 and zeta(2k+1, M+1) <= (M+1)^(2-2k) zeta(3, M+1), the k-th term
    is at most x^(k-1), x = (rho/(2 pi (M+1)))^2, times the first one's
    majorant, and the sum stops once x^(k-1) < 1e-25."""
    with mp.workdps(30):
        rho = mp.sqrt(mp.mpf(r) ** 2 + mp.mpf(dt) ** 2)
        mu, x = mp.mpf(dt) / rho, (rho / (2 * mp.pi * (M + 1))) ** 2
        if not 0 < x < 1:
            raise ValueError(f"needs 0 < rho < 2 pi (M + 1), got rho={rho}")
        total, k = mp.mpf(0), 1
        while x**(k - 1) >= 1e-25:
            total += (rho**(2 * k) * mp.legendre(2 * k, mu) * mp.zeta(2 * k + 1, M + 1)
                      / (2 * mp.pi) ** (2 * k + 1))
            k += 1
        return float(abs(total))


def green_image_nsum(dx: float, dy: float, dt: float) -> tuple[float, np.ndarray]:
    """G and its gradient at the offset (dx, dy, dt) from the whole paired image
    sum in mpmath at 30 digits: G = -(1/d(dt) - a0 + sum_{m>=1} pair_m)/2,
    pair_m = 1/d(dt - 2 pi m) + 1/d(dt + 2 pi m) - 1/(pi m), d(s) = sqrt(r^2 + s^2),
    and the gradient of each image summed the same way. The sums over m are
    extrapolated to m = inf (``mp.nsum`` by Richardson: each summand has an
    expansion in 1/m), so no truncation of the package enters: the reference
    of the Legendre-zeta series at any tol."""
    with mp.workdps(30):
        dx, dy, dt = mp.mpf(dx), mp.mpf(dy), mp.mpf(dt)
        r2, tp = dx * dx + dy * dy, 2 * mp.pi

        def images(f, regular=lambda m: 0):  # f at s = dt -+ 2 pi m, summed over m >= 1
            return mp.nsum(lambda m: f(dt - tp * m) + f(dt + tp * m) - regular(m), [1, mp.inf],
                           method="richardson")

        def d(s):
            return mp.sqrt(r2 + s * s)

        pair = images(lambda s: 1 / d(s), lambda m: 2 / (tp * m))
        cube = images(lambda s: d(s) ** -3) + d(dt) ** -3
        moment = images(lambda s: s * d(s) ** -3) + dt * d(dt) ** -3
        a0 = (mp.log(4 * mp.pi) - mp.euler) / mp.pi
        value = -(1 / d(dt) - a0 + pair) / 2
        return float(value), np.array([float(dx * cube / 2), float(dy * cube / 2), float(moment / 2)])


def kuwabara_eigenvalues(m: int, j_max: int) -> list[tuple[int, float, int]]:
    """[(l, (l(l+2) - m^2)/4, l+1)] for l = |m| + 2j, j = 0..j_max, in closed
    form: the spectrum of the charge-m sphere Laplacian (Kuwabara), that of
    ``spectral.operator_L_spectrum`` shifted by -m^2/4."""
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    ls = range(abs(m), abs(m) + 2 * j_max + 1, 2)
    return [(l, (l * (l + 2) - m * m) / 4.0, l + 1) for l in ls]


def discrete_decay_rate(lam: float, h: float) -> float:
    """-log(zeta)/h for the decaying root zeta of the central-difference
    scheme of -u'' + u' + lam u = 0 at mesh h, i.e. of
    (h/2 - 1) zeta^2 + (2 + lam h^2) zeta - (1 + h/2) = 0 (both roots are
    positive; the decaying one is the smaller)."""
    a, b, c = 0.5 * h - 1.0, 2.0 + lam * h * h, -(1.0 + 0.5 * h)
    disc = math.sqrt(b * b - 4.0 * a * c)
    zeta = min((-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a))
    return -math.log(zeta) / h


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
    the six components (12, 13, 14, 23, 24, 34) of a curvature."""
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
