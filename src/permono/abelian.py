"""Abelian monopole configurations on R^2 x S^1: signed sums of Dirac-type
terms over a vacuum pair (v, b), with field evaluation, the explicit radial
gauge in the exterior region, holonomy around circle fibers, large-distance
asymptotics of a translated center, the scaling action, and a grid residual
for the abelian Bogomolny equation curl(a) = grad(phi).

The grid residual works on rank-K factors of the fields over exact
t-difference identities, sweeping the x-rows in slabs of _SLAB_ROWS with each
kept K0/K1 value computed once: memory O(K ny _SLAB_ROWS) for the slab buffers
plus O(nx ny) per term for the planar arrays (``bogomolny_residual``).

Conventions. Connections are written A = i(a_theta dtheta + a_t dt) with real
coefficients; FieldSample carries the real parts. The exterior radial gauge
fixes the half-integer holonomy shift alpha = 1/2 and is expressed in polar
coordinates centred at the term's own singularity, with the circle offset
reduced to (-pi, pi] (the gauge has a seam on the opposite half-period plane).
Euclidean terms contribute to the Higgs field only; their connection lives in
the four-dimensional lift (module hopf).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import green
from .errors import OutOfRegimeError, SingularPointError, require_integer
from .green import CirclePoint3, reduce_angle_signed

TWO_PI = 2.0 * math.pi


class Kind(enum.Enum):
    PERIODIC = "Periodic"
    EUCLIDEAN = "Euclidean"


@dataclass
class DiracTerm:
    center: CirclePoint3
    charge: int
    kind: Kind = Kind.PERIODIC

    def __post_init__(self):
        require_integer("Dirac charge", self.charge)
        if self.charge == 0:
            raise ValueError("Dirac term must carry nonzero charge")
        if not isinstance(self.kind, Kind):
            raise ValueError(f"Dirac term kind must be a Kind, got {self.kind!r}")


@dataclass
class AbelianMonopole:
    """Signed sum of Dirac terms twisted by the flat pair (v, b), b in [0,1)."""

    terms: list[DiracTerm] = field(default_factory=list)
    v: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.b)):
            raise ValueError(f"vacuum pair must be finite, got v={self.v}, b={self.b}")
        b = float(self.b) % 1.0  # a tiny negative b rounds to 1.0
        self.b = 0.0 if b == 1.0 else b
        centers = [t.center for t in self.terms]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if centers[i].distance(centers[j]) == 0.0:
                    raise ValueError("term centers must be pairwise distinct")

    @property
    def total_periodic_charge(self) -> int:
        return sum(t.charge for t in self.terms if t.kind is Kind.PERIODIC)


@dataclass
class FieldSample:
    """Higgs value (-i Phi) and radial-gauge connection coefficients."""

    higgs: float
    a_theta: float
    a_t: float


def _periodic_terms(m: AbelianMonopole) -> list[DiracTerm]:
    return [t for t in m.terms if t.kind is Kind.PERIODIC]


def _higgs_terms(m: AbelianMonopole, p: CirclePoint3, tol: float) -> tuple[float, np.ndarray]:
    """Value and gradient (d/dx, d/dy, d/dt) of the Higgs field at p: v plus
    each periodic term's k G at tol / (number of terms) and each Euclidean
    term's Coulomb profile -k/(2 rho), rho taken at the circle offset reduced
    to (-pi, pi]."""
    n = max(len(m.terms), 1)
    periodic = _periodic_terms(m)
    val, grad = m.v, np.zeros(3)
    for term, g in zip(periodic, green.green_eval_many(p, [t.center for t in periodic], tol / n)):
        val += term.charge * g.value
        grad += term.charge * g.grad
    for term in m.terms:
        if term.kind is Kind.EUCLIDEAN:
            d = green._offsets(p, term.center)
            rho = green._pole_distance(*d)  # G's pole rule; rho^3 a product, inf far away
            val -= term.charge / (2.0 * rho)
            grad += term.charge * np.array(d) / (2.0 * rho * rho * rho)
    return val, grad


def higgs(m: AbelianMonopole, p: CirclePoint3, tol: float = 1e-10) -> float:
    """v + sum of charge-weighted Green's/Coulomb profiles at p.

    Each periodic term's G is evaluated at tol/n, n the number of all terms,
    and the Coulomb profiles are exact, so the truncation error of the value
    is at most (sum_j |k_j| / n) tol over the charges k_j of the periodic
    terms: for three periodic terms of charges 2, -1 and 1 that is 4/3 tol,
    not tol."""
    return _higgs_terms(m, p, tol)[0]


def higgs_gradient(m: AbelianMonopole, p: CirclePoint3, tol: float = 1e-10) -> np.ndarray:
    """Gradient (d/dx, d/dy, d/dt) of the Higgs field at p, summed from the
    same terms as ``higgs``. Each G is sized at tol/n for its value, which
    ``higgs`` then holds to (sum_j |k_j| / n) tol; the gradient carries no
    certified bound."""
    return _higgs_terms(m, p, tol)[1]


def _single_periodic(m: AbelianMonopole) -> DiracTerm:
    if len(m.terms) != 1 or m.terms[0].kind is not Kind.PERIODIC:
        raise ValueError("operation requires a single periodic term")
    return m.terms[0]


#: Truncation tolerance of the grid fields: the rounding level of O(1) fields.
_GRID_TOL = 1e-15


def connection_radial_gauge(m: AbelianMonopole, p: CirclePoint3,
                            tol: float = 1e-12) -> FieldSample:
    """Radial-gauge connection of a single periodic term, valid for r >= 2.

    a_theta = k [ -dt/(2 pi) + 1/2 - (r/pi) sum_m K1(m r) sin(m dt) ],
    a_t = b, in polar coordinates centred at the singularity; the Bessel sum
    is the closed form of -int_r^inf r' d_t psi dr' with
    int_r^inf r' K0(m r') dr' = (r/m) K1(m r). The Higgs value is the
    Fourier-Bessel series of the same term; both sums stop at the count
    whose r K1 tail is <= tol, which for r >= 1 also bounds the K0 tail, and
    take their radial factors from ``green.bessel_modes``.
    """
    term = _single_periodic(m)
    dz = p.z - term.center.z
    r = abs(dz)
    if r < 2.0:
        raise OutOfRegimeError(f"radial gauge requires r >= 2, got r={r}")
    dt = reduce_angle_signed(p.t - term.center.t)
    k = term.charge
    M = green._mode_counts(r, tol / abs(k), 1)
    k0, k1 = np.empty((2, M))
    green.bessel_modes(np.asarray(r), M, k0, k1)
    mdt = np.arange(1, M + 1) * dt
    higgs_value = m.v + k * (math.log(r) / TWO_PI - float(k0 @ np.cos(mdt)) / math.pi)
    a_theta = k * (0.5 - dt / TWO_PI - r * float(k1 @ np.sin(mdt)) / math.pi)
    return FieldSample(higgs_value, a_theta, m.b)


def translated_asymptotics(m: AbelianMonopole, p: CirclePoint3) -> FieldSample:
    """Two-term large-distance model of a single off-center periodic term,
    in the fixed coordinate frame; valid for |z| >= 2 |z_center|.

    higgs   = v + k (log r - Re(z0/z)) / 2 pi
    a_theta = k (-t/(2 pi) + (t0 + pi)/(2 pi))
    a_t     = b - k Im(z0/z) / (2 pi)

    With w = z0/z and r' = |z - z0|, the Higgs model is off by at most
    |k| (|w|^2/(4 pi (1 - |w|)) + Kmaj0(r')/(pi (1 - e^{-r'}))): the log tail
    -sum_{n>=2} Re(w^n)/n over 2 pi, plus the term's whole Fourier-Bessel sum
    (Kmaj0(x) = sqrt(pi/2x) e^{-x}, the K0 majorant of the ``green`` module
    docstring, summed by ``green._tail_prefactor``).
    """
    term = _single_periodic(m)
    z0 = term.center.z
    t0 = term.center.t
    r = abs(p.z)
    if r < 2.0 * abs(z0) or r == 0.0:
        raise OutOfRegimeError("translated asymptotics requires |z| >= 2 |z0| > 0")
    w = z0 / p.z
    k = term.charge
    h = m.v + k * (math.log(r) - w.real) / TWO_PI
    a_theta = k * (-reduce_angle_signed(p.t) / TWO_PI + (t0 + math.pi) / TWO_PI)
    a_t = m.b - k * w.imag / TWO_PI
    return FieldSample(h, a_theta, a_t)


def holonomy(m: AbelianMonopole, z: complex) -> complex:
    """Holonomy of the connection around the fiber {z} x S^1:
    exp(-i sum_j k_j theta_j(z) - 2 pi i b), theta_j the principal angle of
    z - z_j. Euclidean terms carry no fiber holonomy."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("holonomy needs a finite z")
    phase = TWO_PI * m.b
    for term in _periodic_terms(m):
        dz = z - term.center.z
        if dz == 0:
            raise SingularPointError("holonomy undefined through a singular center")
        phase += term.charge * math.atan2(dz.imag, dz.real)
    return cmath.exp(-1j * phase)


def winding_number(m: AbelianMonopole, radius: float) -> int:
    """Integer winding of arg(holonomy) as z runs once counterclockwise around
    the circle |z| = radius. By the argument principle theta_j(z) turns once
    exactly when z_j lies inside, so the winding is -sum k_j over the periodic
    centers with |z_j| < radius: minus the total periodic charge once the
    circle encloses every center. A center on the circle (|z_j| == radius in
    floating point) raises SingularPointError."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"winding radius must be finite and > 0, got {radius}")
    inside = 0
    for term in _periodic_terms(m):
        d = abs(term.center.z)
        if d == radius:
            raise SingularPointError("winding circle passes through a singular center")
        inside += int(term.charge) if d < radius else 0
    return -inside


class RescaledPair:
    """Pull-back of a monopole under the homothety of ratio lam: an evaluator
    on R^2 x (R / 2 pi lam Z) with the Higgs field scaled as a 1-form."""

    def __init__(self, monopole: AbelianMonopole, lam: float):
        if not 0.0 < lam < math.inf:
            raise ValueError(f"scaling ratio must be positive and finite, got {lam}")
        self.monopole = monopole
        self.lam = lam

    def higgs(self, z: complex, t: float, tol: float = 1e-10) -> float:
        p = CirclePoint3(complex(z) / self.lam, float(t) / self.lam)
        return higgs(self.monopole, p, tol) / self.lam


def euclidean_limit_profile(r: float, t: float) -> float:
    """Unit-mass Euclidean Dirac profile 1 - 1/(2 rho), rho = sqrt(r^2 + t^2):
    the pointwise limit of the rescaled periodic monopole as v -> infinity.

    For a unit charge at the origin, lam = v + a0/2 and rho < pi lam,
    |RescaledPair(m, lam).higgs(z, t) - profile| <= zeta(3)/(2 pi lam) x/(1 - x),
    x = (rho/(2 pi lam))^2: the rescaled field is the profile minus
    (1/lam) sum_{j>=1} zeta(2j+1) (rho/lam)^2j P_2j(t/rho)/(2 pi)^(2j+1), G's
    regular part scaled, and |P_2j| <= 1, zeta(2j+1) <= zeta(3).

    Raises ValueError unless r and t are finite, and SingularPointError at the
    pole, where G's rule (``green._pole_distance``) refuses rho."""
    if not (math.isfinite(r) and math.isfinite(t)):
        raise ValueError(f"r and t must be finite, got ({r}, {t})")
    return 1.0 - 0.5 / green._pole_distance(r, t, 0.0)


def _grid_planes(m: AbelianMonopole, X: np.ndarray, Y: np.ndarray, T: np.ndarray, h: float):
    """Per-term planar arrays (r, counts, log/linear column values) and the
    t-bases C, S (K, nt) of the grid fields phi = v + sum_k Fp[k] C[k],
    a_x = sum_k Fx[k] S[k], a_y = sum_k Fy[k] S[k] on X x Y x T, whose
    mode-major factors (K, rows, ny) ``_factor_rows`` builds for a row range
    from these counts.
    Each periodic term adds its log/linear column and M Fourier-Bessel modes,

        phi     = k log r/(2 pi) - (k/pi) sum_m K0(m r) cos(m dt),
        a_theta = k (1/2 - dt/(2 pi)) - (k r/pi) sum_m K1(m r) sin(m dt),

    with a_x = -a_theta dy/r^2 and a_y = a_theta dx/r^2; a_t = b is constant.
    Each node keeps its own count, sized from its r K1 tail, and its modes
    beyond it are 0; for r >= 1 that tail also bounds the K0 tail of phi
    (K0 < K1), so both truncation errors are <= _GRID_TOL at every node.

    sigma, tau (K,) are the t-difference column weights of ``bogomolny_residual``.

    Raises OutOfRegimeError unless every node has r >= 2 and lies at least 4h
    from every centre and from every gauge seam dt = pi.
    """
    Z = X[:, None] + 1j * Y[None, :]
    planes = []
    C, S, sigma, tau = [np.empty((0, T.size))], [np.empty((0, T.size))], [[]], [[]]
    for term in m.terms:
        if term.kind is not Kind.PERIODIC:
            raise ValueError("grid residual supports periodic terms only")
        dt = np.array([reduce_angle_signed(t - term.center.t) for t in T])
        if np.any(np.abs(np.abs(dt) - math.pi) < 4.0 * h):
            raise OutOfRegimeError("box crosses the radial-gauge seam dt = pi")
        dz = Z - term.center.z
        r2 = dz.real * dz.real + dz.imag * dz.imag
        # the grid node nearest the centre pairs the smallest planar and circle offsets
        if np.min(r2) + np.min(dt * dt) < (4.0 * h) ** 2:
            raise OutOfRegimeError("grid region too close to a singular center")
        if np.min(r2) < 4.0:
            raise OutOfRegimeError("grid extends below the radial-gauge region r >= 2")
        k, r = term.charge, np.sqrt(r2)
        counts = green._mode_counts(r, _GRID_TOL / abs(k), 1)
        planes.append((k, r, counts, (k / TWO_PI) * np.log(r), -k * dz.imag / r2, k * dz.real / r2))
        mode = np.arange(1, counts.max() + 1, dtype=float)
        mt = np.multiply.outer(mode, dt)
        C += [np.ones((1, T.size)), np.cos(mt)]
        S += [0.5 - dt[None, :] / TWO_PI, np.sin(mt)]
        sigma += [[-h / math.pi], 2.0 * np.sin(mode * h)]
        tau += [[0.0], -2.0 * np.sin(mode * h)]
    return planes, np.vstack(C), np.vstack(S), np.concatenate(sigma), np.concatenate(tau)


def _factor_rows(planes, lo: int, hi: int, Fp, Fx, Fy) -> None:
    """Grid rows lo..hi-1 of the factors of ``_grid_planes`` into Fp, Fx, Fy of
    shape (K, hi - lo, ny). ``green.bessel_modes`` writes K0 and K1 of the
    kept (node, mode <= count) pairs straight into the Fp and Fx mode planes,
    which are then weighted in place."""
    rows, c = slice(lo, hi), 0
    for k, r, counts, log_col, x_col, y_col in planes:
        Fp[c], Fx[c], Fy[c] = log_col[rows], x_col[rows], y_col[rows]
        n = counts.max()
        p, fx, fy = (F[c + 1:c + 1 + n] for F in (Fp, Fx, Fy))
        green.bessel_modes(r[rows], counts[rows], p, fx)
        p *= -k / math.pi
        # mode weights (k/pi) dy/r of a_x and -(k/pi) dx/r of a_y
        np.multiply(fx, y_col[rows] * r[rows] / -math.pi, out=fy)
        fx *= x_col[rows] * r[rows] / -math.pi
        c += n + 1


#: interior x-rows per slab of the residual sweep
_SLAB_ROWS = 16


def bogomolny_residual(m: AbelianMonopole, box, h: float) -> float:
    """Max interior-node residual |curl(a) - grad(phi)| on a uniform grid over
    box = ((x0,x1),(y0,y1),(t0,t1)), second-order central differences.

    The box must stay in the radial-gauge region: r >= 2 from every center,
    every node at least 4h from every center (checked over all nodes, not
    only the corners) and from the gauge seam dt = pi.

    The fields are never built on the grid. The t-difference (times 2h) of
    each basis row of ``_grid_planes`` is a weighted row of the other basis:

        cos(m(dt+h)) - cos(m(dt-h)) = -2 sin(mh) sin(m dt),
        sin(m(dt+h)) - sin(m(dt-h)) =  2 sin(mh) cos(m dt),
        (1/2 - (dt+h)/2 pi) - (1/2 - (dt-h)/2 pi) = -h/pi,

    and the constant row differences to 0. These are exact because the 4h
    seam margin keeps every stencil inside one branch (-pi, pi) of dt, so dt
    never wraps within it. With Dx, Dy the x- and y-differences of the factors,
    each component (times 2h) at the interior nodes is one matrix product:

        -r_x = C^T (sigma Fy + Dx Fp),   r_y = C^T (sigma Fx - Dy Fp),
         r_t = S^T (Dx Fy - Dy Fx - tau Fp).

    The interior x-rows are swept in slabs of _SLAB_ROWS: a slab's factor rows
    and a halo row on either side sit in (K, _SLAB_ROWS + 2, ny) buffers reused
    by every slab, and the two rows a slab shares with the next are carried
    over. Memory: O(K ny _SLAB_ROWS) plus O(nx ny) per term for the planes."""
    if not (0.0 < h < math.inf and np.isfinite(box).all()):
        raise ValueError("mesh h must be finite and positive, and the box edges finite")
    X, Y, T = (np.arange(lo, hi + 0.5 * h, h) for lo, hi in box)
    if min(X.size, Y.size, T.size) < 3:
        raise ValueError("box too small for the stencil at this mesh")
    planes, C, S, sigma, tau = _grid_planes(m, X, Y, T, h)
    CT, ST = C[:, 1:-1].T, S[:, 1:-1].T
    K, nx, ny = sigma.size, X.size, Y.size
    F, left = np.empty((3, K, _SLAB_ROWS + 2, ny)), np.empty(K * _SLAB_ROWS * (ny - 2))
    res, sq = np.empty((2, CT.shape[0] * _SLAB_ROWS * (ny - 2)))
    inner, xp, xm = np.s_[:, 1:-1, 1:-1], np.s_[:, 2:, 1:-1], np.s_[:, :-2, 1:-1]
    yp, ym = np.s_[:, 1:-1, 2:], np.s_[:, 1:-1, :-2]
    worst = 0.0
    _factor_rows(planes, 0, 2, *F[:, :, _SLAB_ROWS:])  # as if a slab ended at row 1
    for a in range(1, nx - 1, _SLAB_ROWS):  # interior rows a..a+n-1, grid rows a-1..a+n
        n = min(_SLAB_ROWS, nx - 1 - a)
        F[:, :, :2] = F[:, :, _SLAB_ROWS:]  # the two rows shared with the previous slab
        _factor_rows(planes, a + 1, a + n + 1, *F[:, :, 2:n + 2])
        Fp, Fx, Fy = F[:, :, :n + 2]
        L = left[:K * n * (ny - 2)].reshape(K, n, ny - 2)
        acc, part = (b[:CT.shape[0] * n * (ny - 2)].reshape(CT.shape[0], -1) for b in (res, sq))
        # left factors of -r_x, r_y and -r_t, each difference added in place
        for j, (basis, w, base, diffs) in enumerate((
                (CT, sigma, Fy, ((Fp, xp, xm),)),
                (CT, sigma, Fx, ((Fp, ym, yp),)),
                (ST, tau, Fp, ((Fy, xm, xp), (Fx, yp, ym))))):
            np.multiply(w[:, None, None], base[inner], out=L)
            for G, plus, minus in diffs:
                L += G[plus]
                L -= G[minus]
            out = part if j else acc
            np.matmul(basis, L.reshape(K, n * (ny - 2)), out=out)
            out *= out
            if j:
                acc += part
        worst = max(worst, float(acc.max()))
    return math.sqrt(worst) / (2.0 * h)
