"""Abelian monopole configurations on R^2 x S^1: signed sums of Dirac-type
terms over a vacuum pair (v, b), with field evaluation, the explicit radial
gauge in the exterior region, holonomy around circle fibers, large-distance
asymptotics of a translated center, the scaling action, and a grid residual
for the abelian Bogomolny equation curl(a) = grad(phi).

The grid residual never builds the fields on the grid. It works on their
rank-K factors, whose t-basis rows are 1, cos(m dt) (phi) and
1/2 - dt/(2 pi), sin(m dt) (a_x, a_y). On the uniform t-grid the central
difference of each row is a weighted row of the other basis:

    cos(m(dt+h)) - cos(m(dt-h)) = -2 sin(mh) sin(m dt),
    sin(m(dt+h)) - sin(m(dt-h)) =  2 sin(mh) cos(m dt),

the linear row differences to -h/pi times the constant row, and the
constant row to 0. The identities are exact on the grid because the box
keeps every node at least 4h from the gauge seam dt = pi, so dt does not
wrap inside any stencil.

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
from .errors import OutOfRegimeError, SingularPointError
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
        if self.charge == 0:
            raise ValueError("Dirac term must carry nonzero charge")


@dataclass
class AbelianMonopole:
    """Signed sum of Dirac terms twisted by the flat pair (v, b), b in [0,1)."""

    terms: list[DiracTerm] = field(default_factory=list)
    v: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        self.b = float(self.b) % 1.0
        centers = [t.center for t in self.terms]
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                if centers[i].distance(centers[j]) == 0.0:
                    raise ValueError("term centers must be pairwise distinct")

    @property
    def total_periodic_charge(self) -> int:
        return sum(t.charge for t in self.terms if t.kind is Kind.PERIODIC)


def vacuum(v: float, b: float = 0.0) -> AbelianMonopole:
    return AbelianMonopole([], v, b)


@dataclass
class FieldSample:
    """Higgs value (-i Phi) and radial-gauge connection coefficients."""

    higgs: float
    a_theta: float
    a_t: float
    gauge_chart: str = "exterior"


def _periodic_terms(m: AbelianMonopole) -> list[DiracTerm]:
    return [t for t in m.terms if t.kind is Kind.PERIODIC]


def higgs(m: AbelianMonopole, p: CirclePoint3, tol: float = 1e-10) -> float:
    """v + sum of charge-weighted Green's/Coulomb profiles at p."""
    val = m.v
    n = max(len(m.terms), 1)
    periodic = _periodic_terms(m)
    for term, g in zip(periodic, green.green_eval_many(p, [t.center for t in periodic], tol / n)):
        val += term.charge * g.value
    for term in m.terms:
        if term.kind is Kind.EUCLIDEAN:
            rho = p.distance(term.center)
            if rho == 0.0:
                raise SingularPointError("Higgs field evaluated at a singular center")
            val -= term.charge / (2.0 * rho)
    return val


def higgs_gradient(m: AbelianMonopole, p: CirclePoint3, tol: float = 1e-10) -> np.ndarray:
    """Gradient (d/dx, d/dy, d/dt) of the Higgs field at p."""
    out = np.zeros(3)
    n = max(len(m.terms), 1)
    periodic = _periodic_terms(m)
    for term, g in zip(periodic, green.green_eval_many(p, [t.center for t in periodic], tol / n)):
        out += term.charge * g.grad
    for term in m.terms:
        if term.kind is Kind.EUCLIDEAN:
            dx = p.z.real - term.center.z.real
            dy = p.z.imag - term.center.z.imag
            dt = reduce_angle_signed(p.t - term.center.t)
            rho = math.sqrt(dx * dx + dy * dy + dt * dt)
            if rho == 0.0:
                raise SingularPointError("gradient at a singular center")
            out += term.charge * np.array([dx, dy, dt]) / (2.0 * rho**3)
    return out


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
    whose r K1 tail is <= tol, which for r >= 1 also bounds the K0 tail.
    """
    term = _single_periodic(m)
    dz = p.z - term.center.z
    r = abs(dz)
    if r < 2.0:
        raise OutOfRegimeError(f"radial gauge requires r >= 2, got r={r}")
    dt = reduce_angle_signed(p.t - term.center.t)
    k = term.charge
    _, k0, k1, _ = green.bessel_modes(np.array([r]), tol / abs(k), 1)
    mdt = np.arange(1, k0.shape[1] + 1) * dt
    higgs_value = m.v + k * (math.log(r) / TWO_PI - float(k0[0] @ np.cos(mdt)) / math.pi)
    a_theta = k * (0.5 - dt / TWO_PI - r * float(k1[0] @ np.sin(mdt)) / math.pi)
    return FieldSample(higgs_value, a_theta, m.b, "exterior")


def translated_asymptotics(m: AbelianMonopole, p: CirclePoint3) -> FieldSample:
    """Two-term large-distance model of a single off-center periodic term,
    in the fixed coordinate frame; valid for |z| >= 2 |z_center|.

    higgs   = v + k (log r - Re(z0/z)) / 2 pi
    a_theta = k (-t/(2 pi) + (t0 + pi)/(2 pi))
    a_t     = b - k Im(z0/z) / (2 pi)

    The model is closed-form; the dropped remainder is O(r^-2).
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
    return FieldSample(h, a_theta, a_t, "exterior")


def _holonomy_phase(m: AbelianMonopole, z: np.ndarray) -> np.ndarray:
    """2 pi b + sum_j k_j theta_j(z) over the periodic terms, elementwise in z."""
    phase = np.full(z.shape, TWO_PI * m.b)
    for term in m.terms:
        if term.kind is not Kind.PERIODIC:
            continue
        dz = z - term.center.z
        if np.any(dz == 0):
            raise SingularPointError("holonomy undefined through a singular center")
        phase += term.charge * np.arctan2(dz.imag, dz.real)
    return phase


def holonomy(m: AbelianMonopole, z: complex) -> complex:
    """Holonomy of the connection around the fiber {z} x S^1:
    exp(-i sum_j k_j theta_j(z) - 2 pi i b), theta_j the principal angle of
    z - z_j. Euclidean terms carry no fiber holonomy."""
    return cmath.exp(-1j * float(_holonomy_phase(m, np.array(complex(z)))))


def _flux_through_fiber(r: np.ndarray, dt_nodes: np.ndarray) -> np.ndarray:
    """Trapezoid values of the circle integrals of r * d_r G over the fibers
    {r_j} x S^1, at circle offsets dt_nodes (n, nt); the series is truncated
    at its r K1 tail 1e-13."""
    _, _, k1, _ = green.bessel_modes(r, 1e-13, 1)
    k = np.arange(1, k1.shape[1] + 1, dtype=float)
    cos = np.cos(k[None, :, None] * dt_nodes[:, None, :])
    g_r = 1.0 / (TWO_PI * r)[:, None] + np.einsum("jk,jkt->jt", k1 * k, cos) / math.pi
    return np.mean(g_r, axis=1) * TWO_PI * r


def holonomy_integral(m: AbelianMonopole, z: complex, n_circle: int = 128) -> complex:
    """Integral-route holonomy: the derivative of the fiber integral of A in
    the base angle equals i times the flux of the curvature through the fiber
    (the circle integral of r d_r G). That flux is computed by quadrature; it
    is angle-independent by rotational invariance of G about its center, so
    the arc integral from each term's reference ray collapses to
    flux * theta. A correct quadrature must return flux = 1 per unit charge,
    which is exactly what the comparison with the closed form verifies."""
    periodic = _periodic_terms(m)
    dz = complex(z) - np.array([t.center.z for t in periodic], dtype=complex)
    if np.any(dz == 0):
        raise SingularPointError("holonomy undefined through a singular center")
    ts = np.arange(n_circle) * TWO_PI / n_circle
    flux = _flux_through_fiber(np.abs(dz), ts - np.array([t.center.t for t in periodic])[:, None])
    charge = np.array([t.charge for t in periodic], dtype=float)
    phase = TWO_PI * m.b + float(np.sum(charge * flux * np.angle(dz)))
    return cmath.exp(-1j * phase)


def winding_number(m: AbelianMonopole, radius: float, n_samples: int = 720) -> int:
    """Integer winding of arg(holonomy) as z runs once around a circle that
    encloses every periodic center; equals minus the total periodic charge."""
    angles = np.linspace(0.0, TWO_PI, n_samples + 1)
    arg = np.unwrap(-_holonomy_phase(m, radius * np.exp(1j * angles)))
    turns = (arg[-1] - arg[0]) / TWO_PI
    w = round(turns)
    if abs(turns - w) > 1e-9:
        raise ArithmeticError(f"winding failed to quantize: {turns}")
    return int(w)


class RescaledPair:
    """Pull-back of a monopole under the homothety of ratio lam: an evaluator
    on R^2 x (R / 2 pi lam Z) with the Higgs field scaled as a 1-form."""

    def __init__(self, monopole: AbelianMonopole, lam: float):
        if lam <= 0.0:
            raise ValueError("scaling ratio must be positive")
        self.monopole = monopole
        self.lam = lam

    def higgs(self, z: complex, t: float, tol: float = 1e-10) -> float:
        p = CirclePoint3(complex(z) / self.lam, float(t) / self.lam)
        return higgs(self.monopole, p, tol) / self.lam


def rescale(m: AbelianMonopole, lam: float) -> RescaledPair:
    return RescaledPair(m, lam)


def euclidean_limit_profile(r: float, t: float) -> float:
    """Unit-mass Euclidean Dirac profile 1 - 1/(2 sqrt(r^2 + t^2)): the
    pointwise limit of the rescaled periodic monopole as v -> infinity."""
    return 1.0 - 0.5 / math.hypot(r, t)


def _grid_factors(m: AbelianMonopole, X: np.ndarray, Y: np.ndarray, T: np.ndarray, h: float):
    """Rank-K factors of the grid fields on the tensor grid X x Y x T:

        phi = Fp @ C,    a_x = Fx @ S,    a_y = Fy @ S,

    Fp, Fx, Fy of shape (nx, ny, K), the t-bases C, S of shape (K, nt). Column
    0 carries the constant v of phi (C[0] = 1, S[0] = 0, Fx = Fy = 0); each
    periodic term adds its log/linear column and M Fourier-Bessel modes,

        phi     = k log r/(2 pi) - (k/pi) sum_m K0(m r) cos(m dt),
        a_theta = k (1/2 - dt/(2 pi)) - (k r/pi) sum_m K1(m r) sin(m dt),

    with a_x = -a_theta dy/r^2 and a_y = a_theta dx/r^2; a_t = b is constant.
    Each node keeps its own count, sized from its r K1 tail, and its columns
    beyond it are 0; for r >= 1 that tail also bounds the K0 tail of phi
    (K0 < K1), so both truncation errors are <= _GRID_TOL at every node.

    sigma and tau (K,) are the column weights of the central t-difference
    times 2h: it maps F @ S to (sigma F) @ C and F @ C to (tau F) @ S at the
    interior t nodes (see ``bogomolny_residual``).

    Raises OutOfRegimeError unless every node has r >= 2 and lies at least 4h
    from every centre and from every gauge seam dt = pi.
    """
    Z = X[:, None] + 1j * Y[None, :]
    blocks = []
    for term in m.terms:
        if term.kind is not Kind.PERIODIC:
            raise ValueError("grid residual supports periodic terms only")
        dt = np.mod(T - term.center.t, TWO_PI)
        dt[dt > math.pi] -= TWO_PI
        if np.any(np.abs(np.abs(dt) - math.pi) < 4.0 * h):
            raise OutOfRegimeError("box crosses the radial-gauge seam dt = pi")
        dz = Z - term.center.z
        r2 = dz.real * dz.real + dz.imag * dz.imag
        # on a tensor grid the node nearest the centre pairs the smallest
        # planar and circle offsets
        if np.min(r2) + np.min(dt * dt) < (4.0 * h) ** 2:
            raise OutOfRegimeError("grid region too close to a singular center")
        if np.min(r2) < 4.0:
            raise OutOfRegimeError("grid extends below the radial-gauge region r >= 2")
        r = np.sqrt(r2)
        _, k0, k1, _ = green.bessel_modes(r.ravel(), _GRID_TOL / abs(term.charge), 1)
        blocks.append((term.charge, dz, r, dt, k0, k1))
    K = 1 + sum(k0.shape[1] + 1 for *_, k0, _ in blocks)
    Fp, Fx, Fy = (np.empty(Z.shape + (K,)) for _ in range(3))
    C, S = np.empty((K, T.size)), np.empty((K, T.size))
    sigma, tau = np.empty(K), np.empty(K)
    Fp[..., 0], Fx[..., 0], Fy[..., 0] = m.v, 0.0, 0.0
    C[0], S[0], sigma[0], tau[0] = 1.0, 0.0, 0.0, 0.0
    c = 1
    for k, dz, r, dt, k0, k1 in blocks:
        M = k0.shape[1]
        modes = slice(c + 1, c + 1 + M)
        mode = np.arange(1, M + 1, dtype=float)
        k0, k1 = k0.reshape(Z.shape + (M,)), k1.reshape(Z.shape + (M,))
        Fp[..., c] = (k / TWO_PI) * np.log(r)
        np.multiply(k0, -k / math.pi, out=Fp[..., modes])
        Fx[..., c] = -k * dz.imag / (r * r)
        np.multiply(k1, ((k / math.pi) * dz.imag / r)[..., None], out=Fx[..., modes])
        Fy[..., c] = k * dz.real / (r * r)
        np.multiply(k1, ((-k / math.pi) * dz.real / r)[..., None], out=Fy[..., modes])
        mt = np.multiply.outer(mode, dt)
        C[c], S[c] = 1.0, 0.5 - dt / TWO_PI
        np.cos(mt, out=C[modes])
        np.sin(mt, out=S[modes])
        sigma[c], tau[c] = -h / math.pi, 0.0
        sigma[modes] = 2.0 * np.sin(mode * h)
        tau[modes] = -sigma[modes]
        c += M + 1
    return Fp, Fx, Fy, C, S, sigma, tau


def bogomolny_residual(m: AbelianMonopole, box, h: float) -> float:
    """Max interior-node residual |curl(a) - grad(phi)| on a uniform grid over
    box = ((x0,x1),(y0,y1),(t0,t1)), second-order central differences.

    The box must stay in the radial-gauge region: r >= 2 from every center,
    every node at least 4h from every center (checked over all nodes, not
    only the corners) and from the gauge seam dt = pi.

    The fields are never built on the grid. The t-difference (times 2h) of
    each basis row of ``_grid_factors`` is a weighted row of the other basis:

        cos(m(dt+h)) - cos(m(dt-h)) = -2 sin(mh) sin(m dt),
        sin(m(dt+h)) - sin(m(dt-h)) =  2 sin(mh) cos(m dt),
        (1/2 - (dt+h)/2 pi) - (1/2 - (dt-h)/2 pi) = -h/pi,

    and the constant row differences to 0. These are exact because the 4h
    seam margin keeps every stencil inside one branch (-pi, pi) of dt, so dt
    never wraps within it. With the x- and y-differences taken on the
    factors, the three components (times 2h) at the interior nodes are

        -r_x = (sigma Fy + Dx Fp) @ C,   r_y = (sigma Fx - Dy Fp) @ C,
         r_t = (Dx Fy - Dy Fx - tau Fp) @ S,

    one (interior nodes, K) @ (K, interior t) product each."""
    (x0, x1), (y0, y1), (t0, t1) = box
    X = np.arange(x0, x1 + 0.5 * h, h)
    Y = np.arange(y0, y1 + 0.5 * h, h)
    T = np.arange(t0, t1 + 0.5 * h, h)
    if min(X.size, Y.size, T.size) < 3:
        raise ValueError("box too small for the stencil at this mesh")
    Fp, Fx, Fy, C, S, sigma, tau = _grid_factors(m, X, Y, T, h)
    C, S = C[:, 1:-1], S[:, 1:-1]

    # left factors of -r_x, r_y and -r_t, the differences added in place:
    # every fresh page faults, so no further temporary of this size is made,
    # and the grid factors are dropped before the products
    inner = (slice(1, -1), slice(1, -1))
    lx = sigma * Fy[inner]
    lx += Fp[2:, 1:-1]
    lx -= Fp[:-2, 1:-1]
    ly = sigma * Fx[inner]
    ly -= Fp[1:-1, 2:]
    ly += Fp[1:-1, :-2]
    lt = tau * Fp[inner]
    lt -= Fy[2:, 1:-1]
    lt += Fy[:-2, 1:-1]
    lt += Fx[1:-1, 2:]
    lt -= Fx[1:-1, :-2]
    del Fp, Fx, Fy
    K = sigma.size
    res = lx.reshape(-1, K) @ C
    res *= res
    part = np.empty_like(res)
    for left, basis in ((ly, C), (lt, S)):
        np.matmul(left.reshape(-1, K), basis, out=part)
        part *= part
        res += part
    return float(np.sqrt(res.max())) / (2.0 * h)
