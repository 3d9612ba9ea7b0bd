"""The periodic Green's function G of R^2 x S^1 with a single pole.

G has three regimes; ``green_eval_many`` takes each where stated (rho = |p - q|):

* ``FourierBessel`` -- r > R_SWITCH: (1/2 pi) log r - (1/pi) sum_m K0(m r) cos(m dt),
  valid for r > 0 with geometric tail K0((M+1) r)/(pi (1 - e^{-r})).
* ``Multipole``    -- r <= R_SWITCH and rho < RHO_SERIES = pi/2 at tol >= _TOL_FLOOR, or
  rho < RHO_SWITCH at any tol (a lower tol raises): the Legendre-zeta series (Linton,
  Proc. R. Soc. A 455, 1999) a0/2 - 1/(2 rho) - sum_{k<=K} zeta(2k+1) S_2k/(2 pi)^(2k+1),
  S_n = rho^n P_n(dt/rho). As |P_n| <= 1, the tail is at most zeta(3)/(2 pi)
  x^(K+1)/(1 - x), x = (rho/2 pi)^2; K = 0 gives a0/2 - 1/(2 rho) within 0.00517 rho^2.
* ``ImageSum``     -- the rest, rho >= pi/2 or tol < _TOL_FLOOR at rho >= RHO_SWITCH:
  the regularized sum over circle images, valid everywhere; pairing the +/-m images
  bounds its tail by a 2nd-order Taylor remainder C(r)/M^2, C(r) = (1/(3 pi) + r^2/pi^3)/4.

Every evaluation returns the value, the gradient (d/dx, d/dy, d/dt) and the
certified truncation bound of the value for the regime used.

Every Fourier-Bessel sum of the package (G here; the grid fields and the radial
gauge in ``abelian``) is sized by one rule, ``_mode_counts``, and takes its
radial factors from one kernel, ``bessel_modes``, the only caller of
``specfn.bessel_k0``/``bessel_k1``: it fills mode-major planes that the caller
owns with K0(m r) and K1(m r) at the kept pairs m <= M and exact zeros beyond.
Each row is sized in closed form: M is the smallest count with
pref(r) r^nu Kmaj_nu((M+1) r) <= tol, pref(r) = 1/(pi (1 - e^{-r})), where the
majorants

    K0(x) <= sqrt(pi/2x) e^{-x},    K1(x) <= sqrt(pi/2x) e^{-x} (1 + 3/(8x))

hold for every x > 0 because the remainder of the Hankel expansion after
l >= nu - 1/2 terms has the sign of the first neglected term (DLMF 10.40(ii));
that term is -1/(8x) for K0 and -15/(128 x^2) relative for K1. The certified
bound that G reports is the tail with the true K0((M+1) r), never above the
majorant, so it is <= tol.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import specfn
from .errors import OutOfRegimeError, SingularPointError, ToleranceUnreachableError
from .specfn import A0

TWO_PI = 2.0 * math.pi

#: regime boundaries of the automatic dispatcher; the series is certified for rho < RHO_SERIES
RHO_SWITCH = 0.1
R_SWITCH = 0.5
RHO_SERIES = math.pi / 2.0

#: Legendre-zeta c_k, k = 1..9 (x < 1/16 on rho < pi/2: tol >= _TOL_FLOOR needs K <= 9)
_LZ_COEF = (special.zeta(np.arange(3.0, 20.0, 2.0)) / TWO_PI ** np.arange(3.0, 20.0, 2.0)).tolist()
_LZ_TAIL = float(special.zeta(3.0)) / TWO_PI

#: hard ceilings on series lengths before giving up on a tolerance
_MAX_IMAGE_TERMS = 20_000_000
_MAX_FOURIER_TERMS = 200_000
#: series floor (one ulp of |G| at rho = 1e-6 is 5.8e-11): below it rho < RHO_SWITCH raises
_TOL_FLOOR = 1e-12  # ToleranceUnreachableError and RHO_SWITCH <= rho < RHO_SERIES takes ImageSum


class Regime(enum.Enum):
    IMAGE_SUM = "ImageSum"
    FOURIER_BESSEL = "FourierBessel"
    MULTIPOLE = "Multipole"


def reduce_angle_signed(t: float) -> float:
    """Reduce a circle offset to (-pi, pi]; the one reduction of offsets in the package."""
    r = float(t) % TWO_PI
    if r > math.pi:
        r -= TWO_PI
    return r


@dataclass
class CirclePoint3:
    """A point (z, t) of R^2 x (R / 2 pi Z); t is stored reduced mod 2 pi."""

    z: complex
    t: float

    def __post_init__(self):
        self.z = complex(self.z)
        if not (cmath.isfinite(self.z) and math.isfinite(self.t)):
            raise ValueError(f"point coordinates must be finite, got z={self.z}, t={self.t}")
        self.t = float(self.t) % TWO_PI

    def distance(self, other: "CirclePoint3") -> float:
        return math.hypot(*_offsets(self, other))

    @property
    def x(self) -> float:
        return self.z.real

    @property
    def y(self) -> float:
        return self.z.imag


ORIGIN = CirclePoint3(0.0, 0.0)


@dataclass
class GreenEval:
    """Value, gradient and certified truncation bound of one evaluation."""

    value: float
    grad: np.ndarray
    trunc_bound: float
    regime: Regime
    terms: int = field(default=0)


def _offsets(p: CirclePoint3, q: CirclePoint3) -> tuple[float, float, float]:
    """Coordinates of p recentred at q, circle offset reduced to (-pi, pi]."""
    dz = p.z - q.z
    return dz.real, dz.imag, reduce_angle_signed(p.t - q.t)


def image_tail_constant(r: float) -> float:
    """C(r) with tail(M) <= C(r)/M^2 for the paired image sum.

    For m > M pair the +/-m images; with s = 2 pi m and |u| <= pi,
    |pair - 1/(pi m)| <= 2u^2/(s(s^2-u^2)) + (r^2/2)(1/(s-u)^3 + 1/(s+u)^3)
                      <= (1/(3 pi) + r^2/pi^3) / m^3,
    and sum_{m>M} m^-3 <= 1/(2 M^2); the series carries an overall 1/2.
    """
    return (1.0 / (3.0 * math.pi) + r * r / math.pi**3) / 4.0


def green_image_sum(p: CirclePoint3, q: CirclePoint3 = ORIGIN, M: int = 1000) -> GreenEval:
    """Truncated image sum, symmetric over m = -M..M with paired +/-m terms."""
    if M < 1:
        raise ValueError("M must be >= 1")
    dx, dy, dt = _offsets(p, q)
    r2 = dx * dx + dy * dy
    if r2 == 0.0 and dt == 0.0:
        raise SingularPointError("image sum evaluated at its singular point")

    m = np.arange(1, M + 1, dtype=float)
    up = dt - TWO_PI * m
    dn = dt + TWO_PI * m
    dup = np.sqrt(r2 + up * up)
    ddn = np.sqrt(r2 + dn * dn)
    a_m = 1.0 / (TWO_PI * m)

    d0 = math.sqrt(r2 + dt * dt)
    value = -0.5 * (
        (1.0 / d0 - A0) + float(np.sum((1.0 / dup - a_m) + (1.0 / ddn - a_m)))
    )
    iup3 = dup**-3
    idn3 = ddn**-3
    s3 = float(np.sum(iup3 + idn3)) + d0**-3
    gx = 0.5 * dx * s3
    gy = 0.5 * dy * s3
    gt = 0.5 * (float(np.sum(up * iup3 + dn * idn3)) + dt * d0**-3)
    bound = image_tail_constant(math.sqrt(r2)) / (M * M)
    return GreenEval(value, np.array([gx, gy, gt]), bound, Regime.IMAGE_SUM, terms=M)


def k_majorant(x, nu: int):
    """Closed-form upper bound of K_nu(x), nu in {0, 1}, x > 0 (DLMF 10.40(ii)):
    sqrt(pi/2x) e^{-x}, times (1 + 3/(8x)) for K1."""
    x = np.asarray(x, dtype=float)
    lead = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x)
    return lead * (1.0 + 0.375 / x) if nu == 1 else lead


def _tail_prefactor(r, nu: int):
    """r^nu / (pi (1 - e^{-r})): e^x K_nu(x) decreases, so K_nu((m+1) r) <=
    e^{-r} K_nu(m r) and sum_{m>M} r^nu K_nu(m r)/pi <= this times
    K_nu((M+1) r)."""
    return r**nu / (math.pi * -np.expm1(-r))


def _mode_counts(r: np.ndarray, tol, nu: int) -> np.ndarray:
    """Smallest M >= 0 per row with pref(r) r^nu Kmaj_nu((M+1) r) <= tol.

    x = (M+1) r solves x + log(x)/2 - nu log(1 + 3/(8x)) = L, L = log(pref
    r^nu sqrt(pi/2)/tol); two contracting fixed-point steps give x, and the
    integer M is then made exact against the majorant itself."""
    r = np.asarray(r, dtype=float)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if (r <= 0.0).any():
        raise SingularPointError("Fourier-Bessel regime requires r > 0")
    if not np.isfinite(r).all():
        raise ValueError("Fourier-Bessel rows need finite r")
    pref = _tail_prefactor(r, nu)
    L = np.log(pref * math.sqrt(math.pi / 2.0) / tol)
    x = np.maximum(L, r)
    for _ in range(2):
        x = np.maximum(L - 0.5 * np.log(x) + nu * np.log1p(0.375 / x), r)
    M = np.ceil(x / r) - 1.0
    if (M > _MAX_FOURIER_TERMS).any():
        raise ToleranceUnreachableError(
            f"tol={tol} unreachable in Fourier-Bessel at r={r.min()}")
    while True:
        short = pref * k_majorant((M + 1.0) * r, nu) > tol
        spare = (M > 0.0) & (pref * k_majorant(np.maximum(M, 1.0) * r, nu) <= tol)
        if not (short.any() or spare.any()):
            return M.astype(int)
        M = M + short - spare


def fourier_terms_for(r: float, tol: float) -> int:
    """Smallest M >= 0 with Kmaj_0((M+1) r)/(pi (1 - e^{-r})) <= tol."""
    return int(_mode_counts(np.array([r]), tol, 0)[0])


def bessel_modes(r: np.ndarray, M: np.ndarray, k0: np.ndarray, k1: np.ndarray) -> None:
    """Fill the caller's mode-major planes k0, k1, of shape (>= max M, *r.shape),
    with K0(m r) and K1(m r) for m <= M and exactly 0 beyond. Each kernel is
    called once, on the kept (mode, row) pairs only."""
    m = np.arange(1.0, k0.shape[0] + 1.0).reshape((-1,) + (1,) * r.ndim)
    keep = m <= M
    x = (m * r)[keep]
    k0.fill(0.0)
    k1.fill(0.0)
    k0[keep] = specfn.bessel_k0(x)
    k1[keep] = specfn.bessel_k1(x)


def _fourier_bessel(dx, dy, dt, r, M) -> list[GreenEval]:
    """G and its gradient at rows r (n,) from M (n,) modes each. The rows take
    M + 1 planes: the certified tail pref(r) K0((M+1) r) is read from each
    row's last plane, which is then zeroed."""
    k0, k1 = np.empty((2, M.max() + 1, r.size))
    bessel_modes(r, M + 1, k0, k1)
    last = (M, np.arange(r.size))
    bound = _tail_prefactor(r, 0) * k0[last]
    k0[last] = k1[last] = 0.0
    m = np.arange(1.0, k0.shape[0] + 1.0)
    mt = np.multiply.outer(m, dt)
    c = np.cos(mt)
    s = np.sin(mt)
    value = np.log(r) / TWO_PI - (k0 * c).sum(axis=0) / math.pi
    g_r = 1.0 / (TWO_PI * r) + m @ (k1 * c) / math.pi
    g_t = m @ (k0 * s) / math.pi
    grad = np.stack([g_r * dx / r, g_r * dy / r, g_t], axis=1)
    return [GreenEval(float(value[j]), grad[j], float(bound[j]), Regime.FOURIER_BESSEL,
                      terms=int(M[j])) for j in range(r.size)]


def green_fourier_bessel(p: CirclePoint3, q: CirclePoint3 = ORIGIN, M: int = 60) -> GreenEval:
    """Log plus Bessel-mode expansion with M modes; requires r = |z - z_q| > 0."""
    if M < 0:
        raise ValueError("M must be >= 0")
    dx, dy, dt = _offsets(p, q)
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise SingularPointError("Fourier-Bessel regime requires r > 0")
    return _fourier_bessel(*(np.array([v]) for v in (dx, dy, dt, r, M)))[0]


def green_multipole(p: CirclePoint3, q: CirclePoint3 = ORIGIN, tol: float = 1e-10) -> GreenEval:
    """Legendre-zeta series with the fewest terms K that meet tol; valid for rho < pi/2
    and tol >= _TOL_FLOOR. The gradient uses d_t S_n = n S_{n-1} and R_n = (1/r) d_r S_n,
    (n+1) R_{n+1} = (2n+1) dt R_n - n rho^2 R_{n-1} - 2n S_{n-1}, R_0 = R_1 = 0."""
    dx, dy, dt = _offsets(p, q)
    rho = math.sqrt(dx * dx + dy * dy + dt * dt)
    if not 2.0 * rho**3 >= np.finfo(float).tiny:  # rho = 0, or grad's 1/(2 rho^3) subnormal
        raise SingularPointError(f"multipole model evaluated at its singular point, rho={rho}")
    if rho >= RHO_SERIES:
        raise OutOfRegimeError(f"multipole regime requires rho < pi/2, got rho={rho}")
    if not tol >= _TOL_FLOOR:
        raise ToleranceUnreachableError(f"tol={tol} below the near-pole floor {_TOL_FLOOR}")
    x = (rho / TWO_PI) ** 2
    K = next(k for k in range(len(_LZ_COEF) + 1) if _LZ_TAIL * x ** (k + 1) / (1.0 - x) <= tol)
    S, R = [1.0, dt], [0.0, 0.0]
    for n in range(1, 2 * K):
        S.append(((2 * n + 1) * dt * S[n] - n * rho * rho * S[n - 1]) / (n + 1))
        R.append(((2 * n + 1) * dt * R[n] - n * rho * rho * R[n - 1] - 2 * n * S[n - 1]) / (n + 1))
    c, d = _LZ_COEF[:K], 2.0 * rho**3
    g_r = sum(ck * r for ck, r in zip(c, R[2::2]))
    g_t = sum(ck * n * S[n - 1] for ck, n in zip(c, range(2, 2 * K + 1, 2)))
    grad = np.array([dx / d - dx * g_r, dy / d - dy * g_r, dt / d - g_t])
    return GreenEval(0.5 * A0 - 0.5 / rho - sum(ck * s for ck, s in zip(c, S[2::2])), grad,
                     _LZ_TAIL * x ** (K + 1) / (1.0 - x), Regime.MULTIPOLE, terms=K)


def green_eval_many(p: CirclePoint3, centers: list[CirclePoint3],
                    tol: float = 1e-10) -> list[GreenEval]:
    """G(p - q) for every centre q, each with automatic regime selection and
    trunc_bound <= tol; the Fourier-Bessel centres share one ``bessel_modes``
    call.

    Fourier-Bessel takes r > R_SWITCH; inside, the series takes rho < RHO_SERIES at
    tol >= _TOL_FLOOR and rho < RHO_SWITCH at any tol (raising below the floor), and
    the image sum the rest: rho >= RHO_SERIES, or tol < _TOL_FLOOR at rho >= RHO_SWITCH.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    out: list[GreenEval | None] = [None] * len(centers)
    fb = []
    for i, q in enumerate(centers):
        dx, dy, dt = _offsets(p, q)
        r = math.hypot(dx, dy)
        rho = math.sqrt(dx * dx + dy * dy + dt * dt)  # same rounding as green_multipole's check
        if r > R_SWITCH:
            fb.append((i, dx, dy, dt, r))
        elif rho < RHO_SWITCH or (rho < RHO_SERIES and tol >= _TOL_FLOOR):
            out[i] = green_multipole(p, q, tol)  # raises SingularPointError at the pole
        else:
            M = math.ceil(math.sqrt(image_tail_constant(r) / tol))
            if M > _MAX_IMAGE_TERMS:
                raise ToleranceUnreachableError(f"tol={tol} needs {M} image terms")
            out[i] = green_image_sum(p, q, max(M, 1))
    if fb:
        idx, dx, dy, dt, r = (np.array(col) for col in zip(*fb))
        evals = _fourier_bessel(dx, dy, dt, r, _mode_counts(r, tol, 0))
        for i, g in zip(idx, evals):
            out[i] = g
    return out


def green_eval(p: CirclePoint3, q: CirclePoint3 = ORIGIN, tol: float = 1e-10) -> GreenEval:
    """Evaluate G with automatic regime selection and trunc_bound <= tol
    (``green_eval_many`` with the single centre q)."""
    return green_eval_many(p, [q], tol)[0]


def evaluate_batch(points: list[CirclePoint3], q: CirclePoint3 = ORIGIN,
                   tol: float = 1e-10) -> list[GreenEval]:
    """Evaluate a list of points; each point is independent (safe to parallelize)."""
    return [green_eval(p, q, tol) for p in points]
