"""The periodic Green's function G of R^2 x S^1 with a single pole.

G has three regimes; ``green_eval_many`` takes each where stated, at any tol (rho = |p - q|):

* ``FourierBessel`` -- r > R_SWITCH: (1/2 pi) log r - (1/pi) sum_m K0(m r) cos(m dt),
  valid for r > 0 with geometric tail K0((M+1) r)/(pi (1 - e^{-r})).
* ``Multipole``    -- r <= R_SWITCH and rho < RHO_SERIES = pi/2: the Legendre-zeta series
  (Linton, Proc. R. Soc. A 455, 1999) a0/2 - 1/(2 rho) - sum_{k<=K} zeta(2k+1) S_2k/(2 pi)^(2k+1),
  S_n = rho^n P_n(dt/rho). As |P_n| <= 1, the tail is at most zeta(3)/(2 pi) x^(K+1)/(1 - x),
  x = (rho/2 pi)^2 < 1/16: 7e-22 at K = 16. K = 0 gives a0/2 - 1/(2 rho) within 0.00517 rho^2.
* ``ImageSum``     -- the shell r <= R_SWITCH, rho >= pi/2:
  the regularized sum over circle images, valid everywhere; pairing the +/-m images
  bounds its tail by C(r, dt)/M^2, C(r, dt) = max(2 dt^2, r^2)/(32 pi^3), sharp to
  leading order.
  The M image pairs are summed in blocks of _IMAGE_BLOCK, so its memory is
  O(_IMAGE_BLOCK) at any M and only its time grows with M.

Every evaluation returns the value, the gradient (d/dx, d/dy, d/dt) and the
certified truncation bound of the value for the regime used.

Every Fourier-Bessel sum of the package (G here; the grid fields and the radial
gauge in ``abelian``) takes its radial factors from one kernel, ``bessel_modes``,
the only caller of ``specfn.bessel_k0``/``bessel_k1``: it fills mode-major planes
that the caller owns with K0(m r) and K1(m r) at the kept pairs m <= M and exact
zeros beyond. With pref(r) = 1/(pi (1 - e^{-r})), the tail past M modes is at
most pref(r) r^nu K_nu((M+1) r), and the majorants

    K0(x) <= sqrt(pi/2x) e^{-x},    K1(x) <= sqrt(pi/2x) e^{-x} (1 + 3/(8x))

hold for every x > 0 because the remainder of the Hankel expansion after
l >= nu - 1/2 terms has the sign of the first neglected term (DLMF 10.40(ii));
that term is -1/(8x) for K0 and -15/(128 x^2) relative for K1. Every sum, G's rows
included, takes exactly one closed-form count, ``_mode_count_core``, behind the row checks
of ``_mode_counts``; G's rows are checked where ``green_eval_many`` forms them (r = inf
raises) and call the core with their own pref(r).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import specfn
from .errors import (
    OutOfRegimeError,
    SingularPointError,
    ToleranceUnreachableError,
    require_integer,
)
from .specfn import A0

TWO_PI = 2.0 * math.pi

#: regime boundaries of the automatic dispatcher; the series is certified for rho < RHO_SERIES
R_SWITCH = 0.5
RHO_SERIES = math.pi / 2.0
RHO_SWITCH = 0.1  # not a regime boundary: the radius of the series' near-pole refusal

#: Legendre-zeta c_k, k = 1..16 (x < 1/16 on rho < pi/2: the tail after 16 terms is < 7e-22)
_LZ_COEF = (special.zeta(np.arange(3.0, 34.0, 2.0)) / TWO_PI ** np.arange(3.0, 34.0, 2.0)).tolist()
_LZ_TAIL = float(special.zeta(3.0)) / TWO_PI

#: hard ceilings on series lengths before giving up on a tolerance
_MAX_IMAGE_TERMS = 20_000_000
_MAX_FOURIER_TERMS = 200_000
#: images per block of the image sum (six float64 buffers of this length, 384 KiB)
_IMAGE_BLOCK = 8192
_TOL_FLOOR = 1e-12  # the series raises below it at rho < RHO_SWITCH: |G| ulp at 1e-6 is 5.8e-11


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


ORIGIN = CirclePoint3(0.0, 0.0)


@dataclass
class GreenEval:
    """Value, gradient and certified truncation bound of one evaluation."""

    value: float
    grad: np.ndarray
    trunc_bound: float
    regime: Regime
    terms: int


def _require_tol(tol) -> None:
    """The one tolerance check of the module: a ValueError unless 0 < tol < inf."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _offsets(p: CirclePoint3, q: CirclePoint3) -> tuple[float, float, float]:
    """Coordinates of p recentred at q, circle offset reduced to (-pi, pi]."""
    dz = p.z - q.z
    return dz.real, dz.imag, reduce_angle_signed(p.t - q.t)


def _pole_distance(dx: float, dy: float, dt: float) -> float:
    """rho = sqrt(dx dx + dy dy + dt dt) behind the one pole rule of the point evaluators:
    SingularPointError unless 2 rho^3, the denominator of the pole's gradient d/(2 rho^3),
    is at least the smallest normal float. rho^3 is a product, so a huge rho gives inf."""
    rho = math.sqrt(dx * dx + dy * dy + dt * dt)
    if not 2.0 * rho * rho * rho >= np.finfo(float).tiny:
        raise SingularPointError(f"point at a pole, rho={rho}: 2 rho^3 is not a normal float")
    return rho


def image_tail_constant(r: float, dt: float) -> float:
    """C(r, dt) = max(2 dt^2, r^2)/(32 pi^3), with tail(M) <= C(r, dt)/M^2 for
    the paired image sum at every M >= 1; r >= 0 and |dt| <= pi.

    For m > M pair the +/-m images: with s = 2 pi m, a = s - dt and b = s + dt,
    both at least 2 pi (m - 1/2), the pair minus 1/(pi m) is
    t_m = 1/sqrt(a^2 + r^2) + 1/sqrt(b^2 + r^2) - 2/s. As
    1/x - r^2/(2 x^3) <= 1/sqrt(x^2 + r^2) <= 1/x, t_m lies in [P_m - Q_m, P_m], with
    P_m = 1/a + 1/b - 2/s = 2 dt^2/(s a b) <= dt^2/(4 pi^3 (m - 1/2)^3),
    Q_m = (r^2/2)(a^-3 + b^-3)          <= r^2/(8 pi^3 (m - 1/2)^3).
    (m - 1/2)^-3 is convex, so sum_{m>M} (m - 1/2)^-3 <= int_{M+1/2}^inf (x - 1/2)^-3
    = 1/(2 M^2). The series carries an overall 1/2, so
    |tail| = |sum_{m>M} t_m|/2 <= max(sum P_m, sum Q_m)/2 <= C(r, dt)/M^2.
    t_m = (2 dt^2 - r^2)/s^3 to leading order, so the bound is sharp at r = 0 or dt = 0.
    """
    if not (0.0 <= r < math.inf and abs(dt) <= math.pi):
        raise ValueError(f"image tail needs finite r >= 0 and |dt| <= pi, got r={r}, dt={dt}")
    return max(2.0 * dt * dt, r * r) / (32.0 * math.pi**3)


def green_image_sum(p: CirclePoint3, q: CirclePoint3 = ORIGIN, M: int = 1000) -> GreenEval:
    """Truncated image sum, symmetric over m = -M..M with paired +/-m terms.

    The images are summed in blocks of _IMAGE_BLOCK through buffers that each
    call allocates (never the module: evaluated points are independent), so
    memory does not grow with M. Each +m term meets its -m partner in an
    expression symmetric under up <-> -dn, which keeps the sum bitwise even in dt."""
    M = require_integer("M", M, least=1)
    if M > _MAX_IMAGE_TERMS:
        raise ValueError(f"M={M} image pairs exceed _MAX_IMAGE_TERMS={_MAX_IMAGE_TERMS}")
    dx, dy, dt = _offsets(p, q)
    d0 = _pole_distance(dx, dy, dt)
    r2 = dx * dx + dy * dy
    bound = image_tail_constant(math.sqrt(r2), dt) / (M * M)

    B = min(M, _IMAGE_BLOCK)
    k = np.arange(1.0, B + 1.0)
    buffers = np.empty((6, B))
    pair = cube = moment = 0.0
    for start in range(0, M, B):
        a, up, dn, iup, idn, w = buffers[:, :min(B, M - start)]
        np.add(k[:a.size], start, out=a)
        a *= TWO_PI
        np.subtract(dt, a, out=up)  # dt - 2 pi m
        np.add(dt, a, out=dn)  # dt + 2 pi m
        for d, inv in ((up, iup), (dn, idn)):  # inv = 1/sqrt(r2 + d^2)
            np.multiply(d, d, out=inv)
            inv += r2
            np.sqrt(inv, out=inv)
            np.reciprocal(inv, out=inv)
        np.reciprocal(a, out=a)  # a_m = 1/(2 pi m)
        np.subtract(iup, a, out=w)
        np.subtract(idn, a, out=a)
        w += a
        pair += float(w.sum())
        for inv in (iup, idn):  # inv^3
            np.multiply(inv, inv, out=w)
            inv *= w
        np.add(iup, idn, out=w)
        cube += float(w.sum())
        up *= iup
        dn *= idn
        up += dn
        moment += float(up.sum())

    value = -0.5 * ((1.0 / d0 - A0) + pair)
    s3 = cube + d0**-3
    gx = 0.5 * dx * s3
    gy = 0.5 * dy * s3
    gt = 0.5 * (moment + dt * d0**-3)
    return GreenEval(value, np.array([gx, gy, gt]), bound, Regime.IMAGE_SUM, terms=M)


def _tail_prefactor(r, nu: int):
    """r^nu / (pi (1 - e^{-r})): e^x K_nu(x) decreases, so K_nu((m+1) r) <= e^{-r} K_nu(m r)
    and the tail sum_{m>M} r^nu K_nu(m r)/pi is at most this times K_nu((M+1) r)."""
    return (r if nu else 1.0) / (np.expm1(-r) * -math.pi)


def _mode_count_core(r: np.ndarray, pref: np.ndarray, tol: float, nu: int) -> np.ndarray:
    """Mode count M = floor(x2/r) per row with pref(r) r^nu Kmaj_nu((M+1) r) <= tol, never below
    the least, at most one above it where x2 - x* < r. Only the cap is checked; pref = pref(r) r^nu.

    In log form the rule is g(x) = x + h(x) >= L at x = (M+1) r, h = log(x)/2 (less
    log(1 + 3/(8x)) for nu = 1), L = max(log(pref r^nu sqrt(pi/2)/tol), 2). h' > 0, so g
    rises and f = L - h falls; h vanishes at x0 = 1 (nu = 0) or ~1.55 (nu = 1), where
    g = x0 < 2 <= L, so the root x* of g = L has h(x*) >= 0, x* <= L, and f's steps from L
    alternate about x* = f(x*): 0 < x1 = f(L) <= x*, x2 = f(x1) >= x*, and (M+1) r > x2 meets
    the rule (x2 - x* < 0.025 on a scan of L >= 2). It holds in floats too: past x0 the
    next Hankel term gives K0 <= Kmaj0 (1 - 7/(128 x)), K1 <= Kmaj1 - Kmaj0 (15/(128 x^2)
    - 105/(1024 x^3)), gaps far above the rounding of x2."""
    def h(x):
        return 0.5 * np.log(x) - np.log1p(0.375 / x) if nu else 0.5 * np.log(x)
    L = np.maximum(np.log(pref) - math.log(tol / math.sqrt(math.pi / 2.0)), 2.0)
    M = (L - h(L - h(L))) // r
    if not M.max(initial=0.0) <= _MAX_FOURIER_TERMS:
        raise ToleranceUnreachableError(f"tol={tol} unreachable in Fourier-Bessel at r={r.min()}")
    return M.astype(int)


def _mode_counts(r, tol, nu: int) -> np.ndarray:
    """``_mode_count_core`` behind the row and tol checks (SingularPointError at r <= 0)."""
    r = np.asarray(r, dtype=float)
    _require_tol(tol)
    if not (0.0 < r.min(initial=1.0) and r.max(initial=1.0) < math.inf):
        raise (SingularPointError if (r <= 0.0).any() else ValueError)("rows need finite r > 0")
    return _mode_count_core(r, _tail_prefactor(r, nu), tol, nu)


def fourier_terms_for(r: float, tol: float) -> int:
    """``_mode_counts`` at nu = 0 for one r: the count G's Fourier-Bessel row takes at r."""
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


def _fourier_bessel(dx, dy, dt, r, pref, M) -> list[GreenEval]:
    """G and its gradient at rows r (n,) of finite r > 0 from M (n,) modes each, with
    pref = pref(r): the one Fourier-Bessel row evaluator. One ``bessel_modes`` call fills
    K0(m r), K1(m r) for m <= M + 1; the certified tail pref(r) K0((M+1) r) is read off
    each row's plane M + 1, which is then zeroed."""
    P = int(M.max()) + 1
    m = np.arange(1.0, P + 1.0)
    k0, k1 = planes = np.empty((2, P, r.size))
    bessel_modes(r, M + 1, k0, k1)
    bound = pref * k0[M, np.arange(r.size)]
    planes *= np.less_equal.outer(m, M)
    mt = np.multiply.outer(m, dt)
    c = np.cos(mt)
    s = np.sin(mt)
    value = np.log(r) / TWO_PI - (k0 * c).sum(axis=0) / math.pi
    g_r = 1.0 / (TWO_PI * r) + m @ (k1 * c) / math.pi
    g_t = m @ (k0 * s) / math.pi
    grad = np.array([g_r * dx / r, g_r * dy / r, g_t]).T
    return [GreenEval(v, g, b, Regime.FOURIER_BESSEL, terms=n)
            for v, g, b, n in zip(value.tolist(), grad, bound.tolist(), M.tolist())]


def green_fourier_bessel(p: CirclePoint3, q: CirclePoint3 = ORIGIN, M: int = 60) -> GreenEval:
    """Log plus Bessel-mode expansion with M modes; requires r = |z - z_q| > 0."""
    M = require_integer("M", M, least=0)
    if M > _MAX_FOURIER_TERMS:
        raise ValueError(f"M={M} modes exceed _MAX_FOURIER_TERMS={_MAX_FOURIER_TERMS}")
    dx, dy, dt = _offsets(p, q)
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise SingularPointError("Fourier-Bessel regime requires r > 0")
    dx, dy, dt, r, M = (np.array([v]) for v in (dx, dy, dt, r, M))
    return _fourier_bessel(dx, dy, dt, r, _tail_prefactor(r, 0), M)[0]


def green_multipole(p: CirclePoint3, q: CirclePoint3 = ORIGIN, tol: float = 1e-10) -> GreenEval:
    """Legendre-zeta series with the fewest terms K <= 16 that meet tol, for rho < pi/2.
    ToleranceUnreachableError only at tol < _TOL_FLOOR for rho < RHO_SWITCH, or past K = 16.
    The gradient uses d_t S_n = n S_{n-1} and R_n = (1/r) d_r S_n,
    (n+1) R_{n+1} = (2n+1) dt R_n - n rho^2 R_{n-1} - 2n S_{n-1}, R_0 = R_1 = 0."""
    _require_tol(tol)
    dx, dy, dt = _offsets(p, q)
    rho = _pole_distance(dx, dy, dt)
    if rho >= RHO_SERIES:
        raise OutOfRegimeError(f"multipole regime requires rho < pi/2, got rho={rho}")
    x = (rho / TWO_PI) ** 2
    K = next((k for k in range(len(_LZ_COEF) + 1)
              if _LZ_TAIL * x ** (k + 1) / (1.0 - x) <= tol), None)
    if K is None or (rho < RHO_SWITCH and tol < _TOL_FLOOR):  # past the table, or the floor
        raise ToleranceUnreachableError(f"tol={tol} unreachable by the series at rho={rho}")
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

    The regime is a function of the point alone: Fourier-Bessel takes r > R_SWITCH;
    inside, the series takes rho < RHO_SERIES at every tol it can certify (raising
    beyond it, see ``green_multipole``), and the image sum the shell rho >= RHO_SERIES.
    """
    _require_tol(tol)
    out: list[GreenEval | None] = [None] * len(centers)
    fb = {}
    for i, q in enumerate(centers):
        dx, dy, dt = _offsets(p, q)
        r = math.hypot(dx, dy)
        rho = _pole_distance(dx, dy, dt)
        if r > R_SWITCH:
            if r == math.inf:  # the one row check of the Fourier-Bessel rows
                raise ValueError(f"centre {i}: |z - q| overflows to inf, no Fourier-Bessel row")
            fb[i] = (dx, dy, dt, r)
        elif rho < RHO_SERIES:
            out[i] = green_multipole(p, q, tol)
        else:
            M = math.ceil(math.sqrt(image_tail_constant(r, dt) / tol))
            if M > _MAX_IMAGE_TERMS:
                raise ToleranceUnreachableError(f"tol={tol} needs {M} image terms")
            out[i] = green_image_sum(p, q, M)
    if fb:
        dx, dy, dt, r = np.array(list(fb.values())).T
        pref = _tail_prefactor(r, 0)
        for i, g in zip(fb, _fourier_bessel(dx, dy, dt, r, pref, _mode_count_core(r, pref, tol, 0))):
            if not g.trunc_bound <= tol:  # the count meets tol by K0's majorant: a wrong K0
                raise RuntimeError(f"a Fourier-Bessel row missed tol={tol} at its count")
            out[i] = g
    return out


def green_eval(p: CirclePoint3, q: CirclePoint3 = ORIGIN, tol: float = 1e-10) -> GreenEval:
    """Evaluate G with automatic regime selection and trunc_bound <= tol
    (``green_eval_many`` with the single centre q)."""
    return green_eval_many(p, [q], tol)[0]


def evaluate_batch(points: list[CirclePoint3], q: CirclePoint3 = ORIGIN,
                   tol: float = 1e-10) -> list[GreenEval]:
    """Evaluate a list of points; each point is independent (safe to parallelize)."""
    _require_tol(tol)
    return [green_eval(p, q, tol) for p in points]
