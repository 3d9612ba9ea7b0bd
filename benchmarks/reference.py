"""Independent references for the benchmark's correctness gate.

Nothing here imports permono: every value is rebuilt from scipy.special and
closed forms, and each reference returns the bound on its own error next to
the value, so a check reads |program - ref| <= tolerance + ref_err.

Periodic Green's function of R^2 x S^1 (pole at the origin, dt reduced to
(-pi, pi], rho = sqrt(r^2 + dt^2)), two exact representations:

* Legendre-zeta (Linton, Proc. R. Soc. A 455, 1999), for rho < 2 pi:
      G = a0/2 - 1/(2 rho) - sum_{k>=1} zeta(2k+1) S_2k / (2 pi)^(2k+1),
  with S_n = rho^n P_n(dt/rho) the zonal solid harmonic. The tail after K
  terms is at most zeta(3)/(2 pi) x^(K+1)/(1-x), x = (rho/2 pi)^2.
* Fourier-Bessel, for r > 0:
      G = log(r)/(2 pi) - (1/pi) sum_{m>=1} K0(m r) cos(m dt),
  with tail at most K0((M+1) r)/(pi (1 - e^-r)).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * math.pi
A0 = (math.log(4.0 * math.pi) - float(np.euler_gamma)) / math.pi

#: reference switch: Legendre-zeta below, Fourier-Bessel above. At rho = 3.2
#: the series ratio is x = 0.26; with |dt| <= pi, rho >= 3.2 forces r >= 0.6.
RHO_LZ = 3.2
_LZ_TERMS = 60
_ZETA = special.zeta(2.0 * np.arange(1, _LZ_TERMS + 1) + 1.0)
_LZ_COEF = _ZETA / TWO_PI ** (2.0 * np.arange(1, _LZ_TERMS + 1) + 1.0)
#: scipy.special.k0/k1 relative error, measured against mpmath on [1e-6, 700]
#: at 1.1e-15; 2e-15 leaves a margin.
_K_REL = 2e-15


def reduce_signed(t):
    """Reduce to (-pi, pi]."""
    r = np.mod(t, TWO_PI)
    return np.where(r > math.pi, r - TWO_PI, r)


def _solid_harmonics(r2, dt, n_max):
    """S_0..S_n_max with S_n = rho^n P_n(dt/rho), by the polynomial recurrence
    (n+1) S_{n+1} = (2n+1) dt S_n - n rho^2 S_{n-1}. Works for complex input."""
    rho2 = r2 + dt * dt
    out = [np.ones_like(dt), dt]
    for n in range(1, n_max):
        out.append(((2 * n + 1) * dt * out[n] - n * rho2 * out[n - 1]) / (n + 1))
    return out


def _lz_value(x, y, dt):
    r2 = x * x + y * y
    rho = np.sqrt(r2 + dt * dt)
    S = _solid_harmonics(r2, dt, 2 * _LZ_TERMS)
    terms = [_LZ_COEF[k - 1] * S[2 * k] for k in range(1, _LZ_TERMS + 1)]
    return 0.5 * A0 - 0.5 / rho - sum(terms), sum(np.abs(t) for t in terms)


def green_lz(x, y, dt):
    """(value, gradient (3, n), err, grad_err) of G by the Legendre-zeta
    series. The gradient is the complex-step derivative of the same series,
    exact up to rounding; err bounds the value's tail and rounding, grad_err
    the gradient's rounding."""
    x, y, dt = (np.asarray(a, dtype=float) for a in (x, y, dt))
    rho = np.sqrt(x * x + y * y + dt * dt)
    if np.any(rho >= RHO_LZ):
        raise ValueError("Legendre-zeta reference used outside rho < 3.2")
    value, mag = _lz_value(x, y, dt)
    q = (rho / TWO_PI) ** 2
    tail = _ZETA[0] / TWO_PI * q ** (_LZ_TERMS + 1) / (1.0 - q)
    err = tail + 8.0 * EPS * (0.5 / rho + 0.5 * A0 + mag)
    h = 1e-30
    grad = np.array([
        _lz_value(x + 1j * h, y, dt)[0].imag / h,
        _lz_value(x, y + 1j * h, dt)[0].imag / h,
        _lz_value(x, y, dt + 1j * h)[0].imag / h,
    ])
    grad_err = 8.0 * EPS * (0.5 / rho**2 + mag / np.minimum(rho, 1.0) * 2 * _LZ_TERMS)
    return value, grad, err, grad_err


def green_fb(x, y, dt):
    """(value, gradient (3, n), err, grad_err) of G by the Fourier-Bessel
    series, summed until the tail bound is below 1e-18."""
    x, y, dt = (np.asarray(a, dtype=float) for a in (x, y, dt))
    r = np.hypot(x, y)
    if np.any(r <= 0.0):
        raise ValueError("Fourier-Bessel reference needs r > 0")
    pref = 1.0 / (math.pi * (1.0 - np.exp(-r)))
    M = int(np.max(np.ceil(45.0 / r))) + 1
    m = np.arange(1, M + 1, dtype=float)[:, None]
    k0 = special.k0(m * r)
    k1 = special.k1(m * r)
    c, s = np.cos(m * dt), np.sin(m * dt)
    value = np.log(r) / TWO_PI - np.sum(k0 * c, axis=0) / math.pi
    g_r = 1.0 / (TWO_PI * r) + np.sum(m * k1 * c, axis=0) / math.pi
    g_t = np.sum(m * k0 * s, axis=0) / math.pi
    grad = np.array([g_r * x / r, g_r * y / r, g_t])
    tail = special.k0((M + 1) * r) * pref
    mag = np.abs(np.log(r)) / TWO_PI + np.sum(k0, axis=0) / math.pi
    err = tail + (_K_REL + 8.0 * EPS) * mag
    gmag = 1.0 / (TWO_PI * r) + np.sum(m * (k0 + k1), axis=0) / math.pi
    grad_err = (M + 1) * tail + (_K_REL + 8.0 * EPS) * gmag
    return value, grad, err, grad_err


def green(x, y, dt):
    """(value, grad, err, grad_err) of G with the pole at the origin, for
    arrays of offsets; dt is reduced to (-pi, pi] here."""
    x, y = np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(y, float))
    dt = reduce_signed(np.atleast_1d(np.asarray(dt, float)))
    rho = np.sqrt(x * x + y * y + dt * dt)
    near = rho < RHO_LZ
    value = np.empty_like(x)
    grad = np.empty((3, x.size))
    err = np.empty_like(x)
    grad_err = np.empty_like(x)
    for sel, fn in ((near, green_lz), (~near, green_fb)):
        if np.any(sel):
            v, g, e, ge = fn(x[sel], y[sel], dt[sel])
            value[sel], grad[:, sel], err[sel], grad_err[sel] = v, g, e, ge
    return value, grad, err, grad_err


def monopole_higgs(terms, v, x, y, t):
    """Higgs field v + sum_j k_j G(p - c_j) of periodic Dirac terms given as
    (cx, cy, ct, charge) tuples; returns (value, grad, err, grad_err) where
    the errors are the charge-weighted sums of the per-term errors."""
    x, y, t = (np.atleast_1d(np.asarray(a, float)) for a in (x, y, t))
    value = np.full(x.shape, float(v))
    grad = np.zeros((3, x.size))
    err = np.zeros_like(x)
    grad_err = np.zeros_like(x)
    for cx, cy, ct, k in terms:
        g, dg, e, de = green(x - cx, y - cy, t - ct)
        value += k * g
        grad += k * dg
        err += abs(k) * e
        grad_err += abs(k) * de
    return value, grad, err, grad_err


def holonomy(terms, b, z):
    """exp(-i (sum_j k_j arg(z - z_j) + 2 pi b)) at complex points z."""
    z = np.atleast_1d(np.asarray(z, complex))
    phase = np.full(z.shape, TWO_PI * b)
    for cx, cy, _ct, k in terms:
        phase += k * np.angle(z - complex(cx, cy))
    return np.exp(-1j * phase)


#: Bessel modes of the reference fields: K0(41 r) < 1e-18 for r >= 1
_GAUGE_MODES = 40


def _radial_gauge_fields(terms, X, Y, T):
    """phi - v, a_x and a_y of the radial gauge on the tensor grid, from
    scipy K0/K1; a_t = b is constant and v only shifts phi."""
    shape = (X.size, Y.size, T.size)
    phi = np.zeros(shape)
    a_x = np.zeros(shape)
    a_y = np.zeros(shape)
    m = np.arange(1, _GAUGE_MODES + 1, dtype=float)
    for cx, cy, ct, k in terms:
        dx = (X - cx)[:, None, None]
        dy = (Y - cy)[None, :, None]
        dt1 = reduce_signed(T - ct)
        dt = dt1[None, None, :]
        r2d = np.hypot(dx, dy)[..., 0]
        k0 = special.k0(np.multiply.outer(r2d, m))
        k1 = special.k1(np.multiply.outer(r2d, m))
        psi = -np.einsum("xym,mt->xyt", k0, np.cos(np.outer(m, dt1))) / math.pi
        bsum = np.einsum("xym,mt->xyt", k1, np.sin(np.outer(m, dt1)))
        r = r2d[..., None]
        phi += k * (np.log(r) / TWO_PI + psi)
        a_theta = k * (-dt / TWO_PI + 0.5 - (r / math.pi) * bsum)
        a_x += a_theta * (-dy) / (r * r)
        a_y += a_theta * dx / (r * r)
    return phi, a_x, a_y


#: covers the sup of f''' between nodes and the O(h^2) error of its stencil estimate
_BOGOMOLNY_MARGIN = 1.5


def bogomolny_bound(terms, box, h):
    """Second-order bound on the max central-difference residual
    |curl(a) - grad(phi)| of exact Bogomolny fields on the grid of box.

    Each first difference errs by (h^2/6) f''' at some point within h of the
    node. f''' is taken from the 5-point third-difference stencil of the
    reference fields on the grid padded by two nodes, times _BOGOMOLNY_MARGIN.
    A residual above the returned bound fails the check."""
    (x0, x1), (y0, y1), (t0, t1) = box
    axes = [np.arange(a0, a1 + 0.5 * h, h) for a0, a1 in ((x0, x1), (y0, y1), (t0, t1))]
    padded = [np.concatenate([a[0] - h * np.array([2.0, 1.0]), a, a[-1] + h * np.array([1.0, 2.0])])
              for a in axes]
    phi, a_x, a_y = _radial_gauge_fields(terms, *padded)

    def d3max(f, axis):
        n = f.shape[axis]
        take = lambda i0: np.take(f, np.arange(i0, i0 + n - 4), axis=axis)
        d3 = (take(4) - 2.0 * take(3) + 2.0 * take(1) - take(0)) / (2.0 * h**3)
        return float(np.abs(d3).max())

    # res_x = D_y a_t - D_t a_y - D_x phi, res_y = D_t a_x - D_x a_t - D_y phi,
    # res_t = D_x a_y - D_y a_x - D_t phi; a_t is constant.
    bx = d3max(a_y, 2) + d3max(phi, 0)
    by = d3max(a_x, 2) + d3max(phi, 1)
    bt = d3max(a_y, 0) + d3max(a_x, 1) + d3max(phi, 2)
    return _BOGOMOLNY_MARGIN * (h * h / 6.0) * math.sqrt(bx * bx + by * by + bt * bt)


def gamma_plus(lam):
    """Decaying indicial root -1/2 + sqrt(1/4 + lambda) of -u'' + u' + lam u."""
    return -0.5 + math.sqrt(0.25 + lam)


def sphere_spectrum(m, l_cut):
    """[(eigenvalue, multiplicity)] of the charge-m sphere Laplacian for
    l = |m|, |m|+2, ..., l_cut: ((l(l+2) - m^2)/4, l+1)."""
    return [((l * (l + 2) - m * m) / 4.0, l + 1) for l in range(abs(m), l_cut + 1, 2)]


def indicial_roots(m, l_max):
    """gamma^+ = l/2 and gamma^- = -(l+2)/2 for l = |m| + 2j <= l_max."""
    out = []
    for l in range(abs(m), l_max + 1, 2):
        out.extend((l / 2.0, -(l + 2) / 2.0))
    return out


def lifted_dirac_curvature(mass):
    """Curvature of the lifted charge-k Dirac connection, components
    (12, 13, 14, 23, 24, 34): the charge part is flat and the mass part is
    the constant anti-self-dual form -4 mass (dx12 - dx34)."""
    return np.array([-4.0 * mass, 0.0, 0.0, 0.0, 0.0, 4.0 * mass])


def self_dual_norm(F):
    """|(F12 + F34, F13 - F24, F14 + F23)|, zero for anti-self-dual F."""
    F = np.asarray(F, float)
    return math.sqrt((F[0] + F[5]) ** 2 + (F[1] - F[4]) ** 2 + (F[2] + F[3]) ** 2)


def discrete_decay_rate(lam, h):
    """-log(zeta)/h for the decaying root zeta of the central-difference
    scheme of -u'' + u' + lam u = 0 at mesh h, i.e. of
    (h/2 - 1) zeta^2 + (2 + lam h^2) zeta - (1 + h/2) = 0 (both roots are
    positive; the decaying one is the smaller)."""
    a, b, c = 0.5 * h - 1.0, 2.0 + lam * h * h, -(1.0 + 0.5 * h)
    disc = math.sqrt(b * b - 4.0 * a * c)
    zeta = min((-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a))
    return -math.log(zeta) / h
