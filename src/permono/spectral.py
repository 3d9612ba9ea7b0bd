"""Indicial data at a singular point: eigenvalues of the charge-m Laplacian on
the 2-sphere, the exceptional weights of the half-cylinder operator
-u'' + u' + L u, and an independent finite-difference oracle for the sphere
spectrum.

The indexed spectrum is lambda_j = l(l+2)/4 with l = |m| + 2j; the indicial
roots gamma = -1/2 +- sqrt(1/4 + lambda) come out as the exact halves
gamma^+ = l/2 and gamma^- = -(l+2)/2, each with multiplicity l+1. Here l is
twice the angular-momentum quantum number: for m = 0 the family l = 2j gives
exactly the round-sphere spectrum j(j+1) with multiplicity 2j+1, so the
indexed family is complete (the oracle confirms there are no extra clusters).

The oracle assembles the Bochner Laplacian of the two-chart connection with
half-integer curvature ((+-1 - cos phi) m/2 dtheta per chart), reduced by the
theta-Fourier transform to a family of singular 1D operators in phi,
discretized on a pole-offset grid, so the eigenvalues (l(l+2) - m^2)/4 are
asserted directly with no normalization factor. The modes n and -n-|m| are
mirror images under phi -> pi - phi (the m_q <-> -m_q symmetry of monopole
harmonics, Wu & Yang 1976), so the oracle solves one of each pair.

Charges, the j_max of ``operator_L_spectrum``, l_cut and n_phi must be
integers, bools refused (``require_integer``). ``is_exceptional`` has no
j_max: it answers for any finite weight on the whole ladder of roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import UnderResolvedError, require_integer

#: relative tolerance of the oracle, against max(|lambda|, 0.25): neighbours further
#: apart start a new cluster, and no eigenvalue may move further at half resolution
_CLUSTER_TOL = 1e-3


@dataclass(frozen=True)
class SpectrumEntry:
    j: int
    l: int
    lam: float
    gamma_plus: float
    gamma_minus: float
    multiplicity: int


def operator_L_spectrum(m: int, j_max: int) -> list[SpectrumEntry]:
    """Eigenvalues l(l+2)/4 of L = (sphere Laplacian, Bochner + m^2/4) for charge m
    (m = 0 is the diagonal sector) and the exceptional weights gamma_j^+- of the
    indicial equation g^2 + g = lambda, for j = 0..j_max."""
    m, j_max = require_integer("m", m), require_integer("j_max", j_max, least=0)
    return [SpectrumEntry(j, l, l * (l + 2) / 4.0, l / 2.0, -(l + 2) / 2.0, l + 1)
            for j, l in enumerate(range(abs(m), abs(m) + 2 * j_max + 1, 2))]


@dataclass(frozen=True)
class ExceptionalQuery:
    is_exceptional: bool
    nearest: float
    distance: float


def is_exceptional(delta: float, m: int, *, tol: float = 1e-12) -> ExceptionalQuery:
    """Whether delta coincides (within tol) with an indicial root gamma_j^+-,
    j >= 0: the nearest root, rounded to a float, and its distance, rounded
    once. Of equally near roots the one with the smaller j is reported, and
    of a gamma^+ and a gamma^- with the same j, gamma^+.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    # in integers, exactly: delta = p/q with q a power of 2, and the doubled
    # roots are 2 gamma_j^+ = n + 2j and 2 gamma_j^- = -(n + 2) - 2j, n = |m|
    # (past |delta| = 2**52 no float holds a half-integer root)
    p, q = float(delta).as_integer_ratio()
    n = abs(require_integer("m", m))
    # on each branch the nearest is the rounded index (a tie to the smaller
    # j), at least 0: j = ceil(delta - gamma_0^+ - 1/2), ceil(gamma_0^- - delta - 1/2)
    plus = n + 2 * max(-((q * (n + 1) - 2 * p) // (2 * q)), 0)
    minus = -(n + 2) - 2 * max(-((q * (n + 3) + 2 * p) // (2 * q)), 0)
    # 2q |gamma - delta|; a tie across the branches can only be at j = 0,
    # where gamma^+ comes first
    err_plus, err_minus = abs(plus * q - 2 * p), abs(minus * q - 2 * p)
    twice, err = (plus, err_plus) if err_plus <= err_minus else (minus, err_minus)
    dist = err / (2 * q)  # int / int rounds once, correctly
    return ExceptionalQuery(dist <= tol, twice / 2, dist)


@dataclass
class OracleCluster:
    center: float
    size: int


@dataclass
class OracleSpectrum:
    eigenvalues: np.ndarray
    clusters: list[OracleCluster]


def _phi_grid(m: int, n_phi: int):
    """The parts shared by every theta-mode n of the symmetrized radial
    operators -(1/sin)(sin f')' + (n + m(1-cos)/2)^2/sin^2 f on the
    pole-offset grid phi_i = (i + 1/2) pi/n_phi: the Laplacian's diagonal,
    the off-diagonal, m(1-cos)/2 and sin."""
    h = math.pi / n_phi
    phi = (np.arange(n_phi) + 0.5) * h
    s = np.sin(phi)
    s_half_up = np.sin(phi + 0.5 * h)
    s_half_dn = np.sin(phi - 0.5 * h)  # = 0 at the first node's lower face
    lap = (s_half_up + s_half_dn) / (s * h * h)
    off = -s_half_up[:-1] / (h * h * np.sqrt(s[:-1] * s[1:]))
    return lap, off, 0.5 * m * (1.0 - np.cos(phi)), s


def _mode_diagonal(grid, n: int) -> np.ndarray:
    """Diagonal of the theta-mode-n operator; its off-diagonal is grid[1]."""
    lap, _off, alpha, s = grid
    return lap + ((n + alpha) / s) ** 2


def sphere_laplacian_oracle(m: int, l_cut: int, n_phi: int = 600) -> OracleSpectrum:
    """Discretized spectrum of the charge-m sphere Laplacian up to the l_cut
    eigenvalue, clustered where neighbours differ by more than _CLUSTER_TOL relative.

    Convergence is certified by a half-resolution comparison with the same
    tolerance: if any eigenvalue moves by more than _CLUSTER_TOL relative to
    max(|lambda|, 0.25), the resolution is rejected, so a cluster that the
    grid still splits is refused rather than reported with a wrong size.

    Under phi -> pi - phi the grid maps onto itself and m(1-cos)/2 onto
    |m| - m(1-cos)/2, so the operator of mode n is the entrywise reversal of
    that of -n-|m| (to rounding), with the same eigenvalues. Only the member
    n >= -|m|/2 of each pair is solved and its eigenvalues count for both;
    the self-mirror mode n = -|m|/2 (|m| even) counts once.
    """
    m, l_cut = require_integer("m", m), require_integer("l_cut", l_cut)
    n_phi = require_integer("n_phi", n_phi, least=2)
    if l_cut > 8:
        raise ValueError("oracle is a desk-scale instrument: l_cut <= 8")
    ma = abs(m)
    if l_cut < ma or (l_cut - ma) % 2 != 0:
        raise ValueError("l_cut must be |m| + 2j for some j >= 0")
    lam_max = (l_cut * (l_cut + 2) - ma * ma) / 4.0 + 0.251
    # the l-eigenspace spreads over theta-modes n = m_q - m/2, m_q = -l/2..l/2;
    # n runs over -(|m| + l_cut)/2 .. (l_cut - |m|)/2, closed under the mirror
    n_hi = (l_cut - ma) // 2

    def collect(res: int) -> np.ndarray:
        grid = _phi_grid(ma, res)
        vals = []
        for n in range(-(ma // 2), n_hi + 1):
            v = eigh_tridiagonal(_mode_diagonal(grid, n), grid[1], select="v",
                                 select_range=(-0.5, lam_max), eigvals_only=True)
            vals.extend((v, v) if 2 * n != -ma else (v,))
        return np.sort(np.concatenate(vals))

    vals = collect(n_phi)
    coarse = collect(n_phi // 2)
    if vals.size != coarse.size:
        raise UnderResolvedError("eigenvalue count changed under refinement")
    scale = np.maximum(np.abs(vals), 0.25)
    if np.max(np.abs(vals - coarse) / scale) > _CLUSTER_TOL:
        raise UnderResolvedError(f"oracle eigenvalues moved > {_CLUSTER_TOL} under refinement")

    clusters: list[OracleCluster] = []
    start = 0
    for i in range(1, vals.size + 1):
        ref = max(abs(vals[start]), 0.25)
        if i == vals.size or abs(vals[i] - vals[i - 1]) > _CLUSTER_TOL * ref:
            clusters.append(OracleCluster(float(np.mean(vals[start:i])), i - start))
            start = i
    return OracleSpectrum(vals, clusters)
