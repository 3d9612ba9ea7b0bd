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
asserted directly with no normalization factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ResolutionTooLowError


@dataclass(frozen=True)
class SpectrumEntry:
    j: int
    l: int
    lam: float
    gamma_plus: float
    gamma_minus: float
    multiplicity: int


@dataclass
class WeightSpectrum:
    """Indexed eigenvalues of L and the indicial roots, for charge m
    (m = 0 is the diagonal sector)."""

    m: int
    entries: list[SpectrumEntry]

    def weights(self) -> list[float]:
        out = []
        for e in self.entries:
            out.extend((e.gamma_plus, e.gamma_minus))
        return out


def kuwabara_eigenvalues(m: int, j_max: int) -> list[tuple[int, float, int]]:
    """[(l, (l(l+2) - m^2)/4, l+1)] for l = |m| + 2j, j = 0..j_max: the
    spectrum of the charge-m sphere Laplacian, i.e. that of L shifted by -m^2/4."""
    return [(e.l, e.lam - m * m / 4.0, e.multiplicity)
            for e in operator_L_spectrum(m, j_max).entries]


def operator_L_spectrum(m: int, j_max: int) -> WeightSpectrum:
    """Eigenvalues l(l+2)/4 of L = (sphere Laplacian, Bochner + m^2/4) and the
    exceptional weights gamma_j^+- of the indicial equation g^2 + g = lambda."""
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    entries = []
    for j in range(j_max + 1):
        l = abs(m) + 2 * j
        lam = l * (l + 2) / 4.0
        entries.append(SpectrumEntry(j, l, lam, l / 2.0, -(l + 2) / 2.0, l + 1))
    return WeightSpectrum(m, entries)


@dataclass(frozen=True)
class ExceptionalQuery:
    is_exceptional: bool
    nearest: float
    distance: float


def is_exceptional(delta: float, m: int, j_max: int = 64,
                   tol: float = 1e-12) -> ExceptionalQuery:
    """Whether delta coincides (within tol) with an indicial root gamma_j^+-.

    j_max must index far enough that |delta| < gamma^+_{j_max}; otherwise a
    root beyond the window could be nearer. Of equally near roots the one with
    the smaller j is reported, gamma^+ before gamma^-, as in the order of
    ``operator_L_spectrum(m, j_max).weights()``.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    a = abs(m) / 2.0
    top = a + j_max
    if abs(delta) >= top:
        raise ValueError(f"j_max={j_max} too small: |delta|={abs(delta)} >= {top}")
    # gamma_j^+ = a + j and gamma_j^- = -(a + 1) - j: on each branch the nearest
    # is the rounded index (a tie to the smaller j), clamped to 0..j_max. A tie
    # across the branches can only be at j = 0, where gamma^+ comes first.
    plus = a + min(max(math.ceil(delta - a - 0.5), 0), j_max)
    minus = -(a + 1.0) - min(max(math.ceil(-(a + 1.0) - delta - 0.5), 0), j_max)
    nearest = plus if abs(plus - delta) <= abs(minus - delta) else minus
    dist = abs(nearest - delta)
    return ExceptionalQuery(dist <= tol, nearest, dist)


@dataclass
class OracleCluster:
    center: float
    size: int


@dataclass
class OracleSpectrum:
    m: int
    eigenvalues: np.ndarray
    clusters: list[OracleCluster]


def _mode_eigenvalues(m: int, n: int, n_phi: int, lam_max: float) -> np.ndarray:
    """Lowest eigenvalues (<= lam_max) of the theta-mode-n radial operator
    -(1/sin)(sin f')' + (n + m(1-cos)/2)^2/sin^2 f on the pole-offset grid."""
    h = math.pi / n_phi
    phi = (np.arange(n_phi) + 0.5) * h
    s = np.sin(phi)
    s_half_up = np.sin(phi + 0.5 * h)
    s_half_dn = np.sin(phi - 0.5 * h)  # = 0 at the first node's lower face
    alpha = 0.5 * m * (1.0 - np.cos(phi))
    diag = (s_half_up + s_half_dn) / (s * h * h) + ((n + alpha) / s) ** 2
    off = -s_half_up[:-1] / (h * h * np.sqrt(s[:-1] * s[1:]))
    vals = eigh_tridiagonal(diag, off, select="v",
                            select_range=(-0.5, lam_max), eigvals_only=True)
    return vals


def sphere_laplacian_oracle(m: int, l_cut: int, n_phi: int = 600) -> OracleSpectrum:
    """Discretized spectrum of the charge-m sphere Laplacian up to the l_cut
    eigenvalue, clustered where neighbours differ by more than 1e-3 relative.

    Convergence is certified by a half-resolution Richardson comparison; if
    any reported eigenvalue moves by more than 5% the resolution is rejected.
    """
    if l_cut > 8:
        raise ValueError("oracle is a desk-scale instrument: l_cut <= 8")
    ma = abs(m)
    if l_cut < ma or (l_cut - ma) % 2 != 0:
        raise ValueError("l_cut must be |m| + 2j for some j >= 0")
    lam_max = (l_cut * (l_cut + 2) - ma * ma) / 4.0 + 0.251
    # the l-eigenspace spreads over theta-modes n = m_q - m/2, m_q = -l/2..l/2
    n_lo = -(ma + l_cut) // 2
    n_hi = (l_cut - ma) // 2

    def collect(res: int) -> np.ndarray:
        vals = []
        for n in range(n_lo, n_hi + 1):
            vals.extend(_mode_eigenvalues(ma, n, res, lam_max))
        return np.sort(np.array(vals))

    vals = collect(n_phi)
    coarse = collect(n_phi // 2)
    if vals.size != coarse.size:
        raise ResolutionTooLowError("eigenvalue count changed under refinement")
    scale = np.maximum(np.abs(vals), 0.25)
    if np.max(np.abs(vals - coarse) / scale) > 0.05:
        raise ResolutionTooLowError("oracle eigenvalues moved > 5% under refinement")

    clusters: list[OracleCluster] = []
    start = 0
    for i in range(1, vals.size + 1):
        ref = max(abs(vals[start]), 0.25)
        if i == vals.size or abs(vals[i] - vals[i - 1]) > 1e-3 * ref:
            clusters.append(OracleCluster(float(np.mean(vals[start:i])), i - start))
            start = i
    return OracleSpectrum(m, vals, clusters)
