"""Indicial spectrum: closed forms, root identities, discretized oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permono import spectral
from permono.errors import ResolutionTooLowError


def test_kuwabara_examples():
    assert spectral.kuwabara_eigenvalues(0, 2) == [(0, 0.0, 1), (2, 2.0, 3), (4, 6.0, 5)]
    l, lam, mult = spectral.kuwabara_eigenvalues(2, 0)[0]
    assert (l, lam, mult) == (2, 1.0, 3)
    l, lam, mult = spectral.kuwabara_eigenvalues(1, 0)[0]
    assert (l, lam, mult) == (1, 0.5, 2)
    with pytest.raises(ValueError):
        spectral.kuwabara_eigenvalues(1, -1)


def test_operator_spectrum_entries():
    s0 = spectral.operator_L_spectrum(0, 0).entries[0]
    assert (s0.lam, s0.gamma_plus, s0.gamma_minus) == (0.0, 0.0, -1.0)
    s1 = spectral.operator_L_spectrum(1, 0).entries[0]
    assert (s1.lam, s1.gamma_plus, s1.gamma_minus) == (0.75, 0.5, -1.5)
    assert s1.multiplicity == 2


def test_root_identities_exact():
    import math

    for m in range(-6, 7):
        for e in spectral.operator_L_spectrum(m, 20).entries:
            assert e.gamma_plus == e.j + abs(m) / 2.0
            assert e.gamma_minus == -e.j - 1.0 - abs(m) / 2.0
            assert e.gamma_plus + e.gamma_minus == -1.0
            assert e.gamma_plus * e.gamma_minus == -e.lam
            assert e.multiplicity == 2 * e.j + abs(m) + 1
            # closed-form root: -1/2 + sqrt(1/4 + l(l+2)/4) = l/2
            assert -0.5 + math.sqrt(0.25 + e.lam) == e.l / 2.0


def test_is_exceptional():
    q = spectral.is_exceptional(0.0, 0)
    assert q.is_exceptional and q.nearest == 0.0
    q = spectral.is_exceptional(1.0, 2)
    assert q.is_exceptional and q.nearest == 1.0  # gamma^+ at j = 0
    for delta in np.linspace(-1.5 + 1e-6, 0.5 - 1e-6, 41):
        assert not spectral.is_exceptional(float(delta), 1).is_exceptional
    with pytest.raises(ValueError):
        spectral.is_exceptional(40.0, 1, j_max=4)
    with pytest.raises(ValueError, match="j_max must be >= 0"):
        spectral.is_exceptional(0.0, 1, j_max=-1)
    for delta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            spectral.is_exceptional(delta, 0)
    for tol in (np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match="tol must be finite"):
            spectral.is_exceptional(0.0, 0, tol=tol)
    assert spectral.is_exceptional(0.0, 0, tol=0.0).is_exceptional


def _scan_exceptional(delta, m, j_max, tol=1e-12):
    """The nearest root by a scan of every weight, first of equals winning."""
    ws = spectral.operator_L_spectrum(m, j_max).weights()
    nearest = min(ws, key=lambda w: abs(w - delta))
    dist = abs(nearest - delta)
    return spectral.ExceptionalQuery(dist <= tol, nearest, dist)


@st.composite
def _weight_queries(draw):
    m = draw(st.integers(-8, 8))
    j_max = draw(st.integers(1, 70))
    top = abs(m) / 2.0 + j_max
    # quarter-integer points, and their neighbouring floats, hit the ties
    # between neighbouring roots
    quarter = draw(st.integers(-int(4 * top) + 1, int(4 * top) - 1)) / 4.0
    delta = draw(st.floats(-top, top, exclude_min=True, exclude_max=True)
                 | st.sampled_from([quarter, float(np.nextafter(quarter, -top)),
                                    float(np.nextafter(quarter, top))]))
    return delta, m, j_max


@settings(max_examples=400, deadline=None)
@given(q=_weight_queries(), tol=st.sampled_from([0.0, 1e-12, 0.3]))
def test_is_exceptional_matches_weight_scan(q, tol):
    delta, m, j_max = q
    assert spectral.is_exceptional(delta, m, j_max, tol) == _scan_exceptional(delta, m, j_max, tol)


def test_interval_free_of_weights():
    for m in (1, 2, 3, 4, 5, 6):
        lo, hi = -1.0 - m / 2.0, m / 2.0
        for w in spectral.operator_L_spectrum(m, 40).weights():
            assert not (lo < w < hi)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_oracle_matches_formula(m):
    l_cut = abs(m) + 4
    osp = spectral.sphere_laplacian_oracle(m, l_cut)
    expected = spectral.kuwabara_eigenvalues(m, 2)
    assert len(osp.clusters) >= 3
    for (l, lam, mult), cl in zip(expected, osp.clusters[:3]):
        if lam == 0.0:
            assert abs(cl.center) <= 1e-6
        else:
            assert abs(cl.center - lam) / lam <= 0.01
        assert cl.size == mult


def test_oracle_improves_under_refinement():
    lam = spectral.kuwabara_eigenvalues(2, 1)[1][1]  # l = 4 eigenvalue
    errs = []
    for n_phi in (200, 400, 800):
        osp = spectral.sphere_laplacian_oracle(2, 6, n_phi=n_phi)
        errs.append(abs(osp.clusters[1].center - lam))
    assert errs[2] < errs[1] < errs[0]


def test_oracle_negative_charge_symmetric():
    a = spectral.sphere_laplacian_oracle(2, 4)
    b = spectral.sphere_laplacian_oracle(-2, 4)
    assert np.allclose(a.eigenvalues, b.eigenvalues)


def test_oracle_diagonal_sector_complete():
    # m = 0: the indexed family l = 2j IS the full round-sphere spectrum
    # j(j+1); the oracle finds no clusters outside it.
    osp = spectral.sphere_laplacian_oracle(0, 6)
    indexed = [lam for (_l, lam, _mult) in spectral.kuwabara_eigenvalues(0, 3)]
    for cl in osp.clusters:
        assert min(abs(cl.center - lam) for lam in indexed) <= 0.05


def test_oracle_guards():
    with pytest.raises(ValueError):
        spectral.sphere_laplacian_oracle(1, 2)  # parity mismatch
    with pytest.raises(ValueError):
        spectral.sphere_laplacian_oracle(0, 10)  # beyond desk scale
    with pytest.raises(ResolutionTooLowError):
        spectral.sphere_laplacian_oracle(3, 7, n_phi=16)


@pytest.mark.parametrize("n_phi", [1, 0, -600, 600.7, 2.0, "600", None])
def test_oracle_rejects_bad_n_phi(n_phi):
    with pytest.raises(ValueError, match="n_phi"):
        spectral.sphere_laplacian_oracle(0, 4, n_phi=n_phi)


@pytest.mark.parametrize("n_phi", [2, 16])
def test_oracle_small_n_phi_is_under_resolved(n_phi):
    with pytest.raises(ResolutionTooLowError):
        spectral.sphere_laplacian_oracle(0, 4, n_phi=n_phi)


@pytest.mark.parametrize("call, name", [
    (lambda: spectral.operator_L_spectrum(np.nan, 1), "m"),
    (lambda: spectral.operator_L_spectrum(1, 1.5), "j_max"),
    (lambda: spectral.kuwabara_eigenvalues(0.5, 1), "m"),
    (lambda: spectral.is_exceptional(0.3, 0.5), "m"),
    (lambda: spectral.is_exceptional(0.3, 1, j_max=4.0), "j_max"),
    (lambda: spectral.sphere_laplacian_oracle(0.5, 4.5), "m"),
    (lambda: spectral.sphere_laplacian_oracle(0, 4.0), "l_cut"),
])
def test_charges_and_counts_must_be_integers(call, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


def _mode_range(m, l_cut):
    return range(-(abs(m) + l_cut) // 2, (l_cut - abs(m)) // 2 + 1)


@pytest.mark.parametrize("n_phi", [16, 200, 600, 800])
def test_mirror_modes_have_reversed_operators(n_phi):
    # phi -> pi - phi maps mode n onto -n-|m|; the two assembled operators
    # agree entrywise after reversal to rounding (5.4e-13 measured up to
    # n_phi = 1600), which is what lets the oracle solve one of each pair
    for m in range(-3, 4):
        grid = spectral._phi_grid(abs(m), n_phi)
        off = grid[1]
        assert np.all(np.abs(off - off[::-1]) <= 2e-12 * np.abs(off))
        # the widest mode range, that of the largest l_cut <= 8
        for n in _mode_range(m, abs(m) + 2 * ((8 - abs(m)) // 2)):
            d = spectral._mode_diagonal(grid, n)
            mirror = spectral._mode_diagonal(grid, -n - abs(m))[::-1]
            assert np.all(np.abs(d - mirror) <= 2e-12 * np.abs(d)), (m, n)


def _all_modes_spectrum(m, l_cut, n_phi):
    """Every theta-mode operator assembled and solved on its own, as
    -(1/sin)(sin f')' + (n + |m|(1-cos)/2)^2/sin^2 f on the pole-offset grid."""
    from scipy.linalg import eigh_tridiagonal

    ma = abs(m)
    lam_max = (l_cut * (l_cut + 2) - ma * ma) / 4.0 + 0.251
    h = np.pi / n_phi
    phi = (np.arange(n_phi) + 0.5) * h
    s, up, dn = np.sin(phi), np.sin(phi + 0.5 * h), np.sin(phi - 0.5 * h)
    off = -up[:-1] / (h * h * np.sqrt(s[:-1] * s[1:]))
    vals = [eigh_tridiagonal((up + dn) / (s * h * h) + ((n + 0.5 * ma * (1.0 - np.cos(phi))) / s) ** 2,
                             off, select="v", select_range=(-0.5, lam_max), eigvals_only=True)
            for n in _mode_range(m, l_cut)]
    return np.sort(np.concatenate(vals))


@pytest.mark.parametrize("m", range(-3, 4))
def test_oracle_matches_all_modes_solve(m):
    # 1.4e-10 measured over m = -3..3, every l_cut <= 8, n_phi in 200..800
    for l_cut in (abs(m) + 2, abs(m) + 4):
        for n_phi in (200, 600):
            got = spectral.sphere_laplacian_oracle(m, l_cut, n_phi).eigenvalues
            want = _all_modes_spectrum(m, l_cut, n_phi)
            assert got.size == want.size
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1.0))
