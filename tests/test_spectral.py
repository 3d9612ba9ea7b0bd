"""Indicial spectrum: closed forms, root identities, discretized oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from permono import spectral
from permono.errors import UnderResolvedError


def test_kuwabara_examples():
    assert oracles.kuwabara_eigenvalues(0, 2) == [(0, 0.0, 1), (2, 2.0, 3), (4, 6.0, 5)]
    l, lam, mult = oracles.kuwabara_eigenvalues(2, 0)[0]
    assert (l, lam, mult) == (2, 1.0, 3)
    l, lam, mult = oracles.kuwabara_eigenvalues(1, 0)[0]
    assert (l, lam, mult) == (1, 0.5, 2)
    with pytest.raises(ValueError):
        oracles.kuwabara_eigenvalues(1, -1)


def test_operator_spectrum_entries():
    s0 = spectral.operator_L_spectrum(0, 0)[0]
    assert (s0.lam, s0.gamma_plus, s0.gamma_minus) == (0.0, 0.0, -1.0)
    s1 = spectral.operator_L_spectrum(1, 0)[0]
    assert (s1.lam, s1.gamma_plus, s1.gamma_minus) == (0.75, 0.5, -1.5)
    assert s1.multiplicity == 2


def test_root_identities_exact():
    import math

    for m in range(-6, 7):
        for e in spectral.operator_L_spectrum(m, 20):
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
    # no window bounds the ladder: 70 = gamma^+_70 (m = 0)
    assert spectral.is_exceptional(70.0, 0) == spectral.ExceptionalQuery(True, 70.0, 0.0)
    q = spectral.is_exceptional(-1e6 - 0.25, 3)
    assert not q.is_exceptional and q.nearest == -1e6 - 0.5  # gamma^-_{999998}
    # past 2**52 every float is an integer: a root for even m, and half-way
    # between two roots for odd m
    for delta in (2.0**53, -2.0**53 - 2.0, 1e300):
        assert spectral.is_exceptional(delta, 2) == spectral.ExceptionalQuery(True, delta, 0.0)
        q = spectral.is_exceptional(delta, 1)
        assert not q.is_exceptional and q.distance == 0.5
    with pytest.raises(TypeError):
        spectral.is_exceptional(0.0, 1, 64)  # no j_max is taken as tol
    for delta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            spectral.is_exceptional(delta, 0)
    for tol in (np.nan, -1.0, np.inf):
        with pytest.raises(ValueError, match="tol must be finite"):
            spectral.is_exceptional(0.0, 0, tol=tol)
    assert spectral.is_exceptional(0.0, 0, tol=0.0).is_exceptional


def _scan_exceptional(delta, m, j_max, tol=1e-12):
    """The nearest root by a scan of every weight, first of equals winning,
    on exact distances: rounded ones can tie where the exact ones do not."""
    d = Fraction(delta)
    ws = [w for e in spectral.operator_L_spectrum(m, j_max)
          for w in (e.gamma_plus, e.gamma_minus)]
    nearest = min(ws, key=lambda w: abs(Fraction(w) - d))
    dist = float(abs(Fraction(nearest) - d))
    return spectral.ExceptionalQuery(dist <= tol, nearest, dist)


@st.composite
def _weight_queries(draw):
    m = draw(st.integers(-8, 8))
    # roots low on the ladder and far up it, to j ~ 300
    top = draw(st.sampled_from([4.0, 80.0, 300.0]))
    # quarter-integer points, and their neighbouring floats, hit the ties
    # between neighbouring roots
    quarter = draw(st.integers(-int(4 * top), int(4 * top))) / 4.0
    delta = draw(st.floats(-top, top)
                 | st.sampled_from([quarter, float(np.nextafter(quarter, -top)),
                                    float(np.nextafter(quarter, top))]))
    return delta, m


@settings(max_examples=400, deadline=None)
@given(q=_weight_queries(), tol=st.sampled_from([0.0, 1e-12, 0.3]))
@example(q=(-0.5000000000000001, 2), tol=0.0)  # gamma_0^- is nearer, by 2e-16
def test_is_exceptional_matches_weight_scan(q, tol):
    delta, m = q
    # a root nearest to delta has j <= |delta| + 1 on either branch
    j_max = int(abs(delta)) + 2
    assert spectral.is_exceptional(delta, m, tol=tol) == _scan_exceptional(delta, m, j_max, tol)


def test_interval_free_of_weights():
    for m in (1, 2, 3, 4, 5, 6):
        lo, hi = -1.0 - m / 2.0, m / 2.0
        for e in spectral.operator_L_spectrum(m, 40):
            assert not (lo < e.gamma_plus < hi) and not (lo < e.gamma_minus < hi)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_oracle_matches_formula(m):
    l_cut = abs(m) + 4
    osp = spectral.sphere_laplacian_oracle(m, l_cut)
    expected = oracles.kuwabara_eigenvalues(m, 2)
    assert len(osp.clusters) >= 3
    for (l, lam, mult), cl in zip(expected, osp.clusters[:3]):
        if lam == 0.0:
            assert abs(cl.center) <= 1e-6
        else:
            assert abs(cl.center - lam) / lam <= 0.01
        assert cl.size == mult


def test_oracle_improves_under_refinement():
    lam = oracles.kuwabara_eigenvalues(2, 1)[1][1]  # l = 4 eigenvalue
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
    indexed = [lam for (_l, lam, _mult) in oracles.kuwabara_eigenvalues(0, 3)]
    for cl in osp.clusters:
        assert min(abs(cl.center - lam) for lam in indexed) <= 0.05


def test_oracle_guards():
    with pytest.raises(ValueError):
        spectral.sphere_laplacian_oracle(1, 2)  # parity mismatch
    with pytest.raises(ValueError):
        spectral.sphere_laplacian_oracle(0, 10)  # beyond desk scale
    with pytest.raises(UnderResolvedError):
        spectral.sphere_laplacian_oracle(3, 7, n_phi=16)


def test_oracle_refuses_a_split_cluster():
    # at n_phi = 40 the grid splits l = 5 into (6.486, 4) and (6.497, 2), for the
    # truth (6.5, 6), while no eigenvalue moves 5% at half resolution
    with pytest.raises(UnderResolvedError):
        spectral.sphere_laplacian_oracle(-3, 5, n_phi=40)


@pytest.mark.parametrize("m", range(-3, 4))
def test_oracle_answers_only_with_the_true_multiplicities(m):
    # every l_cut <= 8 at every n_phi in 20..60, where the grid may split a
    # cluster: an answer has the clusters of the closed form, with centres
    # within the cluster tolerance; a split is an UnderResolvedError
    for l_cut in range(abs(m), 9, 2):
        want = oracles.kuwabara_eigenvalues(m, (l_cut - abs(m)) // 2)
        for n_phi in range(20, 61):
            try:
                osp = spectral.sphere_laplacian_oracle(m, l_cut, n_phi)
            except UnderResolvedError:
                continue
            assert [c.size for c in osp.clusters] == [mult for _l, _lam, mult in want]
            for c, (_l, lam, _mult) in zip(osp.clusters, want):
                assert abs(c.center - lam) <= spectral._CLUSTER_TOL * max(lam, 0.25)


@pytest.mark.parametrize("n_phi", [1, 0, -600, 600.7, 2.0, "600", None])
def test_oracle_rejects_bad_n_phi(n_phi):
    with pytest.raises(ValueError, match="n_phi"):
        spectral.sphere_laplacian_oracle(0, 4, n_phi=n_phi)


@pytest.mark.parametrize("n_phi", [2, 16])
def test_oracle_small_n_phi_is_under_resolved(n_phi):
    with pytest.raises(UnderResolvedError):
        spectral.sphere_laplacian_oracle(0, 4, n_phi=n_phi)


@pytest.mark.parametrize("call, name", [
    (lambda: spectral.operator_L_spectrum(np.nan, 1), "m"),
    (lambda: spectral.operator_L_spectrum(1, 1.5), "j_max"),
    (lambda: spectral.operator_L_spectrum(0.5, 1), "m"),
    (lambda: spectral.is_exceptional(0.3, 0.5), "m"),
    (lambda: spectral.operator_L_spectrum(1, True), "j_max"),
    (lambda: spectral.sphere_laplacian_oracle(0.5, 4.5), "m"),
    (lambda: spectral.sphere_laplacian_oracle(0, 4.0), "l_cut"),
    (lambda: spectral.is_exceptional(0.3, True), "m"),
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
