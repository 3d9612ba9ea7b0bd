"""The four workloads of the permono benchmark.

Each workload turns a seed into plain numpy inputs (`inputs`), binds them to
the imported permono modules as a list of operations (`ops`), and checks the
output of an operation against the independent references (`check`). Inputs
are made only from the seed; ops look permono functions up as module
attributes at call time, so the trace wrappers see every call. Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi


def _uniform_direction(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class GreenBatch:
    """G at seeded points around a pole at the origin, in fixed-size chunks
    through green.evaluate_batch; one op is one chunk."""

    modules = ("green",)
    tol = 1e-12

    def __init__(self, chunk, n_chunks, trace_ops, draw, calibration):
        self.calibration = calibration
        self.chunk = chunk
        self.n_chunks = n_chunks
        self.trace_ops = trace_ops
        self._draw = draw

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        x, y, t = self._draw(rng, self.chunk, self.n_chunks)
        # t is stored reduced, exactly as CirclePoint3 keeps it, so the
        # program and the references see the same floats.
        return {"x": x, "y": y, "t": np.mod(t, TWO_PI)}

    def ops(self, pm, inp):
        green = pm["green"]
        pts = [green.CirclePoint3(complex(a, b), c) for a, b, c in zip(inp["x"], inp["y"], inp["t"])]
        chunks = [pts[i:i + self.chunk] for i in range(0, len(pts), self.chunk)]
        return [lambda c=c: green.evaluate_batch(c, green.ORIGIN, self.tol) for c in chunks]

    def check(self, inp, i, out):
        sl = slice(i * self.chunk, (i + 1) * self.chunk)
        value, _grad, err, _gerr = ref.green(inp["x"][sl], inp["y"][sl], inp["t"][sl])
        got = np.array([g.value for g in out])
        bad = np.abs(got - value) > self.tol + err
        return not bad.any(), f"{int(bad.sum())} of {bad.size} G values off the reference"


def _draw_far(rng, chunk, n_chunks):
    """0.5 < r <= 8, uniform in r: every point takes the Fourier-Bessel
    regime, with about 10 terms on average at tol 1e-12."""
    n = chunk * n_chunks
    r = 8.0 - 7.5 * rng.random(n)
    th = rng.uniform(0.0, TWO_PI, n)
    return r * np.cos(th), r * np.sin(th), rng.uniform(0.0, TWO_PI, n)


def _draw_near(rng, chunk, n_chunks):
    """r <= 0.5. Each chunk of 8 holds one point at rho in [1e-6, 8e-6] (the
    Multipole regime at tol 1e-12), two at rho log-uniform in [1e-4, 0.1)
    (the image-sum fallback below the multipole switch) and five uniform in
    the disk r <= 0.5 with dt in [-pi, pi) (the ImageSum regime)."""
    if chunk != 8:
        raise ValueError("the near-field chunk composition is defined for 8 points")
    xs, ys, ts = [], [], []
    for _ in range(n_chunks):
        rho = np.concatenate([rng.uniform(1e-6, 8e-6, 1), 10.0 ** rng.uniform(-4.0, -1.0, 2)])
        d = _uniform_direction(rng, 3) * rho[:, None]
        r = 0.5 * np.sqrt(rng.random(5))
        th = rng.uniform(0.0, TWO_PI, 5)
        xs.append(np.concatenate([d[:, 0], r * np.cos(th)]))
        ys.append(np.concatenate([d[:, 1], r * np.sin(th)]))
        ts.append(np.concatenate([d[:, 2], rng.uniform(-math.pi, math.pi, 5)]))
    return np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)


#: the fixed 3-term periodic monopole: (x, y, t, charge) of each centre.
MONOPOLE_TERMS = ((0.0, 0.0, 0.0, 2), (0.9, 0.6, 0.3, -1), (-0.7, -0.8, TWO_PI - 0.2, 1))
MONOPOLE_V = 1.0
MONOPOLE_B = 0.25
#: 64^3 nodes at h = 0.05, at least 2.3 from every centre in the plane and
#: 1.3 from every radial-gauge seam dt = pi.
BOGOMOLNY_BOX = ((3.2, 6.35), (-1.6, 1.55), (-1.55, 1.6))
BOGOMOLNY_H = 0.05
WINDING_RADIUS = 3.0


class MonopoleFields:
    """One op is one frame of the fixed monopole: higgs and higgs_gradient
    at 12 seeded points, holonomy at 8 seeded points of the circle |z| = 3,
    winding_number on that circle and bogomolny_residual on the 64^3 box."""

    modules = ("green", "abelian")
    calibration = "mixed"
    tol = 1e-10
    n_frames = 16
    trace_ops = 6
    #: gradients carry no certified bound; this tolerance was fixed before
    #: any run, from the regime errors (multipole gradient ~ 1e-2 rho).
    grad_rel_tol = 1e-8

    def __init__(self):
        self._bound = None

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = self.n_frames
        cen = np.array([c[:3] for c in MONOPOLE_TERMS])
        # per frame: 2 points within rho in [1e-5, 5e-5] of a centre (the
        # Multipole regime at tol/3), 4 at r in [0.05, 0.5] from a centre
        # (ImageSum), 6 spread over |x|, |y| <= 4 (mostly Fourier-Bessel).
        which = rng.integers(0, 3, size=(n, 6))
        rho = rng.uniform(1e-5, 5e-5, size=(n, 2))
        d_mp = _uniform_direction(rng, 2 * n).reshape(n, 2, 3) * rho[..., None]
        r = rng.uniform(0.05, 0.5, size=(n, 4))
        th = rng.uniform(0.0, TWO_PI, size=(n, 4))
        d_near = np.stack([r * np.cos(th), r * np.sin(th), rng.uniform(-1.0, 1.0, (n, 4))], axis=-1)
        spread = np.stack([rng.uniform(-4.0, 4.0, (n, 6)), rng.uniform(-4.0, 4.0, (n, 6)),
                           rng.uniform(0.0, TWO_PI, (n, 6))], axis=-1)
        pts = np.concatenate([cen[which[:, :2]] + d_mp, cen[which[:, 2:]] + d_near, spread], axis=1)
        pts[..., 2] = np.mod(pts[..., 2], TWO_PI)
        ang = rng.uniform(0.0, TWO_PI, size=(n, 8))
        return {"points": pts, "hol_z": WINDING_RADIUS * np.exp(1j * ang)}

    def ops(self, pm, inp):
        green, abelian = pm["green"], pm["abelian"]
        m = abelian.AbelianMonopole(
            [abelian.DiracTerm(green.CirclePoint3(complex(x, y), t), k) for x, y, t, k in MONOPOLE_TERMS],
            MONOPOLE_V, MONOPOLE_B)

        def frame(pts, zs):
            ps = [green.CirclePoint3(complex(x, y), t) for x, y, t in pts]
            return {
                "higgs": [abelian.higgs(m, p, self.tol) for p in ps],
                "grad": [abelian.higgs_gradient(m, p, self.tol) for p in ps],
                "hol": [abelian.holonomy(m, z) for z in zs],
                "winding": abelian.winding_number(m, WINDING_RADIUS),
                "residual": abelian.bogomolny_residual(m, BOGOMOLNY_BOX, BOGOMOLNY_H),
            }

        return [lambda p=p, z=z: frame(p, z) for p, z in zip(inp["points"], inp["hol_z"])]

    def check(self, inp, i, out):
        pts = inp["points"][i]
        value, grad, err, gerr = ref.monopole_higgs(MONOPOLE_TERMS, MONOPOLE_V, *pts.T)
        # higgs sums the terms at tol/n each, charge-weighted.
        allow = sum(abs(k) for *_, k in MONOPOLE_TERMS) * self.tol / len(MONOPOLE_TERMS)
        problems = []
        bad = np.abs(np.array(out["higgs"]) - value) > allow + err
        if bad.any():
            problems.append(f"{int(bad.sum())} higgs values off the reference")
        gbad = np.abs(np.array(out["grad"]).T - grad) > self.grad_rel_tol * (1.0 + np.abs(grad)) + gerr
        if gbad.any():
            problems.append(f"{int(gbad.any(axis=0).sum())} higgs gradients off the reference")
        # arg() rounds to a few ulps of pi per term.
        hol_err = 8.0 * ref.EPS * math.pi * (1 + sum(abs(k) for *_, k in MONOPOLE_TERMS))
        if np.abs(np.array(out["hol"]) - ref.holonomy(MONOPOLE_TERMS, MONOPOLE_B, inp["hol_z"][i])).max() > hol_err:
            problems.append("holonomy off the closed form")
        if out["winding"] != -sum(k for *_, k in MONOPOLE_TERMS):
            problems.append(f"winding {out['winding']} is not minus the total charge")
        if self._bound is None:
            self._bound = ref.bogomolny_bound(MONOPOLE_TERMS, BOGOMOLNY_BOX, BOGOMOLNY_H)
        if not out["residual"] <= self._bound:
            problems.append(f"Bogomolny residual {out['residual']:.3e} above its bound {self._bound:.3e}")
        return not problems, "; ".join(problems)


@dataclass
class _Round:
    lam: float
    diag_mode: int
    diag_R: float
    coer_mode: int
    poinc_R: float
    poinc_delta: float
    poinc_seed: int
    sphere_m: int
    deltas: np.ndarray
    hopf_k: np.ndarray
    hopf_mass: np.ndarray
    hopf_p: np.ndarray


def _bump(r):
    return np.exp(-(((r - 3.0) / 0.5) ** 2))


class ModelOracles:
    """One op is one seeded round of the model solvers and oracles:
    cylinder_solve, exterior_diagonal_solve, exterior_coercive_solve,
    poincare_constant_check, sphere_laplacian_oracle, is_exceptional and
    hopf.curvature_richardson of lift_dirac_connection. None of them calls
    green or specfn."""

    modules = ("modelsolve", "spectral", "hopf")
    calibration = "mixed"
    n_rounds = 16
    trace_ops = 16
    cyl_mesh = 2e-3
    coer_mesh = 2e-3
    poinc_trials = 4
    hopf_h = 1e-2
    #: Richardson curvature: O(h^4) stencil error plus rounding ~ eps/h on
    #: |z1|, |z2| in [0.25, 1.2]; fixed before any run.
    hopf_tol = 1e-7
    sphere_n_phi = 600

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        rounds = []
        for _ in range(self.n_rounds):
            m = int(rng.integers(-3, 4))
            roots = [w for w in ref.indicial_roots(m, abs(m) + 16) if abs(w) < 8.0]
            deltas = np.concatenate([rng.choice(roots, 2, replace=False), rng.uniform(-5.0, 5.0, 2)])
            mag = rng.uniform(0.25, 1.2, (4, 2))
            ang = rng.uniform(0.0, TWO_PI, (4, 2))
            rounds.append(_Round(
                lam=float(rng.uniform(0.5, 6.0)),
                diag_mode=int(rng.integers(1, 4)), diag_R=float(rng.uniform(0.5, 2.0)),
                coer_mode=int(rng.integers(1, 4)),
                poinc_R=float(rng.uniform(0.5, 2.0)),
                poinc_delta=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)),
                poinc_seed=int(rng.integers(0, 2**31)),
                sphere_m=m, deltas=deltas,
                hopf_k=rng.integers(1, 4, 4), hopf_mass=rng.uniform(0.0, 1.5, 4),
                hopf_p=mag * np.exp(1j * ang),
            ))
        return {"rounds": rounds}

    def ops(self, pm, inp):
        ms, spectral, hopf = pm["modelsolve"], pm["spectral"], pm["hopf"]

        def round_(c):
            m = c.sphere_m
            curv = []
            for k, mass, (z1, z2) in zip(c.hopf_k, c.hopf_mass, c.hopf_p):
                # one chart for the whole stencil, chosen at the base point:
                # chart="auto" would switch gauge at |z1| = |z2| inside it
                chart = "+" if abs(z1) >= abs(z2) else "-"
                form = lambda q, k=int(k), mass=float(mass), chart=chart: \
                    hopf.lift_dirac_connection(k, mass, q, chart)
                curv.append(hopf.curvature_richardson(form, hopf.Quat4Point(z1, z2), self.hopf_h))
            return {
                "cyl": ms.cylinder_solve(ms.CylinderProblem(lam=c.lam), self.cyl_mesh),
                "diag": ms.exterior_diagonal_solve(
                    ms.ExteriorModeProblem(ms.Sector.diagonal_invariant(c.diag_mode), c.diag_R, phi=1.0),
                    1e-3 * c.diag_R),
                "coer": ms.exterior_coercive_solve(
                    ms.ExteriorModeProblem(ms.Sector.oscillatory(c.coer_mode), 1.0, f=_bump), self.coer_mesh),
                "poinc": ms.poincare_constant_check(c.poinc_R, c.poinc_delta, self.poinc_trials,
                                                    seed=c.poinc_seed),
                "sphere": spectral.sphere_laplacian_oracle(m, abs(m) + 4, n_phi=self.sphere_n_phi),
                "exc": [spectral.is_exceptional(float(d), m) for d in c.deltas],
                "curv": curv,
            }

        return [lambda c=c: round_(c) for c in inp["rounds"]]

    def check(self, inp, i, out):
        c = inp["rounds"][i]
        problems = []
        cyl = out["cyl"]
        gp = ref.gamma_plus(c.lam)
        # the scheme decays exactly at its discrete rate; the fit may differ
        # from gamma+ by that mesh error, doubled for the fit itself.
        if abs(cyl.decay_rate - gp) > 2.0 * abs(ref.discrete_decay_rate(c.lam, cyl.mesh) - gp) + 1e-9:
            problems.append(f"cylinder decay {cyl.decay_rate} vs gamma+ {gp}")
        diag = out["diag"]
        n = c.diag_mode
        if abs(diag.fitted_power + n) > n * n * (diag.mesh / c.diag_R) ** 2 + 1e-9:
            problems.append(f"exterior power {diag.fitted_power} vs {-n}")
        mu = float(c.coer_mode)
        # log-derivative of sqrt(r) K0(mu r) is -mu + 1/(8 mu r^2) + ...; the
        # fit starts beyond the bump at r = 3.
        if abs(out["coer"].decay_slope + mu) > 1.0 / (4.0 * mu * 9.0):
            problems.append(f"screened decay {out['coer'].decay_slope} vs {-mu}")
        if not out["poinc"].max_ratio <= 1.0:
            problems.append(f"Poincare ratio {out['poinc'].max_ratio} > 1")
        want = ref.sphere_spectrum(c.sphere_m, abs(c.sphere_m) + 4)
        cl = out["sphere"].clusters
        h2 = (math.pi / self.sphere_n_phi) ** 2
        if len(cl) != len(want) or any(
                q.size != mult or abs(q.center - lam) > 10.0 * h2 * max(lam, 0.25)
                for q, (lam, mult) in zip(cl, want)):
            problems.append("sphere oracle clusters differ from the spectrum")
        roots = np.array(ref.indicial_roots(c.sphere_m, abs(c.sphere_m) + 2 * 64))
        for d, q in zip(c.deltas, out["exc"]):
            dist = float(np.abs(roots - d).min())
            if q.is_exceptional != (dist <= 1e-12) or abs(q.distance - dist) > 1e-12:
                problems.append(f"is_exceptional({d}) wrong")
        for mass, F in zip(c.hopf_mass, out["curv"]):
            if ref.self_dual_norm(F) > self.hopf_tol or \
                    np.abs(F - ref.lifted_dirac_curvature(mass)).max() > self.hopf_tol:
                problems.append("lifted curvature not the anti-self-dual reference")
        return not problems, "; ".join(problems)


WORKLOADS = {
    "green_far": GreenBatch(chunk=64, n_chunks=64, trace_ops=24, draw=_draw_far, calibration="scalar_calls"),
    "green_near": GreenBatch(chunk=8, n_chunks=32, trace_ops=12, draw=_draw_near, calibration="mixed"),
    "monopole_fields": MonopoleFields(),
    "model_oracles": ModelOracles(),
}
