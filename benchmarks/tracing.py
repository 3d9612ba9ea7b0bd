"""Spans and counters for the traced run, recorded from outside the program.

Tracer.install replaces public functions of the loaded permono modules with
wrappers, as module attributes. Calls between modules go through those
attributes (abelian -> green.green_eval, green.green_eval -> the regime
functions as module globals, green -> specfn.bessel_k0/k1), so nested calls
become nested spans. Spans (id, parent id, name, start ns, end ns) and
counters stay in memory; `per_layer` derives self time per layer from the
parent ids, and `dump` writes everything out at the end of the run.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._stack = [0]
        self._next_id = 1
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name, child of the innermost open span."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def _wrap(self, module, attr, name, count):
        fn = getattr(module, attr)
        bind = inspect.signature(fn).bind

        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                bound = bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, out)
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap every instrumented function of the permono modules loaded."""
        for mod_name, attr, name, count in _INSTRUMENTS:
            module = sys.modules.get("permono." + mod_name)
            if module is not None:
                self._wrap(module, attr, name, count)

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_seconds(self):
        """Self time per span name: duration minus the time of its children."""
        child_ns = Counter()
        for _sid, parent, _name, start, end in self.spans:
            child_ns[parent] += end - start
        out = Counter()
        for sid, _parent, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) / 1e9
        return out

    def total_seconds(self):
        """Summed duration per span name, children included."""
        out = Counter()
        for _sid, _parent, name, start, end in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def per_layer(self, overhead_s):
        """Every per-layer metric, as {name: (value, unit)}."""
        c = self.counts
        own = self.self_seconds()
        total = self.total_seconds()
        layer_s = Counter()
        for name, s in own.items():
            layer_s[name.split(".")[0]] += s
        m = {}
        m["specfn.calls"] = (c["specfn.calls"], "count")
        m["specfn.elements"] = (c["specfn.elements"], "count")
        m["specfn.self_s"] = (layer_s["specfn"], "s")
        m["specfn.ns_per_element"] = (
            1e9 * layer_s["specfn"] / c["specfn.elements"] if c["specfn.elements"] else 0.0, "ns")
        m["green.evals"] = (c["green.evals"], "count")
        m["green.self_s"] = (layer_s["green"], "s")
        m["green.terms_per_eval"] = (c["green.terms"] / c["green.evals"] if c["green.evals"] else 0.0, "count")
        ratios = self.samples["green.bound_over_tol"]
        m["green.bound_over_tol"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
        # G time including the kernel calls under it; green_eval never nests
        m["green.green_eval.total_s"] = (total["green.green_eval"], "s")
        for regime in ("image_sum", "fourier_bessel"):
            m[f"green.{regime}.calls"] = (c[f"green.{regime}.calls"], "count")
            m[f"green.{regime}.terms"] = (c[f"green.{regime}.terms"], "count")
            m[f"green.{regime}.self_s"] = (own[f"green.{regime}"], "s")
        m["green.multipole.calls"] = (c["green.multipole.calls"], "count")
        m["green.fourier_terms_for.self_s"] = (own["green.fourier_terms_for"], "s")
        for fn in ("higgs", "higgs_gradient", "holonomy", "winding_number", "bogomolny_residual"):
            m[f"abelian.{fn}.calls"] = (c[f"abelian.{fn}.calls"], "count")
            m[f"abelian.{fn}.self_s"] = (own[f"abelian.{fn}"], "s")
        m["abelian.bogomolny_residual.nodes"] = (c["abelian.bogomolny_residual.nodes"], "count")
        m["abelian.bogomolny_residual.total_s"] = (total["abelian.bogomolny_residual"], "s")
        for fn in ("cylinder_solve", "exterior_diagonal_solve", "exterior_coercive_solve",
                   "poincare_constant_check"):
            m[f"modelsolve.{fn}.self_s"] = (own[f"modelsolve.{fn}"], "s")
            m[f"modelsolve.{fn}.unknowns"] = (c[f"modelsolve.{fn}.unknowns"], "count")
        m["spectral.sphere_laplacian_oracle.self_s"] = (own["spectral.sphere_laplacian_oracle"], "s")
        m["spectral.sphere_laplacian_oracle.eigenvalues"] = (
            c["spectral.sphere_laplacian_oracle.eigenvalues"], "count")
        m["hopf.curvature_richardson.self_s"] = (own["hopf.curvature_richardson"], "s")
        m["hopf.lift_dirac_connection.calls"] = (c["hopf.lift_dirac_connection.calls"], "count")
        for layer in ("abelian", "modelsolve", "spectral", "hopf"):
            m[f"{layer}.self_s"] = (layer_s[layer], "s")
        m["trace.overhead_s"] = (overhead_s, "s")
        return m

    def dump(self, path, metrics):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "metrics": {k: v for k, (v, _u) in metrics.items()}}, fh)


# --- counters, called with the bound arguments (defaults applied) and result


def _count_specfn(tr, args, out):
    tr.counts["specfn.calls"] += 1
    tr.counts["specfn.elements"] += int(np.size(args["x"]))


def _count_green_eval(tr, args, out):
    tr.counts["green.evals"] += 1
    tr.counts["green.terms"] += out.terms
    tr.samples["green.bound_over_tol"].append(out.trunc_bound / args["tol"])


def _count_regime(regime, with_terms):
    def count(tr, args, out):
        tr.counts[f"green.{regime}.calls"] += 1
        if with_terms:
            tr.counts[f"green.{regime}.terms"] += out.terms
    return count


def _count_calls(key):
    def count(tr, args, out):
        tr.counts[key] += 1
    return count


def _count_bogomolny(tr, args, out):
    tr.counts["abelian.bogomolny_residual.calls"] += 1
    h = args["h"]
    nodes = 1
    for lo, hi in args["box"]:
        nodes *= np.arange(lo, hi + 0.5 * h, h).size
    tr.counts["abelian.bogomolny_residual.nodes"] += nodes


def _count_unknowns(fn, size):
    def count(tr, args, out):
        tr.counts[f"modelsolve.{fn}.unknowns"] += size(args, out)
    return count


def _count_eigenvalues(tr, args, out):
    tr.counts["spectral.sphere_laplacian_oracle.eigenvalues"] += out.eigenvalues.size


_INSTRUMENTS = [
    ("specfn", "bessel_k0", "specfn.bessel_k0", _count_specfn),
    ("specfn", "bessel_k1", "specfn.bessel_k1", _count_specfn),
    ("green", "evaluate_batch", "green.evaluate_batch", None),
    ("green", "green_eval", "green.green_eval", _count_green_eval),
    ("green", "green_image_sum", "green.image_sum", _count_regime("image_sum", True)),
    ("green", "green_fourier_bessel", "green.fourier_bessel", _count_regime("fourier_bessel", True)),
    ("green", "green_multipole", "green.multipole", _count_regime("multipole", False)),
    ("green", "fourier_terms_for", "green.fourier_terms_for", None),
    ("abelian", "higgs", "abelian.higgs", _count_calls("abelian.higgs.calls")),
    ("abelian", "higgs_gradient", "abelian.higgs_gradient", _count_calls("abelian.higgs_gradient.calls")),
    ("abelian", "holonomy", "abelian.holonomy", _count_calls("abelian.holonomy.calls")),
    ("abelian", "winding_number", "abelian.winding_number", _count_calls("abelian.winding_number.calls")),
    ("abelian", "bogomolny_residual", "abelian.bogomolny_residual", _count_bogomolny),
    # unknowns: interior nodes of the banded solve; quadrature nodes x trials
    # for the Poincare check.
    ("modelsolve", "cylinder_solve", "modelsolve.cylinder_solve",
     _count_unknowns("cylinder_solve", lambda a, o: o.tau.size - 1)),
    ("modelsolve", "exterior_diagonal_solve", "modelsolve.exterior_diagonal_solve",
     _count_unknowns("exterior_diagonal_solve", lambda a, o: o.r.size - 1)),
    ("modelsolve", "exterior_coercive_solve", "modelsolve.exterior_coercive_solve",
     _count_unknowns("exterior_coercive_solve", lambda a, o: o.r.size - 1)),
    ("modelsolve", "poincare_constant_check", "modelsolve.poincare_constant_check",
     _count_unknowns("poincare_constant_check", lambda a, o: a["n_grid"] * o.n_trials)),
    ("spectral", "sphere_laplacian_oracle", "spectral.sphere_laplacian_oracle", _count_eigenvalues),
    ("spectral", "is_exceptional", "spectral.is_exceptional", None),
    ("hopf", "curvature_richardson", "hopf.curvature_richardson", None),
    ("hopf", "lift_dirac_connection", "hopf.lift_dirac_connection",
     _count_calls("hopf.lift_dirac_connection.calls")),
]
