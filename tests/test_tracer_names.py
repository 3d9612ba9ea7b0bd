"""The benchmark tracer wraps permono functions by module attribute and binds
their arguments by name, so a deleted or renamed function, or a renamed
argument or result field that a counter reads, breaks every traced benchmark
run. These tests catch that in the tier-1 run. ``benchmarks/tracing.py`` is
only read, never imported from its directory, so no bytecode is written
there."""

import importlib
import inspect
import re
import types
from collections import Counter, defaultdict
from pathlib import Path

from permono import green
from permono import modelsolve as ms

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def functions_of(fn):
    """fn and the functions in its closure (the lambdas of counter factories)."""
    yield fn
    for cell in fn.__closure__ or ():
        if inspect.isfunction(cell.cell_contents):
            yield from functions_of(cell.cell_contents)


def argument_names_read(count):
    """Names a counter reads from the bound arguments: string subscripts of
    one of its parameters, e.g. args["tol"], or a["n_grid"] in a lambda."""
    names = set()
    for fn in functions_of(count):
        params = inspect.signature(fn).parameters
        for var, key in re.findall(r"\b(\w+)\[\s*[\"'](\w+)[\"']\s*\]", inspect.getsource(fn)):
            if var in params:
                names.add(key)
    return names


def test_every_wrapped_name_resolves_and_binds_what_its_counter_reads():
    instruments = load_tracing()._INSTRUMENTS
    assert instruments
    read = set()
    for mod_name, attr, _name, count in instruments:
        module = importlib.import_module("permono." + mod_name)
        assert hasattr(module, attr), f"tracer wraps missing permono.{mod_name}.{attr}"
        if count is None:
            continue
        names = argument_names_read(count)
        params = inspect.signature(getattr(module, attr)).parameters
        missing = names - set(params)
        assert not missing, f"permono.{mod_name}.{attr} lacks parameters {missing}"
        read |= names
    # the scan sees the arguments the counters are known to read
    assert {"x", "tol", "box", "h", "n_grid"} <= read


def reads_result(count):
    """Whether a counter reads a field of its function's result: an attribute
    of its last parameter (out in count(tr, args, out), o in lambda a, o)."""
    for fn in functions_of(count):
        last = list(inspect.signature(fn).parameters)[-1]
        if re.search(rf"\b{last}\.\w", inspect.getsource(fn)):
            return True
    return False


NEAR, FAR = green.CirclePoint3(0.05 + 0.02j, 0.03), green.CirclePoint3(2.0 + 0.5j, 1.0)
# (module, attr) -> (args, kwargs) of one cheap real call
SAMPLE_CALLS = {
    ("green", "green_eval"): ((FAR,), {"tol": 1e-10}),
    ("green", "green_image_sum"): ((NEAR,), {}),
    ("green", "green_fourier_bessel"): ((FAR,), {}),
    ("green", "green_multipole"): ((NEAR,), {}),
    ("modelsolve", "cylinder_solve"): ((ms.CylinderProblem(lam=1.0), 2e-3), {}),
    ("modelsolve", "exterior_diagonal_solve"): (
        (ms.ExteriorModeProblem(ms.Sector.diagonal_invariant(1), 1.0, phi=1.0), 1e-3), {}),
    ("modelsolve", "exterior_coercive_solve"): (
        (ms.ExteriorModeProblem(ms.Sector.oscillatory(1), 1.0, f=lambda r: 0.0 * r), 2e-3), {}),
    ("modelsolve", "poincare_constant_check"): ((1.0, 0.3, 2), {"seed": 1}),
    ("spectral", "sphere_laplacian_oracle"): ((0, 4), {}),
}


def test_counters_that_read_results_run_on_real_outputs():
    instruments = load_tracing()._INSTRUMENTS
    covered = set()
    for mod_name, attr, _name, count in instruments:
        if count is None or not reads_result(count):
            continue
        assert (mod_name, attr) in SAMPLE_CALLS, f"no sample call of permono.{mod_name}.{attr}"
        args, kwargs = SAMPLE_CALLS[mod_name, attr]
        fn = getattr(importlib.import_module("permono." + mod_name), attr)
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        tr = types.SimpleNamespace(counts=Counter(), samples=defaultdict(list))
        count(tr, bound.arguments, fn(*args, **kwargs))
        assert tr.counts and all(v > 0 for v in tr.counts.values()), (attr, tr.counts)
        covered.add(count.__qualname__.split(".")[0])
    assert set(SAMPLE_CALLS) == {(m, a) for m, a, _n, c in instruments if c is not None and reads_result(c)}
    assert {"_count_green_eval", "_count_regime", "_count_unknowns", "_count_eigenvalues"} <= covered
