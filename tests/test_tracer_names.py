"""The benchmark tracer wraps permono functions by module attribute and binds
their arguments by name, so a deleted or renamed function, or a renamed
argument that a counter reads, breaks every traced benchmark run. These tests
catch that in the tier-1 run. ``benchmarks/tracing.py`` is only read, never
imported from its directory, so no bytecode is written there."""

import importlib
import inspect
import re
import types
from pathlib import Path

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
