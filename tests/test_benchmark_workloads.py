"""The first op of each benchmark workload at seed 1, against the workload's
own check. The workloads read permono names (point fields, constructors,
solvers) that the other tests need not call, so a change that drops one
fails here and not only in a benchmark run. The benchmark modules are
compiled from their source, as in ``test_tracer_names.py``, so no bytecode is
written under ``benchmarks/``, and ``sys.modules`` is restored afterwards."""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
NAMES = ("green_far", "green_near", "monopole_fields", "model_oracles")


def load(name):
    """The module benchmarks/<name>.py, entered in sys.modules (workloads.py
    imports reference, and its dataclasses look their module up there)."""
    path = BENCH / f"{name}.py"
    module = sys.modules[name] = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    saved = {name: sys.modules.get(name) for name in ("reference", "workloads")}
    try:
        load("reference")
        yield load("workloads").WORKLOADS
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def test_every_workload_is_smoke_tested(workloads):
    assert set(workloads) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_first_op_passes_the_workload_check(workloads, name):
    wl = workloads[name]
    pm = {n: importlib.import_module("permono." + n) for n in wl.modules}
    inp = wl.inputs(1)
    ok, note = wl.check(inp, 0, wl.ops(pm, inp)[0]())
    assert ok, note
