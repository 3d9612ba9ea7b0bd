"""Self-tests of the benchmark itself. Run from the root of the source tree:

    python3 benchmarks/selftest.py

1. The same seed gives byte-identical inputs, and another seed other inputs.
2. The same seed gives exactly equal count metrics in the traced run.
3. A deliberately corrupted output is counted as failed (ok_fraction < 1).
4. The two Green's function references agree where both apply.
5. The metric and workload names are the ones BENCHMARK.json declares.
Exits 0 when all pass.
"""

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_DIR = ROOT / ".bench_trace"


def digest(obj, h=None):
    """Hash of the bytes of an input structure."""
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(k.encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            digest(x, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


def test_inputs_deterministic():
    for name, wl in WORKLOADS.items():
        a, b, c = digest(wl.inputs(7)), digest(wl.inputs(7)), digest(wl.inputs(8))
        assert a == b, f"{name}: seed 7 gave different inputs"
        assert a != c, f"{name}: seeds 7 and 8 gave the same inputs"


def test_counts_deterministic():
    for name in WORKLOADS:
        runs = [harness.traced(name, 3, TRACE_DIR)[2] for _ in range(2)]
        counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in runs]
        assert counts[0] == counts[1], f"{name}: counts differ between equal seeds"


class _Corrupted:
    """A workload whose ops return a corrupted output; checks stay the same."""

    def __init__(self, wl, corrupt):
        self._wl = wl
        self._corrupt = corrupt

    def __getattr__(self, attr):
        return getattr(self._wl, attr)

    def ops(self, pm, inp):
        return [lambda op=op: self._corrupt(op()) for op in self._wl.ops(pm, inp)]


def _shift_first_value(evals):
    evals[0].value += 1e-9
    return evals


def _shift_winding(frame):
    frame["winding"] += 1
    return frame


def test_corruption_counted():
    for name, corrupt in (("green_far", _shift_first_value), ("monopole_fields", _shift_winding)):
        saved = WORKLOADS[name]
        WORKLOADS[name] = _Corrupted(saved, corrupt)
        try:
            attempted, failed, metrics, _ = harness.end_to_end(name, 5, 1.0)
        finally:
            WORKLOADS[name] = saved
        assert failed == attempted > 0, f"{name}: {failed} of {attempted} corrupted ops counted"
        assert metrics["ok_fraction"][0] == 0.0


def test_references_agree():
    rng = np.random.default_rng(11)
    r = rng.uniform(0.7, 2.5, 400)
    th = rng.uniform(0.0, 2.0 * np.pi, 400)
    dt = rng.uniform(-np.pi, np.pi, 400)
    keep = np.hypot(r, dt) < ref.RHO_LZ
    x, y, dt = r[keep] * np.cos(th[keep]), r[keep] * np.sin(th[keep]), dt[keep]
    v1, g1, e1, ge1 = ref.green_lz(x, y, dt)
    v2, g2, e2, ge2 = ref.green_fb(x, y, dt)
    assert np.all(np.abs(v1 - v2) <= e1 + e2)
    assert np.all(np.abs(g1 - g2) <= ge1 + ge2)


def test_metric_names_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, _, e2e, _ = harness.end_to_end("model_oracles", 1, 0.2)
    _, _, layer, _ = harness.traced("model_oracles", 1, TRACE_DIR)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    for declared, printed in ((spec["end_to_end"], e2e), (spec["per_layer"], layer)):
        assert all(printed[m["name"]][1] == m["unit"] for m in declared)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok    {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
