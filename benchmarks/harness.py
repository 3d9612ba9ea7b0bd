"""Set-up, timed loop, traced pass and correctness gate of one benchmark run.

The end-to-end run (trace 0) sets the workload up SETUP_REPS times and
reports the median, then runs its ops in a closed loop, one at a time in
this single-threaded process, cycling over the seeded op list for the given
number of seconds. The traced run (trace 1) runs a fixed prefix of the op
list once untraced and once traced, so its counts depend only on the seed.
Outputs are checked against the references after the timed section.

End-to-end times are reported at a reference host speed: every time is
multiplied by (reference time / measured time) of a fixed calibration
kernel, run in short blocks between ops of the same process and taken
within a second of the time it scales. On a shared host whose speed drifts
by tens of percent in phases of seconds to minutes, this cancels most of
the drift; the raw times are kept in the detail line.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (dependencies load before set-up is timed)
import scipy.special  # noqa: F401

from tracing import Tracer
from workloads import WORKLOADS

SETUP_REPS = 9
#: a calibration block runs after the first op that ends this long after the
#: previous block; a time is scaled by the blocks within CAL_WINDOW_S of it
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 0.4
#: the tail latency is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10

_CAL_SMALL = np.arange(16.0)
_CAL_BIG = np.linspace(1.0, 2.0, 20_000)  # 160 kB: stays in cache across the block


def _mixed_kernel():
    """Scalar Python, small numpy calls and array arithmetic."""
    s = 0.0
    for i in range(1, 501):
        s += math.sqrt(i)
    for _ in range(40):
        s += float(np.sum(np.cos(_CAL_SMALL)))
    for _ in range(10):
        s += float(np.sum(np.sqrt(_CAL_BIG) / _CAL_BIG))
    return s


def _scalar_through_arrays(x_in):
    x = np.atleast_1d(np.asarray(x_in, dtype=float))
    if np.any(x <= 0.0) or np.any(~np.isfinite(x)):
        raise ValueError("x must be finite and positive")
    out = np.empty_like(x)
    small = x < 2.0
    if np.any(small):
        out[small] = np.log(x[small])
    if np.any(~small):
        out[~small] = np.exp(-x[~small]) / np.sqrt(x[~small])
    return float(out[0])


def _scalar_calls_kernel():
    """Scalar evaluations routed through small numpy arrays, call by call."""
    return sum(_scalar_through_arrays(0.1 * i) for i in range(1, 31))


#: calibration kernels and the time each takes at the reference host speed
#: (about its median on the 2-core development host). Each workload names
#: the kernel whose speed follows its own ops through the host's slow and
#: fast phases: green_far is dominated by scalar calls through small numpy
#: arrays, the other workloads by a mix.
KERNELS = {"mixed": (_mixed_kernel, 0.8e-3), "scalar_calls": (_scalar_calls_kernel, 0.6e-3)}


def calibration_block(kernel):
    """Median time of three back-to-back kernel runs; the first one also
    refills the caches the preceding op used."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_permono(names):
    """Import permono afresh: drop it from sys.modules, import the package and
    the named modules (and whatever they import)."""
    for key in [k for k in sys.modules if k == "permono" or k.startswith("permono.")]:
        del sys.modules[key]
    importlib.import_module("permono")
    return {n: importlib.import_module("permono." + n) for n in names}


def set_up(wl, seed):
    """import permono + build the inputs + first op; returns its wall time."""
    start = time.perf_counter()
    pm = import_permono(wl.modules)
    inp = wl.inputs(seed)
    ops = wl.ops(pm, inp)
    ops[0]()
    return time.perf_counter() - start, inp, ops


def run_op(op):
    """(output, raised): an op that raises yields the exception as output."""
    try:
        return op(), False
    except Exception as exc:  # a failing op is counted, the run goes on
        return exc, True


def gate(wl, inp, outputs):
    """Check each op's output; outputs maps op index -> (output, raised,
    executions). Returns (failed executions, notes).

    Ops are deterministic, so a wrong output is wrong in every execution of
    that op and counts once per execution."""
    failed, notes = 0, []
    for k, (out, raised, runs) in sorted(outputs.items()):
        if raised:
            failed += runs
            notes.append(f"op {k} raised {type(out).__name__}: {out}")
            continue
        try:
            ok, why = wl.check(inp, k, out)
        except Exception as exc:  # a malformed output fails its check
            ok, why = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            failed += runs
            notes.append(f"op {k}: {why}")
    return failed, notes


def tail(lat_ms):
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it."""
    s = sorted(float(x) for x in lat_ms)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment(thread_vars):
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


def local_scale(ref_s, block_t, block_s, t):
    """ref_s / (median calibration time of the blocks within CAL_WINDOW_S of
    each time in t, or of the nearest block if none is that close)."""
    block_t = np.asarray(block_t, float)
    block_s = np.asarray(block_s, float)
    t = np.asarray(t, float)
    lo = np.searchsorted(block_t, t - CAL_WINDOW_S)
    hi = np.searchsorted(block_t, t + CAL_WINDOW_S, side="right")
    nearest = np.abs(block_t[:, None] - t[None, :]).argmin(axis=0)
    med = [np.median(block_s[a:b]) if b > a else block_s[n] for a, b, n in zip(lo, hi, nearest)]
    return ref_s / np.array(med)


def measure(wl, seed, seconds):
    """The set-ups and the timed loop, with calibration blocks in between.
    Returns the raw record: times are perf_counter seconds."""
    kernel, _ = KERNELS[wl.calibration]
    rec = {"setup_s": [], "setup_t": [], "lat_s": [], "end_t": [], "block_s": [], "block_t": [],
           "first": {}, "runs": Counter()}

    def calibrate():
        rec["block_s"].append(calibration_block(kernel))
        rec["block_t"].append(time.perf_counter())

    for _ in range(SETUP_REPS):
        dt, inp, ops = set_up(wl, seed)
        rec["setup_s"].append(dt)
        rec["setup_t"].append(time.perf_counter())
        calibrate()

    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k = i % len(ops)
        t0 = time.perf_counter()
        out, raised = run_op(ops[k])
        t1 = time.perf_counter()
        rec["lat_s"].append(t1 - t0)
        rec["end_t"].append(t1)
        rec["runs"][k] += 1
        if k not in rec["first"] or raised:
            rec["first"][k] = (out, raised)
        i += 1
        if t1 >= deadline:
            break
        if t1 - rec["block_t"][-1] >= CAL_EVERY_S:
            calibrate()
    calibrate()
    rec["inp"], rec["distinct_ops"] = inp, len(ops)
    return rec


def end_to_end(name, seed, seconds):
    wl = WORKLOADS[name]
    _, ref_s = KERNELS[wl.calibration]
    rec = measure(wl, seed, seconds)
    inp, first, runs = rec["inp"], rec["first"], rec["runs"]
    block_t, block_s, setup_s = rec["block_t"], rec["block_s"], rec["setup_s"]

    failed, notes = gate(wl, inp, {k: (o, r, runs[k]) for k, (o, r) in first.items()})
    lat = np.array(rec["lat_s"])
    attempted = lat.size
    # every time is scaled by the host speed measured around it
    norm = lat * local_scale(ref_s, block_t, block_s, rec["end_t"])
    norm_setup = np.array(setup_s) * local_scale(ref_s, block_t, block_s, rec["setup_t"])
    tail_ms, pct, beyond = tail(1e3 * norm)
    # ops run back to back, so their summed time (without the calibration
    # blocks) is the time the loop took to complete them
    metrics = {
        "ops_per_s": (attempted / float(norm.sum()), "op/s"),
        "op_p50_ms": (1e3 * float(np.median(norm)), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (float(np.median(norm_setup)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_fraction": ((attempted - failed) / attempted, "fraction"),
    }
    detail = {
        "raw": {"ops_per_s": attempted / float(lat.sum()), "op_p50_ms": 1e3 * float(np.median(lat)),
                "op_tail_ms": tail(1e3 * lat)[0], "setup_s": statistics.median(setup_s)},
        "calibration": {"kernel": wl.calibration, "ref_s": ref_s, "blocks": len(block_s),
                        "median_s": statistics.median(block_s)},
        "op_tail": {"percentile": pct, "samples_beyond": beyond, "samples": attempted},
        "setup_reps_s": setup_s,
        "distinct_ops": rec["distinct_ops"],
        "failures": notes[:20],
    }
    return attempted, failed, metrics, detail


def traced(name, seed, trace_dir):
    wl = WORKLOADS[name]
    _, inp, ops = set_up(wl, seed)
    subset = ops[:wl.trace_ops]

    start = time.perf_counter()
    plain = [run_op(op) for op in subset]
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with_spans = [run_op(lambda op=op: tracer.call("op", op)) for op in subset]
        traced_s = time.perf_counter() - start
    finally:
        tracer.restore()

    failed = 0
    notes = []
    for outs in (plain, with_spans):
        f, n = gate(wl, inp, {k: (o, r, 1) for k, (o, r) in enumerate(outs)})
        failed += f
        notes += n
    metrics = tracer.per_layer(traced_s - plain_s)
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{name}-seed{seed}.json"
    tracer.dump(path, metrics)
    detail = {"traced_ops": len(subset), "untraced_s": plain_s, "traced_s": traced_s,
              "spans": len(tracer.spans), "trace_file": str(path), "failures": notes[:20]}
    return 2 * len(subset), failed, metrics, detail


def main(args, root, thread_vars):
    if args.trace:
        attempted, failed, metrics, detail = traced(args.workload, args.seed, Path(root) / ".bench_trace")
    else:
        attempted, failed, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, env=environment(thread_vars))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
