"""Inputs and timed phases of the three workloads.

point              closed loop, one client: ``full_report`` on random valid
                   points, no sweep, pool or I/O (the library path).
grid_shared_drift  serial ``run_sweep`` over an r x T grid like fig4a, one
                   quantity, CSV output. The drift matrix is the same at every
                   point; only the diffusion varies.
grid_wide_parallel ``run_sweep`` with 2 workers over a delta_1 x delta_m grid
                   like fig6a, all report columns, JSON write and read-back.
                   Every point has its own drift.

All inputs come from the seed, and no input repeats within a run: every
block of points and every grid is drawn afresh (outside the timed section),
so a cache of results across calls is timed on misses, as real sweeps would
meet it. Package functions are looked up on their modules at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from cavmag import CavmagError, default_params, measures, sweep
from cavmag.measures import REPORT_COLUMNS

import checks
from tracing import Tracer, layer_metrics

WORKLOADS = ("point", "grid_shared_drift", "grid_wide_parallel")

POINT_BLOCK = 2000  # calls evaluated, then checked, per block
POINT_WINDOW = 5  # calls per timing window
# A grid is one timing window, so it must be short enough to fall inside a
# fast spell of the host (below); a larger grid reads the host's load. Over
# ten runs, points_per_s spread by 25 % to 29 % with the presets' 101 x 101
# grids and up to 28 % with a serial 15 x 15 grid; a serial 5 x 5 grid (about
# 20 ms) spread by 3 % over five. The price is per-sweep fixed cost, which
# weighs more than in a figure run: about 1 ms per serial sweep (about 5 % of
# 5 x 5), and for a parallel sweep about 30 ms to start and stop the process
# pool, 11 % of a 15 x 15 sweep but 0.4 % of a 101 x 101 one. The parallel
# grid stays at 15 x 15 so that the pool does not dominate it; its spread
# still reached 32 %, so BENCHMARK.json does not list grid_wide_parallel.
GRID_SHAPES = {"grid_shared_drift": (5, 5), "grid_wide_parallel": (15, 15)}
# A shared host runs at two speeds (same inputs: about 0.75 vs 1.3 ms per call
# on a 2-vCPU x86_64 virtual machine), and the share of a run spent slow
# changes from run to run and from hour to hour. Timing metrics therefore read
# the fastest window, the speed of the code when the host leaves it alone. A
# point window of 5 calls (a few ms) fits in the shortest fast spell: over six
# 20 s runs its minimum spread by 2 % to 5 %, on a mostly fast and on a mostly
# slow host alike, while the run median spread by 6 % to 12 % and moved with
# the host's load.
PARALLEL_WORKERS = 2
ORACLE_SAMPLES = 16  # rows per block or grid checked against the oracle
MIN_REPEATS = 2  # rounds of an untraced run, at least
PROBLEM_EXAMPLES = 5


class Gate:
    """Counts points attempted and failed; keeps a few failure messages.

    Also counts rows below the monogamy floor, which are reported but not
    failed (see checks.py).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []
        self.below_monogamy = 0
        self.worst_r_tau_min = 0.0

    def record(self, problems, where, row=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < PROBLEM_EXAMPLES:
                self.examples.append(f"{where}: {'; '.join(problems)}")
        if row is not None and checks.below_monogamy(row):
            self.below_monogamy += 1
            self.worst_r_tau_min = min(self.worst_r_tau_min, row["r_tau_min"])


# ---------------------------------------------------------------------------
# Inputs

def point_inputs(rng, count=POINT_BLOCK) -> list:
    """Random valid points over the preset ranges (detunings in kappa_c)."""
    base = default_params()
    kc = base.kappa_c
    lo = [-6.0, -6.0, -6.0, 0.0, 0.0, 0.0, 0.2]
    hi = [6.0, 6.0, 6.0, 1.0, 0.5, 2.0, 2.2]
    return [
        base.replace(
            delta_1=d1 * kc, delta_2=d2 * kc, delta_m=dm * kc, r=r, temperature=t,
            gamma_2=g * base.gamma_1, kappa_2=k * base.kappa_1,
        )
        for d1, d2, dm, r, t, g, k in rng.uniform(lo, hi, size=(count, 7))
    ]


def grid_spec(workload: str, rng, shape=None):
    """fig4a- or fig6a-shaped spec with axis windows jittered by ``rng``."""
    shape = shape or GRID_SHAPES[workload]
    if workload == "grid_shared_drift":
        spec = sweep.figure_preset("fig4a")
        windows = [(rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0)),
                   (rng.uniform(0.02, 0.1), rng.uniform(2.5, 3.02))]
        quantities = spec.quantities
    else:
        spec = sweep.figure_preset("fig6a")
        windows = [(-rng.uniform(5.0, 6.0), rng.uniform(5.0, 6.0)) for _ in range(2)]
        quantities = REPORT_COLUMNS
    axes = tuple(
        replace(ax, start=float(a), stop=float(b), count=n)
        for ax, (a, b), n in zip(spec.axes, windows, shape)
    )
    return sweep.SweepSpec(base=spec.base, axes=axes, quantities=quantities,
                           description=spec.description)


# Axis -> (PhysicalParams field, base field it is a multiple of, or None).
# Kept apart from sweep.apply_axis_value so the oracle rebuilds points itself.
_AXIS_FIELDS = {
    "delta_1": ("delta_1", "kappa_1"), "delta_2": ("delta_2", "kappa_1"),
    "delta_m": ("delta_m", "kappa_1"), "r": ("r", None),
    "temperature": ("temperature", None), "gamma_ratio": ("gamma_2", "gamma_1"),
    "kappa_ratio": ("kappa_2", "kappa_1"),
}


def params_at(spec, axis_values):
    p = spec.base
    for ax, value in zip(spec.axes, axis_values):
        field, unit = _AXIS_FIELDS[ax.parameter]
        p = p.replace(**{field: value * getattr(spec.base, unit) if unit else value})
    return p


# ---------------------------------------------------------------------------
# Timed phases

def point_block(params):
    """One closed-loop pass over ``params``: latencies (ns) and reports."""
    clock = time.perf_counter_ns
    latencies = np.empty(len(params))
    reports = []
    for i, p in enumerate(params):
        start = clock()
        try:
            report = measures.full_report(p)
        except CavmagError as exc:
            report = exc
        latencies[i] = clock() - start
        reports.append(report)
    return latencies, reports


def check_point_block(params, reports, gate, rng):
    sampled = set(rng.choice(len(params), ORACLE_SAMPLES, replace=False).tolist())
    for i, (p, report) in enumerate(zip(params, reports)):
        if isinstance(report, CavmagError):
            gate.record([f"{type(report).__name__}: {report}"], f"point {i}")
            continue
        row = report.as_dict()
        problems = checks.row_problems(row)
        if i in sampled:
            problems += checks.oracle_problems(p, row)
        gate.record(problems, f"point {i}", row)


def grid_repeat(workload, spec, workers, out_dir):
    """One timed sweep with its output step; returns (seconds, result, path)."""
    start = time.perf_counter()
    try:
        result = sweep.run_sweep(spec, workers=workers)
    except CavmagError as exc:
        return time.perf_counter() - start, exc, None
    if workload == "grid_shared_drift":
        path = os.path.join(out_dir, "grid.csv")
        sweep.write_csv(result, path)
        read_back = None
    else:
        path = os.path.join(out_dir, "grid.json")
        sweep.write_json(result, path)
        read_back = sweep.read_json(path)
    return time.perf_counter() - start, (result, read_back), path


def check_grid(workload, spec, outcome, path, gate, rng):
    if isinstance(outcome, CavmagError):
        for i in range(spec.size):
            gate.record([f"{type(outcome).__name__}: {outcome}"], f"grid row {i}")
        return
    result, read_back = outcome
    if workload == "grid_shared_drift":
        shared = checks.csv_problems(path, result.columns, spec.size)
    else:
        shared = checks.round_trip_problems(result, read_back)
    n_axes = len(spec.axes)
    sampled = set(rng.choice(spec.size, ORACLE_SAMPLES, replace=False).tolist())
    checked = []  # (problems, named row)
    for i, row in enumerate(result.rows):
        named = dict(zip(result.columns[n_axes:], row[n_axes:]))
        problems = checks.row_problems(named)
        if i in sampled:
            problems += checks.oracle_problems(params_at(spec, row[:n_axes]), named)
        checked.append((problems, named))
    if len(result.rows) != spec.size:
        shared = shared + [f"{len(result.rows)} rows, expected {spec.size}"]
    for i in range(spec.size):
        row_problems, named = checked[i] if i < len(checked) else ([], None)
        gate.record(shared + row_problems, f"grid row {i}", named)


def _until(seconds, min_rounds, *steps):
    """Call ``steps`` in turn until ``seconds`` have passed, each ``min_rounds`` times at least.

    Taking turns spreads slow spells of a shared host over every step, so
    traced and untraced phases compare fairly.
    """
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for step in steps:
            step()
        rounds += 1


def _quantile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _fast(times):
    """Time of the fastest window."""
    return float(np.min(times))


def _windows(blocks):
    """Latencies of whole blocks as rows of POINT_WINDOW calls."""
    return np.concatenate(blocks).reshape(-1, POINT_WINDOW)


def run_point(seed, seconds, trace, gate, out_dir):
    rng = np.random.default_rng(seed)
    blocks = []  # (latencies ns, traced?)
    tracer = Tracer()

    def block(traced):
        params = point_inputs(rng)
        with tracer if traced else nullcontext():
            latencies, reports = point_block(params)
        check_point_block(params, reports, gate, rng)
        blocks.append((latencies, traced))

    if not trace:
        _until(seconds, MIN_REPEATS, lambda: block(False))
        windows = _windows([b for b, _ in blocks])
        return {
            "points_per_s": POINT_WINDOW / _fast(windows.sum(axis=1)) * 1e9,
            "point_p50_us": _fast(np.median(windows, axis=1)) / 1e3,
        }, [f"{windows.size} calls in {len(windows)} windows of {POINT_WINDOW}",
            f"point_p99_us = {_quantile(windows, 99) / 1e3:.6g} us (not gated)"]

    _until(seconds, 1, lambda: block(False), lambda: block(True))
    untraced = _windows([b for b, traced in blocks if not traced])
    plain = _fast(untraced.mean(axis=1))
    traced = _fast(_windows([b for b, traced in blocks if traced]).mean(axis=1))
    layers = layer_metrics(tracer)
    layers["point_p99_us"] = _quantile(untraced, 99) / 1e3
    layers["sweep.bytes_written"] = 0.0
    layers["sweep.parallel_speedup"] = 0.0
    layers["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    tracer.write(os.path.join(out_dir, f"trace-point-{seed}.json"))
    return layers, [f"{sum(len(b) for b, t in blocks if t)} traced calls"]


def run_grid(workload, seed, seconds, trace, gate, out_dir):
    rng = np.random.default_rng(seed)
    size = math.prod(GRID_SHAPES[workload])
    walls = {}  # (workers, traced) -> [seconds per repeat]
    sizes = []
    tracer = Tracer()
    own_workers = 1 if workload == "grid_shared_drift" else PARALLEL_WORKERS
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:

        def repeat(workers, traced):
            spec = grid_spec(workload, rng)
            with tracer if traced else nullcontext():
                wall, outcome, path = grid_repeat(workload, spec, workers, tmp)
            if path is not None:
                sizes.append(os.path.getsize(path))
            check_grid(workload, spec, outcome, path, gate, rng)
            walls.setdefault((workers, traced), []).append(wall)

        if not trace:
            _until(seconds, MIN_REPEATS, lambda: repeat(own_workers, False))
            per_point = np.asarray(walls[(own_workers, False)]) / size
            return {
                "points_per_s": 1.0 / _fast(per_point),
                "point_p50_us": _fast(per_point) * 1e6,
            }, [f"{len(per_point)} grids of {size} points, workers={own_workers}",
                f"point_p99_us = {_quantile(per_point, 99) * 1e6:.6g} us (not gated)"]

        # Each sweep has its own windows: the speed-up compares grids of one
        # shape, not one grid twice.
        _until(seconds, 1, lambda: repeat(1, False), lambda: repeat(PARALLEL_WORKERS, False),
               lambda: repeat(1, True))
    serial = _fast(walls[(1, False)])
    layers = layer_metrics(tracer)
    layers["sweep.bytes_written"] = float(np.median(sizes))
    layers["sweep.parallel_speedup"] = serial / _fast(walls[(PARALLEL_WORKERS, False)])
    layers["trace.overhead_pct"] = 100.0 * (_fast(walls[(1, True)]) - serial) / serial
    layers["point_p99_us"] = _quantile(walls[(own_workers, False)], 99) / size * 1e6
    tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.json"))
    return layers, [f"{len(walls[(1, True)])} traced serial grids of {size} points"]


def run(workload, seed, seconds, trace, gate, out_dir):
    if workload == "point":
        return run_point(seed, seconds, trace, gate, out_dir)
    return run_grid(workload, seed, seconds, trace, gate, out_dir)


def warm_up(workload, seed):
    """One small evaluation and the first timed call's inputs, as a run needs them.

    The evaluation draws from a stream of its own, so the timed phase repeats
    no input; the first inputs are drawn as the timed phase draws them, and
    dropped (the set-up probes time this function).
    """
    rng = np.random.default_rng((seed, 1))
    if workload == "point":
        for p in point_inputs(rng, 20):
            measures.full_report(p)
        point_inputs(np.random.default_rng(seed))
    else:
        sweep.run_sweep(grid_spec(workload, rng, shape=(3, 3)), workers=1)
        grid_spec(workload, np.random.default_rng(seed))
