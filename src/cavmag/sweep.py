"""Parameter-sweep engine, named figure presets and grid serialization.

A sweep evaluates the full correlation report over a 1-D or 2-D grid of one
physical axis each. Grid points are independent pure computations, so they
may be evaluated in parallel; rows are always assembled in row-major index
order (first axis outermost), which makes the output deterministic and
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
import os
import tempfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model, steady_state
from .errors import CavmagError, DomainError, ValidationError
from .measures import REPORT_COLUMNS, full_report
from .model import PhysicalParams, default_params, finite_float

# Each axis parameter: the PhysicalParams field it sets, and the base field
# its grid value multiplies (None for a plain value). Detunings are given in
# multiples of kappa_c (= kappa_1 of the base configuration); the ratio axes
# vary the second cavity against a fixed first one.
AXES = {
    "delta_1": ("delta_1", "kappa_1"),
    "delta_2": ("delta_2", "kappa_1"),
    "delta_m": ("delta_m", "kappa_1"),
    "r": ("r", None),
    "temperature": ("temperature", None),
    "gamma_ratio": ("gamma_2", "gamma_1"),
    "kappa_ratio": ("kappa_2", "kappa_1"),
}

DEFAULT_COUNT_1D = 401
DEFAULT_COUNT_2D = 101

# the keys of asdict(SweepSpec), which spec_from_dict alone accepts
_SPEC_KEYS = ("base", "axes", "quantities", "description")


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: linspace(start, stop, count)."""

    parameter: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Base configuration, one or two axes, and the quantities to report."""

    base: PhysicalParams
    axes: tuple
    quantities: tuple
    description: str = ""

    def __post_init__(self):
        # tuple() would split a string into one unknown quantity per letter
        string = self.quantities if isinstance(self.quantities, str) else None
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "quantities", tuple(self.quantities) if string is None else ())
        problems = []
        if not 1 <= len(self.axes) <= 2:
            problems.append(f"axes: expected 1 or 2 axes, got {len(self.axes)}")
        for index, ax in enumerate(self.axes):
            bad = []
            # isinstance first: an unhashable parameter cannot be looked up
            if not isinstance(ax.parameter, str) or ax.parameter not in AXES:
                bad.append(f"axes.parameter: {ax.parameter!r} not one of {sorted(AXES)}")
            if isinstance(ax.count, bool) or not isinstance(ax.count, numbers.Integral):
                bad.append(f"axes.count: must be an integer, got {ax.count!r}")
            elif not ax.count >= 2:
                bad.append(f"axes.count: must be >= 2, got {ax.count}")
            bounds = [
                f"axes.{name}: must be a finite number, got {b!r}"
                for name, b in (("start", ax.start), ("stop", ax.stop))
                if finite_float(b) is None
            ]
            bad += bounds
            if not bounds and not ax.start < ax.stop:
                bad.append(f"axes.range: start {ax.start} must be < stop {ax.stop}")
            elif not bounds and not math.isfinite(finite_float(ax.stop) - finite_float(ax.start)):
                # linspace would step by inf and give nan grid values
                bad.append(f"axes.range: stop {ax.stop} - start {ax.start} must be a finite number")
            problems += [f"{problem} (axis {index}, {ax.parameter})" for problem in bad]
        names = [ax.parameter for ax in self.axes]
        if any(name in names[:i] for i, name in enumerate(names)):
            problems.append(f"axes: parameters must be distinct, got {names}")
        for q in self.quantities:
            if q not in REPORT_COLUMNS:
                problems.append(f"quantities: unknown quantity {q!r}")
        # a containment test, since an unknown quantity need not be hashable
        if any(q in self.quantities[:i] for i, q in enumerate(self.quantities)):
            problems.append(f"quantities: names must be distinct, got {list(self.quantities)}")
        if string is not None:
            problems.append(f"quantities: expected a list of column names, got the string {string!r}")
        elif not self.quantities:
            problems.append("quantities: at least one quantity is required")
        if problems:
            raise ValidationError("invalid sweep spec: " + "; ".join(problems))
        # a numpy integer count would reach json.dumps in write_json
        object.__setattr__(self, "axes", tuple(replace(a, count=int(a.count)) for a in self.axes))

    @property
    def shape(self) -> tuple:
        return tuple(ax.count for ax in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def columns(self) -> tuple:
        return tuple(ax.parameter for ax in self.axes) + self.quantities + ("stable",)


@dataclass(frozen=True)
class SweepResult:
    """Row-major grid of axis values, requested quantities and stability."""

    spec: SweepSpec
    rows: list

    @property
    def columns(self) -> tuple:
        return self.spec.columns

    def column(self, name: str) -> np.ndarray:
        """One column as a float array (stable flag as 0/1)."""
        if name not in self.columns:
            raise ValidationError(f"unknown column {name!r}; valid columns: {', '.join(self.columns)}")
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows], dtype=float)

    def grid(self, name: str) -> np.ndarray:
        """One column reshaped to the sweep's grid shape."""
        return self.column(name).reshape(self.spec.shape)


def apply_axis_value(base: PhysicalParams, parameter: str, value: float) -> PhysicalParams:
    """Base parameters with one axis coordinate applied (axis units resolved)."""
    # isinstance first: an unhashable parameter cannot be looked up
    if not isinstance(parameter, str) or parameter not in AXES:
        raise ValidationError(f"unknown axis parameter {parameter!r}")
    field, scale = AXES[parameter]
    return base.replace(**{field: value if scale is None else value * getattr(base, scale)})


def _evaluate_range(args) -> list:
    """The rows of one chunk: its grid points, each a tuple of axis values,
    the first at flat index start, evaluated by one full_report call.

    A CavmagError names the first failing point in row-major order: the one
    whose parameters or stability-map spectrum were being built, or the one
    that full_report's error holds, once the points before it have passed.
    """
    spec, points, start = args
    stability_map = spec.quantities == ("lambda_max",)
    params, stabs, error = [], [], None
    try:
        for point in points:
            p = spec.base
            for ax, value in zip(spec.axes, point):
                p = apply_axis_value(p, ax.parameter, value)
            params.append(p)
    except CavmagError as exc:
        error, at = exc, len(params)
    try:
        if stability_map:
            # a stability map needs the drift spectrum only, no steady state
            for p in params:
                stabs.append(steady_state.stability(model.drift_matrix(p)))
            rows = [[*point, stab.max_real_part, stab.stable] for point, stab in zip(points, stabs)]
        else:
            cells = operator.itemgetter(*spec.quantities, "stable")
            reports = full_report(params, quantities=spec.quantities)
            rows = [[*point, *cells(report.as_dict())] for point, report in zip(points, reports)]
        if error is None:
            return rows
    except CavmagError as exc:
        error = exc
        at = len(stabs) if stability_map else [p is exc.point for p in params].index(True)
    # row-major: the last axis varies fastest
    coords = divmod(start + at, spec.axes[1].count) if len(spec.axes) == 2 else (start + at,)
    where = ", ".join(f"{ax.parameter} = {v!r}" for ax, v in zip(spec.axes, points[at]))
    raise type(error)(f"{error} [at grid point {start + at}, indices {coords}: {where}]") from error


def run_sweep(spec: SweepSpec, workers: int = 1, progress=None) -> SweepResult:
    """Evaluate the sweep grid, optionally across worker processes.

    The grid points are built once, row-major (first axis outermost), and
    split into max(1, min(8 * workers, total // 32)) chunks: at most 8 per
    worker and at least 32 points each, so that a chunk's fixed cost (about
    70 us for the drift eigen-solve, the 36x36 operator and four LAPACK
    dispatches) is about 5 % of its work on a shared drift. A grid of fewer
    than 64 points is one chunk; a 21-point grid is one chunk serially, a
    401-point one 12 chunks on 2 workers and a 21x21 one 13, and every
    default-resolution preset has 8 chunks serially. The chunks are
    evaluated in turn or by a pool of at most one worker per chunk (workers
    is an integer >= 1, checked before any point is evaluated), so a
    one-chunk grid starts no pool; progress(done, total) is called after
    each chunk. A chunk builds its points' parameters with apply_axis_value
    and passes them to one full_report call with the spec's quantities,
    which decide the stages it runs (see full_report). Nothing is kept
    between chunks, and the rows stay in row-major order. A CavmagError at a
    point, a drift that is not Hurwitz stable included, aborts the sweep:
    the first failing point in row-major order, which full_report finds in
    a failing chunk, is re-raised with its type and its flat index, grid
    indices and axis values. Any failure in a pool cancels the chunks not
    yet started and is raised once the running ones end. A sweep of
    lambda_max alone evaluates only the drift spectrum and reports the
    stable flag it computes. The result is independent of the worker count.
    Starting and stopping the pool costs 20 to 30 ms on a 2-vCPU host, so 2
    workers pay on a 101x101 figure grid but not on a grid of a few dozen
    points.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
        raise ValidationError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    total = spec.size
    grid = list(itertools.product(*(ax.values().tolist() for ax in spec.axes)))
    n_chunks = max(1, min(8 * workers, total // 32))
    bounds = [total * k // n_chunks for k in range(n_chunks + 1)]
    tasks = [(spec, grid[lo:hi], lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    # a fork-started pool starts all of its processes at the first submit
    workers = min(workers, len(tasks))
    rows = []

    def collect(chunks):
        for chunk in chunks:
            rows.extend(chunk)
            if progress is not None:
                progress(len(rows), total)

    if workers == 1:
        collect(map(_evaluate_range, tasks))
    else:
        # imported here so a serial run does not load multiprocessing (~20 ms)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_evaluate_range, tasks))
    return SweepResult(spec=spec, rows=rows)


# ---------------------------------------------------------------------------
# Figure presets

_ENTANGLEMENT_CC = ("e_n_c1c2",)
_ENTANGLEMENT_MC = ("e_n_mc1", "e_n_mc2", "e_n_mc_max")
_TRIPARTITE = ("r_tau_min", "r_tau_m", "r_tau_c1", "r_tau_c2")
_STEERING_CC = ("zeta_c1_c2", "zeta_c2_c1", "zeta_s_c1c2", "e_n_c1c2")
_STEERING_ALL = (
    "zeta_c1_c2", "zeta_c2_c1", "zeta_m_c1", "zeta_c1_m", "zeta_m_c2",
    "zeta_c2_m", "zeta_s_c1c2", "e_n_c1c2", "e_n_mc1", "e_n_mc2",
)
# cavities on opposite magnon sidebands: delta_m = -delta_1 = delta_2 = 2 kappa_c
_SIDEBAND = {"delta_m": 2.0, "delta_1": -2.0, "delta_2": 2.0}
_D1, _D2, _DM = ("delta_1", -6.0, 6.0), ("delta_2", -6.0, 6.0), ("delta_m", -6.0, 6.0)
_SQUEEZE = ("r", 0.0, 1.0)
_GAMMA_RATIO = ("gamma_ratio", 0.0, 2.0)
_COLD = ("temperature", 0.02, 0.52)

# figure id: (fixed detunings in kappa_c, axes as (parameter, start, stop),
# quantities, description); figure_preset resolves the units on a base.
_PRESETS = {
    "fig2a": ({}, (_D1, _D2), _ENTANGLEMENT_CC,
              "cavity-cavity entanglement vs cavity detunings at "
              "delta_m = 0 (window [-6, 6] kappa_c)"),
    "fig2b": ({}, (_D1, _DM), _ENTANGLEMENT_CC,
              "cavity-cavity entanglement vs cavity-1 and magnon "
              "detunings at delta_2 = 0 (window [-6, 6] kappa_c)"),
    "fig2c": ({"delta_m": 2.0}, (_D1, _D2), _ENTANGLEMENT_MC,
              "cavity-magnon entanglement vs cavity detunings at "
              "delta_m = 2 kappa_c (window [-6, 6] kappa_c)"),
    "fig2d": ({"delta_2": 2.0}, (_D1, _DM), _ENTANGLEMENT_MC,
              "cavity-magnon entanglement vs cavity-1 and magnon "
              "detunings at delta_2 = 2 kappa_c (window [-6, 6] kappa_c)"),
    "fig3a": ({}, (_SQUEEZE, _GAMMA_RATIO), _ENTANGLEMENT_CC,
              "cavity-cavity entanglement vs squeezing and coupling "
              "mismatch at resonance (gamma_1 fixed)"),
    "fig3b": (_SIDEBAND, (_SQUEEZE, _GAMMA_RATIO), _ENTANGLEMENT_MC,
              "cavity-magnon entanglement vs squeezing and coupling "
              "mismatch on the sideband configuration (gamma_1 fixed)"),
    "fig4a": ({}, (_SQUEEZE, ("temperature", 0.02, 3.02)), _ENTANGLEMENT_CC,
              "cavity-cavity entanglement vs squeezing and "
              "temperature at resonance (T window [0.02, 3.02] K)"),
    "fig4b": (_SIDEBAND, (_SQUEEZE, _COLD), _ENTANGLEMENT_MC,
              "cavity-magnon entanglement vs squeezing and "
              "temperature on the sideband configuration "
              "(T window [0.02, 0.52] K)"),
    "fig5a": ({"delta_m": 2.0}, (_D1, _D2), _TRIPARTITE,
              "minimal residual contangle vs cavity detunings at "
              "delta_m = 2 kappa_c (window [-6, 6] kappa_c)"),
    "fig5b": ({"delta_2": 2.0}, (_D1, _DM), _TRIPARTITE,
              "minimal residual contangle vs cavity-1 and magnon "
              "detunings at delta_2 = 2 kappa_c (window [-6, 6] kappa_c)"),
    "fig5c": (_SIDEBAND, (_SQUEEZE, _COLD), _TRIPARTITE,
              "minimal residual contangle vs squeezing and "
              "temperature on the sideband configuration "
              "(T window [0.02, 0.52] K)"),
    "fig5d": (_SIDEBAND, (_SQUEEZE, _GAMMA_RATIO), _TRIPARTITE,
              "minimal residual contangle vs squeezing and coupling "
              "mismatch on the sideband configuration (gamma_1 fixed)"),
    "fig6a": ({}, (_D1, _DM), _STEERING_ALL,
              "Gaussian steering vs cavity-1 and magnon detunings at "
              "delta_2 = 0 (window [-6, 6] kappa_c)"),
    "fig6b": (_SIDEBAND, (_SQUEEZE, _COLD), _STEERING_ALL,
              "Gaussian steering vs squeezing and temperature on the "
              "sideband configuration (T window [0.02, 0.52] K)"),
    "fig6c": (_SIDEBAND, (_SQUEEZE, _GAMMA_RATIO), _STEERING_ALL,
              "Gaussian steering vs squeezing and coupling mismatch "
              "on the sideband configuration (gamma_1 fixed)"),
    "fig7a": ({}, (("gamma_ratio", 0.2, 2.2),), _STEERING_CC,
              "directional cavity steering and asymmetry vs coupling "
              "ratio gamma_2/gamma_1 at resonance (window [0.2, 2.2] "
              "so the grid contains ratio 1; gamma_1 and "
              "kappa_1 = kappa_2 fixed)"),
    "fig7b": ({}, (("kappa_ratio", 0.2, 2.2),), _STEERING_CC,
              "directional cavity steering and asymmetry vs decay "
              "ratio kappa_2/kappa_1 at resonance (window [0.2, 2.2] "
              "so the grid contains ratio 1; gamma_2 = gamma_1 fixed)"),
    "fig8a": ({}, (("delta_1", -10.0, 10.0), ("delta_2", -10.0, 10.0)), ("lambda_max",),
              "largest real part of the drift spectrum vs cavity "
              "detunings (window [-10, 10] kappa_c)"),
    "fig8b": ({}, (("delta_1", -10.0, 10.0), ("delta_m", -10.0, 10.0)), ("lambda_max",),
              "largest real part of the drift spectrum vs cavity-1 "
              "and magnon detunings (window [-10, 10] kappa_c)"),
}

FIGURE_IDS = tuple(sorted(_PRESETS))


def figure_preset(figure_id: str, base: PhysicalParams | None = None) -> SweepSpec:
    """Named sweep preset with the reference parameters and axis windows."""
    if not isinstance(figure_id, str) or figure_id not in _PRESETS:
        raise ValidationError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        )
    return preset_spec(default_params() if base is None else base, *_PRESETS[figure_id])


def preset_spec(base: PhysicalParams, fixed: dict, axes, quantities, description) -> SweepSpec:
    """Spec at the default resolution (DEFAULT_COUNT_1D or _2D points per axis),
    fixed detunings in kappa_c set on base, one (parameter, start, stop) per axis."""
    count = DEFAULT_COUNT_1D if len(axes) == 1 else DEFAULT_COUNT_2D
    return SweepSpec(
        base=base.replace(**{name: x * base.kappa_c for name, x in fixed.items()}),
        axes=tuple(AxisSpec(name, start, stop, count) for name, start, stop in axes),
        quantities=quantities,
        description=description,
    )


def with_resolution(spec: SweepSpec, counts) -> SweepSpec:
    """Copy of a spec with the axis point counts replaced."""
    try:
        counts = tuple(counts)
    except TypeError:
        raise ValidationError(f"counts: expected one count per axis, got {counts!r}") from None
    if len(counts) != len(spec.axes):
        raise ValidationError(
            f"expected {len(spec.axes)} axis counts, got {len(counts)}"
        )
    axes = tuple(replace(ax, count=c) for ax, c in zip(spec.axes, counts))
    return replace(spec, axes=axes)


# ---------------------------------------------------------------------------
# Serialization

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(float(value), ".17g")


def _atomic_write(destination, text: str):
    destination = os.fspath(destination)
    directory = os.path.dirname(destination) or "."
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cavmag-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, destination)
    except BaseException as exc:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        if isinstance(exc, OSError):
            # the temporary file's name is random; name the file asked for
            raise OSError(exc.errno, exc.strerror, destination) from exc
        raise


def write_csv(result: SweepResult, destination) -> None:
    """UTF-8 CSV with a header row, LF endings and 17-significant-digit floats."""
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(map(_format_cell, row)))
    _atomic_write(destination, "\n".join(lines) + "\n")


def spec_from_dict(data: dict) -> SweepSpec:
    """Inverse of asdict(spec); a missing or unknown key or a bad field raises ValidationError."""
    unknown = [key for key in data if key not in _SPEC_KEYS] if isinstance(data, dict) else []
    if unknown:
        raise ValidationError(f"sweep spec has unknown keys {unknown}")
    try:
        return SweepSpec(
            base=PhysicalParams(**data["base"]),
            axes=tuple(AxisSpec(**ax) for ax in data["axes"]),
            quantities=data["quantities"],
            description=data.get("description", ""),
        )
    except KeyError as exc:
        raise ValidationError(f"sweep spec lacks the key {exc}") from exc
    except (TypeError, DomainError) as exc:
        raise ValidationError(f"malformed sweep spec: {exc}") from exc


def write_json(result: SweepResult, destination) -> None:
    """Lossless JSON grid: {spec, columns, rows}; a non-finite cell raises."""
    payload = {
        "spec": asdict(result.spec),
        "columns": list(result.columns),
        "rows": result.rows,
    }
    _atomic_write(destination, json.dumps(payload, indent=1, allow_nan=False) + "\n")


def read_json(source) -> SweepResult:
    """Inverse of write_json; a file that does not hold its spec's grid raises.

    A cell must be a bool in the stable column and a finite real number in
    every other, so NaN, which write_json refuses to write, is refused too.
    """
    try:
        with open(os.fspath(source), encoding="utf-8") as handle:
            payload = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"grid file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"grid file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"grid file holds a JSON {type(payload).__name__}, not an object")
    missing = [key for key in ("spec", "columns", "rows") if key not in payload]
    if missing:
        raise ValidationError(f"grid file lacks the keys {missing}")
    spec = spec_from_dict(payload["spec"])
    if payload["columns"] != list(spec.columns):
        raise ValidationError(
            f"columns {payload['columns']} do not match the spec's {list(spec.columns)}"
        )
    rows = payload["rows"]
    if not isinstance(rows, list):
        raise ValidationError(f"rows must be a list, got {type(rows).__name__}")
    if len(rows) != spec.size:
        raise ValidationError(f"{len(rows)} rows, expected the spec's {spec.size}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValidationError(f"row {i} must be a list, got {type(row).__name__}")
        if len(row) != len(spec.columns):
            raise ValidationError(
                f"row {i} has {len(row)} cells, expected {len(spec.columns)}"
            )
        for column, cell in zip(spec.columns[:-1], row):
            if finite_float(cell) is None:
                raise ValidationError(
                    f"row {i}, column {column!r}: {cell!r} is not a finite real number"
                )
        if not isinstance(row[-1], bool):
            raise ValidationError(f"row {i}, column 'stable': {row[-1]!r} is not a bool")
    return SweepResult(spec=spec, rows=rows)
