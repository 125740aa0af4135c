"""Parameter-sweep engine, named figure presets and grid serialization.

A sweep evaluates the full correlation report over a 1-D or 2-D grid of one
physical axis each. Grid points are independent pure computations, so they
may be evaluated in parallel; rows are always assembled in row-major index
order (first axis outermost), which makes the output deterministic and
byte-identical regardless of the worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import numbers
import os
import tempfile
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import model, steady_state
from .errors import CavmagError, ValidationError
from .measures import REPORT_COLUMNS, full_report
from .model import PhysicalParams, default_params

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
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "quantities", tuple(self.quantities))
        problems = []
        if not 1 <= len(self.axes) <= 2:
            problems.append(f"axes: expected 1 or 2 axes, got {len(self.axes)}")
        for ax in self.axes:
            if ax.parameter not in AXES:
                problems.append(
                    f"axes.parameter: {ax.parameter!r} not one of {sorted(AXES)}"
                )
            if isinstance(ax.count, bool) or not isinstance(ax.count, numbers.Integral):
                problems.append(f"axes.count: must be an integer, got {ax.count!r}")
            elif not ax.count >= 2:
                problems.append(f"axes.count: must be >= 2, got {ax.count}")
            if not ax.start < ax.stop:
                problems.append(
                    f"axes.range: start {ax.start} must be < stop {ax.stop}"
                )
        names = [ax.parameter for ax in self.axes]
        if len(set(names)) != len(names):
            problems.append(f"axes: parameters must be distinct, got {names}")
        for q in self.quantities:
            if q not in REPORT_COLUMNS:
                problems.append(f"quantities: unknown quantity {q!r}")
        if not self.quantities:
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
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows], dtype=float)

    def grid(self, name: str) -> np.ndarray:
        """One column reshaped to the sweep's grid shape."""
        return self.column(name).reshape(self.spec.shape)


def apply_axis_value(base: PhysicalParams, parameter: str, value: float) -> PhysicalParams:
    """Base parameters with one axis coordinate applied (axis units resolved)."""
    if parameter not in AXES:
        raise ValidationError(f"unknown axis parameter {parameter!r}")
    field, scale = AXES[parameter]
    return base.replace(**{field: value if scale is None else value * getattr(base, scale)})


def _evaluate_index(spec: SweepSpec, axis_values, flat_index: int) -> list:
    """One output row; axis_values holds each axis's grid values."""
    coords = np.unravel_index(flat_index, spec.shape)
    values = [float(grid[i]) for grid, i in zip(axis_values, coords)]
    try:
        params = spec.base
        for ax, value in zip(spec.axes, values):
            params = apply_axis_value(params, ax.parameter, value)
        if spec.quantities == ("lambda_max",):
            # a stability map needs the drift spectrum only, no steady state
            stab = steady_state.stability(model.drift_matrix(params))
            return values + [stab.max_real_part, stab.stable]
        report = full_report(params).as_dict()
    except CavmagError as exc:
        where = ", ".join(f"{ax.parameter} = {v!r}" for ax, v in zip(spec.axes, values))
        indices = tuple(int(i) for i in coords)
        raise type(exc)(f"{exc} [at grid point {flat_index}, indices {indices}: {where}]") from exc
    return values + [report[q] for q in spec.quantities] + [report["stable"]]


def _evaluate_range(args) -> list:
    spec, axis_values, lo, hi = args
    return [_evaluate_index(spec, axis_values, i) for i in range(lo, hi)]


def run_sweep(spec: SweepSpec, workers: int = 1, progress=None) -> SweepResult:
    """Evaluate the sweep grid, optionally across worker processes.

    The grid is split into row-major chunks, evaluated in turn or by a pool
    of workers; progress(done, total) is called after each chunk. A
    CavmagError at a point, a drift that is not Hurwitz stable included,
    aborts the sweep, re-raised with its type and the point's flat index,
    grid indices and axis values. A sweep of lambda_max alone evaluates only
    the drift spectrum and reports the stable flag it computes. The result
    is independent of the worker count.
    """
    total = spec.size
    axis_values = [ax.values() for ax in spec.axes]
    n_chunks = min(total, max(workers, 1) * 8)
    bounds = [total * k // n_chunks for k in range(n_chunks + 1)]
    tasks = [(spec, axis_values, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    rows = []

    def collect(chunks):
        for chunk in chunks:
            rows.extend(chunk)
            if progress is not None:
                progress(len(rows), total)

    if workers <= 1:
        collect(map(_evaluate_range, tasks))
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            try:
                collect(pool.imap(_evaluate_range, tasks))
            except CavmagError:
                # let the workers finish before the pool is torn down: one
                # terminated while writing a result keeps the result queue's
                # lock, and the pool's shutdown then waits for it forever
                pool.close()
                pool.join()
                raise
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


def _sideband(base: PhysicalParams) -> PhysicalParams:
    # cavities on opposite magnon sidebands: delta_m = -delta_1 = delta_2 = 2 kappa_c
    kc = base.kappa_c
    return base.replace(delta_m=2 * kc, delta_1=-2 * kc, delta_2=2 * kc)


def _preset_table(base: PhysicalParams) -> dict:
    kc = base.kappa_c
    detuning = dict(start=-6.0, stop=6.0)
    ratio = dict(start=0.0, stop=2.0)
    squeeze = dict(start=0.0, stop=1.0)
    cold = dict(start=0.02, stop=0.52)
    return {
        "fig2a": dict(
            base=base,
            axes=(("delta_1", detuning), ("delta_2", detuning)),
            quantities=_ENTANGLEMENT_CC,
            description="cavity-cavity entanglement vs cavity detunings at "
                        "delta_m = 0 (window [-6, 6] kappa_c)",
        ),
        "fig2b": dict(
            base=base,
            axes=(("delta_1", detuning), ("delta_m", detuning)),
            quantities=_ENTANGLEMENT_CC,
            description="cavity-cavity entanglement vs cavity-1 and magnon "
                        "detunings at delta_2 = 0 (window [-6, 6] kappa_c)",
        ),
        "fig2c": dict(
            base=base.replace(delta_m=2 * kc),
            axes=(("delta_1", detuning), ("delta_2", detuning)),
            quantities=_ENTANGLEMENT_MC,
            description="cavity-magnon entanglement vs cavity detunings at "
                        "delta_m = 2 kappa_c (window [-6, 6] kappa_c)",
        ),
        "fig2d": dict(
            base=base.replace(delta_2=2 * kc),
            axes=(("delta_1", detuning), ("delta_m", detuning)),
            quantities=_ENTANGLEMENT_MC,
            description="cavity-magnon entanglement vs cavity-1 and magnon "
                        "detunings at delta_2 = 2 kappa_c (window [-6, 6] kappa_c)",
        ),
        "fig3a": dict(
            base=base,
            axes=(("r", squeeze), ("gamma_ratio", ratio)),
            quantities=_ENTANGLEMENT_CC,
            description="cavity-cavity entanglement vs squeezing and coupling "
                        "mismatch at resonance (gamma_1 fixed)",
        ),
        "fig3b": dict(
            base=_sideband(base),
            axes=(("r", squeeze), ("gamma_ratio", ratio)),
            quantities=_ENTANGLEMENT_MC,
            description="cavity-magnon entanglement vs squeezing and coupling "
                        "mismatch on the sideband configuration (gamma_1 fixed)",
        ),
        "fig4a": dict(
            base=base,
            axes=(("r", squeeze), ("temperature", dict(start=0.02, stop=3.02))),
            quantities=_ENTANGLEMENT_CC,
            description="cavity-cavity entanglement vs squeezing and "
                        "temperature at resonance (T window [0.02, 3.02] K)",
        ),
        "fig4b": dict(
            base=_sideband(base),
            axes=(("r", squeeze), ("temperature", cold)),
            quantities=_ENTANGLEMENT_MC,
            description="cavity-magnon entanglement vs squeezing and "
                        "temperature on the sideband configuration "
                        "(T window [0.02, 0.52] K)",
        ),
        "fig5a": dict(
            base=base.replace(delta_m=2 * kc),
            axes=(("delta_1", detuning), ("delta_2", detuning)),
            quantities=_TRIPARTITE,
            description="minimal residual contangle vs cavity detunings at "
                        "delta_m = 2 kappa_c (window [-6, 6] kappa_c)",
        ),
        "fig5b": dict(
            base=base.replace(delta_2=2 * kc),
            axes=(("delta_1", detuning), ("delta_m", detuning)),
            quantities=_TRIPARTITE,
            description="minimal residual contangle vs cavity-1 and magnon "
                        "detunings at delta_2 = 2 kappa_c (window [-6, 6] kappa_c)",
        ),
        "fig5c": dict(
            base=_sideband(base),
            axes=(("r", squeeze), ("temperature", cold)),
            quantities=_TRIPARTITE,
            description="minimal residual contangle vs squeezing and "
                        "temperature on the sideband configuration "
                        "(T window [0.02, 0.52] K)",
        ),
        "fig5d": dict(
            base=_sideband(base),
            axes=(("r", squeeze), ("gamma_ratio", ratio)),
            quantities=_TRIPARTITE,
            description="minimal residual contangle vs squeezing and coupling "
                        "mismatch on the sideband configuration (gamma_1 fixed)",
        ),
        "fig6a": dict(
            base=base,
            axes=(("delta_1", detuning), ("delta_m", detuning)),
            quantities=_STEERING_ALL,
            description="Gaussian steering vs cavity-1 and magnon detunings at "
                        "delta_2 = 0 (window [-6, 6] kappa_c)",
        ),
        "fig6b": dict(
            base=_sideband(base),
            axes=(("r", squeeze), ("temperature", cold)),
            quantities=_STEERING_ALL,
            description="Gaussian steering vs squeezing and temperature on the "
                        "sideband configuration (T window [0.02, 0.52] K)",
        ),
        "fig6c": dict(
            base=_sideband(base),
            axes=(("r", squeeze), ("gamma_ratio", ratio)),
            quantities=_STEERING_ALL,
            description="Gaussian steering vs squeezing and coupling mismatch "
                        "on the sideband configuration (gamma_1 fixed)",
        ),
        "fig7a": dict(
            base=base,
            axes=(("gamma_ratio", dict(start=0.2, stop=2.2)),),
            quantities=_STEERING_CC,
            description="directional cavity steering and asymmetry vs coupling "
                        "ratio gamma_2/gamma_1 at resonance (window [0.2, 2.2] "
                        "so the grid contains ratio 1; gamma_1 and "
                        "kappa_1 = kappa_2 fixed)",
        ),
        "fig7b": dict(
            base=base,
            axes=(("kappa_ratio", dict(start=0.2, stop=2.2)),),
            quantities=_STEERING_CC,
            description="directional cavity steering and asymmetry vs decay "
                        "ratio kappa_2/kappa_1 at resonance (window [0.2, 2.2] "
                        "so the grid contains ratio 1; gamma_2 = gamma_1 fixed)",
        ),
        "fig8a": dict(
            base=base,
            axes=(
                ("delta_1", dict(start=-10.0, stop=10.0)),
                ("delta_2", dict(start=-10.0, stop=10.0)),
            ),
            quantities=("lambda_max",),
            description="largest real part of the drift spectrum vs cavity "
                        "detunings (window [-10, 10] kappa_c)",
        ),
        "fig8b": dict(
            base=base,
            axes=(
                ("delta_1", dict(start=-10.0, stop=10.0)),
                ("delta_m", dict(start=-10.0, stop=10.0)),
            ),
            quantities=("lambda_max",),
            description="largest real part of the drift spectrum vs cavity-1 "
                        "and magnon detunings (window [-10, 10] kappa_c)",
        ),
    }


FIGURE_IDS = tuple(sorted(_preset_table(default_params())))


def figure_preset(figure_id: str, base: PhysicalParams | None = None) -> SweepSpec:
    """Named sweep preset with the reference parameters and axis windows."""
    base = default_params() if base is None else base
    table = _preset_table(base)
    if figure_id not in table:
        raise ValidationError(
            f"unknown figure id {figure_id!r}; valid ids: {', '.join(FIGURE_IDS)}"
        )
    entry = table[figure_id]
    default_count = DEFAULT_COUNT_1D if len(entry["axes"]) == 1 else DEFAULT_COUNT_2D
    axes = tuple(
        AxisSpec(parameter=name, count=default_count, **window)
        for name, window in entry["axes"]
    )
    return SweepSpec(
        base=entry["base"],
        axes=axes,
        quantities=entry["quantities"],
        description=entry["description"],
    )


def with_resolution(spec: SweepSpec, counts) -> SweepSpec:
    """Copy of a spec with the axis point counts replaced."""
    counts = tuple(counts)
    if len(counts) != len(spec.axes):
        raise ValidationError(
            f"expected {len(spec.axes)} axis counts, got {len(counts)}"
        )
    axes = tuple(replace(ax, count=int(c)) for ax, c in zip(spec.axes, counts))
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
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".cavmag-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, destination)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_csv(result: SweepResult, destination) -> None:
    """UTF-8 CSV with a header row, LF endings and 17-significant-digit floats."""
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    _atomic_write(destination, "\n".join(lines) + "\n")


def _spec_to_dict(spec: SweepSpec) -> dict:
    return {
        "base": asdict(spec.base),
        "axes": [asdict(ax) for ax in spec.axes],
        "quantities": list(spec.quantities),
        "description": spec.description,
    }


def spec_from_dict(data: dict) -> SweepSpec:
    base = PhysicalParams(**data["base"])
    axes = tuple(AxisSpec(**ax) for ax in data["axes"])
    return SweepSpec(
        base=base,
        axes=axes,
        quantities=tuple(data["quantities"]),
        description=data.get("description", ""),
    )


def write_json(result: SweepResult, destination) -> None:
    """Lossless JSON grid: {spec, columns, rows}; a non-finite cell raises."""
    payload = {
        "spec": _spec_to_dict(result.spec),
        "columns": list(result.columns),
        "rows": result.rows,
    }
    _atomic_write(destination, json.dumps(payload, indent=1, allow_nan=False) + "\n")


def read_json(source) -> SweepResult:
    """Inverse of write_json; a columns list that is not the spec's raises."""
    with open(os.fspath(source), encoding="utf-8") as handle:
        payload = json.load(handle)
    spec = spec_from_dict(payload["spec"])
    if tuple(payload["columns"]) != spec.columns:
        raise ValidationError(
            f"columns {payload['columns']} do not match the spec's {list(spec.columns)}"
        )
    return SweepResult(spec=spec, rows=payload["rows"])
