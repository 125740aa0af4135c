"""Command-line interface: point reports, sweeps, figure grids, stability scans.

Unit handling happens only at this boundary. Rates, couplings and the magnon
frequency are entered as ordinary frequencies in Hz (value/2pi) by default;
detunings default to multiples of kappa_c (= kappa_1). Any numeric value may
carry an explicit unit suffix:

    5e6        default unit for the field
    5e6:hz     frequency in Hz, converted to 2*pi*value rad/s
    3.1e7:rad  angular rate in rad/s, used as-is
    2:kc       multiples of kappa_c, resolved after kappa_1

The squeezing parameter and the temperature are plain numbers (dimensionless
and kelvin). The core package works exclusively in rad/s.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import sweep as sweep_mod
from .errors import CavmagError, ConfigError, StabilityError, ValidationError
from .measures import full_report
from .model import TWO_PI, PhysicalParams, default_params
from .sweep import (
    AxisSpec,
    FIGURE_IDS,
    SweepSpec,
    figure_preset,
    run_sweep,
    spec_from_dict,
    with_resolution,
    write_csv,
    write_json,
)

# Default unit per physical field: hz for rates/frequencies, kc for detunings.
PARAM_FIELDS = {
    "kappa_1": "hz",
    "kappa_2": "hz",
    "kappa_m": "hz",
    "gamma_1": "hz",
    "gamma_2": "hz",
    "delta_1": "kc",
    "delta_2": "kc",
    "delta_m": "kc",
    "omega_m": "hz",
    "r": "none",
    "temperature": "none",
}

RUN_KEYS = ("out", "format", "grid", "workers")


def _parse_tagged(field: str, text: str):
    """Split 'value[:unit]' and validate the tag against the field."""
    text = str(text).strip()
    value_part, sep, tag = text.partition(":")
    tag = tag.strip().lower() if sep else PARAM_FIELDS[field]
    try:
        value = float(value_part)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse number from {text!r}")
    if PARAM_FIELDS[field] == "none":
        if sep:
            raise ConfigError(f"{field}: plain number expected, got unit tag {tag!r}")
        return value, "none"
    if tag not in ("hz", "rad", "kc"):
        raise ConfigError(f"{field}: unknown unit tag {tag!r} (expected hz, rad or kc)")
    if field == "kappa_1" and tag == "kc":
        raise ConfigError("kappa_1 sets the kappa_c scale and cannot be given in kc units")
    return value, tag


def resolve_params(overrides: dict, base: PhysicalParams | None = None) -> PhysicalParams:
    """Apply tagged overrides on top of a base configuration.

    kappa_1 is resolved first so that kc-tagged values have a unique rad/s
    meaning.
    """
    base = default_params() if base is None else base
    parsed = {}
    for field, raw in overrides.items():
        if field not in PARAM_FIELDS:
            raise ConfigError(f"unknown parameter {field!r}")
        parsed[field] = _parse_tagged(field, raw)

    values = {}
    if "kappa_1" in parsed:
        value, tag = parsed.pop("kappa_1")
        values["kappa_1"] = TWO_PI * value if tag == "hz" else value
    kappa_c = values.get("kappa_1", base.kappa_1)
    for field, (value, tag) in parsed.items():
        if tag == "hz":
            values[field] = TWO_PI * value
        elif tag == "kc":
            values[field] = value * kappa_c
        else:  # rad or none
            values[field] = value
    return base.replace(**values)


def parse_config_file(path: str) -> tuple[dict, dict]:
    """Flat key = value file; returns (parameter overrides, run settings)."""
    params, run = {}, {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        if key in PARAM_FIELDS:
            params[key] = value
        elif key in RUN_KEYS:
            run[key] = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return params, run


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(int(p) for p in str(text).lower().split("x"))
    except ValueError:
        raise ConfigError(f"cannot parse grid specification {text!r} (expected N or NxM)")


class _Parser(argparse.ArgumentParser):
    # uniform exit code 1 for command-line misuse
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_param_flags(parser):
    for field in PARAM_FIELDS:
        parser.add_argument(
            f"--{field.replace('_', '-')}",
            dest=field,
            metavar="VALUE[:unit]",
            help=f"override {field} (default unit: {PARAM_FIELDS[field]})",
        )


def _add_run_flags(parser, default_format="csv"):
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help=f"output format (default {default_format})")
    parser.add_argument("--grid", help="resolution override: N or NxM")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for grid evaluation (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cavmag", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="correlation report at one parameter point")
    p_point.add_argument("--config", help="flat key = value configuration file")
    _add_param_flags(p_point)

    p_sweep = sub.add_parser("sweep", help="run a sweep described by a JSON spec file")
    p_sweep.add_argument("spec_file", help="JSON sweep spec, or {\"preset\": \"fig4a\"}")
    p_sweep.add_argument("--config", help="flat key = value configuration file")
    _add_param_flags(p_sweep)
    _add_run_flags(p_sweep)

    p_fig = sub.add_parser("figure", help="regenerate a named figure grid")
    p_fig.add_argument("figure_id", help=f"one of: {', '.join(FIGURE_IDS)}")
    p_fig.add_argument("--config", help="flat key = value configuration file")
    _add_param_flags(p_fig)
    _add_run_flags(p_fig)

    p_stab = sub.add_parser("stability", help="drift-spectrum stability scan")
    p_stab.add_argument("--axes", default="delta_1,delta_2",
                        help="one or two axis parameters, comma separated")
    p_stab.add_argument("--window", default="-10:10",
                        help="axis window lo:hi in axis units; use --window=-10:10 "
                             "for negative bounds (default -10:10)")
    p_stab.add_argument("--config", help="flat key = value configuration file")
    _add_param_flags(p_stab)
    _add_run_flags(p_stab)

    return parser


def _collect_settings(args) -> tuple[dict, dict]:
    """Merge config file and command-line flags (flags win)."""
    params, run = {}, {}
    if getattr(args, "config", None):
        params, run = parse_config_file(args.config)
    for field in PARAM_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            params[field] = value
    for key in RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            run[key] = value
    return params, run


def _run_settings(run: dict, label: str):
    fmt = run.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    out = run.get("out", f"{label}.{fmt}")
    try:
        workers = int(run.get("workers", 1))
    except ValueError:
        raise ConfigError(f"workers must be an integer, got {run['workers']!r}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    grid = _parse_grid(run["grid"]) if "grid" in run else None
    return out, fmt, workers, grid


def _progress_printer(label: str):
    def advance(done, total):
        print(f"{label}: {done}/{total} points", file=sys.stderr, flush=True)
    return advance


def _print_summary(result, label: str):
    quantity = result.spec.quantities[0]
    values = result.column(quantity)
    axis_names = [ax.parameter for ax in result.spec.axes]
    best = int(values.argmax())
    coords = ", ".join(
        f"{name}={result.rows[best][i]:g}" for i, name in enumerate(axis_names)
    )
    print(
        f"{label}: {quantity} min={values.min():.6g} max={values.max():.6g} "
        f"argmax at ({coords})",
        file=sys.stderr,
    )


def cmd_point(args) -> int:
    params_over, _ = _collect_settings(args)
    params = resolve_params(params_over)
    report = full_report(params)
    payload = {
        "params": {
            name: getattr(params, name) for name in PARAM_FIELDS
        },
        "stable": report.stable,
        "lambda_max": report.stability.max_real_part,
        "spectrum": [[z.real, z.imag] for z in report.stability.spectrum],
        "e_n": report.e_n,
        "e_n_one_vs_two": report.e_n_one_vs_two,
        "residuals": report.residuals,
        "r_tau_min": report.r_tau_min,
        "steering": report.steering,
        "asymmetry": report.asymmetry,
        "nu_min": report.nu_min,
    }
    print(json.dumps(payload, indent=1))
    return 0


def _load_sweep_spec(path: str, params_over: dict) -> SweepSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read spec file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
    if "preset" in data:
        base = resolve_params(params_over) if params_over else None
        spec = figure_preset(data["preset"], base=base)
    else:
        try:
            spec = spec_from_dict(data)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed sweep spec: {exc}")
        if params_over:
            spec = replace(spec, base=resolve_params(params_over, base=spec.base))
    return spec


def _run_grid(spec: SweepSpec, run: dict, label: str) -> int:
    """Shared tail of the grid commands: resolution, sweep, output, summary."""
    out, fmt, workers, grid = _run_settings(run, label)
    if grid is not None:
        spec = with_resolution(spec, grid)
    result = run_sweep(spec, workers=workers, progress=_progress_printer(label))
    (write_json if fmt == "json" else write_csv)(result, out)
    _print_summary(result, label)
    print(f"{label}: wrote {len(result.rows)} rows to {out}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    params_over, run = _collect_settings(args)
    return _run_grid(_load_sweep_spec(args.spec_file, params_over), run, "sweep")


def cmd_figure(args) -> int:
    params_over, run = _collect_settings(args)
    base = resolve_params(params_over) if params_over else None
    return _run_grid(figure_preset(args.figure_id, base=base), run, args.figure_id)


def cmd_stability(args) -> int:
    params_over, run = _collect_settings(args)
    axes_names = [a.strip() for a in args.axes.split(",") if a.strip()]
    lo, sep, hi = args.window.partition(":")
    if not sep:
        raise ConfigError(f"window must be lo:hi, got {args.window!r}")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise ConfigError(f"cannot parse window {args.window!r}")
    count = (
        sweep_mod.DEFAULT_COUNT_1D if len(axes_names) == 1 else sweep_mod.DEFAULT_COUNT_2D
    )
    spec = SweepSpec(
        base=resolve_params(params_over),
        axes=tuple(AxisSpec(parameter=name, start=lo, stop=hi, count=count)
                   for name in axes_names),
        quantities=("lambda_max",),
        description=f"stability scan over {', '.join(axes_names)}",
    )
    return _run_grid(spec, run, "stability")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "point": cmd_point,
        "sweep": cmd_sweep,
        "figure": cmd_figure,
        "stability": cmd_stability,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavmagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
