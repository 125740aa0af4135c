"""Byte-identity harness: record what one checkout's cavmag prints, writes and
computes, then compare two such records.

    python tools/identity.py dump --out A.json [--workers N] [--cases full|smoke|presets]
    python tools/identity.py diff A.json B.json [--tolerance]

dump imports cavmag from the src/ directory next to this file, so a copy of
the tool in another checkout (say, one made with `git archive`) records that
checkout. Run each dump in its own process, once per checkout and worker
count. N (default 1) is passed as --workers to every grid command.

Each case has an id and a record:
- a CLI run (cavmag.cli.main in a fresh directory): the exit code, stdout,
  the progress lines of stderr (`<label>: N/M points`, one per sweep chunk)
  under progress and the rest of stderr under stderr, and the sha256 of
  every file it wrote;
- a library call (full_report or run_sweep): the float.hex of every column,
  or the refusal's type, message and point, and any warning it raised.

The full set holds all 19 presets at 21 points per axis, CSV and JSON; the
refusal runs that the tier-1 CLI and sweep tests pin; the golden entries;
the preset grids at 5x4; seeded draws from a stress box and a wide box over
four quantity subsets; mixed stacks of 8 points; and stacks of 7, 8, 9 and
33 points, mixed and on one drift, on both sides of the size from which
full_report finishes a stack on arrays. The smoke set is a few of each,
with one 9-point stack. The presets set is the float.hex of every cell of
all 19 presets at their default resolution (101x101 or 401 points), each
run with --workers N (serially by default); it takes about 15 s serially.

diff prints the first ten differing cases and exits 1, or says that every case
is identical and exits 0. The header (the checkout, the versions and the
worker count) is shown but not compared. Any difference counts, progress
lines included; a change of chunk count alone shows as record.progress.
With --tolerance it also prints, for each library column (a report's key
or a sweep row's column), the largest absolute and relative difference of
its cells over every case both dumps hold, and the case where each occurs;
the exit status is as without it, so a cell that moves by one ulp still
exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import cavmag  # noqa: E402
from cavmag import cli  # noqa: E402
from cavmag.errors import CavmagError  # noqa: E402
from cavmag.measures import REPORT_COLUMNS, full_report  # noqa: E402
from cavmag.model import PhysicalParams, default_params  # noqa: E402
from cavmag.sweep import (  # noqa: E402
    FIGURE_IDS, AxisSpec, SweepSpec, figure_preset, run_sweep, with_resolution,
)

KAPPA_C = default_params().kappa_c
# The line a grid command prints to stderr after each chunk
PROGRESS_LINE = re.compile(r"[^\n]*: \d+/\d+ points\n?")
GRID_COMMANDS = ("figure", "sweep", "stability")
# Quantity subsets: every column, then each optional stage on its own
QUANTITIES = (
    REPORT_COLUMNS, ("e_n_c1c2",), ("r_tau_min",), ("zeta_c1_c2",), ("r_tau_min", "zeta_s_mc1"),
)
# The point where LAPACK's one-vs-two eigen-solve does not converge near 93.6 K
LAPACK_BASE = {"r": 5e-324, "gamma_2": 111088811935381.0 * KAPPA_C}
# cavmag point runs that once crashed, warned or hit a bound, with the
# extreme-input table of the CLI tests
POINT_RUNS = (
    (), ("--gamma-1", "1e300"), ("--kappa-1", "1e300"), ("--kappa-m", "1e300"),
    ("--omega-m", "1e300"), ("--temperature", "1e300"), ("--r", "354"), ("--r", "1000"),
    ("--r", "9", "--temperature", "2"), ("--kappa-1", "1e-310:rad"), ("--kappa-m", "1e-320:rad"),
    ("--kappa-1", "5", "--kappa-2", "5", "--kappa-m", "50", "--gamma-1", "5e9",
     "--gamma-2", "500", "--delta-1", "5e8:hz", "--r", "1"),
    ("--r=5e-324", "--temperature=93.76011927227091", "--gamma-2=111088811935381.0:kc"),
    ("--kappa-m=1.7e+308:rad",), ("--r=342.244915322078", "--gamma-2=342.244915322078:kc"),
)


def spec_file(axes, quantities=("e_n_c1c2",), **changes) -> bytes:
    """A sweep spec file on default_params() with changes, one dict per axis."""
    base = default_params().replace(**changes) if changes else default_params()
    axes = [dict(zip(("parameter", "start", "stop", "count"), axis)) for axis in axes]
    return json.dumps({"base": base.__dict__, "axes": axes, "quantities": list(quantities)}).encode()


def cli_cases(full: bool) -> list:
    """(argv, input files) of each CLI case."""
    cases = []
    for figure_id in FIGURE_IDS if full else ("fig7a", "fig4a"):
        n = 21 if full else 5
        grid = "x".join([str(n)] * len(figure_preset(figure_id).axes))
        for fmt in ("csv", "json"):
            cases.append((("figure", figure_id, "--grid", grid, "--format", fmt), {}))
    specs = {
        "r_from_minus_1.json": spec_file([("r", -1.0, 1.0, 16)]),
        "lapack.json": spec_file([("temperature", 93.0, 95.0, 17)], ("r_tau_min",), **LAPACK_BASE),
        "list.json": b"[1, 2]",
    }
    if full:
        specs.update({
            "r_second.json": spec_file([("temperature", 0.0, 0.1, 3), ("r", -1.0, 1.0, 4)]),
            "lapack_9.json": spec_file([("temperature", 93.0, 94.0, 9)], ("r_tau_min",), **LAPACK_BASE),
            "gamma_ratio.json": spec_file([("gamma_ratio", 1.0, 1.35e301, 72)]),
            "gamma_ratio_map.json": spec_file([("gamma_ratio", 1.0, 1.35e301, 72)], ("lambda_max",)),
            "gamma_ratio_9.json": spec_file([("gamma_ratio", 1.0, 1.6e300, 9)]),
        })
    cases += [(("sweep", name), {name: data}) for name, data in specs.items()]
    cases += [
        (("stability", "--grid", "3x3"), {}),
        (("stability", "--axes", "r", "--window=-1:1", "--grid", "5"), {}),
        (("stability", "--window=a:b"), {}),
        (("figure", "fig4a", "--grid", "3xa"), {}),
    ]
    if full:
        cases += [
            (("stability", "--axes", "r", "--window=-1:1", "--grid", "80"), {}),
            (("stability", "--grid", "3x3", "--window=-1e308:1e308"), {}),
            (("figure", "fig4a", "--grid", "3x3", "--omega-m", "1e-300"), {}),
            (("figure", "fig7a", "--grid", "16", "--r", "9", "--temperature", "2"), {}),
            (("figure", "fig6a", "--grid", "5x5", "--r", "9", "--temperature", "2"), {}),
        ]
    cases += [(("point", *flags), {}) for flags in (POINT_RUNS if full else POINT_RUNS[:3])]
    return cases


def run_cli(argv, files, workers: int) -> dict:
    """Exit code, stdout, progress lines, the rest of stderr and written
    files of one cavmag run."""
    if argv[0] in GRID_COMMANDS:
        argv = (*argv, "--workers", str(workers))
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        os.chdir(tmp)
        try:
            for name, data in files.items():
                Path(name).write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # argparse's own misuse path
                    code = exc.code
            written = {
                name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                for name in sorted(os.listdir()) if name not in files
            }
        finally:
            os.chdir(here)
    lines = err.getvalue().splitlines(keepends=True)
    progress = [line for line in lines if PROGRESS_LINE.fullmatch(line)]
    stderr = [line for line in lines if not PROGRESS_LINE.fullmatch(line)]
    return {"code": code, "stdout": out.getvalue(), "progress": "".join(progress),
            "stderr": "".join(stderr), "files": written}


def refusal(error: CavmagError, points: list) -> dict:
    """A refusal's type, message and point (by identity among points)."""
    point = getattr(error, "point", None)
    return {
        "error": type(error).__name__,
        "message": str(error),
        "point": repr(point),
        "point_index": next((i for i, p in enumerate(points) if p is point), None),
    }


def call(function, points: list) -> dict:
    """function() as float.hex rows or a refusal, with any warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = function()
        except CavmagError as error:
            record = refusal(error, points)
        else:
            record = {"rows": [hex_row(row) for row in result]}
    record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return record


def sweep_case(spec, workers: int = 1) -> dict:
    """run_sweep's rows as call records them, with the spec's column names."""
    return {"columns": list(spec.columns),
            **call(lambda: run_sweep(spec, workers=workers).rows, [])}


def hex_row(row) -> list | dict:
    """A report or a sweep row with each float as float.hex."""
    if isinstance(row, list):
        return [x.hex() if isinstance(x, float) else x for x in row]
    return {"stable": row.stable, **{k: x.hex() for k, x in row.values.items()}}


def report_case(points, quantities) -> dict:
    """full_report of one point or of a stack, as call records it."""
    stack = points if isinstance(points, list) else [points]

    def evaluate():
        reports = full_report(points, quantities=quantities)
        return reports if stack is points else [reports]

    return call(evaluate, stack)


def draw(rng, wide: bool) -> PhysicalParams:
    """A stress-box point (rates in kappa_c, as the tier-1 properties draw
    them), or with wide a point with rates over 45 decades and r and T out
    to the float range."""
    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    if wide:
        rates = {k: log_uniform(1e-20, 1e25) * KAPPA_C for k in ("kappa_2", "kappa_m", "gamma_1",
                                                                  "gamma_2")}
        rates.update({k: rng.choice([-1.0, 1.0]) * log_uniform(1e-20, 1e25) * KAPPA_C
                      for k in ("delta_1", "delta_2", "delta_m")})
        r, temperature = log_uniform(1e-300, 1e3), log_uniform(1e-300, 1e300)
    else:
        rates = {"kappa_2": log_uniform(1e-3, 1e3), "kappa_m": log_uniform(1e-3, 10.0),
                 "gamma_1": log_uniform(1e-3, 30.0), "gamma_2": log_uniform(1e-3, 30.0)}
        rates.update({k: rng.uniform(-10.0, 10.0) for k in ("delta_1", "delta_2", "delta_m")})
        rates = {k: x * KAPPA_C for k, x in rates.items()}
        r, temperature = rng.uniform(0.0, 3.0), rng.uniform(0.0, 5.0)
    return default_params().replace(r=r, temperature=temperature, **rates)


def library_cases(full: bool) -> dict:
    """Every library case, in order, by id."""
    cases = {}
    golden = json.loads((SRC.parent / "tests" / "data" / "golden_report.json").read_text())
    for entry in golden["points"] if full else golden["points"][:2]:
        p = PhysicalParams(**entry["params"])
        for k, quantities in enumerate(QUANTITIES):
            cases[f"golden {entry['label']} q{k}"] = report_case(p, quantities)
    for figure_id in FIGURE_IDS if full else ("fig7a",):
        spec = figure_preset(figure_id)
        spec = with_resolution(spec, (5, 4)[: len(spec.axes)])
        spec = SweepSpec(spec.base, spec.axes, REPORT_COLUMNS)
        cases[f"preset grid {figure_id} 5x4"] = sweep_case(spec)
    hot = SweepSpec(default_params().replace(temperature=2.0), (AxisSpec("r", 5.0, 6.0, 5),),
                    REPORT_COLUMNS)
    cases["preset grid refusal"] = sweep_case(hot)
    rng = np.random.default_rng(20240917)
    for box, n in (("stress", 3000 if full else 16), ("wide", 1000 if full else 8)):
        points = [draw(rng, box == "wide") for _ in range(n)]
        for i, p in enumerate(points):
            cases[f"{box} {i}"] = report_case(p, QUANTITIES[i % len(QUANTITIES)])
        # mixed stacks: 8 consecutive draws, each with its own drift
        for i in range(0, n - 7, 8 if full else 16):
            stack = points[i:i + 8]
            cases[f"{box} stack {i}"] = report_case(stack, QUANTITIES[i // 8 % len(QUANTITIES)])
    # stacks that share one drift: r and T vary around a stress-box point
    for i in range(200 if full else 2):
        p = draw(rng, False)
        stack = [p.replace(r=r, temperature=t) for r, t in rng.uniform(0.0, 3.0, (8, 2))]
        cases[f"shared drift stack {i}"] = report_case(stack, QUANTITIES[i % len(QUANTITIES)])
    # stacks on both sides of the array tail's smallest size: stress-box
    # draws, each with its own drift, and r and T around one drift
    for size in (7, 8, 9, 33) if full else (9,):
        for i in range(20 if full else 1):
            quantities = QUANTITIES[i % len(QUANTITIES)]
            mixed = [draw(rng, False) for _ in range(size)]
            cases[f"mixed stack of {size} {i}"] = report_case(mixed, quantities)
            p = draw(rng, False)
            shared = [p.replace(r=r, temperature=t) for r, t in rng.uniform(0.0, 3.0, (size, 2))]
            cases[f"shared drift stack of {size} {i}"] = report_case(shared, quantities)
    return cases


def preset_cases(workers: int) -> dict:
    """Every preset at its default resolution, by id."""
    return {f"preset {figure_id}": sweep_case(figure_preset(figure_id), workers)
            for figure_id in FIGURE_IDS}


def dump(out: str, workers: int, which: str) -> int:
    if not Path(cavmag.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: cavmag was imported from {cavmag.__file__}, not from {SRC}")
    if which == "presets":
        cases = preset_cases(workers)
    else:
        full = which == "full"
        cases = {"cli " + " ".join(argv): run_cli(argv, files, workers)
                 for argv, files in cli_cases(full)}
        cases.update(library_cases(full))
    meta = {
        "checkout": str(SRC.parent), "workers": workers, "cases": which,
        "python": sys.version.split()[0], "numpy": np.__version__,
    }
    Path(out).write_text(json.dumps({"meta": meta, "cases": cases}, indent=0) + "\n")
    print(f"dumped {len(cases)} cases to {out}")
    return 0


def differences(a, b, where: str) -> list:
    """Where two records differ: each differing key of a dict, the first
    differing element of two lists of one length, and two long strings
    from their first differing character."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)
                for line in differences(a.get(key), b.get(key), f"{where}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        return differences(a[i], b[i], f"{where}[{i}]")
    if isinstance(a, str) and isinstance(b, str) and max(len(a), len(b)) > 240:
        k = len(os.path.commonprefix([a, b]))
        where += f" from character {k}"
        a, b = a[max(0, k - 40):k + 200], b[max(0, k - 40):k + 200]
    return [f"  {where}:\n    {a!r:.300}\n    {b!r:.300}"]


def cells(record: dict):
    """(column, float.hex) of every float cell of a library record's rows."""
    for row in record.get("rows", ()) if isinstance(record, dict) else ():
        if isinstance(row, dict):
            yield from ((column, x) for column, x in row.items() if isinstance(x, str))
        else:
            names = record.get("columns") or [f"[{i}]" for i in range(len(row))]
            yield from ((column, x) for column, x in zip(names, row) if isinstance(x, str))


def tolerances(cases_a: dict, cases_b: dict) -> dict:
    """Per library column: [cells whose bits differ, largest absolute
    difference, its case, largest relative difference, its case], over the
    cases both dumps hold with rows of one length. A nan against a number,
    or inf against another value, differs by inf; +0.0 against -0.0 by 0."""
    worst = {}
    for case, record in cases_a.items():
        other = cases_b.get(case)
        if not isinstance(other, dict) or len(record.get("rows", ())) != len(other.get("rows", ())):
            continue
        for (column, x), (column_b, y) in zip(cells(record), cells(other)):
            if column != column_b:
                continue
            entry = worst.setdefault(column, [0, 0.0, None, 0.0, None])
            if x == y:
                continue
            x, y = float.fromhex(x), float.fromhex(y)
            delta = abs(x - y)
            if not math.isfinite(delta):
                delta = math.inf
            relative = delta / max(abs(x), abs(y)) if math.isfinite(delta) and delta else delta
            entry[0] += 1
            if delta > entry[1] or entry[2] is None:
                entry[1:3] = delta, case
            if relative > entry[3] or entry[4] is None:
                entry[3:] = relative, case
    return worst


def diff(path_a: str, path_b: str, tolerance: bool = False) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    for path, dumped in ((path_a, a), (path_b, b)):
        print(f"{path}: {dumped['meta']}")
    ids = list(dict.fromkeys([*a["cases"], *b["cases"]]))
    differing = [case for case in ids if a["cases"].get(case) != b["cases"].get(case)]
    for case in differing[:10]:
        print(f"differs: {case}")
        if case not in a["cases"] or case not in b["cases"]:
            print(f"  only in {path_a if case in a['cases'] else path_b}")
            continue
        print("\n".join(differences(a["cases"][case], b["cases"][case], "record")))
    if tolerance:
        library = {case: a["cases"][case] for case in a["cases"] if not case.startswith("cli ")}
        for column, (count, delta, at, relative, at_relative) in tolerances(
            library, b["cases"]
        ).items():
            if count:
                print(f"column {column}: {count} differing cells; max abs {delta:.3e} at {at}; "
                      f"max rel {relative:.3e} at {at_relative}")
            else:
                print(f"column {column}: identical")
    if differing:
        print(f"{len(differing)} of {len(ids)} cases differ")
        return 1
    print(f"all {len(ids)} cases identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p_dump = commands.add_parser("dump", help="record this checkout's outputs")
    p_dump.add_argument("--out", required=True)
    p_dump.add_argument("--workers", type=int, default=1)
    p_dump.add_argument("--cases", choices=("full", "smoke", "presets"), default="full")
    p_diff = commands.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--tolerance", action="store_true",
                        help="also print each library column's largest abs and rel difference")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out, args.workers, args.cases)
    return diff(args.a, args.b, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
