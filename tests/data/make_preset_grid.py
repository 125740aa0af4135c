"""Write preset_grid.json: every figure preset through run_sweep at 5x4.

    PYTHONPATH=src python tests/data/make_preset_grid.py

Each preset runs at 5x4 (5 points for the one-axis presets fig7a and fig7b)
with all 22 report columns. Each stored row holds the axis values, the
columns of REPORT_COLUMNS and the stable flag, 350 rows in all, in row-major
order. The file also records one refusal: the hot large-r sweep of REFUSAL,
refused by the conditioning check at grid point 3 (r = 5.75), with its error
type and full message.
tests/test_sweep.py checks run_sweep against the file: axis values and the
stable flag exactly, each measure column within 1e-12 absolute, and the
refusal by type and message.

The file is a regression reference written by the code of its day, not an
independent oracle. Regenerate it only in a change whose CHANGES.md names the
cells that moved and why.
"""

import json
import os
from dataclasses import replace

from cavmag.errors import CavmagError
from cavmag.measures import REPORT_COLUMNS
from cavmag.model import default_params
from cavmag.sweep import FIGURE_IDS, AxisSpec, SweepSpec, figure_preset, run_sweep, with_resolution

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "preset_grid.json")

# parameter overrides on default_params() and the one axis of the refused sweep
REFUSAL = {"params": {"temperature": 2.0}, "axis": ["r", 5.0, 6.0, 5]}


def grid_spec(figure_id: str) -> SweepSpec:
    """The preset at 5x4 (or 5 points) with every report column."""
    spec = figure_preset(figure_id)
    spec = with_resolution(spec, (5, 4)[: len(spec.axes)])
    return replace(spec, quantities=REPORT_COLUMNS)


def refusal_spec() -> SweepSpec:
    return SweepSpec(
        base=default_params().replace(**REFUSAL["params"]),
        axes=(AxisSpec(*REFUSAL["axis"]),),
        quantities=REPORT_COLUMNS,
    )


def main():
    grids = {figure_id: run_sweep(grid_spec(figure_id)).rows for figure_id in FIGURE_IDS}
    try:
        run_sweep(refusal_spec())
    except CavmagError as exc:
        refused = {"error": type(exc).__name__, "message": str(exc)}
    else:
        raise SystemExit("the refusal sweep was not refused")
    payload = {"columns": list(REPORT_COLUMNS), "grids": grids, "refusal": {**REFUSAL, **refused}}
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), allow_nan=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
