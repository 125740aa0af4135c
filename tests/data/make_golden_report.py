"""Write golden_report.json: full_report columns at a fixed set of points.

    PYTHONPATH=src:tests python tests/data/make_golden_report.py

The stored file was written by the per-measure eigenvalue implementation of
full_report (13 eigen-solves per point), before full_report took its measures
from block invariants and one batched spectrum. tests/test_measures.py checks
every column of the current full_report against it at 1e-12. Running this
script again overwrites that reference with the current code's values.
"""

import json
import os
from dataclasses import asdict

import numpy as np

from cavmag import measures
from cavmag.measures import REPORT_COLUMNS, full_report
from cavmag.model import default_params
from cavmag.steady_state import StabilityReport
from conftest import random_params

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_report.json")
SEED = 20261018


def sideband(p):
    kc = p.kappa_c
    return p.replace(delta_m=2 * kc, delta_1=-2 * kc, delta_2=2 * kc)


def points():
    """(label, params, forced_unstable) for every golden point."""
    rng = np.random.default_rng(SEED)
    base = default_params()
    raised = base.replace(
        kappa_1=5 * base.kappa_1, kappa_2=5 * base.kappa_2, kappa_m=5 * base.kappa_m
    )
    out = [(f"random {i}", random_params(rng), False) for i in range(32)]
    out += [(f"stiff {i}", random_params(rng, stiff=True), False) for i in range(24)]
    out += [
        ("default", base, False),
        ("sideband", sideband(base), False),
        ("raised-decay sideband", sideband(raised), False),
        ("no squeezing", base.replace(r=0.0), False),
        ("vacuum", base.replace(r=0.0, temperature=0.0), False),
        ("decoupled magnon", base.replace(gamma_1=0.0, gamma_2=0.0), False),
        ("hot sideband", sideband(base).replace(temperature=0.4), False),
        ("forced unstable", base, True),
    ]
    return out


def report_row(p, forced_unstable):
    if not forced_unstable:
        return full_report(p).as_dict()
    fake = StabilityReport(max_real_part=1.0, spectrum=np.ones(6, dtype=complex), stable=False)
    saved = measures.steady_state.stability
    measures.steady_state.stability = lambda m: fake
    try:
        return full_report(p).as_dict()
    finally:
        measures.steady_state.stability = saved


def main():
    entries = []
    for label, p, forced in points():
        row = report_row(p, forced)
        entries.append({
            "label": label,
            "params": asdict(p),
            "forced_unstable": forced,
            "stable": row["stable"],
            "columns": [None if np.isnan(row[c]) else row[c] for c in REPORT_COLUMNS],
        })
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump({"columns": list(REPORT_COLUMNS), "points": entries}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
