"""Write golden_report.json: full_report columns at a fixed set of points.

    PYTHONPATH=src:tests python tests/data/make_golden_report.py

The stored file was written by the per-measure eigenvalue implementation of
full_report (13 eigen-solves per point), before full_report took its measures
from block invariants and one batched spectrum. tests/test_measures.py checks
every column of the current full_report against it at 1e-12. Running this
script again overwrites that reference with the current code's values.

The stored file's last entry, "forced unstable", predates full_report
refusing an unstable drift: it was written with the drift spectrum faked
unstable, when full_report still returned a report of NaN measures. The test
now checks the refusal at that entry, and this script no longer writes it.
"""

import json
import os
from dataclasses import asdict

import numpy as np

from cavmag.measures import REPORT_COLUMNS, full_report
from cavmag.model import default_params
from conftest import random_params

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_report.json")
SEED = 20261018


def sideband(p):
    kc = p.kappa_c
    return p.replace(delta_m=2 * kc, delta_1=-2 * kc, delta_2=2 * kc)


def points():
    """(label, params) for every golden point."""
    rng = np.random.default_rng(SEED)
    base = default_params()
    raised = base.replace(
        kappa_1=5 * base.kappa_1, kappa_2=5 * base.kappa_2, kappa_m=5 * base.kappa_m
    )
    out = [(f"random {i}", random_params(rng)) for i in range(32)]
    out += [(f"stiff {i}", random_params(rng, stiff=True)) for i in range(24)]
    out += [
        ("default", base),
        ("sideband", sideband(base)),
        ("raised-decay sideband", sideband(raised)),
        ("no squeezing", base.replace(r=0.0)),
        ("vacuum", base.replace(r=0.0, temperature=0.0)),
        ("decoupled magnon", base.replace(gamma_1=0.0, gamma_2=0.0)),
        ("hot sideband", sideband(base).replace(temperature=0.4)),
    ]
    return out


def main():
    entries = []
    for label, p in points():
        row = full_report(p).as_dict()
        entries.append({
            "label": label,
            "params": asdict(p),
            "stable": row["stable"],
            "columns": [row[c] for c in REPORT_COLUMNS],
        })
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump({"columns": list(REPORT_COLUMNS), "points": entries}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
