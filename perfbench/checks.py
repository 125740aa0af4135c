"""Correctness gate for every row the benchmark produces.

Three parts:

* every row: values finite, point stable, Heisenberg bound, non-negative
  negativities and steering (``row_problems``);
* sampled rows: an oracle that does not use the production solver or
  measures. It solves the Lyapunov equation with SciPy's Bartels-Stewart
  routine, evaluates the pairwise negativities and the Renyi-2 steering in
  closed form from 2x2 block determinants, and the one-vs-two negativities
  and residual contangles from a symmetric eigenproblem
  (``oracle_problems``);
* serialized grids: the JSON round trip is exact and the CSV has the
  expected header and row count (``csv_problems``, ``round_trip_problems``).

Each function returns a list of human-readable problems; empty means pass.

Monogamy (``r_tau_min >= -1e-9``) is counted, not failed
(``below_monogamy``). The squared logarithmic negativity is not monogamous
on every mixed three-mode state: at some weakly entangled points the exact
residual contangle is slightly negative. One such point, recomputed from its
drift and diffusion matrices at 50 significant digits, is a physical state
(every symplectic eigenvalue above 1/2) whose residual contangle is
-1.4738e-7, the value the package reports to ten digits. The oracle checks
that the residual contangles are computed right; whether they are
non-negative is a property of the state.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cholesky, eigh, solve_continuous_lyapunov

# Bound at import time, so a tracer rebinding the module attributes does not
# see the oracle's calls.
from cavmag.model import diffusion_matrix, drift_matrix

NU_ATOL = 1e-6
MONOGAMY_FLOOR = -1e-9
ORACLE_ATOL = 1e-9

_MODE = {"m": 0, "c1": 1, "c2": 2}
# column -> (mode a, mode b) for negativities, (steerer, steered) for steering
PAIR_COLUMNS = {"e_n_c1c2": ("c1", "c2"), "e_n_mc1": ("m", "c1"), "e_n_mc2": ("m", "c2")}
# column -> (focus mode, its two pairwise negativity columns)
ONE_VS_TWO_COLUMNS = {
    "e_n_m_vs_c1c2": ("m", ("e_n_mc1", "e_n_mc2")),
    "e_n_c1_vs_mc2": ("c1", ("e_n_mc1", "e_n_c1c2")),
    "e_n_c2_vs_mc1": ("c2", ("e_n_mc2", "e_n_c1c2")),
}
STEERING_COLUMNS = {
    "zeta_c1_c2": ("c1", "c2"), "zeta_c2_c1": ("c2", "c1"),
    "zeta_m_c1": ("m", "c1"), "zeta_c1_m": ("c1", "m"),
    "zeta_m_c2": ("m", "c2"), "zeta_c2_m": ("c2", "m"),
}


def row_problems(row: dict) -> list:
    """Gate applied to every row: a column name -> value mapping."""
    problems = []
    if row.get("stable") is not True:
        problems.append("point is not stable")
    for name, value in row.items():
        if name == "stable":
            continue
        if not math.isfinite(value):
            problems.append(f"{name} is not finite ({value})")
        elif name.startswith(("e_n_", "zeta_")) and value < 0.0:
            problems.append(f"{name} is negative ({value})")
    if "nu_min" in row and not row["nu_min"] >= 0.5 - NU_ATOL:
        problems.append(f"nu_min {row['nu_min']} below 1/2")
    return problems


def below_monogamy(row: dict) -> bool:
    """True when the row's minimal residual contangle is below the floor."""
    return "r_tau_min" in row and not row["r_tau_min"] >= MONOGAMY_FLOOR


_OMEGA3 = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def _block(v, a, b):
    i, j = 2 * _MODE[a], 2 * _MODE[b]
    return v[i:i + 2, j:j + 2]


def _det2(x):
    return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]


def _pair_invariants(v, a, b):
    """det A, det B, det C and det of the two-mode CM (Schur complement)."""
    blk_a, blk_b, blk_c = _block(v, a, a), _block(v, b, b), _block(v, a, b)
    det_a = _det2(blk_a)
    inv_a = np.array([[blk_a[1, 1], -blk_a[0, 1]], [-blk_a[1, 0], blk_a[0, 0]]]) / det_a
    det_total = det_a * _det2(blk_b - blk_c.T @ inv_a @ blk_c)
    return det_a, _det2(blk_b), _det2(blk_c), det_total


def _one_vs_two(v, focus):
    """Negativity of ``focus`` against the other two modes.

    The partial transpose flips the focus mode's second quadrature. The
    squared symplectic eigenvalues of the result W = L L^T are the
    eigenvalues of the symmetric L^T Omega^T W Omega L, each twice; a
    one-vs-two split has at most one of them below 1/4.
    """
    flip = np.ones(6)
    flip[2 * _MODE[focus] + 1] = -1.0
    w = v * np.outer(flip, flip)
    low = cholesky(w, lower=True)
    nu_sq = eigh(low.T @ _OMEGA3.T @ w @ _OMEGA3 @ low, eigvals_only=True)
    return max(0.0, -0.5 * math.log(4.0 * nu_sq[0]))


def oracle_values(p) -> dict:
    """Negativities, residual contangles and steering at ``p`` from an independent route."""
    v = solve_continuous_lyapunov(drift_matrix(p), -diffusion_matrix(p))
    v = 0.5 * (v + v.T)
    out = {}
    for column, (a, b) in PAIR_COLUMNS.items():
        det_a, det_b, det_c, det_v = _pair_invariants(v, a, b)
        # smallest symplectic eigenvalue of the partial transpose, squared
        delta = det_a + det_b - 2.0 * det_c
        eta_sq = 0.5 * (delta - math.sqrt(max(delta * delta - 4.0 * det_v, 0.0)))
        out[column] = max(0.0, -0.5 * math.log(4.0 * eta_sq))
    for column, (focus, pairs) in ONE_VS_TWO_COLUMNS.items():
        out[column] = _one_vs_two(v, focus)
        out[f"r_tau_{focus}"] = out[column] ** 2 - sum(out[c] ** 2 for c in pairs)
    smallest = min(out[f"r_tau_{focus}"] for focus in _MODE)
    out["r_tau_min"] = smallest if smallest < MONOGAMY_FLOOR else max(0.0, smallest)
    for column, (a, b) in STEERING_COLUMNS.items():
        det_a, _, _, det_v = _pair_invariants(v, a, b)
        # 1/2 ln det(2 V_a) - 1/2 ln det(2 V_ab) with 2x2 and 4x4 scalings
        out[column] = max(0.0, 0.5 * math.log(det_a / (4.0 * det_v)))
    return out


def oracle_problems(p, row: dict) -> list:
    """Compare the row's negativities, residual contangles and steering with the oracle."""
    expected = oracle_values(p)
    problems = []
    for column, want in expected.items():
        if column in row and not abs(row[column] - want) <= ORACLE_ATOL:
            problems.append(f"{column} = {row[column]!r}, oracle {want!r}")
    return problems


def csv_problems(path, columns, n_rows) -> list:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    problems = []
    if lines[0] != ",".join(columns):
        problems.append(f"CSV header {lines[0]!r} != {','.join(columns)!r}")
    if lines[-1] != "" or len(lines) - 2 != n_rows:
        problems.append(f"CSV has {len(lines) - 2} data lines, expected {n_rows}")
    return problems


def round_trip_problems(written, read_back) -> list:
    if read_back == written:
        return []
    return ["read_json round trip differs from the written result"]
