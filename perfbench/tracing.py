"""Span tracing of cavmag's layers from outside the package.

cavmag calls its stages through module globals (``model.drift_matrix``,
``steady_state.stability``, ``numerics.solve_linear``, ...), so rebinding
those attributes to timing wrappers records every call without touching the
package. Each wrapper appends one span (name, start, end, parent) to an
in-memory list and bumps a call counter; per-layer figures are derived from
the spans when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from cavmag import measures, model, numerics, steady_state, sweep

# (module or class, attribute, span name). Two attributes may share a name:
# the library entry point and the alias the sweep engine imported.
SPANNED = (
    (sweep, "apply_axis_value", "model.params"),
    (model, "drift_matrix", "model.drift"),
    (model, "diffusion_matrix", "model.diffusion"),
    (steady_state, "stability", "steady_state.stability"),
    (steady_state, "solve_lyapunov", "steady_state.lyapunov"),
    (numerics, "solve_linear", "numerics.solve_linear"),
    (measures, "log_negativity", "measures.pairwise"),
    (measures, "log_negativity_one_vs_two", "measures.one_vs_two"),
    (measures, "gaussian_steering", "measures.steering"),
    (measures, "symplectic_eigenvalues", "measures.symplectic_eigenvalues"),
    (measures, "full_report", "measures.full_report"),
    (sweep, "full_report", "measures.full_report"),
    (measures.CorrelationReport, "as_dict", "measures.as_dict"),
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep, "write_csv", "sweep.write"),
    (sweep, "write_json", "sweep.write"),
    (sweep, "read_json", "sweep.read"),
)
# Called too often and too cheaply for a span to be worth its cost; counted only.
COUNTED = ((numerics, "eig_general", "numerics.eig_general"),)

# Dense LU of the 36x36 Kronecker system (2/3 n^3) plus its two triangular
# solves (2 n^2); computed from the algorithm, not measured.
LYAPUNOV_FLOPS = 2.0 / 3.0 * 36**3 + 2.0 * 36**2


class Tracer:
    """Records spans and call counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _spanned(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, attr, name in SPANNED:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def totals(self):
        """Total ns per span name, and per parent name the ns of its direct children by name."""
        total = Counter()
        child_ns = {}
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                pname = self.spans[parent][0]
                child_ns.setdefault(pname, Counter())[name] += end - start
        return total, child_ns

    def write(self, path, limit=5000):
        """Write counts and the first ``limit`` spans as JSON."""
        t0 = self.spans[0][1] if self.spans else 0
        payload = {
            "counts": dict(self.counts),
            "spans_total": len(self.spans),
            "spans": [
                [name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans[:limit]
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced phase (µs per grid point unless noted)."""
    total, children = tracer.totals()
    counts = tracer.counts
    points = counts["measures.full_report"]
    if points == 0:
        raise ValueError("traced phase evaluated no point")

    def per_point_us(ns):
        return ns / points / 1e3

    def self_ns(name, only=None):
        kids = children.get(name, Counter())
        covered = sum(v for k, v in kids.items() if only is None or k in only)
        return total[name] - covered

    grids = counts["sweep.run_sweep"]
    writes = counts["sweep.write"]
    reads = counts["sweep.read"]
    return {
        "model.params_us": per_point_us(total["model.params"]),
        "model.drift_us": per_point_us(total["model.drift"]),
        "model.diffusion_us": per_point_us(total["model.diffusion"]),
        "steady_state.stability_us": per_point_us(total["steady_state.stability"]),
        "steady_state.stability_calls": counts["steady_state.stability"] / points,
        "steady_state.lyapunov_us": per_point_us(
            self_ns("steady_state.lyapunov", only={"steady_state.stability"})
        ),
        "steady_state.lyapunov_flops":
            counts["steady_state.lyapunov"] / points * LYAPUNOV_FLOPS,
        "numerics.solve_linear_us": per_point_us(total["numerics.solve_linear"]),
        "numerics.eig_general_calls": counts["numerics.eig_general"] / points,
        "measures.pairwise_us": per_point_us(total["measures.pairwise"]),
        "measures.one_vs_two_us": per_point_us(total["measures.one_vs_two"]),
        "measures.steering_us": per_point_us(total["measures.steering"]),
        "measures.symplectic_eigenvalues_us":
            per_point_us(total["measures.symplectic_eigenvalues"]),
        "measures.symplectic_eigenvalues_calls":
            counts["measures.symplectic_eigenvalues"] / points,
        "measures.full_report_us": per_point_us(total["measures.full_report"]),
        "measures.self_us": per_point_us(self_ns("measures.full_report")),
        "measures.as_dict_us": per_point_us(total["measures.as_dict"]),
        "sweep.self_us": per_point_us(self_ns("sweep.run_sweep")) if grids else 0.0,
        "sweep.write_s": total["sweep.write"] / writes / 1e9 if writes else 0.0,
        "sweep.read_s": total["sweep.read"] / reads / 1e9 if reads else 0.0,
    }
