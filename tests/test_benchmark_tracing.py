"""The benchmark tracer rebinds named attributes of cavmag's modules; each
must exist, or a traced benchmark run fails before it times anything."""

import importlib.util
from pathlib import Path

import pytest

from cavmag import measures
from cavmag.model import default_params
from cavmag.sweep import figure_preset, run_sweep, with_resolution

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in tracing.SPANNED + tracing.COUNTED],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_traced_attribute_exists(owner, attr):
    assert callable(getattr(owner, attr))


def test_full_report_solves_the_drift_spectrum_once():
    # r leaves the drift as it is, so a sequence of three r values is one
    # drift group; a new delta_1 is a new drift
    with tracing.Tracer() as tracer:
        measures.full_report([default_params().replace(r=r) for r in (0.2, 0.5, 0.8)])
    assert tracer.counts["steady_state.stability"] == 1
    assert tracer.counts["numerics.eig_general"] == 1
    base = default_params()
    with tracing.Tracer() as tracer:
        for delta_1 in (0.5, 1.0, 1.5):
            measures.full_report(base.replace(delta_1=delta_1 * base.kappa_1))
    assert tracer.counts["steady_state.stability"] == 3
    assert tracer.counts["numerics.eig_general"] == 3


def test_traced_serial_sweep_counts_each_layer():
    # the per-layer figures are counted through these names: a point of a
    # two-axis grid builds its parameters twice and gives one row, and the
    # sweep's one chunk (a grid of fewer than 64 points is one chunk) takes
    # one full_report call
    spec = with_resolution(figure_preset("fig4a"), (3, 3))
    with tracing.Tracer() as tracer:
        run_sweep(spec, workers=1)
    assert tracer.counts["measures.full_report"] == 1
    assert tracer.counts["model.params"] == 18
    assert tracer.counts["measures.as_dict"] == 9
    metrics = tracing.layer_metrics(tracer)
    assert metrics["measures.full_report_us"] > 0.0
