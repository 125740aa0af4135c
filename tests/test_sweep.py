import concurrent.futures
import json
import os
import re
import textwrap
import time
from dataclasses import replace

import numpy as np
import pytest

import cavmag.measures as measures
import cavmag.sweep as sweep_mod
from cavmag import steady_state
from cavmag.errors import (
    CavmagError,
    DomainError,
    NumericalError,
    PhysicalityError,
    StabilityError,
    ValidationError,
)
from cavmag.measures import REPORT_COLUMNS, full_report
from cavmag.model import default_params
from cavmag.sweep import (
    AXES,
    AxisSpec,
    FIGURE_IDS,
    SweepSpec,
    apply_axis_value,
    figure_preset,
    read_json,
    run_sweep,
    with_resolution,
    write_csv,
    write_json,
)
from conftest import KAPPA_C, count_lapack, linalg_calls, run_python


def small_spec(**kwargs):
    defaults = dict(
        base=default_params(),
        axes=(AxisSpec("r", 0.0, 0.4, 2),),
        quantities=("e_n_c1c2",),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def set_cell(row, index, value):
    """A damage to a grid payload: value in one cell."""
    def damage(payload):
        payload["rows"][row][index] = value
    return damage


class TestSpecValidation:
    def test_valid_spec(self):
        spec = small_spec()
        assert spec.size == 2
        assert spec.columns == ("r", "e_n_c1c2", "stable")

    def test_invalid_fields_are_listed(self):
        with pytest.raises(ValidationError) as err:
            SweepSpec(
                base=default_params(),
                axes=(
                    AxisSpec("bogus", 1.0, 0.0, 1),
                    AxisSpec("r", 0.0, 1.0, 11),
                    AxisSpec("r", 0.0, 1.0, 11),
                ),
                quantities=("nope", "e_n_c1c2", "e_n_c1c2"),
            )
        message = str(err.value)
        for fragment in ("bogus", "count", "start", "distinct", "nope", "1 or 2"):
            assert fragment in message
        assert (
            "quantities: names must be distinct, got ['nope', 'e_n_c1c2', 'e_n_c1c2']" in message
        )

    def test_unhashable_axis_parameter_is_listed(self):
        # a list parameter once escaped as a bare TypeError: unhashable type
        with pytest.raises(ValidationError) as err:
            SweepSpec(
                base=default_params(),
                axes=(AxisSpec(["r"], 0, 1, 3), AxisSpec(["r"], 0, 1, 3)),
                quantities=("nope",),
            )
        problems = str(err.value).removeprefix("invalid sweep spec: ").split("; ")
        unknown = f"axes.parameter: ['r'] not one of {sorted(AXES)}"
        assert problems == [
            f"{unknown} (axis 0, ['r'])",
            f"{unknown} (axis 1, ['r'])",
            "axes: parameters must be distinct, got [['r'], ['r']]",
            "quantities: unknown quantity 'nope'",
        ]

    def test_doubled_stability_map_rejected(self):
        # ("lambda_max",) maps stability; doubled, it once took the
        # steady-state path, which refuses unstable points
        message = "quantities: names must be distinct, got ['lambda_max', 'lambda_max']"
        with pytest.raises(ValidationError, match=re.escape(message)):
            small_spec(quantities=("lambda_max", "lambda_max"))

    @pytest.mark.parametrize("count", [3.5, 3.0, True, "3"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValidationError, match="axes.count: must be an integer"):
            small_spec(axes=(AxisSpec("r", 0.0, 1.0, count),))

    @pytest.mark.parametrize("start, stop", [
        ("0.2", "2.2"), ("10", "9"), (0.0, True), (float("nan"), 1.0),
        (0.0, float("inf")), (None, 1.0),
    ])
    def test_non_numeric_or_infinite_bounds_rejected(self, start, stop):
        # string bounds passed as a string comparison and failed later in
        # numpy; "10" < "9" holds as strings
        with pytest.raises(ValidationError, match="must be a finite number") as err:
            small_spec(axes=(AxisSpec("r", start, stop, 3),))
        assert "must be < stop" not in str(err.value)

    def test_overflowing_width_rejected(self):
        # -1e308 to 1e308 was accepted, and values() gave [nan, inf, 1e308]
        # with two numpy RuntimeWarnings
        with pytest.raises(ValidationError) as err:
            small_spec(axes=(AxisSpec("delta_1", -1e308, 1e308, 3),))
        assert str(err.value) == (
            "invalid sweep spec: axes.range: stop 1e+308 - start -1e+308 must be a finite "
            "number (axis 0, delta_1)"
        )
        # a window just inside the float range is accepted, with finite values
        spec = small_spec(axes=(AxisSpec("delta_1", -8e307, 8e307, 3),))
        assert spec.axes[0].values().tolist() == [-8e307, 0.0, 8e307]

    def test_numpy_integer_count_accepted(self, tmp_path):
        spec = small_spec(axes=(AxisSpec("r", 0.0, 1.0, np.int64(3)),))
        assert spec.size == 3
        result = run_sweep(spec)
        path = tmp_path / "grid.json"
        write_json(result, path)
        assert read_json(path) == result

    def test_empty_quantities_rejected(self):
        with pytest.raises(ValidationError):
            small_spec(quantities=())

    def test_axis_values(self):
        ax = AxisSpec("temperature", 0.0, 1.0, 5)
        assert np.array_equal(ax.values(), [0.0, 0.25, 0.5, 0.75, 1.0])


class TestAxisApplication:
    def test_detunings_are_kappa_c_normalized(self):
        p = apply_axis_value(default_params(), "delta_1", 2.0)
        assert p.delta_1 == 2.0 * KAPPA_C
        p = apply_axis_value(default_params(), "delta_m", -1.5)
        assert p.delta_m == -1.5 * KAPPA_C

    def test_ratios_hold_first_mode_fixed(self):
        base = default_params()
        p = apply_axis_value(base, "gamma_ratio", 0.5)
        assert p.gamma_1 == base.gamma_1
        assert p.gamma_2 == 0.5 * base.gamma_1
        p = apply_axis_value(base, "kappa_ratio", 1.5)
        assert p.kappa_1 == base.kappa_1
        assert p.kappa_2 == 1.5 * base.kappa_1

    def test_plain_axes(self):
        assert apply_axis_value(default_params(), "r", 0.7).r == 0.7
        assert apply_axis_value(default_params(), "temperature", 0.3).temperature == 0.3

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError, match="bogus"):
            apply_axis_value(default_params(), "bogus", 1.0)
        # a list once raised a bare TypeError: unhashable type: 'list'
        with pytest.raises(ValidationError, match=re.escape("unknown axis parameter ['r']")):
            apply_axis_value(default_params(), ["r"], 0.5)


class TestRunSweep:
    def test_squeezing_endpoints(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 2
        r0, r04 = result.rows
        assert r0[0] == 0.0 and r0[1] == 0.0  # no squeezing, no entanglement
        assert r04[0] == 0.4 and r04[1] > 0.0
        assert r0[-1] is True and r04[-1] is True

    def test_row_major_ordering(self):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("r", 0.0, 1.0, 2), AxisSpec("temperature", 0.0, 2.0, 3)),
            quantities=("e_n_c1c2",),
        )
        result = run_sweep(spec)
        coords = [(row[0], row[1]) for row in result.rows]
        assert coords == [
            (0.0, 0.0), (0.0, 1.0), (0.0, 2.0),
            (1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
        ]

    def test_grid_accessor(self):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("r", 0.0, 1.0, 2), AxisSpec("temperature", 0.0, 2.0, 3)),
            quantities=("e_n_c1c2",),
        )
        grid = run_sweep(spec).grid("e_n_c1c2")
        assert grid.shape == (2, 3)
        assert np.all(grid[0, :] == 0.0)

    def test_shared_drift_rows_match_cold_solves(self, monkeypatch):
        # an r x T sweep has one drift: each of the 3 chunks of a 5x5 grid
        # solves its spectrum and operator once for all of the chunk's
        # points, and each cell is the one a solve from scratch gives, to
        # the last bit
        spec = replace(with_resolution(figure_preset("fig4a"), (5, 5)), quantities=REPORT_COLUMNS)
        real_stability = steady_state.stability
        warm_solves = []

        def counted(m):
            warm_solves.append(m)
            return real_stability(m)

        monkeypatch.setattr(steady_state, "stability", counted)
        warm = run_sweep(spec).rows
        assert len(warm_solves) == 3
        monkeypatch.setattr(steady_state, "stability", real_stability)
        real_report = sweep_mod.full_report

        def cold_report(points, **kwargs):
            return [report for params in points for report in real_report([params], **kwargs)]

        monkeypatch.setattr(sweep_mod, "full_report", cold_report)
        cold = run_sweep(spec).rows
        assert len(warm) == len(cold) == 25
        for warm_row, cold_row in zip(warm, cold):
            assert warm_row[-1] is cold_row[-1]
            assert [x.hex() for x in warm_row[:-1]] == [x.hex() for x in cold_row[:-1]]

    def test_parallel_matches_serial(self):
        spec = with_resolution(figure_preset("fig4a"), (5, 5))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.rows == parallel.rows
        assert serial == parallel

    @pytest.mark.parametrize(
        "workers, message",
        [
            (0, "workers must be >= 1, got 0"),
            (-1, "workers must be >= 1, got -1"),
            (2.5, "workers must be an integer, got 2.5"),
            (True, "workers must be an integer, got True"),
        ],
    )
    def test_invalid_worker_count_is_refused_before_any_point(
        self, monkeypatch, workers, message
    ):
        # 0 and -1 once ran serially, 2.5 failed as a bare TypeError and
        # True ran as one worker
        def refuse(points, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(sweep_mod, "full_report", refuse)
        spec = with_resolution(figure_preset("fig4a"), (3, 3))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_sweep(spec, workers=workers)

    def test_stability_map_skips_the_steady_state(self, monkeypatch):
        spec = with_resolution(figure_preset("fig8a"), (9, 9))

        def expected_row(flat_index):
            i, j = np.unravel_index(flat_index, spec.shape)
            values = [float(ax.values()[k]) for ax, k in zip(spec.axes, (i, j))]
            p = spec.base
            for ax, value in zip(spec.axes, values):
                p = apply_axis_value(p, ax.parameter, value)
            flat = full_report(p).as_dict()
            return values + [flat["lambda_max"], flat["stable"]]

        expected = [expected_row(i) for i in range(spec.size)]

        def refuse(points, **kwargs):
            raise AssertionError("full_report called by a lambda_max-only sweep")

        monkeypatch.setattr(sweep_mod, "full_report", refuse)
        assert run_sweep(spec).rows == expected

    def test_axis_values_built_once_per_sweep(self, monkeypatch):
        calls = []
        real_values = AxisSpec.values
        monkeypatch.setattr(
            AxisSpec, "values", lambda ax: calls.append(ax) or real_values(ax)
        )
        # 16 points make 2 chunks, so 2 workers run a pool
        spec = with_resolution(figure_preset("fig4a"), (4, 4))
        for workers in (1, 2):
            calls.clear()
            run_sweep(spec, workers=workers)
            assert calls == list(spec.axes), workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_failure_names_its_grid_location(self, monkeypatch, workers):
        # 27 points make 3 chunks, so 2 workers run a pool
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("r", 0.0, 1.0, 3), AxisSpec("temperature", 0.0, 2.0, 9)),
            quantities=("e_n_c1c2",),
        )
        real_report = sweep_mod.full_report

        def fail_at_centre(points, **kwargs):
            if any(params.r == 0.5 and params.temperature == 1.0 for params in points):
                raise PhysicalityError("synthetic failure")
            return real_report(points, **kwargs)

        monkeypatch.setattr(sweep_mod, "full_report", fail_at_centre)
        with pytest.raises(PhysicalityError) as info:
            run_sweep(spec, workers=workers)
        message = str(info.value)
        assert "synthetic failure" in message
        assert "grid point 13, indices (1, 4): r = 0.5, temperature = 1.0" in message

    def test_parallel_failure_cancels_the_chunks_not_started(self, monkeypatch, tmp_path):
        # 128 points in 16 chunks of 8; the first point fails at once and
        # every other point takes 20 ms, so a pool that finished its queued
        # chunks before raising would evaluate nearly all of them
        spec = small_spec(axes=(AxisSpec("r", 0.0, 1.0, 128),))
        log = tmp_path / "evaluated.txt"

        def fail_first(points, **kwargs):
            if any(params.r == 0.0 for params in points):
                raise PhysicalityError("synthetic failure")
            for params in points:
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(f"{params.r!r}\n")
                time.sleep(0.02)
            return full_report(points, **kwargs)

        monkeypatch.setattr(sweep_mod, "full_report", fail_first)
        with pytest.raises(PhysicalityError, match="grid point 0, indices \\(0,\\)"):
            run_sweep(spec, workers=2)
        evaluated = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        assert len(evaluated) < spec.size // 2, len(evaluated)

    def test_parallel_failure_of_any_type_ends_the_sweep(self):
        # a child process, so a pool that hangs on shutdown fails this test
        # at the timeout instead of stalling the suite
        code = textwrap.dedent("""
            import cavmag.sweep as sweep_mod
            from cavmag.model import default_params
            from cavmag.sweep import AxisSpec, SweepSpec, run_sweep

            def fail(points, **kwargs):
                raise ValueError(f"synthetic failure at r = {points[0].r}")

            sweep_mod.full_report = fail
            spec = SweepSpec(base=default_params(),
                             axes=(AxisSpec("r", 0.0, 1.0, 64),),
                             quantities=("e_n_c1c2",))
            run_sweep(spec, workers=2)
        """)
        proc = run_python("-c", code)
        assert proc.returncode == 1, proc.stderr
        assert "ValueError: synthetic failure at r = " in proc.stderr

    def test_late_refusal_is_raised_before_a_later_instability(self):
        # no fakes: point 0 (r = 9 at 2 K) is refused by the conditioning
        # check of the measures and point 1, in the same chunk of eight, by
        # the stability check, which the chunk's stacked evaluation reaches
        # first; the sweep raises point 0's refusal, as one point at a time
        base = default_params().replace(r=9.0, temperature=2.0)
        spec = small_spec(base=base, axes=(AxisSpec("gamma_ratio", 1.0, 1.5e17, 16),))
        first, second = (
            apply_axis_value(base, "gamma_ratio", x) for x in spec.axes[0].values()[:2]
        )
        with pytest.raises(StabilityError):
            full_report(second)
        with pytest.raises(NumericalError) as alone:
            full_report(first)
        with pytest.raises(NumericalError) as info:
            run_sweep(spec)
        where = "[at grid point 0, indices (0,): gamma_ratio = 1.0]"
        assert str(info.value) == f"{alone.value} {where}"

    def test_failing_point_is_evaluated_once_per_retry(self, monkeypatch):
        # the chunk's stack of eight, the point alone in full_report's retry,
        # and once more in the sweep's retry, which gives the grid location;
        # a sequence of one is not retried inside full_report
        sizes = []
        real_reports = measures._reports

        def recorded(points, stages):
            sizes.append(len(points))
            return real_reports(points, stages)

        monkeypatch.setattr(measures, "_reports", recorded)
        base = default_params().replace(r=9.0, temperature=2.0)
        spec = small_spec(base=base, axes=(AxisSpec("gamma_ratio", 1.0, 1.5e17, 16),))
        with pytest.raises(NumericalError, match=re.escape("[at grid point 0, ")):
            run_sweep(spec)
        assert sizes == [8, 1, 1]

    def test_squeezing_beyond_the_float_range_names_its_grid_point(self):
        # math.sinh overflows from r = 710.48; the sweep once raised a bare
        # OverflowError with no grid location
        spec = small_spec(axes=(AxisSpec("r", 0.0, 2000.0, 3),))
        with pytest.raises(DomainError) as info:
            run_sweep(spec)
        message = str(info.value)
        assert message.startswith("d contains non-finite entries [at parameter point ")
        assert message.endswith("[at grid point 1, indices (1,): r = 1000.0]")
        # at a tiny omega_m the thermal occupation is inf at every point,
        # where it once raised a bare ZeroDivisionError
        spec = small_spec(base=default_params().replace(omega_m=1e-300))
        with pytest.raises(DomainError) as info:
            run_sweep(spec)
        message = str(info.value)
        assert message.startswith("d contains non-finite entries [at parameter point ")
        assert message.endswith("[at grid point 0, indices (0,): r = 0.0]")

    def test_lapack_calls_per_chunk(self, monkeypatch):
        # a serial 5x5 sweep runs 3 chunks (8, 8 and 9 points), one call of
        # each per chunk and one drift spectrum per chunk for the shared
        # drift, where one call per point made 25 of each; the stacked
        # spectra hold V's alone unless a column reads the one-vs-two splits
        shapes = []
        calls = count_lapack(monkeypatch, shapes)

        def spectra_shapes():
            return [shape for name, shape in shapes if name == "eigvals" and len(shape) == 4]

        run_sweep(with_resolution(figure_preset("fig4a"), (5, 5)), workers=1)
        assert linalg_calls(calls) == {}
        assert calls == {"solve": 3, "eigvalsh": 3, "det": 3, "eigvals": 6}
        assert spectra_shapes() == [(8, 1, 6, 6), (8, 1, 6, 6), (9, 1, 6, 6)]
        shapes.clear()
        run_sweep(with_resolution(figure_preset("fig5a"), (5, 5)), workers=1)
        assert spectra_shapes() == [(8, 4, 6, 6), (8, 4, 6, 6), (9, 4, 6, 6)]

    # every preset, then each column alone on fig5a, so a column on the
    # wrong side of the one-vs-two stage differs from the full report
    @pytest.mark.parametrize("figure_id, quantities", [
        *(pytest.param(figure_id, None, id=figure_id) for figure_id in FIGURE_IDS),
        *(pytest.param("fig5a", (q,), id=f"fig5a-{q}") for q in REPORT_COLUMNS),
    ])
    def test_cells_match_points_one_at_a_time(self, figure_id, quantities):
        spec = figure_preset(figure_id)
        if quantities is None:
            # 16 points make 2 chunks, so 2 workers run a pool
            spec = with_resolution(spec, (4, 4) if len(spec.axes) == 2 else (16,))
        else:
            spec = replace(with_resolution(spec, (3, 3)), quantities=quantities)
        expected = []
        for index in np.ndindex(spec.shape):
            values = [float(ax.values()[i]) for ax, i in zip(spec.axes, index)]
            p = spec.base
            for ax, value in zip(spec.axes, values):
                p = apply_axis_value(p, ax.parameter, value)
            report = full_report(p).as_dict()
            expected.append(values + [report[q] for q in spec.quantities] + [report["stable"]])
        for workers in (1, 2):
            rows = run_sweep(spec, workers=workers).rows
            assert len(rows) == len(expected)
            for row, want in zip(rows, expected):
                assert row[-1] is want[-1]
                assert [x.hex() for x in row[:-1]] == [x.hex() for x in want[:-1]], workers

    def test_progress_reported(self):
        spec = with_resolution(figure_preset("fig4a"), (4, 4))
        for workers in (1, 2):
            calls = []
            run_sweep(spec, workers=workers,
                      progress=lambda done, total: calls.append((done, total)))
            done = [d for d, _ in calls]
            assert all(a < b for a, b in zip(done, done[1:])), (workers, calls)
            assert all(total == 16 for _, total in calls), (workers, calls)
            assert calls[-1] == (16, 16), (workers, calls)

    @pytest.mark.parametrize("shape, workers, done", [
        ((9,), 1, [9]),
        ((5, 5), 1, [8, 16, 25]),
        ((64,), 2, [8, 16, 24, 32, 40, 48, 56, 64]),
        ((101, 101), 1, [1275, 2550, 3825, 5100, 6375, 7650, 8925, 10201]),
    ])
    def test_chunk_bounds(self, monkeypatch, shape, workers, done):
        # at most 8 chunks per worker and at least 8 points per chunk, so
        # each chunk's drift stage is shared by 8 or more points
        class Report:
            def as_dict(self):
                return dict.fromkeys(("e_n_c1c2", "stable"), 0.0)

        monkeypatch.setattr(sweep_mod, "full_report",
                            lambda points, **kwargs: [Report() for _ in points])
        spec = small_spec(axes=tuple(AxisSpec(name, 0.0, 1.0, n)
                                     for name, n in zip(("r", "temperature"), shape)))
        calls = []
        run_sweep(spec, workers=workers, progress=lambda d, total: calls.append((d, total)))
        assert calls == [(d, spec.size) for d in done]

    @pytest.mark.parametrize("size, workers, pool", [
        (16, 5000, 2), (9, 5000, None), (64, 3, 3), (25, 2, 2),
    ])
    def test_pool_has_at_most_one_worker_per_chunk(self, monkeypatch, size, workers, pool):
        # a fork-started pool starts all of its processes at the first
        # submit, so 5000 workers on 2 chunks once forked 5000 processes
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = small_spec(axes=(AxisSpec("r", 0.0, 1.0, size),))
        result = run_sweep(spec, workers=workers)
        assert started == ([] if pool is None else [pool])
        assert result == run_sweep(spec)


class TestFigurePresets:
    def test_all_ids_build_and_validate(self):
        for fid in FIGURE_IDS:
            spec = figure_preset(fid)
            assert spec.size >= 2
            assert spec.description

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ValidationError, match="fig2a"):
            figure_preset("fig9z")

    @pytest.mark.parametrize("figure_id", [["fig4a"], {"fig4a": 1}])
    def test_id_that_is_not_a_string_is_refused(self, figure_id):
        # a list once ended in a bare TypeError: unhashable type
        with pytest.raises(ValidationError, match="unknown figure id .*valid ids: fig2a"):
            figure_preset(figure_id)

    def test_preset_fixed_parameter_table(self):
        kc = KAPPA_C
        base = default_params()
        sideband = {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc}
        d1, d2, dm = (("delta_1", -6.0, 6.0, 101), ("delta_2", -6.0, 6.0, 101),
                      ("delta_m", -6.0, 6.0, 101))
        r, gamma_ratio = ("r", 0.0, 1.0, 101), ("gamma_ratio", 0.0, 2.0, 101)
        cold = ("temperature", 0.02, 0.52, 101)
        cc, mc = ("e_n_c1c2",), ("e_n_mc1", "e_n_mc2", "e_n_mc_max")
        tripartite = ("r_tau_min", "r_tau_m", "r_tau_c1", "r_tau_c2")
        steering_cc = ("zeta_c1_c2", "zeta_c2_c1", "zeta_s_c1c2", "e_n_c1c2")
        steering_all = ("zeta_c1_c2", "zeta_c2_c1", "zeta_m_c1", "zeta_c1_m", "zeta_m_c2",
                        "zeta_c2_m", "zeta_s_c1c2", "e_n_c1c2", "e_n_mc1", "e_n_mc2")
        # (figure id, fixed overrides, axes as (parameter, start, stop, count), quantities)
        table = [
            ("fig2a", {}, (d1, d2), cc),
            ("fig2b", {}, (d1, dm), cc),
            ("fig2c", {"delta_m": 2 * kc}, (d1, d2), mc),
            ("fig2d", {"delta_2": 2 * kc}, (d1, dm), mc),
            ("fig3a", {}, (r, gamma_ratio), cc),
            ("fig3b", sideband, (r, gamma_ratio), mc),
            ("fig4a", {}, (r, ("temperature", 0.02, 3.02, 101)), cc),
            ("fig4b", sideband, (r, cold), mc),
            ("fig5a", {"delta_m": 2 * kc}, (d1, d2), tripartite),
            ("fig5b", {"delta_2": 2 * kc}, (d1, dm), tripartite),
            ("fig5c", sideband, (r, cold), tripartite),
            ("fig5d", sideband, (r, gamma_ratio), tripartite),
            ("fig6a", {}, (d1, dm), steering_all),
            ("fig6b", sideband, (r, cold), steering_all),
            ("fig6c", sideband, (r, gamma_ratio), steering_all),
            ("fig7a", {}, (("gamma_ratio", 0.2, 2.2, 401),), steering_cc),
            ("fig7b", {}, (("kappa_ratio", 0.2, 2.2, 401),), steering_cc),
            ("fig8a", {}, (("delta_1", -10.0, 10.0, 101), ("delta_2", -10.0, 10.0, 101)),
             ("lambda_max",)),
            ("fig8b", {}, (("delta_1", -10.0, 10.0, 101), ("delta_m", -10.0, 10.0, 101)),
             ("lambda_max",)),
        ]
        assert sorted(fid for fid, *_ in table) == sorted(FIGURE_IDS)
        for fid, overrides, axes, quantities in table:
            spec = figure_preset(fid)
            assert spec.base == base.replace(**overrides), fid
            assert tuple((ax.parameter, ax.start, ax.stop, ax.count) for ax in spec.axes) == axes, fid
            assert spec.quantities == quantities, fid

    def test_detuning_windows(self):
        for fid in ("fig2a", "fig2b", "fig2c", "fig2d", "fig5a", "fig5b", "fig6a"):
            for ax in figure_preset(fid).axes:
                assert (ax.start, ax.stop) == (-6.0, 6.0), fid
        for fid in ("fig8a", "fig8b"):
            for ax in figure_preset(fid).axes:
                assert (ax.start, ax.stop) == (-10.0, 10.0), fid
        for fid in ("fig7a", "fig7b"):
            (ax,) = figure_preset(fid).axes
            assert (ax.start, ax.stop) == (0.2, 2.2), fid
            # the default 401-point grid must contain the symmetric point
            assert np.abs(ax.values() - 1.0).min() < 1e-12, fid

    def test_with_resolution(self):
        spec = with_resolution(figure_preset("fig4a"), (11, 11))
        assert spec.size == 121
        with pytest.raises(ValidationError):
            with_resolution(spec, (5,))

    @pytest.mark.parametrize("count", [3.7, "5"])
    def test_with_resolution_refuses_non_integer_counts(self, count):
        # an int() of the count once turned 3.7 into 3 and "5" into 5
        with pytest.raises(ValidationError, match="axes.count: must be an integer"):
            with_resolution(figure_preset("fig4a"), (count, 4))


class TestSerialization:
    def test_csv_shape_and_header(self, tmp_path):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("r", 0.0, 1.0, 2), AxisSpec("temperature", 0.0, 1.0, 2)),
            quantities=("e_n_c1c2", "lambda_max"),
        )
        result = run_sweep(spec)
        path = tmp_path / "grid.csv"
        write_csv(result, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "r,temperature,e_n_c1c2,lambda_max,stable"
        assert len(lines) == 1 + 4 + 1  # header + rows + trailing newline
        assert lines[-1] == ""
        assert lines[1].endswith(",true")

    def test_csv_floats_round_trip_at_17_digits(self, tmp_path):
        result = run_sweep(small_spec())
        path = tmp_path / "grid.csv"
        write_csv(result, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        for line, row in zip(lines, result.rows):
            cells = line.split(",")
            for text, value in zip(cells[:-1], row[:-1]):
                assert float(text) == value

    def test_csv_uses_lf_only(self, tmp_path):
        result = run_sweep(small_spec())
        path = tmp_path / "grid.csv"
        write_csv(result, path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    @pytest.mark.parametrize("figure_id", ["fig3a", "fig3b", "fig6c"])
    def test_no_negative_zero_cell(self, tmp_path, figure_id):
        # each grid starts at r = 0, gamma_ratio = 0, where clamped
        # negativities are exactly zero
        result = run_sweep(with_resolution(figure_preset(figure_id), (3, 3)))
        for name in result.columns:
            assert not np.signbit(result.column(name)).any(), name
        path = tmp_path / "grid.csv"
        write_csv(result, path)
        cells = path.read_text(encoding="utf-8").replace("\n", ",").split(",")
        assert "-0" not in cells

    def test_json_round_trip_identity(self, tmp_path):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("delta_1", -2.0, 2.0, 3),),
            quantities=("e_n_c1c2", "zeta_c1_c2"),
            description="round trip check",
        )
        result = run_sweep(spec)
        path = tmp_path / "grid.json"
        write_json(result, path)
        assert read_json(path) == result

    def test_json_columns_must_match_the_spec(self, tmp_path):
        result = run_sweep(small_spec())
        path = tmp_path / "grid.json"
        write_json(result, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["columns"] = payload["columns"][::-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match="do not match the spec"):
            read_json(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda payload: payload.pop("spec"), r"lacks the keys \['spec'\]"),
        (lambda payload: payload.pop("columns"), r"lacks the keys \['columns'\]"),
        (lambda payload: payload.pop("rows"), r"lacks the keys \['rows'\]"),
        (lambda payload: payload["rows"].pop(), "1 rows, expected the spec's 2"),
        (lambda payload: payload["rows"][1].pop(), "row 1 has 2 cells, expected 3"),
        (lambda payload: payload["spec"].pop("axes"), "sweep spec lacks the key 'axes'"),
        (lambda payload: payload["spec"].update(bogus=1),
         r"sweep spec has unknown keys \['bogus'\]"),
        (lambda payload: payload["spec"]["axes"][0].update(step=0.1),
         "malformed sweep spec: .*unexpected keyword argument 'step'"),
        (lambda payload: payload["spec"]["axes"][0].pop("count"),
         "malformed sweep spec: .*missing 1 required positional argument: 'count'"),
        (lambda payload: payload["spec"]["base"].update(kappa_3=1.0),
         "malformed sweep spec: .*unexpected keyword argument 'kappa_3'"),
        (lambda payload: payload["spec"]["base"].update(r="0.4"),
         "malformed sweep spec: r must be a finite real number, got '0.4'"),
        (lambda payload: payload["spec"]["base"].update(r=10**400),
         f"malformed sweep spec: r must be a finite real number, got {10**400}$"),
        (lambda payload: payload["spec"]["axes"][0].update(stop=10**400),
         f"invalid sweep spec: axes.stop: must be a finite number, got {10**400} "
         r"\(axis 0, r\)$"),
        (lambda payload: payload.update(columns=5), "columns 5 do not match the spec"),
        (lambda payload: payload.update(rows=None), "rows must be a list, got NoneType"),
        (lambda payload: payload.update(rows=[1, 2]), "row 0 must be a list, got int"),
        (b"5", "grid file holds a JSON int, not an object"),
        (b'{"spec": \xff}', "grid file is not UTF-8: .* can't decode byte 0xff"),
        (slice(50), "grid file is not valid JSON: Expecting .* \\(char 50\\)"),
        (set_cell(0, 0, "a"), "row 0, column 'r': 'a' is not a finite real number"),
        (set_cell(1, 1, True), "row 1, column 'e_n_c1c2': True is not a finite real number"),
        (set_cell(1, 1, float("nan")),
         "row 1, column 'e_n_c1c2': nan is not a finite real number"),
        (set_cell(0, 2, "yes"), "row 0, column 'stable': 'yes' is not a bool"),
        (set_cell(0, 2, 1), "row 0, column 'stable': 1 is not a bool"),
    ], ids=["no spec", "no columns", "no rows", "row count", "row width", "no axes",
            "spec unknown key", "axis unknown key", "axis missing key", "base unknown field",
            "base string value", "base int beyond float range", "axis int beyond float range",
            "columns not a list", "rows null", "rows not lists", "not an object", "not UTF-8",
            "truncated", "axis cell a string", "quantity cell a bool", "quantity cell NaN",
            "stable cell a string", "stable cell an int"])
    def test_json_that_is_not_its_spec_grid_is_refused(self, tmp_path, damage, message):
        # each of these loaded before, or failed later as a KeyError, a
        # TypeError, a UnicodeDecodeError, a JSONDecodeError or in grid() or
        # column(); a damage given as bytes is the whole file, and one given
        # as a slice keeps that part of the written file
        path = tmp_path / "grid.json"
        write_json(run_sweep(small_spec()), path)
        if isinstance(damage, bytes):
            path.write_bytes(damage)
        elif isinstance(damage, slice):
            path.write_text(path.read_text(encoding="utf-8")[damage], encoding="utf-8")
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
            damage(payload)
            path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            read_json(path)

    def test_json_refuses_nan_cell(self, tmp_path):
        result = run_sweep(small_spec())
        result.rows[0][1] = float("nan")
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(result, tmp_path / "grid.json")
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_across_worker_counts(self, tmp_path):
        spec = with_resolution(figure_preset("fig4a"), (7, 7))
        path_1 = tmp_path / "w1.csv"
        path_2 = tmp_path / "w2.csv"
        write_csv(run_sweep(spec, workers=1), path_1)
        write_csv(run_sweep(spec, workers=2), path_2)
        assert path_1.read_bytes() == path_2.read_bytes()

    def test_symmetry_point_of_coupling_ratio_sweep(self):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("gamma_ratio", 0.5, 1.5, 3),),
            quantities=("zeta_c1_c2", "zeta_c2_c1"),
        )
        result = run_sweep(spec)
        middle = result.rows[1]
        assert middle[0] == 1.0
        assert abs(middle[1] - middle[2]) <= 1e-10

    def test_coupling_ratio_preset_csv_has_equal_steering_at_one(self, tmp_path):
        result = run_sweep(with_resolution(figure_preset("fig7a"), (11,)))
        path = tmp_path / "fig7a.csv"
        write_csv(result, path)
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        ratio_col = header.index("gamma_ratio")
        z12_col, z21_col = header.index("zeta_c1_c2"), header.index("zeta_c2_c1")
        row = next(l.split(",") for l in lines[1:] if float(l.split(",")[ratio_col]) == 1.0)
        assert abs(float(row[z12_col]) - float(row[z21_col])) <= 1e-10

    def test_detuning_mirror_symmetry(self):
        # with the other detunings zero and identical cavities, flipping
        # delta_1 flips every detuning, which is an anti-symplectic symmetry
        # of the model; the entanglement grid is mirror symmetric
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("delta_1", -3.0, 3.0, 7),),
            quantities=("e_n_c1c2",),
        )
        values = run_sweep(spec).column("e_n_c1c2")
        assert np.allclose(values, values[::-1], atol=1e-9)

    def test_all_report_columns_are_sweepable(self):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("r", 0.0, 0.4, 2),),
            quantities=REPORT_COLUMNS,
        )
        result = run_sweep(spec)
        assert len(result.columns) == 1 + len(REPORT_COLUMNS) + 1


PRESET_GRID = os.path.join(os.path.dirname(__file__), "data", "preset_grid.json")


@pytest.fixture(scope="module")
def preset_grid():
    # written by tests/data/make_preset_grid.py
    with open(PRESET_GRID, encoding="utf-8") as handle:
        return json.load(handle)


class TestPresetGrid:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_matches_reference_grid(self, preset_grid, figure_id):
        assert tuple(preset_grid["columns"]) == REPORT_COLUMNS
        spec = figure_preset(figure_id)
        spec = with_resolution(spec, (5, 4)[: len(spec.axes)])
        rows = run_sweep(replace(spec, quantities=REPORT_COLUMNS)).rows
        expected = preset_grid["grids"][figure_id]
        assert len(rows) == len(expected)
        n_axes = len(spec.axes)
        for i, (row, want) in enumerate(zip(rows, expected)):
            assert len(row) == len(want) and row[:n_axes] == want[:n_axes], (figure_id, i)
            assert row[-1] is want[-1], (figure_id, i)
            for column, got, value in zip(REPORT_COLUMNS, row[n_axes:-1], want[n_axes:-1]):
                assert abs(got - value) <= 1e-12, (figure_id, i, column, got, value)

    def test_refusal_matches_reference(self, preset_grid):
        refusal = preset_grid["refusal"]
        spec = SweepSpec(
            base=default_params().replace(**refusal["params"]),
            axes=(AxisSpec(*refusal["axis"]),),
            quantities=REPORT_COLUMNS,
        )
        with pytest.raises(CavmagError) as err:
            run_sweep(spec)
        assert type(err.value).__name__ == refusal["error"] == "NumericalError"
        assert str(err.value) == refusal["message"]
