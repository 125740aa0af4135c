import json

import numpy as np
import pytest

import cavmag.sweep as sweep_mod
from cavmag.errors import PhysicalityError, ValidationError
from cavmag.measures import REPORT_COLUMNS, full_report
from cavmag.model import default_params
from cavmag.sweep import (
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
from conftest import KAPPA_C


def small_spec(**kwargs):
    defaults = dict(
        base=default_params(),
        axes=(AxisSpec("r", 0.0, 0.4, 2),),
        quantities=("e_n_c1c2",),
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


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
                quantities=("nope",),
            )
        message = str(err.value)
        for fragment in ("bogus", "count", "start", "distinct", "nope", "1 or 2"):
            assert fragment in message

    @pytest.mark.parametrize("count", [3.5, 3.0, True, "3"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValidationError, match="axes.count: must be an integer"):
            small_spec(axes=(AxisSpec("r", 0.0, 1.0, count),))

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

    def test_parallel_matches_serial(self):
        spec = with_resolution(figure_preset("fig4a"), (5, 5))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.rows == parallel.rows
        assert serial == parallel

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

        def refuse(params):
            raise AssertionError("full_report called by a lambda_max-only sweep")

        monkeypatch.setattr(sweep_mod, "full_report", refuse)
        assert run_sweep(spec).rows == expected

    def test_axis_values_built_once_per_sweep(self, monkeypatch):
        calls = []
        real_values = AxisSpec.values
        monkeypatch.setattr(
            AxisSpec, "values", lambda ax: calls.append(ax) or real_values(ax)
        )
        spec = with_resolution(figure_preset("fig4a"), (3, 4))
        for workers in (1, 2):
            calls.clear()
            run_sweep(spec, workers=workers)
            assert calls == list(spec.axes), workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_failure_names_its_grid_location(self, monkeypatch, workers):
        spec = SweepSpec(
            base=default_params(),
            axes=(AxisSpec("r", 0.0, 1.0, 3), AxisSpec("temperature", 0.0, 2.0, 3)),
            quantities=("e_n_c1c2",),
        )
        real_report = sweep_mod.full_report

        def fail_at_centre(params):
            if params.r == 0.5 and params.temperature == 1.0:
                raise PhysicalityError("synthetic failure")
            return real_report(params)

        monkeypatch.setattr(sweep_mod, "full_report", fail_at_centre)
        with pytest.raises(PhysicalityError) as info:
            run_sweep(spec, workers=workers)
        message = str(info.value)
        assert "synthetic failure" in message
        assert "grid point 4, indices (1, 1): r = 0.5, temperature = 1.0" in message

    def test_progress_reported(self):
        spec = with_resolution(figure_preset("fig4a"), (3, 4))
        for workers in (1, 2):
            calls = []
            run_sweep(spec, workers=workers,
                      progress=lambda done, total: calls.append((done, total)))
            done = [d for d, _ in calls]
            assert all(a < b for a, b in zip(done, done[1:])), (workers, calls)
            assert all(total == 12 for _, total in calls), (workers, calls)
            assert calls[-1] == (12, 12), (workers, calls)


class TestFigurePresets:
    def test_all_ids_build_and_validate(self):
        for fid in FIGURE_IDS:
            spec = figure_preset(fid)
            assert spec.size >= 2
            assert spec.description

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ValidationError, match="fig2a"):
            figure_preset("fig9z")

    def test_preset_fixed_parameter_table(self):
        kc = KAPPA_C
        base = default_params()
        # (figure id, fixed overrides, axis parameters, leading quantity)
        table = [
            ("fig2a", {}, ("delta_1", "delta_2"), "e_n_c1c2"),
            ("fig2b", {}, ("delta_1", "delta_m"), "e_n_c1c2"),
            ("fig2c", {"delta_m": 2 * kc}, ("delta_1", "delta_2"), "e_n_mc1"),
            ("fig2d", {"delta_2": 2 * kc}, ("delta_1", "delta_m"), "e_n_mc1"),
            ("fig3a", {}, ("r", "gamma_ratio"), "e_n_c1c2"),
            ("fig3b", {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc},
             ("r", "gamma_ratio"), "e_n_mc1"),
            ("fig4a", {}, ("r", "temperature"), "e_n_c1c2"),
            ("fig4b", {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc},
             ("r", "temperature"), "e_n_mc1"),
            ("fig5a", {"delta_m": 2 * kc}, ("delta_1", "delta_2"), "r_tau_min"),
            ("fig5b", {"delta_2": 2 * kc}, ("delta_1", "delta_m"), "r_tau_min"),
            ("fig5c", {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc},
             ("r", "temperature"), "r_tau_min"),
            ("fig5d", {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc},
             ("r", "gamma_ratio"), "r_tau_min"),
            ("fig6a", {}, ("delta_1", "delta_m"), "zeta_c1_c2"),
            ("fig6b", {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc},
             ("r", "temperature"), "zeta_c1_c2"),
            ("fig6c", {"delta_m": 2 * kc, "delta_1": -2 * kc, "delta_2": 2 * kc},
             ("r", "gamma_ratio"), "zeta_c1_c2"),
            ("fig7a", {}, ("gamma_ratio",), "zeta_c1_c2"),
            ("fig7b", {}, ("kappa_ratio",), "zeta_c1_c2"),
            ("fig8a", {}, ("delta_1", "delta_2"), "lambda_max"),
            ("fig8b", {}, ("delta_1", "delta_m"), "lambda_max"),
        ]
        assert sorted(fid for fid, *_ in table) == sorted(FIGURE_IDS)
        for fid, overrides, axis_names, first_quantity in table:
            spec = figure_preset(fid)
            assert spec.base == base.replace(**overrides), fid
            assert tuple(ax.parameter for ax in spec.axes) == axis_names, fid
            assert spec.quantities[0] == first_quantity, fid
            expected_counts = (401,) if len(axis_names) == 1 else (101, 101)
            assert tuple(ax.count for ax in spec.axes) == expected_counts, fid

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
