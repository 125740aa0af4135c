import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavmag
from cavmag.cli import main, parse_config_file, resolve_params
from cavmag.errors import ConfigError
from cavmag.model import TWO_PI, default_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParamResolution:
    def test_defaults_pass_through(self):
        assert resolve_params({}) == default_params()

    def test_hz_default_units_for_rates(self):
        p = resolve_params({"kappa_2": "7e6", "gamma_1": "1.5e7"})
        assert p.kappa_2 == pytest.approx(TWO_PI * 7e6)
        assert p.gamma_1 == pytest.approx(TWO_PI * 1.5e7)

    def test_kc_default_units_for_detunings(self):
        p = resolve_params({"delta_m": "2", "delta_1": "-2"})
        assert p.delta_m == pytest.approx(2.0 * p.kappa_c)
        assert p.delta_1 == pytest.approx(-2.0 * p.kappa_c)

    def test_explicit_tags(self):
        p = resolve_params({"delta_1": "1e7:hz", "kappa_2": "6.5e7:rad", "gamma_2": "3:kc"})
        assert p.delta_1 == pytest.approx(TWO_PI * 1e7)
        assert p.kappa_2 == pytest.approx(6.5e7)
        assert p.gamma_2 == pytest.approx(3.0 * p.kappa_c)

    def test_kc_resolves_against_overridden_kappa_1(self):
        p = resolve_params({"kappa_1": "1e7", "delta_1": "2"})
        assert p.delta_1 == pytest.approx(2.0 * TWO_PI * 1e7)

    def test_plain_fields_reject_tags(self):
        with pytest.raises(ConfigError):
            resolve_params({"r": "0.4:hz"})

    def test_kc_tag_forbidden_on_kappa_1(self):
        with pytest.raises(ConfigError):
            resolve_params({"kappa_1": "2:kc"})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            resolve_params({"phi": "1"})


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "r = 0.2\n"
            "delta_m = 1.5   # inline comment\n"
            "workers = 2\n"
            "format = json\n",
            encoding="utf-8",
        )
        params, run = parse_config_file(str(cfg))
        assert params == {"r": "0.2", "delta_m": "1.5"}
        assert run == {"workers": "2", "format": "json"}

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.2\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.cfg:2"):
            parse_config_file(str(cfg))

    def test_non_integer_workers_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = two\n", encoding="utf-8")
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "figure", "fig7a", "--grid", "5",
                               "--config", str(cfg), "--out", str(out_path))
        assert code == 1
        assert "workers must be an integer, got 'two'" in err
        assert not out_path.exists()

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            parse_config_file(str(cfg))


class TestPointCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "point")
        assert code == 0
        payload = json.loads(out)
        assert payload["stable"] is True
        assert abs(payload["e_n"]["c1c2"] - 0.7) < 0.1
        assert payload["steering"]["m|c1"] == 0.0
        assert len(payload["spectrum"]) == 6

    def test_payload_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "point")
        payload = json.loads(out)
        assert list(payload) == [
            "params", "stable", "lambda_max", "spectrum", "e_n", "e_n_one_vs_two",
            "residuals", "r_tau_min", "steering", "asymmetry", "nu_min",
        ]
        assert list(payload["e_n"]) == ["c1c2", "mc1", "mc2"]
        assert list(payload["e_n_one_vs_two"]) == ["m", "c1", "c2"]
        assert list(payload["residuals"]) == ["m", "c1", "c2"]
        assert list(payload["steering"]) == ["c1|c2", "c2|c1", "m|c1", "c1|m", "m|c2", "c2|m"]
        assert list(payload["asymmetry"]) == ["c1c2", "mc1", "mc2"]

    def test_no_squeezing_kills_all_correlations(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--r", "0")
        assert code == 0
        payload = json.loads(out)
        assert all(value == 0.0 for value in payload["e_n"].values())
        assert all(value == 0.0 for value in payload["steering"].values())
        assert payload["r_tau_min"] == 0.0

    def test_decoupled_point(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--gamma-1", "0", "--gamma-2", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["stable"] is True
        assert payload["e_n"]["mc1"] == 0.0 and payload["e_n"]["mc2"] == 0.0
        # decoupled drift spectrum: max real part is the slow magnon decay
        assert payload["lambda_max"] == pytest.approx(-TWO_PI * 1e6, rel=1e-9)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.1\ndelta_m = 1\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "point", "--config", str(cfg), "--r", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["r"] == 0.0  # flag wins
        assert payload["params"]["delta_m"] == pytest.approx(default_params().kappa_c)

    def test_malformed_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "point", "--config", str(cfg))
        assert code == 1
        assert "nonsense" in err

    def test_unstable_point_exits_2_without_report(self, capsys, monkeypatch):
        import cavmag.measures as measures
        from cavmag.steady_state import StabilityReport

        fake = StabilityReport(
            max_real_part=1.0, spectrum=np.ones(6, dtype=complex), stable=False
        )
        monkeypatch.setattr(measures.steady_state, "stability", lambda m: fake)
        code, out, err = run_cli(capsys, "point")
        assert code == 2
        assert out == ""
        assert "drift matrix is unstable" in err and "at parameter point" in err

    def test_large_squeezing_prints_strict_json_or_nothing(self):
        # at r = 10 a measure came out infinite and printed as Infinity; the
        # BLAS decides whether it still does, so both outcomes are accepted.
        # A child process shows stderr as a user sees it, numpy warnings included.
        src = str(Path(cavmag.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
        proc = subprocess.run(
            [sys.executable, "-m", "cavmag.cli", "point", "--r", "10"],
            capture_output=True, text=True, env=env, timeout=120,
        )

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        if proc.stdout:
            assert proc.returncode == 0
            json.loads(proc.stdout, parse_constant=refuse)
            assert proc.stderr == ""
        else:
            assert proc.returncode == 1
            assert len(proc.stderr.splitlines()) == 1
            assert "at parameter point" in proc.stderr


class TestSweepCommand:
    def test_explicit_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "base": {name: getattr(default_params(), name) for name in (
                "kappa_1", "kappa_2", "kappa_m", "gamma_1", "gamma_2",
                "delta_1", "delta_2", "delta_m", "r", "omega_m", "temperature")},
            "axes": [{"parameter": "r", "start": 0.0, "stop": 1.0, "count": 5}],
            "quantities": ["e_n_c1c2"],
        }), encoding="utf-8")
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "sweep", str(spec_path), "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 5

    def test_preset_reference_matches_figure_command(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"preset": "fig7a"}), encoding="utf-8")
        out_sweep = tmp_path / "sweep.csv"
        out_figure = tmp_path / "figure.csv"
        code, _, _ = run_cli(capsys, "sweep", str(spec_path), "--grid", "9",
                             "--out", str(out_sweep))
        assert code == 0
        code, _, _ = run_cli(capsys, "figure", "fig7a", "--grid", "9",
                             "--out", str(out_figure))
        assert code == 0
        assert out_sweep.read_bytes() == out_figure.read_bytes()

    def test_fractional_axis_count_exits_1(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "base": {"kappa_1": 1e7, "kappa_2": 1e7, "kappa_m": 1e6},
            "axes": [{"parameter": "r", "start": 0.0, "stop": 1.0, "count": 3.5}],
            "quantities": ["e_n_c1c2"],
        }), encoding="utf-8")
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", str(spec_path), "--out", str(out_path))
        assert code == 1
        assert "axes.count: must be an integer, got 3.5" in err
        assert not out_path.exists()

    def test_unparseable_spec_exits_1(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "sweep", str(spec_path))
        assert code == 1
        assert "invalid JSON" in err


class TestFigureCommand:
    def test_unknown_id_lists_valid_ones(self, capsys):
        code, _, err = run_cli(capsys, "figure", "fig99")
        assert code == 1
        assert "fig2a" in err and "fig8b" in err

    def test_grid_override_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "fig4a.csv"
        code, _, err = run_cli(capsys, "figure", "fig4a", "--grid", "11x11",
                               "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 121
        assert "argmax" in err  # summary statistics on stderr

    def test_stability_grid_is_negative(self, capsys, tmp_path):
        out_path = tmp_path / "fig8a.csv"
        code, _, _ = run_cli(capsys, "figure", "fig8a", "--grid", "9x9",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        col = header.index("lambda_max")
        values = [float(line.split(",")[col]) for line in lines[1:]]
        assert max(values) < 0.0

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "fig7a.json"
        code, _, _ = run_cli(capsys, "figure", "fig7a", "--grid", "5",
                             "--format", "json", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["columns"][0] == "gamma_ratio"
        assert len(payload["rows"]) == 5

    @pytest.mark.parametrize("figure_id, grid, message", [
        ("fig7a", "1", "axes.count: must be >= 2"),
        ("fig7a", "0", "axes.count: must be >= 2"),
        ("fig4a", "2x3x4", "expected 2 axis counts, got 3"),
    ])
    def test_bad_grid_exits_1_without_file(self, capsys, tmp_path, figure_id, grid, message):
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "figure", figure_id, "--grid", grid,
                               "--out", str(out_path))
        assert code == 1
        assert message in err
        assert not out_path.exists()

    def test_io_failure_exits_3(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run_cli(capsys, "figure", "fig7a", "--grid", "5",
                               "--out", str(target))
        assert code == 3
        assert not target.exists()

    def test_parameter_override_changes_result(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(capsys, "figure", "fig7a", "--grid", "5", "--out", str(out_a))
        run_cli(capsys, "figure", "fig7a", "--grid", "5", "--r", "0.2",
                "--out", str(out_b))
        assert out_a.read_bytes() != out_b.read_bytes()


class TestStabilityCommand:
    def test_default_axes(self, capsys, tmp_path):
        out_path = tmp_path / "stability.csv"
        code, _, _ = run_cli(capsys, "stability", "--grid", "7x7",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "delta_1,delta_2,lambda_max,stable"
        assert len(lines) == 1 + 49
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(values) < 0.0

    def test_custom_axes_and_window(self, capsys, tmp_path):
        out_path = tmp_path / "stability.csv"
        code, _, _ = run_cli(capsys, "stability", "--axes", "delta_m",
                             "--window=-4:4", "--grid", "9",
                             "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "delta_m,lambda_max,stable"
        first = lines[1].split(",")
        assert float(first[0]) == -4.0

    def test_bad_window_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "stability", "--window", "oops")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (("--grid", "9"), "expected 2 axis counts, got 1"),
        (("--axes", "delta_1,delta_2,delta_m"), "expected 1 or 2 axes, got 3"),
    ])
    def test_axes_grid_mismatch_exits_1(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "stability.csv"
        code, _, err = run_cli(capsys, "stability", *argv, "--out", str(out_path))
        assert code == 1
        assert message in err
        assert not out_path.exists()


@pytest.mark.parametrize("command, label", [
    (("figure", "fig7a", "--grid", "5"), "fig7a"),
    (("stability", "--axes", "delta_m", "--grid", "5"), "stability"),
    (("sweep", "SPEC", "--grid", "5"), "sweep"),
])
def test_grid_commands_share_their_stderr_tail(capsys, tmp_path, command, label):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"preset": "fig7a"}), encoding="utf-8")
    out_path = tmp_path / "out.csv"
    argv = [str(spec_path) if arg == "SPEC" else arg for arg in command]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out == ""
    lines = err.strip().split("\n")
    assert lines[-3] == f"{label}: 5/5 points"
    assert lines[-2].startswith(f"{label}: ") and "argmax at (" in lines[-2]
    assert lines[-1] == f"{label}: wrote 5 rows to {out_path}"


class TestUsageErrors:
    def test_missing_command_exits_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "point", "--no-such-flag", "1")
        assert code == 1
