import io
import json
import operator
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavmag.cli import PARAM_FIELDS, main, parse_config_file, resolve_params
from cavmag.errors import ConfigError
from cavmag.model import TWO_PI, default_params
from cavmag.sweep import FIGURE_IDS
from conftest import run_python


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

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.fixed_dictionaries({}, optional={
        field: st.tuples(
            st.floats(-1e9, 1e9) if field.startswith("delta") else st.floats(1e-3, 1e9),
            st.sampled_from([None] if unit == "none"
                            else [None, "hz", "rad"] + ["kc"] * (field != "kappa_1")))
        for field, unit in PARAM_FIELDS.items()
    }))
    def test_each_value_is_one_exact_product(self, drawn):
        # (value, tag) per field, tag None for the default unit; compared by
        # ==, so each resolved value must be exactly 2pi*v, v or v*kappa_c
        base = default_params()
        kappa_c = base.kappa_1
        if "kappa_1" in drawn:
            value, tag = drawn["kappa_1"]
            kappa_c = value if tag == "rad" else TWO_PI * value
        expected = {}
        for field, (value, tag) in drawn.items():
            tag = tag or PARAM_FIELDS[field]
            expected[field] = (TWO_PI * value if tag == "hz"
                               else value * kappa_c if tag == "kc" else value)
        overrides = {field: repr(value) + (f":{tag}" if tag else "")
                     for field, (value, tag) in drawn.items()}
        assert resolve_params(overrides) == base.replace(**expected)


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
        # the flag goes through the same validator as the config key
        assert run_cli(capsys, "figure", "fig7a", "--grid", "5", "--workers", "two",
                       "--out", str(out_path)) == (code, "", err)
        assert not out_path.exists()

    def test_zero_workers_exits_1(self, capsys, tmp_path):
        # the sweep refuses the count; the command line adds no check of its own
        out_path = tmp_path / "out.csv"
        common = ("figure", "fig7a", "--grid", "5", "--out", str(out_path))
        expected = (1, "", "error: workers must be >= 1, got 0\n")
        assert run_cli(capsys, *common, "--workers", "0") == expected
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 0\n", encoding="utf-8")
        assert run_cli(capsys, *common, "--config", str(cfg)) == expected
        assert not out_path.exists()

    def test_unknown_format_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n", encoding="utf-8")
        out_path = tmp_path / "out.csv"
        common = ("figure", "fig7a", "--grid", "5", "--out", str(out_path))
        expected = (1, "", "error: unknown output format 'xml' (expected csv or json)\n")
        assert run_cli(capsys, *common, "--config", str(cfg)) == expected
        assert run_cli(capsys, *common, "--format", "xml") == expected
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "key, value", [("format", "json"), ("workers", "2"), ("out", "x.csv"), ("grid", "5")]
    )
    def test_point_refuses_a_run_setting(self, capsys, tmp_path, monkeypatch, key, value):
        # point takes no run setting: a key for one exits 1 like the flag does,
        # with one line naming the key and the file, and writes nothing
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"r = 0.2\n{key} = {value}\n", encoding="utf-8")
        assert run_cli(capsys, "point", "--config", str(cfg)) == (
            1, "", f"error: {cfg}: run setting {key!r} is taken by figure, sweep and "
                   f"stability, not by point\n",
        )
        assert run_cli(capsys, "point", f"--{key}", value)[:2] == (1, "")
        assert list(tmp_path.iterdir()) == [cfg]

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
        for content, message in [
            (b"nonsense = 1\n", "unknown key 'nonsense'"),
            # a byte that is not UTF-8 used to end in a UnicodeDecodeError traceback
            (b"r = 0.1 \xff\n", "cannot read config file .* can't decode byte 0xff"),
        ]:
            cfg.write_bytes(content)
            code, out, err = run_cli(capsys, "point", "--config", str(cfg))
            assert (code, out) == (1, ""), content
            assert len(err.splitlines()) == 1 and re.search(message, err), err

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
        # at r = 10 a measure once came out infinite and printed as Infinity;
        # whatever the outcome, stdout must stay strict JSON
        proc = run_python("-m", "cavmag.cli", "point", "--r", "10")

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

    def test_squeezing_beyond_the_digits_of_v_exits_1(self):
        proc = run_python("-m", "cavmag.cli", "point", "--r", "9")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "ill-conditioned" in proc.stderr and "at parameter point" in proc.stderr

    @pytest.mark.parametrize("flag", [
        pytest.param(("--r", "711"), id="711"),
        pytest.param(("--r", "1000"), id="1000"),
        pytest.param(("--omega-m", "1e-300"), id="omega-m-1e-300"),
    ])
    def test_squeezing_beyond_the_float_range_exits_1(self, flag):
        # math.sinh overflows from r = 710.48, which once ended in an
        # OverflowError traceback; a tiny omega_m once ended in a
        # ZeroDivisionError traceback
        proc = run_python("-m", "cavmag.cli", "point", *flag)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: d contains non-finite entries [at parameter point ")

    def test_lyapunov_residual_refusal_exits_1(self, capsys):
        # the point of test_measures.residual_params in CLI units; the
        # digits are LAPACK's rounding, so only the line's shape is pinned
        code, out, err = run_cli(
            capsys, "point", "--kappa-1", "5", "--kappa-2", "5", "--kappa-m", "50",
            "--gamma-1", "5e9", "--gamma-2", "500", "--delta-1", "5e8:hz", "--r", "1",
        )
        assert (code, out) == (1, "")
        number = r"\d\.\d{3}e[+-]\d\d"
        assert re.fullmatch(
            rf"error: Lyapunov residual {number} exceeds bound {number} "
            rf"\[at parameter point PhysicalParams\(kappa_1=31\.41592653589793, .*\)\]\n",
            err,
        ), err


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

    @pytest.mark.parametrize("spec, message", [
        ({"base": {"kappa_1": 1e7, "kappa_2": 1e7, "kappa_m": 1e6},
          "axes": [{"parameter": "r", "start": "0.2", "stop": "2.2", "count": 3}],
          "quantities": ["e_n_c1c2"]},
         "error: invalid sweep spec: axes.start: must be a finite number, got '0.2' (axis 0, r); "
         "axes.stop: must be a finite number, got '2.2' (axis 0, r)"),
        ({"base": {"kappa_1": 1e7, "kappa_2": 1e7, "kappa_m": 1e6},
          "quantities": ["e_n_c1c2"]},
         "error: sweep spec lacks the key 'axes'"),
        ({"preset": ["fig4a"]},
         "error: unknown figure id ['fig4a']; valid ids: " + ", ".join(FIGURE_IDS)),
        (b'{"preset": "fig4a\xff"}',
         "error: cannot read spec file {path}: 'utf-8' codec can't decode byte 0xff "
         "in position 17: invalid start byte"),
        ({"preset": "fig4a", "axes": [{"parameter": "r", "start": 0, "stop": 1, "count": 3}],
          "bogus": 1},
         "error: {path}: a preset reference takes no key but 'preset', got ['axes', 'bogus']"),
        ({"base": {"kappa_1": 1e7, "kappa_2": 1e7, "kappa_m": 1e6},
          "axes": [{"parameter": "r", "start": 0.0, "stop": 1.0, "count": 3}],
          "quantities": ["e_n_c1c2"], "bogus": 1},
         "error: sweep spec has unknown keys ['bogus']"),
        ({"base": {"kappa_1": 1e7, "kappa_2": 1e7, "kappa_m": 1e6},
          "axes": [{"parameter": "r", "start": 0.0, "stop": 1.0, "count": 1}],
          "quantities": "e_n_c1c2"},
         "error: invalid sweep spec: axes.count: must be >= 2, got 1 (axis 0, r); "
         "quantities: expected a list of column names, got the string 'e_n_c1c2'"),
        ({"base": {"kappa_1": 1e7, "kappa_2": 1e7, "kappa_m": 1e6},
          "axes": [{"parameter": ["r"], "start": 0.0, "stop": 1.0, "count": 1}],
          "quantities": ["e_n_c1c2"]},
         "error: invalid sweep spec: axes.parameter: ['r'] not one of ['delta_1', 'delta_2', "
         "'delta_m', 'gamma_ratio', 'kappa_ratio', 'r', 'temperature'] (axis 0, ['r']); "
         "axes.count: must be >= 2, got 1 (axis 0, ['r'])"),
        ([1, 2], "error: {path}: expected a JSON object, got list"),
    ], ids=["string bounds", "no axes", "preset not a string", "not UTF-8",
            "preset with other keys", "spec unknown key", "quantities a string",
            "axis parameter a list", "spec a list"])
    def test_malformed_spec_exits_1_with_one_line(self, capsys, tmp_path, spec, message):
        # string bounds, a list preset and a byte that is not UTF-8 used to
        # end in a traceback, keys beside the ones read were ignored, a
        # string of quantities was refused once per letter, and a list axis
        # parameter was a bare "unhashable type"; a spec given as bytes is
        # the whole file
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "sweep", str(spec_path), "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [message.replace("{path}", str(spec_path))]
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
        ("fig4a", "3xa", "cannot parse grid specification '3xa' (expected N or NxM)"),
    ])
    def test_bad_grid_exits_1_without_file(self, capsys, tmp_path, figure_id, grid, message):
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "figure", figure_id, "--grid", grid,
                               "--out", str(out_path))
        assert code == 1
        assert message in err
        assert not out_path.exists()

    def test_io_failure_exits_3(self, capsys, tmp_path):
        # the message names the file asked for, never the random temporary one
        (tmp_path / "adir").mkdir()
        for target in (tmp_path / "missing-dir" / "out.csv", tmp_path / "adir"):
            runs = [run_cli(capsys, "figure", "fig7a", "--grid", "5", "--out", str(target))
                    for _ in range(2)]
            assert runs[0] == runs[1]
            code, _, err = runs[0]
            assert code == 3
            last = err.splitlines()[-1]
            assert last.startswith("i/o error: ") and str(target) in last, last
            assert ".cavmag-" not in err
        assert [path.name for path in tmp_path.rglob("*")] == ["adir"]

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

    @pytest.mark.parametrize("axes, figure_id", [(None, "fig8a"), ("delta_1,delta_m", "fig8b")])
    def test_default_window_writes_the_fig8_grid(self, capsys, tmp_path, axes, figure_id):
        # the scan and the preset share one spec builder and resolution rule
        scan, figure = tmp_path / "stability.csv", tmp_path / f"{figure_id}.csv"
        axes_flag = () if axes is None else ("--axes", axes)
        assert run_cli(capsys, "stability", *axes_flag, "--grid=5x5", "--out", str(scan))[0] == 0
        assert run_cli(capsys, "figure", figure_id, "--grid=5x5", "--out", str(figure))[0] == 0
        assert scan.read_bytes() == figure.read_bytes()

    def test_bad_window_exits_1(self, capsys):
        assert run_cli(capsys, "stability", "--window", "oops") == (
            1, "", "error: window must be lo:hi, got 'oops'\n")
        assert run_cli(capsys, "stability", "--window=a:b") == (
            1, "", "error: cannot parse window 'a:b'\n")

    def test_reversed_window_names_each_axis(self, capsys, tmp_path):
        # both axes once gave the same message without saying which is which
        out_path = tmp_path / "stability.csv"
        assert run_cli(capsys, "stability", "--window=5:-5", "--grid", "3x3",
                       "--out", str(out_path)) == (
            1, "", "error: invalid sweep spec: "
                   "axes.range: start 5.0 must be < stop -5.0 (axis 0, delta_1); "
                   "axes.range: start 5.0 must be < stop -5.0 (axis 1, delta_2)\n")
        assert not out_path.exists()

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


@pytest.mark.parametrize("argv, expected", [
    (("point", "--kappa-m", "1e300"), 0),
    # both drifts are passive; the 2 is the sign of a lambda_max below the
    # eigen-solver's rounding (0.0 and 1.7e284)
    (("point", "--gamma-1", "1e300"), 2),
    (("point", "--kappa-1", "1e300"), 2),
    (("point", "--omega-m", "1e300"), 0),
    (("point", "--temperature", "1e300"), 1),
    (("point", "--r", "354"), 1),
    (("point", "--kappa-1", "1e-310:rad"), 0),
    (("point", "--kappa-m", "1e-320:rad"), 0),
    # the window's width overflows; it was once let through to nan grid
    # values and a numpy RuntimeWarning
    (("stability", "--grid", "3x3", "--window=-1e308:1e308"), 1),
    # once a bare LinAlgError from the one-vs-two eigen-solve
    (("point", "--r=5e-324", "--temperature=93.76011927227091",
      "--gamma-2=111088811935381.0:kc"), 1),
    # once overflow warnings from the Lyapunov operator, then from G and det,
    # before the residual and finiteness refusals
    (("point", "--kappa-m=1.7e+308:rad"), 1),
    (("point", "--r=342.244915322078", "--gamma-2=342.244915322078:kc"), 1),
])
def test_extreme_inputs_end_in_an_exit_code(capsys, tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)  # a grid command writes to the working directory
    code, _, err = run_cli(capsys, *argv)
    assert code == expected
    # a refusal is one error line and nothing else; a success writes no error
    lines = err.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    else:
        assert not any(line.startswith("error:") for line in lines), err


# A number over the whole float range, and per field a valid flag value: a
# number (signed for a detuning, zero for a coupling, r or T) with a unit
# tag that the field takes
NUMBER = st.floats(-308.0, 308.0).map(lambda e: 10.0**e)
FLAG_VALUES = {
    field: st.builds(
        "{}{}".format,
        (NUMBER | NUMBER.map(operator.neg) if field.startswith("delta")
         else NUMBER if field in ("kappa_1", "kappa_2", "kappa_m", "omega_m")
         else NUMBER | st.just(0.0)).map(repr),
        st.sampled_from([""] if unit == "none"
                        else ["", ":hz", ":rad"] + [":kc"] * (field != "kappa_1")),
    )
    for field, unit in PARAM_FIELDS.items()
}
# A value that float() or the field refuses
JUNK_VALUE = st.sampled_from(["-1", "nan", "inf", "-inf", "x", "", "1:bogus", "1:kc", "1e309"])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.fixed_dictionaries({}, optional=FLAG_VALUES),
       junk=st.none() | st.tuples(st.sampled_from(list(PARAM_FIELDS)), JUNK_VALUE))
@example(values={"r": "5e-324", "temperature": "93.76011927227091",
                 "gamma_2": "111088811935381.0:kc"}, junk=None)
@example(values={"kappa_m": "1.7e+308:rad"}, junk=None)
@example(values={"r": "342.244915322078", "gamma_2": "342.244915322078:kc"}, junk=None)
def test_any_point_flags_end_in_an_exit_code(values, junk):
    # each run returns an exit code, with at most one error line and no
    # warning on the way, whatever the numbers and unit tags; a junk flag
    # comes last, where argparse takes it over an earlier one
    argv = [f"--{field.replace('_', '-')}={value}"
            for field, value in [*values.items(), *([junk] if junk else [])]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["point", *argv])
    assert code in (0, 1, 2), (argv, code)
    lines = err.getvalue().splitlines()
    assert sum(line.startswith("error:") for line in lines) <= 1, (argv, lines)
    if code == 0:
        assert json.loads(out.getvalue())["stable"] is True


TOP_USAGE = "usage: cavmag [-h] {point,sweep,figure,stability} ...\n"
PARAM_USAGE = """\
[-h] [--config CONFIG] [--kappa-1 VALUE[:unit]]
{0}[--kappa-2 VALUE[:unit]] [--kappa-m VALUE[:unit]]
{0}[--gamma-1 VALUE[:unit]] [--gamma-2 VALUE[:unit]]
{0}[--delta-1 VALUE[:unit]] [--delta-2 VALUE[:unit]]
{0}[--delta-m VALUE[:unit]] [--omega-m VALUE[:unit]]
{0}[--r VALUE[:unit]] [--temperature VALUE[:unit]]
"""
POINT_USAGE = "usage: cavmag point " + PARAM_USAGE.format(" " * 20)
FIGURE_USAGE = "usage: cavmag figure " + PARAM_USAGE.format(" " * 21) + """\
                     [--out OUT] [--format FORMAT] [--grid GRID]
                     [--workers WORKERS]
                     figure_id
"""


class TestUsageErrors:
    @pytest.mark.parametrize("argv, err", [
        ((), TOP_USAGE + "cavmag: error: the following arguments are required: command\n"),
        (("bogus",), TOP_USAGE + "cavmag: error: argument command: invalid choice: 'bogus' "
                                 "(choose from 'point', 'sweep', 'figure', 'stability')\n"),
        (("point", "--no-such-flag", "1"),
         TOP_USAGE + "cavmag: error: unrecognized arguments: --no-such-flag 1\n"),
        (("point", "--r"), POINT_USAGE + "cavmag point: error: argument --r: expected one argument\n"),
        (("figure",),
         FIGURE_USAGE + "cavmag figure: error: the following arguments are required: figure_id\n"),
    ], ids=["no command", "unknown command", "unknown flag", "flag without value", "no figure id"])
    def test_misuse_exits_1_with_usage_and_error(self, capsys, monkeypatch, argv, err):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
        assert run_cli(capsys, *argv) == (1, "", err)

    @pytest.mark.parametrize("argv", [("-h",), ("stability", "-h")], ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: cavmag ")
