import json

import numpy as np
import pytest

from hessiankit import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def json_part(out: str) -> dict:
    # reports are a single JSON object; CSV echoes may follow
    depth = 0
    for i, ch in enumerate(out):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return json.loads(out[: i + 1])
    raise AssertionError("no JSON object in output")


class TestGamma:
    def test_reference_value(self, capsys):
        code, out = run_cli(capsys, ["gamma", "--n", "2", "--m", "1", "--p", "3", "--r", "1"])
        assert code == 0
        payload = json_part(out)
        assert payload["result"]["gamma_r"] == pytest.approx(1.0 / 7.0, abs=1e-15)
        assert payload["version"]
        assert payload["command"].startswith("hessiankit gamma")

    def test_bad_p_exits_2(self, capsys):
        code, _ = run_cli(capsys, ["gamma", "--n", "2", "--m", "1", "--p", "1.2"])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--p", "inf"), ("--p", "nan"), ("--r", "inf")])
    def test_non_finite_float_exits_2(self, capsys, flag, value):
        argv = ["gamma", "--n", "2", "--m", "1", "--p", "3", flag, value]
        code, out = run_cli(capsys, argv)
        assert code == 2 and out == ""

    def test_non_finite_float_from_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = inf\n")
        code, out = run_cli(capsys, ["gamma", "--n", "2", "--m", "1", "--config", str(cfg)])
        assert code == 2 and out == ""


class TestCone:
    def test_membership_report(self, capsys):
        code, out = run_cli(capsys, ["cone", "--lambda", "1,2,3", "--m", "2"])
        assert code == 0
        result = json_part(out)["result"]
        assert result["member"] is True
        assert result["h_values"] == [6.0, 11.0]

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["cone", "--lambda", "1,2", "--m", "1", "--bogus"]) == 2

    def test_nan_tol_exits_2(self, capsys):
        code, out = run_cli(capsys, ["cone", "--lambda", "1,2", "--m", "1", "--tol", "nan"])
        assert code == 2 and out == ""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_result_exits_2(self, capsys):
        # H_2 of (1e308, 1e308) overflows; the report would not be valid JSON
        code, out = run_cli(capsys, ["cone", "--lambda", "1e308,1e308", "--m", "2"])
        assert code == 2 and out == ""

    def test_threads_flag_removed(self, capsys):
        code, out = run_cli(capsys, ["cone", "--lambda", "1,2", "--m", "1"])
        assert code == 0 and "threads" not in json_part(out)
        assert cli.main(["cone", "--lambda", "1,2", "--m", "1", "--threads", "2"]) == 2


class TestRadial:
    def test_const_paper_u0(self, capsys, tmp_path):
        code, out = run_cli(capsys, [
            "radial", "--n", "2", "--m", "1", "--density", "const:1",
            "--convention", "paper", "--grid", "50",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        csv = (tmp_path / "radial.csv").read_text().splitlines()
        assert csv[0] == "r,U"
        r0, u0 = (float(x) for x in csv[1].split(","))
        assert r0 == 0.0
        assert abs(u0 - (-0.5)) <= 1e-9

    def test_residual_reported_on_dense_grid(self, capsys, tmp_path):
        code, out = run_cli(capsys, [
            "radial", "--n", "2", "--m", "2", "--density", "const:1",
            "--convention", "form", "--grid", "400",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        res = json_part(out)["result"]["hessian_residual"]
        assert res is not None and res <= 1e-4


class TestModulusCommand:
    def test_curve_files(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.random((150, 2))
        vals = pts[:, 0] + pts[:, 1]
        path = tmp_path / "points.csv"
        header = "x1,x2,value"
        rows = "\n".join(f"{p[0]},{p[1]},{v}" for p, v in zip(pts, vals))
        path.write_text(header + "\n" + rows + "\n")
        code, out = run_cli(capsys, [
            "modulus", "--input", str(path), "--bins", "40",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "modulus.csv").exists()
        assert (tmp_path / "modulus_majorant.csv").exists()
        from hessiankit.modulus import ModulusCurve
        curve = ModulusCurve.from_csv((tmp_path / "modulus.csv").read_text())
        maj = ModulusCurve.from_csv((tmp_path / "modulus_majorant.csv").read_text())
        assert np.all(maj(curve.t) >= curve.w - 1e-12)

    def test_nan_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x1,value\n0.0,0.0\n0.5,nan\n1.0,1.0\n")
        code, out = run_cli(capsys, ["modulus", "--input", str(path), "--bins", "4"])
        assert code == 2
        assert out == ""


class TestBarrierCommand:
    def test_small_run(self, capsys, tmp_path):
        code, out = run_cli(capsys, [
            "barrier", "--domain", "ball:1", "--n", "2", "--m", "2",
            "--phi", "re_z1", "--f", "zero", "--xi-samples", "15",
            "--grid", "800", "--bins", "60", "--seed", "42",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        result = json_part(out)["result"]
        assert result["boundary_gap"] <= 1e-9
        assert result["eta_fitted"] > 0
        assert "params_first" in result


    @pytest.mark.parametrize("density", ["const:-1", "const:nan", "const:inf"])
    def test_invalid_density_bound_exits_2(self, capsys, density):
        code, out = run_cli(capsys, [
            "barrier", "--n", "2", "--m", "2", "--f", density,
            "--xi-samples", "10", "--grid", "300", "--bins", "20",
        ])
        assert code == 2 and out == ""


class TestConfigFile:
    def test_config_fills_flags_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 3\nr = 1\n")
        code, out = run_cli(capsys, [
            "gamma", "--n", "2", "--m", "1", "--config", str(cfg),
        ])
        assert code == 0
        assert json_part(out)["result"]["gamma_r"] == pytest.approx(1.0 / 7.0)
        code, out = run_cli(capsys, [
            "gamma", "--n", "2", "--m", "1", "--p", "4", "--config", str(cfg),
        ])
        assert code == 0
        assert json_part(out)["result"]["p"] == 4.0


class TestDeterminism:
    def test_identical_bytes(self, capsys):
        _, out1 = run_cli(capsys, ["garding", "--n", "3", "--m", "2",
                                   "--samples", "50", "--seed", "7"])
        _, out2 = run_cli(capsys, ["garding", "--n", "3", "--m", "2",
                                   "--samples", "50", "--seed", "7"])
        assert out1 == out2

    def test_verify_core_suite(self, capsys, tmp_path):
        code, out = run_cli(capsys, [
            "verify", "--suite", "modulus", "--seed", "42",
            "--output-dir", str(tmp_path),
        ])
        assert code == 0
        report = json_part(out)["result"]
        assert report["all_passed"] is True
