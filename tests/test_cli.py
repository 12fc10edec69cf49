import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hessiankit
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


SCIPY_FREE_RUN = """
import sys
import numpy as np
from hessiankit import cli, radial

small = np.geomspace(0.05, 1.0, 6)
for n, m, density in (
    (2, 1, radial.ConstDensity(1.0)),
    (2, 1, radial.PowerDensity(1.5)),
    (3, 2, radial.LogDensity(1.5, 2)),  # n > m: the Laguerre inner integral
    (2, 2, radial.LogDensity(3.0, 2)),  # n = m: the closed form
    (2, 1, radial.TableDensity(small, small)),
):
    radial.radial_solve(radial.RadialProblem(n, m, density), grid=small, tol=1e-8)
code = cli.main(["verify", "--suite", "radial", "--output-dir", sys.argv[1]])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_radial_paths_load_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the package, every density's
    # radial solve and the radial verify suite must run without it
    src = os.path.dirname(os.path.dirname(hessiankit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


class TestGamma:
    def test_reference_value(self, capsys):
        code, out = run_cli(capsys, ["gamma", "--n", "2", "--m", "1", "--p", "3", "--r", "1"])
        assert code == 0
        payload = json_part(out)
        assert payload["result"]["gamma_r"] == pytest.approx(1.0 / 7.0, abs=1e-15)
        assert payload["result"]["targets"]["power_density_exponent"] == pytest.approx(2.0 / 3.0)
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

    def test_overflowing_result_exits_2(self, capsys):
        # H_2 of (1e308, 1e308) overflows; the report would not be valid JSON.
        # No RuntimeWarning either: the suite turns one into an error
        for lam, m in (("1e308,1e308", "2"), ("1e200,1e200,1e200", "3"), ("1e200,-1e200,1e200", "3")):
            code = cli.main(["cone", "--lambda", lam, "--m", m])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err == "error: the result is not finite; no report is written\n"

    def test_overflowing_default_slack_exits_2(self, capsys):
        # H is finite but 1e-10 (1 + max|lambda|^3) is not; an explicit tol still works
        lam = "--lambda=1e103,-1e103,1"
        assert cli.main(["cone", lam, "--m", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the default cone slack 1e-10 (1 + max|lambda|^3) overflows; give tol\n"
        )
        code, out = run_cli(capsys, ["cone", lam, "--m", "3", "--tol", "1"])
        assert code == 0 and json_part(out)["result"]["member"] is False

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

    def test_quadrature_facts_reported_byte_stable(self, capsys, tmp_path):
        # the first panel [0, 1/40] carries the t^(-1/2) singularity of
        # alpha/m = 1.5 and is the only one the first 21-point pass leaves open
        argv = ["radial", "--n", "2", "--m", "2", "--density", "power:3",
                "--grid", "40", "--output-dir", str(tmp_path)]
        outs = [run_cli(capsys, argv) for _ in range(2)]
        assert outs[0] == outs[1]
        result = json_part(outs[0][1])["result"]
        assert result["panels_bisected"] == 1
        assert 0.0 < result["worst_panel_error"] <= result["achieved_error"]


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

    @pytest.mark.parametrize("t_max", ["0", "-1"])
    def test_non_positive_t_max_exits_2(self, capsys, tmp_path, t_max):
        code = cli.main(with_files(["modulus", "--input", "{points}", "--t-max", t_max], tmp_path))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "t_max must be positive" in captured.err

    def test_header_only_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("x1,x2,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning leaks to stderr
            code = cli.main(["modulus", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "input CSV has no data rows" in captured.err

    def test_coordinates_beyond_the_squared_range_exit_0(self, capsys, tmp_path):
        # the squared extents of 1e160-scaled coordinates overflow
        x = np.random.default_rng(2).random((200, 2))
        path = tmp_path / "points.csv"
        np.savetxt(path, np.column_stack((1e160 * x, x.sum(axis=1))), delimiter=",",
                   header="x1,x2,value", comments="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, ["modulus", "--input", str(path), "--bins", "20"])
        assert code == 0
        diameter = np.hypot(*(x.max(axis=0) - x.min(axis=0)))
        assert json_part(out)["result"]["t_max"] == pytest.approx(1e160 * diameter, rel=1e-14)

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


    def test_failed_verdict_exits_1(self, capsys):
        code, out = run_cli(capsys, [
            "barrier", "--n", "2", "--m", "2", "--xi-samples", "5", "--grid", "400",
            "--bins", "20", "--ceiling", "1e-9",
        ])
        result = json_part(out)["result"]
        assert result["pass"] is False and result["violations"]
        assert code == 1

    @pytest.mark.parametrize("density", ["const:-1", "const:nan", "const:inf"])
    def test_invalid_density_bound_exits_2(self, capsys, density):
        code, out = run_cli(capsys, [
            "barrier", "--n", "2", "--m", "2", "--f", density,
            "--xi-samples", "10", "--grid", "300", "--bins", "20",
        ])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("density", ["zero", "const:1"])
    def test_cone_order_out_of_range_exits_2(self, capsys, density):
        # m is checked before the density bound's m-th root is taken
        code = cli.main([
            "barrier", "--n", "2", "--m", "0", "--f", density,
            "--xi-samples", "5", "--grid", "300", "--bins", "20",
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "m=0 out of range" in captured.err

    def test_density_run_reports_first_barrier(self, capsys):
        code, out = run_cli(capsys, [
            "barrier", "--n", "2", "--m", "2", "--f", "const:1", "--xi-samples", "15",
            "--grid", "400", "--bins", "20", "--seed", "42",
        ])
        assert code == 0
        first = json_part(out)["result"]["params_first"]
        assert sorted(first) == ["B", "K1", "K2", "gamma1", "gamma2", "r1"]
        from hessiankit import barrier, geometry
        ball = geometry.Domain.ball(2)
        ones = lambda z: np.ones(np.asarray(z).shape[0])
        env = barrier.build_subsolution(
            barrier.boundary_re_z1(ball), ones, ball, m=2, xi_count=15, seed=42, f_sup=1.0
        )
        p = env.barriers
        assert first["K1"] == p.K1 == 1.0 and first["gamma1"] == p.gamma1
        assert first["K2"] == p.K2[0] and first["gamma2"] == p.floor + p.K2[0]

    def test_cone_coefficient_is_exact(self, capsys):
        # B = 80 gave B a - 1 = (-0.2, -0.2, 79999) with H_2 = -31,999.56,
        # outside Gamma_3, accepted under the order-m cone slack of about 5.1e4
        code, out = run_cli(capsys, [
            "barrier", "--n", "3", "--m", "3", "--domain", "ellipsoid:0.01,0.01,1000",
        ])
        assert code == 0
        assert json_part(out)["result"]["params_first"]["B"] == 160.0

    @pytest.mark.parametrize("name", ["bins", "grid"])
    def test_single_bin_or_grid_point_exits_2(self, capsys, name):
        code = cli.main([
            "barrier", "--n", "2", "--m", "2", "--xi-samples", "5", "--grid", "400",
            "--bins", "20", f"--{name}", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{name} must be >= 2" in captured.err


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


# ---------------------------------------------------------------------------
# The flag contract: each subcommand takes exactly the flags its command reads

SHARED_DESTS = {"help", "output_dir", "config"}
FLAG_VALUES = {"--seed": "1", "--tol": "0.1", "--format": "csv"}
TAKES = {
    "cone": {"--tol"},
    "garding": {"--seed", "--tol"},
    "modulus": {"--seed", "--format"},
    "barrier": {"--seed"},
    "radial": {"--tol", "--format"},
    "gamma": set(),
    "verify": {"--seed"},
}
REQUIRED = {  # cheap runs of each subcommand
    "cone": ["--lambda", "1,2", "--m", "1"],
    "garding": ["--n", "2", "--m", "1", "--samples", "2"],
    "modulus": ["--input", "{points}", "--bins", "5"],
    "barrier": ["--n", "2", "--m", "2", "--xi-samples", "2", "--grid", "40", "--bins", "5"],
    "radial": ["--n", "2", "--m", "1", "--grid", "20"],
    "gamma": ["--n", "2", "--m", "1", "--p", "3"],
    "verify": ["--suite", "modulus"],
}


def subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def with_files(argv, tmp_path):
    """argv with {name} placeholders replaced by paths of small input files."""
    texts = {
        "points": "x1,v\n0.0,0.0\n0.5,0.25\n1.0,1.0\n",
        "non_numeric": "x1,v\n0.0,abc\n1.0,1.0\n",
        "ragged": "x1,v\n0.0,0.0\n1.0\n",
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.csv").write_text(text)
    return [re.sub(r"\{(\w+)\}", lambda m: str(tmp_path / f"{m.group(1)}.csv"), a) for a in argv]


def test_subcommands_cover_the_table():
    assert set(subparsers()) == set(TAKES)


@pytest.mark.parametrize("name", sorted(TAKES))
def test_every_flag_is_read_by_its_command(name):
    p = subparsers()[name]
    dests = {a.dest for a in p._actions} - SHARED_DESTS
    reads = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(p.get_default("func"))))
    assert dests == reads
    assert {f for f in FLAG_VALUES if f[2:] in dests} == TAKES[name]


@pytest.mark.parametrize(
    "name, flag", [(n, f) for n in TAKES for f in FLAG_VALUES if f not in TAKES[n]]
)
def test_flag_a_command_does_not_read_exits_2(capsys, tmp_path, name, flag):
    argv = with_files([name, *REQUIRED[name], flag, FLAG_VALUES[flag]], tmp_path)
    code, out = run_cli(capsys, argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("name", sorted(TAKES))
def test_report_echoes_seed_and_tol_where_taken(capsys, tmp_path, name):
    code, out = run_cli(capsys, with_files([name, *REQUIRED[name]], tmp_path))
    assert code == 0
    payload = json_part(out)
    echoed = {f"--{key}" for key in ("seed", "tol") if key in payload}
    assert echoed == TAKES[name] - {"--format"}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name", sorted(n for n in TAKES if "--seed" in TAKES[n]))
def test_negative_seed_exits_2(capsys, tmp_path, name, source):
    # numpy's generators take seeds >= 0, and exit 1 means failed verification
    extra = ["--seed", "-1"]
    if source == "config":
        (tmp_path / "run.cfg").write_text("seed = -1\n")
        extra = ["--config", str(tmp_path / "run.cfg")]
    out_dir = tmp_path / "reports"
    argv = with_files([name, *REQUIRED[name], *extra, "--output-dir", str(out_dir)], tmp_path)
    code, out = run_cli(capsys, argv)
    assert code == 2 and out == "" and not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["cone", "--lambda", "1,x", "--m", "1"],
    ["barrier", "--n", "2", "--m", "2", "--f", "const:abc"],
    ["barrier", "--n", "2", "--m", "2", "--phi", "const:abc"],
    ["barrier", "--n", "2", "--m", "2", "--domain", "ball:q"],
    ["barrier", "--n", "2", "--m", "2", "--domain", "ellipsoid:1,q"],
    ["radial", "--n", "2", "--m", "1", "--density", "power:zz"],
    ["modulus", "--input", "{missing}"],
    ["modulus", "--input", "{non_numeric}"],
    ["modulus", "--input", "{ragged}"],
    ["radial", "--n", "2", "--m", "1", "--grid", "-3"],
    ["barrier", "--n", "2", "--m", "2", "--xi-samples", "2", "--grid", "40", "--bins", "-3"],
    ["garding", "--n", "2", "--m", "1", "--samples", "0"],
], ids=lambda argv: " ".join(argv))
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    code, out = run_cli(capsys, with_files(argv, tmp_path))
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["radial", "--n", "3", "--m", "2", "--density", "log:inf", "--grid", "20"],
    ["radial", "--n", "3", "--m", "2", "--density", "const:inf", "--grid", "20"],
    ["barrier", "--n", "2", "--m", "2", "--domain", "ball:inf"],
    ["barrier", "--n", "2", "--m", "2", "--domain", "ellipsoid:1,inf"],
    ["barrier", "--n", "2", "--m", "2", "--phi", "const:nan"],
    ["cone", "--lambda", "1,inf", "--m", "1"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_spec_number_exits_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "is not a finite number" in captured.err


@pytest.mark.parametrize("domain", ["ball:1e160", "ball:1e300", "ellipsoid:1,1e-320",
                                    "ellipsoid:1,1e308"])
def test_out_of_range_domain_exits_2(capsys, domain):
    # the squared radius overflowed in the barrier floor, and a coefficient
    # of 1e-320 failed later with an unrelated message
    code = cli.main(["barrier", "--n", "2", "--m", "2", "--domain", domain])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "out of range" in captured.err


@pytest.mark.parametrize("domain", ["ellipsoid:1e-200,1e-200", "ellipsoid:1.1e307,1.1e307"])
def test_pseudoconvexity_outside_the_double_range_exits_2(capsys, tmp_path, domain):
    # in-range coefficients whose sigma_tilde_2 under- or overflows: the
    # first read "not strongly 2-pseudoconvex (A=0.0)", the second warned
    # and ran on
    argv = ["barrier", "--n", "2", "--m", "2", "--domain", domain, "--output-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "outside the normal double range" in captured.err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("n, m, domain", [(3, 3, "ellipsoid:1e-200,1e-200,1e200"),
                                          (2, 2, "ellipsoid:1e-200,1e200"),
                                          (3, 3, "ellipsoid:7.458340731200207e-155,"
                                                 "1.3407807929942597e+154,1.3407807929942597e+154")])
def test_cone_coefficient_outside_the_double_range_exits_2(capsys, tmp_path, n, m, domain):
    # B hess rho - I overflowed: the first warned and then read "eigenvalue
    # input contains non-finite entries"; the second warned and passed with
    # B hess rho - I = diag(-1, 1e200), outside Gamma_2, under an infinite
    # cone slack; the third, a = (2^-512, 2^512, 2^512), was given a B with
    # B a_1 - 1 < 0 by that slack, and its exact B = 2^1024 / A overflows
    # only in B max(a), not at 2^1023 / A
    argv = ["barrier", "--n", str(n), "--m", str(m), "--domain", domain,
            "--output-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "B hess(rho) - I with B = " in captured.err
    assert "leaves the double range" in captured.err
    assert "must not exceed 1.7976931348623157e+308" in captured.err
    assert not os.listdir(tmp_path)


def test_tiny_ball_exits_2_in_time(tmp_path):
    # |z|^2 and r^2 both underflowed to 0, so interior sampling never ended
    src = os.path.dirname(os.path.dirname(hessiankit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["barrier", "--n", "2", "--m", "2", "--domain", "ball:1e-300",
            "--output-dir", str(tmp_path / "reports")]
    proc = subprocess.run([sys.executable, "-m", "hessiankit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "out of range" in proc.stderr


@pytest.mark.parametrize("n, domain", [
    (2, f"ball:{2.0**-510!r}"),
    (2, f"ball:{2.0**510!r}"),
    (1, f"ellipsoid:{2.0**-1020!r}"),
    (1, f"ellipsoid:{2.0**1020!r}"),
], ids=["ball-min", "ball-max", "ellipsoid-min", "ellipsoid-max"])
def test_barrier_at_the_ends_of_the_domain_range(capsys, tmp_path, n, domain):
    argv = ["barrier", "--n", str(n), "--m", "1", "--domain", domain, "--xi-samples", "20",
            "--grid", "200", "--output-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, argv)
    assert code == 0 and json_part(out)["result"]["pass"] is True


def test_readme_command_line_examples_parse():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(ln, comments=True) for ln in lines if ln.startswith("hessiankit ")]
    assert len(examples) >= len(TAKES)
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
