"""Acceptance suite: one criterion per numbered test, pinned tolerances.

Each test prints a single `criterion N: PASS/FAIL` line (visible with
``pytest -s`` and in captured output on failure) before asserting.

Criterion 4 has three legs on the borderline density
rho^(-2m) (1 - log rho)^(-gamma): an unbounded leg with n = m, an unbounded
companion with n > m, and a bounded leg with n = m.  For n = m the density
is admissible (in L^(n/m) = L^1) only for gamma > 1; the profile is then
unbounded for gamma <= m + 1 and grows like (1 - log r)^((m + 1 - gamma)/m).
The divergent case gamma <= 1 is pinned in ``test_radial.py``.
"""

import math
import time

import numpy as np
import pytest

from hessiankit import barrier, cli, core, geometry, modulus, radial
from hessiankit.geometry import Domain


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {status} - {detail}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_radial_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    grid = np.geomspace(0.01, 1.0, 120)
    for n, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        for alpha in (0.5, 1.0, float(m), 1.9 * m):
            problem = radial.RadialProblem(
                n, m, radial.PowerDensity(alpha), convention="paper"
            )
            sol = radial.radial_solve(problem, grid=grid, tol=1e-12)
            c = radial.power_profile_coefficient(n, m, alpha, "paper")
            closed = c * (sol.r ** (2.0 - alpha / m) - 1.0)
            denom = np.maximum(np.abs(closed), 1e-13)
            worst = max(worst, float(np.max(np.abs(sol.u - closed) / denom)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 10.0
    report(1, ok, f"max rel err {worst:.3e}, elapsed {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed <= 10.0


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_hessian_residual_oracle():
    results = {}
    for n, m in ((2, 2), (3, 2)):
        problem = radial.RadialProblem(n, m, radial.ConstDensity(1.0), convention="form")
        sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 600), tol=1e-10)
        results[f"const({n},{m})"] = radial.radial_hessian_residual(sol, problem)
    for n, m, alpha in ((2, 2, 2.0), (3, 2, 1.0)):
        problem = radial.RadialProblem(n, m, radial.PowerDensity(alpha), convention="form")
        sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 3000), tol=1e-10)
        results[f"power({n},{m})"] = radial.radial_hessian_residual(
            sol, problem, r_min=0.05, r_max=0.95
        )
    form_worst = max(results.values())

    problem = radial.RadialProblem(3, 2, radial.ConstDensity(1.0), convention="paper")
    sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 600), tol=1e-10)
    paper_res = radial.radial_hessian_residual(sol, problem)
    expected = (1.0 - 1.0 / math.comb(3, 2)) / 2.0  # binom discrepancy signature
    paper_ok = abs(paper_res - expected) <= 1e-3 * expected

    ok = form_worst <= 1e-4 and paper_ok
    report(2, ok, f"form residuals max {form_worst:.3e}, paper offset {paper_res:.6f} vs {expected:.6f}")
    assert form_worst <= 1e-4
    assert paper_ok


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_holder_exponents():
    combos = []
    lipschitz_verdicts = 0
    worst = 0.0
    for n, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        for ratio in (0.5, 1.0, 1.5):
            alpha = ratio * m
            expected = min(1.0, 2.0 - alpha / m)
            problem = radial.RadialProblem(n, m, radial.PowerDensity(alpha), convention="form")
            rep = radial.holder_exponent_check(problem)
            err = abs(rep.fit.exponent - expected)
            worst = max(worst, err)
            combos.append((n, m, alpha, rep.fit.exponent, expected))
            if expected == 1.0 and rep.verdict:
                lipschitz_verdicts += 1
    ok = worst <= 0.03 and len(combos) == 12 and lipschitz_verdicts >= 4
    report(3, ok, f"12 combos, max |fit - expected| {worst:.4f}, "
                  f"{lipschitz_verdicts} Lipschitz verdicts")
    assert len(combos) == 12
    assert worst <= 0.03
    assert lipschitz_verdicts >= 4


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_log_example_divergent_leg():
    """Pinned configuration (n, m, gamma) = (2, 2, 2.5).

    With n = m the density is admissible only for gamma > 1, and the
    profile is unbounded for gamma <= m + 1 with growth exponent
    (m + 1 - gamma)/m = 0.25.  gamma = 2.5 lies in (m, m + 1], where the
    n > m rule (unbounded iff gamma <= m, exponent 1 - gamma/m) would
    predict a bounded profile, so this leg checks the n = m threshold.
    ``bound_ok`` is not evidence here: for gamma >= m the fitted shape is
    nonnegative and the fitted constant collapses to 0.
    """
    rep = radial.log_example_check(2.5, 2, 2)
    finite = bool(np.all(np.isfinite(rep.k_values)))
    increasing = finite and bool(np.all(np.diff(rep.k_values) > 0))
    exponent_err = abs(rep.growth_exponent - rep.theoretical_exponent)
    ok = (
        rep.verdict == "unbounded"
        and not rep.divergent
        and rep.expected_unbounded
        and increasing
        and rep.theoretical_exponent == pytest.approx(0.25)
        and exponent_err <= 0.1
    )
    report(4, ok, f"gamma=2.5 (2,2): verdict {rep.verdict}, increasing {increasing}, "
                  f"exponent {rep.growth_exponent:.3f} vs {rep.theoretical_exponent:.3f}")
    assert rep.verdict == "unbounded"
    assert not rep.divergent
    assert rep.expected_unbounded
    assert finite and increasing
    assert rep.theoretical_exponent == pytest.approx(0.25)
    assert exponent_err <= 0.1


def test_criterion_04_log_example_unbounded_companion():
    # same gamma in a configuration where the density is admissible
    rep = radial.log_example_check(0.6, 2, 1)
    increasing = bool(np.all(np.diff(rep.k_values) > 0))
    ok = rep.verdict == "unbounded" and increasing and rep.bound_ok
    report(4, ok, f"gamma=0.6 (2,1): verdict {rep.verdict}, increasing {increasing}, "
                  f"C={rep.fitted_c:.3f}")
    assert rep.verdict == "unbounded"
    assert increasing
    assert rep.bound_ok


def test_criterion_04_log_example_bounded_leg():
    rep = radial.log_example_check(4.0, 2, 2)
    ok = rep.verdict == "bounded" and rep.bound_ok
    report(4, ok, f"gamma=4 (2,2): verdict {rep.verdict}, bound_ok {rep.bound_ok}")
    assert rep.verdict == "bounded"
    assert rep.bound_ok


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_garding_suite():
    worst = math.inf
    for n in range(1, 7):
        for m in range(1, n + 1):
            forms = core.sample_gamma_hat(n, m, 1000 * m, seed=1000 + 10 * n + m)
            for i in range(1000):
                rep = core.garding_check(forms[i * m : (i + 1) * m])
                worst = min(worst, rep.margin)

    rng = np.random.default_rng(55)
    mac_worst = -math.inf
    done = 0
    while done < 1000:
        n = int(rng.integers(2, 7))
        lam = rng.standard_normal(n) + 1.5
        m = int(rng.integers(1, n + 1))
        if not core.gamma_m_contains(lam, m).member:
            continue
        s = core.maclaurin_check(lam, m)
        if s.size > 1:
            mac_worst = max(mac_worst, float(np.max(np.diff(s) / (1.0 + np.abs(s[:-1])))))
        done += 1

    diag_worst = 0.0
    rng = np.random.default_rng(56)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T) / 2.0
        diag_worst = max(diag_worst, abs(core.polarized_form([a] * m) - core.sigma_tilde(a, m)))

    ok = worst >= -1e-10 and mac_worst <= 1e-10 and diag_worst <= 1e-12
    report(5, ok, f"garding min margin {worst:.3e}, maclaurin max rise {mac_worst:.3e}, "
                  f"diagonal gap {diag_worst:.3e}")
    assert worst >= -1e-10
    assert mac_worst <= 1e-10
    assert diag_worst <= 1e-12


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_inf_characterization():
    configs = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]
    attain_worst = 0.0
    below = 0
    total = 0
    for ci, (n, m) in enumerate(configs):
        count = 17 if ci < 4 else 16  # 100 forms in total
        for i, a in enumerate(core.sample_gamma_hat(n, m, count, seed=600 + ci)):
            rep = core.inf_characterization(a, m, samples=500, seed=6000 + ci * 100 + i)
            attain_worst = max(attain_worst, abs(rep.minimizer_value - rep.exact_value))
            if rep.inf_estimate < rep.exact_value - 1e-10:
                below += 1
            total += 1
    ok = attain_worst <= 1e-12 and below == 0 and total == 100
    report(6, ok, f"{total} forms, attainment gap {attain_worst:.2e}, {below} below bound")
    assert total == 100
    assert attain_worst <= 1e-12
    assert below == 0


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_concave_majorant():
    from test_modulus import brute_force_majorant, concave_staircase, random_curve

    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(200):
        curve = random_curve(rng, max_knots=12)
        hull_vals = modulus.concave_majorant(curve)(curve.t)
        oracle = brute_force_majorant(curve)
        if not np.array_equal(hull_vals, oracle):
            mismatches += 1

    worst = math.inf
    rng = np.random.default_rng(78)
    for _ in range(1000):
        curve = concave_staircase(rng)
        eta = float(rng.uniform(0.02, 4.0))
        t = float(rng.uniform(0.02, 1.0 / max(eta, 1.0)))
        sb = modulus.scaling_bound_check(curve, eta, t)
        worst = min(worst, sb.margin_lower, sb.margin_upper)

    ok = mismatches == 0 and worst >= -1e-12
    report(7, ok, f"hull oracle mismatches {mismatches}/200, scaling min margin {worst:.2e}")
    assert mismatches == 0
    assert worst >= -1e-12


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_barrier_suite():
    t0 = time.perf_counter()
    dom = Domain.ball(2, 1.0)

    data_c = barrier.boundary_const(dom, 1.5)
    env_c = barrier.build_subsolution(data_c, None, dom, m=2, xi_count=500, seed=42)
    pts_c = geometry.sample_interior(dom, 2000, seed=43)
    const_gap = float(np.max(np.abs(env_c(pts_c) - 1.5)))

    data_r = barrier.boundary_re_z1(dom)
    env_r = barrier.build_subsolution(data_r, None, dom, m=2, xi_count=500, seed=42)
    sup_r = barrier.build_supersolution(data_r, None, dom, m=2, xi_count=500, seed=42)
    grid_r = barrier.verification_grid(dom, 10000, seed=44, anchors=data_r.anchors)
    exact_r = grid_r[:, 0].real
    sub_margin = float(np.max(env_r(grid_r) - exact_r))
    super_margin = float(np.max(exact_r - sup_r(grid_r)))
    _, vx, px = env_r.boundary_values()
    boundary_gap = float(np.max(np.abs(vx - px)))

    data_p = barrier.boundary_psi_sqrt(dom)
    env_p = barrier.build_subsolution(data_p, None, dom, m=2, xi_count=500, seed=42)
    sup_p = barrier.build_supersolution(data_p, None, dom, m=2, xi_count=500, seed=42)
    grid_p = barrier.verification_grid(dom, 10000, seed=45, anchors=data_p.anchors)
    u = barrier.psi_example_solution(grid_p)
    psi_sub = float(np.max(env_p(grid_p) - u))
    psi_super = float(np.max(u - sup_p(grid_p)))
    rep = barrier.verify_modulus_bound(
        barrier.psi_example_solution, data_p, dom, m=2, f_sup_norm=0.0,
        grid=10000, bins=200, seed=42,
    )
    exponent = rep.holder.exponent

    elapsed = time.perf_counter() - t0
    ok = (
        const_gap == 0.0
        and sub_margin <= 1e-8 and super_margin <= 2e-8 and boundary_gap <= 1e-6
        and psi_sub <= 1e-8 and psi_super <= 2e-8
        and abs(exponent - 0.5) <= 0.05
        and elapsed <= 60.0
    )
    report(8, ok, f"const gap {const_gap:.1e}; linear sandwich ({sub_margin:.2e}, "
                  f"{super_margin:.2e}), boundary {boundary_gap:.2e}; sqrt sandwich "
                  f"({psi_sub:.2e}, {psi_super:.2e}), exponent {exponent:.3f}; "
                  f"elapsed {elapsed:.1f}s")
    assert const_gap == 0.0
    assert sub_margin <= 1e-8 and super_margin <= 2e-8
    assert boundary_gap <= 1e-6
    assert psi_sub <= 1e-8 and psi_super <= 2e-8
    assert abs(exponent - 0.5) <= 0.05
    assert elapsed <= 60.0


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_gamma_calculator():
    exact = radial.gamma_exponent(2, 1, 3.0, 1.0)
    limit_ok = True
    for n in (2, 3, 4):
        val = radial.gamma_exponent(n, n, 1e6, 1.0)
        if abs(val - 1.0 / (1.0 + n)) > 1e-4:
            limit_ok = False
    rs = np.linspace(1.0, 20.0, 20)
    ps = np.linspace(2.1, 42.0, 20)
    grid = np.array([[radial.gamma_exponent(3, 2, p, r) for p in ps] for r in rs])
    monotone = bool(np.all(np.diff(grid, axis=0) > 0) and np.all(np.diff(grid, axis=1) > 0))
    ok = exact == 1.0 / 7.0 and limit_ok and monotone
    report(9, ok, f"gamma_1 {exact!r}, large-p limits ok {limit_ok}, monotone {monotone}")
    assert exact == 1.0 / 7.0
    assert limit_ok
    assert monotone


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    argv = ["verify", "--suite", "all", "--seed", "42", "--output-dir", str(out_dir)]
    code1 = cli.main(argv)
    first = (out_dir / "verify.json").read_bytes()
    code2 = cli.main(argv)
    second = (out_dir / "verify.json").read_bytes()
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and first == second
    report(10, ok, f"exit codes ({code1}, {code2}), report bytes equal {first == second}")
    assert code1 == 0 and code2 == 0
    assert first == second
