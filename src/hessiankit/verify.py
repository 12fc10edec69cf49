"""Batch verification suites behind the ``verify`` CLI subcommand.

Each suite runs a deterministic set of checks with moderate sample sizes
(the pytest acceptance suite runs the heavyweight versions) and returns a
plain dict that serializes to a byte-stable JSON report.
"""

from __future__ import annotations

import math

import numpy as np

from . import barrier, core, geometry, modulus, radial


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "pass": bool(passed), "detail": detail}


def suite_core(seed: int = 42) -> list:
    checks = []

    worst = math.inf
    for n in range(2, 7):
        for m in range(1, n + 1):
            forms = core.sample_gamma_hat(n, m, 200 * m, seed + 10 * n + m)
            margins = core.garding_check(forms.reshape(200, m, n, n)).margin
            worst = min(worst, float(margins.min()))
    checks.append(_check("garding_margin", worst >= -1e-10, min_margin=worst))

    mac_ok = True
    rng = np.random.default_rng(seed + 1)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        lam = rng.standard_normal(n) + 1.5
        if not core.gamma_m_contains(lam, m).member:
            continue
        s = core.maclaurin_check(lam, m)
        if np.any(np.diff(s) > 1e-10 * (1.0 + np.abs(s[:-1]))):
            mac_ok = False
    checks.append(_check("maclaurin_chain", mac_ok))

    diag_worst = 0.0
    forms = core.sample_gamma_hat(4, 2, 100, seed + 2)
    for m in (2, 3, 4):
        a = forms[m - 2 :: 3]  # form i is taken at order 2 + i % 3
        diagonal = np.repeat(a[:, None], m, axis=1)
        gaps = np.abs(core.polarized_form(diagonal) - core.sigma_tilde(a, m))
        diag_worst = max(diag_worst, float(gaps.max()))
    checks.append(_check("polarization_diagonal", diag_worst <= 1e-12, max_gap=diag_worst))

    inf_ok = True
    worst_att = 0.0
    for i, a in enumerate(core.sample_gamma_hat(3, 2, 20, seed + 3)):
        rep = core.inf_characterization(a, 2, samples=100, seed=seed + 40 + i)
        worst_att = max(worst_att, abs(rep.minimizer_value - rep.exact_value))
        if rep.inf_estimate < rep.exact_value - 1e-10:
            inf_ok = False
    checks.append(
        _check("inf_characterization", inf_ok and worst_att <= 1e-12, attain_gap=worst_att)
    )

    det_worst = math.inf
    rng = np.random.default_rng(seed + 4)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        g = rng.standard_normal((2 * n, 2 * n))
        q = g @ g.T / (2 * n)
        det_worst = min(det_worst, core.real_complex_det_check(q))
    checks.append(_check("real_complex_det", det_worst >= -1e-10, min_margin=det_worst))

    return checks


def suite_modulus(seed: int = 42) -> list:
    checks = []
    rng = np.random.default_rng(seed)

    hull_ok = True
    for _ in range(50):
        k = int(rng.integers(3, 11))
        t = np.concatenate(([0.0], np.sort(rng.random(k - 1)) + 1e-3))
        t = np.unique(t)
        w = np.concatenate(([0.0], np.maximum.accumulate(rng.random(t.size - 1))))
        curve = modulus.ModulusCurve(t, w)
        maj = modulus.concave_majorant(curve)
        vals = maj(curve.t)
        if np.any(vals < curve.w - 1e-14):
            hull_ok = False
        slopes = np.diff(maj.w) / np.diff(maj.t)
        if np.any(np.diff(slopes) > 1e-12):
            hull_ok = False
        again = modulus.concave_majorant(maj)
        if not again == maj:
            hull_ok = False
    checks.append(_check("concave_majorant", hull_ok))

    worst = math.inf
    for _ in range(200):
        expo = float(rng.uniform(0.3, 1.0))
        curve = modulus.sampled_curve(lambda x, e=expo: x**e, 1.0, 101)
        eta = float(rng.uniform(0.05, 3.0))
        t = float(rng.uniform(0.05, 1.0 / max(eta, 1.0)))
        sb = modulus.scaling_bound_check(curve, eta, t)
        worst = min(worst, sb.margin_lower, sb.margin_upper)
    checks.append(_check("scaling_bound", worst >= -1e-12, min_margin=worst))

    fits_ok = True
    for expo, slope in ((0.5, 1.0), (1.0, 3.0), (2.0 / 3.0, 1.0)):
        t = np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 400)))
        curve = modulus.ModulusCurve(t, slope * t**expo)
        fit = modulus.holder_fit(curve, (1e-4, 1e-1))
        if abs(fit.exponent - expo) > 0.02:
            fits_ok = False
    checks.append(_check("holder_fit", fits_ok))

    return checks


def suite_barrier(seed: int = 42) -> list:
    checks = []
    tol = 1e-8  # sandwich gate
    dom = geometry.Domain.ball(2, 1.0)

    data_c = barrier.boundary_const(dom, 2.5)
    env_c = barrier.build_subsolution(data_c, None, dom, m=2, xi_count=16, seed=seed)
    pts = geometry.sample_interior(dom, 400, seed + 1)
    exact_const = float(np.max(np.abs(env_c(pts) - 2.5)))
    checks.append(_check("constant_data_exact", exact_const == 0.0, max_gap=exact_const))

    data_r = barrier.boundary_re_z1(dom)
    env_r = barrier.build_subsolution(data_r, None, dom, m=2, xi_count=120, seed=seed)
    sup_r = barrier.build_supersolution(data_r, None, dom, m=2, xi_count=120, seed=seed)
    grid = barrier.verification_grid(dom, 2500, seed + 2, anchors=data_r.anchors)
    exact = grid[:, 0].real
    low = float(np.max(env_r(grid) - exact))
    high = float(np.max(exact - sup_r(grid)))
    _, vx, px = env_r.boundary_values()
    bnd = float(np.max(np.abs(vx - px)))
    checks.append(
        _check("linear_data_sandwich", low <= tol and high <= tol and bnd <= 1e-6,
               sub_margin=low, super_margin=high, boundary_gap=bnd)
    )

    data_p = barrier.boundary_psi_sqrt(dom)
    env_p = barrier.build_subsolution(data_p, None, dom, m=2, xi_count=120, seed=seed)
    sup_p = barrier.build_supersolution(data_p, None, dom, m=2, xi_count=120, seed=seed)
    gridp = barrier.verification_grid(dom, 2500, seed + 3, anchors=data_p.anchors)
    u = barrier.psi_example_solution(gridp)
    low_p = float(np.max(env_p(gridp) - u))
    high_p = float(np.max(u - sup_p(gridp)))
    rep = barrier.verify_modulus_bound(
        barrier.psi_example_solution, data_p, dom, m=2, f_sup_norm=0.0,
        grid=4000, bins=160, seed=seed,
    )
    expo = None if rep.holder is None else rep.holder.exponent
    expo_ok = expo is not None and abs(expo - 0.5) <= 0.1
    checks.append(
        _check("sqrt_data_sharpness", low_p <= tol and high_p <= 2 * tol and expo_ok,
               sub_margin=low_p, super_margin=high_p, omega_exponent=expo,
               eta_fitted=rep.eta_fitted)
    )

    probe = barrier.msh_probe(env_r, count=60, seed=seed + 5)
    checks.append(
        _check("msh_probe", probe.min_margin >= -1e-6 * probe.scale,
               min_margin=probe.min_margin, smooth_points=probe.points_smooth,
               near_points=probe.points_near, points_tested=probe.points_tested)
    )

    # the f > 0 subsolution inequality l_alpha(v) >= f^(1/m), for f = 1
    ones = lambda z: np.ones(np.asarray(z).shape[0])
    env_f = barrier.build_subsolution(data_r, None, dom, m=2, xi_count=60, seed=seed, f_sup=1.0)
    probe = barrier.lalpha_probe(env_f, ones, count=40, alpha_samples=12, seed=seed + 6)
    checks.append(
        _check("lalpha_probe", probe.points_near > 0 and probe.min_margin >= -1e-6,
               min_margin=probe.min_margin, smooth_points=probe.points_smooth,
               near_points=probe.points_near, points_tested=probe.points_tested)
    )
    return checks


def suite_radial(seed: int = 42) -> list:
    checks = []

    worst = 0.0
    for (n, m) in ((2, 1), (2, 2), (3, 2), (3, 3)):
        for alpha in (0.5, float(m), 1.9 * m):
            problem = radial.RadialProblem(n, m, radial.PowerDensity(alpha), convention="paper")
            g = np.geomspace(0.01, 1.0, 80)
            sol = radial.radial_solve(problem, grid=g, tol=1e-12)
            c = radial.power_profile_coefficient(n, m, alpha, "paper")
            closed = c * (sol.r ** (2.0 - alpha / m) - 1.0)
            denom = np.maximum(np.abs(closed), 1e-12)
            worst = max(worst, float(np.max(np.abs(sol.u - closed) / denom)))
    checks.append(_check("power_closed_form", worst <= 1e-8, max_rel_err=worst))

    pr = radial.RadialProblem(2, 2, radial.ConstDensity(1.0), convention="form")
    sol = radial.radial_solve(pr, grid=np.geomspace(1e-3, 1.0, 400), tol=1e-10)
    res_const = radial.radial_hessian_residual(sol, pr)
    pr2 = radial.RadialProblem(3, 2, radial.PowerDensity(1.0), convention="form")
    sol2 = radial.radial_solve(pr2, grid=np.geomspace(1e-3, 1.0, 2500), tol=1e-10)
    res_pow = radial.radial_hessian_residual(sol2, pr2, 0.05, 0.95)
    checks.append(
        _check("hessian_residual_form", res_const <= 1e-4 and res_pow <= 1e-4,
               const_residual=res_const, power_residual=res_pow)
    )

    pr3 = radial.RadialProblem(3, 2, radial.ConstDensity(1.0), convention="paper")
    sol3 = radial.radial_solve(pr3, grid=np.geomspace(1e-3, 1.0, 400), tol=1e-10)
    res_paper = radial.radial_hessian_residual(sol3, pr3)
    expected = (1.0 - 1.0 / math.comb(3, 2)) / 2.0
    checks.append(
        _check("paper_convention_offset", abs(res_paper - expected) <= 1e-3 * expected,
               residual=res_paper, expected=expected)
    )

    expo_ok = True
    detail = {}
    for (n, m, alpha) in ((2, 2, 3.0), (2, 1, 0.5), (3, 2, 2.0)):
        problem = radial.RadialProblem(n, m, radial.PowerDensity(alpha), convention="form")
        rep = radial.holder_exponent_check(problem)
        detail[f"exp_{n}_{m}_{alpha:g}"] = rep.fit.exponent
        if not rep.verdict:
            expo_ok = False
    checks.append(_check("holder_exponents", expo_ok, **detail))

    unb = radial.log_example_check(0.6, 2, 1)
    bnd = radial.log_example_check(4.0, 2, 2)
    checks.append(
        _check("log_criticality",
               unb.verdict == "unbounded" and bnd.verdict == "bounded"
               and unb.bound_ok and bnd.bound_ok,
               unbounded_growth=unb.growth_exponent, bounded_growth=bnd.growth_exponent)
    )

    g1 = radial.gamma_exponent(2, 1, 3.0, 1.0)
    lim = radial.gamma_exponent(3, 3, 1e6, 1.0)
    checks.append(
        _check("gamma_exponent", abs(g1 - 1.0 / 7.0) <= 1e-12 and abs(lim - 0.25) <= 1e-4,
               gamma_1=g1, large_p_limit=lim)
    )
    return checks


SUITES = {
    "core": suite_core,
    "modulus": suite_modulus,
    "barrier": suite_barrier,
    "radial": suite_radial,
}


def run_suites(names, seed: int = 42) -> dict:
    report = {"seed": seed, "suites": {}, "all_passed": True}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        checks = SUITES[name](seed=seed)
        ok = all(c["pass"] for c in checks)
        report["suites"][name] = {"checks": checks, "passed": ok}
        report["all_passed"] = report["all_passed"] and ok
    return report
