"""The benchmark's four workloads.

A workload is a fixed list of operations built from ``--seed``; one pass
runs every operation once, in order.  Each operation calls public
hessiankit functions on arrays (or a CSV file) generated here and returns
``(passed, payload)``: ``passed`` applies the tolerance gate the repository
pins for that check (acceptance criteria, unit tests, ``verify`` suites),
``payload`` is the deterministic result that goes into the output digest.

Why these four (see README.md for the sizes):

* ``cone``    - ``core`` only: 2^m-subset polarization stacks next to
                thousands of tiny single-vector calls.
* ``barrier`` - envelope evaluation, ``branch_info`` and exact-pair modulus
                estimation, with ``geometry`` sampling underneath.
* ``modulus`` - the ``modulus`` CLI path above the pair-subsampling
                threshold plus curve sweeps; the only workload on the
                subsampled branch and linear bins.
* ``radial``  - quadrature panels: nested log-borderline integrals, table
                densities, closed forms, residuals and exponent fits.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hessiankit import barrier, cli, core, geometry, modulus, radial

SIZES = {
    "full": {
        "cone": dict(garding=25, inf_forms=2, inf_samples=20, diag=30, chains=600,
                     vectors=1500, lalpha=150),
        "barrier": dict(xi=150, grid=3000, bound_grid=5000, probe=30, density_xi=40,
                        lalpha_points=15, alpha_samples=8),
        "modulus": dict(cloud=30000, boundary=1500, hulls=300, fits=40, scalings=400),
        "radial": dict(log_grid=120, table_knots=150, table_grid=30, power_grid=60,
                       holder=2, residual_grid=2500),
    },
    "tiny": {
        "cone": dict(garding=1, inf_forms=1, inf_samples=3, diag=3, chains=20,
                     vectors=20, lalpha=5),
        "barrier": dict(xi=150, grid=300, bound_grid=2000, probe=4, density_xi=8,
                        lalpha_points=4, alpha_samples=2),
        "modulus": dict(cloud=modulus.PAIR_SUBSAMPLE_THRESHOLD + 1, boundary=200, hulls=5,
                        fits=3, scalings=5),
        "radial": dict(log_grid=8, table_knots=6, table_grid=6, power_grid=10,
                       holder=1, residual_grid=1000),
    },
}

# the layers each workload exists to stress, and spans its traced run must record
STRESSED = {
    "cone": ("core",),
    "barrier": ("barrier", "geometry", "modulus"),
    "modulus": ("modulus", "cli"),
    "radial": ("radial",),
}
REQUIRED_SPANS = {
    "cone": ("core.garding_check", "core.polarized_form", "core.inf_characterization",
             "core.gamma_m_contains", "core.sample_sigma_m", "linalg.eigvalsh"),
    # sample_* and estimate_modulus are reached through barrier's own bindings
    "barrier": ("barrier.build_subsolution", "barrier.envelope_eval", "barrier.branch_info",
                "geometry.sample_boundary", "geometry.sample_interior",
                "modulus.estimate_modulus.exact", "barrier.msh_probe", "barrier.lalpha_probe"),
    "modulus": ("cli.main", "modulus.estimate_modulus.sampled", "modulus.estimate_modulus.exact",
                "modulus.concave_majorant", "modulus.holder_fit", "modulus.scaling_bound_check"),
    # holder_fit and elementary_symmetric_all are reached through radial's bindings
    "radial": ("radial.radial_solve", "radial.inner_integral.log", "radial.inner_integral.table",
               "radial.radial_hessian_residual", "radial.holder_exponent_check",
               "modulus.holder_fit", "core.elementary_symmetric_all"),
}


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]


@dataclass
class Workload:
    ops: list
    warmup: Callable[[], None]
    # known results outside a gate the repository does not pin, as facts
    findings: Callable[[], dict] = dict


def build(name: str, seed: int, scale: str, workdir: str) -> Workload:
    return WORKLOADS[name](seed, SIZES[scale][name], workdir)


def _rng(seed, stream):
    return np.random.default_rng([abs(int(seed)), stream])


def _pd_form(rng, n, eps=0.01):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T / n + eps * np.eye(n)


# ---------------------------------------------------------------------------
# cone


# (6, 6) polarization diagonal: gap <= this times ||a||_2^6, about 450 ulps
DIAG_66_REL_GATE = 1e-13


def build_cone(seed, size, workdir) -> Workload:
    rng = _rng(seed, 1)
    ops = []

    def garding(forms):
        rep = core.garding_check(forms)  # margin >= -1e-10, criterion 5
        return rep.passed, rep.margin

    for n in range(1, 7):
        for m in range(1, n + 1):
            for _ in range(size["garding"]):
                ops.append(Op(f"garding.{n}{m}", lambda f=[_pd_form(rng, n) for _ in range(m)]: garding(f)))

    def inf_char(a, m, sub_seed):
        rep = core.inf_characterization(a, m, samples=size["inf_samples"], seed=sub_seed)
        gap = abs(rep.minimizer_value - rep.exact_value)
        # criterion 6: never below the bound, attained to 1e-12
        ok = rep.inf_estimate >= rep.exact_value - 1e-10 and gap <= 1e-12
        return ok, (rep.inf_estimate, rep.exact_value, rep.minimizer_value)

    for n, m in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (6, 3)):
        for _ in range(size["inf_forms"]):
            a = _pd_form(rng, n)
            sub_seed = int(rng.integers(0, 2**31))
            ops.append(Op(f"inf_characterization.{n}{m}", lambda a=a, m=m, s=sub_seed: inf_char(a, m, s)))

    diag_gaps = {}

    def diagonal(i, a, scale):
        # The repository pins the absolute 1e-12 diagonal gate for n <= 5
        # only; at (6, 6) the subset sum cancels terms of size ||a||^6, so
        # the gate is relative to that scale (measured gaps stay below
        # 1e-15 of it) and the 1e-12 misses are a finding (see README.md).
        gap = abs(core.polarized_form([a] * 6) - core.sigma_tilde(a, 6))
        diag_gaps[i] = gap
        return gap <= DIAG_66_REL_GATE * scale, gap

    for i in range(size["diag"]):
        a = _pd_form(rng, 6)
        scale = float(np.linalg.norm(a, 2)) ** 6
        ops.append(Op("polarization_diagonal.66", lambda i=i, a=a, s=scale: diagonal(i, a, s)))

    def findings():
        gaps = list(diag_gaps.values())
        return {"polarization_diagonal.66": {
            "gap_above_1e-12": sum(g > 1e-12 for g in gaps), "forms": len(gaps),
            "worst_gap": max(gaps, default=0.0),
        }}

    def chain(lam, m):
        rep = core.gamma_m_contains(lam, m)
        if not rep.member:
            return True, rep.margin
        s = core.maclaurin_check(lam, m)
        return bool(np.all(np.diff(s) <= 1e-10 * (1.0 + np.abs(s[:-1])))), s

    for _ in range(size["chains"]):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        ops.append(Op("maclaurin_chain", lambda lam=rng.standard_normal(n) + 1.5, m=m: chain(lam, m)))

    def cone_vector(lam, m):
        # the cone CLI's path, checked against subset enumeration
        rep = core.gamma_m_contains(lam, m)
        tol = core.cone_tolerance(lam, m)
        enum = np.array([core.elementary_symmetric_enumerate(lam, k) for k in range(1, m + 1)])
        ok = bool(np.all(np.abs(rep.h_values - enum) <= tol)) and rep.member == (enum.min() >= -tol)
        return ok, (rep.h_values, rep.member)

    for _ in range(size["vectors"]):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        lam = 1.5 * rng.standard_normal(n) + 0.5
        ops.append(Op("gamma_m_contains", lambda lam=lam, m=m: cone_vector(lam, m)))

    def lalpha(h, n, m, sub_seed):
        tup = core.sample_sigma_m(n, m, m - 1, sub_seed)
        value = core.l_alpha(h, tup)
        bound = core.sigma_tilde(h, m) ** (1.0 / m)
        return value >= bound - 1e-10, value

    for _ in range(size["lalpha"]):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, n + 1))
        h = _pd_form(rng, n)
        sub_seed = int(rng.integers(0, 2**31))
        ops.append(Op(f"l_alpha.{n}{m}", lambda h=h, n=n, m=m, s=sub_seed: lalpha(h, n, m, s)))

    def warmup():
        a = _pd_form(_rng(seed, 99), 2)
        core.garding_check([a, a])
        core.inf_characterization(a, 2, samples=2, seed=0)
        core.maclaurin_check(np.array([1.0, 2.0]), 2)
        core.elementary_symmetric_enumerate([1.0, 2.0], 2)
        core.l_alpha(a, core.sample_sigma_m(2, 2, 1, 0))

    return Workload(ops, warmup, findings)


# ---------------------------------------------------------------------------
# barrier


def _ones(z):
    return np.ones(np.asarray(z).shape[0])


def build_barrier(seed, size, workdir) -> Workload:
    rng = _rng(seed, 2)
    seeds = [int(s) for s in rng.integers(0, 2**31, 10)]
    ball = geometry.Domain.ball(2, 1.0)
    ell = geometry.Domain.ellipsoid([1.0, 4.0])
    cases = {
        "re_z1": (ball, barrier.boundary_re_z1(ball)),
        "psi_sqrt": (ball, barrier.boundary_psi_sqrt(ball)),
        "ellipsoid_re_z1": (ell, barrier.boundary_re_z1(ell)),
    }
    exact = {
        "re_z1": lambda z: z[:, 0].real,
        "psi_sqrt": barrier.psi_example_solution,
        "ellipsoid_re_z1": lambda z: z[:, 0].real,
    }
    # boundary gaps: criterion 8 on the ball, the ellipsoid unit test
    gap_gate = {"re_z1": 1e-6, "psi_sqrt": 1e-6, "ellipsoid_re_z1": 1e-9}
    state = {}
    ops = []

    def envelopes(key, k):
        dom, data = cases[key]
        sub = barrier.build_subsolution(data, None, dom, m=2, xi_count=size["xi"], seed=seeds[k])
        sup = barrier.build_supersolution(data, None, dom, m=2, xi_count=size["xi"], seed=seeds[k])
        state[key] = (sub, sup)
        _, vx, px = sub.boundary_values()
        gap = float(np.max(np.abs(vx - px)))
        return gap <= gap_gate[key], gap

    def sandwich(key, k):
        dom, data = cases[key]
        sub, sup = state[key]
        grid = barrier.verification_grid(dom, size["grid"], seeds[k], anchors=data.anchors)
        u = exact[key](grid)
        low = float(np.max(sub(grid) - u))
        high = float(np.max(u - sup(grid)))
        return low <= 1e-8 and high <= 2e-8, (low, high)

    for k, key in enumerate(cases):
        ops.append(Op(f"envelopes.{key}", lambda key=key, k=k: envelopes(key, k)))
        ops.append(Op(f"sandwich.{key}", lambda key=key, k=k: sandwich(key, 3 + k)))

    def modulus_bound():
        dom, data = cases["psi_sqrt"]
        rep = barrier.verify_modulus_bound(
            state["psi_sqrt"][0], data, dom, m=2, grid=size["bound_grid"], bins=160, seed=seeds[6]
        )
        # half-Holder data gives an at-least-half-Holder envelope
        ok = rep.holder is not None and rep.holder.exponent >= 0.45 and math.isfinite(rep.eta_fitted)
        return ok, (rep.eta_fitted, rep.curve.w)

    ops.append(Op("verify_modulus_bound.psi_sqrt", modulus_bound))

    def msh():
        rep = barrier.msh_probe(state["re_z1"][0], count=size["probe"], seed=seeds[7])
        return rep.min_margin >= -1e-6 * rep.scale, (rep.points_smooth, rep.min_margin)

    ops.append(Op("msh_probe.re_z1", msh))

    def lalpha():
        dom, data = cases["re_z1"]
        env = barrier.build_subsolution(
            data, _ones, dom, m=2, xi_count=size["density_xi"], seed=seeds[8], f_sup=1.0
        )
        rep = barrier.lalpha_probe(
            env, _ones, count=size["lalpha_points"], alpha_samples=size["alpha_samples"], seed=seeds[9]
        )
        return rep.points_smooth > 0 and rep.min_margin >= -1e-6, (rep.points_smooth, rep.min_margin)

    ops.append(Op("lalpha_probe.re_z1", lalpha))

    def warmup():
        data = barrier.boundary_re_z1(ball)
        env = barrier.build_subsolution(data, None, ball, m=2, xi_count=2, seed=0)
        env.branch_info(geometry.sample_interior(ball, 4, 0))
        barrier.verify_modulus_bound(env, data, ball, m=2, grid=40, bins=10, seed=0)
        barrier.build_subsolution(cases["ellipsoid_re_z1"][1], None, ell, m=2, xi_count=2, seed=0)

    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# modulus


def _write_cloud(path, points, values):
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(points.shape[1])) + ",v\n")
        for row, v in zip(points, values):
            fh.write(",".join(f"{x:.17g}" for x in row) + f",{v:.17g}\n")


def _half_holder_cloud(rng, count):
    # v = |x - c|^(1/2) has modulus at most t^(1/2)
    pts = rng.uniform(-1.0, 1.0, (count, 3))
    center = rng.uniform(-0.5, 0.5, 3)
    return pts, np.sqrt(np.sqrt(((pts - center) ** 2).sum(axis=1)))


def _cli_modulus(csv_path, out_dir, seed):
    argv = ["modulus", "--input", csv_path, "--bins", "200", "--seed", str(seed),
            "--output-dir", out_dir]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def build_modulus(seed, size, workdir) -> Workload:
    rng = _rng(seed, 3)
    csv_path = os.path.join(workdir, "cloud.csv")
    out_dir = os.path.join(workdir, "modulus")
    _write_cloud(csv_path, *_half_holder_cloud(rng, size["cloud"]))
    ball = geometry.Domain.ball(2, 1.0)
    cli_seed = int(rng.integers(0, 2**31))
    boundary_seed = int(rng.integers(0, 2**31))
    ops = []

    def cli_run():
        code, text = _cli_modulus(csv_path, out_dir, cli_seed)
        with open(os.path.join(out_dir, "modulus.csv")) as fh:
            curve_text = fh.read()
        with open(os.path.join(out_dir, "modulus_majorant.csv")) as fh:
            major_text = fh.read()
        curve = modulus.ModulusCurve.from_csv(curve_text)
        major = modulus.ModulusCurve.from_csv(major_text)
        ok = (
            code == 0
            and bool(np.all(curve.w <= np.sqrt(curve.t) * (1 + 1e-12)))
            and bool(np.all(major(curve.t) >= curve.w - 1e-14))
        )
        return ok, (code, text, curve_text, major_text)

    ops.append(Op("cli.modulus", cli_run))

    def from_samples():
        data = barrier.boundary_from_samples(
            lambda z: np.asarray(z)[..., 0].real, ball, samples=size["boundary"], bins=200,
            seed=boundary_seed,
        )
        c = data.omega_phi
        ok = bool(np.all(c.w <= c.t * (1 + 1e-12))) and -1.0 <= data.inf_phi <= data.sup_phi <= 1.0
        return ok, (c.w, data.inf_phi, data.sup_phi)

    ops.append(Op("boundary_from_samples.re_z1", from_samples))

    def hull(curve):
        # the verify suite's hull gates: majorizes, concave, idempotent
        maj = modulus.concave_majorant(curve)
        slopes = np.diff(maj.w) / np.diff(maj.t)
        ok = (
            bool(np.all(maj(curve.t) >= curve.w - 1e-14))
            and bool(np.all(np.diff(slopes) <= 1e-12))
            and modulus.concave_majorant(maj) == maj
        )
        return ok, (maj.t, maj.w)

    for _ in range(size["hulls"]):
        k = int(rng.integers(20, 200))
        t = np.unique(np.concatenate(([0.0], np.sort(rng.random(k - 1)) + 1e-3)))
        w = np.concatenate(([0.0], np.maximum.accumulate(rng.random(t.size - 1))))
        ops.append(Op("concave_majorant", lambda c=modulus.ModulusCurve(t, w): hull(c)))

    def fit(curve, expo):
        rep = modulus.holder_fit(curve, (1e-4, 1e-1))
        return abs(rep.exponent - expo) <= 0.02, (rep.exponent, rep.constant)

    t_fit = np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 400)))
    for _ in range(size["fits"]):
        expo = float(rng.uniform(0.3, 1.0))
        slope = float(rng.uniform(0.5, 3.0))
        curve = modulus.ModulusCurve(t_fit, slope * t_fit**expo)
        ops.append(Op("holder_fit", lambda c=curve, e=expo: fit(c, e)))

    def scaling(curve, eta, t):
        sb = modulus.scaling_bound_check(curve, eta, t)
        worst = min(sb.margin_lower, sb.margin_upper)
        return worst >= -1e-12, worst

    t_scale = np.linspace(0.0, 1.0, 101)
    for _ in range(size["scalings"]):
        expo = float(rng.uniform(0.3, 1.0))
        eta = float(rng.uniform(0.05, 3.0))
        t = float(rng.uniform(0.05, 1.0 / max(eta, 1.0)))
        curve = modulus.ModulusCurve(t_scale, t_scale**expo)
        ops.append(Op("scaling_bound_check", lambda c=curve, e=eta, t=t: scaling(c, e, t)))

    warm_csv = os.path.join(workdir, "warmup.csv")
    _write_cloud(warm_csv, *_half_holder_cloud(_rng(seed, 98), 40))

    def warmup():
        _cli_modulus(warm_csv, os.path.join(workdir, "warmup"), 0)
        barrier.boundary_from_samples(lambda z: np.asarray(z)[..., 0].real, ball, samples=20, bins=10)
        curve = modulus.ModulusCurve(t_fit, t_fit**0.5)
        modulus.holder_fit(curve, (1e-4, 1e-1))
        modulus.scaling_bound_check(curve, 0.5, 0.5)

    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# radial


def _jittered_geomspace(rng, lo, count):
    """Ascending radii in [lo, 1], geometric up to a seeded shift of each
    interior point by at most a tenth of the log-spacing; ends fixed."""
    log_r = np.linspace(math.log(lo), 0.0, count)
    step = -math.log(lo) / (count - 1)
    log_r[1:-1] += 0.1 * step * rng.uniform(-1.0, 1.0, count - 2)
    return np.exp(log_r)


def build_radial(seed, size, workdir) -> Workload:
    rng = _rng(seed, 4)
    ops = []

    def log_profile(n, m, gamma, grid):
        problem = radial.RadialProblem(n, m, radial.LogDensity(gamma, m), convention="form")
        sol = radial.radial_solve(problem, grid=grid, tol=1e-9)
        u = sol.u
        ok = bool(np.all(np.isfinite(u)) and np.all(np.diff(u) >= 0) and np.all(u <= 0)) and u[-1] == 0.0
        return ok, u

    for n, m, gamma in ((3, 2, 1.5), (3, 1, 0.8), (4, 2, 2.5)):
        grid = _jittered_geomspace(rng, 1e-3, size["log_grid"])
        ops.append(Op(f"log_profile.{n}{m}", lambda n=n, m=m, g=gamma, r=grid: log_profile(n, m, g, r)))

    def table_profile(knots, alpha, grid):
        # a log-linear table of rho^-alpha is exact, so it must reproduce the
        # power-density profile (radial unit test gate 1e-8)
        table = radial.TableDensity(knots, knots**-alpha)
        s1 = radial.radial_solve(radial.RadialProblem(2, 2, table), grid=grid, tol=1e-10)
        s2 = radial.radial_solve(radial.RadialProblem(2, 2, radial.PowerDensity(alpha)), grid=grid, tol=1e-10)
        gap = float(np.max(np.abs(s1.u - s2.u)))
        return gap <= 1e-8, s1.u

    knots = _jittered_geomspace(rng, 1e-6, size["table_knots"])
    alpha = float(rng.choice([0.5, 1.0, 1.5]))
    table_grid = _jittered_geomspace(rng, 1e-2, size["table_grid"])
    ops.append(Op("table_profile.22", lambda k=knots, a=alpha, r=table_grid: table_profile(k, a, r)))

    def power_closed(n, m, alpha, grid):
        problem = radial.RadialProblem(n, m, radial.PowerDensity(alpha), convention="paper")
        sol = radial.radial_solve(problem, grid=grid, tol=1e-12)
        c = radial.power_profile_coefficient(n, m, alpha, "paper")
        closed = c * (sol.r ** (2.0 - alpha / m) - 1.0)
        err = float(np.max(np.abs(sol.u - closed) / np.maximum(np.abs(closed), 1e-13)))
        return err <= 1e-8, sol.u  # criterion 1

    for n, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        for alpha in (0.5, 1.0, float(m), 1.9 * m):
            grid = _jittered_geomspace(rng, 1e-2, size["power_grid"])
            ops.append(Op(f"power_closed_form.{n}{m}",
                          lambda n=n, m=m, a=alpha, r=grid: power_closed(n, m, a, r)))

    def holder(n, m, alpha):
        rep = radial.holder_exponent_check(radial.RadialProblem(n, m, radial.PowerDensity(alpha)))
        expected = min(1.0, 2.0 - alpha / m)
        return abs(rep.fit.exponent - expected) <= 0.03, rep.fit.exponent  # criterion 3

    for n, m in ((2, 1), (2, 2), (3, 2), (3, 3)):
        for ratio in rng.choice([0.5, 1.0, 1.5], size["holder"], replace=False):
            ops.append(Op(f"holder_exponent.{n}{m}", lambda n=n, m=m, a=float(ratio) * m: holder(n, m, a)))

    def residual(n, m, density, convention, grid, window, expected):
        problem = radial.RadialProblem(n, m, density, convention=convention)
        sol = radial.radial_solve(problem, grid=grid, tol=1e-10)
        res = radial.radial_hessian_residual(sol, problem, *window)
        if expected is None:
            return res <= 1e-4, res  # criterion 2, form convention
        return abs(res - expected) <= 1e-3 * expected, res  # paper offset

    g = size["residual_grid"]
    for label, args in (
        ("const.22", (2, 2, radial.ConstDensity(1.0), "form", max(g // 4, 200), (0.0, 1.0), None)),
        ("power.32", (3, 2, radial.PowerDensity(1.0), "form", g, (0.05, 0.95), None)),
        ("paper.32", (3, 2, radial.ConstDensity(1.0), "paper", max(g // 4, 200), (0.0, 1.0),
                      (1.0 - 1.0 / math.comb(3, 2)) / 2.0)),
    ):
        n, m, density, convention, count, window, expected = args
        # unjittered: the 3-point derivatives of the residual assume a smooth grid
        grid = np.geomspace(1e-3, 1.0, count)
        ops.append(Op(f"hessian_residual.{label}",
                      lambda a=(n, m, density, convention, grid, window, expected): residual(*a)))

    def log_example(gamma, n, m, bounded):
        rep = radial.log_example_check(gamma, n, m)
        increasing = bool(np.all(np.diff(rep.k_values) > 0))
        if bounded:
            ok = rep.verdict == "bounded" and rep.bound_ok
        else:
            ok = rep.verdict == "unbounded" and increasing and rep.bound_ok
        return ok, (rep.k_values, rep.growth_exponent, rep.fitted_c)

    # the admissible criterion-4 legs; the n = m, gamma <= 1 leg diverges by
    # construction and is not a measured operation
    ops.append(Op("log_example.unbounded.21", lambda: log_example(0.6, 2, 1, False)))
    ops.append(Op("log_example.bounded.22", lambda: log_example(4.0, 2, 2, True)))

    def warmup():
        small = np.geomspace(0.1, 1.0, 4)
        for density in (radial.ConstDensity(1.0), radial.PowerDensity(1.0),
                        radial.LogDensity(1.5, 1), radial.TableDensity(small, small)):
            radial.radial_solve(radial.RadialProblem(2, 1, density), grid=small, tol=1e-6)
        problem = radial.RadialProblem(2, 2, radial.ConstDensity(1.0))
        sol = radial.radial_solve(problem, grid=200, tol=1e-8)
        radial.radial_hessian_residual(sol, problem)

    return Workload(ops, warmup)


WORKLOADS = {
    "cone": build_cone,
    "barrier": build_barrier,
    "modulus": build_modulus,
    "radial": build_radial,
}
