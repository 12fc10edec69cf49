import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate  # test-only oracle: the package itself does not use scipy

from hessiankit import radial
from hessiankit.errors import ArgumentError, DomainError, QuadratureError
from hessiankit.radial import (
    ConstDensity,
    LogDensity,
    PowerDensity,
    RadialProblem,
    TableDensity,
)


def reference_table_integral(table, t, n):
    """The per-knot loop TableDensity.inner_integral replaced."""
    if t == 0.0:
        return 0.0
    power = 2 * n - 1
    p0 = table._segment_exponent(0)
    if power + p0 <= -1:
        raise DomainError("table density is not integrable against rho^(2n-1) at 0")
    total = 0.0
    lo = min(t, table.rho[0])
    total += radial._power_primitive(table.values[0], table.rho[0], p0, 0.0, lo, power)
    if t <= table.rho[0]:
        return total
    for i in range(table.rho.size - 1):
        a = table.rho[i]
        b = min(t, table.rho[i + 1])
        if b <= a:
            break
        total += radial._power_primitive(table.values[i], a, table.exponents[i], a, b, power)
        if t <= table.rho[i + 1]:
            return total
    pl = table._segment_exponent(table.rho.size - 2)
    total += radial._power_primitive(table.values[-1], table.rho[-1], pl, table.rho[-1], t, power)
    return total


def reference_log_inner_integral(density, t, n):
    """The nested scalar quad LogDensity.inner_integral replaced (n > m),
    with a relative tolerance only: an absolute floor swamps the inner
    integrals of order t^(2k) near the origin."""
    if t == 0.0:
        return 0.0
    k = n - density.m
    x = 1.0 - math.log(t)
    return integrate.quad(
        lambda s: math.exp(2 * k * (1.0 - s)) * s ** (-density.gamma),
        x, np.inf, epsabs=0.0, epsrel=1e-12, limit=200,
    )[0]


def incomplete_gamma_log_inner_integral(density, t, n, dps=30):
    """int_x^inf e^(2k(1-s)) s^(-gamma) ds = e^(2k) (2k)^(gamma-1) Gamma(1-gamma, 2kx)
    with x = 1 - log t, from mpmath at ``dps`` digits."""
    k = n - density.m
    with mpmath.workdps(dps):
        x = 1 - mpmath.log(mpmath.mpf(float(t)))
        gamma = density.gamma
        return mpmath.e ** (2 * k) * mpmath.mpf(2 * k) ** (gamma - 1) * mpmath.gammainc(1 - gamma, 2 * k * x)


def reference_radial_solve(problem, grid, tol):
    """The per-panel scalar quad loop radial_solve replaced, with the
    nested-quad inner integral for the log density with n > m."""
    n, m = problem.n, problem.m
    if isinstance(grid, int):
        r = np.linspace(0.0, 1.0, grid + 1)
    else:
        r = np.unique(np.asarray(grid, dtype=float))
        if r[-1] < 1.0:
            r = np.append(r, 1.0)
    density = problem.density
    outer_exp = 1.0 - 2.0 * n / m

    def integrand(t):
        if isinstance(density, LogDensity) and n > density.m:
            inner = reference_log_inner_integral(density, t, n)
        else:
            inner = float(density.inner_integral(t, n))
        return t**outer_exp * max(inner, 0.0) ** (1.0 / m)

    npanels = r.size - 1
    panel_tol = max(tol / max(npanels, 1), 1e-15)
    u = np.zeros(r.size)
    acc = 0.0
    for i in range(npanels - 1, -1, -1):
        val, _ = integrate.quad(integrand, r[i], r[i + 1], epsabs=panel_tol, epsrel=1e-12, limit=400)
        acc += val
        u[i] = -problem.B * acc
    return r, u


def reference_bisection_solve(problem, grid, tol):
    """radial_solve with the bisection that regrew its piece arrays by
    column_stack every round: (solution, round in which each bisected panel
    settled).  Raises QuadratureError as radial_solve does."""
    n, m = problem.n, problem.m
    r = np.unique(np.asarray(grid, dtype=float))
    if r[-1] < 1.0:
        r = np.append(r, 1.0)
    density = problem.density

    def integrand(t):
        inner = np.maximum(density.inner_integral(t, n), 0.0)
        return t ** (1.0 - 2.0 * n / m) * inner ** (1.0 / m)

    panel_tol = max(tol / max(r.size - 1, 1), 1e-15)

    def settled(value, error):
        return (error <= np.maximum(panel_tol, 1e-12 * np.abs(value))) | ~np.isfinite(value)

    val, err = radial._qk21(integrand, r[:-1], r[1:])
    failing = np.flatnonzero(~settled(val, err))
    panels_bisected = failing.size
    lo, hi = r[failing, None], r[failing + 1, None]
    pval, perr = val[failing, None], err[failing, None]
    settled_in = {}
    while failing.size and pval.shape[1] < radial.BISECTION_LIMIT:
        rows = np.arange(failing.size)
        worst = np.argmax(perr, axis=1)
        a, b = lo[rows, worst], hi[rows, worst]
        mid = 0.5 * (a + b)
        v, e = radial._qk21(integrand, np.concatenate((a, mid)), np.concatenate((mid, b)))
        hi[rows, worst] = mid
        pval[rows, worst], perr[rows, worst] = v[: rows.size], e[: rows.size]
        lo, hi = np.column_stack((lo, mid)), np.column_stack((hi, b))
        pval, perr = np.column_stack((pval, v[rows.size :])), np.column_stack((perr, e[rows.size :]))
        val[failing], err[failing] = pval.sum(axis=1), perr.sum(axis=1)
        keep = ~settled(val[failing], err[failing])
        settled_in.update(dict.fromkeys(failing[~keep].tolist(), pval.shape[1] - 1))
        failing, lo, hi, pval, perr = failing[keep], lo[keep], hi[keep], pval[keep], perr[keep]

    u = np.zeros(r.size)
    u[:-1] = -problem.B * np.cumsum(val[::-1])[::-1]
    total_err = float(np.sum(err))
    if total_err * problem.B > tol * max(1.0, float(np.max(np.abs(u)))):
        raise QuadratureError("tol not met", achieved=total_err * problem.B)
    solution = radial.RadialSolution(
        r=r, u=u, B_used=problem.B, achieved_error=total_err * problem.B,
        panels_bisected=panels_bisected, worst_panel_error=float(err.max(initial=0.0)) * problem.B,
    )
    return solution, settled_in


def reference_fit_growth_exponent(k_values):
    """The per-candidate lstsq loop radial._fit_growth_exponent replaced."""
    s = 1.0 + np.arange(1, k_values.size + 1) * math.log(10.0)
    best_e, best_res = 0.0, math.inf
    for e in np.linspace(-3.0, 3.0, 601):
        col = np.log(s) if abs(e) < 5e-3 else s**e
        basis = np.column_stack([np.ones_like(s), col])
        _, res, _, _ = np.linalg.lstsq(basis, k_values, rcond=None)
        r = float(res[0]) if res.size else 0.0
        if r < best_res:
            best_res, best_e = r, float(e)
    return best_e


def reference_radial_modulus(solution, t_knots):
    """The per-knot loop radial_modulus replaced."""
    r, u = solution.r, solution.u
    w = np.empty(t_knots.size)
    for i, t in enumerate(t_knots):
        w[i] = float(np.max(np.interp(np.minimum(r + t, 1.0), r, u) - u))
    return np.concatenate(([0.0], np.maximum(np.maximum.accumulate(w), 0.0)))


class TestConventions:
    def test_convention_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, n + 1))
            ratio = radial.convention_coefficient(n, m, "paper") / radial.convention_coefficient(n, m, "form")
            assert ratio == pytest.approx(math.comb(n, m) ** (-1.0 / m), rel=1e-12)


class TestRadialSolve:
    def test_const_paper_reference(self):
        problem = RadialProblem(2, 1, ConstDensity(1.0), convention="paper")
        sol = radial.radial_solve(problem, grid=64, tol=1e-10)
        assert np.max(np.abs(sol.u - (sol.r**2 - 1.0) / 2.0)) <= 1e-10
        assert sol.u[-1] == 0.0

    def test_const_form_any_order(self):
        for (n, m, c0) in ((2, 2, 1.0), (3, 2, 4.0), (4, 3, 0.5)):
            problem = RadialProblem(n, m, ConstDensity(c0), convention="form")
            sol = radial.radial_solve(problem, grid=64, tol=1e-10)
            expected = c0 ** (1.0 / m) * (sol.r**2 - 1.0)
            assert np.max(np.abs(sol.u - expected)) <= 1e-10

    def test_power_closed_form(self):
        problem = RadialProblem(3, 2, PowerDensity(1.5), convention="paper")
        grid = np.geomspace(0.01, 1.0, 100)
        sol = radial.radial_solve(problem, grid=grid, tol=1e-12)
        c = radial.power_profile_coefficient(3, 2, 1.5, "paper")
        closed = c * (sol.r ** (2.0 - 1.5 / 2.0) - 1.0)
        denom = np.maximum(np.abs(closed), 1e-13)
        assert np.max(np.abs(sol.u - closed) / denom) <= 1e-8

    def test_monotone_zero_boundary(self):
        problem = RadialProblem(2, 2, PowerDensity(3.0), convention="form")
        sol = radial.radial_solve(problem, grid=200, tol=1e-10)
        assert sol.u[-1] == 0.0
        assert np.all(np.diff(sol.u) >= 0.0)
        assert np.all(sol.u <= 0.0)

    def test_grid_refinement_stability(self):
        tol = 1e-10
        problem = RadialProblem(2, 2, PowerDensity(1.0), convention="form")
        coarse = radial.radial_solve(problem, grid=100, tol=tol)
        fine = radial.radial_solve(problem, grid=200, tol=tol)
        shared = np.intersect1d(coarse.r, fine.r)
        gap = np.abs(coarse.interp(shared) - fine.interp(shared))
        assert np.max(gap) <= 10.0 * tol

    def test_csv_serialization(self):
        problem = RadialProblem(2, 1, ConstDensity(1.0), convention="paper")
        sol = radial.radial_solve(problem, grid=8)
        text = sol.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "r,U"
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(rows[:, 0], sol.r)
        assert np.array_equal(rows[:, 1], sol.u)

    def test_invalid_density_parameters(self):
        with pytest.raises(DomainError):
            RadialProblem(2, 1, PowerDensity(4.5))  # alpha >= 2n
        with pytest.raises(DomainError):
            RadialProblem(3, 2, LogDensity(0.5, 2))  # gamma <= m/n

    def test_unmet_tolerance_reports_achieved_error(self):
        from hessiankit.errors import QuadratureError

        # outer integrand ~ t^(-0.995): integrable, but not to 1e-14
        problem = RadialProblem(2, 2, PowerDensity(3.99), convention="form")
        grid = np.concatenate(([0.0], np.geomspace(1e-10, 1.0, 50)))
        with pytest.raises(QuadratureError) as err:
            radial.radial_solve(problem, grid=grid, tol=1e-14)
        assert err.value.achieved is not None and err.value.achieved > 1e-14

    def test_unbounded_log_profile_at_origin_is_rejected_up_front(self):
        from hessiankit.errors import QuadratureError

        grid = np.concatenate(([0.0], np.geomspace(0.05, 1.0, 6)))
        # gamma <= m for n > m, gamma <= m + 1 for n = m: U(0) = -inf
        for n, gamma in ((3, 1.5), (3, 2.0), (2, 2.5), (2, 3.0)):
            with pytest.raises(DomainError, match="unbounded at r = 0"):
                radial.radial_solve(RadialProblem(n, 2, LogDensity(gamma, 2)), grid=grid, tol=1e-8)
        # bounded at 0, yet bisection without epsilon extrapolation cannot
        # settle the log-singular first panel
        with pytest.raises(QuadratureError):
            radial.radial_solve(RadialProblem(3, 2, LogDensity(3.0, 2)), grid=grid, tol=1e-8)
        # off the origin the unbounded profile is finite and solved
        sol = radial.radial_solve(RadialProblem(3, 2, LogDensity(1.5, 2)), grid=grid[1:], tol=1e-8)
        assert np.all(np.isfinite(sol.u))


def _kinked_table():
    # random log-linear segments: kinks at the knots inside the panels
    knots = np.geomspace(1e-4, 1.0, 40)
    return TableDensity(knots, np.exp(np.random.default_rng(8).uniform(-1.0, 1.0, 40)))


SINGULAR_GRID = np.concatenate(([0.0], np.geomspace(1e-7, 1.0, 300)))


class TestAgainstScalarQuadLoop:
    @pytest.mark.parametrize("n, m, density, convention, grid, tol", [
        (2, 1, ConstDensity(1.0), "paper", 64, 1e-10),
        (3, 2, ConstDensity(4.0), "form", np.geomspace(1e-3, 1.0, 200), 1e-10),
        (3, 2, PowerDensity(1.5), "paper", np.geomspace(0.01, 1.0, 100), 1e-12),
        # alpha/m = 1.5: the first panel [0, 1e-7] carries t^(-1/2)
        (2, 2, PowerDensity(3.0), "form", SINGULAR_GRID, 1e-10),
        (3, 2, PowerDensity(3.0), "form", SINGULAR_GRID, 1e-10),
        (2, 2, _kinked_table(), "form", np.geomspace(1e-2, 1.0, 50), 1e-10),
        (2, 2, _kinked_table(), "form", np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 50))), 1e-10),
        (2, 2, LogDensity(4.0, 2), "form", np.geomspace(1e-3, 1.0, 300), 1e-9),
    ])
    def test_closed_form_inner_integrals_to_1e_12(self, n, m, density, convention, grid, tol):
        problem = RadialProblem(n, m, density, convention=convention)
        sol = radial.radial_solve(problem, grid=grid, tol=tol)
        r, u = reference_radial_solve(problem, grid, tol)
        assert np.array_equal(sol.r, r)
        assert sol.u[-1] == 0.0
        assert np.all(np.abs(sol.u - u) <= 1e-12 * np.abs(u))

    @pytest.mark.parametrize("n, m, gamma, r_min", [(3, 2, 1.0, 1e-3), (3, 1, 0.8, 1e-3), (4, 2, 2.5, 1e-8)])
    def test_log_profile_to_1e_12(self, n, m, gamma, r_min):
        # the two sides agree to 3e-14 relative; with the absolute floor
        # 1e-14 the nested quad was off by up to 9e-10 here
        problem = RadialProblem(n, m, LogDensity(gamma, m))
        grid = np.geomspace(r_min, 1.0, 300)
        sol = radial.radial_solve(problem, grid=grid, tol=1e-9)
        _, u = reference_radial_solve(problem, grid, 1e-9)
        assert sol.u[-1] == 0.0
        assert np.all(np.abs(sol.u - u) <= 1e-12 * np.abs(u))

    @pytest.mark.parametrize("n, m, gamma", [(3, 2, 1.0), (3, 1, 0.8), (4, 2, 2.5), (2, 1, 0.6)])
    def test_log_reference_against_incomplete_gamma(self, n, m, gamma):
        # the nested quad of the reference solve, checked against the closed
        # form; mpmath is too slow (up to 1 ms a call at non-integer gamma)
        # to stand in for it at the reference's 6,279 nodes per profile
        density = LogDensity(gamma, m)
        for t in np.geomspace(1e-12, 1.0, 25):
            exact = incomplete_gamma_log_inner_integral(density, t, n)
            assert abs(reference_log_inner_integral(density, float(t), n) - exact) <= 1e-13 * exact

    def test_only_failing_panels_are_bisected(self):
        problem = RadialProblem(2, 2, PowerDensity(3.0))
        sol = radial.radial_solve(problem, grid=SINGULAR_GRID, tol=1e-10)
        assert sol.panels_bisected == 1
        assert 0.0 < sol.worst_panel_error <= sol.achieved_error <= 1e-10
        smooth = radial.radial_solve(problem, grid=SINGULAR_GRID[1:], tol=1e-10)
        assert smooth.panels_bisected == 0

    def test_log_solve_memory_is_blocked(self):
        # 10^5 panels have 2.1e6 Kronrod nodes; one (nodes, 80) Laguerre
        # array would take 1.3 GB and the node array alone 17 MB
        problem = RadialProblem(3, 2, LogDensity(1.5, 2))
        grid = np.linspace(1e-8, 1.0, 100_001)
        tracemalloc.start()
        try:
            sol = radial.radial_solve(problem, grid=grid, tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.u.size == grid.size and sol.u[-1] == 0.0
        assert peak <= 16e6


HOLDER_GRID = np.concatenate(([0.0], np.geomspace(1e-7, 1.0, 3000)))


class KinkedIntegrand:
    """Not a density: the inner integral t^(2n) (1 + |cos(pi K t + 1)|) has
    a kink off the centre of every panel of linspace(0, 1, K + 1)."""

    kind = "kinked"

    def __init__(self, k):
        self.k = k

    def inner_integral(self, t, n):
        t = np.asarray(t, dtype=float)
        return t ** (2 * n) * (1.0 + np.abs(np.cos(np.pi * self.k * t + 1.0)))


def assert_same_solution(sol, ref):
    assert np.array_equal(sol.r, ref.r) and np.array_equal(sol.u, ref.u)
    assert sol.B_used == ref.B_used and sol.achieved_error == ref.achieved_error
    assert sol.panels_bisected == ref.panels_bisected
    assert sol.worst_panel_error == ref.worst_panel_error


class TestBisectionMatchesColumnStackLoop:
    @pytest.mark.parametrize("n, m, density, grid, tol", [
        (2, 2, PowerDensity(3.0), SINGULAR_GRID, 1e-10),
        (3, 2, PowerDensity(3.0), SINGULAR_GRID, 1e-10),
        (2, 1, PowerDensity(1.5), HOLDER_GRID, 1e-10),
        (3, 3, PowerDensity(4.5), HOLDER_GRID, 1e-10),
        (2, 2, _kinked_table(), np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 50))), 1e-10),
    ])
    def test_every_field_is_equal(self, n, m, density, grid, tol):
        problem = RadialProblem(n, m, density)
        ref, settled_in = reference_bisection_solve(problem, grid, tol)
        assert ref.panels_bisected == len(settled_in) > 0
        assert_same_solution(radial.radial_solve(problem, grid=grid, tol=tol), ref)

    @pytest.mark.parametrize("n, m, density, tol, pieces", [
        (3, 3, PowerDensity(1.0), 3e-7, 8),
        (3, 3, PowerDensity(1.0), 3e-11, 16),
        (2, 2, PowerDensity(2.5), 3e-8, 32),
    ])
    def test_panel_settling_at_a_multiple_of_eight_pieces(self, n, m, density, tol, pieces):
        # numpy sums 8 or more pieces in eight lanes and adds the remainder
        # after them, so at a multiple of 8 pieces its sum is not the sum of
        # all pieces but the last, plus the last
        problem = RadialProblem(n, m, density)
        grid = np.array([0.0, 0.5, 1.0])
        ref, settled_in = reference_bisection_solve(problem, grid, tol)
        # the one bisected panel settles in round pieces - 1
        assert sorted(settled_in.values()) == [pieces - 1]
        assert_same_solution(radial.radial_solve(problem, grid=grid, tol=tol), ref)

    def test_panels_settling_in_different_rounds(self):
        # the three outer panels settle in round 2; the origin panel runs on
        # alone to round 74, through five more doublings of the capacity
        problem = RadialProblem(2, 2, PowerDensity(3.0))
        grid = np.array([0.0, 1e-3, 0.01, 0.1])
        ref, settled_in = reference_bisection_solve(problem, grid, 1e-12)
        rounds = sorted(set(settled_in.values()))
        assert len(settled_in) == 4 and len(rounds) == 2 and rounds[-1] > 64
        assert_same_solution(radial.radial_solve(problem, grid=grid, tol=1e-12), ref)

    def test_bisection_limit_error(self):
        # the grid of test_unmet_tolerance_reports_achieved_error
        problem = RadialProblem(2, 2, PowerDensity(3.99), convention="form")
        grid = np.concatenate(([0.0], np.geomspace(1e-10, 1.0, 50)))
        with pytest.raises(QuadratureError) as ref_err:
            reference_bisection_solve(problem, grid, 1e-14)
        with pytest.raises(QuadratureError) as err:
            radial.radial_solve(problem, grid=grid, tol=1e-14)
        assert err.value.achieved == ref_err.value.achieved

    def test_piece_storage_within_twice_the_regrown_arrays(self):
        # 1,000 failing panels settle in rounds 13-18, so the pieces outweigh
        # the qk21 blocks; the capacity is at most twice the filled width
        problem = RadialProblem(2, 2, KinkedIntegrand(1000))
        grid = np.linspace(0.0, 1.0, 1001)
        ref, settled_in = reference_bisection_solve(problem, grid, 1e-12)
        assert ref.panels_bisected == 1000 and min(settled_in.values()) >= 10
        assert_same_solution(radial.radial_solve(problem, grid=grid, tol=1e-12), ref)
        peaks = []
        for solve in (reference_bisection_solve, radial.radial_solve):
            tracemalloc.start()
            try:
                solve(problem, grid, 1e-12)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.0 * peaks[0]


class TestTableDensity:
    def test_matches_power_profile(self):
        # a table sampling rho^-1 reproduces the power-density profile
        knots = np.geomspace(1e-6, 1.0, 200)
        table = TableDensity(knots, knots**-1.0)
        p_table = RadialProblem(2, 2, table, convention="form")
        p_power = RadialProblem(2, 2, PowerDensity(1.0), convention="form")
        grid = np.geomspace(0.01, 1.0, 50)
        s1 = radial.radial_solve(p_table, grid=grid, tol=1e-10)
        s2 = radial.radial_solve(p_power, grid=grid, tol=1e-10)
        assert np.max(np.abs(s1.u - s2.u)) <= 1e-8

    def test_inner_integral_against_quadrature(self):
        rng = np.random.default_rng(3)
        knots = np.geomspace(0.05, 1.0, 12)
        vals = np.exp(rng.uniform(-1.0, 1.0, 12))
        table = TableDensity(knots, vals)
        n = 2
        for t in (0.03, 0.2, 0.7, 1.0):
            oracle, _ = integrate.quad(
                lambda r: r ** (2 * n - 1) * float(table(np.array([r]))[0]), 0.0, t,
                points=[k for k in knots if k < t], limit=300,
            )
            assert table.inner_integral(t, n) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inner_integral_matches_knot_loop(self, n):
        rng = np.random.default_rng(40 + n)
        for size in (2, 3, 150):
            knots = np.sort(rng.uniform(0.02, 0.9, size))
            # segment exponents in (-1.5, 1.5): integrable against rho^(2n-1)
            steps = rng.uniform(-1.5, 1.5, size - 1) * np.diff(np.log(knots))
            table = TableDensity(knots, np.exp(np.concatenate(([0.3], 0.3 + np.cumsum(steps)))))
            mids = 0.5 * (knots[1:] + knots[:-1])
            ts = [0.5 * knots[0], *knots, *mids, *rng.uniform(0.0, 1.0, 50), 0.95, 1.0, 2.0]
            for t in ts:
                for arg in (float(t), t):  # Python floats, as quad passes, and numpy scalars
                    assert table.inner_integral(arg, n) == reference_table_integral(table, arg, n)

    def test_non_integrable_table_rejected_on_every_call(self):
        table = TableDensity([0.1, 0.5], [1.0, 1e-10])  # rho^-14.3 near 0
        for t in (0.05, 0.3, 0.3, 2.0):
            with pytest.raises(DomainError):
                table.inner_integral(t, 2)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            TableDensity([0.5, 0.2], [1.0, 1.0])
        with pytest.raises(ArgumentError):
            TableDensity([0.1, 0.5], [1.0, -1.0])

    @pytest.mark.parametrize("rho, values", [
        ([0.1, math.inf], [1.0, 2.0]),
        ([0.1, math.nan], [1.0, 2.0]),
        ([0.1, 0.5], [1.0, math.inf]),
        ([0.1, 0.5], [1.0, math.nan]),
    ])
    def test_non_finite_table_rejected(self, rho, values):
        # an infinite radius passed the ordering checks with exponent 0 and
        # solved; an infinite or NaN value failed only in the solve, with a
        # RuntimeWarning, as a profile that is not finite
        with pytest.raises(ArgumentError, match="finite"):
            TableDensity(rho, values)


class TestHessianResidual:
    def test_const_form_tiny(self):
        problem = RadialProblem(2, 2, ConstDensity(1.0), convention="form")
        sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 500), tol=1e-10)
        assert radial.radial_hessian_residual(sol, problem) <= 1e-6

    def test_power_alpha_m_away_from_origin(self):
        problem = RadialProblem(2, 2, PowerDensity(2.0), convention="form")
        sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 3000), tol=1e-10)
        res = radial.radial_hessian_residual(sol, problem, r_min=0.05, r_max=0.95)
        assert res <= 1e-4

    def test_paper_convention_offset(self):
        # paper-coefficient profiles solve the raw H_m equation, so the
        # normalized residual shows the fixed offset (1 - 1/binom(n,m)) / 2
        problem = RadialProblem(3, 2, ConstDensity(1.0), convention="paper")
        sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 500), tol=1e-10)
        res = radial.radial_hessian_residual(sol, problem)
        expected = (1.0 - 1.0 / math.comb(3, 2)) / 2.0
        assert res == pytest.approx(expected, rel=1e-3)

    def test_coarse_grid_rejected(self):
        problem = RadialProblem(2, 2, ConstDensity(1.0), convention="form")
        sol = radial.radial_solve(problem, grid=50, tol=1e-10)
        with pytest.raises(ArgumentError):
            radial.radial_hessian_residual(sol, problem)


class TestHolderExponent:
    def test_lipschitz_regime(self):
        problem = RadialProblem(2, 2, PowerDensity(1.0), convention="form")
        rep = radial.holder_exponent_check(problem)
        assert rep.expected == 1.0 and rep.verdict
        assert abs(rep.fit.exponent - 1.0) <= 0.03

    def test_sqrt_profile(self):
        problem = RadialProblem(2, 2, PowerDensity(3.0), convention="form")
        rep = radial.holder_exponent_check(problem)
        assert rep.expected == pytest.approx(0.5)
        assert abs(rep.fit.exponent - 0.5) <= 0.03

    def test_approach_critical_integrability(self):
        # alpha just below 2n/p with p = 1.5 approaches exponent 2/3
        alpha = 8.0 / 3.0 - 1e-3
        problem = RadialProblem(2, 2, PowerDensity(alpha), convention="form")
        rep = radial.holder_exponent_check(problem)
        assert abs(rep.fit.exponent - (2.0 - alpha / 2.0)) <= 0.03
        assert abs(rep.fit.exponent - 2.0 / 3.0) <= 0.05

    def test_const_density(self):
        problem = RadialProblem(3, 2, ConstDensity(2.0), convention="form")
        rep = radial.holder_exponent_check(problem)
        assert rep.verdict

    @pytest.mark.parametrize("density", [ConstDensity(1.0), PowerDensity(1.5)])
    def test_radial_modulus_matches_knot_loop(self, density):
        problem = RadialProblem(3, 2, density)
        for grid in (
            np.array([0.5, 1.0]),
            np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 400))),
            np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 3000))),
        ):
            sol = radial.radial_solve(problem, grid=grid, tol=1e-9)
            assert np.array_equal(sol.r, grid)
            block = radial.MODULUS_BLOCK // grid.size  # knots per np.interp block
            knot_sets = [np.geomspace(1e-5, 0.3, count) for count in (1, block - 1, block + 1, 90)]
            # the last set is past the grid: r + t > 1 at every radius
            knot_sets += [np.array([0.5, 1.0, 1.5]), np.array([1.0 + 1e-9, 1.5, 4.0])]
            for t_knots in knot_sets:
                curve = radial.radial_modulus(sol, t_knots)
                assert np.array_equal(curve.t[1:], t_knots)
                assert np.array_equal(curve.w, reference_radial_modulus(sol, t_knots))

    def test_radial_modulus_memory_is_blocked(self):
        # a single (knots, radii) interpolation peaks at 4.4 MB here
        problem = RadialProblem(2, 2, PowerDensity(1.0))
        sol = radial.radial_solve(problem, grid=HOLDER_GRID, tol=1e-10)
        t_knots = np.geomspace(1e-5, 0.3, 90)
        tracemalloc.start()
        try:
            radial.radial_modulus(sol, t_knots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.r.size == 3001 and peak <= 1e6


class TestLogDensityInternals:
    def test_inner_integral_against_quadrature(self):
        # absolute agreement; both sides sit at their absolute floors for
        # the vanishing small-t values
        for (n, m, g) in ((3, 2, 1.0), (2, 1, 0.6), (4, 2, 3.0)):
            den = LogDensity(g, m)
            for t in (1e-3, 0.3, 1.0):
                oracle, _ = integrate.quad(
                    lambda r: r ** (2 * n - 1) * float(den(np.array([r]))[0]),
                    0.0, t, limit=400,
                )
                mine = den.inner_integral(t, n)
                assert mine == pytest.approx(oracle, rel=1e-7, abs=1e-18)

    @pytest.mark.parametrize("n, m, gamma", [(3, 2, 1.5), (3, 1, 0.8), (4, 2, 2.5), (2, 1, 0.6), (6, 1, 0.3)])
    def test_inner_integral_against_incomplete_gamma(self, n, m, gamma):
        ts = np.concatenate((np.geomspace(1e-12, 1.0, 60), [0.37, 0.999]))
        density = LogDensity(gamma, m)
        mine = density.inner_integral(ts, n)
        for t, value in zip(ts, mine):
            exact = incomplete_gamma_log_inner_integral(density, t, n, dps=40)
            assert abs(value - exact) <= 1e-12 * exact

    def test_profile_validated_by_hessian_residual(self):
        # independent check of both inner-integral routes (closed form for
        # n = m, substituted quadrature for n > m)
        for (n, m, g) in ((2, 2, 4.0), (3, 2, 1.0)):
            problem = RadialProblem(n, m, LogDensity(g, m), convention="form")
            sol = radial.radial_solve(problem, grid=np.geomspace(1e-3, 1.0, 3000), tol=1e-9)
            res = radial.radial_hessian_residual(sol, problem, r_min=0.1, r_max=0.95)
            assert res <= 1e-4


class TestLogExample:
    def test_gamma_equal_m_slow_unbounded(self):
        rep = radial.log_example_check(2.0, 3, 2)
        assert rep.verdict == "unbounded"
        # growth slower than any power: fitted exponent near zero
        assert abs(rep.growth_exponent) <= 0.1
        assert np.all(np.diff(rep.k_values) > 0)

    def test_mid_regime_unbounded(self):
        rep = radial.log_example_check(1.0, 3, 2)
        assert rep.verdict == "unbounded" and rep.expected_unbounded
        assert rep.bound_ok

    def test_gamma_2m_bounded(self):
        rep = radial.log_example_check(4.0, 3, 2)
        assert rep.verdict == "bounded" and not rep.expected_unbounded
        # finite limit at the origin: tail increments vanish
        assert rep.k_values[-1] - rep.k_values[-2] <= 0.05 * rep.k_values[-1]

    def test_divergent_inner_integral(self):
        rep = radial.log_example_check(0.6, 2, 2)
        assert rep.divergent and rep.verdict == "unbounded"
        assert not np.any(np.isfinite(rep.k_values))

    def test_bound_shape_matches_theory(self):
        rep = radial.log_example_check(1.0, 3, 2)
        assert rep.theoretical_exponent == pytest.approx(0.5)
        assert abs(rep.growth_exponent - 0.5) <= 0.1


    @pytest.mark.parametrize("gamma, n, m", [
        (2.0, 3, 2), (1.0, 3, 2), (4.0, 3, 2),  # the cases above
        (2.5, 2, 2), (0.6, 2, 1), (4.0, 2, 2),  # the criterion-4 legs
    ])
    def test_growth_fit_matches_lstsq_loop(self, gamma, n, m):
        rep = radial.log_example_check(gamma, n, m)
        assert rep.growth_exponent == reference_fit_growth_exponent(rep.k_values)


class TestGammaExponent:
    def test_reference_value(self):
        assert radial.gamma_exponent(2, 1, 3.0, 1.0) == 1.0 / 7.0

    def test_monge_ampere_large_p_limit(self):
        for n in (2, 3, 4):
            val = radial.gamma_exponent(n, n, 1e6, 1.0)
            assert abs(val - 1.0 / (1.0 + n)) <= 1e-4

    def test_monotonicity(self):
        rs = np.linspace(1.0, 20.0, 20)
        ps = np.linspace(2.1, 40.0, 20)
        for n, m in ((2, 1), (3, 2), (4, 4)):
            grid = np.array([[radial.gamma_exponent(n, m, p, r) for p in ps] for r in rs])
            assert np.all(np.diff(grid, axis=0) > 0)  # increasing in r
            assert np.all(np.diff(grid, axis=1) > 0)  # increasing in p

    def test_power_density_exponent(self):
        assert radial.gamma_targets(3, 2, 2.0)["power_density_exponent"] == 0.5
        assert radial.gamma_targets(2, 1, 1e6)["power_density_exponent"] == 1.0

    def test_gamma_1_never_exceeds_the_power_density_exponent(self):
        # rho^(-alpha) is in L^p for alpha < 2n/p and its exact profile has
        # exponent min(1, 2 - alpha/m), so the theorem's gamma_1 cannot pass
        # that exponent at the edge alpha = 2n/p
        for n in range(1, 7):
            for m in range(1, n + 1):
                for p in n / m * (1.0 + np.geomspace(1e-4, 1e4, 200)):
                    targets = radial.gamma_targets(n, m, p)
                    assert targets["gamma_1"] <= targets["power_density_exponent"], (n, m, p)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            radial.gamma_exponent(2, 1, 1.5, 1.0)  # p <= n/m
        with pytest.raises(ArgumentError):
            radial.gamma_exponent(2, 1, 3.0, 0.5)  # r < 1


@pytest.mark.parametrize("make", [
    lambda: ConstDensity(math.nan),
    lambda: ConstDensity(math.inf),
    lambda: PowerDensity(math.nan),
    lambda: PowerDensity(math.inf),
    lambda: LogDensity(math.nan, 1),
    lambda: LogDensity(math.inf, 1),
    lambda: radial.gamma_exponent(2, 1, 3.0, math.nan),
    lambda: radial.gamma_exponent(2, 1, 3.0, math.inf),
    lambda: radial.gamma_exponent(2, 1, math.inf, 1.0),
    lambda: radial.gamma_exponent(2, 1, math.nan, 1.0),
], ids=["const-nan", "const-inf", "power-nan", "power-inf", "log-nan", "log-inf",
        "gamma-r-nan", "gamma-r-inf", "gamma-p-inf", "gamma-p-nan"])
def test_non_finite_parameter_rejected(make):
    # const nan used to fail only in the solve, const inf with a RuntimeWarning;
    # log inf solved to a zero profile; power and log nan met a DomainError in
    # RadialProblem; gamma_exponent returned nan, or for p = nan raised DomainError
    with pytest.raises(ArgumentError, match="finite"):
        make()


class TestModulusInequality:
    def test_lp_growth_bound(self):
        # |U(r1) - U(r)| <= C (r1^kappa - r^kappa) with kappa = 2 - 2n/(mp)
        n, m, alpha, p = 2, 2, 3.0, 1.2
        assert alpha * p < 2 * n  # density is in L^p
        kappa = 2.0 - 2.0 * n / (m * p)
        problem = RadialProblem(n, m, PowerDensity(alpha), convention="form")
        sol = radial.radial_solve(problem, grid=np.geomspace(1e-4, 1.0, 300), tol=1e-10)
        r = sol.r
        diffs = sol.u[None, :] - sol.u[:, None]
        steps = r[None, :] ** kappa - r[:, None] ** kappa
        iu = np.triu_indices(r.size, k=1)
        ratios = diffs[iu] / steps[iu]
        c_fit = float(np.max(ratios))
        assert np.isfinite(c_fit) and c_fit > 0
        assert np.all(diffs[iu] <= c_fit * steps[iu] + 1e-12)
