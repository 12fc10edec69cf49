import json
import math

import numpy as np
import pytest

from hessiankit import barrier, core, geometry, modulus, radial
from hessiankit.errors import ArgumentError
from hessiankit.geometry import Domain

BALL = Domain.ball(2, 1.0)


def ones_density(z):
    return np.ones(np.asarray(z).shape[0])


class TestBoundaryData:
    def test_named_specs(self):
        for spec in ("re_z1", "psi_sqrt", "const:2.5"):
            data = barrier.make_boundary_data(spec, BALL)
            pts = geometry.sample_boundary(BALL, 50, seed=1)
            vals = np.asarray(data.phi(pts), dtype=float)
            assert np.all(vals >= data.inf_phi - 1e-12)
            assert np.all(vals <= data.sup_phi + 1e-12)

    def test_psi_sqrt_ball_only(self):
        with pytest.raises(ArgumentError):
            barrier.boundary_psi_sqrt(Domain.ball(2, 2.0))

    def test_re_z1_modulus_exact(self):
        # pairs (a, w), (-a, w) realize |Re z1| gap = distance
        data = barrier.boundary_re_z1(BALL)
        pts = geometry.sample_boundary(BALL, 400, seed=2)
        vals = data.phi(pts)
        d2 = ((np.abs(pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)) ** 0.5
        gaps = np.abs(vals[:, None] - vals[None, :])
        assert np.all(gaps <= data.omega_phi(d2) + 1e-12)

    def test_psi_sqrt_modulus_majorizes(self):
        data = barrier.boundary_psi_sqrt(BALL)
        pts = geometry.sample_boundary(BALL, 400, seed=3)
        vals = data.phi(pts)
        d2 = ((np.abs(pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)) ** 0.5
        gaps = np.abs(vals[:, None] - vals[None, :])
        assert np.all(gaps <= data.omega_phi(d2) + 1e-12)

    def test_estimated_data(self):
        data = barrier.boundary_from_samples(
            lambda z: np.asarray(z)[..., 0].real ** 2, BALL, samples=400, seed=4
        )
        assert data.sup_phi <= 1.0 + 1e-12
        assert data.omega_phi.length == pytest.approx(BALL.diameter)


class TestPointBarrier:
    def test_touches_data_at_xi(self):
        data = barrier.boundary_re_z1(BALL)
        xis = geometry.sample_boundary(BALL, 30, seed=5)
        b_coeff = barrier.cone_coefficient(BALL, 2)
        omega_bar = barrier.shifted_modulus_majorant(data, 0.0, BALL.diameter)
        for i, xi in enumerate(xis):
            vb = barrier.build_point_barrier(
                xi, data, BALL, m=2, seed=(7, i), b_coeff=b_coeff, omega_bar=omega_bar
            )
            got = float(vb(xi[None, :])[0])
            want = float(data.phi(xi[None, :])[0])
            assert abs(got - want) <= 1e-9

    def test_below_data_on_boundary(self):
        data = barrier.boundary_psi_sqrt(BALL)
        xi = geometry.sample_boundary(BALL, 1, seed=6)[0]
        vb = barrier.build_point_barrier(xi, data, BALL, m=2, seed=8)
        samples = geometry.sample_boundary(BALL, 10000, seed=9)
        gap = vb(samples) - np.asarray(data.phi(samples), dtype=float)
        assert np.max(gap) <= 1e-9

    def test_parameter_invariants(self):
        data = barrier.boundary_re_z1(BALL)
        xi = geometry.sample_boundary(BALL, 1, seed=10)[0]
        vb = barrier.build_point_barrier(xi, data, BALL, m=2, f_sup=1.0, seed=11)
        p = vb.barriers
        assert 0 < p.r1 < p.r
        assert p.gamma1 >= BALL.diameter / p.r1
        eigs = np.linalg.eigvalsh(p.B * BALL.hess_rho() - np.eye(2))
        assert core.gamma_m_contains(eigs, 2).member
        assert p.K1 == 1.0 and p.K2 == pytest.approx(p.K1 * np.sum(np.abs(xi) ** 2))

    def test_interior_point_rejected(self):
        data = barrier.boundary_re_z1(BALL)
        with pytest.raises(ArgumentError):
            barrier.build_point_barrier(np.zeros(2, dtype=complex), data, BALL, m=2)

    @pytest.mark.parametrize("f_sup", [-1.0, math.nan, math.inf])
    def test_invalid_density_bound_rejected(self, f_sup):
        data = barrier.boundary_re_z1(BALL)
        with pytest.raises(ArgumentError):
            barrier.build_subsolution(data, None, BALL, m=2, xi_count=10, seed=1, f_sup=f_sup)
        xi = geometry.sample_boundary(BALL, 1, seed=12)[0]
        with pytest.raises(ArgumentError):
            barrier.build_point_barrier(xi, data, BALL, m=2, f_sup=f_sup)

    def test_oversized_g_rejected(self):
        # on the unit ball g = 2 Re<z, xi> - 2 stays within d^2 for B = 1,
        # but an inflated cone coefficient pushes |g| past it
        data = barrier.boundary_re_z1(BALL)
        xi = geometry.sample_boundary(BALL, 1, seed=12)[0]
        good = barrier.build_point_barrier(xi, data, BALL, m=2, seed=13)
        params = barrier.BarrierParams(
            B=200.0, r=good.barriers.r, r1=good.barriers.r1,
            gamma1=good.barriers.gamma1, gamma2=good.barriers.gamma2,
            K1=0.0, K2=0.0, xi=xi, z0=BALL.barycenter,
        )
        with pytest.raises(ArgumentError):
            barrier.build_point_barrier(xi, data, BALL, m=2, params=params)

    def test_modulus_of_glued_barrier(self):
        # omega of the glued barrier is controlled by omega_phi(sqrt t)
        data = barrier.boundary_re_z1(BALL)
        xi = np.array([1.0 + 0j, 0.0])
        vb = barrier.build_point_barrier(xi, data, BALL, m=2, seed=14)
        pts = barrier.verification_grid(BALL, 4000, seed=15, anchors=data.anchors)
        vals = vb(pts)
        reals = np.concatenate([pts.real, pts.imag], axis=1)
        edges = np.geomspace(1e-4, BALL.diameter, 160)
        curve = modulus.estimate_modulus(reals, vals, bins=edges, t_max=BALL.diameter)
        t, w = curve.t[1:], curve.w[1:]
        denom = data.omega_phi(np.minimum(np.sqrt(t), data.omega_phi.length))
        c_fit = float(np.max(w / denom))
        p = vb.barriers
        lip_rho = BALL.lipschitz_rho()
        c_bound = p.gamma1 * (1.0 + math.sqrt(2.0 * BALL.diameter + p.B * lip_rho))
        assert c_fit <= c_bound


class TestEnvelope:
    def test_constant_data_exact(self):
        data = barrier.boundary_const(BALL, -1.75)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=12, seed=20)
        pts = geometry.sample_interior(BALL, 300, seed=21)
        assert np.array_equal(env(pts), np.full(300, -1.75))

    def test_linear_data_sandwich(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=150, seed=22)
        sup = barrier.build_supersolution(data, None, BALL, m=2, xi_count=150, seed=22)
        grid = barrier.verification_grid(BALL, 4000, seed=23, anchors=data.anchors)
        exact = grid[:, 0].real
        assert np.max(env(grid) - exact) <= 1e-8
        assert np.max(exact - sup(grid)) <= 2e-8

    def test_boundary_agreement(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=60, seed=24)
        _, vx, px = env.boundary_values()
        assert np.max(np.abs(vx - px)) <= 1e-9

    def test_below_data_at_fresh_boundary_points(self):
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=80, seed=50)
        fresh = geometry.sample_boundary(BALL, 2000, seed=51)
        gap = env(fresh) - np.asarray(data.phi(fresh), dtype=float)
        assert np.max(gap) <= 1e-9

    def test_rebuild_is_deterministic(self):
        data = barrier.boundary_re_z1(BALL)
        pts = geometry.sample_interior(BALL, 400, seed=52)
        a = barrier.build_subsolution(data, None, BALL, m=2, xi_count=30, seed=53)(pts)
        b = barrier.build_subsolution(data, None, BALL, m=2, xi_count=30, seed=53)(pts)
        assert np.array_equal(a, b)

    def test_monotone_in_xi_count(self):
        data = barrier.boundary_psi_sqrt(BALL)
        small = barrier.build_subsolution(data, None, BALL, m=2, xi_count=40, seed=25)
        large = barrier.build_subsolution(data, None, BALL, m=2, xi_count=80, seed=25)
        pts = geometry.sample_interior(BALL, 500, seed=26)
        assert np.all(large(pts) >= small(pts) - 1e-14)

    def test_psi_example_sandwich(self):
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=150, seed=27)
        sup = barrier.build_supersolution(data, None, BALL, m=2, xi_count=150, seed=27)
        grid = barrier.verification_grid(BALL, 4000, seed=28, anchors=data.anchors)
        u = barrier.psi_example_solution(grid)
        assert np.max(env(grid) - u) <= 1e-8
        assert np.max(u - sup(grid)) <= 2e-8

    def test_unit_density_below_radial_solution(self):
        data = barrier.boundary_const(BALL, 0.0)
        env = barrier.build_subsolution(
            data, ones_density, BALL, m=2, xi_count=60, seed=29, f_sup=1.0
        )
        grid = barrier.verification_grid(BALL, 1500, seed=30)
        vals = env(grid)
        assert np.max(vals) <= 1e-12
        exact = (np.abs(grid) ** 2).sum(axis=-1) - 1.0  # radial profile for f = 1
        assert np.max(vals - exact) <= 1e-8
        problem = radial.RadialProblem(2, 2, radial.ConstDensity(1.0), convention="form")
        sol = radial.radial_solve(problem, grid=200)
        radii = np.sqrt((np.abs(grid) ** 2).sum(axis=-1))
        assert np.max(vals - sol.interp(radii)) <= 1e-6  # interp bias only


class TestBatchedEnvelope:
    """The K-point envelope against the per-point loop it replaces."""

    @pytest.mark.parametrize(
        "dom, spec, f_sup",
        [
            (BALL, "re_z1", 0.0),
            (Domain.ellipsoid([1.0, 4.0]), "re_z1", 0.0),
            (BALL, "re_z1", 1.0),
            (Domain.ball(3, 1.0), "re_z1", 1.0),
            (BALL, "const:-1.75", 0.0),  # every branch ties at the data value
        ],
        ids=["ball", "ellipsoid", "ball-f1", "ball3-f1", "ball-ties"],
    )
    def test_matches_per_point_loop(self, dom, spec, f_sup):
        data = barrier.make_boundary_data(spec, dom)
        density = ones_density if f_sup > 0 else None
        env = barrier.build_subsolution(data, density, dom, m=2, xi_count=40, seed=60, f_sup=f_sup)
        b_coeff = barrier.cone_coefficient(dom, 2)
        omega_bar = barrier.shifted_modulus_majorant(data, math.sqrt(f_sup), dom.diameter)
        xis = geometry.sample_boundary(dom, 40, 60)
        singles = [
            barrier.build_point_barrier(
                xi, data, dom, m=2, f_sup=f_sup, seed=(60, i), b_coeff=b_coeff, omega_bar=omega_bar
            )
            for i, xi in enumerate(xis)
        ]
        pts = np.concatenate([
            barrier.verification_grid(dom, 600, seed=61, anchors=data.anchors),
            geometry.sample_boundary(dom, 200, seed=62),
            xis,
            0.999 * xis,
        ])
        assert np.array_equal(env(pts), np.max([vb(pts) for vb in singles], axis=0))

        # fold over [far, near_0, ...]; a strict > keeps the first maximum
        blocks = [next(vb._branches(pts))[1:] for vb in singles]
        top = np.max([far for far, _ in blocks], axis=0)
        second = np.full(len(pts), -np.inf)
        ids = np.zeros(len(pts), dtype=int)
        for i, (_, near) in enumerate(blocks):
            better = near[:, 0] > top
            second = np.where(better, top, np.maximum(second, near[:, 0]))
            ids = np.where(better, i + 1, ids)
            top = np.where(better, near[:, 0], top)
        branch, gap, value = env.branch_info(pts)
        assert np.any(branch == 0) and (np.any(branch > 0) or np.any(gap == 0.0))
        assert np.array_equal(branch, ids)
        assert np.array_equal(gap, top - second)
        assert np.array_equal(value, top)


class TestOtherConfigurations:
    def test_ellipsoid_sandwich(self):
        ell = Domain.ellipsoid([1.0, 4.0])
        data = barrier.boundary_re_z1(ell)
        env = barrier.build_subsolution(data, None, ell, m=2, xi_count=120, seed=3)
        sup = barrier.build_supersolution(data, None, ell, m=2, xi_count=120, seed=3)
        grid = barrier.verification_grid(ell, 2500, seed=5, anchors=data.anchors)
        exact = grid[:, 0].real
        assert np.max(env(grid) - exact) <= 1e-8
        assert np.max(exact - sup(grid)) <= 2e-8
        # power-of-two multiple of 1/A: A = 2.5 forces B = 1.6
        assert env.barriers.B == pytest.approx(1.6)
        _, vx, px = env.boundary_values()
        assert np.max(np.abs(vx - px)) <= 1e-9

    def test_subharmonic_case_m1(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=1, xi_count=80, seed=4)
        grid = barrier.verification_grid(BALL, 2000, seed=7, anchors=data.anchors)
        assert np.max(env(grid) - grid[:, 0].real) <= 1e-8

    def test_three_dimensional_ball(self):
        b3 = Domain.ball(3, 1.0)
        data = barrier.boundary_re_z1(b3)
        env = barrier.build_subsolution(data, None, b3, m=2, xi_count=80, seed=5)
        grid = barrier.verification_grid(b3, 2000, seed=8, anchors=data.anchors)
        assert np.max(env(grid) - grid[:, 0].real) <= 1e-8

    def test_estimated_data_envelope_floor(self):
        # away from the boundary collar the envelope sits at the far-branch
        # constant, the sampled infimum of the data
        data = barrier.boundary_from_samples(
            lambda z: np.asarray(z)[..., 0].real ** 2, BALL, samples=600, seed=6
        )
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=40, seed=7)
        pts = geometry.sample_interior(BALL, 400, seed=9)
        deep = pts[np.abs(BALL.rho(pts)) > 0.5]
        assert np.all(env(deep) == data.inf_phi)


class TestProbes:
    def test_fd_complex_hessian_of_quadratic(self):
        # |z|^2 has complex Hessian exactly the identity
        func = lambda z: (np.abs(np.asarray(z)) ** 2).sum(axis=-1)
        z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        a = barrier.fd_complex_hessian(func, z, h=1e-4)
        assert np.max(np.abs(a - np.eye(2))) <= 1e-7

    def test_msh_probe(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=60, seed=31)
        result = barrier.msh_probe(env, count=1000, seed=32)
        assert result.points_smooth >= 900
        assert result.min_margin >= -1e-6 * result.scale

    def test_msh_probe_with_density(self):
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(
            data, ones_density, BALL, m=2, xi_count=40, seed=33, f_sup=1.0
        )
        result = barrier.msh_probe(env, count=80, seed=34)
        assert result.min_margin >= -1e-6 * result.scale

    def test_lalpha_probe(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(
            data, ones_density, BALL, m=2, xi_count=40, seed=35, f_sup=1.0
        )
        result = barrier.lalpha_probe(env, ones_density, count=30, alpha_samples=12, seed=36)
        assert result.points_smooth >= 20
        assert result.min_margin >= -1e-6


class TestVerifyModulusBound:
    def test_zero_function(self):
        data = barrier.boundary_const(BALL, 0.0)
        rep = barrier.verify_modulus_bound(
            lambda z: np.zeros(np.asarray(z).shape[0]), data, BALL, m=2,
            grid=800, bins=60, seed=40,
        )
        assert rep.eta_fitted == 0.0 and rep.passed

    def test_psi_example_exponent(self):
        data = barrier.boundary_psi_sqrt(BALL)
        rep = barrier.verify_modulus_bound(
            barrier.psi_example_solution, data, BALL, m=2, grid=6000, bins=160, seed=41
        )
        assert rep.holder is not None
        assert abs(rep.holder.exponent - 0.5) <= 0.05
        assert rep.eta_fitted <= 1.0

    def test_envelope_inherits_holder_regularity(self):
        # half-Holder data produces an at-least-half-Holder envelope
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=150, seed=48)
        rep = barrier.verify_modulus_bound(env, data, BALL, m=2, grid=6000, bins=160, seed=49)
        assert rep.holder is not None
        assert rep.holder.exponent >= 0.45
        assert np.isfinite(rep.eta_fitted)

    def test_eta_stable_under_refinement(self):
        data = barrier.boundary_re_z1(BALL)
        etas = []
        for xi_count, grid in ((150, 4000), (300, 8000)):
            env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=xi_count, seed=42)
            rep = barrier.verify_modulus_bound(
                env, data, BALL, m=2, grid=grid, bins=120, seed=43
            )
            etas.append(rep.eta_fitted)
        assert etas[0] > 0
        assert abs(etas[1] - etas[0]) <= 0.10 * etas[0]

    def test_ceiling_and_violations(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=40, seed=44)
        rep = barrier.verify_modulus_bound(
            env, data, BALL, m=2, grid=1500, bins=80, seed=45, ceiling=1e-6
        )
        assert not rep.passed and len(rep.violations) > 0
        relaxed = barrier.verify_modulus_bound(
            env, data, BALL, m=2, grid=1500, bins=80, seed=45,
            ceiling=2.0 * rep.eta_fitted,
        )
        assert relaxed.passed and relaxed.violations == []

    def test_report_serialization(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=20, seed=46)
        rep = barrier.verify_modulus_bound(env, data, BALL, m=2, grid=800, bins=60, seed=47)
        payload = json.loads(rep.to_json())
        for key in ("eta_fitted", "lambda_bound", "pass", "violations",
                    "sample_counts", "seed"):
            assert key in payload
