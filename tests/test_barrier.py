import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hessiankit import barrier, core, geometry, modulus, radial
from hessiankit.errors import ArgumentError
from hessiankit.geometry import Domain

BALL = Domain.ball(2, 1.0)


CONE_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 1e4)


def exact_h(values, m):
    """H_1..H_m of Fractions."""
    h = [Fraction(1)] + [Fraction(0)] * m
    for x in values:
        for j in range(m, 0, -1):
            h[j] += x * h[j - 1]
    return h[1:]


def exact_constant(coeffs, m):
    """A = min_j sigma_tilde_j(a) as a Fraction."""
    e = exact_h([Fraction(c) for c in coeffs], m)
    return min(e[j - 1] / math.comb(len(coeffs), j) for j in range(1, m + 1))


def exact_cone_h(coeffs, m, b):
    """H_1..H_m of b a - 1 in Fractions, for a rational b."""
    return exact_h([b * Fraction(c) - 1 for c in coeffs], m)


def least_double_at_or_above(x):
    b = float(x)  # nearest
    return b if Fraction(b) >= x else math.nextafter(b, math.inf)


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


def single_barriers(env):
    """The one-row envelopes of env's barrier table: v_xi for each xi alone."""
    return [
        barrier.BarrierEnvelope(env.barriers[i], env.phi_xi[[i]], env.omega_bar, env.domain, env.m)
        for i in range(len(env.barriers))
    ]


def fd_stencil(z, h):
    """Nodes z + s e_a + t e_b, shape (..., 2n, 2n, 2, 2, n), over the real
    coordinate steps e_a of length h (interleaved: h, ih per coordinate) and
    the signs s, t = +1, -1."""
    n = np.shape(z)[-1]
    e = h * np.stack([np.eye(n), 1j * np.eye(n)], axis=1).reshape(2 * n, n)
    sign = np.array([1.0, -1.0])
    return (np.asarray(z, dtype=complex)[..., None, None, None, None, :]
            + e[:, None, None, None] * sign[:, None, None] + e[:, None, None] * sign[:, None])


def fd_real_hessian(func, z, h):
    """Dense 2n x 2n central-difference Hessians of func at the points z
    (..., n), in interleaved coordinates, from one batched call: entry (a, b)
    is (f(+,+) - f(+,-) - f(-,+) + f(-,-)) / (4 h^2) on the stencil nodes."""
    nodes = fd_stencil(z, h)
    values = np.asarray(func(nodes.reshape(-1, nodes.shape[-1])), dtype=float)
    sign = np.array([1.0, -1.0])
    return (values.reshape(nodes.shape[:-1]) * np.outer(sign, sign)).sum(axis=(-2, -1)) / (4 * h * h)


class TestPointBarrier:
    def test_touches_data_at_xi(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=30, seed=5)
        for vb, xi in zip(single_barriers(env), env.barriers.xi):
            got = float(vb(xi[None, :])[0])
            want = float(data.phi(xi[None, :])[0])
            assert abs(got - want) <= 1e-9

    def test_below_data_on_boundary(self):
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=8, seed=6)
        samples = geometry.sample_boundary(BALL, 10000, seed=9)
        phi = np.asarray(data.phi(samples), dtype=float)
        for vb in single_barriers(env):
            assert np.max(vb(samples) - phi) <= 1e-9

    def test_parameter_invariants(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(
            data, ones_density, BALL, m=2, xi_count=30, seed=10, f_sup=1.0
        )
        p = env.barriers
        assert p.r1 == 0.5 * BALL.diameter
        assert np.all(p.gamma1 >= BALL.diameter / p.r1)
        eigs = np.linalg.eigvalsh(p.B * np.diag(BALL.hess_diag()) - np.eye(2))
        assert core.gamma_m_contains(eigs, 2).member
        assert p.K1 == 1.0
        assert p.K2 == pytest.approx(p.K1 * np.sum(np.abs(p.xi) ** 2, axis=1))

    @pytest.mark.parametrize("coeffs, m, expected", [
        ((1.0, 4.0), 2, 1.6),
        # the least doubles at or above 2^k / A; the doubles 2^k / fl(A),
        # 37.03703703703704 and 1.2244897959183672, lie below it
        ((0.3, 0.3, 0.3), 3, 37.037037037037045),
        ((0.7, 1.3, 2.9), 2, 1.2244897959183674),
    ])
    def test_cone_coefficient_matches_the_eigensolver(self, coeffs, m, expected):
        # B a - 1 read off the diagonal picks the B that the eigenvalues of
        # B diag(a) - I picked: the smallest admissible power-of-two multiple
        # of 1/A
        dom = Domain.ellipsoid(coeffs)
        b = barrier.cone_coefficient(dom, m)
        assert b == expected
        hess = np.diag(dom.hess_diag())
        assert core.gamma_m_contains(np.linalg.eigvalsh(b * hess - np.eye(dom.n)), m).member
        if b > 1.5 / geometry.pseudoconvexity_constant(dom, m):  # k > 0
            half = np.linalg.eigvalsh(0.5 * b * hess - np.eye(dom.n))
            assert not core.gamma_m_contains(half, m).member

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cone_coefficient_is_the_least_exact_power(self, n):
        # over every multiset of coefficients from CONE_GRID and every m:
        # B is the least double >= 2^k / A, with H_1..H_m(2^k a / A - 1) >= 0
        # in exact rationals, and k - 1 failing; an order-m slack in doubles
        # accepted B = 80 on (0.01, 0.01, 1000) at m = 3, with H_2 = -31,999.56.
        # The double nearest 2^k / A lies below it on 563 of the 1,155 pairs.
        for coeffs in itertools.combinations_with_replacement(CONE_GRID, n):
            dom = Domain.ellipsoid(coeffs)
            for m in range(1, n + 1):
                a_exact = exact_constant(coeffs, m)
                b = barrier.cone_coefficient(dom, m)
                k = round(math.log2(b * a_exact))
                assert k >= 0 and b == least_double_at_or_above(2**k / a_exact)
                assert min(exact_cone_h(coeffs, m, 2**k / a_exact)) >= 0, (coeffs, m)
                if k > 0:
                    assert min(exact_cone_h(coeffs, m, 2 ** (k - 1) / a_exact)) < 0, (coeffs, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cone_coefficient_keeps_the_double_in_the_cone(self, n):
        # the B actually used, as an exact rational, has every H_j(B a - 1) >= 0,
        # and the double below it lies under 2^k / A.  Where 2^k / A puts
        # B a - 1 on the edge of Gamma_m, as 1/A does for every m = 1
        # domain, a B rounded down falls outside: the double 2^k / fl(A) did
        # on 168 of these 1,155 pairs, min H_j down to -3.8e-15
        for coeffs in itertools.combinations_with_replacement(CONE_GRID, n):
            dom = Domain.ellipsoid(coeffs)
            for m in range(1, n + 1):
                a_exact = exact_constant(coeffs, m)
                b = barrier.cone_coefficient(dom, m)
                k = round(math.log2(b * a_exact))
                assert min(exact_cone_h(coeffs, m, Fraction(b))) >= 0, (coeffs, m)
                assert Fraction(math.nextafter(b, 0.0)) < 2**k / a_exact, (coeffs, m)

    @pytest.mark.parametrize("f_sup", [-1.0, math.nan, math.inf])
    def test_invalid_density_bound_rejected(self, f_sup):
        data = barrier.boundary_re_z1(BALL)
        with pytest.raises(ArgumentError):
            barrier.build_subsolution(data, None, BALL, m=2, xi_count=10, seed=1, f_sup=f_sup)

    @pytest.mark.parametrize("f_sup", [-1.0, math.nan, math.inf])
    def test_invalid_density_bound_rejected_by_verification(self, f_sup):
        # the bound enters the reported lambda_bound, so it is checked there too
        data = barrier.boundary_psi_sqrt(BALL)
        with pytest.raises(ArgumentError, match="f_sup must be finite and >= 0"):
            barrier.verify_modulus_bound(
                barrier.psi_example_solution, data, BALL, m=2, f_sup_norm=f_sup,
                grid=400, bins=20, seed=1,
            )

    def test_density_without_bound_rejected(self):
        # a sampled maximum of f would undercut its supremum
        data = barrier.boundary_re_z1(BALL)
        with pytest.raises(ArgumentError, match="f_sup"):
            barrier.build_subsolution(data, ones_density, BALL, m=2, xi_count=10, seed=1)

    def test_modulus_of_glued_barrier(self):
        # omega of the glued barrier is controlled by omega_phi(sqrt t)
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=3, seed=14)
        lip_rho = 2.0 * 1.05  # a bound of |grad rho| = 2|z| near the closed unit ball
        for vb in single_barriers(env):
            # rays graded toward xi resolve the barrier's steepest part
            pts = barrier.verification_grid(BALL, 4000, seed=15, anchors=vb.barriers.xi)
            vals = vb(pts)
            reals = np.concatenate([pts.real, pts.imag], axis=1)
            edges = np.geomspace(1e-4, BALL.diameter, 160)
            curve = modulus.estimate_modulus(reals, vals, bins=edges, t_max=BALL.diameter)
            t, w = curve.t[1:], curve.w[1:]
            denom = data.omega_phi(np.minimum(np.sqrt(t), data.omega_phi.length))
            c_fit = float(np.max(w / denom))
            p = vb.barriers
            c_bound = p.gamma1 * (1.0 + math.sqrt(2.0 * BALL.diameter + p.B * lip_rho))
            assert c_fit <= c_bound

    @pytest.mark.parametrize(
        "dom", [BALL, Domain.ellipsoid([1.0, 4.0]), Domain.ellipsoid([1.0, 9.0, 2.0])],
        ids=["ball", "ellipsoid-1-4", "ellipsoid-1-9-2"],
    )
    @pytest.mark.parametrize("f_sup", [0.0, 1.0])
    def test_rows_independent_of_other_points(self, dom, f_sup):
        # barrier i depends only on its own xi
        data = barrier.boundary_re_z1(dom)
        density = ones_density if f_sup > 0 else None
        few = barrier.build_subsolution(data, density, dom, m=2, xi_count=10, seed=60, f_sup=f_sup)
        many = barrier.build_subsolution(data, density, dom, m=2, xi_count=40, seed=60, f_sup=f_sup)
        for name in ("K2", "xi"):
            assert np.array_equal(getattr(few.barriers, name), getattr(many.barriers, name)[:10])
        assert np.array_equal(few.phi_xi, many.phi_xi[:10])
        for name in ("B", "r1", "K1", "gamma1", "floor"):
            assert np.array_equal(getattr(few.barriers, name), getattr(many.barriers, name))
        assert few.omega_bar == many.omega_bar


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
    """The K-row envelope against its K one-row envelopes, evaluated one by one."""

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
        singles = single_barriers(env)
        pts = np.concatenate([
            barrier.verification_grid(dom, 600, seed=61, anchors=data.anchors),
            geometry.sample_boundary(dom, 200, seed=62),
            env.barriers.xi,
            0.999 * env.barriers.xi,
        ])
        assert np.array_equal(env(pts), np.max([vb(pts) for vb in singles], axis=0))

        # fold over [far, near_0, ...]; a strict > keeps the first maximum
        blocks = [dense_branches(vb, pts) for vb in singles]
        top = np.max([far for far, _ in blocks], axis=0)
        second = np.full(len(pts), -np.inf)
        ids = np.zeros(len(pts), dtype=int)
        for i, (_, near) in enumerate(blocks):
            better = near[:, 0] > top
            second = np.where(better, top, np.maximum(second, near[:, 0]))
            ids = np.where(better, i + 1, ids)
            top = np.where(better, near[:, 0], top)
        branch, unique, value = env.branch_info(pts)
        assert np.any(branch == 0) and (np.any(branch > 0) or not unique.all())
        assert np.array_equal(branch, ids)
        assert np.array_equal(unique, top > second)
        assert np.array_equal(value, top)


def dense_branches(env, z):
    """(far, near) of env on all points at once, with the near-field formula
    evaluated on the whole (points, K) matrix and masked to B(xi, r1) by
    np.where: the dense form the blocked live-pair kernel replaces."""
    p = env.barriers
    bar = env.omega_bar
    s = sum(np.abs(z[:, j, None] - p.xi[:, j]) ** 2 for j in range(z.shape[1]))
    rho = env.domain.rho(z)
    rho = np.where(np.abs(rho) < barrier.RHO_SNAP, 0.0, rho)
    neg_g = np.maximum(s - (p.B * rho)[:, None], 0.0)
    chi = -np.interp(np.minimum(np.sqrt(neg_g), bar.length), bar.t, bar.w)
    sz = p.K1 * (np.abs(z) ** 2).sum(axis=-1)
    near = np.where(s < p.r1 * p.r1, p.gamma1 * chi + env.phi_xi, -np.inf) + (sz[:, None] - p.K2)
    return p.floor + sz, near


def assert_matches_dense(env, pts):
    far, near = dense_branches(env, pts)
    assert np.array_equal(env(pts), np.maximum(far, near.max(axis=1)))
    vals = np.concatenate([far[:, None], near], axis=1)
    ranked = np.partition(vals, -2, axis=1)
    branch, unique, value = env.branch_info(pts)
    assert np.array_equal(branch, np.argmax(vals, axis=1))
    assert np.array_equal(unique, ranked[:, -1] > ranked[:, -2])
    assert np.array_equal(value, ranked[:, -1])


class TestLiveBranches:
    """Near branches evaluated only inside B(xi, r1), block by block, against
    the dense formula."""

    @pytest.mark.parametrize("spec, f_sup", [("psi_sqrt", 0.0), ("re_z1", 1.0)])
    def test_matches_dense_over_several_blocks(self, spec, f_sup):
        data = barrier.make_boundary_data(spec, BALL)
        density = ones_density if f_sup > 0 else None
        env = barrier.build_subsolution(data, density, BALL, m=2, xi_count=150, seed=21, f_sup=f_sup)
        assert env.barriers.K1 == math.sqrt(f_sup)  # K1 > 0 makes the quadratic shift nonzero
        pts = np.concatenate([
            barrier.verification_grid(BALL, 3000, seed=22, anchors=data.anchors),
            geometry.sample_boundary(BALL, 200, seed=23),
            env.barriers.xi,
        ])
        rows = barrier.BLOCK_ELEMENTS // len(env.barriers)
        assert pts.shape[0] > 3 * rows and pts.shape[0] % rows != 0
        assert_matches_dense(env, pts)

    def test_blocks_with_no_and_all_pairs_inside(self):
        # barriers clustered within 0.4 of a pole, all with r1 = 1: points
        # within 0.45 of the pole are inside every B(xi, r1), points within
        # 0.5 of the antipode inside none
        data = barrier.boundary_re_z1(BALL)
        pole = np.array([1.0, 0.0], dtype=complex)
        cand = geometry.sample_boundary(BALL, 2000, seed=24)
        xis = cand[np.linalg.norm(cand - pole, axis=1) < 0.4]
        env = barrier._envelope(xis, data, BALL, 2, 1.0)
        assert np.all(env.barriers.r1 == 1.0)
        rows = barrier.BLOCK_ELEMENTS // len(xis)
        pts = np.concatenate([
            0.75 * pole + 0.2 * geometry.sample_interior(BALL, rows, seed=25),
            -0.6 * pole + 0.3 * geometry.sample_interior(BALL, rows, seed=26),
            barrier.verification_grid(BALL, 12, seed=27),
        ])
        live = (np.abs(pts[:, None, :] - xis) ** 2).sum(axis=-1) < 1.0
        assert live[:rows].all() and not live[rows : 2 * rows].any()
        # a short last block, with fewer live pairs than the majorant has knots
        assert 0 < live[2 * rows :].sum() < env.omega_bar.t.size
        assert_matches_dense(env, pts)

    def test_evaluation_memory_is_blocked(self):
        # one (4000, 500) float matrix takes 16 MB; the dense evaluation
        # held about nine of them
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=500, seed=42)
        grid = barrier.verification_grid(BALL, 4000, seed=43, anchors=data.anchors)
        assert grid.shape[0] * len(env.barriers) == 2_000_000
        for evaluate in (env, env.branch_info):
            tracemalloc.start()
            try:
                evaluate(grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16e6


def gluing_sphere_points(env, count, seed):
    """Points at distance r1 from the barriers' centres in seeded directions;
    one rounding puts each on either side of its gluing sphere."""
    p = env.barriers
    u = geometry.sample_boundary(Domain.ball(env.domain.n, 1.0), count, seed)
    return p.xi[np.arange(count) % len(p)] + p.r1 * u


class TestLeafSkip:
    """``__call__`` skips the (point, leaf) blocks outside B(xi, r1) or under
    the far branch, and the pairs under the far branch; pinned bit for bit to
    the dense formula where the skips are closest to wrong."""

    @pytest.mark.parametrize(
        "dom, spec, f_sup, xi_count",
        [
            (BALL, "const:-1.75", 0.0, 40),  # flat profile: no tau is finite
            (BALL, "const:0", 0.0, 40),  # S = 0: no knot exceeds the level 0
            (BALL, "const:-1.75", 1.0, 40),  # near and far branches tie at each xi
            (Domain.ellipsoid([1.0, 4.0]), "re_z1", 0.0, 40),
            (Domain.ball(3, 1.0), "re_z1", 1.0, 40),
            (BALL, "re_z1", 0.0, 1),
            (BALL, "psi_sqrt", 0.0, 13),  # not a multiple of the leaf size
        ],
        ids=["constant", "zero", "ties-f1", "ellipsoid", "ball3-f1", "one-barrier", "thirteen"],
    )
    def test_matches_dense(self, dom, spec, f_sup, xi_count):
        data = barrier.make_boundary_data(spec, dom)
        density = ones_density if f_sup > 0 else None
        env = barrier.build_subsolution(data, density, dom, m=2, xi_count=xi_count, seed=70,
                                        f_sup=f_sup)
        tau = env._leaves[3]
        assert np.isinf(tau).all() == (spec.startswith("const") and f_sup == 0.0)
        pts = np.concatenate([
            barrier.verification_grid(dom, 1500, seed=71, anchors=data.anchors),
            geometry.sample_boundary(dom, 200, seed=72),
            env.barriers.xi,
            0.999 * env.barriers.xi,
            gluing_sphere_points(env, 400, seed=73),
        ])
        assert_matches_dense(env, pts)
        if spec.startswith("const") and f_sup > 0:
            far, near = dense_branches(env, env.barriers.xi)
            assert np.any(near.max(axis=1) == far)

    def test_pairs_past_the_last_knot_read_its_value(self):
        # data 1e6 + 1e-9 Re z_1: SKIP_MARGIN S, about 2e-6, is above every
        # knot value (at most 2e-8), so no knot exceeds a barrier's level and
        # no tau is finite.  B = 1e4 on this ellipsoid puts -g near the centre
        # far past the last knot t = d = 20, and omega_bar is held at its
        # last value there: a near branch that read 0 would beat the floor
        dom = Domain.ellipsoid([0.01, 0.01])
        x_max = float(dom.semi_axes()[0])
        data = barrier.BoundaryData(
            phi=lambda z: 1e6 + 1e-9 * np.asarray(z, dtype=complex)[..., 0].real,
            omega_phi=modulus.linear_curve(1e-9, dom.diameter),
            inf_phi=1e6 - 1e-9 * x_max,
            sup_phi=1e6 + 1e-9 * x_max,
            anchors=np.stack([barrier._axis_point(dom, -1.0), barrier._axis_point(dom, 1.0)]),
        )
        env = barrier.build_subsolution(data, None, dom, m=2, xi_count=40, seed=70)
        p = env.barriers
        assert p.B == 1e4 and np.isinf(env._leaves[3]).all()
        pts = np.concatenate([
            barrier.verification_grid(dom, 1500, seed=71, anchors=data.anchors),
            0.1 * geometry.sample_interior(dom, 200, seed=72),
        ])
        s = sum(np.abs(pts[:, j, None] - p.xi[:, j]) ** 2 for j in range(2))
        neg_g = s - (p.B * dom.rho(pts))[:, None]
        assert np.any((s < p.r1 * p.r1) & (neg_g > env.omega_bar.length ** 2))
        assert_matches_dense(env, pts)

    def test_points_on_a_gluing_sphere(self):
        # r1 = 1: z = 0 is on every sphere; z = (1, 1) is on the spheres of
        # (1, 0) and (0, 1), outside the ball, where B rho >= s leaves neg_g
        # = 0 and those near branches (phi(xi) = 1) beat the far branch (-1)
        xis = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1j, 0]], dtype=complex)
        env = barrier._envelope(xis, barrier.boundary_re_z1(BALL), BALL, 2, 0.0)
        pts = np.array([[0, 0], [1, 1], [1 + 1j, 0], [2, 0], [0, 1 - 1j], [-1, 1]], dtype=complex)
        s = sum(np.abs(pts[:, j, None] - xis[:, j]) ** 2 for j in range(2))
        assert env.barriers.r1 == 1.0 and np.all(s[0] == 1.0) and np.all(s[:, :2].diagonal() == 1.0)
        assert env(pts[1]) == env.barriers.floor == -1.0
        assert_matches_dense(env, np.concatenate([pts, gluing_sphere_points(env, 500, seed=74)]))

    def test_one_rounding_inside_the_gluing_sphere(self):
        # the pairs inside B(xi, r1) only by the rounding of complex abs: the
        # real separations of the one-barrier leaf box sum to >= r1^2
        xi = np.array([[1, 0]], dtype=complex)
        env = barrier._envelope(xi, barrier.boundary_re_z1(BALL), BALL, 2, 0.0)
        pts = gluing_sphere_points(env, 4000, seed=75)
        s = sum(np.abs(pts[:, j] - xi[0, j]) ** 2 for j in range(2))
        diffs = np.concatenate([(pts - xi).real, (pts - xi).imag], axis=1)
        sep2 = modulus._square_sum(iter(diffs.T.copy()))
        far, near = dense_branches(env, pts)
        assert np.any((s < 1.0) & (sep2 >= 1.0) & (near[:, 0] > far))
        assert_matches_dense(env, pts)

    @pytest.mark.parametrize("f_sup", [0.0, 1.0])
    def test_non_finite_points(self, f_sup):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, ones_density if f_sup else None, BALL, m=2,
                                        xi_count=20, seed=76, f_sup=f_sup)
        bad = np.zeros((6, 2), dtype=complex)
        bad[0, 0], bad[1, 0], bad[2, 1] = np.nan, np.inf, -np.inf
        bad[3, 0], bad[4, 1], bad[5, 0] = complex(np.inf, np.nan), complex(0, -np.inf), complex(np.nan, 1)
        pts = np.concatenate([barrier.verification_grid(BALL, 200, seed=77), bad])
        with np.errstate(invalid="ignore"):
            far, near = dense_branches(env, pts)
            got = env(pts)
        # no pair of a non-finite point is live: its value is the far branch
        # floor + K1 |z|^2 (NaN, or +inf at an infinite point when K1 > 0).
        # The dense formula adds K1 |z|^2 - K2 to its masked -inf, which
        # reads NaN there.
        finite = np.isfinite(pts).all(axis=1)
        assert np.array_equal(got[finite], np.maximum(far, near.max(axis=1))[finite])
        assert np.array_equal(got[~finite], far[~finite], equal_nan=True)
        assert np.isnan(got[~finite]).all() == (f_sup == 0.0)


    @pytest.mark.parametrize("f_sup", [0.0, 1.0])
    def test_far_outside_the_domain(self, f_sup):
        # |z|^2 overflows to +inf at finite points: the far branch is the
        # floor when f = 0 (K1 = 0) and +inf when f > 0, never NaN
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, ones_density if f_sup else None, BALL, m=2,
                                        xi_count=20, seed=76, f_sup=f_sup)
        pts = np.array([[1e200, 0], [0, -1e200j], [1e300 + 1e300j, 1e300]], dtype=complex)
        want = np.full(3, np.inf if f_sup else env.barriers.floor)
        with np.errstate(over="ignore"):
            got = env(pts)
            branch, unique, top = env.branch_info(pts)
        assert np.array_equal(got, want) and np.array_equal(top, want)
        assert np.all(branch == 0) and unique.all()


def expand_and_gather_live(env, z):
    """``BarrierEnvelope._live`` with every pair expanded to its own entry:
    the passing (point, leaf) rows repeated ``XI_LEAF`` times and gathered
    through flat leaf-order tables, the form the leaf-major (XI_LEAF, pairs)
    blocks replace.  Its tables are built here, from the barriers alone."""
    p = env.barriers
    bar = env.omega_bar
    leaf_size = barrier.XI_LEAF
    margin = barrier.SKIP_MARGIN
    cols = np.concatenate([p.xi.real, p.xi.imag], axis=1).T
    order = modulus._leaf_order(cols, leaf_size)
    order = np.concatenate([order, np.repeat(order[-1], -len(order) % leaf_size)])
    boxes = cols[:, order].reshape(cols.shape[0], -1, leaf_size)
    lo, hi = boxes.min(axis=2), boxes.max(axis=2)
    r_xi = np.sqrt((np.abs(p.xi) ** 2).sum(axis=-1)).max()
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (abs(p.floor) + np.abs(env.phi_xi).max() + p.K2.max()
                 + 2.0 * p.K1 * np.square(r_xi + p.r1) + p.gamma1 * bar.w[-1])
        level = (env.phi_xi - p.K2 - p.floor + margin * scale) / p.gamma1
        knot = np.searchsorted(bar.w, level[order], side="right")
        tau = np.append(bar.t, np.inf)[knot] ** 2 * (1.0 + margin)
    tau_leaf = tau.reshape(-1, leaf_size).max(axis=1)
    r1_sq = p.r1 * p.r1
    tiny = np.finfo(float).tiny
    step = max(1, barrier.BLOCK_ELEMENTS // len(order))
    for a in range(0, z.shape[0], step):
        rows = slice(a, a + step)
        zb = z[rows]
        brho, sz = env._point_terms(zb)
        seps = (np.maximum(np.maximum(l - c[:, None], c[:, None] - h), 0.0)
                for c, l, h in zip(np.concatenate([zb.real, zb.imag], axis=1).T, lo, hi))
        lb = modulus._square_sum(seps) * (1.0 - margin) - tiny
        with np.errstate(invalid="ignore"):
            i, leaf = np.nonzero((lb < r1_sq) & (lb - brho[:, None] <= tau_leaf))
        i = np.repeat(i, leaf_size)
        at = (leaf[:, None] * leaf_size + np.arange(leaf_size)).ravel()
        k = order[at]
        s = sum(np.abs(zb[i, j] - p.xi[k, j]) ** 2 for j in range(zb.shape[1]))
        d = s - brho[i]
        keep = (s < r1_sq) & (d <= tau[at])
        i, k = i[keep], k[keep]
        yield rows, p.floor + sz, i, k, env._near(np.maximum(d[keep], 0.0), sz[i], k)


def sorted_pairs(i, k, near):
    """The (i, k, near bits) triples of a block in one canonical order."""
    bits = near.view(np.int64)
    at = np.lexsort((bits, k, i))
    return i[at], k[at], bits[at]


class TestLeafMajorPairs:
    """The (XI_LEAF, pairs) blocks of ``_live`` hold the same (point,
    barrier, near bits) triples as pairs formed one by one, block by block,
    and the envelope and ``branch_info`` read the same bits from either."""

    @pytest.mark.parametrize(
        "dom, spec, f_sup, xi_count",
        [
            (BALL, "psi_sqrt", 0.0, 13),  # the last leaf padded
            (BALL, "re_z1", 0.0, barrier.XI_LEAF),  # exactly one leaf
            (BALL, "re_z1", 0.0, 1),
            (BALL, "psi_sqrt", 0.0, 150),  # several leaves and point blocks
            (Domain.ellipsoid([1.0, 4.0]), "re_z1", 0.0, 40),
            (Domain.ball(3, 1.0), "re_z1", 1.0, 40),
        ],
        ids=["thirteen", "one-leaf", "one-barrier", "many", "ellipsoid", "ball3-f1"],
    )
    def test_matches_expanded_pairs(self, monkeypatch, dom, spec, f_sup, xi_count):
        data = barrier.make_boundary_data(spec, dom)
        density = ones_density if f_sup > 0 else None
        env = barrier.build_subsolution(data, density, dom, m=2, xi_count=xi_count, seed=80,
                                        f_sup=f_sup)
        step = barrier.BLOCK_ELEMENTS // env._leaves[0].size
        # a first block beyond every B(xi, r1); points with non-finite coordinates
        far = 3.0 * geometry.sample_boundary(Domain.ball(dom.n, 1.0), step, seed=81)
        bad = np.zeros((4, dom.n), dtype=complex)
        bad[0, 0], bad[1, 0], bad[2, -1], bad[3, 0] = np.nan, np.inf, -np.inf, complex(np.inf, np.nan)
        pts = np.concatenate([
            far,
            barrier.verification_grid(dom, 1500, seed=82, anchors=data.anchors),
            geometry.sample_boundary(dom, 200, seed=83),
            env.barriers.xi,
            0.999 * env.barriers.xi,
            gluing_sphere_points(env, 400, seed=84),
            bad,
        ])
        with np.errstate(invalid="ignore"):
            blocks = list(env._live(pts))
            want = list(expand_and_gather_live(env, pts))
            assert len(blocks) == len(want) > 1
            assert blocks[0][2].size == 0 and want[0][2].size == 0
            assert sum(block[2].size for block in blocks) > 0
            for (rows, far_b, i, k, near), (want_rows, want_far, *want_pairs) in zip(blocks, want):
                assert rows == want_rows
                assert np.array_equal(far_b, want_far, equal_nan=True)
                for got, ref in zip(sorted_pairs(i, k, near), sorted_pairs(*want_pairs)):
                    assert np.array_equal(got, ref)
            value = env(pts)
            branch, unique, top = env.branch_info(pts)
            monkeypatch.setattr(env, "_live", lambda z: expand_and_gather_live(env, z))
            assert np.array_equal(value, env(pts), equal_nan=True)
            for got, ref in zip((branch, unique, top), env.branch_info(pts)):
                assert np.array_equal(got, ref, equal_nan=True)


class TestLeafSkipPrunes:
    """Only a small share of the pairs reaches the modulus profile in
    ``__call__``; about a quarter of them lie inside B(xi, r1)."""

    @pytest.mark.parametrize("spec", ["re_z1", "psi_sqrt"])
    def test_interpolated_pairs(self, monkeypatch, spec):
        data = barrier.make_boundary_data(spec, BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=150, seed=21)
        grid = barrier.verification_grid(BALL, 3000, seed=22, anchors=data.anchors)
        pairs = [0]
        interp = np.interp

        def counted_interp(x, *args, **kwargs):
            pairs[0] += np.size(x)
            return interp(x, *args, **kwargs)

        monkeypatch.setattr(barrier.np, "interp", counted_interp)
        env(grid)
        assert pairs[0] / (3000 * 150) < 0.08  # measured 0.041 (re_z1), 0.010


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

    @pytest.mark.parametrize(
        "coeffs, m", [([0.3, 0.3, 0.3], 3), ([0.1, 0.1], 2)], ids=["ell-0.3-m3", "ell-0.1-m2"]
    )
    def test_small_coefficient_ellipsoid(self, coeffs, m):
        # small coefficients make hess(rho) small and B large, so -g passes
        # d^2 inside B(xi, d/2): the near branch there rests on omega_bar
        # held constant past d
        dom = Domain.ellipsoid(coeffs)
        data = barrier.boundary_re_z1(dom)
        env = barrier.build_subsolution(data, None, dom, m=m, xi_count=120, seed=3)
        sup = barrier.build_supersolution(data, None, dom, m=m, xi_count=120, seed=3)
        grid = barrier.verification_grid(dom, 2500, seed=5, anchors=data.anchors)
        p, d = env.barriers, dom.diameter
        s = (np.abs(grid[:, None, :] - p.xi) ** 2).sum(axis=-1)
        neg_g = s - p.B * dom.rho(grid)[:, None]
        assert np.any((s < p.r1 * p.r1) & (neg_g > d * d))

        exact = grid[:, 0].real
        assert np.max(env(grid) - exact) <= 1e-8
        assert np.max(exact - sup(grid)) <= 2e-8
        _, vx, px = env.boundary_values()
        assert np.max(np.abs(vx - px)) <= 1e-9
        fresh = geometry.sample_boundary(dom, 10000, seed=9)
        assert np.max(env(fresh) - np.asarray(data.phi(fresh), dtype=float)) <= 1e-9

        dense = barrier.build_subsolution(data, ones_density, dom, m=m, xi_count=120, seed=3, f_sup=1.0)
        result = barrier.lalpha_probe(dense, ones_density, count=30, alpha_samples=12, seed=36)
        assert result.points_smooth > 0
        assert result.points_near > 0
        assert result.min_margin >= -1e-6

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
        # away from the boundary collar the envelope sits on the far branch
        # floor + K1 |z|^2 shared by every barrier, floor = inf phi - K1 max|z|^2
        # on the boundary; with f = 0 that is the sampled infimum of the data
        data = barrier.boundary_from_samples(
            lambda z: np.asarray(z)[..., 0].real ** 2, BALL, samples=600, seed=6
        )
        pts = geometry.sample_interior(BALL, 400, seed=9)
        deep = pts[np.abs(BALL.rho(pts)) > 0.5]
        rmax = BALL.boundary_radius_range()[1]
        for density, f_sup in ((None, 0.0), (ones_density, 1.0)):
            env = barrier.build_subsolution(data, density, BALL, m=2, xi_count=40, seed=7, f_sup=f_sup)
            k1 = env.barriers.K1
            assert k1 == math.sqrt(f_sup)
            far = (data.inf_phi - k1 * rmax**2) + k1 * (np.abs(deep) ** 2).sum(axis=-1)
            assert np.array_equal(env(deep), far)


class TestProbes:
    def test_fd_complex_hessian_of_quadratic(self):
        # |z|^2 has complex Hessian exactly the identity
        func = lambda z: (np.abs(np.asarray(z)) ** 2).sum(axis=-1)
        z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
        a = core.complex_hessian_from_real(fd_real_hessian(func, z, h=1e-4))
        assert np.max(np.abs(a - np.eye(2))) <= 1e-7

    @pytest.mark.parametrize(
        "dom, spec, m, f_sup",
        [
            (BALL, "re_z1", 2, 0.0),
            (BALL, "psi_sqrt", 2, 0.0),
            (BALL, "re_z1", 2, 1.0),
            (Domain.ellipsoid([1.0, 4.0]), "re_z1", 1, 0.0),
            (Domain.ellipsoid([1.0, 4.0]), "re_z1", 2, 0.0),
            (Domain.ball(3, 1.0), "re_z1", 2, 0.0),
        ],
        ids=["re_z1", "psi_sqrt", "re_z1-f1", "ellipsoid-m1", "ellipsoid-m2", "ball3"],
    )
    def test_exact_hessians_match_central_differences(self, dom, spec, m, f_sup):
        # the closed-form branch Hessians against central differences of the
        # implemented envelope, at points whose whole stencil sits on one
        # branch that no other branch reaches: the bulk, and a ray toward
        # the barrier with the largest data value, which reaches its near
        # branch also when f > 0; measured <= 2.6e-6
        data = barrier.make_boundary_data(spec, dom)
        env = barrier.build_subsolution(data, ones_density if f_sup else None, dom, m=m,
                                        xi_count=60, seed=31, f_sup=f_sup)
        top = env.barriers.xi[np.argmax(env.phi_xi)]
        pts = np.concatenate([geometry.sample_interior(dom, 300, seed=5),
                              top * (1.0 - np.geomspace(0.01, 0.5, 40))[:, None]])
        h = 1e-5
        nodes = fd_stencil(pts, h)
        branch, unique, _ = env.branch_info(nodes.reshape(-1, dom.n))
        branch, unique = branch.reshape(len(pts), -1), unique.reshape(len(pts), -1)
        smooth = np.all(branch == branch[:, :1], axis=1) & unique.all(axis=1)
        assert smooth.sum() >= 300 and np.any(branch[smooth, 0] > 0)
        exact = env._hessians(pts[smooth], branch[smooth, 0])
        fd = core.complex_hessian_from_real(fd_real_hessian(env, pts[smooth], h))
        err = np.abs(fd - exact).max(axis=(1, 2)) / (1.0 + np.abs(exact).max(axis=(1, 2)))
        assert err.max() <= 1e-5

    def test_msh_probe(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=60, seed=31)
        result = barrier.msh_probe(env, count=1000, seed=32)
        assert result.points_smooth >= 900
        assert result.min_margin >= -1e-6 * result.scale

    def test_one_probe_point(self):
        # count // 2 leaves no bulk sample; the grid keeps one beside its ray
        env = barrier.build_subsolution(barrier.boundary_re_z1(BALL), None, BALL, m=2,
                                        xi_count=10, seed=31)
        assert barrier.msh_probe(env, count=1, seed=32).points_tested == 3

    @pytest.mark.parametrize("value", [-1.75, 0.0])
    def test_msh_probe_skips_tied_branches(self, monkeypatch, value):
        # one barrier at xi = (1, 0) with flat data: inside B(xi, r1) its
        # near branch ties with the far branch at the data value, so no
        # probe point there has a maximum attained once
        xi = np.array([[1, 0]], dtype=complex)
        env = barrier._envelope(xi, barrier.boundary_const(BALL, value), BALL, 2, 0.0)
        pts = geometry.sample_interior(BALL, 400, seed=80)
        pts = pts[(np.abs(pts - xi) ** 2).sum(axis=1) < env.barriers.r1 ** 2][:100]
        monkeypatch.setattr(barrier, "verification_grid", lambda *args, **kwargs: pts)
        result = barrier.msh_probe(env, count=100, seed=80)
        assert result.points_tested == 100
        assert result.points_smooth == 0

    def test_msh_probe_with_density(self):
        data = barrier.boundary_psi_sqrt(BALL)
        env = barrier.build_subsolution(
            data, ones_density, BALL, m=2, xi_count=40, seed=33, f_sup=1.0
        )
        result = barrier.msh_probe(env, count=80, seed=34)
        assert result.points_near > 0
        assert result.min_margin >= -1e-6 * result.scale

    def test_lalpha_probe(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(
            data, ones_density, BALL, m=2, xi_count=40, seed=35, f_sup=1.0
        )
        result = barrier.lalpha_probe(env, ones_density, count=30, alpha_samples=12, seed=36)
        assert result.points_smooth >= 20
        assert result.points_near > 0
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

    @pytest.mark.parametrize("name", ["bins", "grid"])
    def test_fewer_than_two_bins_or_grid_points_rejected(self, name):
        # one geometric edge stops short of d, and one point leaves no bulk
        data = barrier.boundary_psi_sqrt(BALL)
        kwargs = {"grid": 400, "bins": 20, name: 1}
        with pytest.raises(ArgumentError, match=f"{name} must be >= 2"):
            barrier.verify_modulus_bound(
                barrier.psi_example_solution, data, BALL, m=2, seed=1, **kwargs
            )

    def test_report_serialization(self):
        data = barrier.boundary_re_z1(BALL)
        env = barrier.build_subsolution(data, None, BALL, m=2, xi_count=20, seed=46)
        rep = barrier.verify_modulus_bound(env, data, BALL, m=2, grid=800, bins=60, seed=47)
        payload = json.loads(json.dumps(rep.to_json_dict()))
        for key in ("eta_fitted", "lambda_bound", "pass", "violations",
                    "sample_counts", "seed"):
            assert key in payload
