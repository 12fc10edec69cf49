import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from hessiankit import geometry
from hessiankit.errors import ArgumentError, DomainError
from hessiankit.geometry import Domain


class TestDomain:
    def test_parse(self):
        b = Domain.parse("ball:2", n=3)
        assert b.coeffs == (1.0, 1.0, 1.0) and b.radius == 2.0 and b.n == 3
        e = Domain.parse("ellipsoid:1,4")
        assert e.coeffs == (1.0, 4.0) and e.radius == 1.0 and e.n == 2
        # a domain is its coefficients and radius, however it is spelled
        assert Domain.parse("ball:1", n=2) == Domain.parse("ellipsoid:1,1")
        with pytest.raises(ArgumentError):
            Domain.parse("cube:1", n=2)
        with pytest.raises(ArgumentError):
            Domain.parse("ball:1")  # dimension missing

    def test_squared_semi_axes_in_range(self):
        # both ends of [2^-1020, 2^1020] are accepted, one ulp past either
        # end is not; the CLI runs at the ends (tests/test_cli.py)
        # there the diameter, |z| range and axis points read off
        # semi_axes() equal the per-kind closed forms bit for bit
        from hessiankit import barrier

        lo, hi = geometry.SCALE_MIN, geometry.SCALE_MAX
        for r_sq in (lo, hi):
            radius = np.sqrt(r_sq)
            ball = Domain.ball(2, radius)
            assert ball.radius ** 2 == r_sq
            assert ball.diameter == 2.0 * radius
            assert ball.boundary_radius_range() == (radius, radius)
            assert np.array_equal(barrier.boundary_re_z1(ball).anchors[:, 0], [-radius, radius])
            assert Domain.ellipsoid([1.0, r_sq]).coeffs == (1.0, r_sq)
            for coeffs in ([1.0, r_sq], [r_sq, 1.0]):
                dom = Domain.ellipsoid(coeffs)
                assert dom.diameter == 2.0 / math.sqrt(min(coeffs))
                assert dom.boundary_radius_range() == (1.0 / math.sqrt(max(coeffs)),
                                                       1.0 / math.sqrt(min(coeffs)))
                x = 1.0 / math.sqrt(coeffs[0])
                data = barrier.boundary_re_z1(dom)
                assert np.array_equal(data.anchors[:, 0], [-x, x]) and data.sup_phi == x
        for r_sq in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
            with pytest.raises(ArgumentError, match="out of range"):
                Domain.ellipsoid([1.0, r_sq])
        for radius in (np.nextafter(np.sqrt(lo), 0.0), np.nextafter(np.sqrt(hi), np.inf),
                       1e-300, 1e160, 1e300):
            with pytest.raises(ArgumentError, match="out of range"):
                Domain.ball(2, radius)

    def test_rho_signs(self):
        dom = Domain.ball(2, 1.0)
        assert dom.rho(np.zeros(2, dtype=complex)) < 0
        z = np.array([1.0 + 0j, 0.0])
        assert abs(dom.rho(z)) <= 1e-15

    def test_diameter(self):
        assert Domain.ball(2, 1.5).diameter == 3.0
        assert Domain.ellipsoid([1.0, 4.0]).diameter == 2.0
        lo, hi = geometry.SCALE_MIN, geometry.SCALE_MAX
        assert Domain.ellipsoid([hi, lo]).diameter == 2.0 / math.sqrt(lo) == 2.0**511
        assert Domain.ellipsoid([hi, hi]).diameter == 2.0 / math.sqrt(hi) == 2.0**-509

    def test_gradient_matches_finite_differences(self):
        # rho = sum a_j |z_j|^2 - c, so d rho/dx_j + i d rho/dy_j = 2 a_j z_j
        for dom in (Domain.ball(2, 1.0), Domain.ellipsoid([1.0, 4.0, 2.0])):
            a = dom.hess_diag()
            pts = geometry.sample_interior(dom, 100, seed=2)
            h = 1e-6
            for z in pts[:100]:
                g = 2.0 * a * z
                for j in range(dom.n):
                    ex = np.zeros(dom.n, dtype=complex)
                    ex[j] = h
                    dx = (dom.rho(z + ex) - dom.rho(z - ex)) / (2 * h)
                    dy = (dom.rho(z + 1j * ex) - dom.rho(z - 1j * ex)) / (2 * h)
                    assert dx == pytest.approx(g[j].real, rel=1e-6, abs=1e-6)
                    assert dy == pytest.approx(g[j].imag, rel=1e-6, abs=1e-6)

    def test_hessian_matches_finite_differences(self):
        from test_barrier import fd_real_hessian

        from hessiankit import core

        for dom in (Domain.ball(2, 1.0), Domain.ellipsoid([1.0, 4.0])):
            z = geometry.sample_interior(dom, 1, seed=3)[0]
            q = fd_real_hessian(lambda pts: dom.rho(pts), z, h=1e-4)
            a = core.complex_hessian_from_real(0.5 * (q + q.T))
            assert np.max(np.abs(a - np.diag(dom.hess_diag()))) <= 1e-6


class TestPseudoconvexity:
    def test_ball_exact(self):
        dom = Domain.ball(3, 1.0)
        for m in (1, 2, 3):
            assert geometry.pseudoconvexity_constant(dom, m) == 1.0

    def test_ellipsoid_values(self):
        e1 = Domain.ellipsoid([1.0, 4.0])
        assert geometry.pseudoconvexity_constant(e1, 2) == pytest.approx(2.5)
        e2 = Domain.ellipsoid([1.0, 1.0, 9.0])
        assert geometry.pseudoconvexity_constant(e2, 1) == pytest.approx(11.0 / 3.0)

    @pytest.mark.parametrize("coeffs, power", [((1e-200, 1e-200), "-400.0"),
                                               ((1.1e307, 1.1e307), "614.1")])
    def test_outside_the_double_range(self, coeffs, power):
        # sigma_tilde_2 = a_1 a_2 underflowed to A = 0 ("not strongly
        # pseudoconvex"), or overflowed with a RuntimeWarning
        dom = Domain.ellipsoid(coeffs)
        assert geometry.pseudoconvexity_constant(dom, 1) == coeffs[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"sigma_tilde_2\(hess rho\) = 10\^{power} "
                                                  r"lies outside the normal double range"):
                geometry.pseudoconvexity_constant(dom, 2)

    def test_eigenvalues_lost_beside_a_large_one(self):
        # an eigensolver scales this diagonal and can return 0 for its two
        # small entries (LAPACK does, numpy 2.4 with OpenBLAS), so A read 0;
        # the diagonal read directly gives the exact sigma_tilde_3 = 2^-200
        dom = Domain.ellipsoid([2.0**-600, 2.0**-600, 2.0**1000])
        assert geometry.pseudoconvexity_constant(dom, 3) == 2.0**-200
        assert geometry.pseudoconvexity_constant(dom, 2) == 2.0**401 / 3

    def test_diagonal_read_exactly_beside_a_large_entry(self):
        # sigma_tilde_1 = (1 + 1e300) / 2 rounds to 5e299; an eigensolver
        # rescaling this diagonal returned 1e300 off by an ulp, so A read
        # 4.9999999999999995e+299
        dom = Domain.ellipsoid([1.0, 1e300])
        assert geometry.pseudoconvexity_constant(dom, 1) == 5e299


def one_draw_ball(dom, count, seed):
    """The ball's boundary sampler as one draw of count directions."""
    g = np.random.default_rng(seed).standard_normal((count, 2 * dom.n))
    g /= np.sqrt((g**2).sum(axis=1, keepdims=True))
    return (g[:, 0::2] + 1j * g[:, 1::2]) * dom.radius


def per_candidate_ellipsoid(dom, count, seed):
    """Rejection one candidate at a time, direction and uniform from one stream."""
    rng = np.random.default_rng(seed)
    a, axes = dom.hess_diag(), dom.semi_axes()
    wmax = math.sqrt(a.max())
    out = np.empty((count, dom.n), dtype=complex)
    i = 0
    while i < count:
        g = rng.standard_normal(2 * dom.n)
        g /= np.sqrt((g**2).sum())
        u = g[0::2] + 1j * g[1::2]
        if rng.random() * wmax <= math.sqrt(float((a * np.abs(u) ** 2).sum())):
            out[i] = u * axes
            i += 1
    return out


class TestBoundarySampling:
    def test_ball_norms(self):
        dom = Domain.ball(2, 1.0)
        pts = geometry.sample_boundary(dom, 4, seed=7)
        norms = np.sqrt((np.abs(pts) ** 2).sum(axis=1))
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_mean_is_small(self):
        dom = Domain.ball(2, 1.0)
        pts = geometry.sample_boundary(dom, 100000, seed=11)
        mean = pts.mean(axis=0)
        assert np.sqrt((np.abs(mean) ** 2).sum()) <= 0.02

    def test_ellipsoid_constraint(self):
        dom = Domain.ellipsoid([1.0, 4.0])
        pts = geometry.sample_boundary(dom, 500, seed=5)
        res = (np.array([1.0, 4.0]) * np.abs(pts) ** 2).sum(axis=1)
        assert np.max(np.abs(res - 1.0)) <= 1e-10

    def test_prefix_property(self):
        for dom in (Domain.ball(2, 1.0), Domain.ellipsoid([1.0, 3.0])):
            short = geometry.sample_boundary(dom, 10, seed=13)
            long = geometry.sample_boundary(dom, 25, seed=13)
            assert np.array_equal(short, long[:10])

    @pytest.mark.parametrize("radius", [1.0, 2.0, 0.3])
    def test_ball_keeps_the_one_draw_bits(self, radius):
        # every ball candidate is accepted, so the directions are the first
        # count of default_rng(seed), bit for bit
        for n in (1, 2, 3):
            dom = Domain.ball(n, radius)
            for seed in range(50):
                for count in (1, 7, 150, 3000):
                    pts = geometry.sample_boundary(dom, count, seed)
                    assert pts.tobytes() == one_draw_ball(dom, count, seed).tobytes()

    @pytest.mark.parametrize("coeffs", [(1.0, 4.0), (1.0, 1e-3, 7.0)])
    def test_ellipsoid_matches_per_candidate_rejection(self, coeffs):
        # two-sample KS on Re z_1 and |z_1|^2 against one candidate at a
        # time.  The gate 2 sqrt(2 / N) = 0.028 at N = 10,000 is the largest
        # of 240 null statistics measured in units of sqrt(2 / N) (this loop
        # against itself at N = 4,000, both domains); accepting every
        # candidate, or weighting by sum a_j |u_j|^2 without the root, gave
        # |z_1|^2 statistics of 0.040 or more
        dom = Domain.ellipsoid(coeffs)
        count = 10000
        new = geometry.sample_boundary(dom, count, seed=1)
        ref = per_candidate_ellipsoid(dom, count, seed=2)
        gate = 2.0 * math.sqrt(2.0 / count)
        for stat in (lambda z: z[:, 0].real, lambda z: np.abs(z[:, 0]) ** 2):
            assert ks_2samp(stat(new), stat(ref)).statistic <= gate

    def test_rho_small_on_samples(self):
        for dom in (Domain.ball(3, 2.0), Domain.ellipsoid([0.5, 2.0, 1.0])):
            pts = geometry.sample_boundary(dom, 200, seed=3)
            assert np.max(np.abs(dom.rho(pts))) <= 1e-10 * (1 + dom.diameter**2)

    def test_gradient_nonzero_on_boundary(self):
        # central differences of rho along each real coordinate
        h = 1e-6
        for dom in (Domain.ball(2, 1.0), Domain.ellipsoid([1.0, 4.0])):
            pts = geometry.sample_boundary(dom, 200, seed=4)[:, None, :]
            steps = h * np.concatenate([np.eye(dom.n), 1j * np.eye(dom.n)])
            grad = (dom.rho(pts + steps) - dom.rho(pts - steps)) / (2 * h)
            norms = np.sqrt((grad**2).sum(axis=1))
            assert np.min(norms) > 0.0


class TestInteriorSampling:
    def test_inside_and_deterministic(self):
        dom = Domain.ellipsoid([1.0, 4.0])
        a = geometry.sample_interior(dom, 300, seed=21)
        b = geometry.sample_interior(dom, 300, seed=21)
        assert np.array_equal(a, b)
        assert np.all(dom.rho(a) < 0)
