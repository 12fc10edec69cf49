import warnings

import numpy as np
import pytest

from hessiankit import geometry
from hessiankit.errors import ArgumentError, DomainError
from hessiankit.geometry import Domain


class TestDomain:
    def test_parse(self):
        b = Domain.parse("ball:2", n=3)
        assert b.kind == "ball" and b.radius == 2.0 and b.n == 3
        e = Domain.parse("ellipsoid:1,4")
        assert e.kind == "ellipsoid" and e.coeffs == (1.0, 4.0) and e.n == 2
        with pytest.raises(ArgumentError):
            Domain.parse("cube:1", n=2)
        with pytest.raises(ArgumentError):
            Domain.parse("ball:1")  # dimension missing

    def test_squared_semi_axes_in_range(self):
        # both ends of [2^-1020, 2^1020] are accepted, one ulp past either
        # end is not; the CLI runs at the ends (tests/test_cli.py)
        lo, hi = geometry.SCALE_MIN, geometry.SCALE_MAX
        for r_sq in (lo, hi):
            assert Domain.ball(2, np.sqrt(r_sq)).radius ** 2 == r_sq
            assert Domain.ellipsoid([1.0, r_sq]).coeffs == (1.0, r_sq)
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

    def test_gradient_matches_finite_differences(self):
        # rho = sum a_j |z_j|^2 - c, so d rho/dx_j + i d rho/dy_j = 2 a_j z_j
        for dom in (Domain.ball(2, 1.0), Domain.ellipsoid([1.0, 4.0, 2.0])):
            a = np.ones(dom.n) if dom.kind == "ball" else np.asarray(dom.coeffs)
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
            assert np.max(np.abs(a - dom.hess_rho())) <= 1e-6


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
        # eigvalsh scales this diagonal and returns 0 for its two small
        # entries (numpy 2.4 with OpenBLAS), so A read 0; the exact
        # sigma_tilde_3 is 2^-200
        dom = Domain.ellipsoid([2.0**-600, 2.0**-600, 2.0**1000])
        assert geometry.pseudoconvexity_constant(dom, 3) == 2.0**-200
        assert geometry.pseudoconvexity_constant(dom, 2) == 2.0**401 / 3


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
