import math

import numpy as np
import pytest

from hessiankit import core
from hessiankit.errors import ArgumentError, DomainError


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class TestElementarySymmetric:
    def test_all_ones(self):
        assert core.elementary_symmetric([1.0, 1.0, 1.0], 2) == 3.0

    def test_against_enumeration_oracle(self):
        assert core.elementary_symmetric_enumerate([1, 2, 3], 2) == 11.0
        assert core.elementary_symmetric([1, 2, 3], 2) == 11.0
        assert core.elementary_symmetric_enumerate([5, -1], 2) == -5.0
        assert core.elementary_symmetric([5, -1], 2) == -5.0

    def test_h0_is_one(self):
        assert core.elementary_symmetric([2.0, -7.0], 0) == 1.0

    def test_recurrence_matches_enumeration_randomly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            lam = rng.standard_normal(n) * 3.0
            k = int(rng.integers(0, n + 1))
            fast = core.elementary_symmetric(lam, k)
            slow = core.elementary_symmetric_enumerate(lam, k)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_large_n_stable(self):
        lam = np.linspace(0.1, 2.0, 64)
        h = core.elementary_symmetric_all(lam, 64)
        assert np.all(np.isfinite(h))
        assert h[64] == pytest.approx(float(np.prod(lam)), rel=1e-10)

    def test_order_out_of_range(self):
        with pytest.raises(ArgumentError):
            core.elementary_symmetric([1.0, 2.0], 3)
        with pytest.raises(ArgumentError):
            core.elementary_symmetric([1.0, 2.0], -1)

    def test_shift_identity(self):
        # H_m(lambda + t) = sum_p binom(n-p, m-p) H_p(lambda) t^(m-p)
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            lam = rng.standard_normal(n) * 2.0
            t = float(rng.uniform(0.0, 3.0))
            lhs = core.elementary_symmetric(lam + t, m)
            h = core.elementary_symmetric_all(lam, m)
            rhs = sum(
                math.comb(n - p, m - p) * h[p] * t ** (m - p) for p in range(m + 1)
            )
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestCone:
    def test_simple_membership(self):
        rep = core.gamma_m_contains([1.0, 1.0], 2)
        assert rep.member and rep.margin == 1.0

    def test_mixed_signs(self):
        assert core.gamma_m_contains([5.0, -1.0], 1).member
        rep = core.gamma_m_contains([5.0, -1.0], 2)
        assert not rep.member and rep.margin == -5.0

    def test_zero_vector_on_boundary(self):
        for m in (1, 2, 3):
            rep = core.gamma_m_contains([0.0, 0.0, 0.0], m)
            assert rep.member and rep.margin == 0.0

    def test_nesting(self):
        # membership at m implies membership at every smaller index
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            lam = rng.standard_normal(n) * 2.0
            for m in range(n, 0, -1):
                if core.gamma_m_contains(lam, m).member:
                    for k in range(1, m):
                        assert core.gamma_m_contains(lam, k).member
                    break


class TestMaclaurin:
    def test_equality_case(self):
        s = core.maclaurin_check(np.ones(5), 5)
        assert np.allclose(s, 1.0, atol=1e-14)

    def test_reference_values(self):
        s = core.maclaurin_check([1.0, 2.0, 3.0], 3)
        assert s[0] == pytest.approx(2.0)
        assert s[1] == pytest.approx(math.sqrt(11.0 / 3.0))
        assert s[2] == pytest.approx(6.0 ** (1.0 / 3.0))
        assert np.all(np.diff(s) <= 1e-10)

    def test_boundary_case(self):
        s = core.maclaurin_check([2.0, 0.0, 0.0], 2)
        assert s[0] == pytest.approx(2.0 / 3.0)
        assert s[1] == 0.0

    def test_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            core.maclaurin_check([5.0, -1.0], 2)

    def test_random_chain_nonincreasing(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 8))
            lam = rng.standard_normal(n) + 1.2
            m = int(rng.integers(1, n + 1))
            if not core.gamma_m_contains(lam, m).member:
                continue
            s = core.maclaurin_check(lam, m)
            assert np.all(np.diff(s) <= 1e-10 * (1.0 + np.abs(s[:-1])))
            done += 1


class TestSigmaTilde:
    def test_identity_is_one(self):
        for n in (2, 3, 5):
            for m in range(1, n + 1):
                assert core.sigma_tilde(np.eye(n), m) == pytest.approx(1.0, abs=1e-13)

    def test_diagonal_values(self):
        assert core.sigma_tilde(np.diag([2.0, 3.0]), 2) == pytest.approx(6.0)
        assert core.sigma_tilde(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(11.0 / 3.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ArgumentError):
            core.sigma_tilde(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestPolarizedForm:
    def test_all_standard(self):
        assert core.polarized_form([np.eye(3)] * 2) == pytest.approx(1.0, abs=1e-13)

    def test_mixed_reference(self):
        val = core.polarized_form([np.diag([2.0, 3.0]), np.eye(2)])
        assert val == pytest.approx(2.5, abs=1e-13)

    def test_diagonal_restriction(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n + 1))
            a = random_hermitian(rng, n)
            gap = abs(core.polarized_form([a] * m) - core.sigma_tilde(a, m))
            assert gap <= 1e-12

    def test_symmetry_and_multilinearity(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, n + 1))
            forms = [random_hermitian(rng, n) for _ in range(m)]
            base = core.polarized_form(forms)
            perm = list(rng.permutation(m))
            assert core.polarized_form([forms[i] for i in perm]) == pytest.approx(
                base, rel=1e-10, abs=1e-10
            )
            c = float(rng.uniform(-2.0, 2.0))
            b = random_hermitian(rng, n)
            lhs = core.polarized_form([c * forms[0] + b] + forms[1:])
            rhs = c * base + core.polarized_form([b] + forms[1:])
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestGarding:
    def test_equality_at_identical_arguments(self):
        rep = core.garding_check([np.eye(4)] * 3)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_reference_margin(self):
        rep = core.garding_check([np.diag([2.0, 3.0]), np.eye(2)])
        assert rep.margin == pytest.approx(2.5 - math.sqrt(6.0), abs=1e-12)

    def test_random_positive_definite_pairs(self):
        for n in range(2, 7):
            forms = core.sample_gamma_hat(n, 2, 400, seed=n)
            for i in range(200):
                rep = core.garding_check(forms[2 * i : 2 * i + 2])
                assert rep.margin >= -1e-10
                assert rep.passed

    def test_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            core.garding_check([np.diag([5.0, -1.0]), np.eye(2)])


class TestInfCharacterization:
    def test_standard_form(self):
        rep = core.inf_characterization(np.eye(3), 2, samples=50, seed=0)
        assert rep.exact_value == pytest.approx(1.0, abs=1e-12)
        assert rep.inf_estimate == pytest.approx(1.0, abs=1e-12)

    def test_reference_minimizer(self):
        rep = core.inf_characterization(np.diag([2.0, 3.0]), 2, samples=100, seed=1)
        assert rep.exact_value == pytest.approx(math.sqrt(6.0), abs=1e-13)
        assert abs(rep.minimizer_value - rep.exact_value) <= 1e-12

    def test_sampled_lower_bound(self):
        rep = core.inf_characterization(
            np.diag([1.0, 2.0, 3.0]), 2, samples=500, seed=2
        )
        assert rep.inf_estimate >= math.sqrt(11.0 / 3.0) - 1e-10

    def test_degenerate_form(self):
        rep = core.inf_characterization(np.diag([1.0, 0.0]), 2, samples=20, seed=3)
        assert rep.exact_value == 0.0
        assert rep.minimizer_value is None
        assert rep.inf_estimate >= -1e-12


class TestLAlpha:
    def test_standard_quadratic(self):
        # hessian of |z|^2 paired with standard forms gives exactly 1
        assert core.l_alpha(np.eye(2), [np.eye(2)]) == pytest.approx(1.0, abs=1e-13)

    def test_linearity_at_zero(self):
        assert core.l_alpha(np.zeros((2, 2)), [np.eye(2)]) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_reference(self):
        val = core.l_alpha(np.diag([2.0, 3.0]), [np.diag([2.0, 0.5])])
        assert val == pytest.approx(3.5, abs=1e-12)

    def test_unnormalized_alpha_rejected(self):
        with pytest.raises(DomainError):
            core.l_alpha(np.eye(2), [np.diag([2.0, 3.0])])

    def test_lower_bound_over_sigma_samples(self):
        # quadratic growth |z|^2 dominates every normalized direction
        for tup in (core.sample_sigma_m(3, 2, 40, seed=9)[i : i + 1] for i in range(40)):
            assert core.l_alpha(np.eye(3), tup) >= 1.0 - 1e-10


class TestSubsolutionEquivalence:
    def test_operator_threshold_matches_hessian_threshold(self):
        # for a quadratic with Hessian A, holding l_alpha >= f^(1/m) for all
        # normalized tuples is the same as sigma_tilde_m(A) >= f; checked by
        # comparing both criteria against thresholds on each side of the gap
        rng = np.random.default_rng(41)
        for case in range(25):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, n + 1))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = g @ g.conj().T / n + 0.05 * np.eye(n)
            rep = core.inf_characterization(a, m, samples=60, seed=case)
            sig = core.sigma_tilde(a, m)
            for f_value in (0.5 * sig, 2.0 * sig):
                hessian_side = sig >= f_value
                operator_side = rep.inf_estimate >= f_value ** (1.0 / m) - 1e-9
                assert hessian_side == operator_side


class TestRealComplexDet:
    def test_identity_calibration(self):
        assert core.real_complex_det_check(np.eye(2)) == pytest.approx(0.0, abs=1e-15)
        assert core.real_complex_det_check(np.eye(4)) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert core.real_complex_det_check(np.diag([1.0, 4.0])) == pytest.approx(9.0 / 16.0)

    def test_random_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            g = rng.standard_normal((2 * n, 2 * n))
            q = g @ g.T / (2 * n)
            assert core.real_complex_det_check(q) >= -1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ArgumentError):
            core.real_complex_det_check(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_complex_hessian_entries(self):
        # interleaved (x1, y1, x2, y2); cross block carries the imaginary part
        q = np.zeros((4, 4))
        q[0, 3] = q[3, 0] = 1.0
        a = core.complex_hessian_from_real(q)
        assert a[0, 1] == pytest.approx(0.25j)
        assert a[1, 0] == pytest.approx(-0.25j)


class TestSamplers:
    def test_gamma_hat_deterministic(self):
        a = core.sample_gamma_hat(3, 2, 5, seed=77)
        b = core.sample_gamma_hat(3, 2, 5, seed=77)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_sigma_m_normalized(self):
        for a in core.sample_sigma_m(4, 3, 25, seed=13):
            assert core.sigma_tilde(a, 3) == pytest.approx(1.0, abs=1e-11)
            assert core.form_in_gamma_hat(a, 3).member

    def test_order_out_of_range_rejected(self):
        for n, m in ((2, 5), (3, 0)):
            with pytest.raises(ArgumentError):
                core.sample_gamma_hat(n, m, 1, seed=0)
            with pytest.raises(ArgumentError):
                core.sample_sigma_m(n, m, 1, seed=0)
