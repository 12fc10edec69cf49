import itertools
import math

import numpy as np
import pytest

from hessiankit import core, radial
from hessiankit.errors import ArgumentError, DomainError


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


class TestElementarySymmetric:
    def test_all_ones(self):
        assert core.elementary_symmetric_all([1.0, 1.0, 1.0], 2)[2] == 3.0

    def test_against_enumeration_oracle(self):
        assert core.elementary_symmetric_enumerate([1, 2, 3], 2) == 11.0
        assert core.elementary_symmetric_all([1, 2, 3], 2)[2] == 11.0
        assert core.elementary_symmetric_enumerate([5, -1], 2) == -5.0
        assert core.elementary_symmetric_all([5, -1], 2)[2] == -5.0

    def test_h0_is_one(self):
        assert core.elementary_symmetric_all([2.0, -7.0], 0)[0] == 1.0

    def test_recurrence_matches_enumeration_randomly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            lam = rng.standard_normal(n) * 3.0
            k = int(rng.integers(0, n + 1))
            fast = core.elementary_symmetric_all(lam, k)[k]
            slow = core.elementary_symmetric_enumerate(lam, k)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    def test_large_n_stable(self):
        lam = np.linspace(0.1, 2.0, 64)
        h = core.elementary_symmetric_all(lam, 64)
        assert np.all(np.isfinite(h))
        assert h[64] == pytest.approx(float(np.prod(lam)), rel=1e-10)

    def test_order_out_of_range(self):
        with pytest.raises(ArgumentError):
            core.elementary_symmetric_all([1.0, 2.0], 3)
        with pytest.raises(ArgumentError):
            core.elementary_symmetric_all([1.0, 2.0], -1)

    def test_shift_identity(self):
        # H_m(lambda + t) = sum_p binom(n-p, m-p) H_p(lambda) t^(m-p)
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            lam = rng.standard_normal(n) * 2.0
            t = float(rng.uniform(0.0, 3.0))
            lhs = core.elementary_symmetric_all(lam + t, m)[m]
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

    def test_cone_tolerance_checks_its_order(self):
        # the orders gamma_m_contains rejects, for vectors and stacks alike
        for m in (-1, 0, 3, 5):
            message = f"cone order m={m} out of range for n=2"
            for values in ([1.0, 2.0], [0.0, 0.0], [[1.0, 2.0], [0.0, 0.0]]):
                with pytest.raises(ArgumentError, match=message):
                    core.cone_tolerance(values, m)
            with pytest.raises(ArgumentError, match=message):
                core.gamma_m_contains([0.0, 0.0], m)
        assert core.cone_tolerance([1.0, -2.0], 2) == 1e-10 * 5.0
        assert core.cone_tolerance([[1.0, -2.0], [0.0, 0.0]], 1).tolist() == [1e-10 * 3.0, 1e-10]

    def test_overflowing_default_slack_is_refused(self):
        # 1e-10 (1 + 1e309) overflows, and every finite H_j would pass it
        lam = [1e103, -1e103, 1.0]
        for check in (core.gamma_m_contains, core.maclaurin_check):
            with pytest.raises(ArgumentError, match=r"default cone slack .*\^3\) overflows"):
                check(lam, 3)
        assert core.cone_tolerance(lam, 3) == math.inf
        rep = core.gamma_m_contains(lam, 3, tol=1.0)
        assert not rep.member and rep.margin == -1e206
        # at m = 2 the slack, 1e196, is finite and far below |H_2|
        assert not core.gamma_m_contains(lam, 2).member

    def test_vector_slack_keeps_the_numpy_scalar_bits(self):
        # one vector's slack is a Python float power, as numpy's scalar one
        rng = np.random.default_rng(11)
        for _ in range(2000):
            lam = rng.standard_normal(int(rng.integers(1, 7))) * 10.0 ** rng.uniform(-40, 40)
            m = int(rng.integers(1, lam.size + 1))
            assert core.cone_tolerance(lam, m) == 1e-10 * (1.0 + np.abs(lam).max() ** m)


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
            assert core.gamma_m_contains(np.linalg.eigvalsh(a), 3).member

    def test_order_out_of_range_rejected(self):
        for n, m in ((2, 5), (3, 0)):
            with pytest.raises(ArgumentError):
                core.sample_gamma_hat(n, m, 1, seed=0)
            with pytest.raises(ArgumentError):
                core.sample_sigma_m(n, m, 1, seed=0)


# ---------------------------------------------------------------------------
# The stacked kernel against the per-subset, per-tuple loops it replaced


def reference_polarized_form(forms):
    """One sigma_tilde call per subset, each sum built left to right."""
    mats = [np.asarray(f, dtype=complex) for f in forms]
    m, n = len(mats), mats[0].shape[0]
    total = 0.0
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            s = np.zeros((n, n), dtype=complex)
            for i in subset:
                s = s + mats[i]
            total += (-1) ** (m - size) * core.sigma_tilde(s, m)
    return total / math.factorial(m)


def reference_garding_margin(forms):
    m = len(forms)
    sig = np.array([max(core.sigma_tilde(f, m), 0.0) for f in forms])
    return reference_polarized_form(forms) - float(np.prod(sig ** (1.0 / m)))


def reference_gamma_hat(n, count, seed, eps=0.01):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append(g @ g.conj().T / n + eps * np.eye(n))
    return out


def reference_sigma_m(n, m, count, seed):
    return [a / core.sigma_tilde(a, m) ** (1.0 / m) for a in reference_gamma_hat(n, count, seed)]


def reference_inf_characterization(a, m, samples, seed):
    n = a.shape[0]
    sig = max(core.sigma_tilde(a, m), 0.0)
    exact = sig ** (1.0 / m)
    forms = reference_sigma_m(n, m, samples * (m - 1), seed)
    best = math.inf
    for i in range(samples):
        best = min(best, reference_polarized_form([a, *forms[i * (m - 1) : (i + 1) * (m - 1)]]))
    minimizer_value = None
    if sig > 0.0:
        minimizer_value = reference_polarized_form([a] + [a / exact] * (m - 1))
        best = min(best, minimizer_value)
    return best, exact, minimizer_value


def reference_hessian_residual(solution, problem, r_min, r_max):
    r, u = solution.r, solution.u
    if r[0] == 0.0:
        r, u = r[1:], u[1:]
    s = r**2
    n, m = problem.n, problem.m
    h1 = s[1:-1] - s[:-2]
    h2 = s[2:] - s[1:-1]
    um, u0, up = u[:-2], u[1:-1], u[2:]
    du = (-h2 / (h1 * (h1 + h2))) * um + ((h2 - h1) / (h1 * h2)) * u0 + (
        h1 / (h2 * (h1 + h2))
    ) * up
    d2u = 2.0 * (um / (h1 * (h1 + h2)) - u0 / (h1 * h2) + up / (h2 * (h1 + h2)))
    rc, sc = r[1:-1], s[1:-1]
    mask = (rc >= r_min) & (rc <= r_max)
    worst = 0.0
    for dui, d2ui, si, fi in zip(du[mask], d2u[mask], sc[mask], problem.density(rc[mask])):
        lam = np.full(n, dui)
        lam[-1] = dui + si * d2ui
        sig = core.elementary_symmetric_all(lam, m)[m] / math.comb(n, m)
        worst = max(worst, abs(sig - fi) / (1.0 + fi))
    return float(worst)


ORDERS = [(n, m) for n in range(1, 7) for m in range(1, n + 1)]


def signed_rows(n, seed):
    """(36, n) eigenvalue rows: mixed signs, exact zeros and -0.0, and
    entries near 1e+-160, whose H_k overflow to +-inf or NaN or underflow."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((36, n))
    rows[0] = 0.0
    rows[1] = -0.0
    rows[2:8][rng.random((6, n)) < 0.5] = 0.0
    rows[8:14][rng.random((6, n)) < 0.5] = -0.0
    rows[14:20] *= 1e160
    rows[20:26] *= 1e-160
    rows[26:32] *= 10.0 ** rng.choice([-160, 0, 160], (6, n))
    rows[32:36] = np.abs(rows[32:36]) * 1e160  # same signs: +inf, never NaN
    return rows


def loop_maclaurin_means(h_values, n, m):
    """maclaurin_check's means as a loop over numpy scalars."""
    means = np.empty(m)
    for p, h in enumerate(h_values, 1):
        ratio = max(h / math.comb(n, p), 0.0)
        means[p - 1] = ratio ** (1.0 / p)
    return means


def loop_enumerate(lam, k):
    """The enumeration oracle's sum of products over numpy scalars."""
    return float(sum(math.prod(c) for c in itertools.combinations(np.asarray(lam, dtype=float), k)))


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))


def tuple_stack(n, m, count, seed):
    """count m-tuples: positive definite forms and indefinite Hermitian ones."""
    pd = core.sample_gamma_hat(n, m, count * m, seed).reshape(count, m, n, n)
    rng = np.random.default_rng(seed + 1)
    g = rng.standard_normal((count, m, n, n)) + 1j * rng.standard_normal((count, m, n, n))
    return pd, (g + np.swapaxes(g.conj(), -1, -2)) / 2.0


def loop_subset_total(terms, m):
    """The polarized value as a loop from 0.0 over the subset terms."""
    total = 0.0
    for j in range(terms.shape[-1]):
        total = total + terms[..., j]
    return total / math.factorial(m)


class TestStackedKernel:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_subset_terms_add_like_a_loop(self, m, monkeypatch):
        # the terms, set through H_m, span 8 decades; further rows hold
        # exact zeros and -0.0, and one sums -0.0 terms only
        _, signs = core._subsets(m)
        rng = np.random.default_rng(70 + m)
        top = rng.standard_normal((7, signs.size)) * 10.0 ** rng.integers(-4, 5, (7, signs.size))
        top[1] = 0.0
        top[2] = -0.0 * signs
        top[3, ::2] = -0.0
        top[4, rng.random(signs.size) < 0.5] = -0.0
        top[5, rng.random(signs.size) < 0.5] = 0.0
        symmetric_all = core._symmetric_all

        def set_top(lam, order):
            h = symmetric_all(lam, order)
            h[..., order] = top[: h.shape[0]] if h.ndim == 3 else top[0]
            return h

        monkeypatch.setattr(core, "_symmetric_all", set_top)
        forms, _ = tuple_stack(m, m, 7, 200 + m)  # n = m: the terms are signs * H_m
        for stack in (forms, forms[0]):
            _, h, total = core._subset_spectra(stack)
            want = loop_subset_total(signs * h[..., m], m)
            assert np.array_equal(np.asarray(total).view(np.int64), np.asarray(want).view(np.int64))
        assert np.signbit(signs * top[2]).all()

    @pytest.mark.parametrize("n, m", ORDERS)
    def test_polarized_form_matches_subset_loop(self, n, m):
        for stack in tuple_stack(n, m, 5, 10 * n + m):
            expected = np.array([reference_polarized_form(list(t)) for t in stack])
            assert np.array_equal(core.polarized_form(stack), expected)
            assert np.array_equal(core.polarized_form(stack.reshape(5, 1, m, n, n))[:, 0], expected)
            single = core.polarized_form(list(stack[0]))
            assert type(single) is float and single == expected[0]

    @pytest.mark.parametrize("n, m", ORDERS)
    def test_garding_margins_match_loop(self, n, m):
        forms, _ = tuple_stack(n, m, 5, 100 + 10 * n + m)
        rep = core.garding_check(forms)
        expected = np.array([reference_garding_margin(list(t)) for t in forms])
        assert np.array_equal(rep.margin, expected) and rep.passed.all()
        single = core.garding_check(list(forms[0]))
        assert type(single.margin) is float and single.margin == expected[0]
        assert single.passed is True

    @pytest.mark.parametrize("n, m", [o for o in ORDERS if o[0] <= 4 and o[1] >= 2])
    def test_inf_characterization_matches_loop(self, n, m):
        for i, a in enumerate(core.sample_gamma_hat(n, m, 2, seed=200 + n)):
            rep = core.inf_characterization(a, m, samples=8, seed=i)
            expected = reference_inf_characterization(a, m, 8, i)
            assert (rep.inf_estimate, rep.exact_value, rep.minimizer_value) == expected
        degenerate = np.diag([1.0] + [0.0] * (n - 1))
        rep = core.inf_characterization(degenerate, m, samples=8, seed=3)
        expected = reference_inf_characterization(degenerate, m, 8, 3)
        assert (rep.inf_estimate, rep.exact_value, rep.minimizer_value) == expected

    @pytest.mark.parametrize("n, m", ORDERS)
    def test_l_alpha_matches_subset_loop(self, n, m):
        hessian = tuple_stack(n, 1, 1, 300 + 10 * n + m)[1][0, 0]  # indefinite
        alphas = core.sample_sigma_m(n, m, max(m - 1, 1), seed=n + m)[: m - 1]
        value = core.l_alpha(hessian, alphas)
        assert type(value) is float and value == reference_polarized_form([hessian, *alphas])
        if m >= 2:
            with pytest.raises(DomainError, match="alpha 0 not normalized"):
                core.l_alpha(hessian, [2.0 * alphas[0], *alphas[1:]])

    @pytest.mark.parametrize("n, m", ORDERS)
    def test_samplers_match_loop(self, n, m):
        assert np.array_equal(core.sample_gamma_hat(n, m, 7, seed=n + m), reference_gamma_hat(n, 7, n + m))
        assert np.array_equal(core.sample_sigma_m(n, m, 7, seed=m), reference_sigma_m(n, m, 7, m))

    @pytest.mark.parametrize("n, m, density", [
        (2, 2, radial.ConstDensity(1.0)), (3, 2, radial.PowerDensity(1.5)),
        (4, 3, radial.ConstDensity(2.0)), (3, 1, radial.PowerDensity(0.5)),
    ])
    def test_radial_hessian_residual_matches_loop(self, n, m, density):
        problem = radial.RadialProblem(n, m, density, convention="form")
        sol = radial.radial_solve(problem, grid=np.linspace(0.0, 1.0, 401), tol=1e-10)
        for window in ((0.0, 1.0), (0.1, 0.9)):
            got = radial.radial_hessian_residual(sol, problem, *window)
            assert got == reference_hessian_residual(sol, problem, *window)

    def test_elementary_symmetric_all_on_stacks(self):
        lam = np.random.default_rng(7).standard_normal((3, 4, 6))
        stacked = core.elementary_symmetric_all(lam, 4)
        assert stacked.shape == (3, 4, 5)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(stacked[idx], core.elementary_symmetric_all(lam[idx], 4))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_vectors_match_stack_rows(self, n):
        # one vector runs on Python floats, a stack on arrays: each row has
        # the bits of its single call, signed zeros, infs and NaNs included
        rows = signed_rows(n, 400 + n)
        with_inf = rows[:8].copy()
        with_inf[:, n // 2] = np.inf
        with_inf[1::2, n - 1] = -np.inf
        seen = np.zeros(3, dtype=bool)
        for m in range(n + 1):
            for stack, kernel in ((rows, core.elementary_symmetric_all), (with_inf, core._symmetric_all)):
                with np.errstate(all="ignore"):
                    stacked = kernel(stack, m)
                for row, want in zip(stack, stacked):
                    got = kernel(row, m)
                    assert np.array_equal(got, want, equal_nan=True)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                seen |= [np.isposinf(stacked).any(), np.isneginf(stacked).any(), np.isnan(stacked).any()]
        assert seen[:2].all() and (seen[2] or n == 1)  # one eigenvalue gives no NaN

    @pytest.mark.parametrize("n, m", ORDERS)
    def test_maclaurin_means_match_scalar_loop(self, n, m, monkeypatch):
        rng = np.random.default_rng(500 + 10 * n + m)
        for lam in rng.random((6, n)) + 0.05 * rng.standard_normal((6, n)):
            if core.gamma_m_contains(lam, m).member:
                want = loop_maclaurin_means(core.elementary_symmetric_all(lam, m)[1:], n, m)
                assert same_bits(core.maclaurin_check(lam, m), want)
        # H_p set just below 0 (clipped), to -0.0 and to 0.0 in turn
        symmetric_all = core._symmetric_all
        for values in ([-1e-12, -0.0, 0.0, 2.5], [-0.0], [-1e-300, 0.5]):
            top = np.resize(values, m)

            def set_h(lam, order):
                h = symmetric_all(lam, order)
                h[1:] = top
                return h

            monkeypatch.setattr(core, "_symmetric_all", set_h)
            want = loop_maclaurin_means(top, n, m)
            assert same_bits(core.maclaurin_check(np.ones(n), m), want)
            monkeypatch.undo()
        assert same_bits(loop_maclaurin_means(np.array([-0.0]), 1, 1), [-0.0])

    @pytest.mark.parametrize("n, m", ORDERS)
    def test_enumeration_matches_scalar_loop(self, n, m):
        for lam in signed_rows(n, 600 + 10 * n + m)[::3]:
            for k in range(n + 1):
                with np.errstate(all="ignore"):
                    want = loop_enumerate(lam, k)
                got = core.elementary_symmetric_enumerate(lam, k)
                assert type(got) is float and same_bits(got, want)

    def test_ragged_stack_rejected(self):
        with pytest.raises(ArgumentError):
            core.polarized_form([np.eye(2), np.eye(3)])
        with pytest.raises(ArgumentError):
            core.garding_check([np.eye(2), np.eye(3)])
        with pytest.raises(ArgumentError):
            core.l_alpha(np.eye(2), [np.eye(3)])

    def test_too_many_arguments_rejected(self):
        stack = np.broadcast_to(np.eye(2), (4, 3, 2, 2))
        with pytest.raises(ArgumentError):
            core.polarized_form(stack)
        with pytest.raises(ArgumentError):
            core.garding_check(stack)

    def test_one_non_hermitian_member_rejected(self):
        stack = np.array(np.broadcast_to(np.eye(3), (4, 2, 3, 3)), dtype=complex)
        stack[2, 1, 0, 1] = 1.0
        with pytest.raises(ArgumentError):
            core.polarized_form(stack)
        with pytest.raises(ArgumentError):
            core.garding_check(stack)
        with pytest.raises(ArgumentError):
            core.sigma_tilde(stack[2], 2)

    def test_non_finite_input_and_overflowing_sums_rejected(self):
        with pytest.raises(ArgumentError, match="non-finite"):
            core.sigma_tilde(np.diag([np.nan, 1.0]), 1)
        huge = np.diag([1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArgumentError):
            core.garding_check([huge, huge])

    def test_one_form_outside_cone_rejected(self):
        stack = np.array(np.broadcast_to(np.eye(2), (4, 2, 2, 2)))
        stack[3, 1] = np.diag([5.0, -1.0])
        with pytest.raises(DomainError, match="argument 1"):
            core.garding_check(stack)


class TestOneCheckOneDiagonalization:
    """Each public call checks its caller's forms once and diagonalizes a
    tuple stack once; forms the package built itself are not re-checked."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"eigvalsh": 0, "hermitian": 0}
        eigvalsh, is_hermitian = np.linalg.eigvalsh, core._is_hermitian

        def counted_eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        def counted_is_hermitian(*args, **kwargs):
            calls["hermitian"] += 1
            return is_hermitian(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(core, "_is_hermitian", counted_is_hermitian)

        def count(call):
            calls.update(eigvalsh=0, hermitian=0)
            call()
            return calls["eigvalsh"], calls["hermitian"]

        return count

    def test_tuple_calls(self, counts):
        single = list(core.sample_gamma_hat(4, 3, 3, seed=1))
        stack = core.sample_gamma_hat(4, 3, 15, seed=2).reshape(5, 3, 4, 4)
        for forms in (single, stack):
            assert counts(lambda: core.polarized_form(forms)) == (1, 1)
            assert counts(lambda: core.garding_check(forms)) == (1, 1)
            assert counts(lambda: core.sigma_tilde(forms, 3)) == (1, 1)
        assert counts(lambda: core.sigma_tilde(single[0], 3)) == (1, 1)
        alphas = core.sample_sigma_m(4, 3, 2, seed=3)
        assert counts(lambda: core.l_alpha(single[0], alphas)) == (1, 1)

    def test_inf_characterization_and_sampler(self, counts):
        a = core.sample_gamma_hat(3, 2, 1, seed=4)[0]
        for m in (2, 3):
            assert counts(lambda: core.inf_characterization(a, m, samples=5)) == (3, 1)
        assert counts(lambda: core.inf_characterization(a, 1, samples=5)) == (1, 1)
        degenerate = np.diag([1.0, 0.0, 0.0])
        assert counts(lambda: core.inf_characterization(degenerate, 2, samples=5)) == (3, 1)
        assert counts(lambda: core.sample_sigma_m(4, 3, 5, seed=5)) == (1, 0)
