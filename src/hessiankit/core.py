"""Cone algebra for elementary symmetric polynomials and Hermitian forms.

Eigenvalue-side objects: the elementary symmetric polynomials H_k, the cones
Gamma_m = { lambda : H_1(lambda) >= 0, ..., H_m(lambda) >= 0 } and the
Maclaurin chain of normalized means.

Form-side objects: a constant-coefficient real (1,1)-form is represented by
its Hermitian coefficient matrix A.  Its normalized m-Hessian is

    sigma_tilde(A, m) = H_m(eig(A)) / binom(n, m),

so the standard form (A = identity) has sigma_tilde = 1 for every m.  Some
sources instead scale by m!(n-m)!, which does not give 1 on the identity;
this module deliberately uses the binomial normalization because it is the
one under which wedge-product identities ("alpha^m ^ beta^(n-m) =
sigma_tilde(alpha) beta^n") and the normalized sample set Sigma_m are
mutually consistent.

The polarized form M is the symmetric multilinear map whose diagonal
restriction is sigma_tilde; on the cone it satisfies the Garding inequality

    M(a_1, ..., a_m) >= prod_i sigma_tilde(a_i)^(1/m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DomainError

HERMITIAN_TOL = 1e-12
SIGMA_NORMALIZATION_TOL = 1e-9


def _as_vector(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ArgumentError("eigenvalue input must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lam)):
        raise ArgumentError("eigenvalue input contains non-finite entries")
    return lam


def elementary_symmetric_all(values, m: int) -> np.ndarray:
    """H_0, H_1, ..., H_m of the input vector, H_0 = 1.

    Uses the coefficient recurrence of prod_i (t + lambda_i): appending an
    eigenvalue x maps c_k -> c_k + x * c_{k-1}.  Stable for n up to at least
    64; never enumerates subsets.
    """
    lam = _as_vector(values)
    n = lam.size
    if not 0 <= m <= n:
        raise ArgumentError(f"order m={m} out of range for n={n}")
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    top = 0
    for x in lam:
        top = min(top + 1, m)
        coeffs[1 : top + 1] += x * coeffs[0:top]
    return coeffs


def elementary_symmetric(values, k: int) -> float:
    """H_k(lambda) via the product recurrence."""
    lam = _as_vector(values)
    if not 0 <= k <= lam.size:
        raise ArgumentError(f"order k={k} out of range for n={lam.size}")
    return float(elementary_symmetric_all(lam, k)[k])


def elementary_symmetric_enumerate(values, k: int) -> float:
    """Subset-enumeration evaluation of H_k, for cross-checking only.

    Exponential cost; refuses n > 12.
    """
    lam = _as_vector(values)
    n = lam.size
    if n > 12:
        raise ArgumentError("enumeration oracle limited to n <= 12")
    if not 0 <= k <= n:
        raise ArgumentError(f"order k={k} out of range for n={n}")
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(lam, k)))


def cone_tolerance(values, m: int) -> float:
    """Scale-aware slack for cone membership: 1e-10 * (1 + max|lambda|^m)."""
    lam = _as_vector(values)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    return 1e-10 * (1.0 + scale**m)


@dataclass
class ConeReport:
    """Outcome of a Gamma_m membership test."""

    h_values: np.ndarray  # H_1 .. H_m
    member: bool
    margin: float  # min over j <= m of H_j

    def __iter__(self):
        return iter((self.h_values, self.member, self.margin))


def gamma_m_contains(values, m: int, tol: float | None = None) -> ConeReport:
    """Test lambda in Gamma_m by evaluating H_1..H_m.

    ``tol`` defaults to the scale-aware :func:`cone_tolerance`.  Membership
    is margin >= -tol where margin = min_j H_j.
    """
    lam = _as_vector(values)
    if not 1 <= m <= lam.size:
        raise ArgumentError(f"cone order m={m} out of range for n={lam.size}")
    if tol is None:
        tol = cone_tolerance(lam, m)
    h = elementary_symmetric_all(lam, m)[1:]
    margin = float(np.min(h))
    return ConeReport(h_values=h, member=bool(margin >= -tol), margin=margin)


def maclaurin_check(values, m: int) -> np.ndarray:
    """Normalized means s_p = (H_p / binom(n,p))^(1/p), p = 1..m.

    Only meaningful on the cone, so membership is verified first.  On
    Gamma_m the sequence is nonincreasing (Maclaurin); callers assert that.
    """
    lam = _as_vector(values)
    n = lam.size
    report = gamma_m_contains(lam, m)
    if not report.member:
        raise DomainError(
            f"Maclaurin chain is only asserted on the cone; margin={report.margin}"
        )
    h = elementary_symmetric_all(lam, m)
    means = np.empty(m)
    for p in range(1, m + 1):
        ratio = max(h[p] / math.comb(n, p), 0.0)  # clip round-off below 0
        means[p - 1] = ratio ** (1.0 / p)
    return means


# ---------------------------------------------------------------------------
# Hermitian forms


def _as_hermitian(entries, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ArgumentError("form coefficients must be a square matrix")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if np.max(np.abs(a - a.conj().T)) > tol * (1.0 + scale):
        raise ArgumentError("matrix is not Hermitian within tolerance")
    return a


def hermitian_eigenvalues(entries, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Ascending eigenvalues of a validated Hermitian matrix."""
    return np.linalg.eigvalsh(_as_hermitian(entries, tol))


def sigma_tilde(entries, m: int) -> float:
    """Normalized m-Hessian of a Hermitian form: H_m(eig A) / binom(n, m)."""
    a = _as_hermitian(entries)
    n = a.shape[0]
    if not 1 <= m <= n:
        raise ArgumentError(f"order m={m} out of range for n={n}")
    lam = np.linalg.eigvalsh(a)
    return elementary_symmetric(lam, m) / math.comb(n, m)


def form_in_gamma_hat(entries, m: int, tol: float | None = None) -> ConeReport:
    """Gamma_hat_m membership of a constant form = Gamma_m membership of
    its eigenvalues."""
    return gamma_m_contains(hermitian_eigenvalues(entries), m, tol)


def polarized_form(forms: Sequence) -> float:
    """Full polarization M(a_1, ..., a_m) of sigma_tilde.

    Computed by inclusion-exclusion over nonempty subsets,

        M = (1/m!) sum_S (-1)^(m-|S|) sigma_tilde(sum_{i in S} a_i),

    which is symmetric in its arguments, multilinear, and restricts to
    sigma_tilde on the diagonal.
    """
    mats = [np.asarray(f, dtype=complex) for f in forms]
    m = len(mats)
    if m == 0:
        raise ArgumentError("polarization needs at least one form")
    n = mats[0].shape[0]
    for f in mats:
        if f.shape != (n, n):
            raise ArgumentError("all forms must share the same dimension")
        _as_hermitian(f)
    if m > n:
        raise ArgumentError(f"number of arguments m={m} exceeds dimension n={n}")
    total = 0.0
    indices = range(m)
    for size in range(1, m + 1):
        sign = (-1) ** (m - size)
        for subset in itertools.combinations(indices, size):
            s = np.zeros((n, n), dtype=complex)
            for i in subset:
                s = s + mats[i]
            total += sign * sigma_tilde(s, m)
    return total / math.factorial(m)


@dataclass
class GardingReport:
    polarized: float
    geometric_mean: float
    margin: float
    passed: bool


def garding_check(forms: Sequence, tol: float = 1e-10) -> GardingReport:
    """Margin M(a_1..a_m) - prod sigma_tilde(a_i)^(1/m); >= -tol on the cone.

    Raises :class:`DomainError` if any argument lies outside Gamma_hat_m.
    """
    mats = [np.asarray(f, dtype=complex) for f in forms]
    m = len(mats)
    sig = np.empty(m)
    for i, f in enumerate(mats):
        report = form_in_gamma_hat(f, m)
        if not report.member:
            raise DomainError(
                f"argument {i} outside the cone (margin {report.margin})"
            )
        sig[i] = max(sigma_tilde(f, m), 0.0)
    value = polarized_form(mats)
    bound = float(np.prod(sig ** (1.0 / m)))
    margin = value - bound
    return GardingReport(
        polarized=value, geometric_mean=bound, margin=margin, passed=bool(margin >= -tol)
    )


# ---------------------------------------------------------------------------
# Seeded samplers


def sample_gamma_hat(n: int, m: int, count: int, seed: int, eps: float = 0.01):
    """Random Hermitian forms in the interior of Gamma_hat_m.

    Draws A = G G* + eps I with complex Gaussian G, which is positive
    definite, hence inside every cone.  Deterministic for a fixed seed.
    """
    if not 1 <= m <= n:
        raise ArgumentError(f"m={m} out of range for n={n}")
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g @ g.conj().T / n + eps * np.eye(n)
        out.append(a)
    return out


def sample_sigma_m(n: int, m: int, count: int, seed: int, eps: float = 0.01):
    """Random forms on Sigma_m: positive definite, rescaled to sigma_tilde = 1.

    sigma_tilde is homogeneous of degree m, so dividing by
    sigma_tilde(A)^(1/m) lands exactly on the unit level set.
    """
    forms = sample_gamma_hat(n, m, count, seed, eps)
    out = []
    for a in forms:
        s = sigma_tilde(a, m)
        out.append(a / s ** (1.0 / m))
    return out


@dataclass
class InfCharacterization:
    """Sampled infimum of M(A, a_1..a_{m-1}) over Sigma_m tuples."""

    inf_estimate: float
    exact_value: float  # sigma_tilde(A)^(1/m)
    minimizer_value: float | None  # value at a_i = A / sigma_tilde(A)^(1/m)


def inf_characterization(
    entries, m: int, samples: int = 200, seed: int = 0
) -> InfCharacterization:
    """Check that inf over Sigma_m tuples of M(A, a_1..a_{m-1}) equals
    sigma_tilde(A)^(1/m).

    Every sampled tuple gives a value >= the exact one (Garding), and when
    sigma_tilde(A) > 0 the rescaled copies of A attain it, so both the lower
    bound and its sharpness are exercised.  With sigma_tilde(A) = 0 only the
    one-sided bound is reported (minimizer undefined).
    """
    a = _as_hermitian(entries)
    n = a.shape[0]
    report = form_in_gamma_hat(a, m)
    if not report.member:
        raise DomainError(f"form outside the cone (margin {report.margin})")
    sig = max(sigma_tilde(a, m), 0.0)
    exact = sig ** (1.0 / m)

    if m == 1:
        value = sigma_tilde(a, 1)
        return InfCharacterization(value, exact, value)

    best = math.inf
    for tup in _sigma_tuples(n, m, samples, seed):
        best = min(best, polarized_form([a, *tup]))
    minimizer_value = None
    if sig > 0.0:
        scaled = a / exact
        minimizer_value = polarized_form([a] + [scaled] * (m - 1))
        best = min(best, minimizer_value)
    return InfCharacterization(best, exact, minimizer_value)


def _sigma_tuples(n, m, samples, seed):
    forms = sample_sigma_m(n, m, samples * (m - 1), seed)
    for i in range(samples):
        yield forms[i * (m - 1) : (i + 1) * (m - 1)]


def l_alpha(hessian, alphas: Sequence, tol: float = SIGMA_NORMALIZATION_TOL) -> float:
    """Linearized Hessian operator: M(hessian, a_1, ..., a_{m-1}).

    The a_i must lie on Sigma_m (sigma_tilde = 1 within ``tol``); m is one
    more than their number.  Pointwise, requiring l_alpha(u) >= f^(1/m) for
    all Sigma_m tuples is the subsolution test for twice differentiable u.
    """
    mats = [np.asarray(f, dtype=complex) for f in alphas]
    m = len(mats) + 1
    for i, f in enumerate(mats):
        s = sigma_tilde(f, m)
        if abs(s - 1.0) > tol:
            raise DomainError(f"alpha {i} not normalized: sigma_tilde={s!r}")
    h = _as_hermitian(hessian)
    return polarized_form([h, *mats])


# ---------------------------------------------------------------------------
# Real vs complex Hessian determinants


def complex_hessian_from_real(q) -> np.ndarray:
    """Complex Hessian matrix built from a real 2n x 2n Hessian.

    Coordinates are interleaved (x_1, y_1, ..., x_n, y_n) and

        A[j, k] = ((Q_xjxk + Q_yjyk) + i (Q_xjyk - Q_yjxk)) / 4,

    which is the pointwise d/dz_j d/dz_k-bar of the underlying function.
    """
    qm = np.asarray(q, dtype=float)
    if qm.ndim != 2 or qm.shape[0] != qm.shape[1] or qm.shape[0] % 2:
        raise ArgumentError("real Hessian must be square with even dimension")
    scale = float(np.max(np.abs(qm))) if qm.size else 0.0
    if np.max(np.abs(qm - qm.T)) > 1e-12 * (1.0 + scale):
        raise ArgumentError("real Hessian must be symmetric")
    xx = qm[0::2, 0::2]
    yy = qm[1::2, 1::2]
    xy = qm[0::2, 1::2]
    yx = qm[1::2, 0::2]
    return ((xx + yy) + 1j * (xy - yx)) / 4.0


def real_complex_det_check(q) -> float:
    """Margin |det A|^2 - 4^(-n) det Q for the complex Hessian A of Q.

    The constant 4^(-n) is calibrated on Q = identity (the quadratic
    0.5 |x|^2 gives A = I/2, making the margin exactly zero); with that
    convention the margin is nonnegative for every positive semidefinite Q.
    """
    qm = np.asarray(q, dtype=float)
    a = complex_hessian_from_real(qm)
    n = a.shape[0]
    det_a = np.linalg.det(a)
    det_q = float(np.linalg.det(qm))
    return float(abs(det_a) ** 2 - det_q / 4.0**n)
