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

Stacks: ``elementary_symmetric_all`` and ``cone_tolerance`` take (..., n)
eigenvalues, ``sigma_tilde`` (..., n, n) forms, ``polarized_form`` and
``garding_check`` (..., m, n, n) m-tuples, each element with the bits of a
single call (which returns floats); samplers return (count, n, n) arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainError

HERMITIAN_TOL = 1e-12
SIGMA_NORMALIZATION_TOL = 1e-9


def _as_vector(values, stack: bool = False) -> np.ndarray:
    """Finite eigenvalues: one nonempty vector, or a (..., n) stack."""
    lam = np.asarray(values, dtype=float)
    if lam.ndim == 0 or lam.shape[-1] == 0 or (lam.ndim > 1 and not stack):
        raise ArgumentError("eigenvalue input must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lam)):
        raise ArgumentError("eigenvalue input contains non-finite entries")
    return lam


def elementary_symmetric_all(values, m: int) -> np.ndarray:
    """H_0, H_1, ..., H_m of each vector of a (..., n) stack, H_0 = 1.

    Uses the coefficient recurrence of prod_i (t + lambda_i): appending an
    eigenvalue x maps c_k -> c_k + x * c_{k-1}.  Stable for n up to at least
    64; never enumerates subsets.
    """
    lam = _as_vector(values, stack=True)
    n = lam.shape[-1]
    if not 0 <= m <= n:
        raise ArgumentError(f"order m={m} out of range for n={n}")
    # the order axis leads, so each step is the 1-d update over the stack
    coeffs = np.zeros((m + 1,) + lam.T.shape[1:])
    coeffs[0] = 1.0
    top = 0
    for x in lam.T:
        top = min(top + 1, m)
        coeffs[1 : top + 1] += x * coeffs[0:top]
    return coeffs.T


def elementary_symmetric(values, k: int) -> float:
    """H_k(lambda) via the product recurrence."""
    return float(elementary_symmetric_all(_as_vector(values), k)[k])


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
    return float(sum(math.prod(c) for c in itertools.combinations(lam, k)))


def cone_tolerance(values, m: int):
    """Scale-aware slack for cone membership: 1e-10 * (1 + max|lambda|^m)."""
    lam = _as_vector(values, stack=True)
    slack = 1e-10 * (1.0 + np.abs(lam).max(axis=-1) ** m)
    return float(slack) if lam.ndim == 1 else slack


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
    means = np.empty(m)
    for p, h in enumerate(report.h_values, 1):
        ratio = max(h / math.comb(n, p), 0.0)  # clip round-off below 0
        means[p - 1] = ratio ** (1.0 / p)
    return means


# ---------------------------------------------------------------------------
# Hermitian forms


def _is_hermitian(a: np.ndarray, tol: float) -> bool:
    """Each matrix of a is within tol * (1 + its max|a|) of its adjoint."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    skew = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    return not np.any(skew > tol * (1.0 + scale))


def _as_hermitian(entries) -> np.ndarray:
    """(..., n, n) Hermitian forms."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ArgumentError("form coefficients must be a square matrix")
    if not _is_hermitian(a, HERMITIAN_TOL):
        raise ArgumentError("matrix is not Hermitian within tolerance")
    return a


def sigma_tilde(entries, m: int):
    """Normalized m-Hessian of a Hermitian form: H_m(eig A) / binom(n, m)."""
    a = _as_hermitian(entries)
    n = a.shape[-1]
    if not 1 <= m <= n:
        raise ArgumentError(f"order m={m} out of range for n={n}")
    h = elementary_symmetric_all(np.linalg.eigvalsh(a), m)[..., m] / math.comb(n, m)
    return float(h) if a.ndim == 2 else h


def form_in_gamma_hat(entries, m: int, tol: float | None = None) -> ConeReport:
    """Gamma_hat_m membership of a form: Gamma_m membership of its eigenvalues."""
    return gamma_m_contains(np.linalg.eigvalsh(_as_hermitian(entries)), m, tol)


def _as_tuples(forms) -> np.ndarray:
    """(..., m, n, n) Hermitian m-tuples, m >= 1."""
    try:
        tuples = np.asarray(forms, dtype=complex)
    except ValueError:
        raise ArgumentError("all forms must share the same dimension") from None
    if tuples.ndim < 3 or tuples.shape[-3] == 0:
        raise ArgumentError("polarization needs m >= 1 forms of one shape (n, n)")
    return _as_hermitian(tuples)


@lru_cache(maxsize=None)
def _subsets(m: int):
    """Nonempty subsets of range(m) as 0/1 rows, by size, then in
    ``itertools.combinations`` order, and their signs (-1)^(m-|S|)."""
    rows = (np.arange(1, 2**m)[:, None] >> np.arange(m)) & 1
    rows = rows[np.lexsort(np.vstack([-rows[:, ::-1].T, rows.sum(axis=1)]))]
    return rows.astype(bool), np.where((m - rows.sum(axis=1)) % 2, -1.0, 1.0)


def polarized_form(forms):
    """Full polarization M(a_1, ..., a_m) of sigma_tilde.

    Computed by inclusion-exclusion over nonempty subsets,

        M = (1/m!) sum_S (-1)^(m-|S|) sigma_tilde(sum_{i in S} a_i),

    which is symmetric in its arguments, multilinear, and restricts to
    sigma_tilde on the diagonal.  All subset sums (each adding its forms in
    index order) take one ``sigma_tilde`` call; the terms add in subset order.
    """
    tuples = _as_tuples(forms)
    m, n = tuples.shape[-3], tuples.shape[-1]
    if m > n:
        raise ArgumentError(f"number of arguments m={m} exceeds dimension n={n}")
    incidence, signs = _subsets(m)
    sums = np.zeros(tuples.shape[:-3] + (signs.size, n, n), dtype=complex)
    for i in range(m):
        sums[..., incidence[:, i], :, :] += tuples[..., i : i + 1, :, :]
    total = 0.0
    for term in np.moveaxis(signs * sigma_tilde(sums, m), -1, 0):
        total = total + term
    total = total / math.factorial(m)
    return float(total) if tuples.ndim == 3 else total


@dataclass
class GardingReport:
    polarized: float
    geometric_mean: float
    margin: float
    passed: bool


def garding_check(forms, tol: float = 1e-10) -> GardingReport:
    """Margin M(a_1..a_m) - prod sigma_tilde(a_i)^(1/m); >= -tol on the cone.

    Raises :class:`DomainError` if any argument lies outside Gamma_hat_m.
    """
    tuples = _as_tuples(forms)
    m = tuples.shape[-3]
    lam = np.linalg.eigvalsh(tuples)
    h = elementary_symmetric_all(lam, m)
    cone_margin = h[..., 1:].min(axis=-1)
    outside = np.flatnonzero(cone_margin < -cone_tolerance(lam, m))
    if outside.size:
        i = outside[0]
        raise DomainError(f"argument {i % m} outside the cone (margin {cone_margin.flat[i]})")
    sig = np.maximum(h[..., m] / math.comb(lam.shape[-1], m), 0.0)
    value = polarized_form(tuples)
    bound = np.prod(sig ** (1.0 / m), axis=-1)
    margin = value - bound
    if tuples.ndim == 3:
        bound, margin = float(bound), float(margin)
    return GardingReport(value, bound, margin, margin >= -tol)


# ---------------------------------------------------------------------------
# Seeded samplers


def sample_gamma_hat(n: int, m: int, count: int, seed: int, eps: float = 0.01) -> np.ndarray:
    """Random Hermitian forms in the interior of Gamma_hat_m.

    Draws A = G G* + eps I with complex Gaussian G, which is positive
    definite, hence inside every cone.  Deterministic for a fixed seed.
    """
    if not 1 <= m <= n:
        raise ArgumentError(f"m={m} out of range for n={n}")
    if count < 1:
        raise ArgumentError("count must be >= 1")
    # per form: the real then the imaginary part of G, as drawn one at a time
    draws = np.random.default_rng(seed).standard_normal((count, 2, n, n))
    g = draws[:, 0] + 1j * draws[:, 1]
    return g @ np.swapaxes(g.conj(), -1, -2) / n + eps * np.eye(n)


def sample_sigma_m(n: int, m: int, count: int, seed: int, eps: float = 0.01) -> np.ndarray:
    """Random forms on Sigma_m: positive definite, rescaled to sigma_tilde = 1.

    sigma_tilde is homogeneous of degree m, so dividing by
    sigma_tilde(A)^(1/m) lands exactly on the unit level set.  The roots are
    Python float powers (numpy's array power rounds some differently).
    """
    forms = sample_gamma_hat(n, m, count, seed, eps)
    roots = [s ** (1.0 / m) for s in sigma_tilde(forms, m).tolist()]
    return forms / np.array(roots)[:, None, None]


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

    tuples = np.empty((samples + (sig > 0.0), m, n, n), dtype=complex)
    tuples[:, 0] = a
    forms = sample_sigma_m(n, m, samples * (m - 1), seed)
    tuples[:samples, 1:] = forms.reshape(samples, m - 1, n, n)
    if sig > 0.0:
        tuples[samples, 1:] = a / exact
    values = polarized_form(tuples)
    minimizer_value = float(values[samples]) if sig > 0.0 else None
    return InfCharacterization(float(values.min()), exact, minimizer_value)


def l_alpha(hessian, alphas, tol: float = SIGMA_NORMALIZATION_TOL) -> float:
    """Linearized Hessian operator: M(hessian, a_1, ..., a_{m-1}).

    The a_i must lie on Sigma_m (sigma_tilde = 1 within ``tol``); m is one
    more than their number.  Pointwise, requiring l_alpha(u) >= f^(1/m) for
    all Sigma_m tuples is the subsolution test for twice differentiable u.
    """
    tuples = _as_tuples([hessian, *alphas])
    m = tuples.shape[-3]
    sig = sigma_tilde(tuples[1:], m)
    off = np.flatnonzero(np.abs(sig - 1.0) > tol)
    if off.size:
        raise DomainError(f"alpha {off[0]} not normalized: sigma_tilde={float(sig[off[0]])!r}")
    return polarized_form(tuples)


# ---------------------------------------------------------------------------
# Real vs complex Hessian determinants


def complex_hessian_from_real(q) -> np.ndarray:
    """Complex Hessian matrix built from a real 2n x 2n Hessian (or a stack).

    Coordinates are interleaved (x_1, y_1, ..., x_n, y_n) and

        A[j, k] = ((Q_xjxk + Q_yjyk) + i (Q_xjyk - Q_yjxk)) / 4,

    which is the pointwise d/dz_j d/dz_k-bar of the underlying function.
    """
    qm = np.asarray(q, dtype=float)
    if qm.ndim < 2 or qm.shape[-1] != qm.shape[-2] or qm.shape[-1] % 2:
        raise ArgumentError("real Hessian must be square with even dimension")
    if not _is_hermitian(qm, 1e-12):
        raise ArgumentError("real Hessian must be symmetric")
    x, y = qm[..., 0::2, :], qm[..., 1::2, :]  # the x_j and the y_j rows
    return ((x[..., 0::2] + y[..., 1::2]) + 1j * (x[..., 1::2] - y[..., 0::2])) / 4.0


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
