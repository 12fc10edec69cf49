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

A single eigenvalue vector runs the H_k recurrence on Python floats, with
the bits of a stack row.  That path raises no numpy floating-point warnings
and no ``np.errstate`` errors, so a caller that needs those flags passes a
(1, n) stack, as ``geometry.pseudoconvexity_constant`` does.
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
    if not np.isfinite(lam).all():
        raise ArgumentError("eigenvalue input contains non-finite entries")
    return lam


def elementary_symmetric_all(values, m: int) -> np.ndarray:
    """H_0, H_1, ..., H_m of each vector of a (..., n) stack, H_0 = 1.

    Uses the coefficient recurrence of prod_i (t + lambda_i): appending an
    eigenvalue x maps c_k -> c_k + x * c_{k-1}.  Stable for n up to at least
    64; never enumerates subsets.
    """
    return _symmetric_all(_as_vector(values, stack=True), m)


def _symmetric_all(lam: np.ndarray, m: int) -> np.ndarray:
    """elementary_symmetric_all on checked eigenvalues."""
    if not 0 <= m <= lam.shape[-1]:
        raise ArgumentError(f"order m={m} out of range for n={lam.shape[-1]}")
    if lam.ndim == 1:
        # the same steps on Python floats: c_k for k from the top down
        # reads the c_{k-1} of the previous eigenvalue, as the array update
        # does; the top stays capped, so c_k past it is never inf * 0.0
        c = [1.0] + [0.0] * m
        top = 0
        for x in lam.tolist():
            top = min(top + 1, m)
            for k in range(top, 0, -1):
                c[k] += x * c[k - 1]
        return np.array(c)
    # the order axis leads, so each step is the 1-d update over the stack
    coeffs = np.zeros((m + 1,) + lam.T.shape[1:])
    coeffs[0] = 1.0
    top = 0
    for x in lam.T:
        top = min(top + 1, m)
        coeffs[1 : top + 1] += x * coeffs[0:top]
    return coeffs.T


def _exact_symmetric(values, m: int) -> tuple[list, int]:
    """H_0..H_m of dyadic rationals exactly: H_k = h[k] / den**k, the values
    scaled to Python ints over one power-of-two denominator den, so the
    recurrence neither rounds nor takes a gcd, and h[k] has the sign of H_k.
    """
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    h = [1] + [0] * m
    for p, d in ratios:
        x = p * (den // d)
        for k in range(m, 0, -1):
            h[k] += x * h[k - 1]
    return h, den


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
    # left to right from 0.0: sum() of Python floats compensates from 3.12 on
    total = 0.0
    for c in itertools.combinations(lam.tolist(), k):
        total += math.prod(c)
    return total


def cone_tolerance(values, m: int):
    """Scale-aware slack for cone membership: 1e-10 * (1 + max|lambda|^m),
    +inf where that overflows."""
    lam = _as_vector(values, stack=True)
    _check_cone_order(lam, m)
    return _cone_slack(lam, m)


def _check_cone_order(lam: np.ndarray, m: int) -> None:
    if not 1 <= m <= lam.shape[-1]:
        raise ArgumentError(f"cone order m={m} out of range for n={lam.shape[-1]}")


def _cone_slack(lam: np.ndarray, m: int):
    if lam.ndim > 1:
        return 1e-10 * (1.0 + np.abs(lam).max(axis=-1) ** m)
    # a Python float power raises where numpy's warns, with the same bits
    try:
        return 1e-10 * (1.0 + float(np.abs(lam).max()) ** m)
    except OverflowError:
        return math.inf


@dataclass
class ConeReport:
    """Outcome of a Gamma_m membership test."""

    h_values: np.ndarray  # H_1 .. H_m
    member: bool
    margin: float  # min over j <= m of H_j


def gamma_m_contains(values, m: int, tol: float | None = None) -> ConeReport:
    """Test lambda in Gamma_m by evaluating H_1..H_m.

    ``tol`` defaults to the scale-aware :func:`cone_tolerance`.  Membership
    is margin >= -tol where margin = min_j H_j.  Where that default
    overflows while every H_j is finite, every vector would pass, so an
    ``ArgumentError`` asks for an explicit ``tol``.
    """
    return _cone_report(_as_vector(values), m, tol)


def _cone_report(lam: np.ndarray, m: int, tol: float | None = None) -> ConeReport:
    """gamma_m_contains on one checked eigenvalue vector."""
    _check_cone_order(lam, m)
    h = _symmetric_all(lam, m)[1:]
    margin = float(h.min())
    if tol is None:
        tol = _cone_slack(lam, m)
        # every finite H_j would pass; an overflowing H_j stays in the report
        if not math.isfinite(tol) and np.isfinite(h).all():
            raise ArgumentError(
                f"the default cone slack 1e-10 (1 + max|lambda|^{m}) overflows; give tol"
            )
    return ConeReport(h_values=h, member=bool(margin >= -tol), margin=margin)


def maclaurin_check(values, m: int) -> np.ndarray:
    """Normalized means s_p = (H_p / binom(n,p))^(1/p), p = 1..m.

    Only meaningful on the cone, so membership is verified first.  On
    Gamma_m the sequence is nonincreasing (Maclaurin); callers assert that.
    """
    lam = _as_vector(values)
    n = lam.size
    report = _cone_report(lam, m)
    if not report.member:
        raise DomainError(
            f"Maclaurin chain is only asserted on the cone; margin={report.margin}"
        )
    # clip round-off below 0
    h = report.h_values.tolist()
    return np.array([max(x / math.comb(n, p), 0.0) ** (1.0 / p) for p, x in enumerate(h, 1)])


# ---------------------------------------------------------------------------
# Hermitian forms


def _is_hermitian(a: np.ndarray) -> bool:
    """Each matrix of a is within HERMITIAN_TOL * (1 + its max|a|) of its adjoint."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    skew = np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)
    return not np.any(skew > HERMITIAN_TOL * (1.0 + scale))


def _as_hermitian(entries) -> np.ndarray:
    """(..., n, n) finite Hermitian forms: the one check on a caller's forms."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ArgumentError("form coefficients must be a square matrix")
    if not np.isfinite(a).all():
        raise ArgumentError("form coefficients contain non-finite entries")
    if not _is_hermitian(a):
        raise ArgumentError("matrix is not Hermitian within tolerance")
    return a


def sigma_tilde(entries, m: int):
    """Normalized m-Hessian of a Hermitian form: H_m(eig A) / binom(n, m)."""
    a = _as_hermitian(entries)
    n = a.shape[-1]
    if not 1 <= m <= n:
        raise ArgumentError(f"order m={m} out of range for n={n}")
    h = _symmetric_all(np.linalg.eigvalsh(a), m)[..., m] / math.comb(n, m)
    return float(h) if a.ndim == 2 else h


def _as_tuples(forms) -> np.ndarray:
    """(..., m, n, n) Hermitian m-tuples, 1 <= m <= n."""
    try:
        tuples = np.asarray(forms, dtype=complex)
    except ValueError:
        raise ArgumentError("all forms must share the same dimension") from None
    if tuples.ndim < 3 or tuples.shape[-3] == 0:
        raise ArgumentError("polarization needs m >= 1 forms of one shape (n, n)")
    tuples = _as_hermitian(tuples)
    m, n = tuples.shape[-3], tuples.shape[-1]
    if m > n:
        raise ArgumentError(f"number of arguments m={m} exceeds dimension n={n}")
    return tuples


@lru_cache(maxsize=None)
def _subsets(m: int):
    """Nonempty subsets S of range(m), by size, then in
    ``itertools.combinations`` order: each as its bit mask sum_{i in S} 2^i
    less one, and their signs (-1)^(m-|S|)."""
    rows = (np.arange(1, 2**m)[:, None] >> np.arange(m)) & 1  # masks 1, 2, ...
    order = np.lexsort(np.vstack([-rows[:, ::-1].T, rows.sum(axis=1)]))
    return order, np.where((m - rows[order].sum(axis=1)) % 2, -1.0, 1.0)


def _subset_spectra(tuples: np.ndarray):
    """Eigenvalues and H_0..H_m of every subset sum of checked m-tuples, in
    ``_subsets`` order (the first m rows are the single forms), and their
    polarized values: one ``eigvalsh`` call for the whole stack."""
    m, n = tuples.shape[-3], tuples.shape[-1]
    order, signs = _subsets(m)
    # row b holds the sum over the bits of b: rows 2^i.. are rows ..2^i
    # plus form i, so every sum adds its forms in index order from 0
    sums = np.zeros(tuples.shape[:-3] + (2**m, n, n), dtype=complex)
    for i in range(m):
        sums[..., 2**i : 2 ** (i + 1), :, :] = sums[..., : 2**i, :, :] + tuples[..., i : i + 1, :, :]
    lam = np.linalg.eigvalsh(sums[..., 1:, :, :])[..., order, :]
    if not np.isfinite(lam).all():
        raise ArgumentError("a subset sum overflows: its eigenvalues are not finite")
    h = _symmetric_all(lam, m)
    terms = signs * (h[..., m] / math.comb(n, m))
    # accumulate adds in subset order, never pairwise; + 0.0 turns a sum of
    # -0.0 terms into 0.0, as a sum started at 0.0 would be
    total = np.add.accumulate(terms, axis=-1)[..., -1] + 0.0
    return lam, h, total / math.factorial(m)


def polarized_form(forms):
    """Full polarization M(a_1, ..., a_m) of sigma_tilde.

    Computed by inclusion-exclusion over nonempty subsets,

        M = (1/m!) sum_S (-1)^(m-|S|) sigma_tilde(sum_{i in S} a_i),

    which is symmetric in its arguments, multilinear, and restricts to
    sigma_tilde on the diagonal.  All subset sums (each adding its forms in
    index order) take one ``eigvalsh`` call; the terms add in subset order.
    """
    tuples = _as_tuples(forms)
    total = _subset_spectra(tuples)[2]
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
    lam, h, value = _subset_spectra(tuples)
    lam, h = lam[..., :m, :], h[..., :m, :]  # the single forms
    cone_margin = h[..., 1:].min(axis=-1)
    outside = np.flatnonzero(cone_margin < -_cone_slack(lam, m))
    if outside.size:
        i = outside[0]
        raise DomainError(f"argument {i % m} outside the cone (margin {cone_margin.flat[i]})")
    sig = np.maximum(h[..., m] / math.comb(lam.shape[-1], m), 0.0)
    bound = np.prod(sig ** (1.0 / m), axis=-1)
    margin = value - bound
    if tuples.ndim == 3:
        value, bound, margin = float(value), float(bound), float(margin)
    return GardingReport(value, bound, margin, margin >= -tol)


# ---------------------------------------------------------------------------
# Seeded samplers


def sample_gamma_hat(n: int, m: int, count: int, seed: int) -> np.ndarray:
    """Random Hermitian forms in the interior of Gamma_hat_m.

    Draws A = G G* / n + 0.01 I with complex Gaussian G, which is positive
    definite, hence inside every cone.  Deterministic for a fixed seed.
    """
    if not 1 <= m <= n:
        raise ArgumentError(f"m={m} out of range for n={n}")
    if count < 1:
        raise ArgumentError("count must be >= 1")
    # per form: the real then the imaginary part of G, as drawn one at a time
    draws = np.random.default_rng(seed).standard_normal((count, 2, n, n))
    g = draws[:, 0] + 1j * draws[:, 1]
    return g @ np.swapaxes(g.conj(), -1, -2) / n + 0.01 * np.eye(n)


def sample_sigma_m(n: int, m: int, count: int, seed: int) -> np.ndarray:
    """Random forms on Sigma_m: positive definite, rescaled to sigma_tilde = 1.

    sigma_tilde is homogeneous of degree m, so dividing by
    sigma_tilde(A)^(1/m) lands exactly on the unit level set.  The roots are
    Python float powers (numpy's array power rounds some differently).
    """
    forms = sample_gamma_hat(n, m, count, seed)
    sig = _symmetric_all(np.linalg.eigvalsh(forms), m)[:, m] / math.comb(n, m)
    roots = [s ** (1.0 / m) for s in sig.tolist()]
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
    if a.ndim != 2:
        raise ArgumentError("inf_characterization takes one form")
    report = _cone_report(np.linalg.eigvalsh(a), m)
    if not report.member:
        raise DomainError(f"form outside the cone (margin {report.margin})")
    value = float(report.h_values[m - 1] / math.comb(n, m))  # sigma_tilde(a, m)
    exact = max(value, 0.0) ** (1.0 / m)

    if m == 1:
        return InfCharacterization(value, exact, value)

    tuples = np.empty((samples + (value > 0.0), m, n, n), dtype=complex)
    tuples[:, 0] = a
    forms = sample_sigma_m(n, m, samples * (m - 1), seed)
    tuples[:samples, 1:] = forms.reshape(samples, m - 1, n, n)
    if value > 0.0:
        tuples[samples, 1:] = a / exact
    values = _subset_spectra(tuples)[2]
    minimizer_value = float(values[samples]) if value > 0.0 else None
    return InfCharacterization(float(values.min()), exact, minimizer_value)


def l_alpha(hessian, alphas) -> float:
    """Linearized Hessian operator: M(hessian, a_1, ..., a_{m-1}).

    The a_i must lie on Sigma_m (sigma_tilde = 1 within
    ``SIGMA_NORMALIZATION_TOL``); m is one more than their number.
    Pointwise, requiring l_alpha(u) >= f^(1/m) for all Sigma_m tuples is
    the subsolution test for twice differentiable u.
    """
    tuples = _as_tuples([hessian, *alphas])
    m = tuples.shape[-3]
    _, h, value = _subset_spectra(tuples)
    sig = h[1:m, m] / math.comb(tuples.shape[-1], m)  # the alphas' sigma_tilde
    off = np.flatnonzero(np.abs(sig - 1.0) > SIGMA_NORMALIZATION_TOL)
    if off.size:
        raise DomainError(f"alpha {off[0]} not normalized: sigma_tilde={float(sig[off[0]])!r}")
    return float(value)


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
    if not _is_hermitian(qm):
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
