"""Model domains: balls and axis-aligned ellipsoids in C^n.

Both carry a global defining function rho with constant complex Hessian,

    ball(R):            rho(z) = |z|^2 - R^2,          hess = I
    ellipsoid(a_1..a_n): rho(z) = sum a_j |z_j|^2 - 1,  hess = diag(a)

so they are strongly m-pseudoconvex for every m <= n with an explicitly
computable constant.  Points are complex vectors of length n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import elementary_symmetric_all
from .errors import ArgumentError, DomainError, spec_number


# squared semi-axes (R^2 of a ball, 1/a_j of an ellipsoid) must lie in
# [SCALE_MIN, SCALE_MAX]: then |z|^2 - R^2 cannot underflow to 0 inside the
# domain, so interior rejection sampling ends, and the squared diameter
# stays finite
SCALE_MIN = 2.0**-1020
SCALE_MAX = 2.0**1020


@dataclass(frozen=True)
class Domain:
    kind: str  # "ball" or "ellipsoid"
    n: int
    radius: float = 1.0
    coeffs: tuple = field(default=())

    @staticmethod
    def ball(n: int, radius: float = 1.0) -> "Domain":
        if n < 1 or radius <= 0:
            raise ArgumentError("ball needs n >= 1 and radius > 0")
        radius = float(radius)
        if not SCALE_MIN <= radius * radius <= SCALE_MAX:
            raise ArgumentError(
                f"ball radius {radius!r} out of range: its square must lie in "
                f"[{SCALE_MIN!r}, {SCALE_MAX!r}]")
        return Domain(kind="ball", n=n, radius=radius)

    @staticmethod
    def ellipsoid(coeffs) -> "Domain":
        a = tuple(float(c) for c in coeffs)
        if len(a) < 1 or any(c <= 0 for c in a):
            raise ArgumentError("ellipsoid coefficients must be positive")
        if not all(SCALE_MIN <= c <= SCALE_MAX for c in a):  # and so is 1/a_j
            raise ArgumentError(
                f"ellipsoid coefficients {a!r} out of range: each must lie in "
                f"[{SCALE_MIN!r}, {SCALE_MAX!r}]")
        return Domain(kind="ellipsoid", n=len(a), coeffs=a)

    @staticmethod
    def parse(text: str, n: int | None = None) -> "Domain":
        """Parse 'ball:R' (needs n) or 'ellipsoid:a1,...,an'."""
        kind, _, rest = text.partition(":")
        if kind == "ball":
            if n is None:
                raise ArgumentError("ball domain needs the dimension n")
            return Domain.ball(n, spec_number(rest, text) if rest else 1.0)
        if kind == "ellipsoid":
            coeffs = [spec_number(x, text) for x in rest.split(",") if x]
            dom = Domain.ellipsoid(coeffs)
            if n is not None and dom.n != n:
                raise ArgumentError("ellipsoid coefficient count disagrees with n")
            return dom
        raise ArgumentError(f"unknown domain kind {kind!r}")

    # -- defining function and derivatives -------------------------------

    def rho(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.kind == "ball":
            return (np.abs(z) ** 2).sum(axis=-1) - self.radius**2
        a = np.asarray(self.coeffs)
        return (a * np.abs(z) ** 2).sum(axis=-1) - 1.0

    def hess_rho(self) -> np.ndarray:
        if self.kind == "ball":
            return np.eye(self.n, dtype=complex)
        return np.diag(np.asarray(self.coeffs, dtype=complex))

    # -- metric quantities ------------------------------------------------

    @property
    def diameter(self) -> float:
        if self.kind == "ball":
            return 2.0 * self.radius
        return 2.0 / math.sqrt(min(self.coeffs))

    def boundary_radius_range(self) -> tuple[float, float]:
        """Min and max of |z| over the boundary."""
        if self.kind == "ball":
            return (self.radius, self.radius)
        return (1.0 / math.sqrt(max(self.coeffs)), 1.0 / math.sqrt(min(self.coeffs)))


def pseudoconvexity_constant(domain: Domain, m: int) -> float:
    """Min over k = 1..m of sigma_tilde_k(hess rho).

    hess rho is constant on the model domains, so the value holds on every
    neighbourhood of the closure.  It is a positive diagonal, so every
    sigma_tilde_k is positive.  Where the double recurrence over- or
    underflows, or ``eigvalsh`` loses a small eigenvalue beside a large
    one, the sigma_tilde_k are recomputed from the diagonal as exact
    rationals.  One outside the normal double range raises DomainError:
    ellipsoid (1e-200, 1e-200), a ball of radius 1e100 in C^2, has
    sigma_tilde_2 = 1e-400.
    """
    if not 1 <= m <= domain.n:
        raise ArgumentError(f"m={m} out of range for n={domain.n}")
    n = domain.n
    low, high = sys.float_info.min, sys.float_info.max
    hess = domain.hess_rho()
    eigs = np.linalg.eigvalsh(hess)
    try:
        with np.errstate(over="raise", under="raise"):
            h = elementary_symmetric_all(eigs, m)
            best = min(h[k] / math.comb(n, k) for k in range(1, m + 1))
        if best >= low:
            return float(best)
    except FloatingPointError:
        pass
    h = [Fraction(1)] + [Fraction(0)] * m
    for x in np.diag(hess).real.tolist():
        for k in range(m, 0, -1):
            h[k] += Fraction(x) * h[k - 1]
    sigma = [h[k] / math.comb(n, k) for k in range(1, m + 1)]
    for k, s in enumerate(sigma, 1):
        if not low <= s <= high:
            power = math.log10(s.numerator) - math.log10(s.denominator)
            raise DomainError(f"sigma_tilde_{k}(hess rho) = 10^{power:.1f} lies outside "
                              f"the normal double range [{low!r}, {high!r}]")
    return float(min(sigma))


def sample_boundary(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Seeded boundary samples, asymptotically uniform in surface measure.

    Ball: Gaussian directions projected to the sphere.  Ellipsoid: sphere
    samples mapped through z_j = u_j / sqrt(a_j) and thinned by rejection
    with the surface-area distortion weight sqrt(sum a_j |u_j|^2) / max.
    Samples are drawn sequentially, so for a fixed seed the first k points
    of a longer run coincide with a shorter run.
    """
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n = domain.n
    out = np.empty((count, n), dtype=complex)
    if domain.kind == "ball":
        # one batched draw consumes the stream exactly like per-sample
        # draws, so the prefix property is preserved
        g = rng.standard_normal((count, 2 * n))
        g /= np.sqrt((g**2).sum(axis=1, keepdims=True))
        return (g[:, 0::2] + 1j * g[:, 1::2]) * domain.radius
    a = np.asarray(domain.coeffs)
    inv_sqrt = 1.0 / np.sqrt(a)
    wmax = math.sqrt(max(domain.coeffs))
    i = 0
    while i < count:
        g = rng.standard_normal(2 * n)
        g /= np.sqrt((g**2).sum())
        u = g[0::2] + 1j * g[1::2]
        weight = math.sqrt(float((a * np.abs(u) ** 2).sum()))
        if rng.random() * wmax <= weight:
            out[i] = u * inv_sqrt
            i += 1
    return out


def sample_interior(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Uniform interior samples by rejection from the bounding box."""
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n = domain.n
    if domain.kind == "ball":
        half = np.full(n, domain.radius)
    else:
        half = 1.0 / np.sqrt(np.asarray(domain.coeffs))
    out = np.empty((count, n), dtype=complex)
    i = 0
    while i < count:
        batch = max(2 * (count - i), 64)
        g = rng.uniform(-1.0, 1.0, (batch, 2 * n))
        z = (g[:, 0::2] + 1j * g[:, 1::2]) * half
        keep = z[domain.rho(z) < 0.0]
        take = min(len(keep), count - i)
        out[i : i + take] = keep[:take]
        i += take
    return out
