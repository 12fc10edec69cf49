"""Model domains: balls and axis-aligned ellipsoids in C^n.

Both are {rho < 0} for rho(z) = sum_j a_j |z_j|^2 - R^2 (a ball has a = 1,
an ellipsoid R = 1), so hess rho = diag(a) is a constant positive diagonal,
read directly, and both are strongly m-pseudoconvex for every m <= n with
an explicitly computable constant.  Points are complex vectors of length n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _exact_symmetric, elementary_symmetric_all
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
    coeffs: tuple  # the diagonal a of hess rho
    radius: float = 1.0

    @staticmethod
    def ball(n: int, radius: float = 1.0) -> "Domain":
        if n < 1 or radius <= 0:
            raise ArgumentError("ball needs n >= 1 and radius > 0")
        radius = float(radius)
        if not SCALE_MIN <= radius * radius <= SCALE_MAX:
            raise ArgumentError(
                f"ball radius {radius!r} out of range: its square must lie in "
                f"[{SCALE_MIN!r}, {SCALE_MAX!r}]")
        return Domain(kind="ball", n=n, coeffs=(1.0,) * n, radius=radius)

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
        return (self.hess_diag() * np.abs(z) ** 2).sum(axis=-1) - self.radius**2

    def hess_diag(self) -> np.ndarray:
        """The diagonal a of the constant complex Hessian of rho."""
        return np.asarray(self.coeffs)

    # -- metric quantities ------------------------------------------------

    def semi_axes(self) -> np.ndarray:
        """R / sqrt(a_j): the boundary's distance from 0 along each z_j."""
        return self.radius / np.sqrt(self.hess_diag())

    @property
    def diameter(self) -> float:
        return 2.0 * float(self.semi_axes().max())

    def boundary_radius_range(self) -> tuple[float, float]:
        """Min and max of |z| over the boundary."""
        axes = self.semi_axes()
        return (float(axes.min()), float(axes.max()))


def pseudoconvexity_constant(domain: Domain, m: int) -> float:
    """Min over k = 1..m of sigma_tilde_k(hess rho).

    hess rho is constant on the model domains, so the value holds on every
    neighbourhood of the closure.  It is a positive diagonal, read directly
    and sorted ascending as its eigenvalues, so every sigma_tilde_k is
    positive.  Where the double recurrence over- or underflows, the
    sigma_tilde_k are recomputed from the diagonal as exact rationals.  One
    outside the normal double range raises DomainError:
    ellipsoid (1e-200, 1e-200), a ball of radius 1e100 in C^2, has
    sigma_tilde_2 = 1e-400.
    """
    if not 1 <= m <= domain.n:
        raise ArgumentError(f"m={m} out of range for n={domain.n}")
    n = domain.n
    low, high = sys.float_info.min, sys.float_info.max
    try:
        with np.errstate(over="raise", under="raise"):
            # a (1, n) stack: only the array recurrence raises these flags
            h = elementary_symmetric_all(np.sort(domain.hess_diag())[None], m)[0]
            best = min(h[k] / math.comb(n, k) for k in range(1, m + 1))
        if best >= low:
            return float(best)
    except FloatingPointError:
        pass
    h, den = _exact_symmetric(domain.coeffs, m)
    sigma = [Fraction(h[k], math.comb(n, k) * den**k) for k in range(1, m + 1)]
    for k, s in enumerate(sigma, 1):
        if not low <= s <= high:
            power = math.log10(s.numerator) - math.log10(s.denominator)
            raise DomainError(f"sigma_tilde_{k}(hess rho) = 10^{power:.1f} lies outside "
                              f"the normal double range [{low!r}, {high!r}]")
    return float(min(sigma))


def sample_boundary(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Seeded boundary samples, asymptotically uniform in surface measure.

    Gaussian directions u on the unit sphere map to z_j = R u_j / sqrt(a_j),
    thinned by rejection with weight sqrt(sum a_j |u_j|^2) / sqrt(max a), 1 on
    a ball.  Directions come from ``default_rng(seed)`` and acceptance uniforms
    from a child of its seed sequence, both in candidate order, so a ball takes
    the first ``count`` directions and a shorter run is a prefix of a longer.
    """
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = np.random.default_rng(seed)
    accept = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    a = domain.hess_diag()
    out = np.empty((0, domain.n), dtype=complex)
    while len(out) < count:
        g = rng.standard_normal((count - len(out), 2 * domain.n))
        g /= np.sqrt((g**2).sum(axis=1, keepdims=True))
        u = g[:, 0::2] + 1j * g[:, 1::2]
        weight = np.sqrt((a * np.abs(u) ** 2).sum(axis=1))
        keep = accept.random(len(u)) * math.sqrt(a.max()) <= weight
        out = np.concatenate([out, u[keep] * domain.semi_axes()])
    return out


def sample_interior(domain: Domain, count: int, seed: int) -> np.ndarray:
    """Uniform interior samples by rejection from the bounding box."""
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = np.random.default_rng(seed)
    n = domain.n
    half = domain.semi_axes()
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
