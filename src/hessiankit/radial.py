"""Exact radial solutions on the unit ball and their verification.

For a radial density f >= 0 the zero-boundary solution profile is

    U(r) = -B * integral_r^1 t^(1 - 2n/m) * ( integral_0^t rho^(2n-1) f(rho) drho )^(1/m) dt.

Two normalizations of B are implemented:

* ``form``:  B = 2 (2n)^(1/m).  With this constant the profile solves
  sigma_tilde_m(complex Hessian) = f, where sigma_tilde is normalized so the
  standard form has unit m-Hessian (the convention used across this
  package).  This is the internally consistent choice and the default for
  residual checks.
* ``paper``: B = (binom(n,m) / (2^(m+1) n))^(-1/m), the coefficient as
  printed in some sources.  It is smaller by the factor binom(n,m)^(1/m)
  and corresponds to normalizing the operator by the raw elementary
  symmetric polynomial H_m instead of sigma_tilde.  It is kept so printed
  constants can be reproduced; the Hessian residual then shows the
  systematic (1 - 1/binom(n,m))/2 offset instead of vanishing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .core import elementary_symmetric_all
from .errors import ArgumentError, DomainError, QuadratureError
from .modulus import HolderFit, ModulusCurve, holder_fit

DEFAULT_TOL = 1e-10


# ---------------------------------------------------------------------------
# Densities


class ConstDensity:
    """f(rho) = c0."""

    kind = "const"

    def __init__(self, c0: float):
        if c0 < 0:
            raise ArgumentError("constant density must be >= 0")
        self.c0 = float(c0)

    def __call__(self, rho):
        return np.full_like(np.asarray(rho, dtype=float), self.c0)

    def inner_integral(self, t: float, n: int) -> float:
        return self.c0 * t ** (2 * n) / (2 * n)

    def describe(self) -> str:
        return f"const:{self.c0!r}"


class PowerDensity:
    """f(rho) = rho^(-alpha)."""

    kind = "power"

    def __init__(self, alpha: float):
        if alpha <= 0:
            raise ArgumentError("power exponent must be positive")
        self.alpha = float(alpha)

    def __call__(self, rho):
        return np.asarray(rho, dtype=float) ** (-self.alpha)

    def inner_integral(self, t: float, n: int) -> float:
        # integrand rho^(2n - 1 - alpha); integrable at 0 iff alpha < 2n
        if t == 0.0:
            return 0.0
        return t ** (2 * n - self.alpha) / (2 * n - self.alpha)

    def describe(self) -> str:
        return f"power:{self.alpha!r}"


class LogDensity:
    """f(rho) = rho^(-2m) (1 - log rho)^(-gamma); the borderline family."""

    kind = "log"

    def __init__(self, gamma: float, m: int):
        self.gamma = float(gamma)
        self.m = int(m)

    def __call__(self, rho):
        r = np.asarray(rho, dtype=float)
        return r ** (-2 * self.m) * (1.0 - np.log(r)) ** (-self.gamma)

    def inner_integral(self, t: float, n: int) -> float:
        # integrand rho^(2(n-m)-1) (1 - log rho)^(-gamma); substituting
        # s = 1 - log rho turns it into int_x^inf e^(2k(1-s)) s^(-gamma) ds
        # with k = n - m and x = 1 - log t.
        if t == 0.0:
            return 0.0
        k = n - self.m
        x = 1.0 - math.log(t)
        if k == 0:
            if self.gamma <= 1.0:
                raise DomainError(
                    "inner integral diverges: with n == m it needs gamma > 1"
                )
            return x ** (1.0 - self.gamma) / (self.gamma - 1.0)
        val, err = integrate.quad(
            lambda s: math.exp(2 * k * (1.0 - s)) * s ** (-self.gamma),
            x,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=200,
        )
        return val

    def describe(self) -> str:
        return f"log:{self.gamma!r}"


class TableDensity:
    """Tabulated radial density, interpolated log-linearly between knots.

    Log-linear interpolation makes every segment an exact power law
    f_i * (rho / rho_i)^p_i, so the inner integral is evaluated in closed
    form piece by piece.  Outside the table the nearest segment's power law
    is extended.
    """

    kind = "table"

    def __init__(self, rho, values):
        r = np.asarray(rho, dtype=float)
        f = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.shape != f.shape or r.size < 2:
            raise ArgumentError("table needs matching 1-d arrays with >= 2 rows")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ArgumentError("table radii must be positive and increasing")
        if np.any(f <= 0):
            raise ArgumentError("table values must be positive for log-linear interpolation")
        self.rho = r
        self.values = f
        self.exponents = np.diff(np.log(f)) / np.diff(np.log(r))

    def __call__(self, rho):
        r = np.asarray(rho, dtype=float)
        idx = np.clip(np.searchsorted(self.rho, r, side="right") - 1, 0, self.rho.size - 2)
        p = self.exponents[idx]
        return self.values[idx] * (r / self.rho[idx]) ** p

    def _segment_exponent(self, i: int) -> float:
        return float(self.exponents[min(max(i, 0), self.exponents.size - 1)])

    def inner_integral(self, t: float, n: int) -> float:
        if t == 0.0:
            return 0.0
        power = 2 * n - 1
        p0 = self._segment_exponent(0)
        if power + p0 <= -1:
            raise DomainError("table density is not integrable against rho^(2n-1) at 0")
        total = 0.0
        # piece below the first knot, extended power law
        lo = min(t, self.rho[0])
        total += _power_primitive(self.values[0], self.rho[0], p0, 0.0, lo, power)
        if t <= self.rho[0]:
            return total
        for i in range(self.rho.size - 1):
            a = self.rho[i]
            b = min(t, self.rho[i + 1])
            if b <= a:
                break
            total += _power_primitive(self.values[i], a, self.exponents[i], a, b, power)
            if t <= self.rho[i + 1]:
                return total
        # beyond the table
        pl = self._segment_exponent(self.rho.size - 2)
        total += _power_primitive(
            self.values[-1], self.rho[-1], pl, self.rho[-1], t, power
        )
        return total

    def describe(self) -> str:
        return f"table:{self.rho.size}"


def _power_primitive(f0, r0, p, a, b, power) -> float:
    """integral_a^b f0 (rho / r0)^p rho^power drho, exact."""
    if b <= a:
        return 0.0
    c = f0 * r0 ** (-p)
    e = power + p
    if abs(e + 1.0) < 1e-14:
        if a == 0.0:
            raise DomainError("log-divergent table segment at 0")
        return c * math.log(b / a)
    return c * (b ** (e + 1) - a ** (e + 1)) / (e + 1)


def parse_density(text: str, m: int) -> object:
    """CLI density spec: const:c, power:alpha, log:gamma or zero."""
    if text == "zero":
        return ConstDensity(0.0)
    kind, _, arg = text.partition(":")
    if kind == "const":
        return ConstDensity(float(arg))
    if kind == "power":
        return PowerDensity(float(arg))
    if kind == "log":
        return LogDensity(float(arg), m)
    raise ArgumentError(f"unknown density {text!r}")


# ---------------------------------------------------------------------------
# Problems and solutions


CONVENTIONS = ("form", "paper")


def convention_coefficient(n: int, m: int, convention: str) -> float:
    if convention == "form":
        return 2.0 * (2.0 * n) ** (1.0 / m)
    if convention == "paper":
        return (math.comb(n, m) / (2 ** (m + 1) * n)) ** (-1.0 / m)
    raise ArgumentError(f"unknown convention {convention!r}")


@dataclass
class RadialProblem:
    n: int
    m: int
    density: object
    p: float | None = None  # integrability exponent, metadata only
    convention: str = "form"

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ArgumentError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.convention not in CONVENTIONS:
            raise ArgumentError(f"convention must be one of {CONVENTIONS}")
        d = self.density
        if isinstance(d, PowerDensity) and not d.alpha < 2 * self.n:
            raise DomainError(
                f"power density needs alpha < 2n for integrability, got {d.alpha}"
            )
        if isinstance(d, LogDensity):
            if d.m != self.m:
                raise ArgumentError("log density order must match the problem's m")
            if not d.gamma > self.m / self.n:
                raise DomainError(
                    f"log density needs gamma > m/n = {self.m / self.n}, got {d.gamma}"
                )
        if self.p is not None and not self.p > self.n / self.m:
            raise DomainError(f"integrability exponent must exceed n/m = {self.n / self.m}")

    @property
    def B(self) -> float:
        return convention_coefficient(self.n, self.m, self.convention)

    def describe(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "density": self.density.describe(),
            "p": self.p,
            "convention": self.convention,
        }


@dataclass
class RadialSolution:
    r: np.ndarray
    u: np.ndarray
    B_used: float
    quadrature_tol: float
    achieved_error: float
    problem: dict = field(default_factory=dict)

    def interp(self, x):
        return np.interp(x, self.r, self.u)

    def to_csv(self) -> str:
        lines = ["r,U"]
        lines += [f"{ri:.17g},{ui:.17g}" for ri, ui in zip(self.r, self.u)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem,
            "B_used": self.B_used,
            "quadrature_tol": self.quadrature_tol,
            "achieved_error": self.achieved_error,
            "r": self.r.tolist(),
            "U": self.u.tolist(),
        }


def radial_solve(problem: RadialProblem, grid=512, tol: float = DEFAULT_TOL) -> RadialSolution:
    """Evaluate the profile on a grid by panel-wise adaptive quadrature.

    ``grid`` is either a point count (uniform grid on [0, 1]) or an
    ascending array of radii in [0, 1]; the right endpoint 1 is always
    included and carries U(1) = 0 exactly.  Raises
    :class:`QuadratureError` when the summed panel error estimates exceed
    ``tol`` and :class:`DomainError` when the inner integral diverges.
    """
    n, m = problem.n, problem.m
    if isinstance(grid, (int, np.integer)):
        if grid < 2:
            raise ArgumentError("grid must have at least 2 points")
        r = np.linspace(0.0, 1.0, int(grid) + 1)
    else:
        r = np.unique(np.asarray(grid, dtype=float))
        if r.size < 1 or r[0] < 0.0 or r[-1] > 1.0:
            raise ArgumentError("grid radii must lie in [0, 1]")
        if r[-1] < 1.0:
            r = np.append(r, 1.0)

    density = problem.density
    outer_exp = 1.0 - 2.0 * n / m

    def integrand(t: float) -> float:
        inner = density.inner_integral(t, n)
        if inner < 0.0:
            inner = 0.0
        return t**outer_exp * inner ** (1.0 / m)

    npanels = r.size - 1
    panel_tol = max(tol / max(npanels, 1), 1e-15)
    u = np.zeros(r.size)
    total_err = 0.0
    acc = 0.0
    for i in range(npanels - 1, -1, -1):
        a, b = r[i], r[i + 1]
        val, err = integrate.quad(
            integrand, a, b, epsabs=panel_tol, epsrel=1e-12, limit=400
        )
        total_err += err
        acc += val
        u[i] = -problem.B * acc
    if not np.all(np.isfinite(u)):
        raise DomainError("radial profile is not finite; density too singular")
    if total_err * problem.B > tol * max(1.0, float(np.max(np.abs(u)))):
        raise QuadratureError(
            f"requested tol {tol} not met (achieved {total_err * problem.B})",
            achieved=total_err * problem.B,
        )
    return RadialSolution(
        r=r,
        u=u,
        B_used=problem.B,
        quadrature_tol=tol,
        achieved_error=total_err * problem.B,
        problem=problem.describe(),
    )


def power_profile_coefficient(n: int, m: int, alpha: float, convention: str = "form") -> float:
    """Closed-form constant c for the power density: U(r) = c (r^(2 - alpha/m) - 1)."""
    if not 0 < alpha < 2 * n:
        raise ArgumentError("power exponent must lie in (0, 2n)")
    if alpha == 2 * m:
        raise ArgumentError("alpha = 2m is the logarithmic borderline; no power profile")
    B = convention_coefficient(n, m, convention)
    return B * (1.0 / (2 * n - alpha)) ** (1.0 / m) * m / (2 * m - alpha)


# ---------------------------------------------------------------------------
# Verification operations


def radial_hessian_residual(
    solution: RadialSolution,
    problem: RadialProblem,
    r_min: float = 0.0,
    r_max: float = 1.0,
) -> float:
    """Independent finite-difference check of the profile.

    Writing the profile as u(s) with s = r^2, the complex Hessian of the
    radial extension has eigenvalues u'(s) with multiplicity n - 1 and
    u'(s) + s u''(s) with multiplicity 1.  The returned value is

        max over interior grid points of |sigma_tilde_m(eigs) - f(r)| / (1 + f(r)).

    Derivatives use 3-point formulas on the (possibly nonuniform) s-grid.
    """
    r = solution.r
    u = solution.u
    if r.size < 200:
        raise ArgumentError("residual check needs a grid with >= 200 points")
    if r[0] == 0.0:
        r = r[1:]
        u = u[1:]
    s = r**2
    n, m = problem.n, problem.m
    h1 = s[1:-1] - s[:-2]
    h2 = s[2:] - s[1:-1]
    um, u0, up = u[:-2], u[1:-1], u[2:]
    du = (-h2 / (h1 * (h1 + h2))) * um + ((h2 - h1) / (h1 * h2)) * u0 + (
        h1 / (h2 * (h1 + h2))
    ) * up
    d2u = 2.0 * (um / (h1 * (h1 + h2)) - u0 / (h1 * h2) + up / (h2 * (h1 + h2)))
    rc = r[1:-1]
    sc = s[1:-1]
    mask = (rc >= r_min) & (rc <= r_max)
    if not np.any(mask):
        raise ArgumentError("no interior grid points inside [r_min, r_max]")
    fvals = problem.density(rc[mask])
    lam = np.repeat(du[mask, None], n, axis=1)
    lam[:, -1] += sc[mask] * d2u[mask]
    sig = elementary_symmetric_all(lam, m)[:, m] / math.comb(n, m)
    return float(np.max(np.abs(sig - fvals) / (1.0 + fvals)))


@dataclass
class RadialHolderReport:
    fit: HolderFit
    expected: float | None
    verdict: bool | None
    curve: ModulusCurve


def radial_modulus(solution: RadialSolution, t_knots) -> ModulusCurve:
    """1-d modulus of the radial profile on its grid.

    The profile is nondecreasing, so omega(t) = max_r [U(min(r + t, 1)) -
    U(r)]; the maximum is taken over the grid radii with the shifted value
    read off the piecewise-linear interpolant.
    """
    t_knots = np.asarray(t_knots, dtype=float)
    r = solution.r
    u = solution.u
    w = np.empty(t_knots.size)
    for i, t in enumerate(t_knots):
        shifted = np.interp(np.minimum(r + t, 1.0), r, u)
        w[i] = float(np.max(shifted - u))
    w = np.maximum(np.maximum.accumulate(w), 0.0)
    return ModulusCurve(
        np.concatenate(([0.0], t_knots)), np.concatenate(([0.0], w))
    )


def holder_exponent_check(
    problem: RadialProblem,
    solution: RadialSolution | None = None,
    window: tuple[float, float] = (1e-4, 1e-2),
    tolerance: float = 0.03,
) -> RadialHolderReport:
    """Fit the growth exponent of omega_U near 0 and compare to the target.

    For the power density the target is min(1, 2 - alpha/m); for the
    constant density it is 1 (the profile is a multiple of r^2 - 1).  For
    other densities only the fit is reported.  The default solution grid
    starts at 0 so the modulus resolves the behaviour at the origin.
    """
    if solution is None:
        grid = np.concatenate(([0.0], np.geomspace(1e-7, 1.0, 3000)))
        solution = radial_solve(problem, grid=grid, tol=1e-10)
    t_knots = np.geomspace(1e-5, 0.3, 90)
    curve = radial_modulus(solution, t_knots)
    fit = holder_fit(curve, window)
    density = problem.density
    if isinstance(density, ConstDensity):
        expected = 1.0
    elif isinstance(density, PowerDensity):
        expected = min(1.0, 2.0 - density.alpha / problem.m)
    else:
        expected = None
    verdict = None if expected is None else bool(abs(fit.exponent - expected) <= tolerance)
    return RadialHolderReport(fit=fit, expected=expected, verdict=verdict, curve=curve)


@dataclass
class LogExampleReport:
    gamma: float
    n: int
    m: int
    k_values: np.ndarray  # |U(10^-k)| for k = 1..k_max
    verdict: str  # "bounded" or "unbounded"
    divergent: bool
    expected_unbounded: bool
    growth_exponent: float  # fitted e in |U| ~ A + B (1 - log r)^e
    theoretical_exponent: float
    fitted_c: float
    bound_ok: bool


def _fit_growth_exponent(k_values: np.ndarray, k_max: int) -> float:
    """Fit e in |U(10^-k)| ~ A + B s_k^e with s_k = 1 + k log 10.

    The basis degenerates to A + B log s at e = 0; a grid scan with a
    two-column least squares per candidate is robust and deterministic.
    """
    s = 1.0 + np.arange(1, k_max + 1) * math.log(10.0)
    best_e, best_res = 0.0, math.inf
    for e in np.linspace(-3.0, 3.0, 601):
        col = np.log(s) if abs(e) < 5e-3 else s**e
        basis = np.column_stack([np.ones_like(s), col])
        _, res, _, _ = np.linalg.lstsq(basis, k_values, rcond=None)
        r = float(res[0]) if res.size else 0.0
        if r < best_res:
            best_res, best_e = r, float(e)
    return best_e


def log_example_check(
    gamma: float,
    n: int,
    m: int,
    k_max: int = 8,
    fit_window: tuple[float, float] = (1e-6, 0.5),
    tol: float = 1e-9,
) -> LogExampleReport:
    """Criticality check for the density rho^(-2m) (1 - log rho)^(-gamma).

    Classifies the profile as bounded or unbounded from |U(10^-k)| for
    k = 1..k_max and fits the constant C in U(r) <= C (1 - (1 - log r)^(1 -
    gamma/m)) over ``fit_window``.

    Growth thresholds: for n > m the profile grows like (1 - log
    r)^(1 - gamma/m), unbounded exactly when gamma <= m.  For n = m the
    density is admissible (in L^(n/m)) only for gamma > m/n = 1; the inner
    integral contributes an extra s^(1/m) factor, so the profile is
    unbounded for gamma <= m + 1 with exponent (m + 1 - gamma)/m.  For
    n = m and gamma <= 1 the inner integral diverges outright, making the
    profile identically -infinity.  That divergent case is reported rather
    than raised: verdict "unbounded", ``divergent`` set, and the magnitudes
    ``k_values`` = |U(10^-k)|, ``growth_exponent`` and ``fitted_c`` all
    +inf.
    """
    theoretical = (m + 1.0 - gamma) / m if n == m else 1.0 - gamma / m
    if n == m and gamma <= 1.0:
        k_values = np.full(k_max, np.inf)
        return LogExampleReport(
            gamma=gamma,
            n=n,
            m=m,
            k_values=k_values,
            verdict="unbounded",
            divergent=True,
            expected_unbounded=True,
            growth_exponent=math.inf,
            theoretical_exponent=theoretical,
            fitted_c=math.inf,
            bound_ok=False,
        )
    problem = RadialProblem(n=n, m=m, density=LogDensity(gamma, m), convention="form")
    r_pows = 10.0 ** (-np.arange(1, k_max + 1, dtype=float))
    grid = np.unique(
        np.concatenate(
            [
                r_pows,
                np.geomspace(10.0 ** (-k_max), 1.0, 200),
                np.geomspace(fit_window[0], fit_window[1], 60),
            ]
        )
    )
    sol = radial_solve(problem, grid=grid, tol=tol)
    k_values = np.abs(sol.interp(r_pows))
    increasing = bool(np.all(np.diff(k_values) > 0))
    growth = _fit_growth_exponent(k_values, k_max)
    verdict = "unbounded" if (increasing and growth > -0.05) else "bounded"
    expected_unbounded = gamma <= (m + 1.0 if n == m else float(m))

    mask = (sol.r >= fit_window[0]) & (sol.r <= fit_window[1])
    rw = sol.r[mask]
    uw = sol.u[mask]
    shape = 1.0 - (1.0 - np.log(rw)) ** (1.0 - gamma / m)
    if np.all(shape < 0):
        fitted_c = float(np.min(uw / shape))
    else:
        fitted_c = 0.0
    bound_ok = bool(np.all(uw <= fitted_c * shape + 1e-12 * (1.0 + np.abs(uw))))
    return LogExampleReport(
        gamma=gamma,
        n=n,
        m=m,
        k_values=k_values,
        verdict=verdict,
        divergent=False,
        expected_unbounded=expected_unbounded,
        growth_exponent=growth,
        theoretical_exponent=theoretical,
        fitted_c=fitted_c,
        bound_ok=bound_ok,
    )


# ---------------------------------------------------------------------------
# Stability exponent calculator


def gamma_exponent(n: int, m: int, p: float, r: float = 1.0) -> float:
    """gamma_r = r / (r + m q + p q (n - m) / (p - n/m)) with q = p / (p - 1)."""
    if not 1 <= m <= n:
        raise ArgumentError(f"need 1 <= m <= n, got m={m}, n={n}")
    if r < 1:
        raise ArgumentError("r must be >= 1")
    if not p > n / m:
        raise DomainError(f"need p > n/m = {n / m}, got p={p}")
    q = p / (p - 1.0)
    denom = r + m * q + p * q * (n - m) / (p - n / m)
    return r / denom


def gamma_targets(n: int, m: int, p: float) -> dict:
    """Admissible Holder ranges implied by gamma_1."""
    g1 = gamma_exponent(n, m, p, 1.0)
    return {
        "gamma_1": g1,
        "holder_exponent_sup": g1,
        "holder_exponent_sup_high_p": min(0.5, 2.0 * g1),
    }
