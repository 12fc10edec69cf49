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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import elementary_symmetric_all
from .errors import ArgumentError, DomainError, QuadratureError, spec_number
from .modulus import HolderFit, ModulusCurve, holder_fit

DEFAULT_TOL = 1e-10
LAGUERRE_NODES = 80  # Gauss-Laguerre nodes of the log density's inner integral


@functools.cache
def _laguerre_rule():
    # built on first use: laggauss costs milliseconds that import should not pay
    return np.polynomial.laguerre.laggauss(LAGUERRE_NODES)


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

    def inner_integral(self, t, n: int) -> np.ndarray:
        return self.c0 * np.asarray(t, dtype=float) ** (2 * n) / (2 * n)

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

    def inner_integral(self, t, n: int) -> np.ndarray:
        # integrand rho^(2n - 1 - alpha); integrable at 0 iff alpha < 2n
        return np.asarray(t, dtype=float) ** (2 * n - self.alpha) / (2 * n - self.alpha)

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

    def inner_integral(self, t, n: int) -> np.ndarray:
        # integrand rho^(2(n-m)-1) (1 - log rho)^(-gamma); substituting
        # s = 1 - log rho turns it into int_x^inf e^(2k(1-s)) s^(-gamma) ds
        # with k = n - m and x = 1 - log t (x = inf, value 0, at t = 0).
        k = n - self.m
        if k == 0 and self.gamma <= 1.0:
            raise DomainError("inner integral diverges: with n == m it needs gamma > 1")
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            x = 1.0 - np.log(t)
        if k == 0:
            return x ** (1.0 - self.gamma) / (self.gamma - 1.0)
        # s = x + v/(2k) gives e^(2k(1-x))/(2k) int_0^inf e^(-v) (x + v/(2k))^(-gamma) dv,
        # and e^(2k(1-x)) = t^(2k).  The v-integrand is smooth on v >= 0 (its
        # singularity sits at v = -2kx <= -2 for t <= 1), so a Gauss-Laguerre
        # rule of LAGUERRE_NODES nodes meets 1e-13 relative.
        nodes, weights = _laguerre_rule()
        tail = (x[..., None] + nodes / (2 * k)) ** (-self.gamma) @ weights
        return t ** (2 * k) / (2 * k) * tail

    def profile_unbounded(self, n: int) -> bool:
        """Whether the radial profile in C^n diverges at r = 0.

        For n > m it grows like (1 - log r)^(1 - gamma/m), unbounded
        exactly when gamma <= m; for n = m the inner integral adds a factor
        s^(1/m), so it is unbounded for gamma <= m + 1.
        """
        return self.gamma <= (self.m + 1.0 if n == self.m else float(self.m))

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
        if not (np.isfinite(r).all() and np.isfinite(f).all()):
            raise ArgumentError("table radii and values must be finite")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ArgumentError("table radii must be positive and increasing")
        if np.any(f <= 0):
            raise ArgumentError("table values must be positive for log-linear interpolation")
        self.rho = r
        self.values = f
        self.exponents = np.diff(np.log(f)) / np.diff(np.log(r))
        self._knot_integrals = {}  # n -> integral from 0 to each knot

    def __call__(self, rho):
        r = np.asarray(rho, dtype=float)
        idx = np.clip(np.searchsorted(self.rho, r, side="right") - 1, 0, self.rho.size - 2)
        p = self.exponents[idx]
        return self.values[idx] * (r / self.rho[idx]) ** p

    def _segment_exponent(self, i: int) -> float:
        return float(self.exponents[min(max(i, 0), self.exponents.size - 1)])

    def inner_integral(self, t, n: int) -> np.ndarray:
        # the cached knot sums are exact scalar arithmetic; each t takes the
        # scalar path so an array call has the bits of the per-point calls
        t = np.asarray(t, dtype=float)
        values = [self._inner_scalar(x, n) for x in t.ravel().tolist()]
        return np.array(values, dtype=float).reshape(t.shape)

    def _inner_scalar(self, t: float, n: int) -> float:
        if t == 0.0:
            return 0.0
        power = 2 * n - 1
        p0 = self._segment_exponent(0)
        if power + p0 <= -1:
            raise DomainError("table density is not integrable against rho^(2n-1) at 0")
        if t <= self.rho[0]:
            # piece below the first knot, extended power law
            return _power_primitive(self.values[0], self.rho[0], p0, 0.0, t, power)
        knots = self._knot_integrals.get(n)
        if knots is None:
            # running sum over the segments, in knot order
            total = _power_primitive(self.values[0], self.rho[0], p0, 0.0, self.rho[0], power)
            knots = [total]
            for i in range(self.exponents.size):
                a, b = self.rho[i], self.rho[i + 1]
                total += _power_primitive(self.values[i], a, self.exponents[i], a, b, power)
                knots.append(total)
            self._knot_integrals[n] = knots
        i = int(np.searchsorted(self.rho, t)) - 1  # rho[i] < t <= rho[i + 1]
        if i < self.exponents.size:
            p = self.exponents[i]
        else:  # beyond the table
            p = self._segment_exponent(i - 1)
        return knots[i] + _power_primitive(self.values[i], self.rho[i], p, self.rho[i], t, power)

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
        return ConstDensity(spec_number(arg, text))
    if kind == "power":
        return PowerDensity(spec_number(arg, text))
    if kind == "log":
        return LogDensity(spec_number(arg, text), m)
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

    @property
    def B(self) -> float:
        return convention_coefficient(self.n, self.m, self.convention)

    def describe(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "density": self.density.describe(),
            "convention": self.convention,
        }


@dataclass
class RadialSolution:
    r: np.ndarray
    u: np.ndarray
    B_used: float
    achieved_error: float  # summed panel error estimates, in units of U
    panels_bisected: int  # panels the first 21-point pass did not settle
    worst_panel_error: float  # largest panel error estimate, in units of U

    def interp(self, x):
        return np.interp(x, self.r, self.u)

    def to_csv(self) -> str:
        lines = ["r,U"]
        lines += [f"{ri:.17g},{ui:.17g}" for ri, ui in zip(self.r, self.u)]
        return "\n".join(lines) + "\n"


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al., QUADPACK, 1983,
# routine qk21): Kronrod abscissae from the end of [-1, 1] to its centre,
# their weights, and the 10-point Gauss weights of the abscissae _XGK[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208693020945, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the same rule over its 21 ascending nodes; Gauss weight 0 off the Gauss nodes
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_KRONROD = np.concatenate((_WGK[:-1], _WGK[::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[19:10:-2] = _WG
_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny

BISECTION_LIMIT = 400  # pieces per panel, QUADPACK's ``limit``
BLOCK_INTERVALS = 128  # intervals whose 21 nodes are evaluated in one call
MODULUS_BLOCK = 2**14  # knots x radii that radial_modulus interpolates at once


def _qk21(f, a: np.ndarray, b: np.ndarray):
    """QUADPACK qk21 on every interval [a_i, b_i]: (integrals, error estimates).

    ``f`` maps an array of points to their integrand values.  It is called
    on ``(intervals, 21)`` blocks of at most ``BLOCK_INTERVALS`` rows, and
    each block is reduced before the next is evaluated, which bounds the
    working memory of long grids and of integrands that expand each point
    (the log density's Laguerre sum).
    """
    values = np.empty(a.size)
    errors = np.empty(a.size)
    for s in range(0, a.size, BLOCK_INTERVALS):
        block = slice(s, s + BLOCK_INTERVALS)
        centre = 0.5 * (a[block] + b[block])
        half = 0.5 * (b[block] - a[block])
        fx = f(centre[:, None] + half[:, None] * _NODES)
        resk = fx @ _KRONROD
        resabs = np.abs(fx) @ _KRONROD * np.abs(half)
        resasc = np.abs(fx - 0.5 * resk[:, None]) @ _KRONROD * np.abs(half)
        err = np.abs((resk - fx @ _GAUSS) * half)
        scale = (resasc != 0.0) & (err != 0.0)
        err[scale] = resasc[scale] * np.minimum(1.0, (200.0 * err[scale] / resasc[scale]) ** 1.5)
        floor = resabs > _UFLOW / (50.0 * _EPS)
        err[floor] = np.maximum(50.0 * _EPS * resabs[floor], err[floor])
        values[block], errors[block] = resk * half, err
    return values, errors


def radial_solve(problem: RadialProblem, grid=512, tol: float = DEFAULT_TOL) -> RadialSolution:
    """Evaluate the profile on a grid by panel-wise adaptive quadrature.

    ``grid`` is either a point count (uniform grid on [0, 1]) or an
    ascending array of radii in [0, 1]; the right endpoint 1 is always
    included and carries U(1) = 0 exactly.  Every panel between adjacent
    radii gets QUADPACK's 21-point Gauss-Kronrod rule, all panels in one
    batch; a panel whose error estimate exceeds ``max(tol / panels,
    1e-12 |value|)`` is bisected at its largest-error piece, all failing
    panels at once, up to ``BISECTION_LIMIT`` pieces.  The pieces live in
    (panels, capacity) arrays whose capacity doubles when full: a round
    writes one column, and only a doubling or a settled panel copies.  Raises
    :class:`QuadratureError` when the summed panel error estimates exceed
    ``tol`` and :class:`DomainError` when the inner integral diverges or,
    before any quadrature, when the grid holds r = 0 and a log density's
    profile is unbounded there.
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
    if r[0] == 0.0 and isinstance(density, LogDensity) and density.profile_unbounded(n):
        raise DomainError("radial profile is unbounded at r = 0; start the grid above 0")
    outer_exp = 1.0 - 2.0 * n / m

    def integrand(t: np.ndarray) -> np.ndarray:
        inner = np.maximum(density.inner_integral(t, n), 0.0)
        return t**outer_exp * inner ** (1.0 / m)

    npanels = r.size - 1
    panel_tol = max(tol / max(npanels, 1), 1e-15)

    def settled(value, error):
        # non-finite panels are not refined: the profile check below rejects them
        return (error <= np.maximum(panel_tol, 1e-12 * np.abs(value))) | ~np.isfinite(value)

    val, err = _qk21(integrand, r[:-1], r[1:])
    failing = np.flatnonzero(~settled(val, err))
    panels_bisected = failing.size
    # lo, hi, value and error of the pieces of the failing panels, one row
    # per panel: round w fills column w, and the capacity doubles when full
    pieces = np.stack((r[failing], r[failing + 1], val[failing], err[failing]))[..., None]
    rows, w = np.arange(failing.size), 1
    while failing.size and w < BISECTION_LIMIT:
        if w == pieces.shape[2]:
            grown = np.empty((4, failing.size, min(2 * w, BISECTION_LIMIT)))
            grown[..., :w] = pieces
            pieces = grown
            del grown
        worst = np.argmax(pieces[3, :, :w], axis=1)
        a, b = pieces[:2, rows, worst]
        mid = 0.5 * (a + b)
        v, e = _qk21(integrand, np.concatenate((a, mid)), np.concatenate((mid, b)))
        pieces[1:, rows, worst] = mid, v[: rows.size], e[: rows.size]
        pieces[:, :, w] = mid, b, v[rows.size :], e[rows.size :]
        w += 1
        val[failing], err[failing] = pieces[2:, :, :w].sum(axis=2)
        keep = ~settled(val[failing], err[failing])
        if not keep.all():
            failing, pieces, rows = failing[keep], pieces[:, keep], rows[: keep.sum()]

    u = np.zeros(r.size)
    u[:-1] = -problem.B * np.cumsum(val[::-1])[::-1]  # running sums from r = 1 inward
    if not np.all(np.isfinite(u)):
        raise DomainError("radial profile is not finite; density too singular")
    total_err = float(np.sum(err))
    if total_err * problem.B > tol * max(1.0, float(np.max(np.abs(u)))):
        raise QuadratureError(
            f"requested tol {tol} not met (achieved {total_err * problem.B})",
            achieved=total_err * problem.B,
        )
    return RadialSolution(
        r=r,
        u=u,
        B_used=problem.B,
        achieved_error=total_err * problem.B,
        panels_bisected=panels_bisected,
        worst_panel_error=float(err.max(initial=0.0)) * problem.B,
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
    read off the piecewise-linear interpolant.  Knots are interpolated a
    block at a time, ``MODULUS_BLOCK`` (knot, radius) pairs or one knot,
    whichever is more, so the working memory (two such blocks, 128 KiB
    each) does not grow with the knot count.
    """
    t_knots = np.asarray(t_knots, dtype=float)
    r, u = solution.r, solution.u
    rows = max(1, MODULUS_BLOCK // r.size)
    w = np.empty(t_knots.size)
    for s in range(0, t_knots.size, rows):
        # past r = 1 np.interp returns U(1), as at min(r + t, 1)
        shifted = np.interp(r + t_knots[s : s + rows, None], r, u)  # (knots, grid)
        shifted -= u
        w[s : s + rows] = shifted.max(axis=1)
    w = np.maximum(np.maximum.accumulate(w), 0.0)
    return ModulusCurve(
        np.concatenate(([0.0], t_knots)), np.concatenate(([0.0], w))
    )


def holder_exponent_check(problem: RadialProblem) -> RadialHolderReport:
    """Fit the growth exponent of omega_U over [1e-4, 1e-2] and compare it
    to the target within 0.03.

    For the power density the target is min(1, 2 - alpha/m); for the
    constant density it is 1 (the profile is a multiple of r^2 - 1).  For
    other densities only the fit is reported.  The solution grid starts at
    0 so the modulus resolves the behaviour at the origin.
    """
    grid = np.concatenate(([0.0], np.geomspace(1e-7, 1.0, 3000)))
    solution = radial_solve(problem, grid=grid, tol=1e-10)
    t_knots = np.geomspace(1e-5, 0.3, 90)
    curve = radial_modulus(solution, t_knots)
    fit = holder_fit(curve, (1e-4, 1e-2))
    density = problem.density
    if isinstance(density, ConstDensity):
        expected = 1.0
    elif isinstance(density, PowerDensity):
        expected = min(1.0, 2.0 - density.alpha / problem.m)
    else:
        expected = None
    verdict = None if expected is None else bool(abs(fit.exponent - expected) <= 0.03)
    return RadialHolderReport(fit=fit, expected=expected, verdict=verdict, curve=curve)


@dataclass
class LogExampleReport:
    gamma: float
    n: int
    m: int
    k_values: np.ndarray  # |U(10^-k)| for k = 1..LOG_K_MAX
    verdict: str  # "bounded" or "unbounded"
    divergent: bool
    expected_unbounded: bool
    growth_exponent: float  # fitted e in |U| ~ A + B (1 - log r)^e
    theoretical_exponent: float
    fitted_c: float
    bound_ok: bool


def _fit_growth_exponent(k_values: np.ndarray) -> float:
    """Fit e in |U(10^-k)| ~ A + B s_k^e with s_k = 1 + k log 10.

    The basis degenerates to A + B log s at e = 0, so the column is log s
    there.  Every candidate on a fixed grid is scored at once by its
    two-column least-squares residual: with the intercept, that is the
    residual of the centred values against the centred column.  The first
    candidate with the least residual wins.
    """
    s = 1.0 + np.arange(1, k_values.size + 1) * math.log(10.0)
    e = np.linspace(-3.0, 3.0, 601)
    cols = np.where(np.abs(e[:, None]) < 5e-3, np.log(s), s ** e[:, None])  # (candidates, k)
    cols -= cols.mean(axis=1, keepdims=True)
    y = k_values - k_values.mean()
    slope = (cols @ y) / np.sum(cols * cols, axis=1)
    residual = np.sum((y - slope[:, None] * cols) ** 2, axis=1)
    return float(e[np.argmin(residual)])


LOG_K_MAX = 8  # the log example reads |U(10^-k)| for k = 1..LOG_K_MAX
LOG_FIT_WINDOW = (1e-6, 0.5)  # radii over which its constant C is fitted


def log_example_check(gamma: float, n: int, m: int) -> LogExampleReport:
    """Criticality check for the density rho^(-2m) (1 - log rho)^(-gamma).

    Classifies the profile as bounded or unbounded from |U(10^-k)| for
    k = 1..LOG_K_MAX and fits the constant C in U(r) <= C (1 - (1 - log
    r)^(1 - gamma/m)) over ``LOG_FIT_WINDOW``.

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
        k_values = np.full(LOG_K_MAX, np.inf)
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
    lo, hi = LOG_FIT_WINDOW
    r_pows = 10.0 ** (-np.arange(1, LOG_K_MAX + 1, dtype=float))
    grid = np.unique(
        np.concatenate(
            [
                r_pows,
                np.geomspace(10.0 ** (-LOG_K_MAX), 1.0, 200),
                np.geomspace(lo, hi, 60),
            ]
        )
    )
    sol = radial_solve(problem, grid=grid, tol=1e-9)
    k_values = np.abs(sol.interp(r_pows))
    increasing = bool(np.all(np.diff(k_values) > 0))
    growth = _fit_growth_exponent(k_values)
    verdict = "unbounded" if (increasing and growth > -0.05) else "bounded"
    expected_unbounded = problem.density.profile_unbounded(n)

    mask = (sol.r >= lo) & (sol.r <= hi)
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
    """Admissible Holder ranges implied by gamma_1, and an exact exponent above it.

    The power density rho^(-alpha) is in L^p exactly when alpha p < 2n, and
    its exact profile is Holder with exponent min(1, 2 - alpha/m); at the
    edge of L^p that is ``power_density_exponent``, which gamma_1 cannot
    exceed.
    """
    g1 = gamma_exponent(n, m, p, 1.0)
    return {
        "gamma_1": g1,
        "holder_exponent_sup": g1,
        "holder_exponent_sup_high_p": min(0.5, 2.0 * g1),
        "power_density_exponent": min(1.0, 2.0 - 2.0 * n / (m * p)),
    }
