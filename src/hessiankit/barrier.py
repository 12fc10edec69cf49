"""Point barriers, sub/supersolution envelopes, and modulus verification.

Construction per boundary point xi, for boundary data phi, density bound
K1 = sup f^(1/m), base point z0 (the barycenter) and K2 = K1 |xi - z0|^2:

* shifted data      phitilde = phi - K1 |z - z0|^2 + K2
* cone quadratic    g(z) = B rho(z) - |z - xi|^2, with B large enough that
                    B hess(rho) - I stays in the cone (so g is m-sh)
* profile           chi(t) = -omega_bar((-t)^(1/2)), the concave majorant
                    omega_bar of the shifted data's modulus, which makes
                    chi convex nondecreasing on [-d^2, 0]
* near-field        h(z) = chi(g(z)) + phitilde(xi) on B(xi, r), where r
                    keeps |g| <= d^2
* glue              h_xi = max(gamma1 (h - phitilde(xi)) + phitilde(xi),
                    gamma2) inside B(xi, r1), constant gamma2 outside,
                    with gamma2 a lower bound of phitilde on the boundary
                    and gamma1 large enough that the first branch drops
                    below gamma2 on the gluing sphere
* barrier           v_xi = h_xi + K1 |z - z0|^2 - K2.

Then v_xi(xi) = phi(xi), v_xi <= phi on the boundary, and the envelope
v = max over sampled xi is a subsolution agreeing with phi at the samples.
It keeps its K barriers as parameter arrays, one row per xi, and evaluates
them in point blocks as one (points x K) matrix.  The supersolution is the
negated envelope built for -phi.

All inequalities above are exact when the modulus curve supplied with the
boundary data majorizes the true modulus (the named data sets ship exact
curves).  Empirically estimated curves can undershoot at separations finer
than the boundary sampling; reports carry the sample counts so that error
is attributable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .errors import ArgumentError, DomainError
from .geometry import Domain, sample_boundary, sample_interior
from .modulus import (
    HolderFit,
    ModulusCurve,
    concave_majorant,
    estimate_modulus,
    holder_fit,
    linear_curve,
)

RHO_SNAP = 1e-13  # defining-function values this close to 0 count as boundary


def _child_seed(*parts) -> list:
    """Flatten nested seed parts into a list accepted by default_rng."""
    out = []
    for p in parts:
        if isinstance(p, (tuple, list)):
            out.extend(_child_seed(*p))
        else:
            out.append(int(p) % (2**63))
    return out


# ---------------------------------------------------------------------------
# Boundary data


@dataclass
class BoundaryData:
    """Continuous boundary data with a certified modulus curve.

    ``omega_phi`` must majorize the true modulus of ``phi`` for the barrier
    inequalities to be exact; ``inf_phi``/``sup_phi`` bound the data range
    on the boundary.  ``anchors`` are boundary points where the data is
    least regular, used to refine verification grids.
    """

    phi: object  # callable on (..., n) complex arrays
    omega_phi: ModulusCurve
    sup_norm: float
    inf_phi: float
    sup_phi: float
    anchors: np.ndarray | None = None
    name: str = "custom"

    def negated(self) -> "BoundaryData":
        f = self.phi
        return BoundaryData(
            phi=lambda z: -f(z),
            omega_phi=self.omega_phi,
            sup_norm=self.sup_norm,
            inf_phi=-self.sup_phi,
            sup_phi=-self.inf_phi,
            anchors=self.anchors,
            name=f"neg({self.name})",
        )


def _axis_point(domain: Domain, sign: float) -> np.ndarray:
    z = np.zeros(domain.n, dtype=complex)
    if domain.kind == "ball":
        z[0] = sign * domain.radius
    else:
        z[0] = sign / math.sqrt(domain.coeffs[0])
    return z


def boundary_re_z1(domain: Domain) -> BoundaryData:
    """phi(z) = Re z_1; exact modulus slope 1."""
    d = domain.diameter
    x_max = abs(_axis_point(domain, 1.0)[0].real)
    return BoundaryData(
        phi=lambda z: np.asarray(z, dtype=complex)[..., 0].real,
        omega_phi=linear_curve(1.0, d),
        sup_norm=x_max,
        inf_phi=-x_max,
        sup_phi=x_max,
        anchors=np.stack([_axis_point(domain, -1.0), _axis_point(domain, 1.0)]),
        name="re_z1",
    )


def boundary_psi_sqrt(domain: Domain) -> BoundaryData:
    """phi(z) = -sqrt((1 + Re z_1) / 2) on the unit ball.

    The exact modulus on the unit sphere is t / 2: the square-root gain
    near Re z_1 = -1 is exactly compensated by the sphere geometry, since
    points at data-distance a sit at least sqrt(2) a apart there.
    """
    if domain.kind != "ball" or abs(domain.radius - 1.0) > 1e-15:
        raise ArgumentError("psi_sqrt data is defined on the unit ball")

    def phi(z):
        x = np.asarray(z, dtype=complex)[..., 0].real
        return -np.sqrt(np.maximum(1.0 + x, 0.0) / 2.0)

    return BoundaryData(
        phi=phi,
        omega_phi=linear_curve(0.5, domain.diameter),
        sup_norm=1.0,
        inf_phi=-1.0,
        sup_phi=0.0,
        anchors=np.stack([_axis_point(domain, -1.0), _axis_point(domain, 1.0)]),
        name="psi_sqrt",
    )


def boundary_const(domain: Domain, value: float) -> BoundaryData:
    d = domain.diameter
    curve = ModulusCurve([0.0, d], [0.0, 0.0])
    return BoundaryData(
        phi=lambda z: np.full(np.asarray(z).shape[:-1], float(value)),
        omega_phi=curve,
        sup_norm=abs(float(value)),
        inf_phi=float(value),
        sup_phi=float(value),
        anchors=np.stack([_axis_point(domain, 1.0)]),
        name=f"const:{value!r}",
    )


def boundary_from_samples(
    phi, domain: Domain, samples: int = 2000, bins: int = 400, seed: int = 0
) -> BoundaryData:
    """Estimate the modulus curve and range bounds from boundary samples.

    The estimated curve is a lower bound of the true modulus at fine
    separations, so barrier inequalities built from it hold only up to the
    sampling resolution.
    """
    pts = sample_boundary(domain, samples, seed)
    vals = np.asarray(phi(pts), dtype=float)
    reals = np.concatenate([pts.real, pts.imag], axis=1)
    curve = estimate_modulus(reals, vals, bins=bins, t_max=domain.diameter)
    order = np.argsort(vals)
    return BoundaryData(
        phi=phi,
        omega_phi=curve,
        sup_norm=float(np.max(np.abs(vals))),
        inf_phi=float(vals.min()),
        sup_phi=float(vals.max()),
        anchors=np.stack([pts[order[0]], pts[order[-1]]]),
        name="estimated",
    )


def make_boundary_data(spec: str, domain: Domain) -> BoundaryData:
    """CLI boundary spec: re_z1, psi_sqrt or const:c."""
    if spec == "re_z1":
        return boundary_re_z1(domain)
    if spec == "psi_sqrt":
        return boundary_psi_sqrt(domain)
    if spec.startswith("const:"):
        return boundary_const(domain, float(spec.split(":", 1)[1]))
    raise ArgumentError(f"unknown boundary data {spec!r}")


def psi_example_solution(z):
    """Exact zero-density solution with psi_sqrt boundary data (m >= 2)."""
    x = np.asarray(z, dtype=complex)[..., 0].real
    return -np.sqrt(np.maximum(1.0 + x, 0.0) / 2.0)


# ---------------------------------------------------------------------------
# Parameter derivation

_PER_POINT = ("r", "r1", "gamma1", "gamma2", "K2")


@dataclass
class BarrierParams:
    """Parameters of K point barriers, one row per boundary point xi.

    ``r``, ``r1``, ``gamma1``, ``gamma2`` and ``K2`` are (K,) arrays and
    ``xi`` is (K, n); ``B``, ``K1`` and ``z0`` are shared.  Scalars and a
    single xi are taken as one row.
    """

    B: float
    r: np.ndarray
    r1: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    K1: float
    K2: np.ndarray
    xi: np.ndarray
    z0: np.ndarray

    def __post_init__(self):
        for name in _PER_POINT:
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=complex))

    def __len__(self):
        return self.xi.shape[0]

    def __getitem__(self, i: int) -> "BarrierParams":
        """The parameters of barrier i alone."""
        return replace(self, **{name: getattr(self, name)[[i]] for name in (*_PER_POINT, "xi")})

    def describe(self) -> dict:
        """Scalar parameters of a single barrier."""
        row = {name: getattr(self, name).item() for name in _PER_POINT}
        return {"B": self.B, "K1": self.K1, **row}


def cone_coefficient(domain: Domain, m: int) -> float:
    """Smallest power-of-two multiple of 1/A with B hess(rho) - I in the cone.

    A is the pseudoconvexity constant; hess(rho) is constant on the model
    domains, so one matrix decides.
    """
    from .geometry import pseudoconvexity_constant

    a_const = pseudoconvexity_constant(domain, m)
    hess = domain.hess_rho()
    for k in range(64):
        b = 2.0**k / a_const
        eigs = np.linalg.eigvalsh(b * hess - np.eye(domain.n))
        if core.gamma_m_contains(eigs, m).member:
            return b
    raise DomainError("no admissible cone coefficient found")


def _unit_ball(seed, n: int, samples: int) -> np.ndarray:
    """Seeded uniform samples of the unit ball in C^n, shape (samples, n)."""
    rng = np.random.default_rng(_child_seed(seed))
    g = rng.standard_normal((samples, 2 * n))
    g /= np.sqrt((g**2).sum(axis=1, keepdims=True))
    radii = rng.random(samples) ** (1.0 / (2 * n))
    return (g[:, 0::2] + 1j * g[:, 1::2]) * radii[:, None]


def _max_abs_g(domain: Domain, xi, b_coeff: float, z) -> np.ndarray:
    """Max of |g| = |B rho - |z - xi|^2| over the samples z inside the domain.

    Reduces the sample axis of ``z`` (..., samples, n); 0 where no sample
    is inside.
    """
    rho = domain.rho(z)
    s = (np.abs(z - xi) ** 2).sum(axis=-1)
    return np.where(rho <= 0.0, np.abs(b_coeff * rho - s), 0.0).max(axis=-1)


def _choose_radius(domain: Domain, xis, b_coeff: float, seeds, samples: int = 256) -> np.ndarray:
    """Largest r per xi with |g| <= d^2 sampled on B(xi, r) inside the domain.

    r = d where that already holds; the other xi are bisected together.
    Each xi draws its samples from its own stream ``(seed, 104729)``.
    """
    d = domain.diameter
    unit = np.stack([_unit_ball((seed, 104729), domain.n, samples) for seed in seeds])
    xis = xis[:, None, :]
    r = np.full(len(unit), d)
    todo = _max_abs_g(domain, xis, b_coeff, xis + d * unit) > d * d
    xis, unit = xis[todo], unit[todo]
    lo = np.full(len(unit), 1e-6 * d)
    hi = np.full(len(unit), d)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        ok = _max_abs_g(domain, xis, b_coeff, xis + mid[:, None, None] * unit) <= d * d
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    r[todo] = lo
    return r


def shifted_modulus_majorant(data: BoundaryData, k1: float, diameter: float) -> ModulusCurve:
    """Concave majorant valid for phi - K1 |z - z0|^2.

    The quadratic part moves by at most 2 d K1 per unit step, so adding the
    linear term 2 d K1 t to the data curve keeps a certified majorant; the
    hull of the sum is then taken.
    """
    base = data.omega_phi
    if k1 == 0.0:
        return concave_majorant(base)
    lifted = ModulusCurve(base.t, base.w + 2.0 * diameter * k1 * base.t)
    return concave_majorant(lifted)


# ---------------------------------------------------------------------------
# Evaluators

# points x barriers per evaluation block, the pair budget of estimate_modulus
BLOCK_ELEMENTS = 2_000_000


class BarrierEnvelope:
    """Pointwise maximum of K point barriers; the constructed subsolution.

    ``barriers`` holds the parameters of all K barriers as arrays and
    ``phi_xi`` the (K,) data values at their boundary points.
    """

    def __init__(self, barriers: BarrierParams, phi_xi, omega_bar: ModulusCurve,
                 data: BoundaryData, domain: Domain, m: int, f_sup: float, seed):
        if len(barriers) < 1:
            raise ArgumentError("envelope needs at least one point barrier")
        self.barriers = barriers
        self.phi_xi = np.asarray(phi_xi, dtype=float)
        self.omega_bar = omega_bar
        self.data = data
        self.domain = domain
        self.m = m
        self.f_sup = float(f_sup)
        self.seed = seed

    @property
    def xis(self) -> np.ndarray:
        return self.barriers.xi

    def _branches(self, z):
        """Yield (rows, far, near) over point blocks of the (points, n) array z.

        ``near`` is the (points, K) matrix of near-field branches, -inf
        outside B(xi, r1); ``far`` is the max of the K copies of the far
        branch gamma2 + K1 |z - z0|^2 - K2, which differ only by rounding.
        """
        p = self.barriers
        bar = self.omega_bar
        step = max(1, BLOCK_ELEMENTS // len(p))
        for a in range(0, z.shape[0], step):
            rows = slice(a, a + step)
            zb = z[rows]
            # one coordinate at a time keeps every temporary at (points, K)
            s = sum(np.abs(zb[:, j, None] - p.xi[:, j]) ** 2 for j in range(zb.shape[1]))
            rho = self.domain.rho(zb)
            rho = np.where(np.abs(rho) < RHO_SNAP, 0.0, rho)
            neg_g = np.maximum(s - (p.B * rho)[:, None], 0.0)
            chi = -np.interp(np.minimum(np.sqrt(neg_g), bar.length), bar.t, bar.w)
            quad = (p.K1 * (np.abs(zb - p.z0) ** 2).sum(axis=-1))[:, None] - p.K2
            near = np.where(s < p.r1 * p.r1, p.gamma1 * chi + self.phi_xi, -np.inf) + quad
            yield rows, (p.gamma2 + quad).max(axis=1), near

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_2d(z)
        out = np.empty(flat.shape[0])
        for rows, far, near in self._branches(flat):
            out[rows] = np.maximum(far, near.max(axis=1))
        return out[0] if z.ndim == 1 else out

    def branch_info(self, z):
        """Active branch id, gap to the best competing branch, and value.

        The branches are [far, near_0, ..., near_{K-1}]: branch 0 is the far
        branch, branch i >= 1 the near field of barrier i - 1.  The id is the
        first argmax and the gap the difference of the two largest values.
        The top value is the envelope value, since max does not round.  A
        large gap means the envelope is locally a single smooth branch,
        where finite differences make sense.
        """
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        branch = np.empty(z.shape[0], dtype=int)
        gap = np.empty(z.shape[0])
        top = np.empty(z.shape[0])
        for rows, far, near in self._branches(z):
            vals = np.concatenate([far[:, None], near], axis=1)
            branch[rows] = np.argmax(vals, axis=1)
            ranked = np.partition(vals, -2, axis=1)
            top[rows] = ranked[:, -1]
            gap[rows] = ranked[:, -1] - ranked[:, -2]
        return branch, gap, top

    def boundary_values(self):
        xis = self.xis
        return xis, self(xis), np.asarray(self.data.phi(xis), dtype=float)


class NegatedEnvelope:
    """Supersolution: the negative of an envelope built for negated data."""

    def __init__(self, inner: BarrierEnvelope):
        self.inner = inner

    def __call__(self, z):
        return -self.inner(z)


# ---------------------------------------------------------------------------
# Builders


def _envelope(
    xis, seeds, data: BoundaryData, domain: Domain, m: int, f_sup: float, seed,
    b_coeff: float | None = None, omega_bar: ModulusCurve | None = None,
    params: BarrierParams | None = None,
) -> BarrierEnvelope:
    """Envelope of the barriers at the boundary points xis.

    Checks the density bound, computes ``b_coeff`` and ``omega_bar`` when
    they are not given, and derives the barrier parameters unless
    ``params`` is given.
    """
    if not (math.isfinite(f_sup) and f_sup >= 0):
        raise ArgumentError(f"f_sup must be finite and >= 0, got {f_sup}")
    d = domain.diameter
    k1 = f_sup ** (1.0 / m) if f_sup > 0 else 0.0
    if omega_bar is None:
        omega_bar = shifted_modulus_majorant(data, k1, d)
    if params is None:
        if b_coeff is None:
            b_coeff = cone_coefficient(domain, m)
        r = _choose_radius(domain, xis, b_coeff, seeds)
        r1 = 0.5 * r

        k2 = k1 * (np.abs(xis) ** 2).sum(axis=-1)
        rmin, rmax = domain.boundary_radius_range()
        gamma2 = data.inf_phi - k1 * rmax**2 + k2
        sup_shifted = data.sup_phi - k1 * rmin**2 + k2
        osc = np.maximum(sup_shifted - gamma2, 0.0)
        bar_r1 = omega_bar(r1)
        # the first branch must drop below gamma2 on the gluing sphere
        lift = np.divide(osc, bar_r1, out=np.zeros_like(osc), where=bar_r1 > 0.0)
        gamma1 = np.maximum(d / r1, lift) * 1.05  # slack for the sampled gluing inequality

        params = BarrierParams(
            B=b_coeff,
            r=r,
            r1=r1,
            gamma1=gamma1,
            gamma2=gamma2,
            K1=k1,
            K2=k2,
            xi=xis,
            z0=domain.barycenter,
        )
    phi_xi = np.asarray(data.phi(xis), dtype=float)
    return BarrierEnvelope(params, phi_xi, omega_bar, data, domain, m, f_sup, seed)


def build_point_barrier(
    xi,
    data: BoundaryData,
    domain: Domain,
    m: int,
    f_sup: float = 0.0,
    params: BarrierParams | None = None,
    seed: int = 0,
    b_coeff: float | None = None,
    omega_bar: ModulusCurve | None = None,
) -> BarrierEnvelope:
    """Assemble v_xi for one boundary point, as a one-point envelope.

    When ``params`` is supplied its radius is revalidated against the
    sampled |g| <= d^2 requirement (a violation raises); otherwise all
    parameters are derived here.  ``b_coeff`` and ``omega_bar`` can be
    precomputed once per envelope.
    """
    xi = np.asarray(xi, dtype=complex)
    if abs(float(domain.rho(xi))) > 1e-10:
        raise ArgumentError("xi must lie on the boundary")
    if params is not None:
        # the domain sits inside B(xi, diameter), so larger radii add nothing
        d = domain.diameter
        z = xi + min(params.r.item(), d) * _unit_ball((seed, 7919), domain.n, 512)
        if _max_abs_g(domain, xi, params.B, z) > d * d * (1 + 1e-9):
            raise ArgumentError("|g| exceeds diameter^2 inside B(xi, r); r too large")
    return _envelope(
        xi[None, :], [seed], data, domain, m, f_sup, seed, b_coeff, omega_bar, params
    )


def build_subsolution(
    data: BoundaryData,
    f,
    domain: Domain,
    m: int,
    xi_count: int = 500,
    seed: int = 42,
    f_sup: float | None = None,
) -> BarrierEnvelope:
    """Envelope of point barriers over seeded boundary samples.

    ``f`` is the density evaluator (None means zero); ``f_sup`` should be
    its exact supremum when known, otherwise it is estimated from interior
    and boundary samples.  Barrier i draws its radius samples from the
    stream ``(seed, i)``.
    """
    if xi_count < 1:
        raise ArgumentError("xi_count must be >= 1")
    if f_sup is None:
        if f is None:
            f_sup = 0.0
        else:
            probe = np.concatenate(
                [sample_interior(domain, 512, seed + 3), sample_boundary(domain, 256, seed + 4)]
            )
            f_sup = float(np.max(np.asarray(f(probe), dtype=float)))
    xis = sample_boundary(domain, xi_count, seed)
    seeds = [(seed, i) for i in range(xi_count)]
    return _envelope(xis, seeds, data, domain, m, f_sup, seed)


def build_supersolution(
    data: BoundaryData,
    f,
    domain: Domain,
    m: int,
    xi_count: int = 500,
    seed: int = 42,
    f_sup: float | None = None,
) -> NegatedEnvelope:
    """Supersolution matching the data: negate the envelope built for -phi."""
    return NegatedEnvelope(
        build_subsolution(data.negated(), f, domain, m, xi_count, seed, f_sup)
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass
class BarrierReport:
    eta_fitted: float
    lambda_bound: float
    passed: bool
    violations: list
    holder: HolderFit | None
    curve: ModulusCurve
    sample_counts: dict
    seed: int
    f_sup_norm: float
    m: int
    ceiling: float | None

    def to_json_dict(self) -> dict:
        return {
            "eta_fitted": self.eta_fitted,
            "lambda_bound": self.lambda_bound,
            "pass": self.passed,
            "violations": list(map(float, self.violations)),
            "holder_exponent": None if self.holder is None else self.holder.exponent,
            "sample_counts": self.sample_counts,
            "seed": self.seed,
            "f_sup_norm": self.f_sup_norm,
            "m": self.m,
            "ceiling": self.ceiling,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def verification_grid(
    domain: Domain, count: int, seed: int, anchors=None, depth_min: float = 1e-6
) -> np.ndarray:
    """Interior evaluation grid: uniform bulk plus rays toward anchors.

    Rays approach the anchors with geometrically graded depths, which is
    what resolves boundary-degenerate moduli; the bulk covers everything
    else.
    """
    bulk_count = count if anchors is None or len(anchors) == 0 else count // 2
    parts = [sample_interior(domain, bulk_count, seed)]
    if anchors is not None and len(anchors) > 0:
        per = max((count - bulk_count) // len(anchors), 2)
        for a in np.asarray(anchors, dtype=complex):
            depths = np.geomspace(depth_min, 1.0, per)
            parts.append(a[None, :] * (1.0 - depths)[:, None])
    return np.concatenate(parts, axis=0)


def verify_modulus_bound(
    v,
    data: BoundaryData,
    domain: Domain,
    m: int,
    f_sup_norm: float = 0.0,
    grid: int = 10000,
    bins: int = 200,
    seed: int = 42,
    ceiling: float | None = None,
    window: tuple[float, float] | None = None,
) -> BarrierReport:
    """Estimate omega_v on an anchored interior grid and fit the bound

        omega_v(t) <= eta (1 + f_sup^(1/m)) max(omega_phi(sqrt t), sqrt t).

    ``eta_fitted`` is the smallest constant making the bound hold at every
    curve knot; ``ceiling`` (when given) is the acceptance threshold for
    eta, with offending knots listed in ``violations``.
    """
    d = domain.diameter
    pts = verification_grid(domain, grid, seed, anchors=data.anchors)
    vals = np.asarray(v(pts), dtype=float)
    reals = np.concatenate([pts.real, pts.imag], axis=1)
    edges = np.geomspace(1e-4 * d, d, bins)
    curve = estimate_modulus(reals, vals, bins=edges, t_max=d)

    factor = 1.0 + (f_sup_norm ** (1.0 / m) if f_sup_norm > 0 else 0.0)
    t = curve.t[1:]
    w = curve.w[1:]
    omega_at_sqrt = data.omega_phi(np.minimum(np.sqrt(t), data.omega_phi.length))
    denom = factor * np.maximum(omega_at_sqrt, np.sqrt(t))
    ratios = w / denom
    eta = float(np.max(ratios)) if ratios.size else 0.0

    violations = []
    passed = True
    if ceiling is not None:
        mask = ratios > ceiling
        violations = [float(x) for x in t[mask]]
        passed = not bool(mask.any())

    fit = None
    if window is None:
        window = (5e-4 * d, 5e-2 * d)
    try:
        fit = holder_fit(curve, window)
    except ArgumentError:
        fit = None  # flat data (constant phi) has no positive knots

    n_anch = 0 if data.anchors is None else len(data.anchors)
    counts = {"grid": int(pts.shape[0]), "anchors": n_anch, "bins": int(bins)}
    if isinstance(v, BarrierEnvelope):
        counts["xi"] = len(v.barriers)
    elif isinstance(v, NegatedEnvelope):
        counts["xi"] = len(v.inner.barriers)
    return BarrierReport(
        eta_fitted=eta,
        lambda_bound=eta * factor,
        passed=passed,
        violations=violations,
        holder=fit,
        curve=curve,
        sample_counts=counts,
        seed=seed,
        f_sup_norm=f_sup_norm,
        m=m,
        ceiling=ceiling,
    )


# ---------------------------------------------------------------------------
# Finite-difference probes


def fd_stencil(z, h: float) -> np.ndarray:
    """All evaluation nodes of the dense central-difference Hessian.

    ``z`` is one point (n,) or a stack (..., n); nodes come as (..., S, n).
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    dim = 2 * n
    offsets = np.zeros((dim, n), dtype=complex)
    for j in range(n):
        offsets[2 * j, j] = h
        offsets[2 * j + 1, j] = 1j * h
    nodes = [z]
    nodes += [z + offsets[a] for a in range(dim)]
    nodes += [z - offsets[a] for a in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            nodes += [
                z + offsets[a] + offsets[b],
                z + offsets[a] - offsets[b],
                z - offsets[a] + offsets[b],
                z - offsets[a] - offsets[b],
            ]
    return np.stack(nodes, axis=-2)


def _hessian_from_stencil(values: np.ndarray, dim: int, h: float) -> np.ndarray:
    """Assemble Hessians from function values in fd_stencil order along the
    last axis; shape (..., dim, dim)."""
    center = values[..., :1]
    plus = values[..., 1 : 1 + dim]
    minus = values[..., 1 + dim : 1 + 2 * dim]
    q = np.empty(values.shape[:-1] + (dim, dim))
    diag = np.arange(dim)
    q[..., diag, diag] = (plus - 2.0 * center + minus) / h**2
    pos = 1 + 2 * dim
    for a in range(dim):
        for b in range(a + 1, dim):
            pp, pm, mp, mm = np.moveaxis(values[..., pos : pos + 4], -1, 0)
            pos += 4
            q[..., a, b] = q[..., b, a] = (pp - pm - mp + mm) / (4.0 * h**2)
    return q


def fd_real_hessian(func, z, h: float = 1e-4) -> np.ndarray:
    """Dense 2n x 2n central-difference Hessian in interleaved coordinates.

    Evaluates the whole stencil in one batched call.
    """
    z = np.asarray(z, dtype=complex)
    nodes = fd_stencil(z, h)
    values = np.asarray(func(nodes), dtype=float)
    return _hessian_from_stencil(values, 2 * z.size, h)


def fd_complex_hessian(func, z, h: float = 1e-4) -> np.ndarray:
    return core.complex_hessian_from_real(_symmetrized(fd_real_hessian(func, z, h)))


def _symmetrized(q):
    return 0.5 * (q + np.swapaxes(q, -1, -2))


@dataclass
class ProbeSummary:
    points_tested: int
    points_smooth: int
    min_margin: float
    scale: float


def _smooth_hessians(envelope: BarrierEnvelope, count: int, seed: int, h: float):
    """Probe point count, the smooth probe points and their complex Hessians.

    Probe points are interior samples deeper than the stencil.  A point is
    smooth when its whole stencil sits on one branch with a positive
    runner-up gap.  Kink points of the max-glue are skipped: the one-sided
    derivatives there only add positivity, which finite differences cannot
    certify.  The Hessians come as one (points, n, n) stack.
    """
    domain = envelope.domain
    pts = sample_interior(domain, 4 * count, seed)
    depth = np.abs(domain.rho(pts)) / domain.lipschitz_rho()
    pts = pts[depth > 4.0 * h * math.sqrt(2 * domain.n)][:count]
    nodes = fd_stencil(pts, h)
    info = envelope.branch_info(nodes.reshape(-1, domain.n))
    branch, gap, values = (x.reshape(nodes.shape[:2]) for x in info)
    smooth = np.all(branch == branch[:, :1], axis=1) & (gap.min(axis=1) > 0.0)
    q = _symmetrized(_hessian_from_stencil(values[smooth], 2 * domain.n, h))
    return pts.shape[0], pts[smooth], core.complex_hessian_from_real(q)


def msh_probe(
    envelope: BarrierEnvelope,
    count: int = 200,
    seed: int = 123,
    h: float = 1e-5,
) -> ProbeSummary:
    """Cone membership of the finite-difference Hessian at smooth points."""
    m = envelope.m
    tested, _, hessians = _smooth_hessians(envelope, count, seed, h)
    eigs = np.linalg.eigvalsh(hessians)
    margins = core.elementary_symmetric_all(eigs, m)[:, 1:].min(axis=1)
    return ProbeSummary(
        points_tested=tested,
        points_smooth=len(hessians),
        min_margin=float(margins.min()) if margins.size else 0.0,
        scale=(1.0 + float(np.abs(eigs).max(initial=0.0))) ** m,
    )


def lalpha_probe(
    envelope: BarrierEnvelope,
    f,
    count: int = 60,
    alpha_samples: int = 20,
    seed: int = 321,
    h: float = 1e-5,
) -> ProbeSummary:
    """Sampled subsolution test: l_alpha(v) >= f^(1/m) at smooth points."""
    n = envelope.domain.n
    m = envelope.m
    tested, zs, hessians = _smooth_hessians(envelope, count, seed, h)
    # one (point, alpha tuple) stack of m-tuples (hessian, a_1, ..., a_{m-1})
    tuples = np.empty((len(zs), alpha_samples if m >= 2 else 1, m, n, n), dtype=complex)
    tuples[:, :, 0] = hessians[:, None]
    if m >= 2:
        alphas = core.sample_sigma_m(n, m, alpha_samples * (m - 1), seed + 1)
        tuples[:, :, 1:] = alphas.reshape(alpha_samples, m - 1, n, n)
    target = np.zeros(len(zs))
    if f is not None and len(zs):
        # Python float roots, as rounded when each point was taken alone
        target = np.array([v ** (1.0 / m) for v in np.asarray(f(zs), dtype=float).tolist()])
    margins = core.polarized_form(tuples) - target[:, None]
    return ProbeSummary(
        points_tested=tested,
        points_smooth=len(hessians),
        min_margin=float(margins.min()) if margins.size else 0.0,
        scale=1.0,
    )
