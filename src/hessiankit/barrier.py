"""Point barriers, sub/supersolution envelopes, and modulus verification.

Construction per boundary point xi, for boundary data phi on a domain
centred at 0, density bound K1 = sup f^(1/m) and K2 = K1 |xi|^2:

* shifted data      phitilde = phi - K1 |z|^2 + K2
* cone quadratic    g(z) = B rho(z) - |z - xi|^2, with B large enough that
                    B hess(rho) - I stays in the cone (so g is m-sh)
* profile           chi(t) = -omega_bar((-t)^(1/2)), the concave majorant
                    omega_bar of the shifted data's modulus, which makes
                    chi convex nondecreasing on [-d^2, 0]
* near-field        h(z) = chi(g(z)) + phitilde(xi), with chi held at
                    -omega_bar(d) for g < -d^2: the constant extension
                    stays convex nondecreasing, so h is m-sh wherever g is
* glue              h_xi = max(gamma1 (h - phitilde(xi)) + phitilde(xi),
                    floor + K2) inside B(xi, r1), r1 = d/2, constant
                    floor + K2 outside, with floor = inf phi - K1 max|z|^2
                    over the boundary (so floor + K2 <= phitilde there) and
                    gamma1 large enough that the first branch drops below
                    floor + K2 on the gluing sphere
* barrier           v_xi = h_xi + K1 |z|^2 - K2.

B, r1, gamma1, K1 and floor are uniform in xi (K2 cancels from the
oscillation of phitilde), so every barrier shares the far branch
floor + K1 |z|^2 and only xi and K2 vary per row.  Then v_xi(xi) = phi(xi),
v_xi <= phi on the boundary, and the envelope v = max over sampled xi is a
subsolution agreeing with phi at the samples.  Evaluating it, a near
branch is formed only at a pair inside B(xi, r1) that can beat the far
branch: the barriers sit in kd leaves, and a point skips every leaf whose
bounding box of xi lies outside B(z, r1) or past the leaf's far-dominance
threshold on -g (``BarrierEnvelope``), bit for bit.  The supersolution is
the negated envelope built for -phi.

All inequalities above are exact when the modulus curve supplied with the
boundary data majorizes the true modulus (the named data sets ship exact
curves).  Empirically estimated curves can undershoot at separations finer
than the boundary sampling; reports carry the sample counts so that error
is attributable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import core
from .errors import ArgumentError, DomainError, spec_number
from .geometry import Domain, pseudoconvexity_constant, sample_boundary, sample_interior
from .modulus import (
    HolderFit,
    ModulusCurve,
    _leaf_order,
    _square_sum,
    concave_majorant,
    estimate_modulus,
    holder_fit,
    linear_curve,
)

RHO_SNAP = 1e-13  # defining-function values this close to 0 count as boundary


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
    inf_phi: float
    sup_phi: float
    anchors: np.ndarray | None = None
    name: str = "custom"

    def negated(self) -> "BoundaryData":
        f = self.phi
        return BoundaryData(
            phi=lambda z: -f(z),
            omega_phi=self.omega_phi,
            inf_phi=-self.sup_phi,
            sup_phi=-self.inf_phi,
            anchors=self.anchors,
            name=f"neg({self.name})",
        )


def _axis_point(domain: Domain, sign: float) -> np.ndarray:
    z = np.zeros(domain.n, dtype=complex)
    z[0] = sign * domain.semi_axes()[0]
    return z


def boundary_re_z1(domain: Domain) -> BoundaryData:
    """phi(z) = Re z_1; exact modulus slope 1."""
    d = domain.diameter
    x_max = float(domain.semi_axes()[0])
    return BoundaryData(
        phi=lambda z: np.asarray(z, dtype=complex)[..., 0].real,
        omega_phi=linear_curve(1.0, d),
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
    return BoundaryData(
        phi=psi_example_solution,
        omega_phi=linear_curve(0.5, domain.diameter),
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
        return boundary_const(domain, spec_number(spec.split(":", 1)[1], spec))
    raise ArgumentError(f"unknown boundary data {spec!r}")


def psi_example_solution(z):
    """Exact zero-density solution with psi_sqrt boundary data (m >= 2)."""
    x = np.asarray(z, dtype=complex)[..., 0].real
    return -np.sqrt(np.maximum(1.0 + x, 0.0) / 2.0)


# ---------------------------------------------------------------------------
# Parameter derivation


@dataclass
class BarrierParams:
    """Parameters of K point barriers, one row per boundary point xi.

    ``K2`` is a (K,) array and ``xi`` is (K, n); ``B``, ``r1``, ``gamma1``,
    ``K1`` and the far-branch constant ``floor`` are shared by every row.
    """

    B: float
    r1: float
    gamma1: float
    floor: float
    K1: float
    K2: np.ndarray
    xi: np.ndarray

    def __len__(self):
        return self.xi.shape[0]

    def __getitem__(self, i: int) -> "BarrierParams":
        """The parameters of barrier i alone."""
        return replace(self, K2=self.K2[[i]], xi=self.xi[[i]])

    def describe(self) -> dict:
        """Scalar parameters of the first barrier; gamma2 is its far-branch
        constant floor + K2."""
        k2 = self.K2[0].item()
        return {"B": self.B, "K1": self.K1, "r1": self.r1, "gamma1": self.gamma1,
                "gamma2": self.floor + k2, "K2": k2}


def cone_coefficient(domain: Domain, m: int) -> float:
    """The least double >= 2^k / A for the least k >= 0 with B hess(rho) - I
    in the cone.

    A is the pseudoconvexity constant.  With A = p / q as a rational, B a - 1
    is a positive multiple of 2^k q a - p, tested by the exact rule of
    ``core.gamma_m_contains``: all of its H_1..H_m are >= 0.  Rounding B up
    keeps it in the cone where 2^k / A is on its edge.  Every entry is >= 0
    once B >= 1 / min(a); if B max(a) leaves the double range first,
    DomainError says so.
    """
    b = 1.0 / pseudoconvexity_constant(domain, m)
    a = domain.coeffs
    h, den = core._exact_symmetric(a, m)
    p, q = min(Fraction(h[j], math.comb(domain.n, j) * den**j)
               for j in range(1, m + 1)).as_integer_ratio()
    while math.isfinite(b * max(a)):
        if core._in_closed_cone([Fraction(x) * q - p for x in a], m):
            b = float(Fraction(q, p))  # correctly rounded, so at most an ulp below
            return b if Fraction(b) >= Fraction(q, p) else math.nextafter(b, math.inf)
        b, q = 2.0 * b, 2 * q  # doubling is exact: b is the double 2^k / A
    raise DomainError(f"B hess(rho) - I with B = {b!r} leaves the double range: B max(a) = "
                      f"{b * max(a)!r} must not exceed {sys.float_info.max!r}")


def shifted_modulus_majorant(data: BoundaryData, k1: float, diameter: float) -> ModulusCurve:
    """Concave majorant valid for phi - K1 |z|^2.

    The quadratic part moves by at most 2 d K1 per unit step, so adding the
    linear term 2 d K1 t to the data curve keeps a certified majorant; the
    hull of the sum is then taken.
    """
    base = data.omega_phi
    lifted = ModulusCurve(base.t, base.w + 2.0 * diameter * k1 * base.t)
    return concave_majorant(lifted)


# ---------------------------------------------------------------------------
# Evaluators

# points x padded barriers per evaluation block, cache-sized: a block's
# (points, leaves) box separations hold 1 / XI_LEAF of that, and its
# (XI_LEAF, pairs) blocks, one column per (point, leaf) that passes, at most
# all of it, 1 MiB per float temporary
BLOCK_ELEMENTS = 2**17
# barriers per kd leaf of an envelope; __call__ tests a point against a
# whole leaf before it forms any of the leaf's pairs
XI_LEAF = 8
# relative slack of those tests over the roundings they absorb, about
# 4500 ulps: ample for hundreds of coordinates
SKIP_MARGIN = 1e-12


class BarrierEnvelope:
    """Pointwise maximum of K point barriers; the constructed subsolution.

    ``barriers`` holds the parameters of all K barriers and
    ``phi_xi`` the (K,) data values at their boundary points.

    ``__call__`` evaluates a near branch only where it can be the value.
    The barriers sit in kd leaves of ``XI_LEAF`` (``modulus._leaf_order``
    on the 2n real coordinates of xi; copies of the last barrier pad the
    last leaf, and equal branches leave the max unchanged).  A point meets
    a leaf only if its squared separation sep2 from the leaf's bounding
    box of xi passes both tests:

    * inside: sep2 < r1^2, else every pair of the leaf has
      s = |z - xi|^2 >= r1^2 and no live near branch;
    * dominance: sep2 - B rho(z) <= the leaf's largest tau, where tau_k
      is the threshold on neg_g = s - B rho past which barrier k's near
      branch is below the far branch.

    A point block's box separations form a (points, leaves) array.  The
    (point, leaf) pairs that pass are the columns of an (XI_LEAF, pairs)
    block, read from leaf-major (XI_LEAF, leaves) tables of barrier ids,
    tau and each xi_j, so no index is expanded per pair.  A pair of the
    block is kept when s < r1^2 and s - B rho <= tau_k, with s summed over
    the coordinates of the pair; only kept pairs reach ``_near``.
    ``_live`` yields them block by block, and ``__call__`` and
    ``branch_info`` both read them.  Both
    skips hold for the computed values, so ``__call__`` is bit for bit the
    maximum over every branch:

    * s sums |z_j - xi_j|^2 through complex ``abs`` (a hypot within a few
      ulps), sep2 the squared real separations max(lo - x, x - hi, 0).
      Rounding is monotone, so each real difference of a pair is at least
      its box separation, and s >= sep2 (1 - c u) with c a few units per
      coordinate, up to underflow of a few 2^-1075 per coordinate.  So
      lb = sep2 (1 - SKIP_MARGIN) - tiny is at most s, and
      fl(s - B rho) >= fl(lb - B rho) for the same computed B rho.
    * tau_k: the near branch is (gamma1 chi + phi_k) + (sz - K2_k) with
      chi = -omega_bar(sqrt(neg_g)), the far branch floor + sz.  Where
      s < r1^2, |z| < |xi_k| + r1 up to rounding, so every term is below
      S = |floor| + max|phi| + max K2 + 2 K1 (max|xi| + r1)^2
      + gamma1 max omega_bar, and the sums inside near and far err by a
      few ulps of S.  The near branch thus computes below the far branch,
      by about SKIP_MARGIN S, once the interpolated omega_bar exceeds
      (phi_k - K2_k - floor + SKIP_MARGIN S) / gamma1.  ``np.interp``
      returns knot values exactly and adds a nonnegative term to the left
      knot's value in between, so it reads at least w_j at every
      x >= t_j.  With t_j the first knot whose value exceeds that level,
      tau_k = t_j^2 (1 + SKIP_MARGIN) keeps sqrt(neg_g) >= t_j whenever
      neg_g > tau_k; tau_k = +inf when no knot does (flat or nearly flat data).
    * ``max`` does not round, and no branch is -0.0, so dropping branches
      <= the computed far branch leaves the output's bits unchanged.  A
      point with a non-finite coordinate has no live pair.

    ``branch_info`` sees the same pairs, with -inf for every pair not
    kept, and its first argmax, top value and uniqueness of the maximum
    equal those over every branch.  A pair outside B(xi, r1) has no near
    branch.  A pair skipped inside it lies strictly below the computed
    far branch: the gap of about SKIP_MARGIN S is far above the few ulps
    of S that the roundings take, provided S > 0.  S = 0 only for
    all-zero data with f = 0, where omega_bar is 0, no knot exceeds the
    level 0 and every tau is +inf.  So a skipped branch neither wins nor
    ties, and no branch that reaches the top value is dropped.
    """

    def __init__(self, barriers: BarrierParams, phi_xi, omega_bar: ModulusCurve,
                 domain: Domain, m: int):
        if len(barriers) < 1:
            raise ArgumentError("envelope needs at least one point barrier")
        self.barriers = barriers
        self.phi_xi = np.asarray(phi_xi, dtype=float)
        self.omega_bar = omega_bar
        self.domain = domain
        self.m = m
        self._leaves = self._leaf_tables()

    def _leaf_tables(self):
        """The barriers in kd leaves padded to whole leaves: the leaves'
        (2n, leaves) bounds of xi, and leaf-major (XI_LEAF, leaves) tables
        of the barrier ids, their tau and, per complex coordinate, their
        xi_j, with each leaf's largest tau."""
        p = self.barriers
        bar = self.omega_bar
        cols = np.concatenate([p.xi.real, p.xi.imag], axis=1).T
        order = _leaf_order(cols, XI_LEAF)
        order = np.concatenate([order, np.repeat(order[-1], -len(order) % XI_LEAF)])
        boxes = cols[:, order].reshape(cols.shape[0], -1, XI_LEAF)
        slots = np.ascontiguousarray(order.reshape(-1, XI_LEAF).T)
        r_xi = np.sqrt((np.abs(p.xi) ** 2).sum(axis=-1)).max()
        # an overflow or NaN level sorts past the last knot: tau = +inf
        with np.errstate(over="ignore", invalid="ignore"):
            scale = (abs(p.floor) + np.abs(self.phi_xi).max() + p.K2.max()
                     + 2.0 * p.K1 * np.square(r_xi + p.r1) + p.gamma1 * bar.w[-1])
            level = (self.phi_xi - p.K2 - p.floor + SKIP_MARGIN * scale) / p.gamma1
            knot = np.searchsorted(bar.w, level[slots], side="right")
            tau = np.append(bar.t, np.inf)[knot] ** 2 * (1.0 + SKIP_MARGIN)
        xi = [p.xi[slots, j] for j in range(p.xi.shape[1])]
        return slots, boxes.min(axis=2), boxes.max(axis=2), tau, tau.max(axis=0), xi

    def _point_terms(self, zb):
        """B rho and the quadratic shift sz = K1 |z|^2 of the points zb."""
        p = self.barriers
        rho = self.domain.rho(zb)
        rho = np.where(np.abs(rho) < RHO_SNAP, 0.0, rho)
        if p.K1:
            return p.B * rho, p.K1 * (np.abs(zb) ** 2).sum(axis=-1)
        # K1 = 0: sz = 0 also where |z|^2 overflows; a non-finite coordinate
        # still reads NaN
        return p.B * rho, np.where(np.isfinite(zb).all(axis=-1), 0.0, np.nan)

    def _near(self, neg_g, sz, k):
        """Near branches of barriers k at pairs with -g = neg_g >= 0 and
        quadratic shift sz."""
        p = self.barriers
        bar = self.omega_bar
        # omega_bar held at its last value past its last knot keeps chi
        # convex nondecreasing
        chi = -np.interp(np.sqrt(neg_g), bar.t, bar.w)
        return (p.gamma1 * chi + self.phi_xi[k]) + (sz - p.K2[k])

    def _hessians(self, z, branch):
        """Exact complex Hessians d_j dbar_l, a (points, n, n) stack, of the
        branches ``branch`` (ids as in ``branch_info``) at the points z.

        The far branch floor + K1 |z|^2 has K1 I.  The near branch of
        barrier k is -gamma1 (a + b x) + K1 |z|^2 + const on the segment of
        omega_bar, of slope b, that holds x = sqrt(-g), -g = |z - xi_k|^2 -
        B rho(z).  With D = I - B hess(rho) and v = dbar(-g) = (z - xi_k) -
        B hess(rho) z, that is K1 I - gamma1 b (D / (2x) - conj(v) v^T /
        (4 x^3)); b = 0 past the last knot.
        """
        p = self.barriers
        bar = self.omega_bar
        n = z.shape[-1]
        diag = self.domain.hess_diag()
        out = np.tile(p.K1 * np.eye(n, dtype=complex), (len(z), 1, 1))
        near = branch > 0
        zn, k = z[near], branch[near] - 1
        s = sum(np.abs(zn[:, j] - p.xi[k, j]) ** 2 for j in range(n))
        x = np.sqrt(np.maximum(s - self._point_terms(zn)[0], 0.0))[:, None, None]
        slope = np.append(np.diff(bar.w) / np.diff(bar.t), 0.0)
        b = slope[np.searchsorted(bar.t, x, side="right") - 1]
        v = (zn - p.xi[k]) - p.B * zn * diag
        dx = (np.diag(1.0 - p.B * diag) / (2.0 * x)
              - v.conj()[:, :, None] * v[:, None, :] / (4.0 * x**3))
        out[near] -= p.gamma1 * b * dx
        return out

    def _live(self, z):
        """Yield (rows, far, i, k, near) over point blocks of the (points, n)
        array z.

        ``far`` is the block's (points,) far branch floor + K1 |z|^2 that
        every barrier shares; ``near`` holds the near branches of barriers
        ``k`` at the block's rows ``i``, for the pairs the leaf skip keeps.
        A barrier padding the last leaf repeats its own pairs.
        """
        p = self.barriers
        slots, lo, hi, tau, tau_leaf, xi = self._leaves
        r1_sq = p.r1 * p.r1
        tiny = np.finfo(float).tiny
        step = max(1, BLOCK_ELEMENTS // slots.size)
        for a in range(0, z.shape[0], step):
            rows = slice(a, a + step)
            zb = z[rows]
            brho, sz = self._point_terms(zb)
            zc = zb.T.copy()  # one contiguous array per coordinate
            seps = (np.maximum(np.maximum(l - c[:, None], c[:, None] - h), 0.0)
                    for c, l, h in zip(np.concatenate([zc.real, zc.imag]), lo, hi))
            # a lower bound of s on each (point, leaf) block
            lb = _square_sum(seps) * (1.0 - SKIP_MARGIN) - tiny
            with np.errstate(invalid="ignore"):  # inf - inf at non-finite points
                i, leaf = np.nonzero((lb < r1_sq) & (lb - brho[:, None] <= tau_leaf))
            # the (XI_LEAF, pairs) block of the kept (point, leaf) pairs
            s = sum(np.abs(c.take(i) - x.take(leaf, axis=1)) ** 2 for c, x in zip(zc, xi))
            d = s - brho.take(i)
            keep = (s < r1_sq) & (d <= tau.take(leaf, axis=1))
            slot, pair = np.nonzero(keep)
            k = slots[slot, leaf[pair]]
            i = i[pair]
            yield rows, p.floor + sz, i, k, self._near(np.maximum(d[keep], 0.0), sz[i], k)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_2d(z)
        out = np.empty(flat.shape[0])
        for rows, far, i, _, near in self._live(flat):
            np.maximum.at(far, i, near)
            out[rows] = far
            # release this block's pairs before _live forms the next block's
            del far, i, near
        return out[0] if z.ndim == 1 else out

    def branch_info(self, z):
        """Active branch id, whether its value is attained once, and value.

        The branches are [far, near_0, ..., near_{K-1}]: branch 0 is the far
        branch, branch i >= 1 the near field of barrier i - 1.  The id is the
        first argmax, ``unique`` says no other branch reaches the top value,
        and the top value is the envelope value, since max does not round.
        Where the maximum is attained once, the envelope is that one branch
        around the point, whose Hessian ``_hessians`` gives.
        """
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        branch = np.empty(z.shape[0], dtype=int)
        unique = np.empty(z.shape[0], dtype=bool)
        top = np.empty(z.shape[0])
        for rows, far, i, k, near in self._live(z):
            vals = np.full((far.size, len(self.barriers) + 1), -np.inf)
            vals[:, 0] = far
            vals[i, k + 1] = near
            branch[rows] = np.argmax(vals, axis=1)
            ranked = np.partition(vals, -2, axis=1)
            top[rows] = ranked[:, -1]
            unique[rows] = ranked[:, -1] > ranked[:, -2]
        return branch, unique, top

    def boundary_values(self):
        """The boundary points xi, the envelope there and the data phi(xi)."""
        xis = self.barriers.xi
        return xis, self(xis), self.phi_xi


class NegatedEnvelope:
    """Supersolution: the negative of an envelope built for negated data."""

    def __init__(self, inner: BarrierEnvelope):
        self.inner = inner

    def __call__(self, z):
        return -self.inner(z)


# ---------------------------------------------------------------------------
# Builders


def _density_root(f_sup: float, m: int, domain: Domain) -> float:
    """K1 = f_sup^(1/m), once m and the density bound are checked."""
    if not 1 <= m <= domain.n:
        raise ArgumentError(f"m={m} out of range for n={domain.n}")
    if not (math.isfinite(f_sup) and f_sup >= 0):
        raise ArgumentError(f"f_sup must be finite and >= 0, got {f_sup}")
    return f_sup ** (1.0 / m)


def _envelope(xis, data: BoundaryData, domain: Domain, m: int,
              f_sup: float) -> BarrierEnvelope:
    """Envelope of the barriers at the boundary points xis (K, n).

    Checks m and the density bound and derives every barrier parameter;
    row i depends only on its own xi.
    """
    k1 = _density_root(f_sup, m, domain)
    d = domain.diameter
    omega_bar = shifted_modulus_majorant(data, k1, d)
    b_coeff = cone_coefficient(domain, m)
    r1 = 0.5 * d

    rmin, rmax = domain.boundary_radius_range()
    floor = data.inf_phi - k1 * rmax**2
    # the oscillation of phitilde on the boundary; K2 cancels from it
    osc = max((data.sup_phi - k1 * rmin**2) - floor, 0.0)
    bar_r1 = float(omega_bar(r1))
    # the first branch must drop below floor + K2 on the gluing sphere
    lift = osc / bar_r1 if bar_r1 > 0.0 else 0.0
    # 5 % above the bound: where omega_bar(r1) > 0 the first branch ends
    # strictly below floor + K2 on the gluing sphere, with room for rounding
    gamma1 = 1.05 * max(d / r1, lift)

    params = BarrierParams(B=b_coeff, r1=r1, gamma1=gamma1, floor=floor, K1=k1,
                           K2=k1 * (np.abs(xis) ** 2).sum(axis=-1), xi=xis)
    phi_xi = np.asarray(data.phi(xis), dtype=float)
    return BarrierEnvelope(params, phi_xi, omega_bar, domain, m)


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

    ``f`` is the density evaluator (None means zero) and ``f_sup`` a bound
    of its supremum, required with a density: a sampled maximum would
    undercut the true sup.  ``seed`` drives the boundary samples.
    """
    if xi_count < 1:
        raise ArgumentError("xi_count must be >= 1")
    if f_sup is None:
        if f is not None:
            raise ArgumentError("a density needs its bound f_sup")
        f_sup = 0.0
    xis = sample_boundary(domain, xi_count, seed)
    return _envelope(xis, data, domain, m, f_sup)


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


def verification_grid(domain: Domain, count: int, seed: int, anchors=None) -> np.ndarray:
    """Interior evaluation grid: uniform bulk plus rays toward anchors.

    Rays approach the anchors with depths graded geometrically from 1e-6,
    which is what resolves boundary-degenerate moduli; the bulk covers
    everything else.
    """
    bulk_count = count if anchors is None or len(anchors) == 0 else max(count // 2, 1)
    parts = [sample_interior(domain, bulk_count, seed)]
    if anchors is not None and len(anchors) > 0:
        per = max((count - bulk_count) // len(anchors), 2)
        for a in np.asarray(anchors, dtype=complex):
            depths = np.geomspace(1e-6, 1.0, per)
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
) -> BarrierReport:
    """Estimate omega_v on an anchored interior grid and fit the bound

        omega_v(t) <= eta (1 + f_sup^(1/m)) max(omega_phi(sqrt t), sqrt t).

    ``eta_fitted`` is the smallest constant making the bound hold at every
    curve knot; ``ceiling`` (when given) is the acceptance threshold for
    eta, with offending knots listed in ``violations``.
    """
    # one geometric edge would not reach d; one point leaves no bulk sample
    for name, value in (("bins", bins), ("grid", grid)):
        if value < 2:
            raise ArgumentError(f"{name} must be >= 2, got {value}")
    d = domain.diameter
    pts = verification_grid(domain, grid, seed, anchors=data.anchors)
    vals = np.asarray(v(pts), dtype=float)
    reals = np.concatenate([pts.real, pts.imag], axis=1)
    edges = np.geomspace(1e-4 * d, d, bins)
    curve = estimate_modulus(reals, vals, bins=edges, t_max=d)

    factor = 1.0 + _density_root(f_sup_norm, m, domain)
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

    try:
        fit = holder_fit(curve, (5e-4 * d, 5e-2 * d))
    except ArgumentError:
        fit = None  # flat data (constant phi) has no positive knots

    n_anch = 0 if data.anchors is None else len(data.anchors)
    counts = {"grid": int(pts.shape[0]), "anchors": n_anch, "bins": int(bins)}
    if isinstance(v, BarrierEnvelope):
        counts["xi"] = len(v.barriers)
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
# Probes


@dataclass
class ProbeSummary:
    points_tested: int
    points_smooth: int
    points_near: int  # smooth points on a near branch
    min_margin: float
    scale: float = 1.0  # the margins are relative to each point's own scale


def _smooth_hessians(envelope: BarrierEnvelope, count: int, seed: int):
    """Probe point count, and the smooth probe points, their branches and
    their exact complex Hessians (one (points, n, n) stack).

    The probe points are the verification grid anchored at the barrier with
    the largest data value, whose near branch beats the far branch by most,
    so its ray crosses a collar.  A point is smooth when one branch alone
    attains its top value.  Every branch is continuous where it is formed,
    and a near branch ends below the far branch on its gluing sphere, so
    the envelope is that one branch around the point and its Hessian is the
    branch's own (``BarrierEnvelope._hessians``).  Points where branches
    tie are skipped: a max-glue kink only adds positivity there.
    """
    anchor = envelope.barriers.xi[[np.argmax(envelope.phi_xi)]]
    pts = verification_grid(envelope.domain, count, seed, anchors=anchor)
    branch, unique, _ = envelope.branch_info(pts)
    pts, branch = pts[unique], branch[unique]
    return unique.size, pts, branch, envelope._hessians(pts, branch)


def _summary(tested: int, branch, margins) -> ProbeSummary:
    """ProbeSummary of the margins at the smooth points on branches ``branch``."""
    return ProbeSummary(tested, len(branch), int(np.count_nonzero(branch)),
                        float(margins.min()) if margins.size else 0.0)


def msh_probe(
    envelope: BarrierEnvelope,
    count: int = 200,
    seed: int = 123,
) -> ProbeSummary:
    """Cone membership of the exact Hessian at smooth points.

    ``min_margin`` is the least of min_k H_k / (1 + max|lambda|)^m over the
    points, each point's margin taken relative to its own eigenvalues.
    """
    m = envelope.m
    tested, _, branch, hessians = _smooth_hessians(envelope, count, seed)
    eigs = np.linalg.eigvalsh(hessians)
    margins = (core.elementary_symmetric_all(eigs, m)[:, 1:].min(axis=1)
               / (1.0 + np.abs(eigs).max(axis=1)) ** m)
    return _summary(tested, branch, margins)


def lalpha_probe(
    envelope: BarrierEnvelope,
    f,
    count: int = 60,
    alpha_samples: int = 20,
    seed: int = 321,
) -> ProbeSummary:
    """Sampled subsolution test: l_alpha(v) >= f^(1/m) at smooth points."""
    n = envelope.domain.n
    m = envelope.m
    tested, zs, branch, hessians = _smooth_hessians(envelope, count, seed)
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
    return _summary(tested, branch, margins)
