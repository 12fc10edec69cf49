"""Moduli of continuity: estimation, concave majorants, scaling bounds, fits.

A modulus is represented by a sampled curve: knots 0 = t_0 < ... < t_K with
values w_i, w_0 = 0, w nondecreasing, interpolated piecewise linearly in
between.  The least concave majorant of such a curve is the upper concave
envelope of its knots, which is again piecewise linear and is computed
exactly by a monotone-chain hull scan.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ExtrapolationError

PAIR_SUBSAMPLE_THRESHOLD = 20000
PAIR_BUDGET = 20_000_000
# pairs per filter slice; the curve's lower bound is refreshed after each,
# and each slice of the subsampled path draws its own i's, then its j's
FILTER_SLICE = 2**16
# that lower bound is kept per cell of d2, read from the top bits of d2:
# 2^(52 - SHIFT) = 256 cells per octave
SHIFT = 44
# points per kd leaf on the exact path, whose pairs are bounded leaf by leaf
LEAF = 32


class ModulusCurve:
    """Piecewise-linear nondecreasing curve on [0, l] with value 0 at 0."""

    __slots__ = ("t", "w")

    def __init__(self, t, w):
        t = np.asarray(t, dtype=float)
        w = np.asarray(w, dtype=float)
        if t.ndim != 1 or t.shape != w.shape or t.size < 2:
            raise ArgumentError("curve needs matching 1-d knots with >= 2 points")
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise ArgumentError("curve knots must be finite")
        if t[0] != 0.0 or w[0] != 0.0:
            raise ArgumentError("curve must start at (0, 0)")
        if (t[1:] <= t[:-1]).any():
            raise ArgumentError("knot abscissae must be strictly increasing")
        # from w[0] = 0, nondecreasing values are nonnegative
        if (w[1:] < w[:-1]).any():
            raise ArgumentError("curve values must be nonnegative and nondecreasing")
        self.t = t
        self.w = w

    @property
    def length(self) -> float:
        return float(self.t[-1])

    def __call__(self, x):
        return np.interp(x, self.t, self.w)

    def __len__(self):
        return self.t.size

    def __eq__(self, other):
        return (
            isinstance(other, ModulusCurve)
            and self.t.shape == other.t.shape
            and bool(np.all(self.t == other.t))
            and bool(np.all(self.w == other.w))
        )

    def __repr__(self):
        return f"ModulusCurve({len(self)} knots on [0, {self.length!r}])"

    # -- serialization: 17 significant digits round-trip float64 exactly

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,w\n")
        for ti, wi in zip(self.t, self.w):
            buf.write(f"{ti:.17g},{wi:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ModulusCurve":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].strip() != "t,w":
            raise ArgumentError("curve CSV must start with a 't,w' header")
        rows = [ln.split(",") for ln in lines[1:]]
        t = np.array([float(r[0]) for r in rows])
        w = np.array([float(r[1]) for r in rows])
        return cls(t, w)


def linear_curve(slope: float, length: float) -> ModulusCurve:
    """Exact sampled curve of t -> slope * t on [0, length], 257 knots."""
    t = np.linspace(0.0, length, 257)
    return ModulusCurve(t, slope * t)


def estimate_modulus(
    points,
    values,
    bins: int | np.ndarray = 200,
    t_max: float | None = None,
    *,
    seed: int = 0,
    pair_threshold: int = PAIR_SUBSAMPLE_THRESHOLD,
    pair_budget: int = PAIR_BUDGET,
) -> ModulusCurve:
    """Empirical modulus of a sampled function.

    Forms pairwise (|x - y|, |v(x) - v(y)|), takes the supremum of the value
    gaps inside each distance bin on [0, t_max], then a running maximum to
    enforce monotonicity.  All pairs are used up to ``pair_threshold``
    points; beyond that a seeded random subset of ``pair_budget`` pairs,
    drawn one ``FILTER_SLICE`` at a time (its i's, then its j's), so a
    smaller budget's pairs are a prefix of a larger one's.  A slice gathers
    its values and first coordinates, and only the pairs that pass the
    filter below on the first coordinate's squares, a lower bound of their
    d2, gather the other coordinates.  At 30,000 points the sampled path
    allocates about 4.5 MB in all.

    ``bins`` may be a count (linear bins) or an ascending array of positive
    bin right-edges, e.g. geometric edges when small separations matter.

    A pair's distance is sqrt(d2), with d2 its squared coordinate
    differences summed in coordinate order.  A pair whose gap cannot raise
    the running maximum at its bin is skipped by a lower-bound filter
    (``_RunningCurve``) on the same d2; the curve is bit for bit the one of
    binning every pair.  On the exact path the points go into kd-leaf order
    (``_leaf_order``) and each leaf of ``LEAF`` points meets every point up
    to its end.  A point is first tested against the whole leaf, with its
    separation from the leaf's bounding box and its largest gap to the
    leaf's value range; only the points that pass form pairs with the leaf.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n < 2 or vals.shape != (n,):
        raise ArgumentError("need >= 2 points with one value per point")
    if pair_budget < 1:
        raise ArgumentError("pair_budget must be >= 1")
    if seed < 0:
        raise ArgumentError("seed must be >= 0")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
        raise ArgumentError("points and values must be finite")
    if t_max is not None and not t_max > 0:
        raise ArgumentError("t_max must be positive")

    if np.isscalar(bins) or np.ndim(bins) == 0:
        k = int(bins)
        if k < 1:
            raise ArgumentError("bin count must be >= 1")
        if t_max is None:
            t_max = _diameter_estimate(pts)
        edges = np.linspace(0.0, float(t_max), k + 1)[1:]
    else:
        edges = np.asarray(bins, dtype=float)
        if edges.ndim != 1 or edges.size < 1 or edges[0] <= 0 or np.any(np.diff(edges) <= 0):
            raise ArgumentError("bin edges must be positive and increasing")
        if t_max is not None and abs(edges[-1] - t_max) > 1e-12 * max(1.0, t_max):
            raise ArgumentError("explicit edges must end at t_max")
    if not np.all(np.isfinite(edges)):
        raise ArgumentError("bin edges must be finite")

    curve = _RunningCurve(edges)
    # one contiguous row per coordinate for d2; points without coordinates
    # get one zero coordinate
    cols = np.ascontiguousarray(pts.T) if pts.shape[1] else np.zeros((1, n))
    if n <= pair_threshold:
        order = _leaf_order(cols)
        vals, cols = vals[order], cols[:, order]
        # rows per block, half a slice of pairs: more of the pairs of rows
        # that pass a leaf bound reach exact binning than of an unfiltered slice
        step = FILTER_SLICE // (2 * LEAF)
        for s in range(0, n, LEAF):
            e = min(s + LEAF, n)
            # points 0..e-1 against the leaf s..e-1 cover every pair once
            # with its later point in the leaf; pairs inside the leaf come
            # twice with the same bits, and the zero diagonal adds gap 0 to
            # the first bin, so neither raises the curve
            lo, hi = cols[:, s:e].min(axis=1), cols[:, s:e].max(axis=1)
            vlo, vhi = vals[s:e].min(), vals[s:e].max()
            bound = np.maximum(vhi - vals[:e], vals[:e] - vlo)
            # only points whose bound can beat the floor meet the leaf
            rows = np.flatnonzero(curve.may_raise(bound, _box_d2(cols[:, :e], lo, hi)))
            for a in range(0, rows.size, step):
                r = rows[a : a + step]
                gaps = np.abs(vals[r, None] - vals[None, s:e])
                curve.add(gaps, _square_sum(col[r, None] - col[None, s:e] for col in cols))
    else:
        rng = np.random.default_rng(seed)
        # one slice of gathers, reused: fresh arrays of a few MB per slice
        # go back to the system and fault in again at every slice
        buf = np.empty((3, FILTER_SLICE))
        budget = int(pair_budget)
        for s in range(0, budget, FILTER_SLICE):
            size = min(FILTER_SLICE, budget - s)
            i = rng.integers(0, n, size)
            j = rng.integers(0, n - 1, size)  # then j = (i + 1 + j) % n
            j += i
            j += 1
            gaps, d2, other = buf[:, :size]
            # i + 1 + j < 2n, and as unsigned j - n wraps past j exactly
            # when j < n: the minimum is j % n without a division
            u = j.view(np.uint64)
            np.minimum(u, np.subtract(u, n, out=other.view(np.uint64)), out=u)
            del u  # a view would keep the whole slice of j alive
            # the indices are in range, so mode="wrap" gathers straight
            # into out, where mode="raise" gathers into a copy first
            vals.take(i, out=gaps, mode="wrap")
            gaps -= vals.take(j, out=other, mode="wrap")
            np.abs(gaps, out=gaps)
            d2 = _square_sum([np.subtract(cols[0].take(i, out=d2, mode="wrap"),
                                          cols[0].take(j, out=other, mode="wrap"), out=d2)])
            # fl(a + b) >= a for b >= 0, so the first coordinate's
            # squares bound d2 from below, and the floor is nondecreasing
            # in d2: only the pairs that pass on them gather the rest
            idx = np.flatnonzero(curve.may_raise(gaps, d2))
            k = idx.size
            # their gaps and partial d2 move to the front of their rows
            # (numpy gathers into an overlapping out through a copy);
            # one index array at a time, so the heap holds at most four
            # slice-sized arrays, as when every pair gathered everything
            gaps = gaps.take(idx, out=gaps[:k], mode="wrap")
            d2 = d2.take(idx, out=d2[:k], mode="wrap")
            i = i.take(idx, mode="wrap")
            j = j.take(idx, mode="wrap")
            del idx
            other = other[:k]
            d2 = _square_sum((np.subtract(col.take(i, out=other, mode="wrap"),
                                          col.take(j, mode="wrap"), out=other)
                              for col in cols[1:]), d2)
            curve.add(gaps, d2)

    w = np.maximum.accumulate(curve.sup[:-1])
    t = np.concatenate(([0.0], edges))
    return ModulusCurve(t, np.concatenate(([0.0], w)))


def _square_sum(diffs, d2=None):
    """d2 of pairs whose differences ``diffs`` yields one coordinate at a
    time: squared and summed in place, in coordinate order, after the
    partial sum ``d2`` of the coordinates before them if one is given."""
    with np.errstate(over="ignore", under="ignore"):
        for diff in diffs:
            np.square(diff, out=diff)
            d2 = diff if d2 is None else np.add(d2, diff, out=d2)
    return d2


def _box_d2(coords, lo, hi):
    """``_square_sum`` of the separations max(l - x, x - h, 0) from boxes [lo, hi]."""
    return _square_sum(np.maximum(np.maximum(l - x, x - h), 0.0)
                       for x, l, h in zip(coords, lo, hi))


class _RunningCurve:
    """Per-bin supremum of the binned gaps, with a lower bound that filters pairs.

    After the running maximum, the curve at bin k is the largest gap of a
    pair in bins 0..k, so a pair can raise it only if its gap beats the
    running maximum at its own bin.  Non-negative doubles order like their
    bits, so the cell ``d2.view(np.int64) >> SHIFT`` is monotone in d2.
    The cells run from that of edges[0]^2 / 4 (the largest double when it
    overflows), in bin 0, to that of 4 edges[-1]^2 (+inf when it
    overflows), past the last edge; a d2 outside reads the end cell.
    ``floor[c]`` is the running maximum at the bin of cell c's lower end,
    and d2 -> sqrt(d2) -> bin is monotone, so a pair the filter drops has
    a gap no larger than the curve already holds at its bin: the final
    curve is bit for bit the one of binning every pair.  Survivors are
    binned at sqrt(d2).

    ``may_raise`` also tests a point against a box of points: the d2 of its
    separations max(lo - x, x - hi, 0) and the gap bound max(vmax - v,
    v - vmin).  Rounding is monotone, so every pair's d2 is at least the
    box's and its gap at most the bound; the floor is nondecreasing in the
    cell, so a point the box test drops has no pair the filter would keep.
    """

    def __init__(self, edges):
        self.edges = edges
        # bin edges.size, past the last edge, holds +inf
        self.sup = np.append(np.zeros(edges.size), np.inf)
        with np.errstate(over="ignore", under="ignore"):
            low = min(edges[0] ** 2 / 4, np.finfo(float).max)
            ends = np.array([low, 4 * edges[-1] ** 2])
        self.first, last = ends.view(np.int64) >> SHIFT
        lower = (np.arange(self.first, last + 1) << SHIFT).view(np.float64)
        self.cell_bin = np.searchsorted(edges, np.sqrt(lower), side="left")
        self._refresh()

    def may_raise(self, gaps, d2):
        """Mask of the pairs whose gap beats the floor of their d2's cell."""
        # in place: one int64 and one float temporary per call
        cells = d2.view(np.int64) >> SHIFT
        cells -= self.first
        return gaps > self.floor.take(cells, mode="clip")

    def add(self, gaps, d2):
        """Bin the pairs that pass the filter at sqrt(d2); refresh the floor
        if any did (a wide span of edges makes the cell table long)."""
        keep = self.may_raise(gaps, d2)
        if keep.any():
            idx = np.searchsorted(self.edges, np.sqrt(d2[keep]), side="left")
            np.maximum.at(self.sup, idx, gaps[keep])
            self._refresh()

    def _refresh(self):
        self.floor = np.maximum.accumulate(self.sup).take(self.cell_bin)


def _leaf_order(cols, leaf=LEAF):
    """Permutation of the points (columns of ``cols``) into kd-leaf order.

    Each segment of more than ``leaf`` points is split on its widest
    coordinate, the lower part taking half its leaves, so every leaf but
    the last is ``leaf`` consecutive points starting at a multiple of
    ``leaf``.  ``estimate_modulus`` orders its points in leaves of
    ``LEAF``; ``barrier.BarrierEnvelope`` orders its barriers' centres xi
    in leaves of ``barrier.XI_LEAF``, whose bounding boxes bound every
    (point, xi) distance of a leaf at once.
    """
    n = cols.shape[1]
    order = np.arange(n)
    stack = [(0, n)]
    while stack:
        a, b = stack.pop()
        if b - a <= leaf:
            continue
        seg = cols[:, order[a:b]]
        axis = int(np.argmax(seg.max(axis=1) - seg.min(axis=1)))
        half = leaf * (-(-(b - a) // leaf) // 2)
        order[a:b] = order[a:b][np.argpartition(seg[axis], half)]
        stack += [(a, a + half), (a + half, b)]
    return order


def _diameter_estimate(pts) -> float:
    ext = pts.max(axis=0) - pts.min(axis=0)
    with np.errstate(over="ignore", under="ignore"):
        d = float(np.sqrt((ext**2).sum()))
        if d in (0.0, np.inf) and ext.any() and np.all(np.isfinite(ext)):
            # the squares leave the double range: scale by the largest extent
            top = ext.max()
            d = float(top * np.sqrt(((ext / top) ** 2).sum()))
    return d if d > 0 else 1.0


def concave_majorant(curve: ModulusCurve) -> ModulusCurve:
    """Least concave majorant: the upper concave envelope of the knots.

    Monotone-chain scan over the knots in increasing t; a knot is dropped
    exactly when it lies strictly below the chord of its hull neighbours, so
    concave inputs (including collinear runs) come back unchanged and the
    operation is idempotent.  The scan runs on Python floats, whose
    arithmetic is the same IEEE double arithmetic as numpy's scalars, on t
    and w scaled by powers of two to a largest knot in [0.5, 1): the
    scaling is exact, and the cross products cannot overflow, nor underflow
    as the curve's scale shrinks.  The hull keeps the curve's own knots.

    Until its first pop the scan tests consecutive knots only, so when no
    consecutive triple's cross product, taken with the scan's own operands
    on the scaled arrays, is positive, it pops nothing: copies of the knots
    come back without it, as for a majorant hulled again.
    """
    t = np.ldexp(curve.t, -np.frexp(curve.t[-1])[1])
    w = np.ldexp(curve.w, -np.frexp(curve.w[-1])[1])
    ta, tb, ti = t[:-2], t[1:-1], t[2:]
    wa, wb, wi = w[:-2], w[1:-1], w[2:]
    if not ((tb - ta) * (wi - wa) - (wb - wa) * (ti - ta) > 0.0).any():
        return ModulusCurve(curve.t.copy(), curve.w.copy())
    t, w = t.tolist(), w.tolist()
    hull = [0]
    for i in range(1, len(t)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            cross = (t[b] - t[a]) * (w[i] - w[a]) - (w[b] - w[a]) * (t[i] - t[a])
            if cross > 0.0:  # middle knot strictly below the chord
                hull.pop()
            else:
                break
        hull.append(i)
    return ModulusCurve(curve.t[hull], curve.w[hull])


@dataclass
class ScalingBound:
    """Values entering the majorant scaling bound at (eta, t)."""

    omega_scaled: float  # omega(eta t)
    majorant_scaled: float  # omega_bar(eta t)
    bound: float  # (1 + eta) omega(t)
    margin_lower: float  # omega_bar(eta t) - omega(eta t)
    margin_upper: float  # (1 + eta) omega(t) - omega_bar(eta t)


def scaling_bound_check(curve: ModulusCurve, eta: float, t: float) -> ScalingBound:
    """Evaluate omega(eta t) <= omega_bar(eta t) <= (1 + eta) omega(t).

    The upper inequality requires subadditivity of the underlying modulus;
    binned empirical curves may violate it mildly, which shows up as a
    negative ``margin_upper``.
    """
    if eta <= 0 or t <= 0:
        raise ArgumentError("eta and t must be positive")
    s = eta * t
    if s > curve.length * (1 + 1e-12) or t > curve.length * (1 + 1e-12):
        raise ExtrapolationError(
            f"eta*t={s} beyond curve domain [0, {curve.length}]"
        )
    if curve(t) <= 0.0:
        raise ArgumentError("scaling bound needs omega(t) > 0")
    bar = concave_majorant(curve)
    omega_s = float(curve(s))
    bar_s = float(bar(s))
    bound = (1.0 + eta) * float(curve(t))
    return ScalingBound(
        omega_scaled=omega_s,
        majorant_scaled=bar_s,
        bound=bound,
        margin_lower=bar_s - omega_s,
        margin_upper=bound - bar_s,
    )


@dataclass
class HolderFit:
    """Log-log least squares fit of a curve over a window."""

    exponent: float
    constant: float
    r_squared: float
    fit_window: tuple[float, float]
    knots_used: int


def holder_fit(curve: ModulusCurve, window: tuple[float, float]) -> HolderFit:
    """Fit w ~ constant * t^exponent over knots with t in window and w > 0."""
    t_min, t_max = window
    if not 0 < t_min < t_max:
        raise ArgumentError("window must satisfy 0 < t_min < t_max")
    mask = (curve.t >= t_min) & (curve.t <= t_max) & (curve.w > 0)
    if int(mask.sum()) < 5:
        raise ArgumentError(
            f"need >= 5 positive knots in window, found {int(mask.sum())}"
        )
    x = np.log(curve.t[mask])
    y = np.log(curve.w[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return HolderFit(
        exponent=float(slope),
        constant=float(np.exp(intercept)),
        r_squared=r2,
        fit_window=(float(t_min), float(t_max)),
        knots_used=int(mask.sum()),
    )
