import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessiankit import barrier, modulus
from hessiankit.errors import ArgumentError, ExtrapolationError
from hessiankit.geometry import Domain
from hessiankit.modulus import ModulusCurve

# a cell table that reads NaN bit patterns warns in np.sqrt
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def brute_force_majorant(curve: ModulusCurve) -> np.ndarray:
    """Least concave piecewise-linear majorant by subset enumeration.

    Checks every knot subset containing both endpoints and returns the
    values (at the original knots) of the valid candidate with the smallest
    total, which is the hull in generic position.
    """
    t, w = curve.t, curve.w
    k = t.size
    scale = 1.0 + float(np.max(w))
    best_vals = None
    best_total = np.inf
    for mask in itertools.product((False, True), repeat=k - 2):
        keep = np.array((True,) + mask + (True,))
        ts, ws = t[keep], w[keep]
        slopes = np.diff(ws) / np.diff(ts)
        if np.any(np.diff(slopes) > 1e-9 * scale):
            continue
        vals = np.interp(t, ts, ws)
        if np.any(vals < w - 1e-9 * scale):
            continue
        total = float(vals.sum())
        if total < best_total:
            best_total = total
            best_vals = vals
    return best_vals


def random_curve(rng, max_knots=12) -> ModulusCurve:
    k = int(rng.integers(3, max_knots + 1))
    t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, k - 1))))
    w = np.concatenate(([0.0], np.maximum.accumulate(rng.uniform(0.0, 1.0, k - 1))))
    return ModulusCurve(t, w)


class TestModulusCurve:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            ModulusCurve([0.0, 1.0], [0.1, 0.2])  # w0 != 0
        with pytest.raises(ArgumentError):
            ModulusCurve([0.0, 1.0, 1.0], [0.0, 0.1, 0.2])  # repeated knot
        with pytest.raises(ArgumentError):
            ModulusCurve([0.0, 1.0, 2.0], [0.0, 0.5, 0.2])  # decreasing

    def test_non_finite_knots_rejected(self):
        with pytest.raises(ArgumentError):
            ModulusCurve([0.0, 1.0, 2.0], [0.0, np.nan, 1.0])
        with pytest.raises(ArgumentError):
            ModulusCurve([0.0, 1.0, np.inf], [0.0, 0.5, 1.0])

    def test_interpolation(self):
        c = ModulusCurve([0.0, 1.0, 2.0], [0.0, 1.0, 1.5])
        assert c(0.5) == 0.5
        assert c(1.5) == 1.25

    def test_csv_roundtrip_bit_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = random_curve(rng)
            back = ModulusCurve.from_csv(c.to_csv())
            assert np.array_equal(back.t, c.t) and np.array_equal(back.w, c.w)


class TestEstimateModulus:
    def test_constant_function(self):
        rng = np.random.default_rng(0)
        pts = rng.random((100, 2))
        curve = modulus.estimate_modulus(pts, np.full(100, 3.0), bins=50)
        assert np.all(curve.w == 0.0)

    def test_linear_function_one_bin_width(self):
        x = np.linspace(0.0, 1.0, 300)
        curve = modulus.estimate_modulus(x, x, bins=100, t_max=1.0)
        width = 1.0 / 100
        assert np.all(np.abs(curve.w - curve.t) <= width + 1e-12)

    def test_sqrt_function_near_zero(self):
        x = np.linspace(0.0, 1.0, 800)
        curve = modulus.estimate_modulus(x, np.sqrt(x), bins=100, t_max=1.0)
        width = 1.0 / 100
        small = (curve.t > 0) & (curve.t < 0.2)
        # modulus of sqrt is sqrt(t); binning costs at most one bin width
        assert np.all(curve.w[small] <= np.sqrt(curve.t[small]) + 1e-9)
        assert np.all(curve.w[small] >= np.sqrt(np.maximum(curve.t[small] - width, 0.0)) - 1e-9)

    def test_monotone_and_zero_start(self):
        rng = np.random.default_rng(4)
        pts = rng.random((200, 3))
        vals = np.sin(5 * pts.sum(axis=1))
        curve = modulus.estimate_modulus(pts, vals, bins=64)
        assert curve.w[0] == 0.0
        assert np.all(np.diff(curve.w) >= 0.0)

    def test_subsampled_path_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.random((300, 1))
        vals = pts[:, 0] ** 2
        a = modulus.estimate_modulus(pts, vals, bins=32, seed=9,
                                     pair_threshold=100, pair_budget=20000)
        b = modulus.estimate_modulus(pts, vals, bins=32, seed=9,
                                     pair_threshold=100, pair_budget=20000)
        assert np.array_equal(a.w, b.w)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_pair_budget_rejected(self, budget):
        x = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ArgumentError, match="pair_budget"):
            modulus.estimate_modulus(x, x, bins=4, pair_threshold=10, pair_budget=budget)

    def test_negative_seed_rejected(self):
        x = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ArgumentError, match="seed"):
            modulus.estimate_modulus(x, x, bins=4, seed=-1, pair_threshold=10)

    def test_sampled_path_index_limit(self):
        # zero-stride views: the limit is checked before any array of n is made
        n = modulus.PAIR_INDEX_LIMIT + 1
        x = np.broadcast_to(np.array(0.5), (n,))
        with pytest.raises(ArgumentError, match="at most"):
            modulus.estimate_modulus(x, x, bins=4)

    def test_too_few_points(self):
        with pytest.raises(ArgumentError):
            modulus.estimate_modulus(np.array([[0.0]]), np.array([1.0]), bins=4)

    def test_non_finite_input_rejected(self):
        pts = np.linspace(0.0, 1.0, 10)
        vals = pts.copy()
        vals[3] = np.nan
        with pytest.raises(ArgumentError):
            modulus.estimate_modulus(pts, vals, bins=4, t_max=1.0)
        pts[5] = np.inf
        with pytest.raises(ArgumentError):
            modulus.estimate_modulus(pts, np.zeros(10), bins=4, t_max=1.0)

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_non_positive_t_max_rejected(self, t_max):
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ArgumentError, match="t_max must be positive"):
            modulus.estimate_modulus(x, x, bins=4, t_max=t_max)

    def test_geometric_edges(self):
        x = np.linspace(0.0, 1.0, 500)
        edges = np.geomspace(1e-2, 1.0, 40)
        curve = modulus.estimate_modulus(x, x, bins=edges, t_max=1.0)
        assert curve.t[1] == edges[0] and curve.length == 1.0


def distance(diff):
    """sqrt of the squared differences summed over the last axis in
    coordinate order, the d2 of estimate_modulus at any dimension (numpy's
    sum is pairwise from 8 terms)."""
    return np.sqrt(sum((diff[..., c] ** 2 for c in range(diff.shape[-1])),
                       np.zeros(diff.shape[:-1])))


def pairwise_modulus(pts, vals, edges):
    """Reference estimate: every pair i < j taken once, in a Python loop."""
    sup = np.zeros(edges.size)
    for i, j in itertools.combinations(range(len(vals)), 2):
        dist = distance(pts[i] - pts[j])
        if dist <= edges[-1]:
            k = np.searchsorted(edges, dist, side="left")
            sup[k] = max(sup[k], abs(vals[i] - vals[j]))
    return np.concatenate(([0.0], np.maximum.accumulate(sup)))


def edge_sets(pts):
    """(bins, edges) for linear, geometric and single-bin edges."""
    diameter = modulus._diameter_estimate(pts)
    geometric = np.geomspace(1e-3, 0.5 * diameter, 25)
    return ((30, np.linspace(0.0, diameter, 31)[1:]), (geometric, geometric),
            (1, np.array([diameter])))


LEAF = modulus.LEAF


class TestExactPairsAgainstReference:
    @pytest.mark.parametrize("count, dim", [
        (2, 1), (17, 1), (80, 2), (60, 4), (50, 8), (50, 9),
        (3 * LEAF - 1, 3), (3 * LEAF + 1, 2), (3 * LEAF - 1, 8), (3 * LEAF + 1, 9),
    ])
    def test_linear_and_geometric_edges(self, count, dim):
        rng = np.random.default_rng(count + dim)
        pts = rng.random((count, dim))
        pts[count // 2 :: 5] = pts[0]  # duplicate points: zero distance, nonzero gaps
        vals = np.sin(4.0 * pts.sum(axis=1)) + 0.1 * rng.standard_normal(count)
        for bins, edges in edge_sets(pts):
            curve = modulus.estimate_modulus(pts, vals, bins=bins)
            assert np.array_equal(curve.t[1:], edges)
            assert np.array_equal(curve.w, pairwise_modulus(pts, vals, edges))

    @pytest.mark.parametrize("case", [
        "identical", "one_dimensional", "no_coordinates", "zero_coordinates", "lattice",
    ])
    def test_inputs_awkward_for_the_leaf_order(self, case):
        # zero-width splits, a single axis, no axis, signed zeros and
        # duplicates whose gaps tie: the kd order and the leaf bound must
        # still give the curve of every pair
        rng = np.random.default_rng(50)
        n = 2 * LEAF + 1
        vals = np.cos(7.0 * rng.random(n))
        if case == "identical":
            pts = np.full((n, 3), 0.25)
        elif case == "one_dimensional":
            pts = rng.random(n)
            vals = np.sqrt(pts)
        elif case == "no_coordinates":
            pts = np.zeros((n, 0))
        elif case == "zero_coordinates":
            pts = rng.random((n, 3))
            pts[:, 1] = 0.0
            pts[::3, 1] = -0.0
            pts[::4] = 0.0
        else:
            n = 150
            pts = np.round(rng.random((n, 2)), 1)  # a lattice: many duplicates
            vals = np.round(pts[:, 0] - 2.0 * pts[:, 1], 1)  # few distinct gaps
        ref_pts = pts.reshape(n, -1)
        for bins, edges in edge_sets(ref_pts):
            curve = modulus.estimate_modulus(pts, vals, bins=bins)
            assert np.array_equal(curve.w, pairwise_modulus(ref_pts, vals, edges))

    def test_several_row_blocks(self):
        # 1,500 points in 47 leaves; every pair i < j, vectorized.  An outlier
        # value at the top corner sorts into the last leaf, whose bound then
        # keeps all 1,500 points: two blocks of rows.
        rng = np.random.default_rng(8)
        pts = rng.random((1500, 2))
        pts[700] = pts[1400]
        vals = np.cos(3.0 * pts[:, 0]) * pts[:, 1]
        edges = np.geomspace(1e-4, 1.0, 60)
        for pts, vals in ((pts, vals), (np.vstack((pts, [[1.5, 1.5]])), np.append(vals, 100.0))):
            n = len(vals)
            i, j = np.triu_indices(n, k=1)
            dist = distance(pts[i] - pts[j])
            keep = dist <= edges[-1]
            sup = np.zeros(edges.size)
            np.maximum.at(sup, np.searchsorted(edges, dist[keep]), np.abs(vals[i] - vals[j])[keep])
            curve = modulus.estimate_modulus(pts, vals, bins=edges)
            assert np.array_equal(curve.w, np.concatenate(([0.0], np.maximum.accumulate(sup))))

    def test_pair_at_an_edge_across_a_cell_boundary(self):
        # The pair (0, 1) lies exactly on the first edge 1, so in bin 0, and
        # its d2 = 1 is the lower end of a cell whose other values lie in bin
        # 1: only the floor read at the cell's own lower end keeps the pair.
        # With the far cluster of slope 0.9 below 0 (side -1) the pair's
        # points sort into the last leaf, so the cluster has raised bin 1 to
        # 0.9 * 0.99 * big_edge > 1 before the pair is filtered, and a floor
        # read at the wrong bin drops its gap 1.  Above 0 the pair is in the
        # first leaf and is filtered before the cluster.
        big_edge, edge = 2.0, 1.0
        assert np.float64(edge**2).view(np.int64) % (1 << modulus.SHIFT) == 0
        n = 400
        edges = np.array([edge, big_edge])
        for side in (1.0, -1.0):
            pts = side * (1000.0 + 0.99 * big_edge * np.linspace(0.0, 1.0, n))
            vals = 0.9 / edge * (side * pts - 1000.0)
            pts[-2:], vals[-2:] = (0.0, edge), (0.0, 1.0)
            curve = modulus.estimate_modulus(pts, vals, bins=edges)
            assert modulus.FILTER_SLICE // n < n - 2  # more pairs than one filter slice
            last_leaf = modulus._leaf_order(pts[None, :])[(n - 1) // LEAF * LEAF :]
            assert ({n - 2, n - 1} <= set(last_leaf)) == (side < 0)
            assert np.array_equal(curve.w, pairwise_modulus(pts[:, None], vals, edges))
            assert curve.w[1] == 1.0


def sampled_modulus(pts, vals, edges, seed, pair_budget):
    """Reference estimate on the subsampled path: every drawn pair is binned.

    This is the seeded loop of estimate_modulus before pairs were filtered,
    including its 2,000,000-pair draws, with d2 summed in coordinate order.
    """
    n = len(vals)
    sup = np.zeros(edges.size)
    rng = np.random.default_rng(seed)
    remaining = int(pair_budget)
    chunk = 2_000_000
    while remaining > 0:
        m = min(chunk, remaining)
        i = rng.integers(0, n, m)
        j = (i + 1 + rng.integers(0, n - 1, m)) % n
        dist = distance(pts[i] - pts[j])
        gaps = np.abs(vals[i] - vals[j])
        keep = dist <= edges[-1]
        idx = np.searchsorted(edges, dist[keep], side="left")
        np.maximum.at(sup, idx, gaps[keep])
        remaining -= m
    return np.concatenate(([0.0], np.maximum.accumulate(sup)))


def sampled_pair(pts, vals, bins, edges, budget=300_000, seed=3):
    """(estimate_modulus, reference) on the subsampled path; a few filter slices."""
    curve = modulus.estimate_modulus(pts, vals, bins=bins, seed=seed,
                                     pair_threshold=10, pair_budget=budget)
    assert np.array_equal(curve.t[1:], edges)
    return curve.w, sampled_modulus(pts.reshape(len(vals), -1), vals, edges, seed, budget)


class TestSampledPairsAgainstReference:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linear_geometric_and_single_bin(self, dim):
        rng = np.random.default_rng(20 + dim)
        pts = rng.random((300, dim))
        vals = np.sin(4.0 * pts.sum(axis=1)) + 0.05 * rng.standard_normal(300)
        diameter = modulus._diameter_estimate(pts)
        geometric = np.geomspace(1e-3, 0.6 * diameter, 25)
        for bins, edges in ((30, np.linspace(0.0, diameter, 31)[1:]),
                            (geometric, geometric),
                            (1, np.array([diameter]))):
            got, want = sampled_pair(pts, vals, bins, edges)
            assert np.array_equal(got, want)

    def test_one_dimensional_points(self):
        x = np.random.default_rng(24).random(500)
        edges = np.geomspace(1e-4, 1.0, 40)
        got, want = sampled_pair(x, np.sqrt(x), edges, edges)
        assert np.array_equal(got, want)

    def test_duplicate_points_and_tied_gaps(self):
        rng = np.random.default_rng(25)
        pts = np.round(rng.random((400, 2)), 1)  # a lattice: many duplicates
        vals = np.round(pts[:, 0] - 2.0 * pts[:, 1], 1)  # few distinct gaps
        edges = np.linspace(0.0, 1.5, 16)[1:]
        got, want = sampled_pair(pts, vals, edges, edges)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [8, 9])
    def test_many_coordinates(self, dim):
        # from 8 terms numpy's sum is pairwise; both sides sum in coordinate order
        rng = np.random.default_rng(26 + dim)
        pts = rng.random((300, dim))
        vals = np.cos(pts @ rng.standard_normal(dim))
        edges = np.linspace(0.0, modulus._diameter_estimate(pts), 41)[1:]
        got, want = sampled_pair(pts, vals, edges, edges)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale, top", [
        (1e154, 1.5e154),  # d2 overflows to inf; so does the top edge squared
        (1e154, 1e154),  # d2 overflows to inf below a finite top edge squared
        (1e-155, 1.5e-155),  # the top edge squared is subnormal
        (1e-165, 1.5e-165),  # the top edge squared underflows to 0
        (1.0, 1e300),  # the first edge squared overflows; every pair is in bin 0
    ])
    def test_extreme_magnitudes(self, scale, top):
        rng = np.random.default_rng(30)
        pts = scale * rng.random((300, 3))
        vals = np.sin(4.0 * pts.sum(axis=1) / scale)
        edges = np.geomspace(1e-2 * top, top, 30)
        with np.errstate(over="ignore", under="ignore"):
            got, want = sampled_pair(pts, vals, edges, edges)
            assert np.array_equal(got, want)
            assert np.array_equal(modulus.estimate_modulus(pts, vals, bins=edges).w,
                                  pairwise_modulus(pts, vals, edges))

    def test_across_a_draw_boundary(self):
        rng = np.random.default_rng(31)
        pts = rng.random((2000, 2))
        vals = np.abs(pts[:, 0] - 0.5) ** 0.5 + pts[:, 1]
        edges = np.linspace(0.0, 1.5, 101)[1:]
        got, want = sampled_pair(pts, vals, edges, edges, budget=modulus.PAIR_BLOCK + 70_000)
        assert np.array_equal(got, want)


PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def clouds(draw):
    """Up to 3 leaves of points with 0-7 coordinates at magnitude 1e-160 to
    1e150, with duplicate points, signed zeros and tied values."""
    n = draw(st.integers(2, 2 * LEAF + 6))
    dim = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.one_of(st.sampled_from([-160, 150]), st.integers(-160, 150)))
    pts = scale * rng.uniform(-1.0, 1.0, (n, dim))
    dup = rng.integers(0, n, draw(st.integers(0, n)))
    pts[dup] = pts[rng.integers(0, n, dup.size)]
    zeros = rng.random((n, dim)) < draw(st.sampled_from([0.0, 0.3]))
    pts[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    vals = np.round(rng.standard_normal(n), draw(st.integers(0, 3)))
    return pts, vals


@PROPERTY
@given(clouds(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_estimate_equals_every_pair_binned(cloud, k, seed):
    pts, vals = cloud
    top = 0.5 * modulus._diameter_estimate(pts)
    geometric = np.geomspace(0.01 * top, top, k + 1)
    # as many decades as the normal doubles allow, up to 300
    wide = np.geomspace(max(top * 1e-300, 1e-300), top, k + 1)
    linear = np.linspace(0.0, 2.0 * top, k + 1)[1:]
    # every squared edge overflows
    far = np.geomspace(1e155, 1e300, k + 1)
    for bins, edges in ((k, linear), (geometric, geometric), (wide, wide),
                        (far, far), (1, linear[-1:])):
        assert modulus._RunningCurve(edges).cell_bin.size <= 2**19 + 1
        curve = modulus.estimate_modulus(pts, vals, bins=bins)
        assert np.array_equal(curve.t[1:], edges)
        assert np.array_equal(curve.w, pairwise_modulus(pts, vals, edges))
        curve = modulus.estimate_modulus(pts, vals, bins=bins, seed=seed,
                                         pair_threshold=1, pair_budget=3000)
        assert np.array_equal(curve.w, sampled_modulus(pts, vals, edges, seed, 3000))


def test_eight_coordinates_sum_in_coordinate_order():
    # numpy sums 8 or more terms pairwise; d2 is the coordinate-order sum,
    # which here is one ulp above numpy's, with its square root above an
    # edge at numpy's distance: the pair lies beyond that edge
    pts = np.random.default_rng(0).random((2, 8))
    diff = pts[0] - pts[1]
    d2 = 0.0
    for x in diff:
        d2 += x * x
    below, at = np.sqrt((diff**2).sum()), np.sqrt(d2)
    assert below < at
    for threshold in (2, 1):  # the exact path, then the sampled one
        for edge, gap in ((below, 0.0), (at, 1.0)):
            curve = modulus.estimate_modulus(pts, [0.0, 1.0], bins=[edge],
                                             pair_threshold=threshold, pair_budget=10)
            assert curve.w[1] == gap


def half_holder_cloud(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    return pts, np.sqrt(np.sqrt(((pts - rng.uniform(-0.5, 0.5, 3)) ** 2).sum(axis=1)))


class TestFilterPrunes:
    """Only a small share of the pairs reaches exact binning."""

    @pytest.fixture
    def binned(self, monkeypatch):
        keys = [0]
        searchsorted = np.searchsorted

        def counted_searchsorted(a, v, *args, **kwargs):
            if sys._getframe(1).f_code.co_name != "__init__":  # not the cell table
                keys[0] += np.size(v)
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(modulus.np, "searchsorted", counted_searchsorted)

        def count(call):
            keys[0] = 0
            call()
            return keys[0]

        return count

    def test_sampled_branch(self, binned):
        pts, vals = half_holder_cloud(3000, 40)
        pairs = binned(lambda: modulus.estimate_modulus(
            pts, vals, bins=200, seed=3, pair_threshold=100, pair_budget=2_000_000))
        assert pairs / 2_000_000 < 0.07  # measured 0.033

    def test_exact_branch(self, binned):
        pts, vals = half_holder_cloud(2000, 41)
        pairs = binned(lambda: modulus.estimate_modulus(pts, vals, bins=200))
        assert pairs / (2000 * 1999 // 2) < 0.07  # measured 0.011


class TestLeafBound:
    """The exact path sends a pair to the per-pair filter only from a point
    that the bound on its leaf keeps."""

    @pytest.fixture
    def filtered(self, monkeypatch):
        """Pairs that reach the per-pair filter (its 2-d calls) in one call."""
        pairs = [0]
        may_raise = modulus._RunningCurve.may_raise

        def counted(curve, gaps, diffs):
            if gaps.ndim == 2:
                pairs[0] += gaps.size
            return may_raise(curve, gaps, diffs)

        monkeypatch.setattr(modulus._RunningCurve, "may_raise", counted)

        def count(call):
            pairs[0] = 0
            call()
            return pairs[0]

        return count

    def test_barrier_grid(self, filtered):
        # the shape of verify_modulus_bound on the psi_sqrt envelope
        ball = Domain.ball(2, 1.0)
        data = barrier.boundary_psi_sqrt(ball)
        env = barrier.build_subsolution(data, None, ball, m=2, xi_count=150, seed=1)
        grid = barrier.verification_grid(ball, 5000, 1, anchors=data.anchors)
        reals = np.concatenate([grid.real, grid.imag], axis=1)
        vals = env(grid)
        edges = np.geomspace(2e-4, 2.0, 160)
        pairs = filtered(lambda: modulus.estimate_modulus(reals, vals, bins=edges))
        assert pairs / (5000 * 4999 // 2) < 0.20  # measured 0.072

    def test_leaf_box_at_an_edge_across_a_cell_boundary(self):
        # The point 0 ends the leaf before the last, whose box starts at the
        # first edge 1: the separation is 1 exactly, and its d2 = 1 is the
        # lower end of a cell whose other values lie in bin 1.  The far
        # cluster below 0 has raised bin 1 to 0.9 * 0.99 * big_edge > 1 by
        # then, so a leaf bound read one cell higher drops the point and the
        # pair's gap 1.
        big_edge, edge = 2.0, 1.0
        assert np.float64(edge**2).view(np.int64) % (1 << modulus.SHIFT) == 0
        n = 12 * LEAF
        pts = np.concatenate((-1000.0 - 0.99 * big_edge * np.linspace(0.0, 1.0, n - 1),
                              [0.0, edge], 1e6 + np.arange(LEAF - 1.0)))
        vals = np.concatenate((0.9 / edge * (-pts[: n - 1] - 1000.0), [0.0, 1.0],
                               np.zeros(LEAF - 1)))
        edges = np.array([edge, big_edge])
        assert set(modulus._leaf_order(pts[None, :])[n:]) == set(range(n, n + LEAF))
        curve = modulus.estimate_modulus(pts, vals, bins=edges)
        assert np.array_equal(curve.w, pairwise_modulus(pts[:, None], vals, edges))
        assert curve.w[1] == 1.0

    def test_constant_values_form_no_pair(self, filtered):
        # no gap can beat a floor of 0, so the leaf bound keeps no point
        rng = np.random.default_rng(51)
        pts = rng.random((3 * LEAF + 1, 3))
        assert filtered(lambda: modulus.estimate_modulus(pts, np.full(3 * LEAF + 1, 2.0))) == 0

    def test_memory_is_blocked(self):
        # rows of a leaf go to the per-pair filter in blocks of half a slice;
        # on this cloud one block per leaf peaks at 19.7 MB
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.0, 1.0, (20000, 4))
        vals = np.sqrt(np.sqrt(((pts - rng.uniform(-0.5, 0.5, 4)) ** 2).sum(axis=1)))
        tracemalloc.start()
        try:
            modulus.estimate_modulus(pts, vals, bins=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6  # measured 2.6 MB


def test_sampled_path_keeps_one_block_of_draws():
    # one block of int32 draws is 16 MB; int64 draws with the previous block
    # still alive peak at 65.1 MB
    pts, vals = half_holder_cloud(30000, 40)
    tracemalloc.start()
    try:
        modulus.estimate_modulus(pts, vals, bins=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6  # measured 23.6 MB


class TestConcaveMajorant:
    def test_concave_input_fixed(self):
        c = ModulusCurve([0.0, 1.0, 2.0], [0.0, 1.0, 1.2])
        assert modulus.concave_majorant(c) == c

    def test_chord_replacement(self):
        c = ModulusCurve([0.0, 1.0, 2.0], [0.0, 0.2, 1.0])
        maj = modulus.concave_majorant(c)
        assert maj(1.0) == pytest.approx(0.5)
        assert brute_force_majorant(c)[1] == pytest.approx(0.5)

    def test_sqrt_unchanged(self):
        t = np.linspace(0.0, 1.0, 50)
        c = ModulusCurve(t, np.sqrt(t))
        maj = modulus.concave_majorant(c)
        assert np.max(np.abs(maj(t) - np.sqrt(t))) <= 1e-12

    def test_majorizes_and_concave_and_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = random_curve(rng)
            maj = modulus.concave_majorant(c)
            assert np.all(maj(c.t) >= c.w - 1e-14)
            slopes = np.diff(maj.w) / np.diff(maj.t)
            assert np.all(np.diff(slopes) <= 1e-12)
            assert modulus.concave_majorant(maj) == maj

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            c = random_curve(rng, max_knots=10)
            oracle = brute_force_majorant(c)
            hull = modulus.concave_majorant(c)(c.t)
            assert np.array_equal(hull, oracle)

    def test_float_scan_matches_numpy_scalar_scan(self):
        rng = np.random.default_rng(9)
        curves = [random_curve(rng, max_knots=60) for _ in range(150)]
        curves += [collinear_runs_curve(rng) for _ in range(150)]
        curves += [concave_staircase(rng) for _ in range(20)]
        for c in curves:
            hull_t, hull_w = numpy_scalar_majorant(c)
            maj = modulus.concave_majorant(c)
            assert np.array_equal(maj.t, hull_t) and np.array_equal(maj.w, hull_w)


def numpy_scalar_majorant(curve: ModulusCurve) -> tuple:
    """The monotone-chain hull scan over numpy scalars, as it ran before the
    scan moved to Python floats."""
    t = curve.t
    w = curve.w
    hull_t = [t[0]]
    hull_w = [w[0]]
    for i in range(1, t.size):
        while len(hull_t) >= 2:
            cross = (hull_t[-1] - hull_t[-2]) * (w[i] - hull_w[-2]) - (
                hull_w[-1] - hull_w[-2]
            ) * (t[i] - hull_t[-2])
            if cross > 0.0:
                hull_t.pop()
                hull_w.pop()
            else:
                break
        hull_t.append(t[i])
        hull_w.append(w[i])
    return np.array(hull_t), np.array(hull_w)


def collinear_runs_curve(rng) -> ModulusCurve:
    """Dyadic steps and slopes held over runs of knots, so every run is
    exactly collinear and a hull scan meets cross products of exactly 0."""
    runs = int(rng.integers(2, 12))
    slopes = np.repeat(rng.choice([0.0, 0.125, 0.25, 0.5, 1.0, 2.0], runs), rng.integers(1, 6, runs))
    dt = rng.choice([0.25, 0.5, 1.0], slopes.size)
    return ModulusCurve(np.concatenate(([0.0], np.cumsum(dt))), np.concatenate(([0.0], np.cumsum(slopes * dt))))


def concave_staircase(rng) -> ModulusCurve:
    """Random subadditive curve: sum of capped ramps a_j min(t / b_j, 1)."""
    t = np.linspace(0.0, 1.0, 120)
    w = np.zeros_like(t)
    for _ in range(int(rng.integers(1, 5))):
        a = float(rng.uniform(0.1, 1.0))
        b = float(rng.uniform(0.05, 1.0))
        w += a * np.minimum(t / b, 1.0)
    return ModulusCurve(t, w)


class TestScalingBound:
    def test_linear_reference(self):
        sb = modulus.scaling_bound_check(modulus.linear_curve(1.0, 1.0), 3.0, 0.2)
        assert (sb.omega_scaled, sb.majorant_scaled, sb.bound) == (
            pytest.approx(0.6),
            pytest.approx(0.6),
            pytest.approx(0.8),
        )
        assert sb.margin_lower >= 0 and sb.margin_upper >= 0

    def test_eta_one_doubles(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            c = concave_staircase(rng)
            t = float(rng.uniform(0.05, 1.0))
            sb = modulus.scaling_bound_check(c, 1.0, t)
            assert sb.majorant_scaled <= 2.0 * c(t) + 1e-12

    def test_subadditive_property(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            c = concave_staircase(rng)
            eta = float(rng.uniform(0.02, 4.0))
            t = float(rng.uniform(0.02, 1.0 / max(eta, 1.0)))
            sb = modulus.scaling_bound_check(c, eta, t)
            assert sb.margin_lower >= -1e-12
            assert sb.margin_upper >= -1e-12

    def test_extrapolation_rejected(self):
        with pytest.raises(ExtrapolationError):
            modulus.scaling_bound_check(modulus.linear_curve(1.0, 1.0), 3.0, 0.5)


class TestHolderFit:
    def test_sqrt(self):
        t = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 300)))
        fit = modulus.holder_fit(ModulusCurve(t, np.sqrt(t)), (1e-3, 0.5))
        assert abs(fit.exponent - 0.5) <= 0.02

    def test_linear_with_constant(self):
        t = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 300)))
        fit = modulus.holder_fit(ModulusCurve(t, 3.0 * t), (1e-3, 0.5))
        assert abs(fit.exponent - 1.0) <= 0.02
        assert abs(fit.constant - 3.0) / 3.0 <= 0.05
        assert fit.r_squared > 0.999

    def test_two_thirds_window(self):
        t = np.concatenate(([0.0], np.geomspace(1e-5, 1.0, 400)))
        fit = modulus.holder_fit(ModulusCurve(t, t ** (2.0 / 3.0)), (1e-4, 1e-1))
        assert abs(fit.exponent - 2.0 / 3.0) <= 0.02

    def test_insufficient_knots(self):
        with pytest.raises(ArgumentError):
            modulus.holder_fit(ModulusCurve([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]), (0.2, 0.3))
