"""Property tests of the cone kernel.

Hypothesis runs derandomized with few examples, so the suite stays
deterministic and fast; forms are drawn from seeded generators.
"""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hessiankit import core

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def orders(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(1, n))


@PROPERTY
@given(orders(max_n=8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_recurrence_equals_subset_enumeration(order, count, seed):
    n, m = order
    lam = np.random.default_rng(seed).standard_normal((count, n)) * 3.0
    stacked = core.elementary_symmetric_all(lam, m)
    for vec, h in zip(lam, stacked):
        for k in range(m + 1):
            exact = core.elementary_symmetric_enumerate(vec, k)
            scale = math.comb(n, k) * float(np.max(np.abs(vec))) ** k
            assert abs(h[k] - exact) <= 1e-12 * scale


@PROPERTY
@given(orders(), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_polarization_symmetric_under_permutation(order, seed, random):
    n, m = order
    forms = list(core.sample_gamma_hat(n, m, m, seed))
    value = core.polarized_form(forms)
    random.shuffle(forms)
    assert abs(core.polarized_form(forms) - value) <= 1e-10 * abs(value)


@PROPERTY
@given(orders(), st.integers(0, 2**32 - 1))
def test_polarization_restricts_to_sigma_tilde_on_diagonal(order, seed):
    n, m = order
    a = core.sample_gamma_hat(n, m, 1, seed)[0]
    # the subset sums cancel terms up to the size of ||a||^m
    gap = abs(core.polarized_form([a] * m) - core.sigma_tilde(a, m))
    assert gap <= 1e-12 * np.linalg.norm(a, 2) ** m


@PROPERTY
@given(orders(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_batched_call_equals_per_tuple_calls(order, count, seed):
    n, m = order
    tuples = core.sample_gamma_hat(n, m, count * m, seed).reshape(count, m, n, n)
    assert np.array_equal(
        core.polarized_form(tuples), [core.polarized_form(list(t)) for t in tuples]
    )
    rep = core.garding_check(tuples)
    for t, margin in zip(tuples, rep.margin):
        assert core.garding_check(list(t)).margin == margin
    assert np.array_equal(
        core.sigma_tilde(tuples, m), [[core.sigma_tilde(a, m) for a in t] for t in tuples]
    )


@PROPERTY
@given(orders(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_garding_margin_nonnegative_on_positive_definite_tuples(order, count, seed):
    n, m = order
    tuples = core.sample_gamma_hat(n, m, count * m, seed).reshape(count, m, n, n)
    rep = core.garding_check(tuples)
    assert np.all(rep.margin >= -1e-10) and rep.passed.all()


def hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (g + np.swapaxes(g.conj(), -1, -2)) / 2.0


@PROPERTY
@given(orders(), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_polarization_linear_in_first_argument(order, c, seed):
    n, m = order
    forms = hermitian(np.random.default_rng(seed), (m + 1, n, n))
    a, b, rest = forms[0], forms[1], list(forms[2:])
    lhs = core.polarized_form([c * a + b, *rest])
    rhs = c * core.polarized_form([a, *rest]) + core.polarized_form([b, *rest])
    norm = [np.linalg.norm(f, 2) for f in forms]
    scale = (abs(c) * norm[0] + norm[1]) * math.prod(norm[2:])
    assert abs(lhs - rhs) <= 1e-9 * scale


def test_subset_order_is_combinations_order():
    for m in range(1, 7):
        masks, signs = core._subsets(m)  # each subset's bit mask less one
        subsets = [s for k in range(1, m + 1) for s in itertools.combinations(range(m), k)]
        assert [tuple(i for i in range(m) if (b + 1) >> i & 1) for b in masks.tolist()] == subsets
        assert list(signs) == [(-1) ** (m - len(s)) for s in subsets]
