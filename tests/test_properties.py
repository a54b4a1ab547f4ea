"""Property tests of the paper's invariances on separated instances.

Each instance has n_x, n_y <= 3 branch values with |v| in [0.1, 3] and
every two values at least 0.2 apart.  The examples are derandomized, so
every run draws the same ones.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import (
    NoSolution,
    analyze,
    extend_moments,
    forward_moments,
    invert_min_degree,
    markov_certificate,
    next_moment,
    weights,
)
from instances import multiset_distance

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def separated_instances(draw, min_n_x=0):
    """(xs, ys): each value is 0.1 + 0.4 j + u with a sign, for distinct
    (sign, j), j in 0..6 and u in [0, 0.2], so |v| lies in [0.1, 2.7] and
    two values differ by at least 0.2.  n_x is at least ``min_n_x``."""
    n_x = draw(st.integers(min_n_x, 3))
    n_y = draw(st.integers(0 if n_x else 1, 3))
    slots = draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(0, 6)),
        min_size=n_x + n_y, max_size=n_x + n_y, unique=True,
    ))
    jitter = draw(st.lists(st.floats(0.0, 0.2), min_size=n_x + n_y, max_size=n_x + n_y))
    values = [sign * (0.1 + 0.4 * j + u) for (sign, j), u in zip(slots, jitter)]
    return values[:n_x], values[n_x:]


@PROPERTY_SETTINGS
@given(separated_instances())
def test_flipping_x_and_y_swaps_the_sides(instance):
    m = forward_moments(*instance)
    sol = invert_min_degree(m)
    flipped = invert_min_degree(m.negated())
    assert multiset_distance(flipped.xs, sol.ys) <= 1e-8
    assert multiset_distance(flipped.ys, sol.xs) <= 1e-8


@PROPERTY_SETTINGS
@given(separated_instances())
def test_full_rank_implies_a_solution_exists(instance):
    report = analyze(forward_moments(*instance))
    assert report.rank_A1 < len(instance[0]) or report.exists


def _exact_weights_positive(xs, ys):
    """Whether every w_j = prod(x_j - y) / prod(x_j - x_i), i != j, is
    positive, in exact rational arithmetic on the floats."""
    X = [Fraction(v) for v in xs]
    Y = [Fraction(v) for v in ys]
    return all(
        math.prod(x - y for y in Y) / math.prod(x - X[i] for i in range(len(X)) if i != j) > 0
        for j, x in enumerate(X)
    )


@PROPERTY_SETTINGS
@given(separated_instances(min_n_x=1))
def test_markov_flags_are_the_exact_weight_signs(instance):
    xs, ys = instance
    m = forward_moments(xs, ys)
    cert = markov_certificate(m)
    positive = _exact_weights_positive(xs, ys)
    assert cert.spd == cert.weights_positive == positive
    sx, sy = sorted(xs), sorted(ys)
    interlaced = len(xs) == len(ys) and all(
        sy[i] < sx[i] and (i + 1 == len(xs) or sx[i] < sy[i + 1]) for i in range(len(xs))
    )
    assert cert.interlaced == interlaced
    # the solution full_output attaches carries the same weight signs
    full, info = markov_certificate(m, full_output=True)
    sol = info["minimal_solution"]
    assert full == cert
    assert all(w > 0.0 for w in weights(sol.xs, sol.ys).weights) == positive


def _terms(values, k):
    """sum |v|^k: the size of the terms that moment k sums."""
    return sum(abs(v) ** k for v in values)


@settings(PROPERTY_SETTINGS, max_examples=600)
@given(separated_instances(min_n_x=1), st.floats(-2.7, 2.7))
def test_a_matched_pair_changes_no_moment_and_one_degree_bound(instance, t):
    xs, ys = instance
    m = forward_moments(xs, ys)
    paired = forward_moments([*xs, t], [*ys, t])
    want = extend_moments(m, 3)[-1]
    assert abs(next_moment(paired) - want) <= 1e-8 * _terms((*xs, *ys, t, t), paired.K + 1)
    before, after = analyze(m), analyze(paired)
    assert after.exists
    assert (after.d_min, after.d_max) == (before.d_min, before.d_max + 1)


# With n_x = 0 before the pair, A1 of the paired data is the 1 x 1 block
# [a_{n_y}], whose exact value is 0 and which holds only rounding noise;
# the relative rank rule has no reference scale to read that noise as 0.
EMPTY_SIDE_NOISE = "a 1 x 1 A1 holding rounding noise has no reference scale for the relative rank rule"


@pytest.mark.xfail(strict=True, raises=NoSolution, reason=EMPTY_SIDE_NOISE)
def test_a_matched_pair_on_an_empty_side_keeps_the_next_moment():
    # a_2 = 0 and a_3 = -7e-20: rank(A1) 0 beside rank(A) 1 reads as unsolvable
    paired = forward_moments([0.1875], [-0.1, 0.1875])
    want = extend_moments(forward_moments([], [-0.1]), 3)[-1]
    assert abs(next_moment(paired) - want) <= 1e-8 * _terms((0.1, 0.1875, 0.1875), 4)
    assert analyze(paired).exists


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=EMPTY_SIDE_NOISE)
def test_a_matched_pair_on_an_empty_side_is_not_unique():
    # a_2 = 2.2e-16 reads as rank 1, with a spurious pair x = y = -1.333
    report = analyze(forward_moments([-1.9444346483417352], [1.738295012724502, -1.9444346483417352]))
    assert (report.exists, report.rank_A1, report.d_min, report.d_max, report.unique) == (True, 0, 0, 1, False)
