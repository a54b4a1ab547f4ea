"""Property tests of the paper's invariances on separated instances.

Each instance has n_x, n_y <= 3 branch values with |v| in [0.1, 3] and
every two values at least 0.2 apart; only the overflow property draws
finite moments of any magnitude instead.  The examples are derandomized,
so every run draws the same ones.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import (
    MomentProblemError,
    MomentSequence,
    NoSolution,
    RepeatedRoots,
    analyze,
    exp_transform,
    extend_moments,
    forward_moments,
    invert_min_degree,
    markov_certificate,
    next_moment,
    weights,
)
from instances import multiset_distance, separated_values

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
    # SPD is read off the eigenvalues that decided the rank, so it implies full rank
    assert not cert.spd or analyze(m).rank_A1 == m.n_x
    sx, sy = sorted(xs), sorted(ys)
    interlaced = len(xs) == len(ys) and all(
        sy[i] < sx[i] and (i + 1 == len(xs) or sx[i] < sy[i + 1]) for i in range(len(xs))
    )
    assert cert.interlaced == interlaced
    # the minimal solution of the same object carries the same weight signs
    sol = invert_min_degree(m)
    assert all(w > 0.0 for w in weights(sol.xs, sol.ys).weights) == positive


@PROPERTY_SETTINGS
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_analyze_raises_only_where_the_exponential_transform_overflows(n_x, n_y, data):
    # finite moments of any magnitude; a minimal solution beyond the float
    # range is reported as missing, not raised
    K = max(n_x + n_y, 1)
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=K, max_size=K))
    m = MomentSequence(tuple(values), n_x, K - n_x)
    try:
        report = analyze(m)
    except ValueError as exc:
        assert "exponential transform overflows" in str(exc)
    else:
        assert 0 <= report.d_min <= report.rank_A1 <= m.n_x


@PROPERTY_SETTINGS
@given(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=10), st.integers(-12, 12))
def test_the_moments_scale_is_within_twice_each_series_scale(values, j):
    # Cauchy's majorants, with mu = max |m_k|^(1/k) and alpha = max
    # |a_k|^(1/k): a is majorized by 1/(1 - mu z) and log a by
    # -log(1 - alpha z / (1 - alpha z)), so alpha <= mu < 2 alpha.  The
    # sign-flipped problem's series 1/a has the same |m_k|, so its scale
    # obeys the same bound.  On finite moments scaled as s = 2^j scales
    # m_k, by s^k
    s = 2.0**j
    m = tuple(v * s**k for k, v in enumerate(values, 1))
    mu = max(abs(v) ** (1.0 / k) for k, v in enumerate(m, 1))
    for series in (exp_transform(m).values, exp_transform([-v for v in m]).values):
        alpha = max(abs(v) ** (1.0 / k) for k, v in enumerate(series[1:], 1))
        assert alpha <= mu < 2.0 * alpha or alpha == mu == 0.0


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
    # a rank-deficient A1 holds no Markov flag: the minimal solution pads
    # each side with 0.0, so the solution-based reading is False as well
    try:
        cert = markov_certificate(paired)
        sol = invert_min_degree(paired)
    except MomentProblemError as err:
        with pytest.raises(type(err)):
            invert_min_degree(paired)
    else:
        assert (cert.spd, cert.interlaced, cert.extended_singular, cert.weights_positive) == (False, False, True, False)
        assert 0.0 in sol.xs and 0.0 in sol.ys
        assert _solution_flags(sol, cert.interlacing_applicable) == (cert.interlaced, cert.weights_positive)


def _solution_flags(sol, applicable):
    """(interlaced, weights_positive) read off a solution: the sorted
    values strictly interlace, and every weight is positive, a repeated
    x-value counting as not positive."""
    xs, ys = sorted(sol.xs), sorted(sol.ys)
    interlaced = applicable and all(y < x for x, y in zip(xs, ys)) and all(x < y for x, y in zip(xs, ys[1:]))
    try:
        positive = all(w > 0.0 for w in weights(sol.xs, sol.ys).weights)
    except RepeatedRoots:
        positive = False
    return interlaced, positive


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


def _scaled_instances():
    """600 separated instances, n_x in 1..3 and n_y in 0..3 (rng 5)."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(600):
        n_x, n_y = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        values = separated_values(rng, n_x + n_y)
        out.append((values[:n_x], values[n_x:]))
    return out


# Scaling every branch value by s scales a_k by s^k, so A1 is graded and
# its singular values spread with s; at n_x = 3 the smallest falls under
# the relative cutoff, and rank 2 is read where the truth is 3.
SCALE_DEPENDENT_RANK = "the relative rank rule reads rank 2 of a graded n_x = 3 block at this scale"


@pytest.mark.parametrize("j", [
    pytest.param(j, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=SCALE_DEPENDENT_RANK))
    if j in (-12, 9, 12) else j
    for j in range(-12, 13, 3)
])
def test_analyze_is_right_at_every_power_of_two_scale(j):
    # s = 2^j scales every m_k exactly, so each report is the unscaled one
    # with its solution scaled by s
    s = 2.0**j
    wrong = 0
    for xs, ys in _scaled_instances():
        xs, ys = [s * v for v in xs], [s * v for v in ys]
        report = analyze(forward_moments(xs, ys))
        sol = report.minimal_solution
        right = (report.exists, report.rank_A1, report.d_min, report.unique) == (True, len(xs), len(xs), True) and (
            sol is not None and multiset_distance(sol.xs, xs) <= 1e-6 * s and multiset_distance(sol.ys, ys) <= 1e-6 * s
        )
        wrong += not right
    assert wrong == 0


# At x = +-s i the pair is real by the rule |Im z| > tol.imag * (1 + |Re z|)
# once s falls under tol.imag: the rule's floor of 1 does not scale with
# the data, so from s = 2^-27 on the pair reads as the double zero.
SCALE_DEPENDENT_REALNESS = "realness is decided against an absolute floor of 1, not the data's scale (ROADMAP item 19)"


def _answer_class(m):
    """The class of ``invert_min_degree``'s answer, beside ``analyze``'s d_min."""
    try:
        invert_min_degree(m)
        answer = "solution"
    except MomentProblemError as exc:
        answer = type(exc).__name__
    return answer, analyze(m).d_min


@pytest.mark.parametrize("j", [
    pytest.param(j, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=SCALE_DEPENDENT_REALNESS))
    if j <= -27 else j
    for j in (-40, -32, -27, -26, -16, -8, 8, 16, 32, 40)
])
def test_a_non_real_pair_keeps_its_answer_at_every_power_of_two_scale(j):
    # (0, -2 s^2) at s = 2^j are exactly the moments of x = +-s i
    unscaled = _answer_class(MomentSequence((0.0, -2.0), 2, 0))
    assert unscaled == ("NonRealSolution", 2)
    assert _answer_class(MomentSequence((0.0, -2.0 * 4.0**j), 2, 0)) == unscaled
