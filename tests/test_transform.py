import warnings

import numpy as np
import pytest

from momentkit import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    ToleranceSet,
    TrigSignal,
    analyze,
    build_hankel,
    density_eval,
    exp_transform,
    extend_moments,
    family_member,
    forward_moments,
    invert_min_degree,
    next_moment,
    numeric_rank,
    trig_forward,
    trig_invert,
    weights,
)
from oracles import (
    convolve_lists,
    exact_exp_transform,
    exact_forward_moments,
    exact_inv_exp_transform,
    exact_poly_from_roots,
    taylor_quotient,
)


def test_forward_moments_single_power_sum():
    m = forward_moments([2.0], [])
    assert m.values == (2.0,)
    assert (m.n_x, m.n_y) == (1, 0)


def test_forward_moments_two_sided():
    m = forward_moments([1.0], [-1.0])
    assert m.values == (2.0, 0.0)


def test_forward_moments_worked_instance():
    m = forward_moments([1.0, 3.0], [0.0, 2.0])
    assert m.values == (2.0, 6.0, 20.0, 66.0)


def test_forward_moments_matches_exact_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_x = int(rng.integers(0, 5))
        n_y = int(rng.integers(0 if n_x else 1, 5))
        xs = [int(v) for v in rng.integers(-4, 5, size=n_x)]
        ys = [int(v) for v in rng.integers(-4, 5, size=n_y)]
        got = forward_moments(xs, ys)
        expected = exact_forward_moments(xs, ys, n_x + n_y)
        assert list(got.values) == [float(v) for v in expected]


def test_moment_sequence_validates_split():
    with pytest.raises(ValueError):
        MomentSequence((1.0, 2.0), 1, 0)
    with pytest.raises(ValueError):
        MomentSequence((), 0, 0)


def test_numpy_integer_branch_counts_are_accepted():
    m = MomentSequence((2.0, 6.0, 20.0, 66.0), np.int64(2), np.int32(2))
    assert type(m.n_x) is type(m.n_y) is int
    assert m == MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)
    assert analyze(m) == analyze(MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2))


WORKED = MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)
A3 = ExpCoefficients((1.0, 3.0, 7.0))


@pytest.mark.parametrize("make, match", [
    (lambda: MomentSequence((1.0,), -1, 2), "^n_x must be >= 0$"),
    (lambda: MomentSequence((1.0,), 2, -1), "^n_y must be >= 0$"),
    # a split that is not integers passed the K check, and the Hankel
    # assembly then raised TypeError
    (lambda: MomentSequence((2.0, 6.0, 20.0, 66.0), 2.0, 2.0), "^n_x must be an integer, got 2.0$"),
    (lambda: MomentSequence((1.0, 2.0), 1, 1.0), "^n_y must be an integer, got 1.0$"),
    (lambda: MomentSequence((1.0, 2.0), 1.5, 0.5), "^n_x must be an integer, got 1.5$"),
    (lambda: MomentSequence((1.0, 2.0), True, 1), "^n_x must be an integer, got True$"),
    (lambda: ExpCoefficients((2.0,)), "must start with a_0 = 1"),
    # build_hankel checked neither its counts nor its rank tolerance: a
    # negative n_y gave a system with n_y = -1, and a NaN tolerance rank 0
    (lambda: build_hankel(A3, 3, -1), "^n_y must be >= 0$"),
    (lambda: build_hankel(A3, -1, 3), "^n_x must be >= 0$"),
    (lambda: build_hankel(A3, 2.0, 0), "^n_x must be an integer, got 2.0$"),
    (lambda: build_hankel(A3, True, 1), "^n_x must be an integer, got True$"),
    (lambda: build_hankel(A3, 2, 0, float("nan")), r"^rank tolerance must lie in \(0, 1\), got nan$"),
    (lambda: build_hankel(A3, 2, 0, 0.0), r"^rank tolerance must lie in \(0, 1\), got 0.0$"),
    (lambda: build_hankel(A3, 2, 0, 1.0), r"^rank tolerance must lie in \(0, 1\), got 1.0$"),
    # numeric_rank returned 0 at a NaN tolerance
    (lambda: numeric_rank([[1.0, 0.0], [0.0, 1.0]], float("nan")), r"^rank tolerance must lie in \(0, 1\), got nan$"),
    (lambda: numeric_rank([[1.0, 0.0], [0.0, 1.0]], 0.0), r"^rank tolerance must lie in \(0, 1\), got 0.0$"),
    (lambda: numeric_rank([[1.0, 0.0], [0.0, 1.0]], 1.0), r"^rank tolerance must lie in \(0, 1\), got 1.0$"),
    (lambda: ToleranceSet(rank=float("nan")), r"^rank tolerance must lie in \(0, 1\), got nan$"),
    # the least value of every other count
    (lambda: extend_moments(WORKED, 0), "^count must be >= 1$"),
    (lambda: trig_forward(TrigSignal((0.1,), (1.0,)), 0), "^count must be >= 1$"),
    (lambda: trig_invert([1.0, 1.0], 0), "^mode count must be >= 1$"),
], ids=[
    "negative-count", "negative-n_y", "float-counts", "float-n_y", "fractional-counts", "bool-count", "a0-not-1",
    "build_hankel-negative-n_y", "build_hankel-negative-n_x", "build_hankel-float-count", "build_hankel-bool-count",
    "build_hankel-rank-nan", "build_hankel-rank-0", "build_hankel-rank-1",
    "numeric_rank-nan", "numeric_rank-0", "numeric_rank-1", "ToleranceSet-rank-nan",
    "extend_moments-count-0", "trig_forward-count-0", "trig_invert-modes-0",
])
def test_invalid_arguments_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("xs, ys, match", [
    ([1e200, 0.0], [], r"m_2 is not finite \(inf\)"),  # 1e200**2 raises OverflowError
    ([1e154, 1e154], [], r"m_2 is not finite \(inf\)"),  # the sum overflows
    ([], [1e200, 0.0], r"m_2 is not finite \(-inf\)"),
    ([-1e200], [1e103], r"m_2 is not finite \(inf\)"),
    ([1e200], [1e200], r"m_2 is not finite \(nan\)"),
], ids=["power", "sum", "negative-side", "negative-value", "inf-minus-inf"])
def test_forward_moments_that_overflow_raise(xs, ys, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match + ": the power sums overflow"):
            forward_moments(xs, ys)


def test_exp_transform_names_the_first_coefficient_that_overflows():
    # a_2 = (1e300 + 1e400) / 2 is inf, and every later coefficient is not finite either
    for moments in ((1e200, 1e300), (1e200, 1e300, 1.0, 2.0)):
        with pytest.raises(ValueError, match=r"^a_2 is not finite \(inf\): the exponential transform overflows$"):
            exp_transform(moments)


def test_exp_transform_zero_moments():
    assert exp_transform(MomentSequence((0.0, 0.0), 1, 1)).values == (1.0, 0.0, 0.0)


def test_exp_transform_worked_values():
    assert exp_transform(MomentSequence((2.0, 0.0), 1, 1)).values == (1.0, 2.0, 2.0)
    assert exp_transform(MomentSequence((3.0, 5.0), 2, 0)).values == (1.0, 3.0, 7.0)


def test_exp_transform_matches_exact_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        K = int(rng.integers(1, 10))
        m = [int(v) for v in rng.integers(-6, 7, size=K)]
        got = exp_transform(m).values
        expected = exact_exp_transform(m)
        assert np.allclose(got, [float(v) for v in expected], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_values_must_be_finite(bad):
    for make in (
        lambda: MomentSequence((1.0, bad), 1, 1),
        lambda: ExpCoefficients((1.0, bad)),
        lambda: BranchSolution((bad,), ()),
        lambda: BranchSolution((1.0,), (0.0, bad)),
        lambda: forward_moments([bad], []),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()
    # finite moments whose transform overflows: a_2 = (1e200 + 1e400) / 2
    with pytest.raises(ValueError, match="finite"):
        exp_transform((1e200, 1e200))


HUGE = 10**400  # an integer beyond the float range: float() raises OverflowError


@pytest.mark.parametrize("call, match", [
    (lambda: MomentSequence((1.0, HUGE), 1, 1), "^moments must be finite real numbers$"),
    (lambda: ExpCoefficients((1.0, HUGE)), "^coefficients must be finite real numbers$"),
    (lambda: BranchSolution((HUGE,), ()), "^xs must be finite real numbers$"),
    (lambda: BranchSolution((1.0,), (HUGE,)), "^ys must be finite real numbers$"),
    (lambda: forward_moments([HUGE], []), "^xs must be finite real numbers$"),
    (lambda: weights([HUGE, 1.0], [0.5]), "^xs must be finite real numbers$"),
    (lambda: weights([1.0], [-HUGE]), "^ys must be finite real numbers$"),
    (lambda: next_moment(MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2), cbar=[HUGE, 1.0]),
     "^cbar must be finite real numbers$"),
    (lambda: TrigSignal((HUGE,), (1.0,)), "^freqs must be finite real numbers$"),
    (lambda: TrigSignal((0.0,), (HUGE,)), "^amps must be finite complex numbers$"),
    (lambda: trig_invert([HUGE, 1.0], 1), "^moments must be finite complex numbers$"),
    (lambda: density_eval(BranchSolution((1.0,), ()), HUGE), "^x must be finite real numbers$"),
    (lambda: family_member(invert_min_degree(forward_moments([1.0, 3.0, 0.5], [0.25, 2.0, 0.5])), [HUGE]),
     "^r_roots must be finite real numbers$"),
], ids=[
    "MomentSequence", "ExpCoefficients", "BranchSolution-xs", "BranchSolution-ys", "forward_moments",
    "weights-xs", "weights-ys", "next_moment-cbar", "TrigSignal-freqs", "TrigSignal-amps", "trig_invert",
    "density_eval", "family_member",
])
def test_an_integer_beyond_the_float_range_is_not_finite(call, match):
    # these raised OverflowError from float() or complex(); they now raise
    # the ValueError of an infinite value
    with pytest.raises(ValueError, match=match):
        call()


def test_a_value_of_the_wrong_type_is_still_a_type_error():
    for make in (
        lambda: MomentSequence((1.0, None), 1, 1),
        lambda: forward_moments([object()], []),
        lambda: weights([1.0], [[0.5]]),
        # a nested list of moments failed the length check with ValueError
        lambda: trig_invert([[1.0, 0.0], [0.0, 1.0]], 1),
        lambda: TrigSignal((0.1,), ([1.0],)),
    ):
        with pytest.raises(TypeError):
            make()
    # text is not a number, though float() and complex() would parse it:
    # the TypeError names the field
    README = MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)
    for make, field in (
        (lambda: MomentSequence(("2", "6"), 1, 1), "moments"),
        (lambda: MomentSequence(("abc", 6), 1, 1), "moments"),
        (lambda: MomentSequence((b"2", 6.0), 1, 1), "moments"),
        (lambda: MomentSequence((2.0, bytearray(b"6")), 1, 1), "moments"),
        (lambda: MomentSequence((np.str_("2"), 6.0), 1, 1), "moments"),
        (lambda: MomentSequence("26", 1, 1), "moments"),
        (lambda: TrigSignal(("0.5",), ("1+2j",)), "freqs"),
        (lambda: TrigSignal((0.5,), ("1+2j",)), "amps"),
        (lambda: forward_moments(["1"], ["3"]), "xs"),
        (lambda: forward_moments([1.0], ["3"]), "ys"),
        (lambda: next_moment(README, cbar=["1", "2"]), "cbar"),
        (lambda: weights(["1"], [0.5]), "xs"),
        (lambda: weights([1.0], [b"0.5"]), "ys"),
        (lambda: density_eval(BranchSolution((1.0,), ()), "0.5"), "x"),
        (lambda: family_member(invert_min_degree(forward_moments([1.0, 3.0, 0.5], [0.25, 2.0, 0.5])), ["0.5"]),
         "r_roots"),
        (lambda: trig_invert(["1", "0"], 1), "moments"),
        (lambda: trig_invert(np.array(["1", "0"]), 1), "moments"),
    ):
        with pytest.raises(TypeError, match=f"^{field} must be (real|complex) numbers$"):
            make()


def test_round_trip_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        K = int(rng.integers(1, 13))
        values = rng.uniform(-2, 2, size=K)
        m = MomentSequence(tuple(values), K, 0)
        back = exact_inv_exp_transform(exp_transform(m).values)
        scale = max(abs(v) for v in values)
        assert max(abs(a - b) for a, b in zip(back, values)) <= 1e-12 * scale


def test_exp_coefficients_index_convention():
    a = ExpCoefficients((1.0, 3.0, 7.0))
    assert a[-1] == 0.0
    assert a[-5] == 0.0
    assert a[2] == 7.0
    with pytest.raises(IndexError):
        a[3]


def test_transform_is_taylor_expansion_of_quotient():
    # the transformed sequence of forward moments equals the series of
    # q(z)/p(z), obtained independently by long division
    rng = np.random.default_rng(14)
    for _ in range(40):
        n_x = int(rng.integers(0, 4))
        n_y = int(rng.integers(0, 4))
        if n_x + n_y == 0:
            continue
        xs = rng.uniform(-4, 4, size=n_x)
        ys = rng.uniform(-4, 4, size=n_y)
        K = n_x + n_y
        a = exp_transform(forward_moments(xs, ys)).values
        series = taylor_quotient(exact_poly_from_roots(ys), exact_poly_from_roots(xs), K)
        scale = max(1.0, max(abs(v) for v in series))
        assert max(abs(x - y) for x, y in zip(a, series)) <= 1e-10 * scale


def test_negated_transform_swaps_quotient():
    rng = np.random.default_rng(15)
    for _ in range(20):
        xs = rng.uniform(-3, 3, size=2)
        ys = rng.uniform(-3, 3, size=2)
        m = forward_moments(xs, ys)
        a = exp_transform(m.negated()).values
        series = taylor_quotient(exact_poly_from_roots(xs), exact_poly_from_roots(ys), 4)
        scale = max(1.0, max(abs(v) for v in series))
        assert max(abs(x - y) for x, y in zip(a, series)) <= 1e-10 * scale


def test_polynomial_product_is_coefficient_convolution():
    rng = np.random.default_rng(16)
    for _ in range(20):
        f = [int(v) for v in rng.integers(-5, 6, size=rng.integers(1, 5))]
        g = [int(v) for v in rng.integers(-5, 6, size=rng.integers(1, 5))]
        product = list(np.polynomial.polynomial.polymul(f, g))  # trims high zeros
        conv = convolve_lists(f, g)
        product += [0.0] * (len(conv) - len(product))
        assert product == conv


def test_branch_solution_canonical_order_and_degree():
    sol = BranchSolution.from_branches([0.0, 3.0, -2.0], [0.0, 1.0])
    assert sol.xs == (-2.0, 3.0, 0.0)
    assert sol.ys == (1.0, 0.0)
    assert sol.degree == 2
    # a negative zero is a zero too
    assert BranchSolution((-0.0, 1.0), ()).degree == 1
    with pytest.raises(ValueError, match="degree"):
        BranchSolution((-0.0, 1.0), (), degree=2)
    # an explicit degree is a count, as MomentSequence's counts are: a
    # numpy integer is stored as an int, a bool or a float is rejected
    degree = BranchSolution((-0.0, 1.0), (), degree=np.int64(1)).degree
    assert degree == 1 and type(degree) is int
    for bad in (True, 1.0, -1.0, np.int64(-1)):
        with pytest.raises(ValueError, match="degree"):
            BranchSolution((-0.0, 1.0), (), degree=bad)
