import warnings

import numpy as np
import pytest

from momentkit import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    exp_transform,
    forward_moments,
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
    m = forward_moments([2.0], [], 1)
    assert m.values == (2.0,)
    assert (m.n_x, m.n_y) == (1, 0)


def test_forward_moments_two_sided():
    m = forward_moments([1.0], [-1.0], 2)
    assert m.values == (2.0, 0.0)


def test_forward_moments_worked_instance():
    m = forward_moments([1.0, 3.0], [0.0, 2.0], 4)
    assert m.values == (2.0, 6.0, 20.0, 66.0)


def test_forward_moments_matches_exact_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_x = int(rng.integers(0, 5))
        n_y = int(rng.integers(0 if n_x else 1, 5))
        xs = [int(v) for v in rng.integers(-4, 5, size=n_x)]
        ys = [int(v) for v in rng.integers(-4, 5, size=n_y)]
        got = forward_moments(xs, ys, n_x + n_y)
        expected = exact_forward_moments(xs, ys, n_x + n_y)
        assert list(got.values) == [float(v) for v in expected]


def test_moment_sequence_validates_split():
    with pytest.raises(ValueError):
        MomentSequence((1.0, 2.0), 1, 0)
    with pytest.raises(ValueError):
        MomentSequence((), 0, 0)


@pytest.mark.parametrize("make, match", [
    (lambda: MomentSequence((1.0,), -1, 2), "branch counts must be nonnegative"),
    (lambda: ExpCoefficients((2.0,)), "must start with a_0 = 1"),
    (lambda: forward_moments([1.0], [], 0), "count must be >= 1"),
], ids=["negative-count", "a0-not-1", "forward-count-0"])
def test_invalid_arguments_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("xs, ys, match", [
    ([1e200], [], r"m_2 is not finite \(inf\)"),  # 1e200**2 raises OverflowError
    ([1e154, 1e154], [], r"m_2 is not finite \(inf\)"),  # the sum overflows
    ([], [1e200], r"m_2 is not finite \(-inf\)"),
    ([-1e200], [1e103], r"m_2 is not finite \(inf\)"),
    ([1e200], [1e200], r"m_2 is not finite \(nan\)"),
], ids=["power", "sum", "negative-side", "negative-value", "inf-minus-inf"])
def test_forward_moments_that_overflow_raise(xs, ys, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match + ": the power sums overflow"):
            forward_moments(xs, ys, 3)


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
        lambda: forward_moments([bad], [], 1),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()
    # finite moments whose transform overflows: a_2 = (1e200 + 1e400) / 2
    with pytest.raises(ValueError, match="finite"):
        exp_transform((1e200, 1e200))


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
        a = exp_transform(forward_moments(xs, ys, K)).values
        series = taylor_quotient(exact_poly_from_roots(ys), exact_poly_from_roots(xs), K)
        scale = max(1.0, max(abs(v) for v in series))
        assert max(abs(x - y) for x, y in zip(a, series)) <= 1e-10 * scale


def test_negated_transform_swaps_quotient():
    rng = np.random.default_rng(15)
    for _ in range(20):
        xs = rng.uniform(-3, 3, size=2)
        ys = rng.uniform(-3, 3, size=2)
        m = forward_moments(xs, ys, 4)
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
