import warnings

import numpy as np
import pytest
import scipy.linalg

from momentkit import (
    BranchSolution,
    ExpCoefficients,
    FamilyOverflow,
    MomentSequence,
    NonRealSolution,
    NoSolution,
    build_hankel,
    companion_coefficients,
    exp_transform,
    extend_moments,
    family_member,
    forward_moments,
    invert_min_degree,
    next_moment,
)
from momentkit.inversion import _recurrence, _solve_cbar
from instances import (
    matched_pair_extension,
    moment_space_error,
    multiset_distance,
    random_solvable_instance,
)
from oracles import power_sum


def test_companion_coefficients_worked_cases():
    h = build_hankel(ExpCoefficients((1.0, 3.0, 7.0)), 2, 0)
    assert np.allclose(companion_coefficients(h), [-3.0, 2.0])

    h = build_hankel(ExpCoefficients((1.0, 1.0, 1.0, 1.0)), 2, 1)
    assert np.allclose(companion_coefficients(h), [-1.0])

    h = build_hankel(ExpCoefficients((1.0, 2.0, 2.0)), 1, 1)
    assert np.allclose(companion_coefficients(h), [-1.0])


def test_invert_pure_positive():
    sol = invert_min_degree(MomentSequence((3.0, 5.0), 2, 0))
    assert multiset_distance(sol.xs, (1.0, 2.0)) < 1e-10
    assert sol.ys == ()
    assert sol.degree == 2


def test_invert_two_sided():
    sol = invert_min_degree(MomentSequence((2.0, 0.0), 1, 1))
    assert abs(sol.xs[0] - 1.0) < 1e-12
    assert abs(sol.ys[0] + 1.0) < 1e-12


def test_invert_cancellation_minimal_solution():
    sol = invert_min_degree(MomentSequence((1.0, 1.0, 1.0), 2, 1))
    assert sol.degree == 1
    assert abs(sol.xs[0] - 1.0) < 1e-10
    assert sol.xs[1] == 0.0
    assert sol.ys == (0.0,)


def test_invert_complex_roots_raise():
    with pytest.raises(NonRealSolution):
        invert_min_degree(MomentSequence((0.0, -2.0), 2, 0))


def test_invert_unsolvable_raises():
    with pytest.raises(NoSolution):
        invert_min_degree(MomentSequence((0.0, 1.0), 1, 1))


def test_invert_empty_side():
    sol = invert_min_degree(MomentSequence((-3.0, -5.0), 0, 2))
    assert sol.xs == ()
    assert multiset_distance(sol.ys, (1.0, 2.0)) < 1e-10


@pytest.mark.parametrize("method", ["companion", "geneig"])
def test_small_value_beside_a_large_one_is_kept(method):
    # a_k = x^(k-1) (x - y) grows with the large value; each side's zeros
    # are cut at its own problem's scale, so 0.005 is no structural zero
    for x, y in ((1000.0, 0.005), (0.005, 1000.0)):
        sol = invert_min_degree(MomentSequence((x - y, x**2 - y**2), 1, 1), method)
        assert abs(sol.xs[0] - x) <= 1e-10 * max(1.0, x)
        assert abs(sol.ys[0] - y) <= 1e-10 * max(1.0, y)


def test_family_member_examples():
    minimal = invert_min_degree(MomentSequence((0.0, 0.0), 1, 1))
    member = family_member(minimal, [5.0])
    assert member.xs == (5.0,) and member.ys == (5.0,)

    minimal = invert_min_degree(MomentSequence((1.0, 1.0, 1.0), 2, 1))
    member = family_member(minimal, [7.0])
    assert multiset_distance(member.xs, (1.0, 7.0)) < 1e-10
    assert multiset_distance(member.ys, (7.0,)) < 1e-10
    back = forward_moments(member.xs, member.ys, 3)
    assert np.allclose(back.values, (1.0, 1.0, 1.0), atol=1e-10)

    assert family_member(minimal, []) == minimal


def test_family_member_overflow():
    minimal = invert_min_degree(MomentSequence((1.0, 1.0, 1.0), 2, 1))
    with pytest.raises(FamilyOverflow):
        family_member(minimal, [7.0, 8.0])


def test_family_invariance_exact_integers():
    minimal = BranchSolution.from_branches([1.0, 0.0], [0.0])
    base = forward_moments(minimal.xs, minimal.ys, 3)
    member = family_member(minimal, [3.0])
    assert forward_moments(member.xs, member.ys, 3).values == base.values


def test_family_invariance_float():
    rng = np.random.default_rng(32)
    for _ in range(30):
        xs, ys, m, t, m_ext = matched_pair_extension(rng)
        minimal = invert_min_degree(m_ext)
        member = family_member(minimal, [t])
        back = forward_moments(member.xs, member.ys, m_ext.K)
        scale = max(1.0, max(abs(v) for v in m_ext.values))
        assert max(abs(a - b) for a, b in zip(back.values, m_ext.values)) <= 1e-10 * scale


def test_oracle_round_trip_random():
    rng = np.random.default_rng(33)
    for _ in range(100):
        xs, ys, m = random_solvable_instance(rng)
        sol = invert_min_degree(m)
        assert moment_space_error(m, sol) <= 1e-6
        assert multiset_distance(sol.xs, xs) < 1e-6
        assert multiset_distance(sol.ys, ys) < 1e-6


def test_methods_agree():
    rng = np.random.default_rng(34)
    for _ in range(60):
        xs, ys, m = random_solvable_instance(rng)
        # the reduced pencil is the companion matrix, so both names read one matrix
        assert invert_min_degree(m, method="geneig") == invert_min_degree(m, method="companion")


def test_zero_count_matches_reduced_size_minus_degree():
    # integer instances where the reduced system is larger than the
    # minimal degree, so extraction must filter exact structural zeros
    cases = [
        ([1, 0], [], 1),          # rank 2, degree 1 -> one zero filtered
        ([2, 0, 3], [1], 2),      # zero branch inside a two-sided instance
        ([1, 2], [2], 1),         # cancellation: reduced size 1, degree 1
    ]
    for xs, ys, degree in cases:
        m = forward_moments(xs, ys, len(xs) + len(ys))
        sol, info = invert_min_degree(m, full_output=True)
        a = exp_transform(m)
        h = build_hankel(a, m.n_x, m.n_y)
        assert sol.degree == degree
        assert info["x"]["zeros_filtered"] == h.n_x_tilde - degree
        assert info["y"]["rank"] == h.n_y_tilde


def test_next_moment_worked_cases():
    assert next_moment(MomentSequence((2.0,), 1, 0)) == pytest.approx(4.0)
    assert next_moment(MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)) == pytest.approx(212.0)
    assert next_moment(MomentSequence((1.0, 1.0, 1.0), 2, 1)) == pytest.approx(1.0)


def test_next_moment_matches_power_sum():
    rng = np.random.default_rng(35)
    for _ in range(60):
        xs, ys, m = random_solvable_instance(rng)
        sol = invert_min_degree(m)
        direct = power_sum(sol.xs, m.K + 1) - power_sum(sol.ys, m.K + 1)
        value = next_moment(m)
        scale = max(1.0, abs(direct))
        assert abs(value - direct) <= 1e-8 * scale


def test_next_moment_invariant_over_particular_solutions():
    rng = np.random.default_rng(36)
    for _ in range(20):
        xs, ys, m, t, m_ext = matched_pair_extension(rng)
        a = exp_transform(m_ext)
        h = build_hankel(a, m_ext.n_x, m_ext.n_y)
        base, *_ = np.linalg.lstsq(h.A1, -h.a0, rcond=None)
        null = scipy.linalg.null_space(h.A1, rcond=1e-9)
        assert null.shape[1] >= 1
        values = [next_moment(m_ext)]
        # one recursion serves both entry points, so the minimum-norm
        # value agrees bit for bit
        assert values[0] == extend_moments(m_ext, 1)[-1]
        assert next_moment(m_ext, cbar=np.array(_solve_cbar(h))) == values[0]
        for _ in range(5):
            perturbed = base + null @ rng.uniform(-2, 2, size=null.shape[1])
            values.append(next_moment(m_ext, cbar=perturbed))
        spread = max(values) - min(values)
        assert spread <= 1e-10 * max(1.0, abs(values[0]))


def test_min_norm_solution_matches_lstsq():
    # the LU solution at full rank, and otherwise the SVD of A1 with
    # lstsq's rcond=None cutoff; an exactly singular A1 = [[1, 1], [1, 1]]
    # and well-conditioned unique systems
    systems = [build_hankel(ExpCoefficients((1.0, 1.0, 1.0, 1.0)), 2, 1)]
    rng = np.random.default_rng(38)
    while len(systems) < 40:
        m = random_solvable_instance(rng, n_max=4)[2]
        h = build_hankel(exp_transform(m), m.n_x, m.n_y)
        if h.s[0] <= 1e3 * h.s[-1]:
            systems.append(h)
    assert np.allclose(_solve_cbar(systems[0]), [-0.5, -0.5], rtol=0.0, atol=1e-15)
    for h in systems:
        want, *_ = np.linalg.lstsq(h.A1, -h.a0, rcond=None)
        got = np.array(_solve_cbar(h))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


M_UNIQUE = forward_moments([1.0, 2.0], [0.5], 3)


@pytest.mark.parametrize("call, match", [
    (lambda: invert_min_degree(M_UNIQUE, method="qr"), "method must be one of"),
    (lambda: next_moment(M_UNIQUE, cbar=[1.0]), "cbar must have length n_x = 2"),
    (lambda: extend_moments(M_UNIQUE, 0), "count must be >= 1"),
], ids=["method", "cbar-length", "extend-count-0"])
def test_invalid_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_next_moment_unsolvable():
    with pytest.raises(NoSolution):
        next_moment(MomentSequence((0.0, 1.0), 1, 1))


def test_continued_moments_that_overflow_raise():
    # finite data whose next moments overflow: a_3 = 5e153 * 5e307
    m = MomentSequence((1e154, 1e154), 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: next_moment(m), lambda: extend_moments(m, 2), lambda: next_moment(m, cbar=[-1.0])):
            with pytest.raises(ValueError, match="m_3 is not finite"):
                call()


def _sequential_recurrence(m, a, cbar, count):
    """The continuation with every sum accumulated left to right, one
    rounding per term."""
    avals, mvals = list(a), list(m)
    for k in range(len(m) + 1, len(m) + count + 1):
        acc = 0.0
        for j in range(1, len(cbar) + 1):
            acc += cbar[j - 1] * avals[k - j]
        avals.append(-acc)
        acc = 0.0
        for j in range(1, k):
            acc += mvals[j - 1] * avals[k - j]
        mvals.append(k * avals[k] - acc)
    return avals, mvals


def test_continuation_sums_in_a_fixed_order():
    # 1e16 + 1 rounds back to 1e16, so the cancelling sums below give 0 left
    # to right; a compensated sum (Python's sum() from 3.12) would give 1
    m = MomentSequence((1.0, 1.0, 1.0, 1.0), 3, 1)  # a_k = 1 for all k
    assert exp_transform(m).values == (1.0,) * 5
    # a_5 = -(1e16 + 1 - 1e16) = -0.0 and m_5 = 5 a_5 - 4
    assert next_moment(m, cbar=[1e16, 1.0, -1e16]) == -4.0
    # the moment sum cancels too: m_1 a_3 + m_2 a_2 + m_3 a_1 = 1e16 + 1 - 1e16
    cases = [
        ((1e16, 1.0, -1e16), (1.0,) * 4, [1.0, 0.5], 3),
        ((1.0, 1.0, 1.0, 1.0), (1.0,) * 5, [1e16, 1.0, -1e16], 2),
    ]
    rng = np.random.default_rng(33)
    for _ in range(50):
        K = int(rng.integers(2, 9))
        n_x = int(rng.integers(1, K + 1))
        big = 10.0 ** rng.uniform(10, 17)
        cases.append((
            tuple(rng.choice([-big, big, 1.0], size=K)),
            (1.0, *rng.choice([-1.0, 1.0, 0.5], size=K)),
            list(rng.choice([-big, big, 1.0, 0.25], size=n_x)),
            int(rng.integers(1, 5)),
        ))
    for m_values, a_values, cbar, count in cases:
        got = _recurrence(MomentSequence(m_values, len(cbar), len(m_values) - len(cbar)),
                          ExpCoefficients(a_values), cbar, count)
        want = _sequential_recurrence(m_values, a_values, cbar, count)
        assert [[v.hex() for v in side] for side in got] == [[v.hex() for v in side] for side in want]


def test_extend_moments_worked_cases():
    assert extend_moments(MomentSequence((2.0,), 1, 0), 3) == (2.0, 4.0, 8.0, 16.0)
    assert extend_moments(MomentSequence((2.0, 0.0), 1, 1), 2) == (2.0, 0.0, 2.0, 0.0)
    assert extend_moments(MomentSequence((0.0, 0.0), 1, 1), 2) == (0.0, 0.0, 0.0, 0.0)


def test_extend_moments_matches_power_sums_of_solution():
    rng = np.random.default_rng(37)
    for _ in range(30):
        xs, ys, m = random_solvable_instance(rng, n_max=4)
        L = int(rng.integers(1, 5))
        extended = extend_moments(m, L)
        assert extended[: m.K] == m.values
        for i in range(1, L + 1):
            direct = power_sum(xs, m.K + i) - power_sum(ys, m.K + i)
            assert abs(extended[m.K + i - 1] - direct) <= 1e-7 * max(1.0, abs(direct))


def test_extend_moments_degenerate_instance():
    rng = np.random.default_rng(38)
    for _ in range(10):
        xs, ys, m, t, m_ext = matched_pair_extension(rng)
        extended = extend_moments(m_ext, 2)
        for i in (1, 2):
            k = m_ext.K + i
            direct = power_sum(xs + [t], k) - power_sum(ys + [t], k)
            assert abs(extended[k - 1] - direct) <= 1e-7 * max(1.0, abs(direct))


def test_negation_symmetry():
    # the ys come from q = p*a on m's own system, the flipped problem's xs
    # from its own reduced pencil
    rng = np.random.default_rng(39)
    problems = [random_solvable_instance(rng)[2] for _ in range(30)]
    rng = np.random.default_rng(41)
    problems += [matched_pair_extension(rng)[4] for _ in range(20)]
    for m in problems:
        sol = invert_min_degree(m)
        flipped = invert_min_degree(m.negated())
        assert multiset_distance(sol.xs, flipped.ys) < 1e-8
        assert multiset_distance(sol.ys, flipped.xs) < 1e-8


def test_minimal_solution_sides_are_disjoint():
    rng = np.random.default_rng(40)
    for _ in range(40):
        xs, ys, m = random_solvable_instance(rng)
        sol = invert_min_degree(m)
        for x in sol.xs:
            for y in sol.ys:
                if x != 0.0 and y != 0.0:
                    assert abs(x - y) > 1e-6
