import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from momentkit import (
    ExpCoefficients,
    MomentProblemError,
    MomentSequence,
    SingularReducedSystem,
    ToleranceSet,
    analyze,
    build_hankel,
    companion_coefficients,
    exp_transform,
    extend_moments,
    family_member,
    forward_moments,
    invert_min_degree,
    markov_certificate,
    next_moment,
    numeric_rank,
)
from momentkit import _lapack, structure, tolerances
from momentkit.structure import solvable
from instances import (
    matched_pair_extension,
    multiset_distance,
    random_solvable_instance,
    separated_values,
)


def test_build_hankel_pure_positive_instance():
    h = build_hankel(ExpCoefficients((1.0, 3.0, 7.0)), 2, 0)
    assert np.array_equal(h.A1, [[1.0, 0.0], [3.0, 1.0]])
    assert h.A1_rank == 2
    assert (h.A1_rank, h.n_y_tilde) == (2, 0)
    assert np.array_equal(h.T[:, : h.A1_rank], [[3.0, 1.0], [7.0, 3.0]])
    assert np.array_equal(h.A1_tilde, [[1.0, 0.0], [3.0, 1.0]])


def test_build_hankel_cancellation_instance():
    h = build_hankel(ExpCoefficients((1.0, 1.0, 1.0, 1.0)), 2, 1)
    assert np.array_equal(h.A1, [[1.0, 1.0], [1.0, 1.0]])
    assert h.A1_rank == 1
    assert (h.A1_rank, h.n_y_tilde) == (1, 0)
    assert np.array_equal(h.T[:, : h.A1_rank], [[1.0]])
    assert np.array_equal(h.A1_tilde, [[1.0]])


def test_build_hankel_arrays_are_read_only():
    # full rank, where the reduced pair aliases A and A1, and reduced rank
    for coeffs, n_x, n_y in (((1.0, 3.0, 7.0), 2, 0), ((1.0, 1.0, 1.0, 1.0), 2, 1)):
        a = ExpCoefficients(coeffs)
        h = build_hankel(a, n_x, n_y)
        assert h.a is a
        assert all(np.shares_memory(getattr(h, name), h.A) for name in ("a0", "A0", "A1"))
        # the reduced pair is one block T, a corner of A at every rank and
        # all of A at full rank
        assert np.shares_memory(h.T[:, : h.A1_rank], h.T) and np.shares_memory(h.A1_tilde, h.T)
        assert np.shares_memory(h.T, h.A) and np.shares_memory(h.A1_tilde, h.A1)
        assert (h.T.shape == h.A.shape) == (h.A1_rank == n_x)
        for view in (h.A, h.a0, h.A1, h.A0, h.T, h.T[:, : h.A1_rank], h.A1_tilde):
            with pytest.raises(ValueError):
                view[...] = 0.0


def test_size_tables_are_read_only_and_hold_no_data():
    # the index tables of A and of the stacked companion matrices are
    # cached on sizes alone: writing them raises, and every build makes a new A
    for table in (structure._entry_index(3), structure._companion_index(2, 3)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0
    a = exp_transform(forward_moments([0.3, 1.5, 2.7], [0.1, 1.2, 2.4]))
    b = exp_transform(forward_moments([0.4, 1.1, 2.2], [0.2, 0.9, 1.9]))
    first, again, other = build_hankel(a, 3, 3), build_hankel(a, 3, 3), build_hankel(b, 3, 3)
    assert np.array_equal(first.A, again.A) and not np.array_equal(first.A, other.A)
    for h, g in ((first, again), (first, other), (again, other)):
        assert not np.shares_memory(h.A, g.A)
    assert not any(np.shares_memory(h.A, structure._entry_index(3)) for h in (first, again, other))
    # solving on the stacked companion matrices leaves their table as it was:
    # 1 on the superdiagonal, each polynomial's coefficients in column 0
    invert_min_degree(forward_moments([0.3, 1.5, 2.7], [0.1, 1.2, 2.4]))
    want = np.broadcast_to(np.eye(3, k=1, dtype=np.intp), (2, 3, 3)).copy()
    want[:, :, 0] = [[2, 3, 4], [5, 6, 7]]
    assert np.array_equal(structure._companion_index(2, 3), want)


def test_reduced_pencil_shares_its_inner_columns():
    # A0_tilde and A1_tilde are T[:, :r] and T[:, 1:], so A1_tilde^-1 A0_tilde
    # is the companion matrix [-c' | shifted identity]
    full = forward_moments([0.3, 0.9, 1.5, 2.1, 2.7], [0.1, 0.6, 1.2, 1.8, 2.4])
    pair = forward_moments([0.3, 1.5, 2.7, 0.8], [0.1, 1.2, 2.4, 0.8])
    for m, rank in ((full, 5), (pair, 3)):
        h = build_hankel(exp_transform(m), m.n_x, m.n_y)
        assert h.A1_rank == rank
        A0_tilde = h.T[:, : h.A1_rank]
        assert np.array_equal(A0_tilde[:, 1:], h.A1_tilde[:, :-1])
        C = np.eye(rank, k=1)
        C[:, 0] = -companion_coefficients(h)
        assert np.array_equal((h.A1_tilde @ C)[:, 1:], A0_tilde[:, 1:])
        assert np.allclose(h.A1_tilde @ C, A0_tilde, rtol=0.0, atol=1e-12 * np.abs(h.T).max())


def test_build_hankel_zero_moments():
    h = build_hankel(ExpCoefficients((1.0, 0.0, 0.0)), 1, 1)
    assert np.array_equal(h.A1, [[0.0]])
    assert h.A1_rank == 0
    assert np.array_equal(h.a0, [0.0])


def test_build_hankel_empty_positive_side_is_the_empty_system():
    # n_x = 0: no rows, p = 1, and solvable without an SVD
    h = build_hankel(ExpCoefficients((1.0, -1.0)), 0, 1)
    assert h.A.shape == (0, 1)
    assert h.A1_rank == 0 and h.T.shape == (0, 1)
    assert h.n_y_tilde == 1
    assert solvable(h)


def test_build_hankel_checks_length():
    with pytest.raises(ValueError):
        build_hankel(ExpCoefficients((1.0, 1.0)), 2, 1)


def test_build_hankel_takes_a_plain_coefficient_list():
    a = exp_transform(forward_moments([0.3, 1.5, 2.7], [0.1, 1.2]))
    h, g = build_hankel(a, 3, 2), build_hankel(list(a.values), 3, 2)
    assert np.array_equal(g.A, h.A) and np.array_equal(g.eigs, h.eigs)
    assert g.A1_rank == h.A1_rank == 3
    # the list is checked as the ExpCoefficients constructor checks it
    for bad in ([2.0, *a.values[1:]], [1.0, float("nan"), *a.values[2:]]):
        with pytest.raises(ValueError):
            build_hankel(bad, 3, 2)


def test_index_map_audit_against_literal_transcription():
    # entry-by-entry comparison with the displayed anti-shifted layouts:
    # A[i][j] = a_{n_y+i-j} (1-based row, 0-based column), reduced blocks
    # likewise from their own shifts
    rng = np.random.default_rng(21)
    for _ in range(30):
        n_x = int(rng.integers(1, 7))
        n_y = int(rng.integers(0, 7))
        a = exp_transform(tuple(rng.uniform(-2, 2, size=n_x + n_y)))

        def at(k):
            return a.values[k] if k >= 0 else 0.0

        h = build_hankel(a, n_x, n_y)
        for i in range(1, n_x + 1):
            for j in range(n_x + 1):
                assert h.A[i - 1, j] == at(n_y + i - j)
        for i in range(1, n_x + 1):
            assert h.a0[i - 1] == at(n_y + i)
            for j in range(1, n_x + 1):
                assert h.A1[i - 1, j - 1] == at(n_y + i - j)
        nx_t, ny_t = h.A1_rank, h.n_y_tilde
        for i in range(1, nx_t + 1):
            for j in range(1, nx_t + 1):
                assert h.T[:, :nx_t][i - 1, j - 1] == at(ny_t + 1 + i - j)
                assert h.A1_tilde[i - 1, j - 1] == at(ny_t + i - j)


def test_largest_index_stays_within_known_coefficients():
    # the coefficient accessor raises beyond K, so assembly would fail if
    # any matrix reached past the given sequence
    rng = np.random.default_rng(22)
    for _ in range(20):
        n_x = int(rng.integers(1, 6))
        n_y = int(rng.integers(0, 6))
        a = exp_transform(tuple(rng.uniform(-2, 2, size=n_x + n_y)))
        h = build_hankel(a, n_x, n_y)
        assert h.n_y_tilde + h.A1_rank <= n_x + n_y


def test_toeplitz_slice_follows_the_entry_formula():
    # A's assembler: entry a[n_y + i - j] (1-based row i, 0-based column
    # j), 0 below a_0, on every n_x, n_y in 0..8
    for n_x in range(9):
        for n_y in range(9):
            a = (1.0,) + tuple(k + 0.5 for k in range(1, n_x + n_y + 1))
            M = structure._toeplitz_slice(a, n_x)
            want = [
                [a[n_y + i - j] if n_y + i - j >= 0 else 0.0 for j in range(n_x + 1)]
                for i in range(1, n_x + 1)
            ]
            assert M.shape == (n_x, n_x + 1) and M.dtype == float
            assert M.tolist() == want


def test_reduced_block_at_every_rank_is_a_corner_of_A():
    # T at rank r has entries a_{n_y_tilde+i-j}, n_y_tilde = n_y - n_x + r,
    # and 0 below a_0; replace(h, A1_rank=r) gives it with nothing rebuilt
    rng = np.random.default_rng(23)
    for n_x in range(7):
        for n_y in range(7):
            if n_x + n_y == 0:
                continue
            a = exp_transform(tuple(rng.uniform(-2, 2, size=n_x + n_y)))
            h = build_hankel(a, n_x, n_y)
            for r in range(n_x + 1):
                hr = replace(h, A1_rank=r)
                ny_t = n_y - n_x + r
                want = [
                    [a.values[ny_t + i - j] if ny_t + i - j >= 0 else 0.0 for j in range(r + 1)]
                    for i in range(1, r + 1)
                ]
                assert hr.T.shape == (r, r + 1) and hr.T.tolist() == want
                assert hr.n_y_tilde == ny_t
                # full rank is read at the replaced rank, not the decided one
                assert hr.full_rank == (r == n_x)
                # an r x (r+1) block is empty only at r = 0
                assert np.shares_memory(hr.T, h.A) == (r > 0)


def test_count_above_is_the_relative_rank_rule():
    count = tolerances._count_above
    assert count(np.zeros(0), 0.5) == 0
    assert count(np.zeros(3), 0.5) == 0
    # a value exactly at the cutoff 0.5 * 2 is not above it
    assert count(np.array([2.0, 1.0, 0.5]), 0.5) == 1
    assert count(np.array([4.0, 2.0, 1.0, 0.5, 0.25]), 0.1) == 4
    rng = np.random.default_rng(23)
    for _ in range(200):
        s = np.sort(10.0 ** rng.uniform(-12, 0, size=int(rng.integers(1, 8))))[::-1]
        tol = 10.0 ** rng.uniform(-10, -1)
        assert count(s, tol) == np.count_nonzero(s > tol * s[0])


def test_worked_instance_zeroes_its_rounding_noise_y():
    # y = 0 comes back as a root of modulus 1.3e-15, below the cutoff of the moments
    sol, info = invert_min_degree(forward_moments([1.0, 3.0], [0.0, 2.0]), full_output=True)
    assert sol.ys == (1.9999999999999973, 0.0)
    assert info["y"]["zeros_filtered"] == 1


def test_one_cutoff_read_off_the_moments_filters_both_sides(monkeypatch):
    # the xs and the ys of m and of m.negated() are all cut at tol.zero_cutoff(m.values)
    cutoffs = []
    branch_values = structure._branch_values
    monkeypatch.setattr(structure, "_branch_values", lambda roots, count, cutoff, *rest: (
        cutoffs.append(cutoff) or branch_values(roots, count, cutoff, *rest)
    ))
    rng = np.random.default_rng(66)
    for _ in range(40):
        n_x, n_y = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        scale = 10.0 ** rng.uniform(-6, 6)
        values = [v * scale for v in separated_values(rng, n_x + n_y)]
        m = forward_moments(values[:n_x], values[n_x:])
        cutoffs.clear()
        invert_min_degree(m)
        invert_min_degree(m.negated())
        assert cutoffs == [ToleranceSet().zero_cutoff(m.values)] * 4


def test_an_overflowing_root_is_rejected_as_the_constructor_rejects_it(monkeypatch):
    m = forward_moments([1.0, 3.0], [0.5, 2.0])
    monic_roots = structure._monic_roots
    for side, name in ((0, "xs"), (1, "ys")):
        def overflowing(*polys, side=side):
            roots = monic_roots(*polys)
            roots[side] = np.array([np.inf, *roots[side][1:]])
            return roots

        monkeypatch.setattr(structure, "_monic_roots", overflowing)
        with pytest.raises(ValueError, match=f"^{name} must be finite real numbers$"):
            invert_min_degree(m)


def test_zero_cutoff_is_the_generator_formula_bit_for_bit():
    # one exponent 1.0 / k per moment m_k, for every length
    rng = np.random.default_rng(64)
    tol = ToleranceSet()
    for K in range(1, 65):
        for _ in range(5):
            m = (rng.normal(size=K) * 10.0 ** rng.uniform(-12, 12, size=K)).tolist()
            want = 1e-8 * max(abs(v) ** (1.0 / k) for k, v in enumerate(m, 1))
            assert tol.zero_cutoff(m) == tol.zero_cutoff(tuple(m)) == want
    assert ToleranceSet(zero=0.25).zero_cutoff(m) == 0.25


def test_zero_cutoff_does_not_depend_on_which_side_is_x():
    # |m_k| is the same for the sign-flipped problem, so the cutoff is the same bits
    rng = np.random.default_rng(65)
    tol = ToleranceSet()
    for _ in range(200):
        n_x, n_y = int(rng.integers(0, 5)), int(rng.integers(1, 5))
        values = (rng.normal(size=n_x + n_y) * 10.0 ** rng.uniform(-8, 8)).tolist()
        values[int(rng.integers(n_x + n_y))] = 0.0
        m = forward_moments(values[:n_x], values[n_x:])
        assert tol.zero_cutoff(m.values) == tol.zero_cutoff(m.negated().values)


def _companion_roots(coeffs):
    """np.linalg.eigvals of one companion matrix, as a per-side call makes it."""
    n = len(coeffs)
    if n == 0:
        return np.zeros(0)
    C = np.eye(n, k=1)
    C[:, 0] = -np.asarray(coeffs)
    return np.linalg.eigvals(C)


def test_monic_roots_match_a_call_per_polynomial():
    # one stacked call when the degrees agree, one per side when they do
    # not: each side's roots are the bits of its own call, as Python floats
    # where that call is real (its imaginary parts all zero) and as
    # complex numbers where it is not
    rng = np.random.default_rng(25)

    def coefficients(n, kind):
        if kind == "random":
            return rng.normal(size=n)
        return np.atleast_1d(np.poly(rng.uniform(-3, 3, size=n)))[1:]  # real roots

    dtypes = set()
    for d_x in range(11):
        for d_y in range(11):
            for kinds in (("random", "random"), ("roots", "roots"), ("roots", "random"), ("random", "roots")):
                polys = [coefficients(d, kind) for d, kind in zip((d_x, d_y), kinds)]
                got = structure._monic_roots(polys[0], polys[1].tolist())
                for roots, coeffs in zip(got, polys):
                    want = _companion_roots(coeffs)
                    assert type(roots) is list and len(roots) == len(want)
                    assert all(type(z) is type(w) for z, w in zip(roots, want.tolist()))
                    assert np.array(roots, dtype=want.dtype).tobytes() == want.tobytes()
                    dtypes.add(want.dtype.kind)
    assert dtypes == {"f", "c"}


def test_numeric_rank_small_cases():
    assert numeric_rank([[1.0, 0.0], [3.0, 1.0]]) == 2
    assert numeric_rank([[1.0, 1.0], [1.0, 1.0]]) == 1
    assert numeric_rank([[0.0]]) == 0
    assert numeric_rank(np.zeros((0, 3))) == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_numeric_rank_rejects_non_finite_entries(bad):
    # the SVD of such a matrix is NaN, and a NaN compares false with every cutoff
    with pytest.raises(ValueError, match="non-finite"):
        numeric_rank([[5e307, 1e154], [bad, 5e307]])


def test_solvable_by_the_theorem_at_full_rank(monkeypatch):
    # at full rank A1 spans the space, so a0 lies in its range: solvable is
    # True and the SVD of A is never taken; where A1 is rank-deficient the
    # SVD of A decides
    calls = []
    svd = _lapack.svd
    monkeypatch.setattr(_lapack, "svd", lambda M: calls.append(1) or svd(M))
    rng = np.random.default_rng(2026)
    problems = [MomentSequence((0.0, 1.0), 1, 1)]  # rank-deficient and unsolvable
    for _ in range(1000):
        n_x, n_y = int(rng.integers(1, 6)), int(rng.integers(0, 5))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        values = [v * scale for v in separated_values(rng, n_x + n_y)]
        problems.append(forward_moments(values[:n_x], values[n_x:]))
        problems.append(matched_pair_extension(rng)[4])  # rank-deficient and solvable
    decided = {True: 0, False: 0}
    for m in problems:
        h = build_hankel(exp_transform(m), m.n_x, m.n_y)
        calls.clear()
        got = solvable(h)
        if h.A1_rank == m.n_x:
            assert got and not calls
        else:
            assert calls == [1] and got == (numeric_rank(h.A, h.tol_rank) == h.A1_rank)
            decided[got] += 1
    assert decided[True] >= 900 and decided[False] >= 1


def test_analyze_unsolvable_instance():
    report = analyze(MomentSequence((0.0, 1.0), 1, 1))
    assert not report.exists
    assert report.rank_A1 == 0
    assert report.minimal_solution is None
    assert not report.unique


def test_analyze_degenerate_zero_instance():
    report = analyze(MomentSequence((0.0, 0.0), 1, 1))
    assert report.exists
    assert (report.d_min, report.d_max) == (0, 1)
    assert not report.unique
    assert report.minimal_solution.xs == (0.0,)
    assert report.minimal_solution.ys == (0.0,)


def test_analyze_cancellation_instance():
    report = analyze(MomentSequence((1.0, 1.0, 1.0), 2, 1))
    assert report.exists
    assert report.rank_A1 == 1
    assert (report.d_min, report.d_max) == (1, 2)
    assert not report.unique
    sol = report.minimal_solution
    assert sol.degree == 1 == report.d_min
    assert abs(sol.xs[0] - 1.0) < 1e-10


def test_analyze_empty_positive_side():
    report = analyze(MomentSequence((-2.0,), 0, 1))
    assert report.exists and report.unique
    assert (report.d_min, report.d_max) == (0, 0)
    assert report.minimal_solution.ys == (2.0,)


def test_analyze_singular_reduced_system_takes_the_default_bounds():
    # a_k grows like 3000^k, so the reduced block of rank 2 is numerically singular
    m = forward_moments([1000.0, 2000.0, 3000.0], [])
    with pytest.raises(SingularReducedSystem):
        invert_min_degree(m)
    report = analyze(m)
    assert report.exists and report.rank_A1 == 2
    assert (report.d_min, report.d_max) == (0, 1)
    assert report.minimal_solution is None


def _right(sol, xs, ys):
    """Whether both sides of ``sol`` match (xs, ys) within 1e-8 of the largest |value|."""
    bound = 1e-8 * max(map(abs, (*xs, *ys)))
    return multiset_distance(sol.xs, xs) <= bound and multiset_distance(sol.ys, ys) <= bound


def test_full_rank_data_exists_whatever_the_rank_of_A():
    # A1 is unit lower-triangular, but the relative cutoff on A read rank(A)
    # 2 < rank(A1) 3 and answered NoSolution
    xs = (100.0, 128.0, -40.0)
    report = analyze(forward_moments(xs, []))
    assert report.exists and report.unique
    assert _right(report.minimal_solution, xs, ())


def test_small_data_is_not_zeroed():
    # the cutoff 1e-8 * (1 + max|a_k|) was above every root here, so the
    # minimal solution came back as all zeros
    xs, ys = (3e-5, -2e-5), (1e-5,)
    m = forward_moments(xs, ys)
    assert _right(invert_min_degree(m), xs, ys)
    report = analyze(m)
    assert report.exists and report.unique and _right(report.minimal_solution, xs, ys)


def test_large_data_is_right_or_a_classified_error():
    # a_k grows like 3000^k; an all-zero solution came back without an error
    xs, ys = (1000.0, 2000.0, 3000.0), (0.0,)
    m = forward_moments(xs, ys)
    try:
        sol = invert_min_degree(m)
    except MomentProblemError:
        sol = None
    assert sol is None or _right(sol, xs, ys)
    sol = analyze(m).minimal_solution
    assert sol is None or _right(sol, xs, ys)


def test_analyze_raises_only_when_the_transform_overflows():
    with pytest.raises(ValueError, match=r"^a_2 is not finite \(inf\): the exponential transform overflows$"):
        analyze(MomentSequence((1e200, 1e300), 2, 0))


def test_analyze_reports_a_minimal_solution_that_overflows():
    # finite moments whose minimal solution has x ~ 1e310: c' overflows to
    # inf, which the root extraction must not be handed
    m = MomentSequence((1e-300, 2e10), 1, 1)
    report = analyze(m)
    assert (report.exists, report.rank_A1, report.d_min, report.d_max, report.unique) == (True, 1, 0, 0, True)
    assert report.minimal_solution is None
    with pytest.raises(ValueError, match="the minimal solution overflows"):
        invert_min_degree(m)


def test_d_min_never_exceeds_the_rank():
    # a column-prefix rank search read d_min 3 > rank_A1 2 here, so d_max 4 > n_x
    m = MomentSequence((
        0.005768462054954406, -0.00018837061700831514, 4.623818400394297e-07,
        -2.1507382911929936e-08, 8.158966990488474e-11, -2.3560847294262367e-12,
    ), 3, 3)
    report = analyze(m)
    assert (report.rank_A1, report.d_min, report.d_max) == (3, 3, 3)
    assert report.d_min <= report.rank_A1
    assert report.minimal_solution.degree == report.d_min


def test_d_min_does_not_depend_on_the_scale():
    # an absolute a0 = 0 test read d_min 0 on some of these
    rng = np.random.default_rng(7)
    for _ in range(40):
        values = [v * 2.0**-10 for v in separated_values(rng, 4)]
        report = analyze(forward_moments(values[:2], values[2:]))
        assert (report.rank_A1, report.d_min, report.d_max, report.unique) == (2, 2, 2, True)
        assert report.minimal_solution.degree == 2


def test_analyze_records_tolerance():
    report = analyze(MomentSequence((3.0, 5.0), 2, 0), tol=ToleranceSet(rank=1e-7))
    assert report.tol_rank == 1e-7


@pytest.mark.parametrize("bad", [
    {"rank": float("nan")}, {"rank": float("inf")}, {"rank": 0.0}, {"rank": 1.0}, {"rank": -1e-9},
    {"imag": float("nan")}, {"imag": float("inf")}, {"imag": 0.0},
    {"separation": float("nan")}, {"separation": float("inf")}, {"separation": -1.0},
    {"zero": float("nan")}, {"zero": float("inf")}, {"zero": -1e-12},
], ids=repr)
def test_tolerance_set_rejects_invalid_values(bad):
    with pytest.raises(ValueError):
        ToleranceSet(**bad)


def test_tolerance_set_accepts_boundary_values():
    ToleranceSet(rank=0.5, zero=0.0, imag=1e3, separation=1e-300)


def test_degree_bounds_hold_for_family_members():
    rng = np.random.default_rng(23)
    for _ in range(30):
        xs, ys, m, t, m_ext = matched_pair_extension(rng)
        report = analyze(m_ext)
        assert report.exists
        sol = report.minimal_solution
        assert report.d_min == sol.degree <= report.d_max
        member = family_member(sol, [t])
        assert report.d_min <= member.degree <= report.d_max


def test_uniqueness_lost_exactly_when_pair_appended():
    rng = np.random.default_rng(24)
    for _ in range(30):
        xs, ys, m, t, m_ext = matched_pair_extension(rng)
        base = analyze(m)
        assert base.unique and base.rank_A1 == m.n_x
        assert base.d_max == base.d_min
        extended = analyze(m_ext)
        assert not extended.unique
        assert extended.rank_A1 == m.n_x  # one short of full
        assert extended.d_max - extended.d_min == 1


def test_analysis_matches_forward_data():
    rng = np.random.default_rng(25)
    for _ in range(30):
        xs, ys, m = random_solvable_instance(rng)
        report = analyze(m)
        assert report.exists
        assert report.unique
        assert report.d_min == len(xs)
        back = forward_moments(report.minimal_solution.xs, report.minimal_solution.ys)
        scale = max(1.0, max(abs(v) for v in m.values))
        assert max(abs(a - b) for a, b in zip(back.values, m.values)) <= 1e-8 * scale


def _outcomes(m):
    """repr of every entry point's result on ``m``, or of the error it raises."""
    out = []
    for call in (
        analyze,
        invert_min_degree,
        next_moment,
        lambda m: extend_moments(m, 3),
        lambda m: (markov_certificate(m), invert_min_degree(m)),
        lambda m: analyze(m, ToleranceSet(rank=1e-8)),
    ):
        try:
            out.append(repr(call(m)))
        except (MomentProblemError, ValueError) as exc:
            out.append(repr(exc))
    return out


def test_a_used_problem_is_the_same_value():
    # the decided system a problem keeps is not part of its value
    m = forward_moments([0.3, 1.5, 2.7, 0.8], [0.1, 1.2, 2.4, 0.8])
    fresh = MomentSequence(m.values, m.n_x, m.n_y)
    before = repr(m)
    cold = _outcomes(fresh)
    assert _outcomes(m) == cold
    assert m == fresh and hash(m) == hash(fresh)
    assert repr(m) == before == repr(fresh)
    assert _outcomes(fresh) == cold  # warm on both now


def test_negated_and_replaced_problems_share_no_decided_system():
    m = forward_moments([0.3, 1.5, 2.7], [0.1, 1.2, 2.4])
    d = structure._decided(m, 1e-12)
    for other in (m.negated(), m.negated().negated(), replace(m), replace(m, n_x=2, n_y=4)):
        assert structure._decided(other, 1e-12) is not d
        assert _outcomes(other) == _outcomes(MomentSequence(other.values, other.n_x, other.n_y))
    assert structure._decided(m, 1e-12) is d


def test_equal_problems_of_other_bits_keep_their_own_answers():
    # 0.0 == -0.0, so the two problems are equal and hash alike, but their
    # minimal solutions differ in the last bits: a system kept by value
    # would hand one problem the other's answer
    plus = MomentSequence((0.0, -1.0, 0.0, -1.0), 2, 2)
    minus = MomentSequence((-0.0, -1.0, -0.0, -1.0), 2, 2)
    assert plus == minus and hash(plus) == hash(minus)
    # each answer read off a system built here, outside any object
    want = [
        repr(structure._invert(m, structure._Decision(build_hankel(exp_transform(m), 2, 2), True, None), ToleranceSet())[0])
        for m in (plus, minus)
    ]
    assert want[0] != want[1]
    for m, sol in zip((plus, minus), want):
        assert repr(invert_min_degree(m)) == repr(analyze(m).minimal_solution) == sol


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_or_pickled_problem_gives_the_same_answers(duplicate):
    m = forward_moments([0.3, 1.5, 2.7, 0.8], [0.1, 1.2, 2.4, 0.8])
    cold = _outcomes(replace(m))
    for source in (replace(m), m):  # unused, then used
        twin = duplicate(source)
        assert twin == m and repr(twin) == repr(m)
        assert _outcomes(twin) == cold
    assert _outcomes(m) == cold
    # the kept system is not pickled
    assert pickle.dumps(m) == pickle.dumps(replace(m))


def _as_built(h):
    """What a HankelSystem holds: its attribute names and its pickle."""
    return sorted(vars(h)), pickle.dumps(h)


def test_companion_coefficients_writes_nothing_to_the_system():
    h = build_hankel(ExpCoefficients((1.0, 3.0, 7.0)), 2, 0)
    built = _as_built(h)
    first = companion_coefficients(h).tolist()
    assert companion_coefficients(h).tolist() == first
    assert _as_built(h) == built
    assert _as_built(copy.copy(h)) == built


def test_the_decided_system_stays_the_value_that_was_built():
    m = forward_moments([0.3, 1.5, 2.7], [0.1, 1.2, 2.4])
    markov_certificate(m)
    h = m._decided.system
    assert h.full_rank
    built = _as_built(h)
    invert_min_degree(m)
    next_moment(m)
    analyze(m)
    # the same record, its c' kept on it and not on the system
    assert m._decided.system is h and m._decided.cprime is not None
    assert _as_built(h) == built


def test_companion_coefficients_returns_a_new_array_each_call():
    h = build_hankel(ExpCoefficients((1.0, 3.0, 7.0)), 2, 0)
    first = companion_coefficients(h)
    want = first.copy()
    assert first.flags.writeable
    first[:] = 0.0
    again = companion_coefficients(h)
    assert again is not first and np.array_equal(again, want)
    assert companion_coefficients(build_hankel(ExpCoefficients((1.0, 2.0)), 0, 1)).shape == (0,)


def test_a_singular_reduced_system_raises_on_every_call():
    m = forward_moments([1000.0, 2000.0, 3000.0], [])
    h = structure._decided(m, 1e-12).system
    for _ in range(2):
        with pytest.raises(SingularReducedSystem):
            companion_coefficients(h)
        with pytest.raises(SingularReducedSystem):
            invert_min_degree(m)
        assert analyze(m).minimal_solution is None
