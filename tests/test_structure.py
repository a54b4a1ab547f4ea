import numpy as np
import pytest

from momentkit import (
    ExpCoefficients,
    MomentSequence,
    NoPositiveBranches,
    analyze,
    build_hankel,
    exp_transform,
    family_member,
    forward_moments,
    numeric_rank,
)
from instances import matched_pair_extension, random_solvable_instance


def test_build_hankel_pure_positive_instance():
    h = build_hankel(ExpCoefficients((1.0, 3.0, 7.0)), 2, 0)
    assert np.array_equal(h.A1, [[1.0, 0.0], [3.0, 1.0]])
    assert h.A1_rank == 2
    assert (h.n_x_tilde, h.n_y_tilde) == (2, 0)
    assert np.array_equal(h.A0_tilde, [[3.0, 1.0], [7.0, 3.0]])
    assert np.array_equal(h.A1_tilde, [[1.0, 0.0], [3.0, 1.0]])


def test_build_hankel_cancellation_instance():
    h = build_hankel(ExpCoefficients((1.0, 1.0, 1.0, 1.0)), 2, 1)
    assert np.array_equal(h.A1, [[1.0, 1.0], [1.0, 1.0]])
    assert h.A1_rank == 1
    assert (h.n_x_tilde, h.n_y_tilde) == (1, 0)
    assert np.array_equal(h.A0_tilde, [[1.0]])
    assert np.array_equal(h.A1_tilde, [[1.0]])


def test_build_hankel_arrays_are_read_only():
    # full rank, where the reduced pair aliases A and A1, and reduced rank
    for coeffs, n_x, n_y in (((1.0, 3.0, 7.0), 2, 0), ((1.0, 1.0, 1.0, 1.0), 2, 1)):
        h = build_hankel(ExpCoefficients(coeffs), n_x, n_y)
        assert np.shares_memory(h.A1_tilde, h.A1) == (h.A1_rank == n_x)
        for name in ("A", "a0", "A1", "A0", "A0_tilde", "A1_tilde"):
            with pytest.raises(ValueError):
                getattr(h, name)[...] = 0.0


def test_build_hankel_zero_moments():
    h = build_hankel(ExpCoefficients((1.0, 0.0, 0.0)), 1, 1)
    assert np.array_equal(h.A1, [[0.0]])
    assert h.A1_rank == 0
    assert np.array_equal(h.a0, [0.0])


def test_build_hankel_rejects_empty_positive_side():
    with pytest.raises(NoPositiveBranches):
        build_hankel(ExpCoefficients((1.0, -1.0)), 0, 1)


def test_build_hankel_checks_length():
    with pytest.raises(ValueError):
        build_hankel(ExpCoefficients((1.0, 1.0)), 2, 1)


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
        nx_t, ny_t = h.n_x_tilde, h.n_y_tilde
        for i in range(1, nx_t + 1):
            for j in range(1, nx_t + 1):
                assert h.A0_tilde[i - 1, j - 1] == at(ny_t + 1 + i - j)
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
        assert h.n_y_tilde + h.n_x_tilde <= n_x + n_y


def test_numeric_rank_small_cases():
    assert numeric_rank([[1.0, 0.0], [3.0, 1.0]]) == 2
    assert numeric_rank([[1.0, 1.0], [1.0, 1.0]]) == 1
    assert numeric_rank([[0.0]]) == 0


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


def test_analyze_records_tolerance():
    report = analyze(MomentSequence((3.0, 5.0), 2, 0), tol_rank=1e-7)
    assert report.tol_rank == 1e-7


def test_degree_bounds_hold_for_family_members():
    rng = np.random.default_rng(23)
    for _ in range(30):
        xs, ys, m, t, m_ext = matched_pair_extension(rng)
        report = analyze(m_ext)
        assert report.exists
        sol = report.minimal_solution
        assert report.d_min <= sol.degree <= report.d_max
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
        back = forward_moments(report.minimal_solution.xs, report.minimal_solution.ys, m.K)
        scale = max(1.0, max(abs(v) for v in m.values))
        assert max(abs(a - b) for a, b in zip(back.values, m.values)) <= 1e-8 * scale
