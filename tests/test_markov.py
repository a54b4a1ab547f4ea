import inspect
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from momentkit import (
    BranchSolution,
    MomentSequence,
    NoPositiveBranches,
    NoSolution,
    NonRealSolution,
    RepeatedRoots,
    ToleranceSet,
    analyze,
    build_hankel,
    density_eval,
    exp_transform,
    factorization_residual,
    forward_moments,
    invert_min_degree,
    markov_certificate,
    weights,
)
from instances import (
    anti_interlaced_branches,
    interlaced_branches,
    nonneg_interlaced_branches,
)
from oracles import power_sum


def test_weights_worked_cases():
    assert weights((1.0,), (0.0,)).weights == (1.0,)
    assert weights((1.0, 3.0), (0.0, 2.0)).weights == (0.5, 1.5)
    assert weights((2.0,), ()).weights == (1.0,)


def test_weights_reject_repeated_roots():
    with pytest.raises(RepeatedRoots):
        weights((1.0, 1.0 + 1e-12), (0.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=repr)
def test_non_finite_values_rejected(bad):
    # NaN gave NaN weights and a density of 0.0
    with pytest.raises(ValueError, match="^xs must be finite real numbers$"):
        weights([bad, 1.0], [0.5])
    with pytest.raises(ValueError, match="^ys must be finite real numbers$"):
        weights([1.0], [bad])
    with pytest.raises(ValueError, match="^x must be finite real numbers$"):
        density_eval(BranchSolution.from_branches([1.0], [0.0]), bad)


def test_weights_match_polynomial_definition():
    # w_j = q_r(x_j) / p_r'(x_j) with p_r, q_r the monic root-form polynomials
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        vals = []
        while len(vals) < 2 * n:
            v = float(rng.uniform(-2, 2))
            if all(abs(v - u) > 0.15 for u in vals):
                vals.append(v)
        xs, ys = vals[:n], vals[n:]
        wd = weights(xs, ys)
        pr = np.poly(xs)  # monic, descending
        qr = np.poly(ys)
        dpr = np.polyder(pr)
        for x, w in zip(wd.xs, wd.weights):
            expected = np.polyval(qr, x) / np.polyval(dpr, x)
            assert abs(w - expected) <= 1e-9 * max(1.0, abs(expected))


def _system_for(xs, ys):
    m = forward_moments(xs, ys)
    a = exp_transform(m)
    return m, a, build_hankel(a, m.n_x, m.n_y)


def test_factorization_residual_worked_instance():
    m, a, h = _system_for([1.0, 3.0], [0.0, 2.0])
    wd = weights([1.0, 3.0], [0.0, 2.0])
    assert np.allclose(np.fliplr(h.A1), [[2.0, 5.0], [5.0, 14.0]], atol=1e-12)
    assert factorization_residual(h, wd) <= 1e-12


def test_factorization_residual_single_branch():
    m, a, h = _system_for([2.0], [])
    wd = weights([2.0], [])
    assert factorization_residual(h, wd) == 0.0


def test_factorization_residual_of_the_empty_system():
    # n_x = 0: A1 and A0 are 0 x 0, so the factorization holds exactly;
    # the max over no entries raised numpy's bare ValueError
    m = MomentSequence((-3.0, -5.0), 0, 2)
    h = build_hankel(exp_transform(m), m.n_x, m.n_y)
    assert factorization_residual(h, weights((), (1.0, 2.0))) == 0.0


def test_factorization_residual_random():
    rng = np.random.default_rng(52)
    for _ in range(30):
        vals = []
        while len(vals) < 6:
            v = float(rng.uniform(-1.5, 1.5))
            if all(abs(v - u) > 0.2 for u in vals):
                vals.append(v)
        xs, ys = vals[:3], vals[3:]
        m, a, h = _system_for(xs, ys)
        assert factorization_residual(h, weights(xs, ys)) <= 1e-9


def test_factorization_residual_dimension_mismatch():
    m, a, h = _system_for([1.0, 3.0], [0.0, 2.0])
    with pytest.raises(ValueError):
        factorization_residual(h, weights([1.0], [0.0]))


def test_weighted_power_sums_reproduce_coefficients():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        vals = []
        while len(vals) < 2 * n:
            v = float(rng.uniform(-1.5, 1.5))
            if all(abs(v - u) > 0.2 for u in vals):
                vals.append(v)
        xs, ys = vals[:n], vals[n:]
        m, a, h = _system_for(xs, ys)
        wd = weights(xs, ys)
        for k in range(0, 2 * n - 1):
            total = sum(w * x**k for w, x in zip(wd.weights, wd.xs))
            index = m.n_y - m.n_x + 1 + k
            assert abs(total - a[index]) <= 1e-9 * max(1.0, abs(total))


def test_certificate_interlaced_worked_instance():
    cert = markov_certificate(MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2))
    assert cert.spd and cert.interlaced and cert.weights_positive
    assert cert.extended_singular and cert.interlacing_applicable


def test_certificate_single_pair():
    cert = markov_certificate(MomentSequence((2.0, 0.0), 1, 1))
    assert cert.spd
    assert cert.interlaced  # one pair reduces to y_1 < x_1


def test_certificate_degenerate_instance():
    cert = markov_certificate(MomentSequence((0.0, 0.0), 1, 1))
    assert not cert.spd
    assert cert.extended_singular
    assert not cert.weights_positive


def test_certificate_propagates_no_solution():
    with pytest.raises(NoSolution):
        markov_certificate(MomentSequence((0.0, 1.0), 1, 1))


def test_certificate_of_huge_data_reads_no_next_coefficient():
    # a_3 = 5e153 * 5e307 would overflow, but no flag reads it: x ~ 5e153
    # lies above y ~ -5e153, so the one weight w = x - y is positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = markov_certificate(MomentSequence((1e154, 1e154), 1, 1))
    assert astuple(cert) == (True, True, True, True, True)


def test_certificate_of_non_real_data_needs_no_solution():
    # x = +-i: fliplr(A1) = [[0, 1], [1, 0]] has full rank and is not SPD,
    # so every flag is decided without the inversion that raises
    m = MomentSequence((0.0, -2.0), 2, 0)
    assert astuple(markov_certificate(m)) == (False, False, True, False, False)
    # the minimal solution of the same object, which no flag reads, is not real
    with pytest.raises(NonRealSolution):
        invert_min_degree(m)


def test_certificate_at_rank_deficiency_checks_the_solution_exists():
    # x = 1 +- i beside a matched pair: rank(A1) = 2 < 3 decides every flag,
    # and the inversion that checks the minimal solution still raises
    m = MomentSequence((2.0, 0.0, -4.0, -8.0), 3, 1)
    assert analyze(m).rank_A1 == 2
    with pytest.raises(NonRealSolution):
        markov_certificate(m)


def test_certificate_of_a_matched_pair_holds_no_flag():
    # xs (1, 3) interlace with ys (0.25, 2), but the pair x = y = 0.5 makes
    # A1 rank-deficient: the minimal solution pads each side with 0.0
    m = forward_moments([1.0, 3.0, 0.5], [0.25, 2.0, 0.5])
    cert = markov_certificate(m)
    assert astuple(cert) == (False, False, True, False, True)
    sol = invert_min_degree(m)
    assert markov_certificate(m) == cert
    assert (sol.degree, sol.xs[-1], sol.ys[-1]) == (2, 0.0, 0.0)


def test_certificate_takes_the_moments_and_a_tolerance_set_only():
    # the minimal solution has one public route, invert_min_degree
    assert list(inspect.signature(markov_certificate).parameters) == ["m", "tol"]


def test_certificate_rejects_empty_positive_side():
    # the empty system answers every other entry point; there is no block here
    with pytest.raises(NoPositiveBranches, match="n_x = 0: no positive-branch system to build"):
        markov_certificate(MomentSequence((-3.0, -5.0), 0, 2))


def test_certificate_unequal_split_flags_not_applicable():
    cert = markov_certificate(forward_moments([1.0, 2.0], [3.0]))
    assert not cert.interlacing_applicable
    assert not cert.interlaced


def test_spd_iff_interlaced_random():
    rng = np.random.default_rng(54)
    for _ in range(50):
        xs, ys = interlaced_branches(rng)
        cert = markov_certificate(forward_moments(xs, ys))
        assert cert.spd and cert.weights_positive and cert.interlaced
        assert cert.extended_singular
    for _ in range(25):
        xs, ys = anti_interlaced_branches(rng)
        cert = markov_certificate(forward_moments(xs, ys))
        assert not cert.spd


def test_spd_implies_interlaced_on_mixed_instances():
    # the implication direction: whenever the certificate says spd on an
    # equal-split instance, the recovered solution must be interlaced
    rng = np.random.default_rng(58)
    spd_seen = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        vals = []
        while len(vals) < 2 * n:
            v = float(rng.uniform(-1.5, 1.5))
            if all(abs(v - u) > 0.2 for u in vals):
                vals.append(v)
        order = rng.permutation(2 * n)
        xs = [vals[i] for i in order[:n]]
        ys = [vals[i] for i in order[n:]]
        cert = markov_certificate(forward_moments(xs, ys))
        if cert.spd:
            spd_seen += 1
            assert cert.interlaced and cert.weights_positive
    assert spd_seen > 0


def test_repeated_x_value_is_not_spd():
    # A1 has full rank, so every flag comes from the factorization of
    # the reversed block, which is not SPD at a double root; no flag
    # depends on the inversion or on its imaginary cutoff
    rng = np.random.default_rng(55)
    loose = ToleranceSet(imag=1e-5)
    for _ in range(10):
        t = float(rng.uniform(0.3, 1.5))
        xs = [t, t]
        ys = [t - 0.25, t + 0.25]
        cert = markov_certificate(forward_moments(xs, ys), tol=loose)
        assert not cert.spd
        assert not cert.weights_positive


def _moments_of_block(S):
    """Moments at n_x = n_y = 2 whose reversed block fliplr(A1) is the
    symmetric 2 x 2 ``S``, [[a_1, a_2], [a_2, a_3]], with a_4 = 0: the
    exponential transform k a_k = m_k + sum_{j<k} m_j a_{k-j}, inverted."""
    a = [1.0, S[0][0], S[0][1], S[1][1], 0.0]
    m = []
    for k in range(1, 5):
        m.append(k * a[k] - sum(m[j - 1] * a[k - j] for j in range(1, k)))
    return MomentSequence(tuple(m), 2, 2)


@pytest.mark.parametrize("S, spd", [
    # positive definite with an eigenvalue above the 1e-12 rank cutoff
    ([[1.0, 0.0], [0.0, 1e-11]], True),
    # positive definite, but rank 1 at the cutoff: not SPD
    ([[1.0, 0.0], [0.0, 1e-13]], False),
    ([[0.0, 0.0], [0.0, 0.0]], False),
    # indefinite: eigenvalues 3 and -1
    ([[1.0, 2.0], [2.0, 1.0]], False),
], ids=["positive-definite", "rank-deficient", "zero", "indefinite"])
def test_spd_is_full_rank_with_positive_eigenvalues(S, spd):
    m = _moments_of_block(S)
    h = build_hankel(exp_transform(m), 2, 2)
    assert np.allclose(np.fliplr(h.A1), S, rtol=0.0, atol=1e-15)
    assert markov_certificate(m).spd is spd


def test_spd_never_contradicts_the_rank():
    # an interlaced n = 8 draw whose reversed block passes a Cholesky,
    # while the rank rule reads rank 7 of 8: the certificate is not SPD
    xs = [-2.686537711482847, -2.322417623006305, -1.8930673436306016, -1.523936873616809,
          -1.2552319755806753, -0.9779051105314553, -0.6745226263276201, -0.3464326038360652]
    ys = [-2.8582890311640488, -2.5563448851132007, -2.1207201306888948, -1.6705466065144863,
          -1.412773197874226, -1.0860826062417985, -0.8255432059352246, -0.4962593145956644]
    m = forward_moments(xs, ys)
    report = analyze(m)
    assert (report.rank_A1, report.unique) == (7, False)
    assert astuple(markov_certificate(m))[:4] == (False, False, True, False)


def test_extended_matrix_singular_on_solvable_instances():
    rng = np.random.default_rng(56)
    for _ in range(20):
        xs, ys = interlaced_branches(rng)
        assert markov_certificate(forward_moments(xs, ys)).extended_singular
    # degenerate: matched pair on both sides
    cert = markov_certificate(MomentSequence((1.0, 1.0, 1.0, 1.0), 2, 2))
    assert cert.extended_singular


def test_density_worked_values():
    sol = BranchSolution.from_branches([1.0], [0.0])
    assert density_eval(sol, 0.5) == 1.0
    assert density_eval(sol, 2.0) == 0.0
    sol = BranchSolution.from_branches([1.0, 3.0], [0.0, 2.0])
    assert density_eval(sol, 2.5) == 1.0


def test_density_step_conventions():
    sol = BranchSolution.from_branches([1.0], [0.0])
    assert density_eval(sol, 0.0) == 0.0  # left-continuous step, H(0) = 0
    assert density_eval(sol, 1.0) == 1.0
    assert density_eval(sol, 1.0 + 1e-12) == 0.0
    assert density_eval(BranchSolution.from_branches([0.0], [0.0]), 0.5) == 0.0


def _midpoint_moments(sol, k_max, panels=10_000):
    """Composite midpoint quadrature of k x^(k-1) f(x), panel edges aligned
    with the density's steps so each panel sees a smooth integrand."""
    knots = sorted({0.0, *(abs(v) for v in sol.xs), *(abs(v) for v in sol.ys)})
    lo, hi = knots[0], knots[-1]
    width = hi - lo
    results = np.zeros(k_max)
    for a, b in zip(knots[:-1], knots[1:]):
        count = max(1, int(round(panels * (b - a) / width)))
        h = (b - a) / count
        mids = a + h * (np.arange(count) + 0.5)
        fvals = np.array([density_eval(sol, x) for x in mids])
        for k in range(1, k_max + 1):
            results[k - 1] += h * np.sum(k * mids ** (k - 1) * fvals)
    return results


def test_density_integrates_to_moments():
    rng = np.random.default_rng(57)
    for _ in range(5):
        xs, ys = nonneg_interlaced_branches(rng, n_max=3)
        sol = BranchSolution.from_branches(xs, ys)
        quad = _midpoint_moments(sol, 6)
        for k in range(1, 7):
            exact = power_sum(xs, k) - power_sum(ys, k)
            assert abs(quad[k - 1] - exact) <= 1e-4 * max(1.0, abs(exact))
