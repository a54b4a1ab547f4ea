"""Each 1 x 1 factorization that ``structure`` reads off its entry against
the ``_lapack`` kernel it stands in for, bit for bit: the eigenvalue of A1
at n_x = 1, the singular value of the row [a0, 0] that decides existence
at rank 0, c' of a rank-1 reduced system and the root of a degree-1
polynomial.  The values are random over the whole float range, with the
edges added: signed zeros, subnormals, the smallest normal and +-1e300.
"""

import dataclasses
import math

import numpy as np
import pytest

import momentkit as mk
from momentkit import _lapack, structure
from momentkit.structure import solvable
from momentkit.tolerances import _count_above

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]
TOLERANCES = [1e-12, 0.5, 0.75, 1.0 - 2.0**-53]
# dgeev rescales a matrix whose largest |entry| lies outside about
# [6.7e-139, 1.5e138], and its eigenvalue can come back an ulp or two off
UNSCALED = (1e-138, 1e138)


def values(seed, count=5000):
    """``count`` finite doubles of random sign and magnitude 10^-323..10^308,
    then the edges."""
    rng = np.random.default_rng(seed)
    return (rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-323.0, 308.0, count)).tolist() + EDGES


def same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_1x1_A1_is_its_own_eigenvalue():
    for a0, e in zip(values(1), values(2)):
        # n_x = n_y = 1: A is the row [a_2, a_1]
        h = mk.build_hankel(mk.ExpCoefficients((1.0, e, a0)), 1, 1)
        want = _lapack.eigvalsh(h.A[:, :0:-1])
        same(h.eigs, want)
        assert not h.eigs.flags.writeable
        assert h.A1_rank == _count_above(want, h.tol_rank)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_existence_at_rank_0_is_read_off_a0(monkeypatch, tol):
    calls, svd = [], _lapack.svd
    monkeypatch.setattr(_lapack, "svd", lambda M: calls.append(1) or svd(M))
    for a0 in values(3):
        for zero in (0.0, -0.0):
            h = mk.build_hankel(mk.ExpCoefficients((1.0, zero, a0)), 1, 1, tol)
            assert h.A1_rank == 0
            got = solvable(h)
            assert not calls
            s = svd(h.A)
            assert got == (_count_above(s, tol) == 0)
            # the SVD of [a0, 0] gives |a0| exactly where it decides anything:
            # at a subnormal or zero a0; a normal a0 ranks nonzero either way
            if abs(a0) < 2.2250738585072014e-308:
                same(s, np.array([abs(a0)]))


def test_a_subnormal_A1_ranked_zero_keeps_the_svd(monkeypatch):
    # at a tolerance near 1, tol * 5e-324 rounds up to 5e-324 itself: A1
    # ranks 0 although its entry is not 0, and the row [a0, 5e-324] has
    # another singular value than |a0|
    calls, svd = [], _lapack.svd
    monkeypatch.setattr(_lapack, "svd", lambda M: calls.append(1) or svd(M))
    h = mk.build_hankel(mk.ExpCoefficients((1.0, 5e-324, 1.0)), 1, 1, 0.75)
    assert h.A1_rank == 0
    assert solvable(h) is False and calls == [1]


def _kernel_cprime(h):
    """c' of a rank-1 system as the kernels solve it: the reduced block
    ranked by eigvalsh, then one LU solve; None where it is singular."""
    T = h.T
    if not h.full_rank and _count_above(_lapack.eigvalsh(T[:, :0:-1]), h.tol_rank) < h.A1_rank:
        return None
    return _lapack.solve(T[:, 1:], -T[:, 0])


@pytest.mark.parametrize("tol", TOLERANCES)
def test_a_rank_1_system_is_solved_by_its_quotient(tol):
    solved = singular = 0
    for t0, t1 in zip(values(4), values(5)):
        # full rank at n_x = 1, where T is the row A = [a_2, a_1], and the
        # reduced block of n_x = n_y = 2 at rank 1, T = A[:1, 1:] = [a_2, a_1]
        full = mk.build_hankel(mk.ExpCoefficients((1.0, t1, t0)), 1, 1, tol)
        reduced = mk.build_hankel(mk.ExpCoefficients((1.0, t1, t0, 1.0, 2.0)), 2, 2, tol)
        for h in (full, dataclasses.replace(reduced, A1_rank=1)):
            if h.A1_rank != 1:
                continue
            want = _kernel_cprime(h)
            if want is None:
                with pytest.raises(mk.SingularReducedSystem):
                    mk.companion_coefficients(h)
                singular += 1
            else:
                same(mk.companion_coefficients(h), want)
                solved += 1
    assert solved > 1000 and singular >= 2


def test_a_zero_system_replaced_to_rank_1_raises_as_lu_does():
    # A1 = [0] ranks 0; the system replaced to rank 1 is singular, and
    # solving it raises LU's error, as the kernel does
    h = dataclasses.replace(mk.build_hankel(mk.ExpCoefficients((1.0, 0.0, 2.0)), 1, 1), A1_rank=1)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _kernel_cprime(h)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        mk.companion_coefficients(h)


def test_a_quotient_that_overflows_raises_value_error():
    # a_1 = 1e-300 and a_2 = 1e300: c' = -1e300 / 1e-300 overflows to -inf,
    # as LU gives it, and the minimal solution is beyond the float range
    m = mk.MomentSequence((1e-300, 2e300), 1, 1)
    h = mk.build_hankel(mk.exp_transform(m), 1, 1)
    same(mk.companion_coefficients(h), _kernel_cprime(h))
    assert mk.companion_coefficients(h).tolist() == [-math.inf]
    with pytest.raises(ValueError, match="not finite"):
        mk.invert_min_degree(m)
    report = mk.analyze(m)
    assert report.exists and report.minimal_solution is None


def test_a_degree_1_root_is_minus_c():
    for c in values(6):
        ((root,),) = structure._monic_roots([c])
        assert type(root) is float and root.hex() == (-c).hex()
        # beside a polynomial of another degree, on either side
        assert structure._monic_roots([c], [1.0, -2.0])[0] == [root]
        assert structure._monic_roots([1.0, -2.0], [c])[1] == [root]
        (kernel,) = _lapack.eigvals(np.array([[-c]])).tolist()
        if c == 0.0 or UNSCALED[0] <= abs(c) <= UNSCALED[1]:
            assert kernel.hex() == root.hex()
        else:
            assert abs(kernel - root) <= 2.0 * math.ulp(root)


@pytest.mark.parametrize("x", [1.002e-200, -3.3363e-150, 7.7308e200, 1e-200, 1.5])
def test_a_one_value_problem_returns_its_value_exactly(x):
    # m_1 = x, so c' = -x / 1 and the root is x, also where dgeev's
    # rescaling rounded the eigenvalue of [x] an ulp off: at the first three
    sol = mk.invert_min_degree(mk.forward_moments([x], []))
    assert sol.xs == (x,) and sol.ys == ()
