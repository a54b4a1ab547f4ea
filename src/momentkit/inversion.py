"""Branch-value recovery and moment continuation from moments.

``invert_min_degree`` returns the minimal-degree solution that
``structure`` reads off the decided Hankel system, as ``analyze`` does;
``companion_coefficients`` is bound here too.
The coefficient recursion propagates higher moments without ever forming
branch values, which is the numerically preferred route when only the
next moments are wanted.  It runs on Python floats with each sum
accumulated left to right, so the continued moments are the same bits
on every run and Python version.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import FamilyOverflow, NoSolution
from .structure import HankelSystem, _invert, build_hankel, companion_coefficients, solvable
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet
from .transform import BranchSolution, ExpCoefficients, MomentSequence, exp_transform

_METHODS = ("geneig", "companion")


def _factor(m: MomentSequence, tol_rank: float) -> HankelSystem:
    """The decided Hankel system of ``m``, built once.

    Every entry point takes its system from here, or builds and decides
    it as ``analyze`` does, so a problem gets one Hankel build and one
    existence decision per call; the y-side is read off the same system.
    With n_x = 0 the system is empty and always solvable.

    Raises
    ------
    NoSolution
        When a0 is outside range(A1).
    """
    h = build_hankel(exp_transform(m), m.n_x, m.n_y, tol_rank)
    if not solvable(h):
        raise NoSolution("first Hankel column is outside the range of the Hankel block")
    return h


def invert_min_degree(
    m: MomentSequence,
    method: str = "companion",
    tol: ToleranceSet | None = None,
    full_output: bool = False,
):
    """Minimal-degree branch solution of a moment sequence.

    Parameters
    ----------
    m : MomentSequence
        Moments m_1..m_K with the split (n_x, n_y).
    method : {"companion", "geneig"}
        Both names compute the same solution and are echoed as
        ``info["method"]``.  The reduced pencil's A1_tilde^-1 A0_tilde is
        the companion matrix of c', so its eigenvalues, the x-values, are
        read off that one matrix; the y-values come from q = p*a on the
        same Hankel system.
    tol : ToleranceSet, optional
    full_output : bool
        When true, also return a diagnostics dict with the raw
        eigenvalues, filtered-zero counts and polynomial degree per side
        (``rank``: rank(A1) for x, n_y_tilde for y), and ``method``.

    Returns
    -------
    BranchSolution, or (BranchSolution, dict) with ``full_output``.

    Raises
    ------
    NoSolution
        The moment data admits no solution.
    NonRealSolution
        The data is solvable over polynomials but the branch values are
        not all real.
    SingularReducedSystem
        Numerical rank failure in the reduced system.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    tol = tol or DEFAULT_TOLERANCES
    sol, info = _invert(_factor(m, tol.rank), tol)
    return (sol, {**info, "method": method}) if full_output else sol


def family_member(minimal: BranchSolution, r_roots: Sequence[float]) -> BranchSolution:
    """Solution obtained by appending matched pairs to the minimal one.

    Each t in r_roots joins both branch sides (a common polynomial factor
    on p and q), consuming one zero pad per side; the moments are
    unchanged.  The family capacity equals the number of zero pads
    available on the scarcer side.
    """
    extras = tuple(float(t) for t in r_roots)
    zeros_x = sum(1 for v in minimal.xs if v == 0.0)
    zeros_y = sum(1 for v in minimal.ys if v == 0.0)
    capacity = min(zeros_x, zeros_y)
    if len(extras) > capacity:
        raise FamilyOverflow(
            f"{len(extras)} matched pairs requested; family admits at most {capacity}"
        )
    xs = [v for v in minimal.xs if v != 0.0] + list(extras)
    ys = [v for v in minimal.ys if v != 0.0] + list(extras)
    xs += [0.0] * (minimal.n_x - len(xs))
    ys += [0.0] * (minimal.n_y - len(ys))
    return BranchSolution.from_branches(xs, ys)


def _solve_cbar(h: HankelSystem) -> list:
    """The minimum-norm solution of ``A1 cbar = -a0``, as a list.

    At full rank the solution is unique: it is c', the LU solve of
    ``companion_coefficients``.  A rank-deficient A1 is solved by
    ``np.linalg.lstsq(A1, -a0, rcond=None)``.
    """
    if h.A1_rank == h.n_x:
        return companion_coefficients(h).tolist()
    return np.linalg.lstsq(h.A1, -h.a0, rcond=None)[0].tolist()


def _recurrence(m: MomentSequence, a: ExpCoefficients, cbar: list, count: int):
    """a_0..a_{K+count} and m_1..m_{K+count} as two lists.

    Each new a_k comes from the coefficient recursion a_k = -sum_j
    cbar_j a_{k-j}, valid for any solution cbar of the full system (the
    value is the same for all of them), and each new m_k from the
    triangular row of the exponential transform, k a_k = m_k + sum_{j<k}
    m_j a_{k-j}.  ``cbar`` is a list of floats, so the arithmetic is on
    Python floats: an overflow gives inf or NaN without a warning.

    Each sum runs left to right in j, one rounding per term, from an
    integer 0 as ``sum`` starts (an empty sum, n_x = 0, stays 0).  The
    order is fixed so the results are bit-reproducible across runs and
    Python versions; ``sum`` itself compensates float sums from
    Python 3.12 on.
    """
    avals = list(a.values)
    mvals = list(m.values)
    for k in range(m.K + 1, m.K + count + 1):
        s = 0
        for j in range(1, len(cbar) + 1):
            s += cbar[j - 1] * avals[k - j]
        a_k = -s
        avals.append(a_k)
        s = 0
        for j in range(1, k):
            s += mvals[j - 1] * avals[k - j]
        mvals.append(k * a_k - s)
    return avals, mvals


def _continued_moments(m: MomentSequence, a: ExpCoefficients, cbar: list, count: int) -> list:
    """m_1..m_{K+count} from ``_recurrence``; ValueError names the first
    moment that overflows to a non-finite value."""
    mvals = _recurrence(m, a, cbar, count)[1]
    # m_1..m_K are finite, as every MomentSequence is
    for k, v in enumerate(mvals[m.K :], m.K + 1):
        if not math.isfinite(v):
            raise ValueError(f"m_{k} is not finite ({v!r}): the continued moments overflow")
    return mvals


def _min_norm_moments(m: MomentSequence, tol: ToleranceSet, count: int) -> list:
    """m_1..m_{K+count} from the minimum-norm solution of ``m``'s system."""
    h = _factor(m, tol.rank)
    return _continued_moments(m, h.a, _solve_cbar(h), count)


def next_moment(
    m: MomentSequence,
    tol: ToleranceSet | None = None,
    cbar: Sequence[float] | None = None,
) -> float:
    """m_{K+1} implied by the moment data, without forming branch values.

    Any solution cbar of the full (possibly singular) linear system gives
    the same value; by default the minimum-norm solution is used, which is
    deterministic: one LU solve when A1 has full rank, where the solution
    is unique, and otherwise ``np.linalg.lstsq`` with its default cutoff.
    A particular solution may be supplied through ``cbar``.

    Raises
    ------
    NoSolution
        When the moment data admits no solution.
    ValueError
        When the next moment overflows to a non-finite value.
    """
    if cbar is None:
        mvals = _min_norm_moments(m, tol or DEFAULT_TOLERANCES, 1)
    else:
        cvec = np.asarray(cbar, dtype=float)
        if cvec.shape != (m.n_x,):
            raise ValueError(f"cbar must have length n_x = {m.n_x}")
        mvals = _continued_moments(m, exp_transform(m), cvec.tolist(), 1)
    return float(mvals[-1])


def extend_moments(m: MomentSequence, count: int, tol: ToleranceSet | None = None) -> tuple[float, ...]:
    """m_1..m_{K+count}: the higher power sums of any solution of ``m``.

    The coefficient vector is solved once from the original K-moment
    system and kept fixed; each new a-coefficient comes from the
    recursion and each new moment from the corresponding triangular row.
    Re-running the next-moment step with an incremented K would
    reinterpret the branch split, which is not the same problem.

    Raises ``NoSolution`` as ``next_moment`` does, and ``ValueError``
    naming the first moment that overflows to a non-finite value.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(float(v) for v in _min_norm_moments(m, tol or DEFAULT_TOLERANCES, count))
