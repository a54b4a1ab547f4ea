"""Branch-value recovery and moment continuation from moments.

``invert_min_degree`` returns the minimal-degree solution that
``structure`` reads off the decided Hankel system, as ``analyze`` does;
``companion_coefficients`` is bound here too.
``next_moment`` and ``extend_moments`` continue the same decided system
(``_continue``), a supplied cbar included.  The coefficient recursion
propagates higher moments without ever forming branch values, which is
the numerically preferred route when only the next moments are wanted.
It runs on Python floats with each sum accumulated left to right, so the
continued moments are the same bits on every run and Python version.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# NoSolution is raised by structure._factor; it stays bound here, where
# the entry points that raise it are, as bench/smoke.py reads it
from .errors import FamilyOverflow, NoSolution  # noqa: F401
from .structure import _cprime, _factor, _invert, companion_coefficients
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet
from .transform import BranchSolution, MomentSequence, _as_count, _as_float_tuple

_METHODS = ("geneig", "companion")


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
    ValueError
        When the exponential transform or the minimal solution overflows.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    tol = tol or DEFAULT_TOLERANCES
    sol, info = _invert(m, _factor(m, tol.rank), tol)
    return (sol, {**info, "method": method}) if full_output else sol


def family_member(minimal: BranchSolution, r_roots: Sequence[float]) -> BranchSolution:
    """Solution obtained by appending matched pairs to the minimal one.

    Each t in r_roots joins both branch sides (a common polynomial factor
    on p and q), consuming one zero pad per side; the moments are
    unchanged.  The family capacity equals the number of zero pads
    available on the scarcer side.  ValueError says that a matched-pair
    value is not a finite real number.
    """
    extras = _as_float_tuple(r_roots, "r_roots")
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


def _recurrence(m: Sequence[float], a: Sequence[float], cbar: Sequence[float], count: int) -> list:
    """m_1..m_{K+count} continued from m_1..m_K, a_0..a_K and cbar.

    Each new a_k comes from the coefficient recursion a_k = -sum_j
    cbar_j a_{k-j}, valid for any solution cbar of the full system (the
    value is the same for all of them), and each new m_k from the
    triangular row of the exponential transform, k a_k = m_k + sum_{j<k}
    m_j a_{k-j}.  On Python floats an overflow gives inf or NaN without
    a warning; the first m_k that is not finite raises ValueError naming
    it, before any later moment is formed.

    Each sum runs left to right in j, one rounding per term, from an
    integer 0 as ``sum`` starts (an empty sum, n_x = 0, stays 0).  The
    order is fixed so the results are bit-reproducible across runs and
    Python versions; ``sum`` itself compensates float sums from
    Python 3.12 on.
    """
    avals, mvals = list(a), list(m)
    for k in range(len(m) + 1, len(m) + count + 1):
        s = 0
        for j in range(1, len(cbar) + 1):
            s += cbar[j - 1] * avals[k - j]
        a_k = -s
        avals.append(a_k)
        s = 0
        for j in range(1, k):
            s += mvals[j - 1] * avals[k - j]
        m_k = k * a_k - s
        if not math.isfinite(m_k):
            raise ValueError(f"m_{k} is not finite ({m_k!r}): the continued moments overflow")
        mvals.append(m_k)
    return mvals


def _continue(m: MomentSequence, tol: ToleranceSet | None, count: int, cbar: Sequence[float] | None = None) -> list:
    """m_1..m_{K+count} on the decided system of ``m``, which
    ``structure._factor`` finds solvable, from the checked ``cbar`` or
    else the minimum-norm one: c' at full rank (``structure._cprime``),
    otherwise ``np.linalg.lstsq(A1, -a0, rcond=None)``."""
    h = _factor(m, (tol or DEFAULT_TOLERANCES).rank)
    if cbar is None:
        cbar = _cprime(h) if h.full_rank else np.linalg.lstsq(h.A1, -h.a0, rcond=None)[0].tolist()
    return _recurrence(m.values, h.a.values, cbar, count)


def next_moment(m: MomentSequence, tol: ToleranceSet | None = None, cbar: Sequence[float] | None = None) -> float:
    """m_{K+1} implied by the moment data, without forming branch values.

    Any solution cbar of the full (possibly singular) linear system gives
    the same value; by default the minimum-norm solution is used, which is
    deterministic: one LU solve when A1 has full rank, where the solution
    is unique, and otherwise ``np.linalg.lstsq`` with its default cutoff.
    A particular solution, n_x finite reals, may be supplied through
    ``cbar``; it continues the same decided system.

    Raises
    ------
    NoSolution
        When the moment data admits no solution.
    ValueError
        When ``cbar`` is not n_x finite reals, or the next moment
        overflows to a non-finite value.
    """
    if cbar is not None:
        if np.shape(cbar) != (m.n_x,):
            raise ValueError(f"cbar must have length n_x = {m.n_x}")
        cbar = _as_float_tuple(cbar, "cbar")
    return _continue(m, tol, 1, cbar)[-1]


def extend_moments(m: MomentSequence, count: int, tol: ToleranceSet | None = None) -> tuple[float, ...]:
    """m_1..m_{K+count}: the higher power sums of any solution of ``m``.

    The minimum-norm coefficient vector of ``next_moment`` is solved once
    from the original K-moment system and kept fixed; each new
    a-coefficient comes from the recursion and each new moment from the
    corresponding triangular row.  Re-running the next-moment step with
    an incremented K would reinterpret the branch split, which is not the
    same problem.

    Raises ``NoSolution`` as ``next_moment`` does, and ``ValueError``
    when ``count`` is not an integer >= 1 or naming the first moment that
    overflows to a non-finite value.
    """
    return tuple(_continue(m, tol, _as_count(count, "count", 1)))
