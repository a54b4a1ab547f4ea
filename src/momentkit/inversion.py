"""Branch-value recovery from moments.

Two equivalent extraction routes are provided: the eigenvalues of the
reduced matrix pencil, and the roots of the companion polynomial whose
coefficients come from one triangular solve.  Both yield the minimal
degree solution's x-values together with structurally guaranteed zeros,
which are filtered at a scale-aware cutoff.  The y-values are read off
the same system: the companion coefficients give p, and q = p*a,
truncated, has the y-values as reciprocal roots.

The same reduced machinery propagates higher moments without ever forming
branch values, which is the numerically preferred route when only the
next moments are wanted.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import FamilyOverflow, NonRealSolution, NoSolution, SingularReducedSystem
from .structure import HankelSystem, build_hankel, numeric_rank, solvable
from .tolerances import ToleranceSet
from .transform import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    as_exp_coefficients,
    exp_transform,
)

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


def _check_reduced(h: HankelSystem) -> None:
    """Raise SingularReducedSystem when A1_tilde is numerically singular.

    At full rank A1_tilde is A1, whose rank build_hankel decided on the
    same matrix at the same tolerance, so only a reduced system is
    decided again.
    """
    r = h.n_x_tilde
    if r < h.n_x and numeric_rank(h.A1_tilde, h.tol_rank) < r:
        raise SingularReducedSystem("reduced matrix is numerically singular")


def companion_coefficients(h: HankelSystem) -> np.ndarray:
    """Coefficients c' = (c_1..c_r) of the reduced companion polynomial.

    Solves ``A1_tilde c' = -a0_tilde`` where a0_tilde is the first column
    of A0_tilde.  The monic polynomial z^r + c_1 z^{r-1} + ... + c_r then
    carries the minimal solution's x-values (plus zeros) as roots.

    Raises
    ------
    SingularReducedSystem
        When A1_tilde is numerically singular.  On solvable data the
        reduced matrix is provably nonsingular, so this signals either
        unsolvable data or a tolerance failure; re-run analyze.
    """
    if h.n_x_tilde == 0:
        return np.zeros(0)
    _check_reduced(h)
    return np.linalg.solve(h.A1_tilde, -h.A0_tilde[:, 0])


def _monic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of z^n + coeffs[0] z^(n-1) + ... + coeffs[n-1], as the
    eigenvalues of its companion matrix."""
    n = len(coeffs)
    if n == 0:
        return np.zeros(0)
    C = np.zeros((n, n))
    C[:, 0] = -coeffs
    C[np.arange(n - 1), np.arange(1, n)] = 1.0
    return np.linalg.eigvals(C)


def _branch_values(roots: np.ndarray, count: int, cutoff: float, tol: ToleranceSet, rank: int):
    """One side's branch values from its polynomial's roots.

    Roots at or below ``cutoff`` are structural zeros and are dropped;
    the rest must be real.  Returns (values, info): values has length
    ``count`` with the nonzero roots first (ascending) and exact zeros as
    padding, or is None when a retained root has a significant imaginary
    part; info carries the raw roots, the filtered-zero count and the
    side's rank for diagnostics.
    """
    kept = roots[np.abs(roots) > cutoff]
    info = {"eigenvalues": list(roots), "zeros_filtered": len(roots) - len(kept), "rank": rank}
    if np.any(np.abs(kept.imag) > tol.imag * (1.0 + np.abs(kept.real))):
        return None, info
    values = sorted(float(v) for v in kept.real)
    return tuple(values) + (0.0,) * (count - len(values)), info


def _reciprocal(a: Sequence[float]) -> list:
    """The power series 1/a to the length of ``a`` (a_0 = 1), which is the
    exponential transform of the negated moments."""
    r = [1.0] + [0.0] * (len(a) - 1)
    for k in range(1, len(a)):
        s = 0.0
        for j in range(1, k + 1):
            s -= a[j] * r[k - j]
        r[k] = s
    return r


def _invert(h: HankelSystem, method: str, tol: ToleranceSet):
    """``invert_min_degree(m, method, tol, full_output=True)`` on the
    solvable Hankel system ``h`` of ``m``, built with ``tol.rank``.

    The x-values come from the reduced pencil by ``method``.  The
    y-values come from the same system: with p = (1, c') the reduced
    x-polynomial, q = p*a truncated at degree n_y_tilde has the y-values
    as reciprocal roots, so they are the roots of z^n_y_tilde + d_1
    z^(n_y_tilde-1) + ... + d_n_y_tilde.  The empty system of n_x = 0
    is the rank-0 case: p = 1 and q is a_0..a_{n_y}.

    Each side's zeros are cut at the scale of its own problem's series:
    a for the xs, and for the ys 1/a, the series of the sign-flipped
    problem.  a_k grows like max|x|^k, so a cutoff taken from a would
    zero a small y beside a large x.

    NonRealSolution is raised once both sides are read; it carries deg
    p, the x-roots above the cutoff counting complex ones, as
    ``_degree``, which ``analyze`` reports as d_min.
    """
    a, rank, n_y_tilde = h.a, h.A1_rank, h.n_y_tilde
    cprime = companion_coefficients(h)
    if method == "geneig" and rank:
        x_roots = np.linalg.eigvals(np.linalg.solve(h.A1_tilde, h.A0_tilde))
    else:
        x_roots = _monic_roots(cprime)
    xs, info_x = _branch_values(x_roots, h.n_x, tol.zero_cutoff(a.values), tol, rank)

    # n_y_tilde >= 0 here: below 0 the first row of A1_tilde is zero, and
    # companion_coefficients has raised SingularReducedSystem
    d = d_coefficients(np.concatenate(([1.0], cprime)), a, n_y_tilde)
    y_cutoff = tol.zero_cutoff(_reciprocal(a.values))
    ys, info_y = _branch_values(_monic_roots(d[1:]), h.n_y, y_cutoff, tol, n_y_tilde)
    if xs is None or ys is None:
        exc = NonRealSolution("retained roots have significant imaginary parts")
        exc._degree = rank - info_x["zeros_filtered"]
        raise exc
    return BranchSolution.from_branches(xs, ys), {"x": info_x, "y": info_y, "method": method}


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
        Route to the x-values; the two provably agree and are tested
        against each other.  The y-values come from q = p*a on the same
        Hankel system, not from the sign-flipped problem, so they are the
        same for both methods.
    tol : ToleranceSet, optional
    full_output : bool
        When true, also return a diagnostics dict with the raw
        eigenvalues, filtered-zero counts and polynomial degree per side
        (``rank``: rank(A1) for x, n_y_tilde for y).

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
    tol = tol or ToleranceSet()
    sol, info = _invert(_factor(m, tol.rank), method, tol)
    return (sol, info) if full_output else sol


def d_coefficients(c: Sequence[float], a, n_y: int) -> np.ndarray:
    """q-coefficients d_0..d_{n_y} from p-coefficients and the a-sequence.

    d_k is the order-k coefficient of the product of p with the
    transformed series: d_k = sum_j c_j a_{k-j}.
    """
    cvec = np.asarray(c, dtype=float)
    if cvec.ndim != 1 or cvec.size == 0 or cvec[0] != 1.0:
        raise ValueError("c must be a coefficient vector with c_0 = 1")
    if n_y < 0:
        raise ValueError("n_y must be nonnegative")
    coeffs = as_exp_coefficients(a)
    coeffs[n_y]  # IndexError when a_{n_y} is undefined
    return np.convolve(cvec[: n_y + 1], coeffs.values[: n_y + 1])[: n_y + 1]


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


def _solve_cbar(h: HankelSystem) -> np.ndarray:
    """One solution of ``A1 cbar = -a0`` (minimum-norm when A1 is singular)."""
    cbar, *_ = np.linalg.lstsq(h.A1, -h.a0, rcond=None)
    return cbar


def _recurrence(m: MomentSequence, a: ExpCoefficients, cbar, count: int):
    """a_0..a_{K+count} and m_1..m_{K+count} as two lists.

    Each new a_k comes from the coefficient recursion a_k = -sum_j
    cbar_j a_{k-j}, valid for any solution cbar of the full system (the
    value is the same for all of them), and each new m_k from the
    triangular row of the exponential transform, k a_k = m_k + sum_{j<k}
    m_j a_{k-j}.
    """
    avals = list(a.values)
    mvals = list(m.values)
    for k in range(m.K + 1, m.K + count + 1):
        a_k = -sum(cbar[j - 1] * avals[k - j] for j in range(1, len(cbar) + 1))
        avals.append(a_k)
        mvals.append(k * a_k - sum(mvals[j - 1] * avals[k - j] for j in range(1, k)))
    return avals, mvals


def _min_norm_moments(m: MomentSequence, tol: ToleranceSet, count: int) -> list:
    """m_1..m_{K+count} from the minimum-norm solution of ``m``'s system."""
    h = _factor(m, tol.rank)
    return _recurrence(m, h.a, _solve_cbar(h), count)[1]


def next_moment(
    m: MomentSequence,
    tol: ToleranceSet | None = None,
    cbar: Sequence[float] | None = None,
) -> float:
    """m_{K+1} implied by the moment data, without forming branch values.

    Any solution cbar of the full (possibly singular) linear system gives
    the same value; by default the minimum-norm least-squares solution is
    used, which is deterministic.  A particular solution may be supplied
    through ``cbar``.

    Raises
    ------
    NoSolution
        When the moment data admits no solution.
    """
    if cbar is None:
        mvals = _min_norm_moments(m, tol or ToleranceSet(), 1)
    else:
        cvec = np.asarray(cbar, dtype=float)
        if cvec.shape != (m.n_x,):
            raise ValueError(f"cbar must have length n_x = {m.n_x}")
        _, mvals = _recurrence(m, exp_transform(m), cvec, 1)
    return float(mvals[-1])


def extend_moments(m: MomentSequence, count: int, tol: ToleranceSet | None = None) -> tuple[float, ...]:
    """m_1..m_{K+count}: the higher power sums of any solution of ``m``.

    The coefficient vector is solved once from the original K-moment
    system and kept fixed; each new a-coefficient comes from the
    recursion and each new moment from the corresponding triangular row.
    Re-running the next-moment step with an incremented K would
    reinterpret the branch split, which is not the same problem.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(float(v) for v in _min_norm_moments(m, tol or ToleranceSet(), count))
