"""Branch-value recovery from moments.

Two equivalent extraction routes are provided: the eigenvalues of the
reduced matrix pencil, and the roots of the companion polynomial whose
coefficients come from one triangular solve.  Both yield the minimal
degree solution's x-values together with structurally guaranteed zeros,
which are filtered at a scale-aware cutoff.  The y-values come from the
sign-flipped problem with the branch roles interchanged.

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


def _factor(m: MomentSequence, tol_rank: float) -> tuple[ExpCoefficients, HankelSystem]:
    """The x-side of ``m``: its a-sequence and Hankel system, built once.

    Every entry point takes each side of a problem from here, or from a
    caller that already built it, so a side gets one Hankel build and
    one existence decision per call.

    Raises
    ------
    NoSolution
        When a0 is outside range(A1).
    NoPositiveBranches
        When n_x = 0.
    """
    a = exp_transform(m)
    h = build_hankel(a, m.n_x, m.n_y, tol_rank)
    if not solvable(h):
        raise NoSolution("first Hankel column is outside the range of the Hankel block")
    return a, h


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


def _companion_matrix(cprime: np.ndarray) -> np.ndarray:
    n = len(cprime)
    C = np.zeros((n, n))
    C[:, 0] = -cprime
    C[np.arange(n - 1), np.arange(1, n)] = 1.0
    return C


def _side_roots(m: MomentSequence, method: str, tol: ToleranceSet, side=None):
    """One side of the pipeline: the n_x branch values of ``m``.

    ``side`` is the (a, h) pair of ``m`` from ``_factor`` when the caller
    already holds it.  Returns (values, info) where values has length
    m.n_x with the minimal solution's nonzero roots first (ascending) and
    exact zeros as padding; info carries the raw eigenvalues for
    diagnostics.
    """
    info = {"eigenvalues": [], "zeros_filtered": 0, "rank": 0}
    if m.n_x == 0:
        return (), info
    a, h = side or _factor(m, tol.rank)
    info["rank"] = h.A1_rank
    if h.n_x_tilde == 0:
        return (0.0,) * m.n_x, info

    if method == "geneig":
        _check_reduced(h)
        roots = np.linalg.eigvals(np.linalg.solve(h.A1_tilde, h.A0_tilde))
    else:
        roots = np.linalg.eigvals(_companion_matrix(companion_coefficients(h)))
    info["eigenvalues"] = list(roots)

    cutoff = tol.zero_cutoff(a.values)
    kept = roots[np.abs(roots) > cutoff]
    info["zeros_filtered"] = len(roots) - len(kept)
    if np.any(np.abs(kept.imag) > tol.imag * (1.0 + np.abs(kept.real))):
        raise NonRealSolution("retained roots have significant imaginary parts")
    values = sorted(float(v) for v in kept.real)
    return tuple(values) + (0.0,) * (m.n_x - len(values)), info


def _invert(m: MomentSequence, method: str, tol: ToleranceSet, x_side=None):
    """``invert_min_degree(m, method, tol, full_output=True)``, reusing
    the solvable x-side (a, h) of ``m`` when the caller already built it
    with ``tol.rank``."""
    xs, info_x = _side_roots(m, method, tol, x_side)
    ys, info_y = _side_roots(m.negated(), method, tol)
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
        Root extraction route; the two provably agree and are tested
        against each other.
    tol : ToleranceSet, optional
    full_output : bool
        When true, also return a diagnostics dict with the raw
        eigenvalues and filtered-zero counts per side.

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
    sol, info = _invert(m, method, tol or ToleranceSet())
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
    d = np.zeros(n_y + 1)
    for k in range(n_y + 1):
        top = min(k, len(cvec) - 1)
        d[k] = sum(cvec[j] * coeffs[k - j] for j in range(top + 1))
    return d


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


def _solve_cbar(m: MomentSequence, tol: ToleranceSet) -> tuple[ExpCoefficients, np.ndarray]:
    """The a-sequence of ``m`` and one solution of ``A1 cbar = -a0``
    (minimum-norm when A1 is singular)."""
    if m.n_x == 0:
        return exp_transform(m), np.zeros(0)
    a, h = _factor(m, tol.rank)
    cbar, *_ = np.linalg.lstsq(h.A1, -h.a0, rcond=None)
    return a, cbar


def next_exp_coefficient(a, cbar: Sequence[float], k: int) -> float:
    """a_k for k above the known order, from the coefficient recursion.

    Valid for any solution vector cbar of the full system; the value is
    the same for all of them.  ``a`` may already contain extended entries.
    """
    cvec = np.asarray(cbar, dtype=float)
    return -sum(cvec[j - 1] * a[k - j] for j in range(1, len(cvec) + 1))


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
    tol = tol or ToleranceSet()
    if cbar is None:
        a, cvec = _solve_cbar(m, tol)
    else:
        a = exp_transform(m)
        cvec = np.asarray(cbar, dtype=float)
        if cvec.shape != (m.n_x,):
            raise ValueError(f"cbar must have length n_x = {m.n_x}")
    K = m.K
    a_next = next_exp_coefficient(a, cvec, K + 1)
    return float((K + 1) * a_next - sum(m.values[j - 1] * a[K + 1 - j] for j in range(1, K + 1)))


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
    a, cvec = _solve_cbar(m, tol or ToleranceSet())
    avals = list(a.values)
    mvals = list(m.values)
    K = m.K
    for i in range(1, count + 1):
        k = K + i
        a_k = -sum(cvec[j - 1] * avals[k - j] for j in range(1, m.n_x + 1))
        avals.append(a_k)
        m_k = k * a_k - sum(mvals[j - 1] * avals[k - j] for j in range(1, k))
        mvals.append(m_k)
    return tuple(float(v) for v in mvals)
