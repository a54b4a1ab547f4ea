"""Hankel matrices of the transformed sequence, numeric rank, and solvability.

The n_x x (n_x+1) matrix A holds anti-shifted slices of the a-sequence;
its first column against the remaining block A1 decides existence, the
rank of A1 decides uniqueness, and column-prefix spans give the degree
bounds of the solution family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonRealSolution, NoPositiveBranches, SingularReducedSystem
from .tolerances import ToleranceSet
from .transform import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    as_exp_coefficients,
    exp_transform,
)


def numeric_rank(matrix, tol_rel: float = 1e-9) -> int:
    """Number of singular values above ``tol_rel * sigma_max``.

    Returns 0 for an empty or all-zero matrix.
    """
    M = np.atleast_2d(np.asarray(matrix))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rel * s[0]))


def _toeplitz_slice(a: ExpCoefficients, shift: int, rows: int, cols: int) -> np.ndarray:
    """Matrix with entry a[shift + i - j], 1-based row i, 0-based column j.

    Entries with a negative index are 0; an index above the order of
    ``a`` raises IndexError, as item access on ``a`` does.
    """
    if rows and shift + rows > a.order:
        raise IndexError(f"coefficient a_{shift + rows} undefined; only a_0..a_{a.order} known")
    v = a.values
    M = [
        [v[k] if k >= 0 else 0.0 for k in range(shift + i, shift + i - cols, -1)]
        for i in range(1, rows + 1)
    ]
    return np.array(M, dtype=float).reshape(rows, cols)


@dataclass(frozen=True, eq=False)
class HankelSystem:
    """The assembled matrices for one side of a moment problem.

    A is n_x x (n_x+1) with entries a_{n_y+i-j} (1-based row i, 0-based
    column j); a0 is its first column and A1 the last n_x columns.  The
    reduced pair (A0_tilde, A1_tilde) is built at the numeric rank of A1.
    At full rank (A1_rank == n_x) the reduced pair is (A0, A1) itself:
    the reduced slices then have the same shifts and sizes as A's, so the
    pair is not assembled again, and A1_tilde's rank is A1_rank, already
    decided on the same matrix at the same tolerance.

    Every array is read-only, since A0_tilde and A1_tilde may alias A and
    A1.
    """

    A: np.ndarray
    a0: np.ndarray
    A1: np.ndarray
    A1_rank: int
    n_x_tilde: int
    n_y_tilde: int
    A0_tilde: np.ndarray
    A1_tilde: np.ndarray
    n_x: int
    n_y: int
    tol_rank: float

    @property
    def A0(self) -> np.ndarray:
        """First n_x columns of A."""
        return self.A[:, : self.n_x]


def build_hankel(a, n_x: int, n_y: int, tol_rank: float = 1e-9) -> HankelSystem:
    """Assemble A, A1 and the reduced pair for a sequence a_0..a_{n_x+n_y}.

    Raises
    ------
    NoPositiveBranches
        When n_x = 0; there is no x-side system and the caller should
        treat every x-extraction as empty.
    """
    coeffs = as_exp_coefficients(a)
    if n_x == 0:
        raise NoPositiveBranches("n_x = 0: no positive-branch system to build")
    if coeffs.order != n_x + n_y:
        raise ValueError(
            f"need coefficients a_0..a_{n_x + n_y}, got a_0..a_{coeffs.order}"
        )
    A = _toeplitz_slice(coeffs, n_y, n_x, n_x + 1)
    a0 = A[:, 0].copy()
    A1 = A[:, 1:].copy()
    rank = numeric_rank(A1, tol_rank)
    n_x_tilde = rank
    n_y_tilde = n_y - n_x + n_x_tilde
    if rank == n_x:
        A0_tilde, A1_tilde = A[:, :n_x], A1
    else:
        # 1-based column index in the displayed reduced matrices; the slice
        # helper counts columns from zero, hence the shifts n_y_tilde and
        # n_y_tilde - 1 for first entries a_{n_y_tilde+1} and a_{n_y_tilde}
        A0_tilde = _toeplitz_slice(coeffs, n_y_tilde, n_x_tilde, n_x_tilde)
        A1_tilde = _toeplitz_slice(coeffs, n_y_tilde - 1, n_x_tilde, n_x_tilde)
    for M in (A, a0, A1, A0_tilde, A1_tilde):
        M.flags.writeable = False
    return HankelSystem(
        A=A,
        a0=a0,
        A1=A1,
        A1_rank=rank,
        n_x_tilde=n_x_tilde,
        n_y_tilde=n_y_tilde,
        A0_tilde=A0_tilde,
        A1_tilde=A1_tilde,
        n_x=n_x,
        n_y=n_y,
        tol_rank=tol_rank,
    )


def solvable(h: HankelSystem) -> bool:
    """Whether a0 lies in range(A1), decided by comparing numeric ranks."""
    return numeric_rank(h.A, h.tol_rank) == h.A1_rank


@dataclass(frozen=True)
class SolvabilityReport:
    """Existence, degree bounds, uniqueness and the minimal solution.

    d_min/d_max are meaningful only when ``exists`` is true (they default
    to 0 and n_x - rank_A1 otherwise so the bound arithmetic stays valid).
    tol_rank records the rank tolerance the analysis was run with.
    """

    exists: bool
    rank_A1: int
    d_min: int
    d_max: int
    unique: bool
    minimal_solution: BranchSolution | None
    tol_rank: float


def _minimal_degree(h: HankelSystem, tol_rank: float) -> int:
    """Smallest j >= 1 with a0 in span{a_1..a_j}, or 0 for a0 = 0.

    Called only on solvable systems.  The prefixes stop at j = n_x - 1:
    at j = n_x the test compares rank([a0 | A1]) = rank(A) with rank(A1)
    on the same matrices at the same tolerance, which is the existence
    test the caller has already passed, and the answer is n_x whichever
    way it goes.
    """
    scale = max(1.0, float(np.max(np.abs(h.A))))
    if float(np.max(np.abs(h.a0))) <= tol_rank * scale:
        return 0
    for j in range(1, h.n_x):
        cols = h.A1[:, :j]
        if numeric_rank(np.column_stack([h.a0, cols]), tol_rank) == numeric_rank(cols, tol_rank):
            return j
    return h.n_x


def analyze(m: MomentSequence, tol_rank: float = 1e-9) -> SolvabilityReport:
    """Decide existence, degree bounds and uniqueness for a moment sequence.

    Always returns a report; unsolvable data yields ``exists=False``
    rather than an error.  When a solution exists and is real, the
    minimal-degree solution is attached and its degree equals d_min.

    The x-side is built and its existence decided once here; the
    minimal solution is read off that same system, so the inversion
    builds only the y-side.  Its result is the one ``invert_min_degree``
    returns, whose own x-side build would repeat the same computation on
    the same moments at the same tolerance.
    """
    from .inversion import _invert  # cycle: inversion builds on structure

    x_side = None
    if m.n_x == 0:
        # no x-side system: the polynomial pair (1, q) always exists and
        # the family has no room to grow
        exists, rank, d_min, d_max, unique = True, 0, 0, 0, True
    else:
        a = exp_transform(m)
        h = build_hankel(a, m.n_x, m.n_y, tol_rank)
        x_side = (a, h)
        rank = h.A1_rank
        exists = solvable(h)
        d_min = _minimal_degree(h, tol_rank) if exists else 0
        d_max = d_min + m.n_x - rank
        unique = rank == m.n_x

    minimal = None
    if exists:
        try:
            minimal, _ = _invert(m, "companion", ToleranceSet(rank=tol_rank), x_side)
        except (NonRealSolution, SingularReducedSystem):
            minimal = None  # polynomial solution exists; branch values do not
    return SolvabilityReport(
        exists=exists,
        rank_A1=rank,
        d_min=d_min,
        d_max=d_max,
        unique=unique,
        minimal_solution=minimal,
        tol_rank=tol_rank,
    )
