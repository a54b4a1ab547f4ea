"""Hankel matrices of the transformed sequence, numeric rank, solvability,
and the minimal solution read off the decided system.

The n_x x (n_x+1) matrix A holds anti-shifted slices of the a-sequence,
and it is the only matrix a problem assembles.  The rank of A1 decides
uniqueness, and at full rank existence too, since a0 then lies in
range(A1) by the theorem; only a rank-deficient A1 takes the SVD of A,
whose rank against rank(A1) decides existence.  The x-values are
the eigenvalues of the reduced pencil (A0_tilde, A1_tilde) = (T[:, :r],
T[:, 1:]), where T = A[:r, n_x-r:] is A's top-right corner at the
decided rank r.  The two blocks share the columns T[:, 1:r], so
A1_tilde^-1 A0_tilde is [-c' | shifted identity], the companion matrix
of the LU solution c' of A1_tilde c' = -a0_tilde.  The y-values are the
reciprocal roots of q = p*a on the same system; when both polynomials
have one degree, one eigenvalue call reads the roots of both companion
matrices.  d_min is deg p, the count of p's roots that pass the zero
filter, and d_max = d_min + n_x - rank.

Numpy arrays are the inputs and outputs of the factorizations (svd,
solve, eigvals) and of the convolution that forms q; the rank rule, the
zero cutoffs and the root filter work on Python floats in a fixed order,
so every decision repeats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonRealSolution, SingularReducedSystem
from .tolerances import DEFAULT_RANK, DEFAULT_TOLERANCES, ToleranceSet
from .transform import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    as_exp_coefficients,
    exp_transform,
)


def _count_above(s: np.ndarray, tol_rel: float) -> int:
    """Number of the descending singular values ``s`` above ``tol_rel *
    s[0]``: the rank rule of every rank decision.  0 when ``s`` is empty
    or all zero."""
    s = s.tolist()
    if not s or s[0] == 0.0:
        return 0
    cut = tol_rel * s[0]
    return sum(v > cut for v in s)


def numeric_rank(matrix, tol_rel: float = DEFAULT_RANK) -> int:
    """Number of singular values above ``tol_rel * sigma_max``.

    Returns 0 for an empty or all-zero matrix.  Raises ValueError for a
    matrix with an inf or NaN entry, whose singular values decide nothing.
    """
    M = np.atleast_2d(np.asarray(matrix))
    if M.size == 0:
        return 0
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry; its rank is undefined")
    return _count_above(np.linalg.svd(M, compute_uv=False), tol_rel)


def _toeplitz_slice(a: Sequence[float], n_x: int, n_y: int) -> np.ndarray:
    """A, the n_x x (n_x+1) matrix with entry a[n_y + i - j], 1-based row
    i, 0-based column j, of the sequence ``a`` = a_0..a_{n_x+n_y}.

    Entries with a negative index, below a_0, are 0.
    """
    # rev[p] is a_{n_x+n_y-p}, and 0 past a_0: row i is rev[n_x-i:][:n_x+1]
    rev = (*reversed(a), *(0.0,) * n_x)
    M = [rev[k : k + n_x + 1] for k in range(n_x - 1, -1, -1)]
    return np.array(M, dtype=float).reshape(n_x, n_x + 1)


@dataclass(frozen=True, eq=False)
class HankelSystem:
    """One side of a moment problem: its a-sequence and Hankel matrices.

    A is n_x x (n_x+1) with entries a_{n_y+i-j} (1-based row i, 0-based
    column j), the only matrix the system assembles; a0 is its first
    column, A0 its first n_x columns and A1 its last n_x columns.  With
    r = A1_rank the reduced pencil is the same Hankel form at size r:
    the r x (r+1) block T with entries a_{n_y_tilde+i-j}, which is A's
    top-right corner A[:r, n_x-r:], and (A0_tilde, A1_tilde) =
    (T[:, :r], T[:, 1:]).  At full rank T is all of A, so A1_tilde's
    rank is A1_rank, already decided on the same matrix at the same
    tolerance.  With no positive branches (n_x = 0) the system is empty:
    A and T are 0 x 1 and r = 0, so p = 1 as in any rank-0 system.

    s holds the singular values of A1, taken once without vectors; A1_rank
    is read off them, and they stay on the system so its conditioning
    sigma_n / sigma_1 can be read without another SVD.  For the empty
    system s is empty.  T, and with it the reduced pencil, is read off
    A at A1_rank, so ``dataclasses.replace(h, A1_rank=r)`` is the system
    at any candidate rank r <= n_x with nothing rebuilt.

    Every array is read-only, since the views share their data.
    """

    a: ExpCoefficients
    A: np.ndarray
    s: np.ndarray
    A1_rank: int
    tol_rank: float

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_y(self) -> int:
        return self.a.order - self.n_x

    @property
    def n_x_tilde(self) -> int:
        return self.A1_rank

    @property
    def n_y_tilde(self) -> int:
        return self.n_y - self.n_x + self.A1_rank

    @property
    def a0(self) -> np.ndarray:
        return self.A[:, 0]

    @property
    def A0(self) -> np.ndarray:
        return self.A[:, : self.n_x]

    @property
    def A1(self) -> np.ndarray:
        return self.A[:, 1:]

    @property
    def T(self) -> np.ndarray:
        # entry a_{n_y_tilde+i-j} of T is entry (i, j + n_x - r) of A
        r = self.A1_rank
        return self.A[:r, self.n_x - r :]

    @property
    def A0_tilde(self) -> np.ndarray:
        return self.T[:, : self.A1_rank]

    @property
    def A1_tilde(self) -> np.ndarray:
        return self.T[:, 1:]


def build_hankel(a, n_x: int, n_y: int, tol_rank: float = DEFAULT_RANK) -> HankelSystem:
    """Assemble A, factor A1 once and decide rank(A1) for a sequence
    a_0..a_{n_x+n_y}.

    The singular values of A1 are kept on the system; rank(A1) is read
    off them by the rule of ``numeric_rank``, and the reduced block T is
    the corner of A that rank selects.  With n_x = 0 this is the empty
    system: A is 0 x 1, rank(A1) is 0 and T is all of A, so p = 1 and
    every decision on it is made without an SVD.
    """
    coeffs = as_exp_coefficients(a)
    if coeffs.order != n_x + n_y:
        raise ValueError(
            f"need coefficients a_0..a_{n_x + n_y}, got a_0..a_{coeffs.order}"
        )
    A = _toeplitz_slice(coeffs.values, n_x, n_y)
    A.setflags(write=False)
    s = np.linalg.svd(A[:, 1:], compute_uv=False) if n_x else np.zeros(0)
    s.setflags(write=False)
    return HankelSystem(a=coeffs, A=A, s=s, A1_rank=_count_above(s, tol_rank), tol_rank=tol_rank)


def solvable(h: HankelSystem) -> bool:
    """Whether a0 lies in range(A1), the existence criterion.

    At full rank, rank(A1) = n_x, A1 spans R^n_x and a0 lies in its range:
    a solution exists by the theorem, for the empty system (n_x = 0) too,
    and no SVD is taken.  Where A1 is rank-deficient the SVD of A
    decides: ``numeric_rank(A) == rank(A1)``.
    """
    return h.A1_rank == h.n_x or numeric_rank(h.A, h.tol_rank) == h.A1_rank


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
        unsolvable data or a tolerance failure; re-run analyze.  At full
        rank A1_tilde is A1, whose rank ``build_hankel`` decided at the
        same tolerance, so only a reduced system is decided again.
    """
    r = h.n_x_tilde
    if r == 0:
        return np.zeros(0)
    if r < h.n_x and numeric_rank(h.A1_tilde, h.tol_rank) < r:
        raise SingularReducedSystem("reduced matrix is numerically singular")
    return np.linalg.solve(h.A1_tilde, -h.T[:, 0])


def _monic_roots(*polys: Sequence[float]) -> list:
    """Roots of each z^n + c[0] z^(n-1) + ... + c[n-1], as the eigenvalues
    of its companion matrix: one array per polynomial.

    Polynomials of one degree share one eigenvalue call on their stacked
    companion matrices, which yields each matrix's eigenvalues bit for
    bit as a call of its own; each array is real when its own imaginary
    parts are all zero, as that call's would be.
    """
    n = len(polys[0])
    if any(len(c) != n for c in polys):
        return [_monic_roots(c)[0] for c in polys]
    if n == 0:
        return [np.zeros(0) for _ in polys]
    C = np.empty((len(polys), n, n))
    C[:] = np.eye(n, k=1)
    C[:, :, 0] = np.negative(polys)
    return [w if w.imag.any() else w.real for w in np.linalg.eigvals(C)]


def _branch_values(roots: np.ndarray, count: int, cutoff: float, tol: ToleranceSet, rank: int):
    """One side's branch values from its polynomial's roots.

    Roots at or below ``cutoff`` are structural zeros and are dropped;
    the rest must be real.  Returns (values, info): values has length
    ``count`` in ``BranchSolution``'s canonical order, the nonzero real
    parts ascending and then zeros, or is None when a retained root has a
    significant imaginary part; info carries the raw roots, the
    filtered-zero count and the side's rank for diagnostics.
    """
    roots = roots.tolist()
    kept = [z for z in roots if abs(z) > cutoff]
    info = {"eigenvalues": roots, "zeros_filtered": len(roots) - len(kept), "rank": rank}
    if any(abs(z.imag) > tol.imag * (1.0 + abs(z.real)) for z in kept):
        return None, info
    values = sorted(z.real for z in kept if z.real != 0.0)
    return (*values, *(0.0,) * (count - len(values))), info


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


def _invert(h: HankelSystem, tol: ToleranceSet):
    """``invert_min_degree(m, tol=tol, full_output=True)`` on the solvable
    Hankel system ``h`` of ``m``, built with ``tol.rank``, without the
    ``method`` entry of the diagnostics.

    The x-values are the eigenvalues of the reduced pencil, which is the
    companion matrix of c' = ``companion_coefficients(h)``.  The
    y-values come from the same system: with p = (1, c') the reduced
    x-polynomial, q = p*a truncated at degree n_y_tilde has the y-values
    as reciprocal roots, so they are the roots of z^n_y_tilde + d_1
    z^(n_y_tilde-1) + ... + d_n_y_tilde.  The empty system of n_x = 0
    is the rank-0 case: p = 1 and q is a_0..a_{n_y}.

    Each side's zeros are cut at the scale of its own problem's series:
    a for the xs, and for the ys 1/a, the series of the sign-flipped
    problem.  a_k grows like max|x|^k, so a cutoff taken from a would
    zero a small y beside a large x.  A fixed ``tol.zero`` needs no series.

    NonRealSolution is raised once both sides are read; it carries deg
    p, the x-roots above the cutoff counting complex ones, as
    ``_degree``, which ``analyze`` reports as d_min.
    """
    a, rank, n_y_tilde = h.a, h.A1_rank, h.n_y_tilde
    cprime = companion_coefficients(h).tolist()
    # n_y_tilde >= 0 here: below 0 the first row of A1_tilde is zero, and
    # companion_coefficients has raised SingularReducedSystem
    n = n_y_tilde + 1
    d = np.convolve([1.0, *cprime][:n], a.values[:n])[:n]  # orders 0..n_y_tilde of p*a
    roots_x, roots_y = _monic_roots(cprime, d[1:])
    xs, info_x = _branch_values(roots_x, h.n_x, tol.zero_cutoff(a.values), tol, rank)
    y_cutoff = tol.zero if tol.zero is not None else tol.zero_cutoff(_reciprocal(a.values))
    ys, info_y = _branch_values(roots_y, h.n_y, y_cutoff, tol, n_y_tilde)
    if xs is None or ys is None:
        exc = NonRealSolution("retained roots have significant imaginary parts")
        exc._degree = rank - info_x["zeros_filtered"]
        raise exc
    # both sides are in canonical order already
    return BranchSolution(xs, ys), {"x": info_x, "y": info_y}


@dataclass(frozen=True)
class SolvabilityReport:
    """Existence, degree bounds, uniqueness and the minimal solution.

    d_min is deg p of the minimal polynomial pair: the number of p's
    roots above the x-side zero cutoff, complex roots included, so it
    depends on ``tol.zero`` as well as ``tol.rank``.  It equals the
    attached minimal solution's degree, and 0 <= d_min <= rank_A1.
    d_max = d_min + n_x - rank_A1.  When no solution exists, or the
    reduced system is singular so p is undetermined, d_min is 0 and
    d_max is n_x - rank_A1, which keeps the bound arithmetic valid.
    tol_rank records the rank tolerance the analysis was run with.
    """

    exists: bool
    rank_A1: int
    d_min: int
    d_max: int
    unique: bool
    minimal_solution: BranchSolution | None
    tol_rank: float


def analyze(m: MomentSequence, tol: ToleranceSet | None = None) -> SolvabilityReport:
    """Decide existence, degree bounds and uniqueness for a moment sequence.

    Always returns a report: unsolvable data yields ``exists=False``, and
    the one error raised is the ``ValueError`` of an exponential
    transform that overflows.  When a solution exists and its branch
    values are recovered, the minimal-degree solution is attached; it is
    None when they are not real or when the reduced system is singular
    (see ``SolvabilityReport`` for d_min in each case).  ``tol`` (default
    ``ToleranceSet()``) sets every threshold of the analysis and of the
    minimal solution; the report records ``tol.rank``.

    The Hankel system is built and its existence decided once here,
    also for n_x = 0, where it is the empty system and p = 1; the minimal
    solution, both sides of it, is read off that decided system alone.
    Its result is the one ``invert_min_degree`` returns, whose own build
    would repeat the same computation on the same moments at the same
    tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    h = build_hankel(exp_transform(m), m.n_x, m.n_y, tol.rank)
    exists = solvable(h)
    d_min, minimal = 0, None
    if exists:
        try:
            minimal, _ = _invert(h, tol)
            d_min = minimal.degree
        except NonRealSolution as exc:
            d_min = exc._degree
        except SingularReducedSystem:
            pass
    return SolvabilityReport(
        exists=exists,
        rank_A1=h.A1_rank,
        d_min=d_min,
        d_max=d_min + h.n_x - h.A1_rank,
        unique=h.A1_rank == h.n_x,
        minimal_solution=minimal,
        tol_rank=tol.rank,
    )
