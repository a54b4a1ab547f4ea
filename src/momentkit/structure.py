"""Hankel matrices of the transformed sequence, numeric rank, solvability,
and the minimal solution read off the decided system.

The n_x x (n_x+1) matrix A holds anti-shifted slices of the a-sequence,
and it is the only matrix a problem assembles.  One ``eigvalsh`` of the
symmetric fliplr(A1) decides rank(A1) by the eigenvalues' moduli, A1's
singular values, and definiteness by their signs.  The rank decides
uniqueness, and at full rank existence too, since a0 then lies in
range(A1) by the theorem (``HankelSystem.full_rank``); only a
rank-deficient A1 takes the SVD of A, whose rank against rank(A1)
decides existence.  The x-values are the eigenvalues of the reduced
pencil (A0_tilde, A1_tilde) = (T[:, :r], T[:, 1:]), where T =
A[:r, n_x-r:] is A's top-right corner at the decided rank r.  Below
full rank A1_tilde is ranked as A1 is, by one ``eigvalsh`` of its
reversed form, the leading r x r block of fliplr(A1).  The two blocks
share the columns T[:, 1:r], so A1_tilde^-1 A0_tilde is [-c' | shifted
identity], the companion matrix of the LU solution c' of A1_tilde c' =
-a0_tilde.  The y-values are the reciprocal roots of q = p*a on the
same system; when both polynomials have one degree, one eigenvalue call
reads the roots of both companion matrices.  One zero cutoff, read off
the moments by ``ToleranceSet.zero_cutoff``, filters the roots of both
sides.  d_min is deg p, the count of p's roots that pass it, and d_max
= d_min + n_x - rank.

Numpy arrays are the inputs and outputs of the factorizations and of
the convolution that forms q.  eigvalsh, solve and eigvals go through
``_lapack``, numpy's LAPACK gufuncs without ``np.linalg``'s per-call
dispatch, and svd through ``np.linalg``; the rank rule, the zero cutoff
and the root filter work on Python floats in a fixed order, so every
decision repeats bit for bit.  Two read-only tables are cached on sizes
alone: where each entry of A sits in the reversed a-sequence, and the
stacked shift matrices that a copy makes companion matrices.  eigvals
returns a real stack exactly when every root is real, so only a complex
stack is split per side.

Values are checked once, where they enter: a, the counts and the rank
tolerance by ``build_hankel``, and c', q and the roots by ``_invert``.
So the rank decisions factor without ``numeric_rank``'s checks, and the
Hankel system and the solution are built unchecked.

A problem is decided once per object: ``_decided`` keeps the system and
existence verdict of a ``MomentSequence`` on it, and ``_cprime`` keeps
c' on the system, so each entry point after the first on one object
does only its own step.  ``_factor`` is the existence gate of every
entry point but ``analyze``, which reports existence instead of raising
``NoSolution``.  Errors and results are never kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _lapack
from .errors import NonRealSolution, NoSolution, SingularReducedSystem
from .tolerances import DEFAULT_RANK, DEFAULT_TOLERANCES, ToleranceSet, _check_rank
from .transform import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    _as_count,
    _as_float_tuple,
    _unchecked,
    exp_transform,
)


def _count_above(values: np.ndarray, tol_rel: float) -> int:
    """Number of ``values``, in any order and sign, whose modulus exceeds
    ``tol_rel`` times the largest: the rank rule of every rank decision.
    0 when ``values`` is empty or all zero."""
    s = list(map(abs, values.tolist()))
    top = max(s, default=0.0)
    return sum(map((tol_rel * top).__lt__, s)) if top else 0


def numeric_rank(matrix, tol_rel: float = DEFAULT_RANK) -> int:
    """Number of singular values above ``tol_rel * sigma_max``.

    Returns 0 for an empty or all-zero matrix.  Raises ValueError for a
    matrix with an inf or NaN entry, whose singular values decide nothing,
    or a ``tol_rel`` outside (0, 1).
    """
    _check_rank(tol_rel)
    M = np.atleast_2d(np.asarray(matrix))
    if M.size == 0:
        return 0
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry; its rank is undefined")
    return _count_above(np.linalg.svd(M, compute_uv=False), tol_rel)


@functools.cache
def _entry_index(n_x: int) -> np.ndarray:
    """Read-only table of A's entries in the a-sequence reversed and padded
    with n_x zeros, ``rev``: 0-based entry (i, j) of A is rev[n_x-1-i+j]."""
    index = np.arange(n_x - 1, -1, -1)[:, None] + np.arange(n_x + 1)
    index.setflags(write=False)
    return index


def _toeplitz_slice(a: Sequence[float], n_x: int) -> np.ndarray:
    """A, the n_x x (n_x+1) matrix with entry a[n_y + i - j], 1-based row
    i, 0-based column j, of the sequence ``a`` = a_0..a_{n_x+n_y}.

    Entries with a negative index, below a_0, are 0.
    """
    # rev[p] is a_{n_x+n_y-p}, and 0 past a_0; indexing makes a new array
    return np.array((*a[::-1], *(0.0,) * n_x))[_entry_index(n_x)]


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

    eigs holds the ascending eigenvalues of the symmetric fliplr(A1),
    without vectors, empty for the empty system.  Their moduli are A1's
    singular values: A1_rank is read off them, and sigma_n / sigma_1 is
    min|eigs| / max|eigs|.  fliplr(A1) is SPD exactly when A1_rank = n_x
    and eigs[0] > 0.  T, and with it the reduced pencil, is read off A
    at A1_rank, so ``dataclasses.replace(h, A1_rank=r)`` is the system
    at any candidate rank r <= n_x with nothing rebuilt.

    Every array is read-only, since the views share their data.  c' is
    solved on first use and kept (``_cprime``); a replaced system solves
    its own.
    """

    a: ExpCoefficients
    A: np.ndarray
    eigs: np.ndarray
    A1_rank: int
    tol_rank: float

    @property
    def n_x(self) -> int:
        return len(self.A)

    @property
    def n_y(self) -> int:
        return self.a.order - self.n_x

    @property
    def full_rank(self) -> bool:
        """Whether rank(A1) = n_x: a solution exists and is unique, and the
        reduced pencil is all of A.  Read off ``A1_rank``, so a replaced
        system answers at its own rank."""
        return self.A1_rank == len(self.A)

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
    def A1_tilde(self) -> np.ndarray:
        return self.T[:, 1:]


def build_hankel(a, n_x: int, n_y: int, tol_rank: float = DEFAULT_RANK) -> HankelSystem:
    """Assemble A, factor A1 once and decide rank(A1) for a sequence
    a_0..a_{n_x+n_y}.

    The eigenvalues of the symmetric fliplr(A1) are kept on the system;
    rank(A1) is read off their moduli by the rule of ``numeric_rank``,
    and the reduced block T is the corner of A that rank selects.  With
    n_x = 0 this is the empty system: A is 0 x 1, rank(A1) is 0 and T is
    all of A, so p = 1 and every decision on it is made without a
    factorization.  ValueError says that a count is negative or not an
    integer, or that ``tol_rank`` lies outside (0, 1).
    """
    n_x, n_y, tol_rank = _as_count(n_x, "n_x"), _as_count(n_y, "n_y"), _check_rank(tol_rank)
    coeffs = a if isinstance(a, ExpCoefficients) else ExpCoefficients(tuple(a))
    if coeffs.order != n_x + n_y:
        raise ValueError(
            f"need coefficients a_0..a_{n_x + n_y}, got a_0..a_{coeffs.order}"
        )
    A = _toeplitz_slice(coeffs.values, n_x)
    A.setflags(write=False)
    # A[:, :0:-1] is fliplr(A1), a Hankel matrix: symmetric bit for bit
    eigs = _lapack.eigvalsh(A[:, :0:-1]) if n_x else np.zeros(0)
    eigs.setflags(write=False)
    return _unchecked(HankelSystem, a=coeffs, A=A, eigs=eigs, A1_rank=_count_above(eigs, tol_rank), tol_rank=tol_rank)


def solvable(h: HankelSystem) -> bool:
    """Whether a0 lies in range(A1), the existence criterion.

    At full rank, rank(A1) = n_x, A1 spans R^n_x and a0 lies in its range:
    a solution exists by the theorem, for the empty system (n_x = 0) too,
    and no SVD is taken.  Where A1 is rank-deficient the SVD of A
    decides: ``numeric_rank(A) == rank(A1)``.
    """
    return h.full_rank or _count_above(np.linalg.svd(h.A, compute_uv=False), h.tol_rank) == h.A1_rank


def _decided(m: MomentSequence, tol_rank: float) -> tuple[HankelSystem, bool]:
    """``build_hankel`` and ``solvable`` of ``m`` at ``tol_rank``, run
    once per object and kept on it beside the fields, which equality,
    hash, repr and pickles ignore; another tolerance replaces them.  Kept
    per object, not per value: equal moments need not be the same bits
    (0.0 == -0.0).  A build that raises keeps nothing.  Set through
    ``object.__setattr__``, as ``__post_init__`` sets fields, since
    reading ``m.__dict__`` would build a dict for every problem."""
    d = getattr(m, "_decided", None)
    if d is None or d[0].tol_rank != tol_rank:
        h = build_hankel(exp_transform(m), m.n_x, m.n_y, tol_rank)
        d = (h, solvable(h))
        object.__setattr__(m, "_decided", d)
    return d


def _factor(m: MomentSequence, tol_rank: float) -> HankelSystem:
    """The decided Hankel system of ``m``, where a solution exists.

    Every entry point but ``analyze`` takes its system from here, and
    ``analyze`` from ``_decided`` as this does, so a problem object gets
    one Hankel build and one existence decision per rank tolerance,
    however many entry points are called on it; the y-side is read off
    the same system.  With n_x = 0 the system is empty and always
    solvable.

    Raises
    ------
    NoSolution
        When a0 is outside range(A1), on every call.
    """
    h, exists = _decided(m, tol_rank)
    if not exists:
        raise NoSolution("first Hankel column is outside the range of the Hankel block")
    return h


def _cprime(h: HankelSystem) -> list:
    """c' of ``companion_coefficients`` as a list of floats, solved once
    per system, kept on it as ``_decided`` keeps a system, and only read
    after.  A singular reduced system stores nothing and raises on every
    call."""
    c = getattr(h, "_cprime", None)
    if c is None:
        # at full rank T is all of A, and A1_tilde is A1, decided nonsingular
        r, T = h.A1_rank, h.A
        if not h.full_rank:
            T = h.T
            # T[:, :0:-1] is fliplr(A1_tilde), the leading r x r block of
            # fliplr(A1): ranked by the rule that ranked A1
            if r and _count_above(_lapack.eigvalsh(T[:, :0:-1]), h.tol_rank) < r:
                raise SingularReducedSystem("reduced matrix is numerically singular")
        c = _lapack.solve(T[:, 1:], -T[:, 0]).tolist() if r else []
        object.__setattr__(h, "_cprime", c)
    return c


def companion_coefficients(h: HankelSystem) -> np.ndarray:
    """Coefficients c' = (c_1..c_r) of the reduced companion polynomial.

    Solves ``A1_tilde c' = -a0_tilde`` where a0_tilde is the first column
    of A0_tilde.  The monic polynomial z^r + c_1 z^{r-1} + ... + c_r then
    carries the minimal solution's x-values (plus zeros) as roots.  The
    solve runs once per system, and each call returns a new array.

    Raises
    ------
    SingularReducedSystem
        When A1_tilde is numerically singular.  On solvable data the
        reduced matrix is provably nonsingular, so this signals either
        unsolvable data or a tolerance failure; re-run analyze.  At full
        rank A1_tilde is A1, whose rank ``build_hankel`` decided at the
        same tolerance, so only a reduced system is decided again.
    """
    return np.array(_cprime(h))


@functools.cache
def _shift_stack(count: int, n: int) -> np.ndarray:
    """Read-only stack of ``count`` n x n matrices with ones on the superdiagonal."""
    return np.broadcast_to(np.eye(n, k=1), (count, n, n))


def _monic_roots(*polys: Sequence[float]) -> list:
    """Roots of each z^n + c[0] z^(n-1) + ... + c[n-1], as the eigenvalues
    of its companion matrix: one list of Python numbers per polynomial,
    floats where a call of its own returns a real array and complex
    numbers otherwise.

    Polynomials of one degree share one eigenvalue call on their stacked
    companion matrices, which yields each matrix's eigenvalues bit for
    bit as a call of its own.  That call returns a real array exactly
    when every root in the stack is real, read back with one ``tolist``;
    a complex stack gives each polynomial that is real on its own real
    roots, as its own call would.
    """
    n = len(polys[0])
    if len(set(map(len, polys))) > 1:
        return [_monic_roots(c)[0] for c in polys]
    if n == 0:
        return [[] for _ in polys]
    C = _shift_stack(len(polys), n).copy()
    C[:, :, 0] = [[-v for v in c] for c in polys]
    roots = _lapack.eigvals(C)
    if roots.dtype.kind == "f":
        return roots.tolist()
    return [(w if w.imag.any() else w.real).tolist() for w in roots]


def _branch_values(roots: list, count: int, cutoff: float, tol: ToleranceSet, rank: int):
    """One side's branch values from its polynomial's roots, as
    ``_monic_roots`` gives them: all floats or all complex.

    Roots at or below ``cutoff`` are structural zeros and are dropped;
    the rest must be real.  Returns (values, info): values has length
    ``count`` in ``BranchSolution``'s canonical order, the nonzero real
    parts ascending and then zeros, or is None when a retained root has a
    significant imaginary part; info carries the raw roots, the
    filtered-zero count and the side's rank for diagnostics.
    """
    kept = [z for z in roots if abs(z) > cutoff]
    info = {"eigenvalues": roots, "zeros_filtered": len(roots) - len(kept), "rank": rank}
    # a real root above the cutoff is nonzero; a complex one must be real
    # within tol.imag, and its real part is the value
    if kept and type(kept[0]) is complex:
        if any(abs(z.imag) > tol.imag * (1.0 + abs(z.real)) for z in kept):
            return None, info
        kept = [z.real for z in kept if z.real != 0.0]
    kept.sort()
    return (*kept, *(0.0,) * (count - len(kept))), info


def _invert(m: MomentSequence, h: HankelSystem, tol: ToleranceSet):
    """``invert_min_degree(m, tol=tol, full_output=True)`` on the solvable
    Hankel system ``h`` of ``m``, built with ``tol.rank``, without the
    ``method`` entry of the diagnostics.

    The x-values are the eigenvalues of the reduced pencil, which is the
    companion matrix of c', solved once per system (``_cprime``).  The
    y-values come from the same system: with p = (1, c') the reduced
    x-polynomial, q = p*a truncated at degree n_y_tilde has the y-values
    as reciprocal roots, so they are the roots of z^n_y_tilde + d_1
    z^(n_y_tilde-1) + ... + d_n_y_tilde.  The empty system of n_x = 0
    is the rank-0 case: p = 1 and q is a_0..a_{n_y}.

    One zero cutoff, ``tol.zero_cutoff`` of the moments, filters the
    roots of both sides.

    NonRealSolution is raised once both sides are read; it carries deg
    p, the x-roots above the cutoff counting complex ones, as
    ``_degree``, which ``analyze`` reports as d_min.  ValueError says
    that c', q or a root overflows: the solution lies beyond the float
    range.  The solution is built unchecked from the roots checked here.
    """
    rank = h.A1_rank
    n_y_tilde = m.n_y - m.n_x + rank
    cprime = _cprime(h)
    # n_y_tilde >= 0 here: below 0 the first row of A1_tilde is zero, and
    # _cprime has raised SingularReducedSystem
    n = n_y_tilde + 1
    d = np.convolve([1.0, *cprime][:n], h.a.values[:n])[1:n].tolist()  # orders 1..n_y_tilde of p*a
    if not all(map(math.isfinite, cprime + d)):
        raise ValueError("the companion coefficients of p or q are not finite: the minimal solution overflows")
    roots_x, roots_y = _monic_roots(cprime, d)
    cutoff = tol.zero_cutoff(m.values)
    xs, info_x = _branch_values(roots_x, m.n_x, cutoff, tol, rank)
    ys, info_y = _branch_values(roots_y, m.n_y, cutoff, tol, n_y_tilde)
    if xs is None or ys is None:
        exc = NonRealSolution("retained roots have significant imaginary parts")
        exc._degree = rank - info_x["zeros_filtered"]
        raise exc
    # both sides are in canonical order already; an overflowing root raises here
    xs, ys = _as_float_tuple(xs, "xs"), _as_float_tuple(ys, "ys")
    return _unchecked(BranchSolution, xs=xs, ys=ys, degree=len(xs) - xs.count(0.0)), {"x": info_x, "y": info_y}


@dataclass(frozen=True)
class SolvabilityReport:
    """Existence, degree bounds, uniqueness and the minimal solution.

    d_min is deg p of the minimal polynomial pair: the number of p's
    roots above the zero cutoff, complex roots included, so it
    depends on ``tol.zero`` as well as ``tol.rank``.  It equals the
    attached minimal solution's degree, and 0 <= d_min <= rank_A1.
    d_max = d_min + n_x - rank_A1.  When no solution exists, or p is
    undetermined (a singular reduced system) or overflows, d_min is 0
    and d_max is n_x - rank_A1, which keeps the bound arithmetic valid.
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
    None when they are not real, when the reduced system is singular or
    when they overflow (see ``SolvabilityReport`` for d_min in each
    case).  ``tol`` (default ``ToleranceSet()``) sets every threshold of
    the analysis and of the minimal solution; the report records
    ``tol.rank``.

    The Hankel system and its existence come from ``_decided``, also
    for n_x = 0, where it is the empty system and p = 1: built once per
    object and tolerance, and shared with every other entry point called
    on ``m``.  The minimal solution, both sides of it, is read off that
    decided system alone, and is the one ``invert_min_degree`` returns.
    """
    tol = tol or DEFAULT_TOLERANCES
    h, exists = _decided(m, tol.rank)
    d_min, minimal = 0, None
    if exists:
        try:
            minimal, _ = _invert(m, h, tol)
            d_min = minimal.degree
        except NonRealSolution as exc:
            d_min = exc._degree
        except (SingularReducedSystem, ValueError):
            pass
    return SolvabilityReport(
        exists=exists,
        rank_A1=h.A1_rank,
        d_min=d_min,
        d_max=d_min + h.n_x - h.A1_rank,
        unique=h.full_rank,
        minimal_solution=minimal,
        tol_rank=tol.rank,
    )
