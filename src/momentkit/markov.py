"""Weights, factorization certificates, interlacing, and the step density.

For distinct x-values the Hankel blocks factor through a Vandermonde
matrix and a diagonal of residue-type weights; positivity of those
weights together with distinctness is equivalent to the reversed Hankel
block being symmetric positive definite, which in turn characterizes the
classical interlaced solution when the branch counts are equal.  So at
every rank the Markov certificate is read off the eigenvalues of the
data's own block that decided its rank, which the problem's decision
record keeps with its system.  The branch values are computed only where
A1 is rank-deficient, and there only to check that the minimal solution
exists; a caller that wants that solution calls ``invert_min_degree`` on
the same object, which reuses the record, its c' included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoPositiveBranches, RepeatedRoots
from .structure import HankelSystem, _factor, _invert
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet
from .transform import BranchSolution, MomentSequence, _as_float_tuple, _unchecked

_SEPARATION_FACTOR = 1e-8


@dataclass(frozen=True)
class WeightData:
    """Distinct x-values with their residue-type weights.

    w_j = q_r(x_j) / p_r'(x_j) where p_r, q_r are the monic polynomials
    with the branch values as roots; simple roots keep p_r' away from zero.
    """

    xs: tuple[float, ...]
    weights: tuple[float, ...]


def weights(xs: Sequence[float], ys: Sequence[float]) -> WeightData:
    """Evaluate w_j = prod_i (x_j - y_i) / prod_{i != j} (x_j - x_i).

    Raises
    ------
    ValueError
        When a value is not a finite real number.
    RepeatedRoots
        When two x-values are within the separation tolerance, 1e-8 times
        max(1, max |x|); the weight formula requires simple roots.
    """
    xv = _as_float_tuple(xs, "xs")
    yv = _as_float_tuple(ys, "ys")
    scale = max([1.0] + [abs(v) for v in xv])
    sep = _SEPARATION_FACTOR * scale
    for i in range(len(xv)):
        for j in range(i + 1, len(xv)):
            if abs(xv[i] - xv[j]) <= sep:
                raise RepeatedRoots(
                    f"x-values {xv[i]} and {xv[j]} are not separated (tol {sep:g})"
                )
    out = []
    for j, x in enumerate(xv):
        num = math.prod(x - y for y in yv)
        den = math.prod(x - xv[i] for i in range(len(xv)) if i != j)
        out.append(num / den)
    return WeightData(xv, tuple(out))


def _vandermonde(xs: Sequence[float]) -> np.ndarray:
    """V[i, j] = xs[j] ** i for i = 0..n-1 (columns are nodes)."""
    return np.vander(np.asarray(xs, dtype=float), increasing=True).T


def factorization_residual(h: HankelSystem, wd: WeightData) -> float:
    """Max-entry defect of the Vandermonde-diagonal factorizations.

    Checks A1 R = V W V^T and A0 R = V W X V^T, with R the anti-identity
    (column reversal), W = diag(weights), X = diag(xs).  A small residual
    certifies that the entries of ``h.a`` are the weighted power sums of
    the x-values.  The empty system (n_x = 0) factors exactly: 0.0.
    """
    if len(wd.xs) != h.n_x:
        raise ValueError(f"weight data has {len(wd.xs)} nodes; system expects {h.n_x}")
    V = _vandermonde(wd.xs)
    W = np.diag(wd.weights)
    X = np.diag(wd.xs)
    r1 = np.max(np.abs(np.fliplr(h.A1) - V @ W @ V.T), initial=0.0)
    r0 = np.max(np.abs(np.fliplr(h.A0) - V @ W @ X @ V.T), initial=0.0)
    return float(max(r1, r0))


@dataclass(frozen=True)
class MarkovCertificate:
    """Individual certificates tying a moment sequence to the Markov picture.

    spd implies full rank, so it agrees with ``analyze``'s unique.
    weights_positive equals spd, and interlaced is spd where
    interlacing_applicable (equal branch counts) and False elsewhere; for
    a single pair it reduces to y_1 < x_1.
    extended_singular is True on every certificate: the data is solvable,
    so A extended by the next row of its Toeplitz form annihilates
    (1, cbar) for any solution cbar of A1 cbar = -a0.
    """

    spd: bool
    interlaced: bool
    extended_singular: bool
    weights_positive: bool
    interlacing_applicable: bool


def markov_certificate(m: MomentSequence, tol: ToleranceSet | None = None) -> MarkovCertificate:
    """Certificates: SPD of the reversed block, interlacing, extended-matrix
    singularity and weight positivity of ``m``, read off one ``spd`` flag.

    For distinct x-values the reversed block factors as fliplr(A1) =
    V diag(w) V^T, with V the Vandermonde matrix of the x-values and w
    their weights, for any split.  So where A1 has full rank, SPD is the
    statement that the x-values are real and distinct with every weight
    positive, and at n_x = n_y that they interlace with the y-values: the
    flags are read off the eigenvalues that decided rank(A1).  A
    rank-deficient A1 is not SPD, and its other two flags are False too.
    At rank r < n_x the minimal solution has at most r nonzero x-values
    and at most n_y - (n_x - r) < n_y nonzero y-values, so both sides
    carry a 0.0 pad when n_y > 0.  A value on both sides cannot
    interlace, and the weight of x = 0 has the factor (0 - 0) = 0.  At
    n_y = 0 (so n_x >= 2, as A1 = [a_0] at n_x = 1) the weights 1/p'(x_j)
    sum to 0, and two zero xs are not distinct.  So ``interlaced = spd
    and applicable`` and ``weights_positive = spd`` at every rank.

    The minimal solution itself is ``invert_min_degree(m, tol=tol)``,
    which reads it off the record decided here.

    Raises
    ------
    NoSolution
        Propagated from the existence decision on ``m``.
    NonRealSolution, SingularReducedSystem, ValueError
        Propagated from the inversion of ``m``, which runs only where A1
        is rank-deficient, to check that the minimal solution exists.
    NoPositiveBranches
        When n_x = 0; the Hankel system is empty and there is no block
        to certify.  This is the one entry point that raises it.
    """
    if m.n_x == 0:
        raise NoPositiveBranches("n_x = 0: no positive-branch system to build")
    tol = tol or DEFAULT_TOLERANCES
    rec = _factor(m, tol.rank)
    h, applicable = rec.system, m.n_x == m.n_y
    spd = h.full_rank and h.eigs[0].item() > 0.0
    # at rank deficiency the inversion only checks that the minimal
    # solution exists; it stays until the rank is decided by witness
    if not h.full_rank:
        _invert(m, rec, tol)
    return _unchecked(
        MarkovCertificate,
        spd=spd,
        interlaced=spd and applicable,
        extended_singular=True,
        weights_positive=spd,
        interlacing_applicable=applicable,
    )


def density_eval(sol: BranchSolution, x: float) -> float:
    """The step density of a branch solution at a point.

    f(x) = sum_j sgn(x_j)[H(x) - H(x - |x_j|)] - (same over y), with H
    the left-continuous unit step (H(0) = 0); zero branch values drop out
    (sgn(0) = 0).  Under the rescaling m_k -> k m_k this density carries
    the moments of the solution.  ValueError says that ``x`` is not a
    finite real number.
    """

    def step(t: float) -> float:
        return 1.0 if t > 0.0 else 0.0

    (x,) = _as_float_tuple((x,), "x")
    # each term is +-1.0 or 0.0, so the sum is exact, and a float with no terms
    total = 0.0
    for side, values in ((1.0, sol.xs), (-1.0, sol.ys)):
        for v in values:
            if v != 0.0:
                total += side * math.copysign(1.0, v) * (step(x) - step(x - abs(v)))
    return total
