"""Weights, factorization certificates, interlacing, and the step density.

For distinct x-values the Hankel blocks factor through a Vandermonde
matrix and a diagonal of residue-type weights; positivity of those
weights together with distinctness is equivalent to the reversed Hankel
block being symmetric positive definite, which in turn characterizes the
classical interlaced solution when the branch counts are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RepeatedRoots
from .inversion import _factor, _invert, next_exp_coefficient
from .structure import HankelSystem, numeric_rank
from .tolerances import ToleranceSet
from .transform import BranchSolution, MomentSequence, as_exp_coefficients

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
    RepeatedRoots
        When two x-values are closer than the separation tolerance
        (1e-8 relative to the largest magnitude); the weight formula
        requires simple roots.
    """
    xv = tuple(float(v) for v in xs)
    yv = tuple(float(v) for v in ys)
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


def factorization_residual(a, h: HankelSystem, wd: WeightData) -> float:
    """Max-entry defect of the Vandermonde-diagonal factorizations.

    Checks A1 R = V W V^T and A0 R = V W X V^T, with R the anti-identity
    (column reversal), W = diag(weights), X = diag(xs).  A small residual
    certifies that the a-sequence entries are the weighted power sums of
    the x-values.
    """
    as_exp_coefficients(a)  # validates the sequence shape
    if len(wd.xs) != h.n_x:
        raise ValueError(f"weight data has {len(wd.xs)} nodes; system expects {h.n_x}")
    V = _vandermonde(wd.xs)
    W = np.diag(wd.weights)
    X = np.diag(wd.xs)
    r1 = np.max(np.abs(np.fliplr(h.A1) - V @ W @ V.T))
    r0 = np.max(np.abs(np.fliplr(h.A0) - V @ W @ X @ V.T))
    return float(max(r1, r0))


def _is_spd(S: np.ndarray, pivot_rel: float = 1e-12, sym_rel: float = 1e-10) -> bool:
    """Symmetric positive definiteness via an unpivoted triangular factorization.

    Fails on asymmetry beyond sym_rel or on any pivot <= pivot_rel * max|S|.
    """
    n = S.shape[0]
    scale = float(np.max(np.abs(S))) if S.size else 0.0
    if np.max(np.abs(S - S.T)) > sym_rel * max(1.0, scale):
        return False
    L = np.zeros_like(S)
    for k in range(n):
        pivot = S[k, k] - L[k, :k] @ L[k, :k]
        if pivot <= pivot_rel * scale or pivot <= 0.0:
            return False
        L[k, k] = math.sqrt(pivot)
        L[k + 1 :, k] = (S[k + 1 :, k] - L[k + 1 :, :k] @ L[k, :k]) / L[k, k]
    return True


@dataclass(frozen=True)
class MarkovCertificate:
    """Individual certificates tying a moment sequence to the Markov picture.

    interlaced is only meaningful when interlacing_applicable (equal
    branch counts); for a single pair it reduces to y_1 < x_1.
    """

    spd: bool
    interlaced: bool
    extended_singular: bool
    weights_positive: bool
    interlacing_applicable: bool


def _extended_matrix(m: MomentSequence, a, h: HankelSystem) -> np.ndarray:
    """A with one more Toeplitz row (a_{K+1}, a_K, ..., a_{n_y+1}) appended;
    a_{K+1} comes from the minimum-norm solution of ``A1 cbar = -a0``."""
    cbar, *_ = np.linalg.lstsq(h.A1, -h.a0, rcond=None)
    a_next = next_exp_coefficient(a, cbar, m.K + 1)
    ext = np.zeros((h.n_x + 1, h.n_x + 1))
    ext[: h.n_x, :] = h.A
    ext[h.n_x, 0] = a_next
    ext[h.n_x, 1:] = h.a0[::-1]
    return ext


def markov_certificate(m: MomentSequence, tol: ToleranceSet | None = None) -> MarkovCertificate:
    """Certificates: SPD of the reversed block, interlacing, extended-matrix
    singularity and weight positivity for the minimal solution of ``m``.

    Raises
    ------
    NoSolution, NonRealSolution
        Propagated from the inversion of ``m``.
    NoPositiveBranches
        When n_x = 0; there is no block to certify.
    """
    tol = tol or ToleranceSet()
    a, h = _factor(m, tol.rank)

    spd = _is_spd(np.fliplr(h.A1))
    ext = _extended_matrix(m, a, h)
    extended_singular = numeric_rank(ext, tol.rank) < h.n_x + 1

    sol, _ = _invert(m, "companion", tol, x_side=(a, h))

    applicable = m.n_x == m.n_y
    interlaced = False
    if applicable:
        xs = sorted(sol.xs)
        ys = sorted(sol.ys)
        interlaced = all(ys[i] < xs[i] for i in range(m.n_x)) and all(
            xs[i] < ys[i + 1] for i in range(m.n_x - 1)
        )

    try:
        wd = weights(sol.xs, sol.ys)
        weights_positive = all(w > 0.0 for w in wd.weights)
    except RepeatedRoots:
        weights_positive = False

    return MarkovCertificate(
        spd=spd,
        interlaced=interlaced,
        extended_singular=extended_singular,
        weights_positive=weights_positive,
        interlacing_applicable=applicable,
    )


def density_eval(sol: BranchSolution, x: float) -> float:
    """The step density of a branch solution at a point.

    f(x) = sum_j sgn(x_j)[H(x) - H(x - |x_j|)] - (same over y), with H
    the left-continuous unit step (H(0) = 0); zero branch values drop out
    (sgn(0) = 0).  Under the rescaling m_k -> k m_k this density carries
    the moments of the solution.
    """

    def step(t: float) -> float:
        return 1.0 if t > 0.0 else 0.0

    x = float(x)
    total = 0.0
    for v in sol.xs:
        if v != 0.0:
            total += math.copysign(1.0, v) * (step(x) - step(x - abs(v)))
    for v in sol.ys:
        if v != 0.0:
            total -= math.copysign(1.0, v) * (step(x) - step(x - abs(v)))
    return total
