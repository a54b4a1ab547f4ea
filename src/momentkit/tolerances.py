"""Numerical thresholds shared across the pipeline, and the two rules
that decide with them.

The rank rule ``_count_above`` decides every numeric rank: of A1, of A
where A1 is rank-deficient, of the reduced block, of ``numeric_rank``'s
matrix and of the trigonometric H0.  ``ToleranceSet.zero_cutoff`` decides
which roots of p and q are structural zeros, on both sides.  Both work
on Python floats in a fixed order, so every decision repeats bit for
bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

# defaults of the rank and imaginary-part thresholds, for every entry
# point that takes them.  The rank cutoff sits just above the noise floor
# of the Hankel entries, K·eps times the exp transform's conditioning;
# Hankel matrices of separated data are exponentially ill-conditioned
# (Beckermann 2000), so a larger cutoff calls more of them rank-deficient.
DEFAULT_RANK = 1e-12
DEFAULT_IMAG = 1e-8


def _check_rank(rank: float) -> float:
    """``rank`` where ``0 < rank < 1``, NaN excluded, and ValueError
    otherwise: the rank tolerance check of ``ToleranceSet``,
    ``numeric_rank`` and ``build_hankel``."""
    if not 0.0 < rank < 1.0:  # false for NaN
        raise ValueError(f"rank tolerance must lie in (0, 1), got {rank!r}")
    return rank


def _count_above(values, tol_rel: float) -> int:
    """Number of ``values``, a numpy array in any order and sign, whose
    modulus exceeds ``tol_rel`` times the largest: the rank rule of every
    rank decision.  0 when ``values`` is empty or all zero."""
    s = list(map(abs, values.tolist()))
    top = max(s, default=0.0)
    return sum(map((tol_rel * top).__lt__, s)) if top else 0


@dataclass(frozen=True)
class ToleranceSet:
    """Thresholds controlling rank decisions and root filtering.

    rank
        Relative singular-value cutoff for numeric ranks. This is the
        single most consequential knob: Hankel systems degenerate
        continuously, so the cutoff decides solvability near degeneracy.
    zero
        Absolute cutoff at or below which a root of p or q is a
        structural zero, on both sides.  ``None`` selects the scale-free
        default ``1e-8 * mu`` with ``mu = max_{k>=1} |m_k|**(1/k)`` on the
        moments (``zero_cutoff``): scaling every branch value by c scales
        m_k by c**k, and so the cutoff by |c|.  |m_k| is the same for the
        sign-flipped problem, so the cutoff does not depend on which side
        is called x.  Cauchy's majorants bound mu against the scale of
        each side's series: with alpha = max_k |a_k|**(1/k) of the
        exponential transform a, alpha <= mu < 2 alpha, and the same
        holds for 1/a, the sign-flipped problem's series.  A root at or
        below the cutoff is zeroed on whichever side it lies, so a value
        below about 1e-8 of the largest |value| of both sides is zeroed:
        x = 1e6 beside y = 0.005 returns y = 0.
    imag
        A root with ``|Im z| > imag * (1 + |Re z|)`` makes the solution
        non-real.
    separation
        Minimum spacing between recovered frequencies (trig inversion).

    A value outside these ranges (``0 < rank < 1``; ``imag`` and
    ``separation`` finite and positive; ``zero`` None or finite and
    non-negative), NaN included, raises ``ValueError``: a NaN or infinite
    cutoff decides every comparison the same way and returns a wrong
    answer instead of an error.
    """

    rank: float = DEFAULT_RANK
    zero: float | None = None
    imag: float = DEFAULT_IMAG
    separation: float = 1e-8

    def __post_init__(self):
        _check_rank(self.rank)
        # each test is false for NaN, so NaN fails it
        if not 0.0 < self.imag < math.inf:
            raise ValueError(f"imag tolerance must be finite and > 0, got {self.imag!r}")
        if not 0.0 < self.separation < math.inf:
            raise ValueError(f"separation tolerance must be finite and > 0, got {self.separation!r}")
        if self.zero is not None and not 0.0 <= self.zero < math.inf:
            raise ValueError(f"zero tolerance must be None or finite and >= 0, got {self.zero!r}")

    def zero_cutoff(self, moments) -> float:
        """The zero cutoff of the moments m_1..m_K: ``zero``, or by
        default ``1e-8 * max_k |m_k|**(1/k)``."""
        if self.zero is not None:
            return self.zero
        return 1e-8 * max(map(pow, map(abs, moments), _inverse_orders(len(moments))))


@functools.cache
def _inverse_orders(K: int) -> tuple[float, ...]:
    """The exponents 1/k, k = 1..K, of ``zero_cutoff``, kept per K."""
    return tuple(map((1.0).__truediv__, range(1, K + 1)))


# the defaults, shared by every entry point called without ``tol``
DEFAULT_TOLERANCES = ToleranceSet()
