"""Numerical thresholds shared across the pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass

# defaults of the rank and imaginary-part thresholds, for every entry
# point that takes them.  The rank cutoff sits just above the noise floor
# of the Hankel entries, K·eps times the exp transform's conditioning;
# Hankel matrices of separated data are exponentially ill-conditioned
# (Beckermann 2000), so a larger cutoff calls more of them rank-deficient.
DEFAULT_RANK = 1e-12
DEFAULT_IMAG = 1e-8


@dataclass(frozen=True)
class ToleranceSet:
    """Thresholds controlling rank decisions and root filtering.

    rank
        Relative singular-value cutoff for numeric ranks. This is the
        single most consequential knob: Hankel systems degenerate
        continuously, so the cutoff decides solvability near degeneracy.
    zero
        Absolute cutoff below which an eigenvalue is treated as a
        structural zero of the reduced system.  ``None`` selects the
        scale-free default ``1e-8 * max_{k>=1} |s_k|**(1/k)``, taken once
        per side on the series s of that side's own problem (a for the
        x-side, 1/a for the y-side): scaling every branch value by c
        scales s_k by c**k, and so the cutoff by |c|.
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
        # each test is false for NaN, so NaN fails it
        if not 0.0 < self.rank < 1.0:
            raise ValueError(f"rank tolerance must lie in (0, 1), got {self.rank!r}")
        if not 0.0 < self.imag < math.inf:
            raise ValueError(f"imag tolerance must be finite and > 0, got {self.imag!r}")
        if not 0.0 < self.separation < math.inf:
            raise ValueError(f"separation tolerance must be finite and > 0, got {self.separation!r}")
        if self.zero is not None and not 0.0 <= self.zero < math.inf:
            raise ValueError(f"zero tolerance must be None or finite and >= 0, got {self.zero!r}")

    def zero_cutoff(self, coeffs) -> float:
        if self.zero is not None:
            return self.zero
        return 1e-8 * max(map(pow, map(abs, coeffs[1:]), map((1.0).__truediv__, range(1, len(coeffs)))))


# the defaults, shared by every entry point called without ``tol``
DEFAULT_TOLERANCES = ToleranceSet()
