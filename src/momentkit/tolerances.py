"""Numerical thresholds shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

# defaults of the rank and imaginary-part thresholds, for every entry
# point that takes them
DEFAULT_RANK = 1e-9
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
        scale-aware default ``1e-8 * (1 + max|a_k|)`` per instance.
    imag
        A root with ``|Im z| > imag * (1 + |Re z|)`` makes the solution
        non-real.
    separation
        Minimum spacing between recovered frequencies (trig inversion).
    """

    rank: float = DEFAULT_RANK
    zero: float | None = None
    imag: float = DEFAULT_IMAG
    separation: float = 1e-8

    def zero_cutoff(self, coeffs) -> float:
        if self.zero is not None:
            return self.zero
        return 1e-8 * (1.0 + max(abs(float(v)) for v in coeffs))
