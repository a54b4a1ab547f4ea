"""Trigonometric moment inversion: Hankel-pencil frequencies, Vandermonde amplitudes.

Given 2r equispaced complex moments of a sum of r complex exponentials,
the eigenvalues of the shifted-versus-unshifted Hankel pencil are the
unit-circle nodes exp(i lambda_j); the amplitudes follow from one
Vandermonde solve against the first r moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditionedNodes, RankDeficientSignal
from .structure import numeric_rank
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet


@dataclass(frozen=True)
class TrigSignal:
    """Frequencies in (-pi, pi] and complex amplitudes of an exponential sum.

    Every frequency and amplitude must be finite (ValueError otherwise).
    """

    freqs: tuple[float, ...]
    amps: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "freqs", tuple(map(float, self.freqs)))
        object.__setattr__(self, "amps", tuple(map(complex, self.amps)))
        if len(self.freqs) != len(self.amps):
            raise ValueError("freqs and amps must have the same length")
        parts = (*self.freqs, *(z.real for z in self.amps), *(z.imag for z in self.amps))
        if not all(map(math.isfinite, parts)):
            raise ValueError("freqs and amps must be finite")


def trig_forward(sig: TrigSignal, count: int) -> np.ndarray:
    """Moments m_k = sum_j mu_j exp(i k lambda_j) for k = 0..count-1.

    ValueError names the first moment that overflows to a non-finite value.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(count)[:, None]
    lam = np.asarray(sig.freqs)[None, :]
    amps = np.asarray(sig.amps)
    with np.errstate(over="ignore", invalid="ignore"):
        m = (np.exp(1j * k * lam) * amps).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        first = int(bad[0])
        raise ValueError(f"m_{first} is not finite ({complex(m[first])!r}): the exponential sums overflow")
    return m


def _angular_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def trig_invert(
    m: Sequence[complex],
    r: int,
    tol: ToleranceSet | None = None,
    full_output: bool = False,
):
    """Recover r frequencies and amplitudes from 2r equispaced moments.

    Parameters
    ----------
    m : sequence of complex, length 2r
        Moments m_0..m_{2r-1}.
    r : int
        Number of modes the signal is assumed to carry.
    full_output : bool
        When true, also return a dict with the raw pencil eigenvalues and
        their distance from the unit circle (they are projected onto it
        before the amplitude solve).

    Raises
    ------
    ValueError
        A moment is not finite, or there are not 2r of them.
    RankDeficientSignal
        The r x r moment matrix has numeric rank below r: the data does
        not carry r resolvable modes.
    IllConditionedNodes
        Two recovered frequencies coincide within the separation tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    if r < 1:
        raise ValueError("mode count must be >= 1")
    mv = np.asarray(m, dtype=complex)
    if mv.ndim != 1 or mv.size != 2 * r:
        raise ValueError(f"need exactly 2r = {2 * r} moments, got {mv.size}")
    if not np.all(np.isfinite(mv)):
        raise ValueError("moments must be finite")

    idx = np.add.outer(np.arange(r), np.arange(r))
    H0, H1 = mv[idx], mv[idx + 1]
    rank = numeric_rank(H0, tol.rank)
    if rank < r:
        raise RankDeficientSignal(f"moment matrix rank {rank} < requested modes {r}")

    eigs = np.linalg.eigvals(np.linalg.solve(H0, H1))
    freqs = np.angle(eigs)  # (-pi, pi]
    f = freqs.tolist()
    for i in range(r):
        for j in range(i + 1, r):
            if _angular_gap(f[i], f[j]) < tol.separation:
                raise IllConditionedNodes(
                    f"frequencies {f[i]} and {f[j]} closer than {tol.separation}"
                )

    nodes = np.exp(1j * freqs)  # moduli forced to one
    V = nodes[None, :] ** np.arange(r)[:, None]
    amps = np.linalg.solve(V, mv[:r])

    order = np.argsort(freqs)
    sig = TrigSignal(freqs[order].tolist(), amps[order].tolist())
    if full_output:
        info = {
            "eigenvalues": eigs[order].tolist(),
            "unit_circle_deviation": np.abs(np.abs(eigs[order]) - 1.0).tolist(),
        }
        return sig, info
    return sig
