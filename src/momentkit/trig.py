"""Trigonometric moment inversion: Hankel-pencil frequencies, Vandermonde amplitudes.

Given 2r equispaced complex moments of a sum of r complex exponentials,
the eigenvalues of the shifted-versus-unshifted Hankel pencil are the
unit-circle nodes exp(i lambda_j); the amplitudes follow from one
Vandermonde solve against the first r moments.  H0 is ranked by the
rank rule of ``tolerances``, the rule of every Hankel rank decision, so
this module takes nothing from ``structure``.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack
from .errors import IllConditionedNodes, RankDeficientSignal
from .tolerances import DEFAULT_TOLERANCES, ToleranceSet, _count_above
from .transform import _as_count, _as_float_tuple, _unchecked


@dataclass(frozen=True)
class TrigSignal:
    """Frequencies in (-pi, pi] and complex amplitudes of an exponential sum.

    Every frequency and amplitude must be finite (ValueError otherwise).
    """

    freqs: tuple[float, ...]
    amps: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "freqs", _as_float_tuple(self.freqs, "freqs"))
        object.__setattr__(self, "amps", _as_float_tuple(self.amps, "amps", complex))
        if len(self.freqs) != len(self.amps):
            raise ValueError("freqs and amps must have the same length")


def trig_forward(sig: TrigSignal, count: int) -> np.ndarray:
    """Moments m_k = sum_j mu_j exp(i k lambda_j) for k = 0..count-1.

    ValueError says that ``count`` is not an integer >= 1, or names the
    first moment that overflows to a non-finite value.
    """
    k = np.arange(_as_count(count, "count", 1))[:, None]
    lam = np.asarray(sig.freqs)[None, :]
    amps = np.asarray(sig.amps)
    with np.errstate(over="ignore", invalid="ignore"):
        m = (np.exp(1j * k * lam) * amps).sum(axis=1)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        first = int(bad[0])
        raise ValueError(f"m_{first} is not finite ({complex(m[first])!r}): the exponential sums overflow")
    return m


@functools.cache
def _pencil_index(r: int) -> np.ndarray:
    """Read-only 2 x r x r table of s + i + j: ``m[_pencil_index(r)]`` is
    the pencil (H0, H1), H0 = m[i + j] and H1 = m[i + j + 1]."""
    index = np.arange(2)[:, None, None] + np.arange(r)[:, None] + np.arange(r)
    index.setflags(write=False)
    return index


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
        r is not an integer >= 1, a moment is not finite, or there are
        not 2r of them; or the pencil H0^-1 H1 (numpy's ``LinAlgError``)
        or an amplitude overflows.
    TypeError
        A moment is not a number.
    RankDeficientSignal
        The r x r moment matrix has numeric rank below r: the data does
        not carry r resolvable modes.
    IllConditionedNodes
        Two recovered frequencies coincide within the separation tolerance.
    """
    tol = tol or DEFAULT_TOLERANCES
    r = _as_count(r, "mode count", 1)
    mv = np.array(_as_float_tuple(m, "moments", complex))
    if mv.size != 2 * r:
        raise ValueError(f"need exactly 2r = {2 * r} moments, got {mv.size}")

    H0, H1 = mv[_pencil_index(r)]
    rank = _count_above(_lapack.svd(H0), tol.rank)
    if rank < r:
        raise RankDeficientSignal(f"moment matrix rank {rank} < requested modes {r}")

    P = _lapack.solve(H0, H1)
    # H0 is finite and of full rank, but H0^-1 H1 can still overflow
    if np.count_nonzero(np.isfinite(P)) < P.size:
        raise LinAlgError("Array must not contain infs or NaNs")
    eigs = _lapack.eigvals(P)
    # np.angle's own formula, in (-pi, pi], without its wrapper
    freqs = np.arctan2(eigs.imag, eigs.real)
    # one sort serves the separation check, the result's order and the
    # amplitudes'; stable, as sorted() is, so ties keep the pencil's order
    order = freqs.argsort(kind="stable")
    g = freqs[order].tolist()
    # the closest pair on the circle is adjacent in angular order: sorted
    # neighbours, or the last and the first across +-pi
    for pair in zip(g, g[1:] + g[:1]) if r > 1 else ():
        if _angular_gap(*pair) < tol.separation:
            a, b = sorted(pair, key=freqs.tolist().index)  # in the order the pencil gave them
            raise IllConditionedNodes(f"frequencies {a} and {b} closer than {tol.separation}")

    nodes = np.exp(1j * freqs)  # moduli forced to one
    V = nodes[None, :] ** np.arange(r)[:, None]
    amps = tuple(_lapack.solve(V, mv[:r])[order].tolist())
    # the frequencies are angles of finite eigenvalues; the amplitudes of
    # a nearly singular Vandermonde solve can overflow
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("amps must be finite complex numbers")
    sig = _unchecked(TrigSignal, freqs=tuple(g), amps=amps)
    if full_output:
        info = {
            "eigenvalues": eigs[order].tolist(),
            "unit_circle_deviation": np.abs(np.abs(eigs[order]) - 1.0).tolist(),
        }
        return sig, info
    return sig
