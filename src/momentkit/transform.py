"""Moment sequences, their exponential transform, and branch-value power sums.

The forward map (branch values -> moments) is the oracle every inversion
result is checked against.  The exponential transform turns a moment
sequence into the Taylor coefficients of q(z)/p(z), where p and q carry
the positive and negative branch values as reciprocal roots; it is the
sequence all Hankel machinery is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


def _as_float_tuple(values, name: str) -> tuple[float, ...]:
    out = tuple(map(float, values))
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite real numbers")
    return out


@dataclass(frozen=True)
class MomentSequence:
    """Ordered real moments m_1..m_K with the branch split (n_x, n_y).

    Indices are 1-based in all formulas; ``values[k-1]`` holds m_k.
    """

    values: tuple[float, ...]
    n_x: int
    n_y: int

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_tuple(self.values, "moments"))
        if self.n_x < 0 or self.n_y < 0:
            raise ValueError("branch counts must be nonnegative")
        if self.n_x + self.n_y != len(self.values):
            raise ValueError(
                f"n_x + n_y = {self.n_x + self.n_y} must equal the number "
                f"of moments ({len(self.values)})"
            )
        if len(self.values) == 0:
            raise ValueError("at least one moment is required")

    @property
    def K(self) -> int:
        return len(self.values)

    def negated(self) -> "MomentSequence":
        """The sign-flipped problem with branch roles interchanged."""
        return MomentSequence(tuple(-v for v in self.values), self.n_y, self.n_x)


@dataclass(frozen=True)
class ExpCoefficients:
    """Exponential-transform sequence a_0..a_K with a_0 = 1.

    Item access follows the domain convention: ``a[k]`` is 0 for k < 0,
    and indices above K raise (the transform of K moments determines no
    further coefficients).
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_tuple(self.values, "coefficients"))
        if len(self.values) == 0 or self.values[0] != 1.0:
            raise ValueError("coefficient sequence must start with a_0 = 1")

    @property
    def order(self) -> int:
        """Largest defined index K."""
        return len(self.values) - 1

    def __getitem__(self, k: int) -> float:
        if k < 0:
            return 0.0
        if k > self.order:
            raise IndexError(f"coefficient a_{k} undefined; only a_0..a_{self.order} known")
        return self.values[k]


def _canonical(values) -> tuple[float, ...]:
    # ascending by value, zeros last
    nonzero = sorted(v for v in values if v != 0.0)
    return tuple(nonzero) + (0.0,) * (len(values) - len(nonzero))


@dataclass(frozen=True)
class BranchSolution:
    """Branch-value multisets, zero-padded, plus the solution degree.

    degree is the number of nonzero x-values; for a minimal-degree
    solution no nonzero x equals a nonzero y.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    degree: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "xs", _as_float_tuple(self.xs, "xs"))
        object.__setattr__(self, "ys", _as_float_tuple(self.ys, "ys"))
        nz = len(self.xs) - self.xs.count(0.0)
        if self.degree == -1:
            object.__setattr__(self, "degree", nz)
        elif self.degree != nz:
            raise ValueError(f"degree {self.degree} != count of nonzero xs ({nz})")

    @classmethod
    def from_branches(cls, xs, ys) -> "BranchSolution":
        """Canonical form: each side sorted ascending with zeros last."""
        return cls(_canonical(xs), _canonical(ys))

    @property
    def n_x(self) -> int:
        return len(self.xs)

    @property
    def n_y(self) -> int:
        return len(self.ys)


def _moment_values(m) -> tuple[float, ...]:
    if isinstance(m, MomentSequence):
        return m.values
    return _as_float_tuple(m, "moments")


def as_exp_coefficients(a) -> ExpCoefficients:
    if isinstance(a, ExpCoefficients):
        return a
    return ExpCoefficients(tuple(a))


def _power_sum(values: Sequence[float], k: int) -> float:
    """sum_j values_j**k, accumulated left to right (``sum`` compensates
    float sums from Python 3.12 on, which would change the last bits).  A
    power that overflows counts as the signed infinity IEEE arithmetic
    gives, where Python's ``**`` raises OverflowError."""
    total = 0.0
    for v in values:
        try:
            total += v**k
        except OverflowError:
            total += math.copysign(math.inf, v) ** k
    return total


def forward_moments(xs: Sequence[float], ys: Sequence[float], count: int) -> MomentSequence:
    """Signed power sums m_k = sum x_j^k - sum y_j^k for k = 1..count.

    Summation order is fixed (ascending |value|) so results are
    bit-reproducible across runs.  ValueError names the first moment
    that overflows to a non-finite value.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    xs_t = sorted(_as_float_tuple(xs, "xs"), key=lambda v: (abs(v), v))
    ys_t = sorted(_as_float_tuple(ys, "ys"), key=lambda v: (abs(v), v))
    values = []
    for k in range(1, count + 1):
        value = _power_sum(xs_t, k) - _power_sum(ys_t, k)
        if not math.isfinite(value):
            raise ValueError(f"m_{k} is not finite ({value!r}): the power sums overflow")
        values.append(value)
    return MomentSequence(tuple(values), len(xs_t), len(ys_t))


def exp_transform(m) -> ExpCoefficients:
    """Exponential transform of a moment sequence.

    Solves the unit lower-triangular system k*a_k = m_k + sum_{j<k} m_j a_{k-j}
    by forward substitution; a_0 = 1.  The a_k are independent of K, so a
    longer moment sequence only appends coefficients.
    """
    values = _moment_values(m)
    K = len(values)
    a = [1.0] + [0.0] * K
    for k in range(1, K + 1):
        s = values[k - 1]
        for j in range(1, k):
            s += values[j - 1] * a[k - j]
        a[k] = s / k
    return ExpCoefficients(tuple(a))
