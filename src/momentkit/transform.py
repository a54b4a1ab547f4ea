"""Moment sequences, their exponential transform, and branch-value power sums.

The forward map (branch values -> moments) is the oracle every inversion
result is checked against.  The exponential transform turns a moment
sequence into the Taylor coefficients of q(z)/p(z), where p and q carry
the positive and negative branch values as reciprocal roots; it is the
sequence all Hankel machinery is built from.  Values are checked once,
where they enter: ``_as_float_tuple``, one rule for real and complex
values, and ``_as_count`` are the entry checks of every public function
and constructor, and ``exp_transform`` checks its coefficients once,
after its loop, then builds its result unchecked.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence


def _as_float_tuple(values, name: str, kind: type = float) -> tuple:
    """``values`` as a tuple of finite numbers of ``kind``, ``float`` or
    ``complex``.  ValueError says that one is infinite, NaN or an integer
    beyond the float range; TypeError, naming ``name``, that one is not a
    number.

    The finiteness test runs on the entries before they are converted:
    ``math.isfinite`` and ``cmath.isfinite`` read a number as ``float()``
    and ``complex()`` do, but take no text, so a ``str``, ``bytes`` or
    ``bytearray`` entry, which those constructors would parse, is a
    TypeError too."""
    try:
        values = tuple(values)
        if all(map(math.isfinite if kind is float else cmath.isfinite, values)):
            return tuple(map(kind, values))
    except OverflowError:
        pass
    except TypeError:
        raise TypeError(f"{name} must be {'real' if kind is float else 'complex'} numbers") from None
    raise ValueError(f"{name} must be finite {'real' if kind is float else 'complex'} numbers")


def _as_count(value, name: str, least: int = 0) -> int:
    """``value`` as an int >= ``least``: Python and numpy integers pass; a
    bool, a float, any other type or a smaller value raises ValueError.  A
    Python int, the common case, skips the slower ``numbers.Integral`` check."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(value)


def _unchecked(cls, **fields):
    """``cls(**fields)`` for fields already in the form its ``__post_init__``
    checks, without running ``__init__``: without those checks, and for a
    frozen class without setting each field through ``object.__setattr__``.
    Pass the fields in declaration order, the order ``__init__`` stores
    them in, so the object pickles to the same bytes."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, init=False)
class MomentSequence:
    """Ordered real moments m_1..m_K with the branch split (n_x, n_y).

    Indices are 1-based in all formulas; ``values[k-1]`` holds m_k.  The
    branch counts are nonnegative integers, numpy integers included; a
    bool, a float, any other type or a negative count raises ValueError.
    """

    values: tuple[float, ...]
    n_x: int
    n_y: int

    def __init__(self, values: tuple[float, ...], n_x: int, n_y: int):
        # frozen: each field is checked, then stored once
        values, n_x, n_y = _as_float_tuple(values, "moments"), _as_count(n_x, "n_x"), _as_count(n_y, "n_y")
        if n_x + n_y != len(values):
            raise ValueError(f"n_x + n_y = {n_x + n_y} must equal the number of moments ({len(values)})")
        if not values:
            raise ValueError("at least one moment is required")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_y", n_y)

    def __getstate__(self):
        # the fields only: the decision record that ``structure._decided``
        # keeps beside them (system, existence, c') stays in this process,
        # and copies and pickles decide anew
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
        if self.degree == -1 and type(self.degree) is int:  # the default
            degree = nz
        else:
            degree = _as_count(self.degree, "degree")
            if degree != nz:
                raise ValueError(f"degree {degree} != count of nonzero xs ({nz})")
        object.__setattr__(self, "degree", degree)

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


def forward_moments(xs: Sequence[float], ys: Sequence[float]) -> MomentSequence:
    """Signed power sums m_k = sum x_j^k - sum y_j^k for k = 1..len(xs) + len(ys).

    Summation order is fixed (ascending |value|) so results are
    bit-reproducible across runs.  ValueError names the first moment
    that overflows to a non-finite value.
    """
    xs_t = sorted(_as_float_tuple(xs, "xs"), key=lambda v: (abs(v), v))
    ys_t = sorted(_as_float_tuple(ys, "ys"), key=lambda v: (abs(v), v))
    values = []
    for k in range(1, len(xs_t) + len(ys_t) + 1):
        value = _power_sum(xs_t, k) - _power_sum(ys_t, k)
        if not math.isfinite(value):
            raise ValueError(f"m_{k} is not finite ({value!r}): the power sums overflow")
        values.append(value)
    return MomentSequence(tuple(values), len(xs_t), len(ys_t))


def exp_transform(m) -> ExpCoefficients:
    """Exponential transform of a moment sequence.

    Solves the unit lower-triangular system k*a_k = m_k + sum_{j<k} m_j a_{k-j}
    by forward substitution; a_0 = 1.  The a_k are independent of K, so a
    longer moment sequence only appends coefficients.  ValueError names
    the first coefficient that overflows to a non-finite value.
    """
    values = m.values if isinstance(m, MomentSequence) else _as_float_tuple(m, "moments")
    K = len(values)
    a = [1.0] + [0.0] * K
    for k in range(1, K + 1):
        s = values[k - 1]
        for j in range(1, k):
            s += values[j - 1] * a[k - j]
        a[k] = s / k
    # float arithmetic carries an overflow on as inf or nan, so one check
    # after the loop finds the first non-finite coefficient
    if not all(map(math.isfinite, a)):
        k = next(k for k, v in enumerate(a) if not math.isfinite(v))
        raise ValueError(f"a_{k} is not finite ({a[k]!r}): the exponential transform overflows")
    return _unchecked(ExpCoefficients, values=tuple(a))
