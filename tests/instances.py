"""Random problem instance generators shared by the test modules.

All generators take a numpy Generator so suites stay reproducible.
Branch values are kept pairwise separated (and away from zero where
noted) so the generated instances are unambiguously nondegenerate; the
degenerate suites then degrade them on purpose.
"""

import numpy as np

from momentkit import MomentSequence, forward_moments


# bound on the rejection draws of one separated_values call; the suite's
# configurations place their values within a few dozen draws
MAX_DRAWS = 10_000


def separated_values(rng, count, lo=-3.0, hi=3.0, gap=0.2, min_abs=0.1):
    """``count`` values in [lo, hi], pairwise >= gap apart, |v| >= min_abs.

    Values are drawn one at a time and rejected when too close to an
    earlier one.  Raises ValueError when they cannot fit,
    (count - 1) * gap > hi - lo, or when MAX_DRAWS draws do not place them
    all: the earlier values can leave no room although the count would fit.
    """
    if (count - 1) * gap > hi - lo:
        raise ValueError(f"{count} values with gap {gap} do not fit in [{lo}, {hi}]")
    values = []
    draws = 0
    while len(values) < count:
        if draws == MAX_DRAWS:
            raise ValueError(f"placed {len(values)} of {count} values with gap {gap} in {MAX_DRAWS} draws")
        draws += 1
        v = float(rng.uniform(lo, hi))
        if abs(v) < min_abs:
            continue
        if all(abs(v - u) >= gap for u in values):
            values.append(v)
    return values


def random_solvable_instance(rng, n_max=5, lo=-3.0, hi=3.0, gap=0.2, min_abs=0.1):
    """Distinct well-separated branches and their moments (unique instance)."""
    n_x = int(rng.integers(1, n_max + 1))
    n_y = int(rng.integers(1, n_max + 1))
    values = separated_values(rng, n_x + n_y, lo, hi, gap, min_abs)
    xs, ys = values[:n_x], values[n_x:]
    return xs, ys, forward_moments(xs, ys)


def matched_pair_extension(rng, n_max=4, lo=-2.0, hi=2.0, gap=0.2, min_abs=0.1):
    """A unique instance plus the degenerate one with a pair (t, t) appended.

    Returns (xs, ys, m, t, m_extended); the extended instance has K + 2
    moments and a rank-deficient Hankel block.
    """
    n_x = int(rng.integers(1, n_max + 1))
    n_y = int(rng.integers(1, n_max + 1))
    values = separated_values(rng, n_x + n_y + 1, lo, hi, gap, min_abs)
    xs, ys, t = values[:n_x], values[n_x : n_x + n_y], values[-1]
    m = forward_moments(xs, ys)
    m_ext = forward_moments(xs + [t], ys + [t])
    return xs, ys, m, t, m_ext


def interlaced_branches(rng, n_max=5, lo=-1.6, hi=1.6, gap=0.2, slack=0.12, n=None):
    """Branch sets with y_1 < x_1 < y_2 < ... < y_n < x_n, gaps >= gap."""
    if n is None:
        n = int(rng.integers(1, n_max + 1))
    gaps = rng.uniform(gap, gap + slack, size=2 * n - 1)
    start = float(rng.uniform(lo, hi - float(np.sum(gaps))))
    points = start + np.concatenate([[0.0], np.cumsum(gaps)])
    ys = [float(v) for v in points[0::2]]
    xs = [float(v) for v in points[1::2]]
    return xs, ys


def anti_interlaced_branches(rng, n_max=5, lo=-1.6, hi=1.6, gap=0.2, slack=0.12, n=None):
    """x_1 < y_1 < x_2 < ...: the sign pattern of the weights flips."""
    ys, xs = interlaced_branches(rng, n_max, lo, hi, gap, slack, n)
    return xs, ys


def nonneg_interlaced_branches(rng, n_max=5, gap=0.2, slack=0.12, n=None):
    """Interlaced branches with 0 <= y_1, where the step density carries
    the moments exactly."""
    return interlaced_branches(rng, n_max, lo=0.05, hi=2.6, gap=gap, slack=slack, n=n)


def moment_space_error(m: MomentSequence, sol) -> float:
    """Scale-aware relative error between m and the moments of sol."""
    back = forward_moments(sol.xs, sol.ys)
    diff = max(abs(a - b) for a, b in zip(m.values, back.values))
    scale = max(1.0, max(abs(v) for v in m.values))
    return diff / scale


def multiset_distance(a, b) -> float:
    """Max elementwise gap after sorting; inf for length mismatch."""
    if len(a) != len(b):
        return float("inf")
    if not a:
        return 0.0
    return max(abs(x - y) for x, y in zip(sorted(a), sorted(b)))
