"""Property tests of the paper's invariances on separated instances.

Each instance has n_x, n_y <= 3 branch values with |v| in [0.1, 3] and
every two values at least 0.2 apart.  The examples are derandomized, so
every run draws the same ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import analyze, forward_moments, invert_min_degree
from instances import multiset_distance

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def separated_instances(draw):
    """(xs, ys): each value is 0.1 + 0.4 j + u with a sign, for distinct
    (sign, j), j in 0..6 and u in [0, 0.2], so |v| lies in [0.1, 2.7] and
    two values differ by at least 0.2."""
    n_x = draw(st.integers(0, 3))
    n_y = draw(st.integers(0 if n_x else 1, 3))
    slots = draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.integers(0, 6)),
        min_size=n_x + n_y, max_size=n_x + n_y, unique=True,
    ))
    jitter = draw(st.lists(st.floats(0.0, 0.2), min_size=n_x + n_y, max_size=n_x + n_y))
    values = [sign * (0.1 + 0.4 * j + u) for (sign, j), u in zip(slots, jitter)]
    return values[:n_x], values[n_x:]


@PROPERTY_SETTINGS
@given(separated_instances())
def test_flipping_x_and_y_swaps_the_sides(instance):
    m = forward_moments(*instance)
    sol = invert_min_degree(m)
    flipped = invert_min_degree(m.negated())
    assert multiset_distance(flipped.xs, sol.ys) <= 1e-8
    assert multiset_distance(flipped.ys, sol.xs) <= 1e-8


@PROPERTY_SETTINGS
@given(separated_instances())
def test_full_rank_implies_a_solution_exists(instance):
    report = analyze(forward_moments(*instance))
    assert report.rank_A1 < len(instance[0]) or report.exists
