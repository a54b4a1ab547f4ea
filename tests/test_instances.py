import numpy as np
import pytest

from instances import separated_values


def test_separated_values_refuses_counts_that_cannot_fit():
    with pytest.raises(ValueError, match="do not fit"):
        separated_values(np.random.default_rng(0), 25, gap=0.3)  # 24 * 0.3 > 6


def test_separated_values_stops_when_rejection_jams():
    # 19 * 0.3 < 6, but the first values drawn leave no room for all 20
    with pytest.raises(ValueError, match="draws"):
        separated_values(np.random.default_rng(0), 20, gap=0.3)
