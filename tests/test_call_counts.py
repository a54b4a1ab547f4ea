"""Structural call counts of each entry point on one fixed instance.

Each side of a problem is factored once: one Hankel build and one
existence decision per side, shared by every entry point.  These are
counts, not times, so they hold on any machine.
"""

import sys

import numpy as np
import pytest

import momentkit as mk
from momentkit import structure

M = mk.forward_moments([0.3, 0.9, 1.5, 2.1, 2.7], [0.1, 0.6, 1.2, 1.8, 2.4], 10)


@pytest.fixture
def counts(monkeypatch):
    """Calls of numpy.linalg.{svd,lstsq,solve} and of build_hankel through
    every momentkit module that binds it."""
    tally = {"build_hankel": 0, "svd": 0, "lstsq": 0, "solve": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    original = structure.build_hankel
    wrapped = counting("build_hankel", original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "momentkit" and getattr(mod, "build_hankel", None) is original:
            monkeypatch.setattr(mod, "build_hankel", wrapped)
    return tally


@pytest.mark.parametrize("call, want", [
    (lambda: mk.analyze(M), {"build_hankel": 2, "svd": 12, "lstsq": 0, "solve": 2}),
    (lambda: mk.markov_certificate(M), {"build_hankel": 2, "svd": 5, "lstsq": 1, "solve": 2}),
    (lambda: mk.invert_min_degree(M, "companion"), {"build_hankel": 2, "svd": 4, "lstsq": 0, "solve": 2}),
    (lambda: mk.invert_min_degree(M, "geneig"), {"build_hankel": 2, "svd": 4, "lstsq": 0, "solve": 2}),
    (lambda: mk.next_moment(M), {"build_hankel": 1, "svd": 2, "lstsq": 1, "solve": 0}),
], ids=["analyze", "markov_certificate", "invert_companion", "invert_geneig", "next_moment"])
def test_call_counts(counts, call, want):
    call()
    assert counts == want
