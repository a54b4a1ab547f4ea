"""Every entry point reproduces the outcomes recorded in
``data/golden_outcomes.json`` (see ``data/generate_golden.py``).

Discrete fields (existence, ranks, degree bounds, uniqueness, certificate
flags, exception class) must match exactly; floats must match within
1e-12 relative to the largest magnitude in their field.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import momentkit as mk

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("generate_golden", DATA / "generate_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = json.loads(golden.GOLDEN.read_text())
REL = 1e-12


def mismatch(got, want, path="", scale=None):
    """First difference between two JSON values as a path string, or None."""
    if isinstance(want, float) and type(got) is float:
        if got == want or (math.isnan(got) and math.isnan(want)):
            return None
        ok = abs(got - want) <= REL * (scale if scale is not None else max(abs(got), abs(want)))
        return None if ok else f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            found = mismatch(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        finite = [abs(v) for v in got + want if isinstance(v, float) and math.isfinite(v)]
        field_scale = max(finite, default=0.0)
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{path}[{i}]", field_scale)
            if found:
                return found
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def test_golden_set_covers_every_call_and_the_conditioning_limit():
    assert all(set(case["outcomes"]) == {name for name, _ in golden.CALLS} for case in CASES)
    labels = [case["label"] for case in CASES]
    assert sum(label.startswith("separated/n=8/") for label in labels) >= 10
    errors = {o["error"] for case in CASES for o in case["outcomes"].values() if isinstance(o, dict) and "error" in o}
    assert {"NoSolution", "NonRealSolution", "NoPositiveBranches"} <= errors


@pytest.mark.parametrize("case", CASES, ids=[case["label"] for case in CASES])
def test_outcomes_match_golden(case):
    m = mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])
    for name, call in golden.CALLS:
        found = mismatch(golden.outcome(call, m), case["outcomes"][name], name)
        assert found is None, found
