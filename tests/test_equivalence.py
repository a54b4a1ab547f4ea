"""Every entry point reproduces the outcomes recorded in
``data/golden_outcomes.json`` (see ``data/generate_golden.py``).

Discrete fields (existence, ranks, degree bounds, uniqueness, certificate
flags, exception class) must match exactly; floats must match within
1e-12 relative to the largest magnitude in their field.

Each outcome is also classified against the branch values that generated
its instance (``golden.classify``), and no outcome recorded as right may
become anything else, whether or not the file is regenerated.
"""

import dataclasses
import importlib.util
import json
import math
import pickle
from pathlib import Path

import pytest

import momentkit as mk

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("generate_golden", DATA / "generate_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CASES = json.loads(golden.GOLDEN.read_text())
REL = 1e-12
NAN, INF = float("nan"), float("inf")


def test_golden_set_covers_every_call_and_the_conditioning_limit():
    assert all(set(case["outcomes"]) == {name for name, _ in golden.CALLS} for case in CASES)
    labels = [case["label"] for case in CASES]
    assert sum(label.startswith("separated/n=8/") for label in labels) >= 10
    errors = {o["error"] for case in CASES for o in case["outcomes"].values() if isinstance(o, dict) and "error" in o}
    assert {"NoSolution", "NonRealSolution", "NoPositiveBranches"} <= errors


def test_recorded_classes_follow_from_the_recorded_outcomes():
    for case in CASES:
        assert case["truth"], case["label"]
        for name, value in case["outcomes"].items():
            assert case["classes"][name] == golden.classify(name, value, case), (case["label"], name)


def test_a_nan_never_passes_for_a_number():
    # max() skips a NaN that is not first, so each comparison must turn it into inf
    for got, want in (([1.0, NAN], [1.0, 2.0]), ([1.0, 2.0], [1.0, NAN]), ([NAN, 2.0], [1.0, 2.0])):
        assert golden.float_drift(want, got) == math.inf
        assert golden.float_drift({"xs": want}, {"xs": got}) == math.inf
        assert golden.relative_gap(got, want) == math.inf
    assert golden.float_drift([1.0, INF], [1.0, 2.0]) == math.inf
    assert golden.float_drift([1.0, NAN], [1.0, NAN]) == 0.0
    sol = {"xs": [1.0, NAN], "ys": []}
    assert not golden.branches_right(sol, {"xs": [1.0, 2.0], "ys": []}, [3.0, 5.0])


def test_check_names_only_the_fields_that_differ():
    before = {"d_min": 6, "d_max": 7, "minimal_solution": {"xs": [1.0]}, "tol_rank": 1e-9}
    after = {"d_min": 7, "d_max": 8, "minimal_solution": {"xs": [1.0 + 2.0**-52]}, "tol_rank": 1e-9}
    assert golden.field_changes(before, after) == "d_min: 6 -> 7, d_max: 7 -> 8, minimal_solution: drift 2.22e-16"
    assert golden.field_changes({"error": "NoSolution"}, 1.0) == '{"error": "NoSolution"} -> 1.0'


@pytest.mark.parametrize("case", CASES, ids=[case["label"] for case in CASES])
def test_no_outcome_moves_away_from_right(case):
    m = mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])
    for name, call in golden.CALLS:
        if case["classes"][name] == "right":
            assert golden.classify(name, golden.outcome(call, m), case) == "right", name


@pytest.mark.parametrize("case", CASES, ids=[case["label"] for case in CASES])
def test_outcomes_match_golden(case):
    m = mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])
    for name, call in golden.CALLS:
        got, want = golden.outcome(call, m), case["outcomes"][name]
        drift = golden.float_drift(want, got)
        assert drift is not None and drift <= REL, f"{name}: {got!r} != {want!r}"


def test_report_degrees_agree_with_the_minimal_solution():
    # d_min is deg p of the attached minimal solution, and p has at most rank_A1 roots
    broken = []
    for case in CASES:
        m = mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])
        report = mk.analyze(m)
        sol = report.minimal_solution
        if not (0 <= report.d_min <= report.rank_A1 and report.d_max <= m.n_x) or (
            sol is not None and sol.degree != report.d_min
        ):
            broken.append(case["label"])
    assert broken == []


LOOSE = mk.ToleranceSet(rank=1e-8)
# golden.CALLS at a looser rank tolerance, interleaved with them on one object
LOOSE_CALLS = (
    ("analyze", lambda m: mk.analyze(m, LOOSE)),
    ("markov_certificate", lambda m: (mk.markov_certificate(m, LOOSE), mk.invert_min_degree(m, tol=LOOSE))),
    ("invert_companion", lambda m: mk.invert_min_degree(m, "companion", LOOSE)),
    ("invert_geneig", lambda m: mk.invert_min_degree(m, "geneig", LOOSE)),
    ("next_moment", lambda m: mk.next_moment(m, LOOSE)),
    ("extend_moments", lambda m: mk.extend_moments(m, 3, LOOSE)),
)


def _replay(call, m):
    """repr of ``call(m)``, or of the error it raises, class and message."""
    try:
        return repr(call(m))
    except (mk.MomentProblemError, ValueError) as exc:
        return repr(exc)


def test_warm_calls_equal_cold_calls_bit_for_bit():
    # a problem object keeps its decided system: each call made after
    # every other call on one object must give what it gives on a fresh
    # one.  Each tolerance's calls run as a block, which reuses one
    # system, then alternate with the other's, which decides it anew
    assert [name for name, _ in LOOSE_CALLS] == [name for name, _ in golden.CALLS]
    default, loose = [call for _, call in golden.CALLS], [call for _, call in LOOSE_CALLS]
    calls = default + loose + [call for pair in zip(default, loose) for call in pair]
    for case in CASES:
        def fresh():
            return mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])

        cold = {call: _replay(call, fresh()) for call in calls}
        for order in (calls, calls[::-1]):
            m = fresh()
            warm = [_replay(call, m) for call in order]
            assert warm == [cold[call] for call in order], case["label"]


def assert_same_record(got):
    """``got`` is the object its class builds from its fields: equal, with
    the same hash, repr and pickle, and the same after a round trip
    through pickle and through ``dataclasses.replace``."""
    want = type(got)(**{f.name: getattr(got, f.name) for f in dataclasses.fields(got)})
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert pickle.dumps(got) == pickle.dumps(want)
    assert pickle.loads(pickle.dumps(got)) == want
    assert dataclasses.replace(got) == want


@pytest.mark.parametrize("case", CASES, ids=[case["label"] for case in CASES])
def test_unchecked_results_are_what_the_checked_constructors_make(case):
    # exp_transform, the minimal solution, analyze's report and the Markov
    # certificate skip the constructors; each must be, bit for bit and
    # degree included, what the constructor makes of the same values
    m = mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])
    report = mk.analyze(m)
    records = [mk.exp_transform(m), report, report.minimal_solution]
    for call in (mk.invert_min_degree, mk.markov_certificate):
        try:
            records.append(call(m))
        except (mk.MomentProblemError, ValueError):
            pass
    for record in filter(None, records):
        assert_same_record(record)
