"""Smoke test of the benchmark itself; it asserts on no timing.

    python -m pytest bench/smoke.py

The file name does not match ``test_*.py``, so a plain ``pytest`` run of
the repository does not collect it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy.linalg
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from momentkit.transform import BranchSolution  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_of_each_label(ops):
    first = {}
    for op in ops:
        first.setdefault(op.label, op)
    return list(first.values())


def small_build(name):
    """Passes of the workload cut to the first op of each label."""
    return lambda pass_no: first_of_each_label(workloads.WORKLOADS[name](0, pass_no))


def small_limit(name):
    """The workload's limit set cut to the first op of each label."""
    return first_of_each_label(workloads.LIMIT_SETS[name](0)) if name in workloads.LIMIT_SETS else []


@pytest.fixture(autouse=True)
def one_spawn(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "IMPORT_REPEATS", 1)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted(name, trace, key):
    result, _, _ = harness.run(name, 0, 0.0, trace, build=small_build(name), limit_ops=small_limit(name))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def _shifted(op):
    def call():
        sol = op.call()
        return BranchSolution(tuple(v + 1e-3 for v in sol.xs), sol.ys)

    return dataclasses.replace(op, call=call)


def test_wrong_result_counts_as_failed_and_no_pass_repeats():
    passes = []

    def build(pass_no):
        passes.append(pass_no)
        ops = workloads.grid_invert(0, pass_no)[:2]
        return [_shifted(ops[0]), ops[1]]

    result, tally, _ = harness.run("grid_invert", 0, 0.0, False, build=build)
    assert len(passes) >= 2 and len(set(passes)) == len(passes)
    assert tally.verdicts == {"wrong_answer": len(passes), "ok": len(passes)}
    assert (result["attempted"], result["failed"], result["correct"]) == (2 * len(passes), len(passes), False)


def _raising(op, exc):
    def call():
        raise exc

    return dataclasses.replace(op, call=call)


@pytest.mark.parametrize("strict, exc, verdict, incorrect", [
    (True, workloads.inversion.NoSolution("injected"), "NoSolution", True),
    (False, workloads.inversion.NoSolution("injected"), "NoSolution", False),
    (False, ValueError("injected"), "other", True),
])
def test_failures_are_counted_by_class(strict, exc, verdict, incorrect):
    op = workloads.grid_invert(0, 0)[0]
    tally = harness.Tally(strict)
    tally.add([op, _shifted(op)], [harness.outcome(_raising(op, exc).call), harness.outcome(_shifted(op).call)])
    assert tally.verdicts == {verdict: 1, "wrong_answer": 1}
    assert tally.shares()[f"errors.{verdict}.share"] == 0.5
    assert tally.incorrect is incorrect


def test_limit_set_failures_are_reported_not_counted():
    ops = workloads.grid_invert(0, 0)[:2]
    limit_ops = [_shifted(ops[0]), ops[0], _raising(ops[0], workloads.inversion.NoSolution("injected")), ops[0]]
    result, tally, limit = harness.run("grid_invert", 0, 0.0, False, build=lambda _: ops, limit_ops=limit_ops)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == tally.attempted()
    assert result["metrics"]["limit_ok_share"]["value"] == 0.5
    assert limit.verdicts == {"ok": 2, "wrong_answer": 1, "NoSolution": 1}
    limit_ops.append(_raising(ops[0], ValueError("injected")))
    result, _, _ = harness.run("grid_invert", 0, 0.0, False, build=lambda _: ops, limit_ops=limit_ops)
    assert result["correct"] is False


def test_reference_is_not_traced():
    reference = harness.Reference()
    with tracing.Tracer() as tracer:
        reference.step_ns()
    assert not any(calls for calls, _ in tracer.layer_totals().values())


def test_generator_refuses_infeasible_configurations():
    rng = workloads.np.random.default_rng(0)
    values = workloads.separated_values(rng, 20, -3.0, 3.0, 0.3, 0.1)  # hung the rejection loop in tests/instances.py
    assert min(abs(a - b) for i, a in enumerate(values) for b in values[:i]) >= 0.3 - 1e-12
    with pytest.raises(ValueError):
        workloads.separated_values(rng, 25, -3.0, 3.0, 0.3, 0.1)
    with pytest.raises(ValueError):
        workloads.separated_values(rng, 2, -0.05, 0.05, 0.01, 0.1)  # |v| >= 0.1 impossible


def _profiled_counts(fn):
    """Calls of each traced function counted by the interpreter's profiler,
    independently of the tracer's wrappers."""
    codes = {}
    for mod, name in tracing.LAYER_FUNCTIONS:
        codes[getattr(sys.modules[mod], name).__code__] = f"{mod.rsplit('.', 1)[1]}.{name}"
    for name in tracing.LINALG_FUNCTIONS:
        codes[inspect.unwrap(getattr(numpy.linalg, name)).__code__] = f"linalg.{name}"
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_wrappers_see_every_call(name):
    ops = small_build(name)(0)

    def every_op():
        for op in ops:
            harness.outcome(op.call)

    want = _profiled_counts(every_op)
    originals = [getattr(numpy.linalg, n) for n in tracing.LINALG_FUNCTIONS]
    with tracing.Tracer() as tracer:
        every_op()
    got = {span: calls for span, (calls, _) in tracer.layer_totals().items() if calls}
    assert got == dict(want)
    assert [getattr(numpy.linalg, n) for n in tracing.LINALG_FUNCTIONS] == originals


def test_self_time_excludes_children(monkeypatch):
    ticks = iter([0, 10, 40, 50, 60, 100])
    monkeypatch.setattr(tracing, "perf_counter_ns", lambda: next(ticks))
    tracer = tracing.Tracer()
    inner = tracer._wrap("linalg.svd", lambda: None)
    outer = tracer._wrap("structure.analyze", lambda: (inner(), inner()))
    outer()
    totals = tracer.layer_totals()
    assert totals["structure.analyze"] == (1, 60)
    assert totals["linalg.svd"] == (2, 40)
