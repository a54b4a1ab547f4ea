"""The accuracy floor of the benchmark's limit set, cell by cell.

``bench/workloads.separated_limit(seed)`` builds 128 separated instances
at each of n = 5, 8 and 10, with an ``analyze``, an ``extend_moments``
and a ``markov_certificate`` call on each, and ``bench/harness.judge``
gives every call the benchmark's own verdict.
``tests/data/limit_floor.json`` holds, per seed 0-2, call and n, the
least count of right answers and the most silent wrong answers
(``wrong_answer``, a result returned without an error that fails its
check).  A change that loses a right answer or adds a silent wrong one
fails here; a change that wins answers raises its cells of the floor
with it.  The benchmark reports the same verdicts pooled as
``limit_ok_share``.
"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import workloads  # noqa: E402

FLOOR = json.loads((ROOT / "tests" / "data" / "limit_floor.json").read_text())["floor"]


@pytest.mark.parametrize("seed", sorted(FLOOR))
def test_limit_set_keeps_its_floor(seed):
    right, wrong = Counter(), Counter()
    for op in workloads.separated_limit(int(seed)):
        call, _, n = op.label.split("/")  # e.g. "analyze/separated/n=8"
        verdict, _ = harness.judge(op, harness.outcome(op.call))
        cell = (call, n.removeprefix("n="))
        right[cell] += verdict == "ok"
        wrong[cell] += verdict == "wrong_answer"
    floor = {(call, n): cell for call, by_n in FLOOR[seed].items() for n, cell in by_n.items()}
    assert set(right) == set(floor)
    below = {cell: (right[cell], wrong[cell]) for cell, (least, most) in floor.items() if right[cell] < least or wrong[cell] > most}
    assert below == {}, f"seed {seed}: cells below the floor [right, silent wrong] (floor in tests/data/limit_floor.json)"
