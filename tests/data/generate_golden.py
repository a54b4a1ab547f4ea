"""Write ``golden_outcomes.json``: the outcome of every entry point on a
fixed-seed instance set, as recorded from the code it is run against,
with the branch values that generated each instance and the class of
each outcome against them.

    PYTHONPATH=src python tests/data/generate_golden.py [--check]

``tests/test_equivalence.py`` replays the stored moments and compares
each outcome with the recorded one, and fails when an outcome recorded
as right is no longer right.  Regenerate the file only for a change that
is meant to alter results, and say so in CHANGES.md.

An outcome is ``right`` when it agrees with the generating values within
the benchmark's bounds, ``error`` when the call reports that it cannot
answer (a domain error, or a report without a minimal solution), and
``wrong`` otherwise; ``null`` marks a call the truth does not decide.

``--check`` writes nothing: it prints every outcome whose class moved
(``label  call: wrong -> right``), every other change that is not
float-only as ``old -> new`` JSON (for a dict outcome, only the fields
that differ: ``d_min: 6 -> 7, d_max: 7 -> 8``), one line with the
largest float-only drift and one with the float-only count and largest
drift of each call (0 for a call with none); it exits 1 if anything
differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import momentkit as mk

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outcomes.json"

def markov_with_solution(m):
    """The certificate's flags, read off the eigenvalues that decided
    rank(A1), beside the minimal solution of the same object, as
    ``markov-check --verbose`` reports them."""
    cert = mk.markov_certificate(m)
    return {**dataclasses.asdict(cert), "minimal_solution": dataclasses.asdict(mk.invert_min_degree(m))}


CALLS = (
    ("analyze", mk.analyze),
    ("markov_certificate", markov_with_solution),
    ("invert_companion", lambda m: mk.invert_min_degree(m, "companion")),
    ("invert_geneig", lambda m: mk.invert_min_degree(m, "geneig")),
    ("next_moment", mk.next_moment),
    ("extend_moments", lambda m: mk.extend_moments(m, 3)),
)

# (moments, n_x, n_y, truth): the minimal solution, zero-padded, or the
# error every branch-valued call should report
WORKED = (
    ((3.0, 5.0), 2, 0, {"xs": [1.0, 2.0], "ys": []}),
    ((1.0, 1.0, 1.0), 2, 1, {"xs": [1.0, 0.0], "ys": [0.0]}),
    ((2.0, 6.0, 20.0, 66.0), 2, 2, {"xs": [1.0, 3.0], "ys": [2.0, 0.0]}),
    ((2.0,), 1, 0, {"xs": [2.0], "ys": []}),
    ((0.0, 1.0), 1, 1, {"error": "NoSolution"}),
    ((0.0, 0.0), 1, 1, {"xs": [0.0], "ys": [0.0]}),  # d_min = 0
    ((0.0, -2.0), 2, 0, {"error": "NonRealSolution"}),  # x = +-i
    ((-3.0, -5.0), 0, 2, {"xs": [], "ys": [1.0, 2.0]}),  # no x-side
)

# the benchmark's accuracy bounds (bench/workloads.py), which are the
# acceptance suite's: root and moment-space error 1e-6, next moment 1e-8
ROOT_TOL = 1e-6
MOMENT_TOL = 1e-6
NEXT_TOL = 1e-8


def outcome(call, m):
    """JSON-ready result of ``call(m)``, or the class name of the domain error it raised."""
    try:
        value = call(m)
    except mk.MomentProblemError as exc:
        return {"error": type(exc).__name__}
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    return json.loads(json.dumps(value))


def instances():
    """(label, moments, truth) triples: worked cases, unique,
    matched-pair, interlaced and separated instances, the last on [-3, 3]
    with gap 0.1 up to n = 8, near the Hankel conditioning limit."""
    sys.path.insert(0, str(HERE.parent))
    import instances as gen

    def branches(xs, ys):
        return mk.forward_moments(xs, ys), {"xs": list(xs), "ys": list(ys)}

    out = [(f"worked/{i}", mk.MomentSequence(*w[:3]), w[3]) for i, w in enumerate(WORKED)]
    rng = np.random.default_rng(1)
    for i in range(30):
        xs, ys, m = gen.random_solvable_instance(rng)
        out.append((f"unique/{i}", m, {"xs": xs, "ys": ys}))
    rng = np.random.default_rng(2)
    for i in range(15):
        # the pair (t, t) leaves one zero pad per side in the minimal solution
        xs, ys, _, _, m_ext = gen.matched_pair_extension(rng)
        out.append((f"matched/{i}", m_ext, {"xs": xs + [0.0], "ys": ys + [0.0]}))
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for i in range(3):
            out.append((f"interlaced/n={n}/{i}", *branches(*gen.interlaced_branches(rng, n=n))))
            out.append((f"anti/n={n}/{i}", *branches(*gen.anti_interlaced_branches(rng, n=n))))
    rng = np.random.default_rng(4)
    for n, count in ((1, 6), (2, 6), (3, 6), (5, 12), (8, 12)):
        for i in range(count):
            values = gen.separated_values(rng, 2 * n, -3.0, 3.0, gap=0.1)
            out.append((f"separated/n={n}/{i}", *branches(values[:n], values[n:])))
    return out


def power_sums(xs, ys, count):
    """m_1..m_count = sum x^k - sum y^k, each sum correctly rounded."""
    return [math.fsum([v**k for v in xs] + [-(v**k) for v in ys]) for k in range(1, count + 1)]


def relative_gap(got, want):
    """max |got - want| over max(1, max |want|); inf for a length mismatch
    or a NaN on either side."""
    gaps = [abs(g - w) for g, w in zip(got, want)]
    if len(got) != len(want) or any(math.isnan(v) for v in gaps):
        return math.inf
    scale = max([1.0] + [abs(w) for w in want])
    return max(gaps, default=0.0) / scale


def branches_right(sol, truth, moments):
    """Sorted branch values within ROOT_TOL of the truth, relative to its
    largest magnitude, and their moments within MOMENT_TOL of the data."""
    if len(sol["xs"]) != len(truth["xs"]) or len(sol["ys"]) != len(truth["ys"]):
        return False
    got = sorted(sol["xs"]) + sorted(sol["ys"])
    want = sorted(truth["xs"]) + sorted(truth["ys"])
    back = power_sums(sol["xs"], sol["ys"], len(moments))
    return relative_gap(got, want) <= ROOT_TOL and relative_gap(back, moments) <= MOMENT_TOL


def expected_report(truth):
    """(exists, rank_A1, d_min, d_max, unique) of a minimal solution: the
    family appends one matched pair per zero pad on the scarcer side."""
    xs, ys = truth["xs"], truth["ys"]
    d_min = sum(v != 0.0 for v in xs)
    d_max = d_min + min(xs.count(0.0), ys.count(0.0))
    return (True, len(xs) - (d_max - d_min), d_min, d_max, d_max == d_min)


def markov_flags(truth):
    """(spd, interlaced, extended_singular, weights_positive), known when
    both sides hold n >= 1 values and all 2n are distinct: spd and
    positive weights are then the sign of every exact weight, and the
    extended matrix of solvable data is singular.  A certificate is right
    only when its minimal solution is too: flags computed from wrong
    branch values can match by chance."""
    xs, ys = truth["xs"], truth["ys"]
    if not xs or len(xs) != len(ys) or len(set(xs + ys)) != 2 * len(xs):
        return None
    fx, fy = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    positive = all(
        math.prod(x - y for y in fy) / math.prod(x - u for u in fx if u != x) > 0 for x in fx
    )
    sx, sy = sorted(xs), sorted(ys)
    interlaced = all(sy[i] < sx[i] for i in range(len(sx))) and all(
        sx[i] < sy[i + 1] for i in range(len(sx) - 1)
    )
    return (positive, interlaced, True, positive)


def classify(name, value, case):
    """Class of the outcome ``value`` of call ``name`` on ``case``:
    "right", "error", "wrong", or None where the truth does not decide."""
    truth, moments = case["truth"], case["moments"]
    raised = isinstance(value, dict) and "error" in value
    if "error" in truth:
        if name == "analyze":
            ok = value["minimal_solution"] is None and value["exists"] == (truth["error"] != "NoSolution")
            return "right" if ok else "wrong"
        if name in ("next_moment", "extend_moments"):
            return None
        if raised:
            return "right" if value["error"] == truth["error"] else "error"
        return "wrong"
    if name == "markov_certificate":
        flags = markov_flags(truth)
        if flags is None:
            return None
    if raised:
        return "error"
    if name == "analyze":
        got = tuple(value[k] for k in ("exists", "rank_A1", "d_min", "d_max", "unique"))
        if got != expected_report(truth):
            return "wrong"
        if value["minimal_solution"] is None:
            return "error"
        ok = branches_right(value["minimal_solution"], truth, moments)
    elif name == "markov_certificate":
        got = tuple(value[k] for k in ("spd", "interlaced", "extended_singular", "weights_positive"))
        ok = got == flags and branches_right(value["minimal_solution"], truth, moments)
    elif name == "next_moment":
        want = power_sums(truth["xs"], truth["ys"], len(moments) + 1)[-1]
        ok = abs(value - want) <= NEXT_TOL * max(1.0, abs(want))
    elif name == "extend_moments":
        ok = relative_gap(value, power_sums(truth["xs"], truth["ys"], len(value))) <= MOMENT_TOL
    else:
        ok = branches_right(value, truth, moments)
    return "right" if ok else "wrong"


def cases():
    """The records of the golden file, from the code this is run against."""
    out = []
    for label, m, truth in instances():
        case = {"label": label, "moments": list(m.values), "n_x": m.n_x, "n_y": m.n_y, "truth": truth}
        case["outcomes"] = {name: outcome(call, m) for name, call in CALLS}
        case["classes"] = {name: classify(name, value, case) for name, value in case["outcomes"].items()}
        out.append(case)
    return out


def float_drift(old, new, scale=None):
    """Largest float difference between two JSON values of the same shape,
    relative to the largest magnitude in its field, or None when they
    differ in anything but floats.  A non-finite value that differs from
    its counterpart drifts by inf, so no NaN reaches the maximum."""
    if isinstance(old, float) and type(new) is float:
        if old == new or (math.isnan(old) and math.isnan(new)):
            return 0.0
        if not (math.isfinite(old) and math.isfinite(new)):
            return math.inf
        ref = scale if scale is not None else max(abs(old), abs(new))
        return abs(old - new) / ref if ref else math.inf
    if type(old) is not type(new):
        return None
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return None
        parts = [float_drift(old[k], new[k]) for k in old]
    elif isinstance(old, list):
        if len(old) != len(new):
            return None
        finite = [abs(v) for v in old + new if isinstance(v, float) and math.isfinite(v)]
        parts = [float_drift(o, n, max(finite, default=0.0)) for o, n in zip(old, new)]
    else:
        return 0.0 if old == new else None
    return None if None in parts else max(parts, default=0.0)


def differences(old, new):
    """(label, field, old, new) for every input or outcome that differs,
    compared as the JSON text the file would hold."""
    stored = {case["label"]: case for case in old}
    out = []
    for case in new:
        was = stored.pop(case["label"], {})
        for key in ("moments", "n_x", "n_y", "truth"):
            if json.dumps(was.get(key)) != json.dumps(case[key]):
                out.append((case["label"], key, was.get(key), case[key]))
        for name, value in case["outcomes"].items():
            before = was.get("outcomes", {}).get(name)
            if json.dumps(before) != json.dumps(value):
                out.append((case["label"], name, before, value))
    out += [(label, "instance", "present", None) for label in stored]
    return out


def field_changes(before, after):
    """``old -> new`` as JSON text; for two dicts with the same keys, one
    ``key: old -> new`` item per field that differs, or ``key: drift x``
    for a field that differs only in floats."""
    if not (isinstance(before, dict) and isinstance(after, dict) and before.keys() == after.keys()):
        return f"{json.dumps(before)} -> {json.dumps(after)}"
    parts = []
    for key in before:
        was, now = json.dumps(before[key]), json.dumps(after[key])
        if was != now:
            drift = float_drift(before[key], after[key])
            parts.append(f"{key}: {was} -> {now}" if drift is None else f"{key}: drift {drift:.3g}")
    return ", ".join(parts)


def report(old, new):
    """Lines describing ``differences(old, new)``: class moves, other
    changes beyond floats, and the largest float-only drift."""
    old_classes = {case["label"]: case.get("classes", {}) for case in old}
    new_classes = {case["label"]: case["classes"] for case in new}
    lines, drifts = [], []
    found = differences(old, new)
    for label, name, before, after in found:
        was = old_classes.get(label, {}).get(name)
        now = new_classes.get(label, {}).get(name)
        drift = float_drift(before, after)
        if was != now:
            lines.append(f"{label}  {name}: {was} -> {now}")
        elif drift is None:
            lines.append(f"{label}  {name}: {field_changes(before, after)}")
        else:
            drifts.append((drift, now, label, name))
    if drifts:
        largest = {}
        for drift, now, label, name in sorted(drifts, key=lambda row: row[0]):
            largest[now] = f"{now} {drift:.3g} ({label}  {name})"
        lines.append(f"{len(drifts)} float-only changes; largest relative drift by class: " + ", ".join(largest.values()))
        per_call = []
        for name, _ in CALLS:
            mine = [drift for drift, _, _, call in drifts if call == name]
            per_call.append(f"{name} {len(mine)} (max {max(mine):.3g})" if mine else f"{name} 0")
        lines.append("float-only changes per call: " + ", ".join(per_call))
    lines.append(f"{len(found)} differences in {len(new)} instances x {len(CALLS)} calls")
    return found, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed file; write nothing")
    args = parser.parse_args(argv)
    new = cases()
    if args.check:
        found, lines = report(json.loads(GOLDEN.read_text()), new)
        print("\n".join(lines))
        return 1 if found else 0
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in new) + "\n]\n")
    print(f"wrote {len(new)} instances x {len(CALLS)} calls to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
