"""Write ``golden_outcomes.json``: the outcome of every entry point on a
fixed-seed instance set, as recorded from the code it is run against.

    PYTHONPATH=src python tests/data/generate_golden.py [--check]

``tests/test_equivalence.py`` replays the stored moments and compares
each outcome with the recorded one.  Regenerate the file only for a
change that is meant to alter results, and say so in CHANGES.md.

``--check`` writes nothing: it prints every (label, call, old -> new)
that differs from the committed file and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

import momentkit as mk

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outcomes.json"

CALLS = (
    ("analyze", mk.analyze),
    ("markov_certificate", mk.markov_certificate),
    ("invert_companion", lambda m: mk.invert_min_degree(m, "companion")),
    ("invert_geneig", lambda m: mk.invert_min_degree(m, "geneig")),
    ("next_moment", mk.next_moment),
    ("extend_moments", lambda m: mk.extend_moments(m, 3)),
)

WORKED = (
    ((3.0, 5.0), 2, 0),
    ((1.0, 1.0, 1.0), 2, 1),
    ((2.0, 6.0, 20.0, 66.0), 2, 2),
    ((2.0,), 1, 0),
    ((0.0, 1.0), 1, 1),  # unsolvable
    ((0.0, 0.0), 1, 1),  # zero moments: d_min = 0
    ((0.0, -2.0), 2, 0),  # complex roots
    ((-3.0, -5.0), 0, 2),  # no x-side
)


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
    """(label, moments) pairs: worked cases, unique, matched-pair,
    interlaced and separated instances, the last on [-3, 3] with gap 0.1
    up to n = 8, near the Hankel conditioning limit."""
    sys.path.insert(0, str(HERE.parent))
    import instances as gen

    out = [(f"worked/{i}", mk.MomentSequence(*w)) for i, w in enumerate(WORKED)]
    rng = np.random.default_rng(1)
    out += [(f"unique/{i}", gen.random_solvable_instance(rng)[2]) for i in range(30)]
    rng = np.random.default_rng(2)
    out += [(f"matched/{i}", gen.matched_pair_extension(rng)[4]) for i in range(15)]
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        for i in range(3):
            out.append((f"interlaced/n={n}/{i}", gen.moments_of(*gen.interlaced_branches(rng, n=n))))
            out.append((f"anti/n={n}/{i}", gen.moments_of(*gen.anti_interlaced_branches(rng, n=n))))
    rng = np.random.default_rng(4)
    for n, count in ((1, 6), (2, 6), (3, 6), (5, 12), (8, 12)):
        for i in range(count):
            values = gen.separated_values(rng, 2 * n, -3.0, 3.0, gap=0.1)
            out.append((f"separated/n={n}/{i}", gen.moments_of(values[:n], values[n:])))
    return out


def cases():
    """The records of the golden file, from the code this is run against."""
    return [
        {
            "label": label,
            "moments": list(m.values),
            "n_x": m.n_x,
            "n_y": m.n_y,
            "outcomes": {name: outcome(call, m) for name, call in CALLS},
        }
        for label, m in instances()
    ]


def differences(old, new):
    """(label, field, old, new) for every input or outcome that differs,
    compared as the JSON text the file would hold."""
    stored = {case["label"]: case for case in old}
    out = []
    for case in new:
        was = stored.pop(case["label"], {})
        for key in ("moments", "n_x", "n_y"):
            if json.dumps(was.get(key)) != json.dumps(case[key]):
                out.append((case["label"], key, was.get(key), case[key]))
        for name, value in case["outcomes"].items():
            before = was.get("outcomes", {}).get(name)
            if json.dumps(before) != json.dumps(value):
                out.append((case["label"], name, before, value))
    out += [(label, "instance", "present", None) for label in stored]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed file; write nothing")
    args = parser.parse_args(argv)
    new = cases()
    if args.check:
        found = differences(json.loads(GOLDEN.read_text()), new)
        for label, name, before, after in found:
            print(f"{label}  {name}: {json.dumps(before)} -> {json.dumps(after)}")
        print(f"{len(found)} differences in {len(new)} instances x {len(CALLS)} calls")
        return 1 if found else 0
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(c) for c in new) + "\n]\n")
    print(f"wrote {len(new)} instances x {len(CALLS)} calls to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
