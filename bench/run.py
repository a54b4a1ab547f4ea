"""Run one benchmark workload in this process and print its result.

    python3 bench/run.py --workload grid_invert --seed 0 --seconds 10 --trace 0

Inputs come from ``--seed`` only.  With ``--trace 0`` the last line of
standard output is the end-to-end result, with ``--trace 1`` the
per-layer one; both are one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS is pinned to one thread
(``BLAS_PIN``, set before numpy loads and inherited by every child
process) so results, and with them the accuracy figures, repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("grid_invert", "analyze_sweep", "cli_requests")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "momentkit" / "__init__.py").is_file():
        print(f"bench: no momentkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(BLAS_PIN)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    result, tally, limit = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for kind, t in (("failed", tally), ("limit", limit)):
        for (label, verdict), count in sorted(t.failures.items()):
            print(f"{kind:7s} {label:32s} {verdict:24s} {count}")
    for key, m in result["metrics"].items():
        print(f"{key:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
