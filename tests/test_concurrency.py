"""Every entry point is safe to call concurrently, on one object too.

A problem object keeps one decision record, which a call at another rank
tolerance replaces and any thread may complete with c'.  Threads that
share one object must each get the answer a cold call on a fresh copy
gives, bit for bit, and every error of the same class and message.
"""

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import momentkit as mk
from test_call_counts import M, M_EMPTY, M_PAIR, WORKED

PROBLEMS = {"M": M, "M_PAIR": M_PAIR, "M_EMPTY": M_EMPTY, "WORKED": WORKED}
LOOSE = mk.ToleranceSet(rank=1e-8)
CALLS = {
    "analyze": mk.analyze,
    "invert": lambda m, tol: mk.invert_min_degree(m, tol=tol, full_output=True),
    "next": lambda m, tol: mk.next_moment(m, tol=tol),
    "next_cbar": lambda m, tol: mk.next_moment(m, tol=tol, cbar=[0.5] * m.n_x),
    "extend": lambda m, tol: mk.extend_moments(m, 3, tol=tol),
    "markov": lambda m, tol: mk.markov_certificate(m, tol=tol),
}
ROUNDS = 25


def _outcome(call, m, tol):
    """repr of the result or of the error: repr of a float is its bits."""
    try:
        return repr(call(m, tol))
    except (mk.MomentProblemError, ValueError) as exc:
        return repr(exc)


def test_threads_sharing_one_problem_get_the_cold_answers():
    tols = (None, LOOSE)
    cold = {
        (name, call, tol): _outcome(CALLS[call], dataclasses.replace(problem), tol)
        for name, problem in PROBLEMS.items()
        for call in CALLS
        for tol in tols
    }
    # every thread shares these, undecided at the start
    shared = {name: dataclasses.replace(problem) for name, problem in PROBLEMS.items()}

    def worker(index):
        rng = random.Random(index)
        order = [(name, call) for name in shared for call in CALLS]
        seen = []
        for step in range(ROUNDS * len(order)):
            if step % len(order) == 0:
                rng.shuffle(order)
            name, call = order[step % len(order)]
            # thread 0 alternates the rank tolerance, so the record of
            # each object is replaced while the others read it
            tol = tols[step % 2] if index == 0 else None
            seen.append(((name, call, tol), _outcome(CALLS[call], shared[name], tol)))
        return seen

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(worker, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert sum(map(len, results)) == 4 * ROUNDS * len(PROBLEMS) * len(CALLS)
    for seen in results:
        for key, got in seen:
            assert got == cold[key], key
