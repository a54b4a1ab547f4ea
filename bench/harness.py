"""One benchmark run: repeated passes, each over a new set of instances.

Every pass builds its ops from (seed, pass number) outside any timed
region, times each call, and then checks every result (``workloads``)
outside the timed region too.  No input is repeated within a run, so a
cache across calls cannot count as a gain.  The first pass warms up the
process; its results are checked but its times are dropped.
``attempted`` and ``failed`` count every call of every pass; any failed
call makes the run incorrect.

A workload's limit set (``workloads.LIMIT_SETS``), instances at the
conditioning limit where the program fails today, is checked once per
run, untimed, after the warm-up pass.  Its share of right answers is the
end-to-end metric ``limit_ok_share``; its calls are not in ``attempted``
or ``failed``.

The timed run (``trace=False``) makes passes for ``seconds`` and
reports their host-normalised rate and latency percentiles
(``Timing``).  Set-up children are started between passes.  The traced
run (``trace=True``) counts the spans of the first pass, which depends
on the seed only, then alternates untraced and traced passes for
``seconds`` and reports per-layer self times (``tracing``).
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from collections import Counter
from statistics import median
from time import perf_counter, perf_counter_ns

import numpy as np

import tracing
import workloads

# exception classes of momentkit.errors; anything else counts as "other"
ERROR_CLASSES = (
    "NoSolution",
    "NonRealSolution",
    "SingularReducedSystem",
    "NoPositiveBranches",
    "FamilyOverflow",
    "RepeatedRoots",
    "RankDeficientSignal",
    "IllConditionedNodes",
)
VERDICTS = ERROR_CLASSES + ("other", "wrong_answer")

SETUP_REPEATS = 9
IMPORT_REPEATS = 5
REF_STEPS = 200
# root digits are -log10 of the error, clipped to 0..17: an exact value
# reads 17, an error of the size of the values themselves reads 0
MAX_DIGITS = 17.0


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # a failed call is counted, never fatal
        return ("raise", type(exc).__name__, str(exc))


def judge(op, out):
    """(verdict, branch-value errors) of one outcome."""
    if out[0] == "raise":
        return (out[1] if out[1] in ERROR_CLASSES else "other"), ()
    try:
        result = op.check(out[1])
    except Exception:  # a result the check cannot read is a wrong answer
        return "wrong_answer", ()
    return ("ok" if result.ok else "wrong_answer"), result.root_errs


class Tally:
    """Verdicts of a run's checked calls.

    A ``strict`` tally, of the passes, makes the run incorrect on any
    failure.  The limit set's tally makes it incorrect only when a call
    raises something other than a momentkit error: its wrong answers and
    momentkit errors are the program's known defects, reported by
    ``limit_ok_share`` and the per-layer ``errors.*`` shares.
    """

    def __init__(self, strict=True):
        self.strict = strict
        self.verdicts = Counter()
        self.failures = Counter()  # (label, verdict) of each failed call
        self.root_errs: list[float] = []
        self.incorrect = False

    def add(self, ops, outcomes):
        for op, out in zip(ops, outcomes):
            verdict, errs = judge(op, out)
            self.verdicts[verdict] += 1
            self.root_errs.extend(errs)
            if verdict != "ok":
                self.failures[(op.label, verdict)] += 1
                self.incorrect |= self.strict or verdict == "other"

    def attempted(self):
        return sum(self.verdicts.values())

    def failed(self):
        return self.attempted() - self.verdicts["ok"]

    def ok_share(self):
        """Share of right answers; 1 when nothing was checked."""
        n = self.attempted()
        return self.verdicts["ok"] / n if n else 1.0

    def shares(self):
        n = max(self.attempted(), 1)
        out = {f"errors.{v}.share": self.verdicts[v] / n for v in VERDICTS}
        out["failed_share"] = self.failed() / n
        return out

    def root_digits_p50(self):
        if not self.root_errs:
            return math.nan
        errs = np.asarray(self.root_errs)
        digits = np.where(errs == 0.0, MAX_DIGITS, -np.log10(np.where(errs == 0.0, 1.0, errs)))
        return float(np.median(np.clip(digits, 0.0, MAX_DIGITS)))


class Reference:
    """A fixed computation that shares no code with momentkit: small
    ``numpy.linalg`` calls and a pure-Python float loop, the kind of work
    a momentkit call does.  Its inputs are the same in every run, so its
    time measures the host's speed at that moment and nothing else.

    One step is one SVD, one eigvals and one solve of a 2x2..6x6 matrix
    and one ``math.fsum`` of 30 powers; ``step_ns`` times REF_STEPS steps
    and returns the time of one.  The linalg functions are bound when the
    reference is made, before any tracer rebinds them, so it is never
    traced.
    """

    def __init__(self):
        self.svd, self.eigvals, self.solve = np.linalg.svd, np.linalg.eigvals, np.linalg.solve
        rng = np.random.default_rng(0)
        sizes = (2, 3, 4, 5, 6)
        self.mats = [rng.standard_normal((sizes[i % 5],) * 2) for i in range(REF_STEPS)]
        self.shifted = [a + 8.0 * np.eye(len(a)) for a in self.mats]
        self.values = [[float(v) for v in rng.standard_normal(10)] for _ in range(REF_STEPS)]

    def step_ns(self):
        t0 = perf_counter_ns()
        for a, s, v in zip(self.mats, self.shifted, self.values):
            self.svd(a, compute_uv=False)
            self.eigvals(a)
            self.solve(s, a[:, 0])
            math.fsum([x**k for x in v for k in (1, 2, 3)])
        return (perf_counter_ns() - t0) / REF_STEPS


class Timing:
    """Host-normalised rate and latency percentiles of each timed pass.

    The shared host's speed swings by up to 2x, over seconds and over
    whole runs, and the thread's CPU time swings with it.  The
    ``Reference`` is timed before and after every pass; dividing the
    pass's times by the mean reference step (``ref``) cancels the host's
    speed, leaving the program's cost in reference steps.  A program
    change moves these figures in proportion to its effect on the calls'
    wall time at a fixed host speed.  Each metric is the median over
    passes.
    """

    def __init__(self):
        self.rates: list[float] = []  # calls per ref
        self.p50: list[float] = []  # refs
        self.p90: list[float] = []
        self.p50_us: list[float] = []  # wall time, not normalised
        self.calls = 0

    def add(self, times_ns, ref_ns):
        self.rates.append(len(times_ns) * ref_ns / sum(times_ns))
        p50, p90 = np.percentile(times_ns, (50, 90))
        self.p50.append(float(p50 / ref_ns))
        self.p90.append(float(p90 / ref_ns))
        self.p50_us.append(float(p50 / 1e3))
        self.calls += len(times_ns)


def timed_pass(ops):
    """Call every op once, timing each call; returns (times in ns, outcomes)."""
    times, outs = [], []
    for op in ops:
        t0 = perf_counter_ns()
        out = outcome(op.call)
        times.append(perf_counter_ns() - t0)
        outs.append(out)
    return times, outs


class SetUp:
    """Wall times of fresh interpreters that import momentkit and make the
    workload's first call, spread evenly over the timed loop so that their
    median does not hang on the host's speed at one moment."""

    def __init__(self, name, seconds, env):
        self.argv, self.stdin = workloads.SETUP[name]
        self.env = env
        self.every = seconds / SETUP_REPEATS
        self.times = []

    def spawn(self):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *self.argv], input=self.stdin, capture_output=True, text=True,
            env=self.env, cwd=workloads.ROOT, timeout=60,
        )
        self.times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")

    def __call__(self, elapsed):
        if len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.every:
            self.spawn()

    def seconds(self):
        while len(self.times) < SETUP_REPEATS:
            self.spawn()
        return median(self.times)


def import_ms(env):
    """Median time to import momentkit.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import momentkit.cli; print((time.perf_counter() - t) * 1e3)"
    values = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, cwd=workloads.ROOT, timeout=60, check=True,
        )
        values.append(float(proc.stdout))
    return median(values)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run(name, seed, seconds, trace, build=None, limit_ops=None):
    """Measure one workload; returns (the result object that run.py
    prints, the passes' tally, the limit set's tally).  ``build(pass_no)``
    gives the ops of one pass and defaults to the workload's generator at
    ``seed``; ``limit_ops`` defaults to the workload's limit set."""
    build = build or functools.partial(workloads.WORKLOADS[name], seed)
    if limit_ops is None:
        limit_ops = workloads.LIMIT_SETS[name](seed) if name in workloads.LIMIT_SETS else []
    env = workloads.cli_env(os.environ)
    tally, limit = Tally(), Tally(strict=False)
    reference = Reference()
    refs = []

    def checked_pass(pass_no, timing=None):
        ops = build(pass_no)
        if not refs:
            refs.append(reference.step_ns())
        times, outs = timed_pass(ops)
        refs.append(reference.step_ns())
        tally.add(ops, outs)
        if timing is not None:
            timing.add(times, (refs[-2] + refs[-1]) / 2)
        return ops

    def check_limit():
        limit.add(limit_ops, [outcome(op.call) for op in limit_ops])
        refs.clear()  # the next pass's reference is timed after this

    if not trace:
        setup = SetUp(name, seconds, env)
        timing = Timing()
        checked_pass(0)
        check_limit()
        pass_no, start = 1, perf_counter()
        while True:
            checked_pass(pass_no, timing)
            pass_no += 1
            elapsed = perf_counter() - start
            setup(elapsed)
            if elapsed >= seconds:
                break
        metrics = {
            "ops_per_ref": metric(median(timing.rates), "1/ref"),
            "latency_p50_ref": metric(median(timing.p50), "ref"),
            "latency_p90_ref": metric(median(timing.p90), "ref"),
            "root_digits_p50": metric(tally.root_digits_p50(), "digits"),
            "limit_ok_share": metric(limit.ok_share(), "share"),
            "setup_s": metric(setup.seconds(), "s"),
        }
    else:
        # call counts come from the first pass only, so they repeat exactly
        with tracing.Tracer() as counter:
            first = checked_pass(0)
        check_limit()
        # untraced and traced passes alternate, so that both see the same
        # drift of the host's speed
        plain, traced = Timing(), Timing()
        tracer = tracing.Tracer()
        pass_no, start = 1, perf_counter()
        while True:
            checked_pass(pass_no, plain)
            with tracer:
                checked_pass(pass_no + 1, traced)
            pass_no += 2
            if perf_counter() - start >= seconds:
                break
        metrics = {
            "trace.overhead_ratio": metric(median(traced.rates) / median(plain.rates), "ratio"),
            "cli.import_ms": metric(import_ms(env), "ms"),
            "cli.main_us_per_request": metric(median(plain.p50_us) if name == "cli_requests" else 0.0, "us"),
        }
        # failure shares of the limit set where the workload has one
        for key, value in (limit if limit_ops else tally).shares().items():
            metrics[key] = metric(value, "share")
        self_ns = tracer.layer_totals()
        for span, (calls, _) in counter.layer_totals().items():
            metrics[f"{span}.calls_per_op"] = metric(calls / len(first), "count")
            metrics[f"{span}.self_us_per_op"] = metric(self_ns[span][1] / traced.calls / 1e3, "us")

    return {
        "correct": not (tally.incorrect or limit.incorrect),
        "attempted": tally.attempted(),
        "failed": tally.failed(),
        "metrics": metrics,
    }, tally, limit
