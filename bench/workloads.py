"""Seeded instances, the calls made on them, and the checks of their results.

Each workload is a list of ``Op`` values built from a seed.  An op is one
public library call (or one CLI request) on one generated instance,
together with a check of its result against the branch values that
generated the instance.  The checks use the forward-moment oracle below,
which shares no code with the package.

A workload builds a new set of instances for every pass over it, from
the seed and the pass number, so no input is ever repeated within a run
and a cache across calls gains nothing.  Instance counts per size are
fixed, only the values depend on (seed, pass), so the mix of problem
sizes is the same in every pass.  Every op of a pass is expected to
succeed.

Instances at the conditioning limit, where the program fails today, are
not in the passes: ``LIMIT_SETS`` gives a fixed set of them per seed,
which a run checks once, untimed, and reports as an accuracy share.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from momentkit import cli, inversion, markov, structure, trig
from momentkit.transform import MomentSequence

ROOT = Path(__file__).resolve().parent.parent

# Accuracy bounds of the acceptance suite (tests/test_acceptance.py):
# worst moment-space error and minimal-solution drift 1e-6 (criteria 2
# and 4), next-moment error 1e-8 relative (criterion 5), trig recovery
# 1e-8 (criterion 8).
MOMENT_TOL = 1e-6
ROOT_TOL = 1e-6
NEXT_TOL = 1e-8
TRIG_TOL = 1e-8

# bounded rejection: a configuration that keeps failing the |v| >= min_abs
# test is reported instead of retried forever
MAX_DRAWS = 200


@dataclass(frozen=True)
class Check:
    """Verdict on one returned result; root_errs holds the scale-relative
    error of each branch value when the call recovered branch values."""

    ok: bool
    root_errs: tuple[float, ...] = ()


@dataclass(frozen=True)
class Op:
    """One call on one instance."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Check]


# ---------------------------------------------------------------------------
# instance generators


def separated_values(rng, count, lo, hi, gap, min_abs):
    """``count`` values in [lo, hi], pairwise >= gap apart, |v| >= min_abs,
    in random order.

    Gaps are built in (sorted uniform draws on the shortened interval,
    then shifted by i * gap), so only the |v| >= min_abs test can reject
    a draw; after MAX_DRAWS rejections the configuration is refused.
    """
    span = (hi - lo) - (count - 1) * gap
    if span < 0.0:
        raise ValueError(f"{count} values with gap {gap} do not fit in [{lo}, {hi}]")
    for _ in range(MAX_DRAWS):
        v = lo + np.sort(rng.uniform(0.0, span, count)) + gap * np.arange(count)
        if np.all(np.abs(v) >= min_abs):
            return [float(x) for x in rng.permutation(v)]
    raise ValueError(f"no {count} values with |v| >= {min_abs} after {MAX_DRAWS} draws")


def interlaced_values(rng, n, lo=-1.6, hi=1.6, gap=0.2, slack=0.12, min_abs=0.05):
    """(xs, ys) with y_1 < x_1 < y_2 < ... < y_n < x_n, neighbours
    gap..gap+slack apart."""
    for _ in range(MAX_DRAWS):
        steps = rng.uniform(gap, gap + slack, size=2 * n - 1)
        start = rng.uniform(lo, hi - float(np.sum(steps)))
        points = start + np.concatenate([[0.0], np.cumsum(steps)])
        if np.all(np.abs(points) >= min_abs):
            return [float(v) for v in points[1::2]], [float(v) for v in points[0::2]]
    raise ValueError(f"no interlaced set of {n} pairs with |v| >= {min_abs} after {MAX_DRAWS} draws")


def trig_signal(rng, r, gap=0.3):
    """r frequencies at circular distance >= gap, amplitudes 0.5..2 in modulus."""
    half = gap / 2.0
    freqs = separated_values(rng, r, -math.pi + half, math.pi - half, gap, 0.0)
    amps = [complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))) for _ in range(r)]
    return freqs, amps


# ---------------------------------------------------------------------------
# forward-moment oracle


def power_sums(xs, ys, count):
    """m_1..m_count = sum x^k - sum y^k, each sum correctly rounded."""
    return [math.fsum([v**k for v in xs] + [-(v**k) for v in ys]) for k in range(1, count + 1)]


def moments(xs, ys):
    return MomentSequence(tuple(power_sums(xs, ys, len(xs) + len(ys))), len(xs), len(ys))


def relative_gap(got, want):
    """max |got - want| over max(1, max |want|)."""
    scale = max([1.0] + [abs(w) for w in want])
    return max(abs(g - w) for g, w in zip(got, want)) / scale


def branch_errors(got_xs, got_ys, xs, ys):
    """Per-value distance between the sorted branch sides over
    max(1, max |value|); (inf,) when the sizes differ."""
    if len(got_xs) != len(xs) or len(got_ys) != len(ys):
        return (math.inf,)
    got = sorted(got_xs) + sorted(got_ys)
    want = sorted(xs) + sorted(ys)
    scale = max([1.0] + [abs(w) for w in want])
    return tuple(abs(g - w) / scale for g, w in zip(got, want))


def check_branches(got_xs, got_ys, xs, ys, m_values):
    """Acceptance-suite check of a branch solution: root error and
    moment-space error both within bounds."""
    errs = branch_errors(got_xs, got_ys, xs, ys)
    back = power_sums(got_xs, got_ys, len(m_values))
    ok = max(errs, default=0.0) <= ROOT_TOL and relative_gap(back, m_values) <= MOMENT_TOL
    return Check(ok, errs)


def exact_weights_positive(xs, ys):
    """Sign of w_j = prod(x_j - y_i) / prod_{i != j}(x_j - x_i), in rationals."""
    fx = [Fraction(v) for v in xs]
    fy = [Fraction(v) for v in ys]
    for j, x in enumerate(fx):
        num = math.prod(x - y for y in fy)
        den = math.prod(x - fx[i] for i in range(len(fx)) if i != j)
        if num / den <= 0:
            return False
    return True


def is_interlaced(xs, ys):
    """y_1 < x_1 < y_2 < ... < y_n < x_n for equal counts."""
    sx, sy = sorted(xs), sorted(ys)
    return all(sy[i] < sx[i] for i in range(len(sx))) and all(sx[i] < sy[i + 1] for i in range(len(sx) - 1))


# ---------------------------------------------------------------------------
# library ops


def _invert_op(label, m, xs, ys, method):
    def check(sol):
        return check_branches(sol.xs, sol.ys, xs, ys, m.values)

    return Op(label, lambda: inversion.invert_min_degree(m, method=method), check)


def _next_op(label, m, xs, ys):
    want = power_sums(xs, ys, m.K + 1)[-1]

    def check(value):
        return Check(abs(value - want) / max(1.0, abs(want)) <= NEXT_TOL)

    return Op(label, lambda: inversion.next_moment(m), check)


def _extend_op(label, m, xs, ys, count):
    want = power_sums(xs, ys, m.K + count)

    def check(values):
        return Check(len(values) == len(want) and relative_gap(values, want) <= MOMENT_TOL)

    return Op(label, lambda: inversion.extend_moments(m, count), check)


def check_report(got, solution, expected, minimal, m_values):
    """Solvability report check.  ``got`` and ``expected`` are (exists,
    rank_A1, d_min, d_max, unique); ``solution`` and ``minimal`` are the
    (xs, ys) of the returned and the true minimal-degree solution."""
    if not solution:
        return Check(False)
    result = check_branches(*solution, *minimal, m_values)
    return Check(tuple(got) == expected and result.ok, result.root_errs)


def _analyze_op(label, m, expected, minimal):
    def check(r):
        sol = r.minimal_solution
        got = (r.exists, r.rank_A1, r.d_min, r.d_max, r.unique)
        return check_report(got, sol and (sol.xs, sol.ys), expected, minimal, m.values)

    return Op(label, lambda: structure.analyze(m), check)


def _markov_op(label, m, flags):
    """``flags`` = (spd, interlaced, extended_singular, weights_positive)."""

    def check(cert):
        return Check((cert.spd, cert.interlaced, cert.extended_singular, cert.weights_positive) == flags)

    return Op(label, lambda: markov.markov_certificate(m), check)


def _trig_op(label, freqs, amps):
    sig = trig.TrigSignal(tuple(freqs), tuple(amps))
    data = trig.trig_forward(sig, 2 * len(freqs))
    order = np.argsort(freqs)
    want_f = np.asarray(freqs)[order]
    want_a = np.asarray(amps)[order]

    def check(rec):
        if len(rec.freqs) != len(freqs):
            return Check(False)
        err = max(float(np.max(np.abs(np.asarray(rec.freqs) - want_f))), float(np.max(np.abs(np.asarray(rec.amps) - want_a))))
        return Check(err <= TRIG_TOL)

    return Op(label, lambda: trig.trig_invert(data, len(freqs)), check)


def grid_invert(seed, pass_no):
    """One grid cell = ``invert_min_degree`` then ``next_moment`` on a small
    interlaced instance, n_x = n_y = 1..5; the route alternates between
    companion and geneig."""
    rng = np.random.default_rng([seed, 1, pass_no])
    ops = []
    for i in range(60):
        for n in range(1, 6):
            xs, ys = interlaced_values(rng, n)
            m = moments(xs, ys)
            method = ("companion", "geneig")[(i + n) % 2]
            ops.append(_invert_op(f"invert/{method}/n={n}", m, xs, ys, method))
            ops.append(_next_op(f"next/n={n}", m, xs, ys))
    return ops


def _separated_ops(rng, n):
    """analyze, extend_moments and markov_certificate on one instance of
    2n separated values on [-3, 3], gap 0.1."""
    values = separated_values(rng, 2 * n, -3.0, 3.0, 0.1, 0.1)
    xs, ys = values[:n], values[n:]
    m = moments(xs, ys)
    positive = exact_weights_positive(xs, ys)
    flags = (positive, is_interlaced(xs, ys), True, positive)
    return [
        _analyze_op(f"analyze/separated/n={n}", m, (True, n, n, n, True), (xs, ys)),
        _extend_op(f"extend/separated/n={n}", m, xs, ys, 4),
        _markov_op(f"markov/separated/n={n}", m, flags),
    ]


def analyze_sweep(seed, pass_no):
    """Solvability analysis, certificates, extension and trig inversion on
    separated, degenerate, interlaced, anti-interlaced and trig instances."""
    rng = np.random.default_rng([seed, 2, pass_no])
    ops = []
    for i in range(16):
        for n in (1, 3):
            ops.extend(_separated_ops(rng, n))
        for n in (1, 2, 3, 4):
            # a matched pair (t, t) on top of a unique instance: A1 loses one
            # rank and the family gains one member
            values = separated_values(rng, 2 * n + 1, -2.0, 2.0, 0.2, 0.1)
            xs, ys, t = values[:n], values[n : 2 * n], values[-1]
            m = moments(xs + [t], ys + [t])
            minimal = (xs + [0.0], ys + [0.0])
            ops.append(_analyze_op(f"analyze/matched/n={n}", m, (True, n, n, n + 1, False), minimal))
            ops.append(_extend_op(f"extend/matched/n={n}", m, xs, ys, 4))
        if i % 2 == 0:
            for n in range(1, 6):
                xs, ys = interlaced_values(rng, n)
                ops.append(_markov_op(f"markov/interlaced/n={n}", moments(xs, ys), (True, True, True, True)))
                ys, xs = interlaced_values(rng, n)
                ops.append(_markov_op(f"markov/anti/n={n}", moments(xs, ys), (False, False, True, False)))
        for r in (1, 3, 5, 8):
            ops.append(_trig_op(f"trig/r={r}", *trig_signal(rng, r)))
    return ops


# separated sizes from n = 5 on sit at the Hankel conditioning limit for
# values up to 3 in magnitude; the program fails on a share of them today
LIMIT_SIZES = (5, 8, 10)
LIMIT_COUNT = 128


def separated_limit(seed):
    """The same calls as analyze_sweep's separated ops, on LIMIT_COUNT
    instances of each size in LIMIT_SIZES."""
    rng = np.random.default_rng([seed, 4])
    return [op for n in LIMIT_SIZES for _ in range(LIMIT_COUNT) for op in _separated_ops(rng, n)]


# ---------------------------------------------------------------------------
# CLI requests


def cli_env(env):
    """Environment for ``python -m momentkit``: the source tree on the path
    (the console script is not installed)."""
    env = dict(env)
    env["PYTHONPATH"] = str(ROOT / "src") + ((":" + env["PYTHONPATH"]) if env.get("PYTHONPATH") else "")
    return env


def _cli_op(label, argv, doc, check):
    """One request through ``cli.main`` in this process: argument parsing,
    JSON in on standard input, JSON out on standard output."""
    text = json.dumps(doc)

    def call():
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out):
                code = cli.main(list(argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def check_output(outcome):
        code, stdout = outcome
        try:
            reply = json.loads(stdout)
        except json.JSONDecodeError:
            return Check(False)
        return check(code, reply)

    return Op(label, call, check_output)


def _moment_doc(m):
    return {"moments": list(m.values), "n_x": m.n_x, "n_y": m.n_y}


def _expect_error(kind, code):
    def check(got_code, reply):
        return Check(got_code == code and reply.get("error", {}).get("kind") == kind)

    return check


def _expect_branches(xs, ys, m):
    def check(code, reply):
        if code != 0 or "xs" not in reply:
            return Check(False)
        return check_branches(reply["xs"], reply["ys"], xs, ys, m.values)

    return check


def _cli_mix(rng):
    """One of each request kind; three in ten must fail with their
    documented error kind and exit code."""
    ops = []
    for method in ("companion", "geneig"):
        xs, ys = interlaced_values(rng, 5)
        m = moments(xs, ys)
        ops.append(_cli_op(f"cli/invert/{method}", ["invert", "--method", method], _moment_doc(m), _expect_branches(xs, ys, m)))

    xs, ys = interlaced_values(rng, 4)
    m = moments(xs, ys)

    def analyze_check(code, reply, xs=xs, ys=ys, m=m):
        sol = reply.get("minimal_solution") if code == 0 else None
        got = [reply.get(k) for k in ("exists", "rank_A1", "d_min", "d_max", "unique")]
        return check_report(got, sol and (sol["xs"], sol["ys"]), (True, 4, 4, 4, True), (xs, ys), m.values)

    ops.append(_cli_op("cli/analyze", ["analyze"], _moment_doc(m), analyze_check))

    xs, ys = interlaced_values(rng, 3)
    m = moments(xs, ys)
    want_next = power_sums(xs, ys, m.K + 1)[-1]
    ops.append(_cli_op(
        "cli/next", ["next"], _moment_doc(m),
        lambda code, reply, w=want_next: Check(code == 0 and abs(reply["next_moment"] - w) / max(1.0, abs(w)) <= NEXT_TOL),
    ))

    xs, ys = interlaced_values(rng, 2)
    m = moments(xs, ys)
    want_ext = power_sums(xs, ys, m.K + 3)
    ops.append(_cli_op(
        "cli/extend", ["extend", "--count", "3"], _moment_doc(m),
        lambda code, reply, w=want_ext: Check(code == 0 and len(reply["moments"]) == len(w) and relative_gap(reply["moments"], w) <= MOMENT_TOL),
    ))

    xs, ys = interlaced_values(rng, 3)
    flags = {"spd": True, "interlaced": True, "extended_singular": True, "weights_positive": True}
    ops.append(_cli_op(
        "cli/markov-check", ["markov-check"], _moment_doc(moments(xs, ys)),
        lambda code, reply: Check(code == 0 and all(reply.get(k) is v for k, v in flags.items())),
    ))

    freqs, amps = trig_signal(rng, 3)
    data = trig.trig_forward(trig.TrigSignal(tuple(freqs), tuple(amps)), 6)
    want_f = sorted(freqs)
    ops.append(_cli_op(
        "cli/trig-invert", ["trig-invert", "--modes", "3"], {"moments": [[z.real, z.imag] for z in data]},
        lambda code, reply, w=want_f: Check(code == 0 and len(reply["freqs"]) == 3 and max(abs(a - b) for a, b in zip(reply["freqs"], w)) <= TRIG_TOL),
    ))

    # documented failures: m = (0, c) with one branch per side has no
    # solution; m_2 < m_1^2 / 2 with two x-branches has complex roots;
    # a split that does not match the moment count is malformed
    c = float(rng.uniform(0.5, 2.0))
    ops.append(_cli_op("cli/invert/no-solution", ["invert"], {"moments": [0.0, c], "n_x": 1, "n_y": 1}, _expect_error("NoSolution", 2)))
    s = float(rng.uniform(0.5, 2.0))
    ops.append(_cli_op("cli/invert/non-real", ["invert"], {"moments": [s, s * s / 2.0 - c], "n_x": 2, "n_y": 0}, _expect_error("NonRealSolution", 3)))
    ops.append(_cli_op("cli/invert/malformed", ["invert"], {"moments": [s, c, s], "n_x": 1, "n_y": 1}, _expect_error("BadInput", 4)))
    return ops


def cli_requests(seed, pass_no):
    """Ten rounds of the request mix; each percentile of a pass then has
    ten requests beyond it."""
    rng = np.random.default_rng([seed, 3, pass_no])
    return [op for _ in range(10) for op in _cli_mix(rng)]


WORKLOADS = {
    "grid_invert": grid_invert,
    "analyze_sweep": analyze_sweep,
    "cli_requests": cli_requests,
}
LIMIT_SETS = {"analyze_sweep": separated_limit}

# set-up: a fresh interpreter imports momentkit and makes the workload's
# first call, here on the README's worked instance (xs 1, 3; ys 0, 2); for
# cli_requests that is one whole ``python -m momentkit`` request, so
# setup_s there is the cost of a CLI request including interpreter start
_WORKED = "momentkit.MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)"
SETUP = {
    "grid_invert": (["-c", f"import momentkit; m = {_WORKED}; momentkit.invert_min_degree(m); momentkit.next_moment(m)"], None),
    "analyze_sweep": (["-c", f"import momentkit; momentkit.analyze({_WORKED})"], None),
    "cli_requests": (["-m", "momentkit", "invert"], json.dumps({"moments": [2.0, 6.0, 20.0, 66.0], "n_x": 2, "n_y": 2})),
}
