"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from momentkit import (
    MomentSequence,
    NoSolution,
    analyze,
    build_hankel,
    exp_transform,
    factorization_residual,
    family_member,
    forward_moments,
    invert_min_degree,
    markov_certificate,
    next_moment,
    trig_forward,
    trig_invert,
    weights,
    BranchSolution,
    TrigSignal,
)
from momentkit.cli import main as cli_main
from instances import (
    anti_interlaced_branches,
    interlaced_branches,
    matched_pair_extension,
    multiset_distance,
    nonneg_interlaced_branches,
    random_solvable_instance,
)
from oracles import power_sum
from test_markov import _midpoint_moments


def _report(number: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {status} ({detail})")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def suite_instances():
    rng = np.random.default_rng(2024)
    return [random_solvable_instance(rng) for _ in range(500)]


@pytest.fixture(scope="module")
def degenerate_instances():
    rng = np.random.default_rng(2025)
    return [matched_pair_extension(rng) for _ in range(100)]


def test_criterion_1_worked_instances():
    start = time.perf_counter()
    errors = []

    sol = invert_min_degree(MomentSequence((3.0, 5.0), 2, 0))
    errors.append(multiset_distance(sol.xs, (1.0, 2.0)))
    errors.append(multiset_distance(sol.ys, ()))

    sol = invert_min_degree(MomentSequence((2.0, 0.0), 1, 1))
    errors.append(multiset_distance(sol.xs, (1.0,)))
    errors.append(multiset_distance(sol.ys, (-1.0,)))

    report = analyze(MomentSequence((1.0, 1.0, 1.0), 2, 1))
    sol = report.minimal_solution
    errors.append(multiset_distance(sol.xs, (1.0, 0.0)))
    ok_bounds = (report.d_min, report.d_max) == (1, 2)

    report0 = analyze(MomentSequence((0.0, 0.0), 1, 1))
    ok_degenerate = (
        report0.exists
        and (report0.d_min, report0.d_max) == (0, 1)
        and not report0.unique
    )

    no_solution_raised = False
    try:
        invert_min_degree(MomentSequence((0.0, 1.0), 1, 1))
    except NoSolution:
        no_solution_raised = True
    exists_flag = analyze(MomentSequence((0.0, 1.0), 1, 1)).exists

    elapsed = time.perf_counter() - start
    worst = max(errors)
    ok = (
        worst <= 1e-10
        and ok_bounds
        and ok_degenerate
        and no_solution_raised
        and not exists_flag
        and elapsed < 1.0
    )
    _report(1, "worked instances", ok, f"max root error {worst:.2e}, {elapsed:.3f} s")


def test_criterion_2_oracle_round_trip(suite_instances):
    start = time.perf_counter()
    errors = []
    for xs, ys, m in suite_instances:
        sol = invert_min_degree(m)
        back = forward_moments(sol.xs, sol.ys)
        scale = max(1.0, max(abs(v) for v in m.values))
        errors.append(max(abs(a - b) for a, b in zip(back.values, m.values)) / scale)
    elapsed = time.perf_counter() - start
    errors = np.array(errors)
    share_tight = float(np.mean(errors <= 1e-8))
    worst = float(errors.max())
    ok = share_tight >= 0.99 and worst <= 1e-6 and elapsed < 10.0
    _report(
        2,
        "oracle round trip, 500 instances",
        ok,
        f"{share_tight:.1%} within 1e-8, worst {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_method_agreement(suite_instances):
    worst = 0.0
    for xs, ys, m in suite_instances:
        a = invert_min_degree(m, method="geneig")
        b = invert_min_degree(m, method="companion")
        worst = max(worst, multiset_distance(a.xs, b.xs), multiset_distance(a.ys, b.ys))
    ok = worst <= 1e-8
    _report(3, "pencil/companion agreement", ok, f"worst multiset distance {worst:.2e}")


def test_criterion_4_degeneracy_suite(degenerate_instances):
    ok = True
    worst_sol = 0.0
    worst_mom = 0.0
    for xs, ys, m, t, m_ext in degenerate_instances:
        base = analyze(m)
        ext = analyze(m_ext)
        if not (base.unique and base.rank_A1 == m.n_x):
            ok = False
        if ext.rank_A1 != m_ext.n_x - 1:  # rank drops by exactly one
            ok = False
        if (ext.d_max - ext.d_min) - (base.d_max - base.d_min) != 1:
            ok = False
        minimal = ext.minimal_solution
        nonzero_x = [v for v in minimal.xs if v != 0.0]
        nonzero_y = [v for v in minimal.ys if v != 0.0]
        worst_sol = max(
            worst_sol,
            multiset_distance(nonzero_x, xs),
            multiset_distance(nonzero_y, ys),
        )
        member = family_member(minimal, [t])
        back = forward_moments(member.xs, member.ys)
        scale = max(1.0, max(abs(v) for v in m_ext.values))
        worst_mom = max(
            worst_mom,
            max(abs(a - b) for a, b in zip(back.values, m_ext.values)) / scale,
        )
    ok = ok and worst_sol <= 1e-6 and worst_mom <= 1e-10
    _report(
        4,
        "matched-pair degeneracy, 100 instances",
        ok,
        f"minimal drift {worst_sol:.2e}, family moment error {worst_mom:.2e}",
    )


def test_criterion_5_next_moment(suite_instances, degenerate_instances):
    worst = 0.0
    for xs, ys, m in suite_instances:
        sol = invert_min_degree(m)
        direct = power_sum(sol.xs, m.K + 1) - power_sum(sol.ys, m.K + 1)
        value = next_moment(m)
        worst = max(worst, abs(value - direct) / max(1.0, abs(direct)))

    rng = np.random.default_rng(77)
    singular_checked = 0
    worst_spread = 0.0
    for xs, ys, m, t, m_ext in degenerate_instances[:25]:
        sol = invert_min_degree(m_ext)
        direct = power_sum(sol.xs, m_ext.K + 1) - power_sum(sol.ys, m_ext.K + 1)
        value = next_moment(m_ext)  # minimum-norm path, A1 singular
        worst = max(worst, abs(value - direct) / max(1.0, abs(direct)))

        a = exp_transform(m_ext)
        h = build_hankel(a, m_ext.n_x, m_ext.n_y)
        base, *_ = np.linalg.lstsq(h.A1, -h.a0, rcond=None)
        null = scipy.linalg.null_space(h.A1, rcond=1e-9)
        if null.shape[1] == 0:
            continue
        values = [value]
        for _ in range(5):
            cbar = base + null @ rng.uniform(-2.0, 2.0, size=null.shape[1])
            values.append(next_moment(m_ext, cbar=cbar))
        spread = (max(values) - min(values)) / max(1.0, abs(value))
        worst_spread = max(worst_spread, spread)
        singular_checked += 1

    ok = worst <= 1e-8 and worst_spread <= 1e-10 and singular_checked >= 20
    _report(
        5,
        "next-moment recursion",
        ok,
        f"worst vs power sum {worst:.2e}, spread over particular solutions "
        f"{worst_spread:.2e} on {singular_checked} singular instances",
    )


def test_criterion_6_markov_suite():
    rng = np.random.default_rng(88)
    ok = True
    worst_residual = 0.0
    for _ in range(200):
        xs, ys = interlaced_branches(rng)
        m = forward_moments(xs, ys)
        cert = markov_certificate(m)
        if not (cert.spd and cert.weights_positive and cert.interlaced and cert.extended_singular):
            ok = False
        a = exp_transform(m)
        h = build_hankel(a, m.n_x, m.n_y)
        sol = invert_min_degree(m)
        residual = factorization_residual(h, weights(sol.xs, sol.ys))
        worst_residual = max(worst_residual, residual)
    if worst_residual > 1e-9:
        ok = False

    for _ in range(50):
        xs, ys = anti_interlaced_branches(rng)
        if markov_certificate(forward_moments(xs, ys)).spd:
            ok = False

    h = build_hankel(exp_transform(MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)), 2, 2)
    wd = weights((1.0, 3.0), (0.0, 2.0))
    exact_block = np.max(np.abs(np.fliplr(h.A1) - np.array([[2.0, 5.0], [5.0, 14.0]])))
    exact_weights = max(abs(wd.weights[0] - 0.5), abs(wd.weights[1] - 1.5))
    if exact_block > 1e-12 or exact_weights > 1e-12:
        ok = False

    _report(
        6,
        "Markov certificates, 200 interlaced + 50 flipped",
        ok,
        f"worst factorization residual {worst_residual:.2e}, "
        f"worked-instance defects {exact_block:.1e}/{exact_weights:.1e}",
    )


def test_criterion_7_quadrature_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        xs, ys = nonneg_interlaced_branches(rng, n_max=5)
        sol = BranchSolution.from_branches(xs, ys)
        quad = _midpoint_moments(sol, 6)
        for k in range(1, 7):
            exact = power_sum(xs, k) - power_sum(ys, k)
            worst = max(worst, abs(quad[k - 1] - exact) / max(1.0, abs(exact)))
    ok = worst <= 1e-4
    _report(7, "density quadrature, 20 instances", ok, f"worst relative error {worst:.2e}")


def test_criterion_8_trig_suite():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
        r = int(rng.integers(1, 5))
        freqs = []
        while len(freqs) < r:
            f = float(rng.uniform(-np.pi + 0.05, np.pi - 0.05))
            if all(min(abs(f - g), 2 * np.pi - abs(f - g)) >= 0.3 for g in freqs):
                freqs.append(f)
        amps = [
            complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for _ in range(r)
        ]
        sig = TrigSignal(tuple(freqs), tuple(amps))
        rec = trig_invert(trig_forward(sig, 2 * r), r)
        order = np.argsort(sig.freqs)
        worst = max(worst, float(np.max(np.abs(np.asarray(rec.freqs) - np.asarray(sig.freqs)[order]))))
        worst = max(worst, float(np.max(np.abs(np.asarray(rec.amps) - np.asarray(sig.amps)[order]))))

    # FFT cross-check on the exact DFT grid, N = 16
    N, r = 16, 3
    bins = rng.choice(N, size=r, replace=False)
    sig = TrigSignal(
        tuple(float(np.angle(np.exp(2j * np.pi * q / N))) for q in bins),
        tuple(complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) for _ in range(r)),
    )
    samples = trig_forward(sig, N)
    spectrum = np.fft.fft(samples) / N
    rec = trig_invert(samples[: 2 * r], r)
    fft_defect = 0.0
    for f, a in zip(rec.freqs, rec.amps):
        q = int(round((f % (2 * np.pi)) * N / (2 * np.pi))) % N
        fft_defect = max(fft_defect, abs(a - spectrum[q]))

    ok = worst <= 1e-8 and fft_defect <= 1e-8
    _report(8, "trig round trip + FFT check", ok, f"worst recovery error {worst:.2e}, FFT defect {fft_defect:.2e}")


def test_criterion_9_cli(tmp_path, capsys):
    def run(args, payload):
        path = tmp_path / "req.json"
        path.write_text(json.dumps(payload))
        code = cli_main(list(args) + ["--input", str(path)])
        out = capsys.readouterr().out
        return code, json.loads(out)

    ok = True
    code, out = run(["invert"], {"moments": [3, 5], "n_x": 2, "n_y": 0})
    ok &= code == 0 and np.allclose(out["xs"], [1, 2], atol=1e-10) and out["degree"] == 2
    code, out = run(["forward"], {"xs": [1.0, 2.0], "ys": []})
    ok &= code == 0 and np.allclose(out["moments"], [3, 5], atol=1e-10)
    code, out = run(["transform"], {"moments": [3, 5], "n_x": 2, "n_y": 0})
    ok &= code == 0 and out["a"] == [1.0, 3.0, 7.0]
    code, out = run(["analyze"], {"moments": [0, 1], "n_x": 1, "n_y": 1})
    ok &= code == 0 and out["exists"] is False
    code, out = run(["next"], {"moments": [2], "n_x": 1, "n_y": 0})
    ok &= code == 0 and out["next_moment"] == pytest.approx(4.0)
    code, out = run(["extend", "--count", "3"], {"moments": [2], "n_x": 1, "n_y": 0})
    ok &= code == 0 and np.allclose(out["moments"], [2, 4, 8, 16], atol=1e-10)
    code, out = run(["family", "--r-roots", "5"], {"moments": [0, 0], "n_x": 1, "n_y": 1})
    ok &= code == 0 and np.allclose(out["xs"], [5.0]) and np.allclose(out["ys"], [5.0])
    code, out = run(["markov-check"], {"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2})
    ok &= code == 0 and out["spd"] and out["interlaced"]
    code, out = run(["trig-forward", "--count", "4"], {"freqs": [0.0], "amps": [[1, 0]]})
    ok &= code == 0 and np.allclose(out["moments"], [[1, 0]] * 4)
    code, out = run(["trig-invert", "--modes", "2"], {"moments": [[2, 0], [0, 0], [2, 0], [0, 0]]})
    ok &= code == 0 and np.allclose(out["freqs"], [0.0, np.pi], atol=1e-10)

    # exit codes
    code, out = run(["invert"], {"moments": [0, 1], "n_x": 1, "n_y": 1})
    ok &= code == 2 and out["error"]["kind"] == "NoSolution"
    code, out = run(["invert"], {"moments": [0, -2], "n_x": 2, "n_y": 0})
    ok &= code == 3 and out["error"]["kind"] == "NonRealSolution"
    code, out = run(["invert"], {"moments": [1, 2, 3], "n_x": 1, "n_y": 1})
    ok &= code == 4
    path = tmp_path / "req.json"
    path.write_text("{broken")
    code = cli_main(["invert", "--input", str(path)])
    out = json.loads(capsys.readouterr().out)
    ok &= code == 4 and out["error"]["kind"] == "BadInput"

    _report(9, "CLI golden tests and exit codes", bool(ok), "all subcommands exercised")
