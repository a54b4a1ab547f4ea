import argparse
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentkit as mk
from momentkit import cli
from momentkit.cli import main

README_INSTANCE = {"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2}
LEDGER = json.loads((Path(__file__).resolve().parent / "data" / "golden_outcomes.json").read_text())
# the exit code each library error maps to: 2 no solution, 3 non-real, 4 malformed input
EXIT_CODES = {"NoSolution": 2, "SingularReducedSystem": 2, "NonRealSolution": 3, "NoPositiveBranches": 4}


def run_cli(capsys, args, payload=None, tmp_path=None):
    """Invoke the CLI in-process; returns (exit_code, parsed_output)."""
    argv = list(args)
    if payload is not None:
        path = tmp_path / "request.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv += ["--input", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_invert_golden(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["invert"], {"moments": [3, 5], "n_x": 2, "n_y": 0}, tmp_path
    )
    assert code == 0
    assert out["schema"] == "momentkit/1"
    assert np.allclose(out["xs"], [1.0, 2.0], atol=1e-10)
    assert out["ys"] == []
    assert out["degree"] == 2


def test_analyze_golden(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["analyze"], {"moments": [0, 1], "n_x": 1, "n_y": 1}, tmp_path
    )
    assert code == 0  # analyze reports, never fails
    assert out["exists"] is False
    assert out["minimal_solution"] is None

    code, out = run_cli(
        capsys, ["analyze"], {"moments": [1, 1, 1], "n_x": 2, "n_y": 1}, tmp_path
    )
    assert code == 0
    assert out["exists"] is True
    assert (out["d_min"], out["d_max"]) == (1, 2)
    assert out["unique"] is False
    assert np.allclose(out["minimal_solution"]["xs"], [1.0, 0.0], atol=1e-10)

    # separated/n=8/1 of the golden set, at the conditioning limit: the
    # y-values read off q = p*a recover the generating values, which an
    # independent solve of the sign-flipped problem judged unsolvable
    moments = [
        -4.9535132067536285, -9.681077875394063, -9.254540533719785, -86.87589161169726,
        -31.43991938380492, -659.8998413638022, -89.88739929787005, -4869.195604708729,
        -64.19919552735337, -35910.05916617864, 1455.048856993133, -266017.4276349605,
        11727.119134542038, -1978234.0712442957, 27760.64546279912, -14747066.58094415,
    ]
    xs = [
        -1.5675396483330966, -0.9960491607510069, 1.606386143558785, 1.45450603625223,
        2.5639298990366743, -0.5894059200642925, -0.4846787060719451, -2.1503583600711793,
    ]
    ys = [
        2.369923806068277, 2.73515979709384, 0.401320704893827, 2.0361364491372393,
        0.709400487987681, 1.057080735867447, -2.6905795798874785, -1.8281389108510357,
    ]
    code, out = run_cli(capsys, ["analyze"], {"moments": moments, "n_x": 8, "n_y": 8}, tmp_path)
    assert code == 0
    assert (out["exists"], out["rank_A1"], out["unique"]) == (True, 8, True)
    assert np.allclose(out["minimal_solution"]["xs"], sorted(xs), atol=1e-6)
    assert np.allclose(out["minimal_solution"]["ys"], sorted(ys), atol=1e-6)


def _markov_check_verbose(m):
    cert, info = mk.markov_certificate(m, full_output=True)
    sol = info["minimal_solution"]
    return {**dataclasses.asdict(cert), "diagnostics": {"minimal_solution": {"xs": sol.xs, "ys": sol.ys}}}


# (argv, the library call whose result the output document holds)
LEDGER_CALLS = (
    (["analyze"], lambda m: dataclasses.asdict(mk.analyze(m))),
    (["invert", "--method", "companion"], lambda m: dataclasses.asdict(mk.invert_min_degree(m, "companion"))),
    (["invert", "--method", "geneig"], lambda m: dataclasses.asdict(mk.invert_min_degree(m, "geneig"))),
    (["next"], lambda m: {"next_moment": mk.next_moment(m)}),
    (["extend", "--count", "3"], lambda m: {"moments": mk.extend_moments(m, 3)}),
    (["markov-check", "--verbose"], _markov_check_verbose),
)


@pytest.mark.parametrize("case", LEDGER, ids=[case["label"] for case in LEDGER])
def test_ledger_replays_through_the_cli(capsys, tmp_path, case):
    # the shortest repr round-trips bit for bit, so every float must match exactly
    doc = {key: case[key] for key in ("moments", "n_x", "n_y")}
    m = mk.MomentSequence(tuple(case["moments"]), case["n_x"], case["n_y"])
    for argv, call in LEDGER_CALLS:
        try:
            want, want_code = {"schema": "momentkit/1", **call(m)}, 0
        except mk.MomentProblemError as exc:
            want = {"error": {"kind": type(exc).__name__, "detail": str(exc)}}
            want_code = EXIT_CODES[type(exc).__name__]
        code, out = run_cli(capsys, argv, doc, tmp_path)
        assert (code, out) == (want_code, json.loads(json.dumps(want))), argv


def test_forward_invert_round_trip(capsys, tmp_path):
    code, mdoc = run_cli(
        capsys, ["forward"], {"xs": [1.0, 3.0], "ys": [0.0, 2.0]}, tmp_path
    )
    assert code == 0
    assert mdoc["moments"] == [2.0, 6.0, 20.0, 66.0]
    assert (mdoc["n_x"], mdoc["n_y"]) == (2, 2)

    code, bdoc = run_cli(capsys, ["invert"], mdoc, tmp_path)
    assert code == 0
    assert np.allclose(bdoc["xs"], [1.0, 3.0], atol=1e-8)
    assert np.allclose(bdoc["ys"], [2.0, 0.0], atol=1e-8)  # zeros pad the tail

    code, m2 = run_cli(capsys, ["forward"], bdoc, tmp_path)  # branch doc re-fed
    assert code == 0
    assert np.allclose(m2["moments"], mdoc["moments"], rtol=1e-8)


def test_transform_golden(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["transform"], {"moments": [2, 0], "n_x": 1, "n_y": 1}, tmp_path
    )
    assert code == 0
    assert out["a"] == [1.0, 2.0, 2.0]


def test_next_and_extend_golden(capsys, tmp_path):
    doc = {"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2}
    code, out = run_cli(capsys, ["next"], doc, tmp_path)
    assert code == 0
    assert out["next_moment"] == pytest.approx(212.0)

    code, out = run_cli(
        capsys, ["extend", "--count", "2"], {"moments": [2, 0], "n_x": 1, "n_y": 1}, tmp_path
    )
    assert code == 0
    assert np.allclose(out["moments"], [2, 0, 2, 0], atol=1e-12)


def test_family_golden(capsys, tmp_path):
    code, out = run_cli(
        capsys,
        ["family", "--r-roots", "7"],
        {"moments": [1, 1, 1], "n_x": 2, "n_y": 1},
        tmp_path,
    )
    assert code == 0
    assert np.allclose(sorted(out["xs"]), [1.0, 7.0], atol=1e-8)
    assert np.allclose(out["ys"], [7.0], atol=1e-8)


def test_markov_check_golden(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["markov-check"], {"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2}, tmp_path
    )
    assert code == 0
    assert out["spd"] and out["interlaced"] and out["weights_positive"]
    assert out["extended_singular"] and out["interlacing_applicable"]


def test_trig_commands_golden(capsys, tmp_path):
    code, out = run_cli(
        capsys,
        ["trig-forward", "--count", "4"],
        {"freqs": [0.0, float(np.pi)], "amps": [[1, 0], [1, 0]]},
        tmp_path,
    )
    assert code == 0
    assert np.allclose(out["moments"], [[2, 0], [0, 0], [2, 0], [0, 0]], atol=1e-12)

    code, out = run_cli(capsys, ["trig-invert", "--modes", "2"], out, tmp_path)
    assert code == 0
    assert np.allclose(out["freqs"], [0.0, np.pi], atol=1e-10)
    assert np.allclose(out["amps"], [[1, 0], [1, 0]], atol=1e-10)


@pytest.mark.parametrize("argv, doc", [
    (["trig-invert", "--modes", "1"], {"moments": [[float("inf"), 0], [1, 0]]}),
    (["trig-invert", "--modes", "1"], {"moments": [[1, 0], [1, float("nan")]]}),
    (["trig-forward", "--count", "2"], {"freqs": [float("nan")], "amps": [[1, 0]]}),
    (["trig-forward", "--count", "2"], {"freqs": [0.0], "amps": [[float("inf"), 0]]}),
], ids=["invert-inf", "invert-nan", "forward-nan-freq", "forward-inf-amp"])
def test_trig_rejects_non_finite_input(capsys, tmp_path, argv, doc):
    code, out = run_cli(capsys, argv, doc, tmp_path)
    assert code == 4
    assert out["error"]["kind"] == "BadInput"


def test_exit_code_no_solution(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["invert"], {"moments": [0, 1], "n_x": 1, "n_y": 1}, tmp_path
    )
    assert code == 2
    assert out["error"]["kind"] == "NoSolution"


def test_exit_code_non_real(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["invert"], {"moments": [0, -2], "n_x": 2, "n_y": 0}, tmp_path
    )
    assert code == 3
    assert out["error"]["kind"] == "NonRealSolution"


@pytest.mark.parametrize("argv, doc, code, error", [
    (["family", "--r-roots", "1,2,3"], README_INSTANCE, 4,
     {"kind": "FamilyOverflow", "detail": "3 matched pairs requested; family admits at most 0"}),
    (["trig-invert", "--modes", "2"], {"moments": [[1, 0]] * 4}, 2,
     {"kind": "RankDeficientSignal", "detail": "moment matrix rank 1 < requested modes 2"}),
], ids=["family-overflow", "rank-deficient-signal"])
def test_exit_code_of_library_errors(capsys, tmp_path, argv, doc, code, error):
    assert run_cli(capsys, argv, doc, tmp_path) == (code, {"error": error})


def test_exit_code_no_positive_branches(capsys, tmp_path):
    doc = {"moments": [-3, -5], "n_x": 0, "n_y": 2}
    code, out = run_cli(capsys, ["markov-check"], doc, tmp_path)
    assert code == 4
    assert out["error"] == {
        "kind": "NoPositiveBranches", "detail": "n_x = 0: no positive-branch system to build",
    }
    # every other entry point answers from the empty system
    code, out = run_cli(capsys, ["invert"], doc, tmp_path)
    assert code == 0
    assert np.allclose(out["ys"], [1.0, 2.0], atol=1e-10)


@pytest.mark.parametrize("args", [["next"], ["extend", "--count", "2"]])
def test_overflowing_moments_are_bad_input(capsys, tmp_path, args):
    code, out = run_cli(capsys, args, {"moments": [1e154, 1e154], "n_x": 1, "n_y": 1}, tmp_path)
    assert code == 4
    assert out["error"]["kind"] == "BadInput"
    assert out["error"]["detail"].startswith("m_3 is not finite")


def test_extend_stops_at_the_first_overflowing_moment(capsys, tmp_path):
    doc = {"moments": list(mk.forward_moments([3.0, 1.0], [2.0]).values), "n_x": 2, "n_y": 1}
    code, out = run_cli(capsys, ["extend", "--count", "1000000"], doc, tmp_path)
    assert (code, out) == (4, {"error": {
        "kind": "BadInput", "detail": "m_641 is not finite (nan): the continued moments overflow",
    }})


def test_markov_check_of_huge_data_reads_no_next_coefficient(capsys, tmp_path):
    # x ~ 5e153 > y ~ -5e153; a_3, which would overflow, is not needed
    code, out = run_cli(capsys, ["markov-check"], {"moments": [1e154, 1e154], "n_x": 1, "n_y": 1}, tmp_path)
    assert code == 0
    assert out["spd"] and out["interlaced"] and out["extended_singular"] and out["weights_positive"]


def test_markov_check_inverts_only_when_verbose(capsys, tmp_path):
    # x = +-i: the flags are decided at full rank without the solution,
    # which --verbose asks for and which is not real
    doc = {"moments": [0, -2], "n_x": 2, "n_y": 0}
    code, out = run_cli(capsys, ["markov-check"], doc, tmp_path)
    assert code == 0
    assert [out[k] for k in ("spd", "interlaced", "extended_singular", "weights_positive")] == [False, False, True, False]
    code, out = run_cli(capsys, ["markov-check", "--verbose"], doc, tmp_path)
    assert code == 3
    assert out["error"]["kind"] == "NonRealSolution"


def test_markov_check_at_rank_deficient_A1(capsys, tmp_path):
    # a matched pair x = y = 0.5 beside interlaced values holds no flag ...
    doc = {"moments": list(mk.forward_moments([1.0, 3.0, 0.5], [0.25, 2.0, 0.5]).values), "n_x": 3, "n_y": 3}
    code, out = run_cli(capsys, ["markov-check"], doc, tmp_path)
    assert code == 0
    assert [out[k] for k in ("spd", "interlaced", "extended_singular", "weights_positive")] == [False, False, True, False]
    # ... and beside x = 1 +- i the inversion that checks the solution raises
    code, out = run_cli(capsys, ["markov-check"], {"moments": [2, 0, -4, -8], "n_x": 3, "n_y": 1}, tmp_path)
    assert code == 3
    assert out["error"]["kind"] == "NonRealSolution"


@pytest.mark.parametrize("argv, doc, detail", [
    (["invert"], [2, 6], "top-level JSON value must be an object"),
    (["invert"], {"moments": [1, 2], "n_x": 1}, "missing fields: ['n_y']"),
    (["invert"], {"moments": "12", "n_x": 1, "n_y": 1}, "moments must be an array of numbers"),
    (["invert"], {"moments": [True, 1], "n_x": 1, "n_y": 1}, "moments must be a number"),
    (["invert"], {"moments": [1, 2], "n_x": 2.0, "n_y": 0}, "n_x must be an integer"),
    (["trig-forward", "--count", "2"], {"freqs": [0.1], "amps": [[1]]}, "amps entries must be [re, im] pairs"),
    (["trig-forward", "--count", "2"], {"freqs": [0.1], "amps": 1}, "amps must be an array of [re, im] pairs"),
    (["forward"], {"xs": [1.0], "ys": [], "count": 1}, "unknown fields: ['count']"),
    (["family", "--r-roots", "a,b"], README_INSTANCE, "bad --r-roots value 'a,b'"),
    # finite input whose moments overflow
    (["trig-forward", "--count", "2"], {"freqs": [0.5, 0.5], "amps": [[1e308, 0], [1e308, 0]]},
     "m_0 is not finite ((inf+0j)): the exponential sums overflow"),
    (["forward"], {"xs": [1e200, 0.0], "ys": []}, "m_2 is not finite (inf): the power sums overflow"),
    (["forward"], {"xs": [1e154, 1e154], "ys": []}, "m_2 is not finite (inf): the power sums overflow"),
    (["analyze"], {"moments": [1e200, 1e300], "n_x": 2, "n_y": 0},
     "a_2 is not finite (inf): the exponential transform overflows"),
    # finite moments whose minimal solution, x ~ 1e310, overflows
    (["invert"], {"moments": [1e-300, 2e10], "n_x": 1, "n_y": 1}, "the minimal solution overflows"),
], ids=[
    "array", "missing-n_y", "moments-string", "moment-true", "n_x-float", "amps-entry",
    "amps-number", "forward-count-field", "r-roots", "non-finite-output", "forward-power-overflow",
    "forward-sum-overflow", "analyze-transform-overflow", "invert-solution-overflow",
])
def test_malformed_requests_are_bad_input(capsys, tmp_path, argv, doc, detail):
    code, out = run_cli(capsys, argv, doc, tmp_path)
    assert code == 4
    assert out["error"]["kind"] == "BadInput"
    assert detail in out["error"]["detail"]


def test_json_nested_too_deeply_is_bad_input(capsys, tmp_path):
    # the decoder's RecursionError was an InternalError with exit 1
    code, out = run_cli(capsys, ["invert"], "[" * 100_000 + "]" * 100_000, tmp_path)
    assert (code, out["error"]["kind"]) == (4, "BadInput")
    assert out["error"]["detail"].startswith("invalid JSON: ")


def test_analyze_reports_a_minimal_solution_that_overflows(capsys, tmp_path):
    code, out = run_cli(capsys, ["analyze"], {"moments": [1e-300, 2e10], "n_x": 1, "n_y": 1}, tmp_path)
    assert code == 0
    assert (out["exists"], out["rank_A1"], out["d_min"], out["minimal_solution"]) == (True, 1, 0, None)


def test_unreadable_input_file_is_bad_input(capsys, tmp_path):
    code, out = run_cli(capsys, ["invert", "--input", str(tmp_path / "missing.json")])
    assert code == 4
    assert out["error"]["kind"] == "BadInput"
    assert out["error"]["detail"].startswith("cannot read input")


def test_unexpected_exception_is_internal_error(capsys, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "invert_min_degree", broken)
    code, out = run_cli(capsys, ["invert"], README_INSTANCE, tmp_path)
    assert code == 1
    assert out["error"] == {"kind": "InternalError", "detail": "RuntimeError: boom"}


def test_family_without_r_roots_is_the_minimal_solution(capsys, tmp_path):
    code, family = run_cli(capsys, ["family"], README_INSTANCE, tmp_path)
    assert code == 0
    code, minimal = run_cli(capsys, ["invert"], README_INSTANCE, tmp_path)
    assert code == 0
    assert family == minimal


def test_exit_code_malformed_json(capsys, tmp_path):
    code, out = run_cli(capsys, ["invert"], "{not json", tmp_path)
    assert code == 4
    assert out["error"]["kind"] == "BadInput"


def test_exit_code_inconsistent_split(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["invert"], {"moments": [1, 2, 3], "n_x": 1, "n_y": 1}, tmp_path
    )
    assert code == 4


def test_unknown_fields_rejected(capsys, tmp_path):
    code, out = run_cli(
        capsys,
        ["invert"],
        {"moments": [3, 5], "n_x": 2, "n_y": 0, "surprise": 1},
        tmp_path,
    )
    assert code == 4
    assert "surprise" in out["error"]["detail"]


def test_wrong_schema_rejected(capsys, tmp_path):
    code, out = run_cli(
        capsys,
        ["invert"],
        {"schema": "momentkit/2", "moments": [3, 5], "n_x": 2, "n_y": 0},
        tmp_path,
    )
    assert code == 4


def test_schema_field_round_trips(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["invert"], {"schema": "momentkit/1", "moments": [3, 5], "n_x": 2, "n_y": 0}, tmp_path
    )
    assert code == 0


def test_usage_error_exits_4(capsys, tmp_path):
    assert main(["no-such-command"]) == 4
    # argparse's message is the detail of a BadInput document on stdout;
    # the usage text stays on stderr
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert (set(error), error["kind"]) == ({"kind", "detail"}, "BadInput")
    assert error["detail"].startswith("argument command: invalid choice: 'no-such-command'")
    assert captured.err.startswith("usage: momentkit")


@pytest.mark.parametrize("argv, detail, usage", [
    ([], "the following arguments are required: command", "usage: momentkit [-h]"),
    (["no-such-command"], "argument command: invalid choice: 'no-such-command' (choose from "
     "'forward', 'transform', 'analyze', 'invert', 'next', 'extend', 'family', 'markov-check', "
     "'trig-forward', 'trig-invert')", "usage: momentkit [-h]"),
    (["invert", "--bogus"], "unrecognized arguments: --bogus", "usage: momentkit invert"),
    (["extend"], "the following arguments are required: --count", "usage: momentkit extend"),
    (["extend", "--count", "x"], "argument --count: invalid int value: 'x'", "usage: momentkit extend"),
    (["invert", "--method", "qr"], "argument --method: invalid choice: 'qr' (choose from 'geneig', 'companion')",
     "usage: momentkit invert"),
    (["analyze", "--tol", "1e-3"], "ambiguous option: --tol could match --tol-rank, --tol-zero, --tol-imag",
     "usage: momentkit analyze"),
], ids=["empty", "unknown-command", "unknown-flag", "missing-count", "bad-count", "bad-choice", "ambiguous"])
def test_usage_errors_print_a_bad_input_document(capsys, argv, detail, usage):
    # missing and unrecognized arguments are the cases that
    # exit_on_error=False leaves to sys.exit on Python 3.11
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": {"kind": "BadInput", "detail": detail}}
    assert captured.err.startswith(usage)
    assert captured.err.endswith(f": error: {detail}\n")


@pytest.mark.parametrize("argv, template, detail", [
    (["invert"], '{{"moments": [{v}, 2.0], "n_x": 1, "n_y": 1}}', "moments must be finite real numbers"),
    (["forward"], '{{"xs": [1.0, {v}], "ys": []}}', "xs must be finite real numbers"),
    (["trig-forward", "--count", "2"], '{{"freqs": [{v}], "amps": [[1, 0]]}}', "freqs must be finite real numbers"),
    (["trig-forward", "--count", "2"], '{{"freqs": [0.5], "amps": [[1, {v}]]}}', "amps must be finite complex numbers"),
    (["trig-invert", "--modes", "1"], '{{"moments": [[1, 0], [0, {v}]]}}', "moments must be finite complex numbers"),
], ids=["invert", "forward", "trig-forward-freqs", "trig-forward-amps", "trig-invert"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400], ids=["nan", "inf", "-inf", "huge"])
def test_a_number_that_is_not_finite_has_one_message_per_field(capsys, tmp_path, argv, template, detail, value):
    # a 400-digit JSON integer is an int that float() cannot convert; the
    # CLI once turned it into an InternalError, then checked it by a rule
    # of its own, so a complex field named it a real number
    payload = template.format(v=value)
    assert run_cli(capsys, argv, payload, tmp_path) == (4, {"error": {"kind": "BadInput", "detail": detail}})


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"moments": [3, 5], "n_x": 2, "n_y": 0}'))
    code = main(["invert"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert np.allclose(out["xs"], [1, 2], atol=1e-10)


def test_env_var_tolerance_and_flag_priority(capsys, tmp_path, monkeypatch):
    doc = {"moments": [1, 1, 1], "n_x": 2, "n_y": 1}
    monkeypatch.setenv("MOMENTKIT_TOL_RANK", "1e-3")
    code, out = run_cli(capsys, ["analyze"], doc, tmp_path)
    assert code == 0
    assert out["tol_rank"] == 1e-3
    code, out = run_cli(capsys, ["analyze", "--tol-rank", "1e-6"], doc, tmp_path)
    assert out["tol_rank"] == 1e-6  # flag wins over env


def test_float_serialization_is_faithful(capsys, tmp_path):
    value = 0.1234567890123456789
    code, out = run_cli(
        capsys, ["forward"], {"xs": [value], "ys": []}, tmp_path
    )
    assert code == 0
    assert out["moments"][0] == value  # the shortest repr round-trips
    # an integral float keeps its ".0" and parses back as a float
    code, out = run_cli(capsys, ["forward"], {"xs": [3.0], "ys": [1.0]}, tmp_path)
    assert code == 0
    assert out["moments"] == [2.0, 8.0]
    assert all(type(v) is float for v in out["moments"])


def test_verbose_diagnostics(capsys, tmp_path):
    code, out = run_cli(
        capsys, ["next", "--verbose"], {"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2}, tmp_path
    )
    assert code == 0
    assert out["diagnostics"]["power_sum_of_minimal_solution"] == pytest.approx(212.0)

    code, out = run_cli(
        capsys,
        ["trig-invert", "--modes", "1", "--verbose"],
        {"moments": [[1, 0], [1, 0]]},
        tmp_path,
    )
    assert code == 0
    assert out["diagnostics"]["unit_circle_deviation"][0] <= 1e-12

    code, out = run_cli(
        capsys, ["invert", "--verbose", "--method", "geneig"],
        {"moments": [1, 1, 1], "n_x": 2, "n_y": 1}, tmp_path
    )
    assert code == 0
    assert out["diagnostics"]["method"] == "geneig"
    assert out["diagnostics"]["zeros_filtered_x"] == 0


def test_next_verbose_without_real_branch_values(capsys, tmp_path):
    # x^2 + 1: the recursion continues the moments, but the comparison
    # route has no real minimal solution to sum
    code, out = run_cli(capsys, ["next", "--verbose"], {"moments": [0, -2], "n_x": 2, "n_y": 0}, tmp_path)
    assert code == 0
    assert out["next_moment"] == 0.0
    assert out["diagnostics"] == {"power_sum_of_minimal_solution": None}


def test_analyze_honours_every_tolerance(capsys, tmp_path):
    # a double root that is real only at the looser imaginary-part cutoff
    doc = {"moments": [2, 1.99999999], "n_x": 2, "n_y": 0}
    code, inverted = run_cli(capsys, ["invert", "--tol-imag", "1e-3"], doc, tmp_path)
    assert code == 0
    code, report = run_cli(capsys, ["analyze", "--tol-imag", "1e-3"], doc, tmp_path)
    assert code == 0
    assert report["minimal_solution"] is not None
    assert report["minimal_solution"]["xs"] == inverted["xs"]


@pytest.mark.parametrize("flag, value", [
    ("--tol-rank", "nan"), ("--tol-rank", "inf"), ("--tol-rank", "0"),
    ("--tol-imag", "nan"), ("--tol-zero", "-1"),
])
def test_invalid_tolerance_flag_rejected(capsys, tmp_path, flag, value):
    for command in ("invert", "analyze"):
        code, out = run_cli(capsys, [command, flag, value], README_INSTANCE, tmp_path)
        assert code == 4
        assert out["error"]["kind"] == "BadInput"


@pytest.mark.parametrize("value", ["nan", "inf", "2", "abc"])
def test_invalid_tolerance_env_rejected(capsys, tmp_path, monkeypatch, value):
    monkeypatch.setenv("MOMENTKIT_TOL_RANK", value)
    code, out = run_cli(capsys, ["invert"], README_INSTANCE, tmp_path)
    assert code == 4
    assert out["error"]["kind"] == "BadInput"


def test_parser_reuse_leaks_nothing_between_requests(capsys, tmp_path):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(README_INSTANCE))
    given = ["--input", str(path)]
    requests = [
        ["invert", "--verbose", "--tol-rank", "1e-3", *given],
        ["invert", *given],
        ["no-such-command"],
        ["--help"],
        ["extend", "--count", "2", *given],
        ["extend", *given],
        ["analyze", *given],
        # a request with a tolerance, then one without: the second reports
        # the default, so the shared DEFAULT_TOLERANCES was not replaced
        ["analyze", "--tol-rank", "1e-3", *given],
        ["analyze", *given],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _ in fresh] == [0, 0, 4, 0, 0, 4, 0, 0, 0]
    assert [json.loads(out)["tol_rank"] for _, out in fresh[-2:]] == [1e-3, 1e-12]
    for _ in range(2):
        assert [run(argv) for argv in requests] == fresh
    assert mk.tolerances.DEFAULT_TOLERANCES == mk.ToleranceSet()


def test_default_tolerances_are_shared_and_the_environment_read_per_request(monkeypatch):
    parser, _ = cli._build_parser()
    args = parser.parse_args(["analyze"])
    assert cli._tolerances(args) is mk.tolerances.DEFAULT_TOLERANCES
    monkeypatch.setenv("MOMENTKIT_TOL_RANK", "1e-3")
    assert cli._tolerances(args) == mk.ToleranceSet(rank=1e-3)
    monkeypatch.delenv("MOMENTKIT_TOL_RANK")
    assert cli._tolerances(args) is mk.tolerances.DEFAULT_TOLERANCES
    assert cli._tolerances(parser.parse_args(["analyze", "--tol-imag", "1e-3"])) == mk.ToleranceSet(imag=1e-3)


# each command with its required options, and a request it accepts
ROUTE_COMMANDS = {
    "forward": ([], {"xs": [1.0, 3.0], "ys": [0.0, 2.0]}),
    "transform": ([], README_INSTANCE),
    "analyze": ([], README_INSTANCE),
    "invert": (["--method", "geneig"], README_INSTANCE),
    "next": ([], README_INSTANCE),
    "extend": (["--count", "3"], README_INSTANCE),
    "family": (["--r-roots", "0.5"], {"moments": [1, 1, 1], "n_x": 2, "n_y": 1}),
    "markov-check": ([], README_INSTANCE),
    "trig-forward": (["--count", "6"], {"freqs": [-1.0, 0.5, 2.0], "amps": [[1, 0], [0.5, 0.5], [2, 0]]}),
    "trig-invert": (["--modes", "3"], {"moments": [
        [z.real, z.imag] for z in mk.trig_forward(mk.TrigSignal((-1.0, 0.5, 2.0), (1, 0.5 + 0.5j, 2)), 6)
    ]}),
}


@pytest.mark.parametrize("name", ["forward", "transform", "trig-forward"])
def test_commands_that_solve_nothing_take_no_tolerance(capsys, tmp_path, monkeypatch, name):
    required, doc = ROUTE_COMMANDS[name]
    # the variable is not read: "abc" was BadInput with exit 4
    monkeypatch.setenv("MOMENTKIT_TOL_RANK", "abc")
    assert cli._tolerances(cli._parse([name, *required])) is mk.tolerances.DEFAULT_TOLERANCES
    code, out = run_cli(capsys, [name, *required], doc, tmp_path)
    assert code == 0 and "error" not in out
    for flag in (["--tol-rank", "1e-6"], ["--tol-zero", "0"], ["--tol-imag", "1e-3"], ["--verbose"]):
        detail = f"unrecognized arguments: {' '.join(flag)}"
        assert run_cli(capsys, [name, *required, *flag], doc, tmp_path) == (4, {"error": {"kind": "BadInput", "detail": detail}})


@pytest.mark.parametrize("name", ["extend", "trig-invert"])
def test_commands_that_read_only_the_rank_tolerance_take_no_other(capsys, tmp_path, name):
    required, doc = ROUTE_COMMANDS[name]
    argv = [name, *required, "--tol-rank", "1e-10"]
    assert cli._tolerances(cli._parse(argv)) == mk.ToleranceSet(rank=1e-10)
    code, out = run_cli(capsys, argv + ["--verbose"], doc, tmp_path)
    assert code == 0 and "error" not in out
    # both flags were accepted and ignored
    for flag in (["--tol-zero", "0"], ["--tol-imag", "1e-3"]):
        detail = f"unrecognized arguments: {' '.join(flag)}"
        assert run_cli(capsys, [name, *required, *flag], doc, tmp_path) == (4, {"error": {"kind": "BadInput", "detail": detail}})


@pytest.mark.parametrize("name", list(ROUTE_COMMANDS))
def test_every_result_document_leads_with_the_schema(capsys, tmp_path, name):
    required, doc = ROUTE_COMMANDS[name]
    code, out = run_cli(capsys, [name, *required], doc, tmp_path)
    # main stamps the schema once, ahead of the command's own fields
    assert code == 0 and next(iter(out.items())) == ("schema", "momentkit/1")


def _route_argvs(name, required):
    """Command lines for ``name`` that the command's own parser and the
    top-level parser must read alike; FILE is the request's path."""
    yield [name, *required, "--verbose", "--input", "FILE", "--tol-rank", "1e-6"]
    yield [name, "--input", "FILE", *required]
    yield [name, f"{required[0]}={required[1]}" if required else "--tol-imag=1e-3", "--input", "FILE"]
    yield [name, *required, "--verb", "--input", "FILE"]
    yield [name, "--help"]
    yield [name, "--input"]
    yield [name, "--input", "FILE"] if required else [name, "--input", "FILE", "--tol-rank"]
    yield [name, *required, "--input", "FILE", "--bogus"]
    yield [name, *required, "--input", "FILE", "extra"]


ROUTE_CASES = [
    (name, argv) for name, (required, _) in ROUTE_COMMANDS.items() for argv in _route_argvs(name, required)
] + [
    ("invert", argv) for argv in ([], ["--help"], ["-h"], ["no-such-command"], ["--input", "FILE", "invert"])
]


def _parsed(parse, argv):
    """The namespace ``parse`` makes of ``argv``, or how it stops."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return "exit", exc.code


@pytest.mark.parametrize("name, argv", ROUTE_CASES, ids=[" ".join(argv) or "empty" for _, argv in ROUTE_CASES])
def test_the_command_table_route_parses_as_the_top_level_parser(capsys, tmp_path, monkeypatch, name, argv):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(ROUTE_COMMANDS[name][1]))
    argv = [str(path) if a == "FILE" else a for a in argv]

    def top_level(argv):
        return cli._build_parser()[0].parse_args(argv)

    own, top = _parsed(cli._parse, argv), _parsed(top_level, argv)
    if isinstance(top, dict):
        # the top-level parser adds the command's name
        assert top == {"command": argv[0], **own}
    else:
        assert own == top
    capsys.readouterr()
    # the same exit code and stdout through main, by either route
    outcomes = [(main(argv), capsys.readouterr().out)]
    monkeypatch.setattr(cli, "_parse", top_level)
    outcomes.append((main(argv), capsys.readouterr().out))
    assert outcomes[0] == outcomes[1]


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # a fresh copy of the module, so earlier tests' requests do not count
    spec = importlib.util.spec_from_file_location("momentkit._cli_copy", cli.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert built == []  # importing builds no parser

    path = tmp_path / "request.json"
    path.write_text(json.dumps(README_INSTANCE))
    assert module.main(["invert", "--input", str(path)]) == 0
    assert built
    built.clear()
    for argv in (["invert", "--verbose"], ["analyze"], ["next"], ["extend", "--count", "3"], ["extend"]) * 2:
        module.main([*argv, "--input", str(path)])
    assert built == []


def test_help_is_plain_text_for_users(capsys):
    # the description is written for the terminal, not the module docstring
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: momentkit")
    assert "``" not in out


def test_cold_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + ((os.pathsep + env["PYTHONPATH"]) if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "momentkit"]

    proc = subprocess.run(
        [*command, "invert"], input=json.dumps(README_INSTANCE),
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert np.allclose(sorted(out["xs"]), [1.0, 3.0], rtol=0, atol=1e-10)
    assert np.allclose(sorted(out["ys"]), [0.0, 2.0], rtol=0, atol=1e-10)

    proc = subprocess.run([*command, "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: momentkit")
