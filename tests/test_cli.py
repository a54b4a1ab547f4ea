import argparse
import dataclasses
import importlib.util
import io
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
    cert = mk.markov_certificate(m)
    sol = mk.invert_min_degree(m)
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


def test_a_negative_first_r_root_is_given_after_an_equals_sign(capsys, tmp_path):
    # "--r-roots -1,2" is a usage error, as argparse reads "-1,2" as an
    # option string; the --help text names this form
    doc = {"moments": [1, 1, 1, 1, 1], "n_x": 3, "n_y": 2}
    code, out = run_cli(capsys, ["family", "--r-roots=-1,2"], doc, tmp_path)
    assert (code, out) == (0, {"schema": "momentkit/1", "xs": [-1.0, 1.0, 2.0], "ys": [-1.0, 2.0], "degree": 3})
    assert main(["family", "--help"]) == 0
    assert "--r-roots=t1,t2" in " ".join(capsys.readouterr().out.split())


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


# the whole standard output of a request: key order, spacing, float form
# and the one trailing newline, which json.loads in run_cli does not see
EXACT_TEXT = [
    (["analyze"], {"moments": [1, 1, 1], "n_x": 2, "n_y": 1}, 0,
     '{"schema": "momentkit/1", "exists": true, "rank_A1": 1, "d_min": 1, "d_max": 2, "unique": false, '
     '"minimal_solution": {"xs": [1.0, 0.0], "ys": [0.0], "degree": 1}, "tol_rank": 1e-12}\n'),
    (["invert", "--verbose"], {"moments": [2, 0], "n_x": 1, "n_y": 1}, 0,
     '{"schema": "momentkit/1", "xs": [1.0], "ys": [-1.0], "degree": 1, "diagnostics": {"method": "companion", '
     '"eigenvalues_x": [[1.0, 0.0]], "eigenvalues_y": [[-1.0, 0.0]], "zeros_filtered_x": 0, "zeros_filtered_y": 0}}\n'),
    (["trig-invert", "--modes", "1", "--verbose"], {"moments": [[2, 0], [0, 2]]}, 0,
     '{"schema": "momentkit/1", "freqs": [1.5707963267948966], "amps": [[2.0, 0.0]], '
     '"diagnostics": {"eigenvalues": [[0.0, 1.0]], "unit_circle_deviation": [0.0]}}\n'),
    (["invert"], {"moments": [1, 2], "n_x": 1}, 4,
     '{"error": {"kind": "BadInput", "detail": "missing fields: [\'n_y\']"}}\n'),
    (["invert"], {"moments": [1, 2, 3], "n_x": 1, "n_y": 1}, 4,
     '{"error": {"kind": "BadInput", "detail": "n_x + n_y = 2 must equal the number of moments (3)"}}\n'),
    (["invert"], {"moments": [0, 1], "n_x": 1, "n_y": 1}, 2,
     '{"error": {"kind": "NoSolution", "detail": "first Hankel column is outside the range of the Hankel block"}}\n'),
    (["invert"], {"moments": [0, -2], "n_x": 2, "n_y": 0}, 3,
     '{"error": {"kind": "NonRealSolution", "detail": "retained roots have significant imaginary parts"}}\n'),
    (["invert", "--bogus"], README_INSTANCE, 4,
     '{"error": {"kind": "BadInput", "detail": "unrecognized arguments: --bogus"}}\n'),
]


def _fresh_cli():
    """A fresh copy of the cli module, with nothing built yet."""
    spec = importlib.util.spec_from_file_location("momentkit._cli_copy", cli.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("accelerated", [True, False], ids=["c-encoder", "python-encoder"])
@pytest.mark.parametrize("argv, doc, code, text", EXACT_TEXT, ids=[
    "analyze", "invert-verbose", "trig-invert-verbose", "cli-bad-input", "library-value-error",
    "no-solution", "non-real", "usage-error",
])
def test_output_text_is_pinned(capsys, monkeypatch, argv, doc, code, text, accelerated):
    if not accelerated:
        # an interpreter without json's C accelerator writes the same text
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    module = _fresh_cli()
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert module.main(argv) == code
    assert capsys.readouterr().out == text


def test_a_non_finite_result_is_bad_input_and_nothing_else_is_written(capsys, monkeypatch):
    # allow_nan=False is the last check of a result document
    monkeypatch.setattr(cli, "next_moment", lambda m, tol: float("inf"))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(README_INSTANCE)))
    assert main(["next"]) == 4
    out = capsys.readouterr().out
    # one line: no part of the result document was written before it failed
    assert out.count("\n") == 1 and out.endswith("\n")
    error = json.loads(out)["error"]
    assert error["kind"] == "BadInput"
    assert error["detail"].startswith("Out of range float values are not JSON compliant")


def test_one_json_encoder_is_kept_per_process(tmp_path, monkeypatch, capsys):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(README_INSTANCE))
    built = []

    class Counting(json.JSONEncoder):
        def __init__(self, **kwargs):
            built.append(1)
            super().__init__(**kwargs)

    monkeypatch.setattr(json, "JSONEncoder", Counting)
    module = _fresh_cli()
    assert built == [1]
    # result documents and error documents alike
    for argv in (["invert"], ["invert", "--verbose"], ["analyze"], ["next"], ["extend", "--count", "3"], ["extend"]) * 3:
        module.main([*argv, "--input", str(path)])
    assert capsys.readouterr().out.count("\n") == 18
    assert built == [1]


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


def test_default_tolerances_are_shared():
    parser, _ = cli._build_parser()
    assert cli._tolerances(parser.parse_args(["analyze"])) is mk.tolerances.DEFAULT_TOLERANCES
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
def test_commands_that_solve_nothing_take_no_tolerance(capsys, tmp_path, name):
    required, doc = ROUTE_COMMANDS[name]
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
    if argv and argv[0] in ROUTE_COMMANDS:
        # where the option table reads the command line, it reads it as
        # the command's own parser does
        parser, table = cli._build_parser()[1][argv[0]]
        read = cli._read_canonical(table, argv[1:])
        assert read is None or vars(read) == _parsed(parser.parse_args, argv[1:])
    capsys.readouterr()
    # the same exit code and stdout through main, by either route
    outcomes = [(main(argv), capsys.readouterr().out)]
    monkeypatch.setattr(cli, "_parse", top_level)
    outcomes.append((main(argv), capsys.readouterr().out))
    assert outcomes[0] == outcomes[1]


def _argparse_only(argv):
    """``argv`` parsed by argparse alone: by its command's own parser,
    found by name, or by the top-level parser."""
    parser, commands = cli._build_parser()
    own = commands.get(argv[0]) if argv else None
    return own[0].parse_args(argv[1:]) if own else parser.parse_args(argv)


def _accepted(action):
    """Tokens that ``action``'s option takes as its value."""
    if action.choices is not None:
        return list(action.choices)
    if action.type is int:
        return ["1", "2", "3"]
    if action.type is float:
        return ["1e-6", "0.5", "0"]
    return ["FILE"] if action.dest == "input" else ["0.5", "", "0.5,0.25"]


def _rejected(action):
    """A token that ``action``'s option rejects as its value, or None."""
    if action.choices is not None:
        return "foo"
    return {int: "x", float: "abc"}.get(action.type)


def _negative(action):
    return {int: "-2", float: "-1e-3"}.get(action.type, "-1,2" if action.dest == "r_roots" else "-")


# a change to a canonical command line, made in place: whether the line
# stays canonical, or None where the change does not apply to it
def _mutate(kind, groups, options, rng):
    pick = lambda seq: seq[rng.integers(len(seq))]  # noqa: E731
    known = [g for g in groups if g[0] in options]  # not changed yet
    valued = [g for g in known if len(g) == 2]
    at = int(rng.integers(len(groups) + 1))
    if kind == "equals" and valued:
        g = pick(valued)
        g[:] = [f"{g[0]}={g[1]}"]
    elif kind == "abbreviation" and known:
        g = pick(known)
        g[0] = g[0][:int(rng.integers(3, len(g[0])))]
    elif kind == "repeat" and known:
        g = pick(known)
        groups.insert(at, [g[0], pick(_accepted(options[g[0]]))] if len(g) == 2 else [g[0]])
    elif kind == "negative" and valued:
        g = pick(valued)
        g[1] = _negative(options[g[0]])
    elif kind == "option-as-value" and valued:
        g = pick(valued)
        g[1] = "--verbose" if "--verbose" in options else "--input"
    elif kind == "rejected" and any(_rejected(options[g[0]]) for g in valued):
        g = pick([g for g in valued if _rejected(options[g[0]])])
        g[1] = _rejected(options[g[0]])
    elif kind == "empty" and valued:
        g = pick(valued)
        g[1] = ""
        # canonical where the option converts nothing
        return options[g[0]].type is None and options[g[0]].choices is None
    elif kind == "missing-value" and valued:
        g = pick(valued)
        groups.remove(g)
        groups.append([g[0]])
    elif kind == "missing-required" and any(options[g[0]].required for g in known):
        dropped = pick([g for g in known if options[g[0]].required])[0]
        groups[:] = [g for g in groups if g[0] != dropped]
    elif kind in ("--", "extra", "-h", "--help", "--bogus"):
        groups.insert(at, [kind])
    else:
        return None
    return kind == "repeat"


MUTATIONS = [
    "equals", "abbreviation", "repeat", "negative", "option-as-value", "rejected", "empty",
    "missing-value", "missing-required", "--", "extra", "-h", "--help", "--bogus",
]


# the forms the table route hands to argparse or takes, named one by one
NAMED_LINES = [
    (["analyze", "--tol-rank", "-1e-3"], False),
    (["family", "--r-roots", "-1,2"], False),
    (["invert", "--input", "--verbose"], False),
    (["extend", "--count", "x"], False),
    (["extend", "--count", ""], False),
    (["invert", "--method", "foo"], False),
    (["extend", "--count=3"], False),
    (["extend", "--cou", "3"], False),
    (["invert", "--verb"], False),
    (["invert", "--", "--verbose"], False),
    (["invert", "--verbose", "extra"], False),
    (["trig-invert", "--tol-rank", "1e-6"], False),
    (["family", "--r-roots", ""], True),
    (["invert", "--input", ""], True),
    (["extend", "--count", "2", "--verbose", "--count", "3", "--verbose"], True),
    (["invert", "--method", "geneig", "--method", "companion"], True),
]


def _corpus(name, seed, size=42):
    """Command lines for ``name``, each with whether it is canonical: the
    named ones, then seeded ones, every third one as generated and the
    rest changed by one mutation in turn and, for one in two, by a second
    one at random."""
    yield from ((argv, canonical) for argv, canonical in NAMED_LINES if argv[0] == name)
    parser, _ = cli._build_parser()[1][name]
    options = {s: a for a in parser._actions if a.option_strings and a.dest != "help" for s in a.option_strings}
    rng = np.random.default_rng(seed)
    for i in range(size):
        groups = []
        for opt, action in options.items():
            if action.required or rng.random() < 0.4:
                accepted = _accepted(action) if action.nargs != 0 else None
                groups.append([opt, accepted[rng.integers(len(accepted))]] if accepted else [opt])
        groups = [groups[j] for j in rng.permutation(len(groups))]
        canonical = True
        if i % 3:
            kinds = [MUTATIONS[i % len(MUTATIONS)]] + ([MUTATIONS[rng.integers(len(MUTATIONS))]] if i % 2 else [])
            for kind in kinds:
                if _mutate(kind, groups, options, rng) is False:
                    canonical = False
        yield [name, *(token for g in groups for token in g)], canonical


@pytest.mark.parametrize("seed, name", list(enumerate(ROUTE_COMMANDS, start=3200)), ids=list(ROUTE_COMMANDS))
def test_the_option_table_reads_what_argparse_reads(capsys, tmp_path, monkeypatch, seed, name):
    doc = json.dumps(ROUTE_COMMANDS[name][1])
    path = tmp_path / "request.json"
    path.write_text(doc)
    parser, table = cli._build_parser()[1][name]
    read = []
    for argv, canonical in _corpus(name, seed):
        argv = [str(path) if a == "FILE" else a for a in argv]
        # the table takes the canonical command lines and only them, and
        # reads each as the command's own parser does
        got = cli._read_canonical(table, argv[1:])
        assert (got is not None) == canonical, argv
        if got is not None:
            assert vars(got) == _parsed(parser.parse_args, argv[1:]), argv
            read.append(argv)
        capsys.readouterr()
        # the same exit code, stdout and stderr through main, by either route
        outcomes = []
        for parse in (cli._parse, _argparse_only):
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse", parse)
                m.setattr("sys.stdin", io.StringIO(doc))
                outcomes.append((main(argv), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv
    assert len(read) >= 14


@pytest.mark.parametrize("name", list(ROUTE_COMMANDS))
def test_every_subcommand_declares_only_what_the_walk_reads(name):
    # _option_table reads the actions as they are: a declaration outside
    # this vocabulary fails here, not at a user's command line
    parser, (options, _, _) = cli._build_parser()[1][name]
    assert parser._mutually_exclusive_groups == []
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    for action in actions:
        assert action.option_strings, f"positional {action.dest}"
        if type(action) is not argparse._StoreTrueAction:
            assert type(action) is argparse._StoreAction, action
            assert action.nargs is None and action.type in (None, int, float), action
            # argparse converts a string default by the type; the table does not
            assert action.type is None or not isinstance(action.default, str), action
    # one action per destination, as the table's defaults assume
    assert len({a.dest for a in actions}) == len(actions)
    # every option string but -h/--help, which reaches argparse
    assert options == {s: a for a in actions for s in a.option_strings}


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # a fresh copy of the module, so earlier tests' requests do not count
    module = _fresh_cli()
    assert built == []  # importing builds no parser

    path = tmp_path / "request.json"
    path.write_text(json.dumps(README_INSTANCE))
    assert module.main(["invert", "--input", str(path)]) == 0
    assert built
    built.clear()
    for argv in (["invert", "--verbose"], ["analyze"], ["next"], ["extend", "--count", "3"], ["extend"]) * 2:
        module.main([*argv, "--input", str(path)])
    assert built == []


def test_canonical_requests_reach_no_argparse_parse(capsys, tmp_path, monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for name, (required, doc) in ROUTE_COMMANDS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main([name, *required, "--input", str(path)]) == 0
    assert calls == []
    path = tmp_path / "request.json"
    path.write_text(json.dumps(README_INSTANCE))
    for argv, code in [
        (["extend", "--help"], 0),
        (["invert", "--verb", "--input", str(path)], 0),
        (["extend", "--count=3", "--input", str(path)], 0),
        (["extend", "--count", "x", "--input", str(path)], 4),
    ]:
        assert main(argv) == code
        assert calls == [f"momentkit {argv[0]}"], argv
        calls.clear()
    capsys.readouterr()


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
