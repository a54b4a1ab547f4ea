"""Command-line front end with a versioned JSON interchange format.

One invocation processes one request: a JSON object on standard input
(or ``--input FILE``) goes in, a JSON object comes out on standard
output.  Floating-point values are emitted in Python's shortest repr
that round-trips, so parsing them back gives the same bits.

Exit codes: 0 success; 2 no solution, and every other failure of the
data not listed here; 3 non-real solution, which ``markov-check``
answers only with ``--verbose`` (the minimal solution is attached) or
where A1 is rank-deficient, since at full rank its flags need no
solution; 4 malformed input, which includes moments that overflow (from
``forward``, ``trig-forward`` or the exponential transform), a minimal
solution beyond the float range, more ``family`` matched pairs than the
data admits, and ``markov-check`` with no positive branches; 1 internal
error.  Every failure is reported on standard output as {"error":
{"kind", "detail"}}, where kind is ``BadInput`` for malformed input and
otherwise the library error's class name.  A malformed command line is
malformed input: its detail is argparse's message, and argparse's usage
text goes to standard error.  ``--help`` exits 0.

``main`` may be called many times in one process.  Its parsers are built
on the first call (``_build_parser``) and reused; a request is parsed by
its subcommand's own parser, found by name, and only ``--help``, an
empty command line and an unknown subcommand reach the top-level parser.
A command takes only the flags it reads.  ``forward``, ``transform`` and
``trig-forward`` solve nothing: they take ``--input`` only and read no
``MOMENTKIT_TOL_RANK``.  ``extend`` and ``trig-invert`` read the rank
tolerance alone, so they take ``--tol-rank`` but not ``--tol-zero`` or
``--tol-imag``.  A request that gives no tolerance shares
``DEFAULT_TOLERANCES``, and every document is written by one JSON
encoder.

A handler returns the fields of its result, and ``main`` puts
``"schema": "momentkit/1"`` in front of them, once for every command.
Result fields are the library's result dataclasses, field by field in
declaration order (``BranchSolution``, ``SolvabilityReport``,
``MarkovCertificate``), so a field added to one of them becomes an
additive ``momentkit/1`` output field.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .errors import FamilyOverflow, MomentProblemError, NonRealSolution, NoPositiveBranches
from .inversion import _METHODS, extend_moments, family_member, invert_min_degree, next_moment
from .markov import markov_certificate
from .structure import analyze
from .tolerances import DEFAULT_IMAG, DEFAULT_RANK, DEFAULT_TOLERANCES, ToleranceSet
from .transform import MomentSequence, _as_complex_tuple, _as_count, _power_sum, exp_transform, forward_moments
from .trig import TrigSignal, trig_forward, trig_invert

SCHEMA = "momentkit/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NO_SOLUTION = 2
EXIT_NON_REAL = 3
EXIT_BAD_INPUT = 4


# ---------------------------------------------------------------------------
# JSON emission: result dataclasses as objects, floats in shortest
# round-trip form; a non-finite float raises ValueError

@functools.cache
def _encoder() -> json.JSONEncoder:
    """One encoder for every request, made on the first ``_emit``."""
    return json.JSONEncoder(default=_fields, allow_nan=False)


def _emit(obj) -> str:
    return _encoder().encode(obj)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# strict input readers

def _check_fields(doc, required: set[str], optional: set[str]):
    if not isinstance(doc, dict):
        raise ValueError("top-level JSON value must be an object")
    allowed = required | optional | {"schema"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"unknown fields: {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ValueError(f"missing fields: {missing}")
    if "schema" in doc and doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported schema {doc['schema']!r}; expected {SCHEMA!r}")


def _number(v, where: str) -> int | float:
    """``v`` as JSON decoded it, if it is a number and not a bool.  Whether
    it is finite and within the float range is the library's entry check,
    so each field has one message for NaN, Infinity and an integer
    literal beyond the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{where} must be a number")
    return v


def _number_list(v, where: str) -> list[int | float]:
    if not isinstance(v, list):
        raise ValueError(f"{where} must be an array of numbers")
    return [_number(x, where) for x in v]


def _complex_list(v, where: str) -> tuple[complex, ...]:
    if not isinstance(v, list):
        raise ValueError(f"{where} must be an array of [re, im] pairs")
    for x in v:
        if not (isinstance(x, list) and len(x) == 2):
            raise ValueError(f"{where} entries must be [re, im] pairs")
        for part in x:
            _number(part, where)
    # each pair made complex inside the field's own check, so a part
    # beyond the float range overflows there and has the field's message
    return _as_complex_tuple((complex(re, im) for re, im in v), where)


def _read_moments(doc) -> MomentSequence:
    _check_fields(doc, {"moments", "n_x", "n_y"}, set())
    # the constructor checks that the branch counts are integers
    return MomentSequence(tuple(_number_list(doc["moments"], "moments")), doc["n_x"], doc["n_y"])


def _read_branches(doc) -> tuple[list[float], list[float]]:
    _check_fields(doc, {"xs", "ys"}, {"degree"})
    xs = _number_list(doc["xs"], "xs")
    ys = _number_list(doc["ys"], "ys")
    if "degree" in doc:
        _as_count(doc["degree"], "degree")  # accepted for round-trips, not used
    return xs, ys


# ---------------------------------------------------------------------------
# output builders

def _fields(result) -> dict:
    """The fields of a result dataclass, in order; a shallow walk, since
    ``dataclasses.asdict`` deep-copies every value."""
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


def _moment_doc(m: MomentSequence) -> dict:
    return {"moments": list(m.values), "n_x": m.n_x, "n_y": m.n_y}


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the output fields; ``main`` stamps
# the schema)

def _cmd_forward(doc, args, tol):
    return _moment_doc(forward_moments(*_read_branches(doc)))


def _cmd_transform(doc, args, tol):
    m = _read_moments(doc)
    return {"a": list(exp_transform(m).values)}


def _cmd_analyze(doc, args, tol):
    return _fields(analyze(_read_moments(doc), tol=tol))


def _cmd_invert(doc, args, tol):
    sol, info = invert_min_degree(_read_moments(doc), method=args.method, tol=tol, full_output=True)
    out = _fields(sol)
    if args.verbose:
        out["diagnostics"] = {
            "method": info["method"],
            "eigenvalues_x": [_complex_pair(z) for z in info["x"]["eigenvalues"]],
            "eigenvalues_y": [_complex_pair(z) for z in info["y"]["eigenvalues"]],
            "zeros_filtered_x": info["x"]["zeros_filtered"],
            "zeros_filtered_y": info["y"]["zeros_filtered"],
        }
    return out


def _cmd_next(doc, args, tol):
    m = _read_moments(doc)
    value = next_moment(m, tol=tol)
    out = {"next_moment": value}
    if args.verbose:
        # second route for comparison, on the factorization next_moment
        # kept on m; unavailable when the branch values are not real even
        # though the recursion itself is fine
        try:
            sol = invert_min_degree(m, tol=tol)
            k = m.K + 1
            power_sum = _power_sum(sol.xs, k) - _power_sum(sol.ys, k)
        except MomentProblemError:
            power_sum = None
        out["diagnostics"] = {"power_sum_of_minimal_solution": power_sum}
    return out


def _cmd_extend(doc, args, tol):
    m = _read_moments(doc)
    extended = extend_moments(m, args.count, tol=tol)
    return {"moments": list(extended)}


def _parse_roots(text: str) -> list[float]:
    if not text.strip():
        return []
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad --r-roots value {text!r}") from exc


def _cmd_family(doc, args, tol):
    m = _read_moments(doc)
    minimal = invert_min_degree(m, tol=tol)
    return _fields(family_member(minimal, _parse_roots(args.r_roots)))


def _cmd_markov_check(doc, args, tol):
    result = markov_certificate(_read_moments(doc), tol=tol, full_output=args.verbose)
    if not args.verbose:
        return _fields(result)
    cert, info = result
    sol = info["minimal_solution"]
    return {**_fields(cert), "diagnostics": {"minimal_solution": {"xs": sol.xs, "ys": sol.ys}}}


def _cmd_trig_forward(doc, args, tol):
    _check_fields(doc, {"freqs", "amps"}, set())
    sig = TrigSignal(
        tuple(_number_list(doc["freqs"], "freqs")),
        _complex_list(doc["amps"], "amps"),
    )
    moments = trig_forward(sig, args.count)
    return {"moments": [_complex_pair(z) for z in moments]}


def _cmd_trig_invert(doc, args, tol):
    _check_fields(doc, {"moments"}, set())
    moments = _complex_list(doc["moments"], "moments")
    sig, info = trig_invert(moments, args.modes, tol=tol, full_output=True)
    out = {"freqs": list(sig.freqs), "amps": [_complex_pair(a) for a in sig.amps]}
    if args.verbose:
        out["diagnostics"] = {
            "eigenvalues": [_complex_pair(z) for z in info["eigenvalues"]],
            "unit_circle_deviation": info["unit_circle_deviation"],
        }
    return out


# the library errors whose exit code is not EXIT_NO_SOLUTION
_EXIT_BY_ERROR = {
    NonRealSolution: EXIT_NON_REAL,
    FamilyOverflow: EXIT_BAD_INPUT,
    NoPositiveBranches: EXIT_BAD_INPUT,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are reported as every other
    malformed request is, with argparse's message as the detail, before
    argparse prints its usage text on stderr and exits."""

    def error(self, message):
        _fail("BadInput", message, EXIT_BAD_INPUT)
        super().error(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level argument parser and each subcommand's own parser by
    name, built on the first ``main`` call and reused.

    Reuse is safe: ``parse_args`` returns a fresh ``Namespace`` on every
    call and never mutates a parser, and nothing calls ``add_argument``
    or ``set_defaults`` once they are built.  They are not built at
    import, so a process that imports momentkit and makes no request
    pays nothing for them.

    Each subcommand is declared here once: its parser binds its handler
    as ``args.run`` and is entered in the table that ``main`` dispatches
    on.  The top-level parser declares the same subcommands for
    ``--help`` and for its usage errors.
    """
    # forward, transform and trig-forward take --input only; extend and
    # trig-invert read the rank tolerance alone
    io = _Parser(add_help=False)
    io.add_argument("--input", metavar="FILE", help="read the JSON request from FILE instead of stdin")
    rank = _Parser(add_help=False, parents=[io])
    rank.add_argument("--tol-rank", type=float, default=None, help=f"relative rank tolerance (default {DEFAULT_RANK:g}; env MOMENTKIT_TOL_RANK)")
    common = _Parser(add_help=False, parents=[rank])
    common.add_argument("--tol-zero", type=float, default=None, help="absolute cutoff for structural zero roots of both sides (default 1e-8 * max_k |m_k|^(1/k))")
    common.add_argument("--tol-imag", type=float, default=None, help=f"imaginary-part tolerance for real roots (default {DEFAULT_IMAG:g})")
    for parent in (rank, common):
        parent.add_argument("--verbose", action="store_true", help="attach diagnostics to the output object")

    parser = _Parser(prog="momentkit", description=(
        "Solve finite moment problems: one JSON request in (stdin or --input FILE), one JSON result "
        "out (stdout). Exit codes: 0 success, 1 internal error, 2 no solution, 3 non-real solution, "
        "4 malformed input."))
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, run, help, parent=common):
        p = commands[name] = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(run=run)
        return p

    command("forward", _cmd_forward, "branch values -> moments", io)
    command("transform", _cmd_transform, "moments -> exponential-transform coefficients", io)
    command("analyze", _cmd_analyze, "moments -> solvability report")
    p = command("invert", _cmd_invert, "moments -> minimal-degree branch solution")
    p.add_argument("--method", choices=_METHODS, default="companion")
    command("next", _cmd_next, "moments -> next moment")
    p = command("extend", _cmd_extend, "moments -> extended moment sequence", rank)
    p.add_argument("--count", type=int, required=True, help="number of additional moments")
    p = command("family", _cmd_family, "moments -> family member with matched pairs appended")
    p.add_argument("--r-roots", default="", help="comma-separated matched-pair values")
    command("markov-check", _cmd_markov_check, "moments -> Markov certificates")
    p = command("trig-forward", _cmd_trig_forward, "trig signal -> complex moments", io)
    p.add_argument("--count", type=int, required=True, help="number of moments")
    p = command("trig-invert", _cmd_trig_invert, "complex moments -> trig signal", rank)
    p.add_argument("--modes", type=int, required=True, help="number of modes r (input has 2r moments)")
    return parser, commands


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed by its command's own parser, which gives the
    namespace of the top-level parser without its ``command`` entry at a
    fraction of the cost; ``--help``, an empty argv and an unknown
    command go to the top-level parser."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    own = commands.get(argv[0]) if argv else None
    return own.parse_args(argv[1:]) if own else parser.parse_args(argv)


def _tolerances(args) -> ToleranceSet:
    if "tol_rank" not in args:  # a command that solves nothing
        return DEFAULT_TOLERANCES
    rank = args.tol_rank
    if rank is None:
        env = os.environ.get("MOMENTKIT_TOL_RANK")
        if env is not None:
            try:
                rank = float(env)
            except ValueError as exc:
                raise ValueError(f"bad MOMENTKIT_TOL_RANK value {env!r}") from exc
    # extend and trig-invert take no --tol-zero or --tol-imag
    given = {"rank": rank, "zero": getattr(args, "tol_zero", None), "imag": getattr(args, "tol_imag", None)}
    given = {name: v for name, v in given.items() if v is not None}
    # the shared defaults, unless a threshold is given
    return ToleranceSet(**given) if given else DEFAULT_TOLERANCES


def _fail(kind: str, detail: str, code: int) -> int:
    print(_emit({"error": {"kind": kind, "detail": detail}}))
    return code


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help; anything else is a malformed request
        return EXIT_OK if exc.code == 0 else EXIT_BAD_INPUT

    try:
        tol = _tolerances(args)
        if args.input is not None:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
            raise ValueError(f"invalid JSON: {exc}") from exc
        print(_emit({"schema": SCHEMA, **args.run(doc, args, tol)}))
        return EXIT_OK
    except OSError as exc:
        return _fail("BadInput", f"cannot read input: {exc}", EXIT_BAD_INPUT)
    except MomentProblemError as exc:
        return _fail(type(exc).__name__, str(exc), _EXIT_BY_ERROR.get(type(exc), EXIT_NO_SOLUTION))
    # every malformed request, whether the CLI or the library finds it
    except ValueError as exc:
        return _fail("BadInput", str(exc), EXIT_BAD_INPUT)
    except Exception as exc:  # noqa: BLE001  - the CLI must not traceback
        return _fail("InternalError", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
