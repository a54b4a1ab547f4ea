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
error, and a reply that standard output cannot take.  Every other
failure is reported on standard output as {"error": {"kind",
"detail"}}, where kind is ``BadInput`` for malformed input and
otherwise the library error's class name.  A malformed command line is
malformed input: its detail is argparse's message, and argparse's usage
text goes to standard error.  ``--help`` exits 0.

``main`` may be called many times in one process.  Its parsers are built
on the first call (``_build_parser``) and reused, each subcommand's with
an option table read off the actions it declares.  A canonical command
line (exact option strings, each valued option followed by its own
value, every value valid and every required option given) is read by
one walk over its subcommand's table (``_read_canonical``), into the
namespace argparse would make of it.  The walk knows the flags and the
options storing one value that the subcommands declare, and a test in
``tests/test_cli.py`` fails on any other declaration.  Any other command
line of a known subcommand is parsed by that subcommand's own parser,
found by name: ``-h``, an abbreviation, ``--opt=value``, a value that
starts with ``-``, ``--``, a positional and every usage error.  Only ``--help``, an
empty command line and an unknown subcommand reach the top-level parser.
A command takes only the tolerance flags it reads.  ``forward``,
``transform`` and ``trig-forward`` solve nothing: they take ``--input``
only.  ``extend`` and ``trig-invert`` read the rank tolerance alone, so
they take ``--tol-rank`` but not ``--tol-zero`` or ``--tol-imag``.  The
seven solving commands take ``--verbose``: ``invert``, ``next``,
``markov-check`` and ``trig-invert`` attach ``diagnostics`` under it
(``invert`` asks the library for them only then), and ``analyze``,
``extend`` and ``family`` attach none yet.  Each tolerance has one
source, its ``--tol-*`` flag, and a request that gives none shares
``DEFAULT_TOLERANCES``.

Past its command line, a request costs its library call, its JSON text
and little else.  The request text is read by ``json.loads``.  A
document of exactly its required fields passes ``_check_fields`` by one
comparison of key sets.  The reply is encoded by one ``json.JSONEncoder``
kept for the process, which checks for no cycle (a document made for
one request holds none), and written by one ``write`` in ``main``.
Nothing kept between requests grows with the requests made.

A handler returns the fields of its result, and ``_reply`` puts
``"schema": "momentkit/1"`` in front of them, once for every command.
Result fields are the library's result dataclasses, field by field in
declaration order (``BranchSolution``, ``SolvabilityReport``,
``MarkovCertificate``), their names read once per class, so a field
added to one of them becomes an additive ``momentkit/1`` output field.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

from .errors import FamilyOverflow, MomentProblemError, NonRealSolution, NoPositiveBranches
from .inversion import _METHODS, extend_moments, family_member, invert_min_degree, next_moment
from .markov import markov_certificate
from .structure import analyze
from .tolerances import DEFAULT_IMAG, DEFAULT_RANK, DEFAULT_TOLERANCES, DEFAULT_ZERO_FACTOR, ToleranceSet
from .transform import BranchSolution, MomentSequence, _as_count, _as_float_tuple, _power_sum, exp_transform, forward_moments
from .trig import TrigSignal, trig_forward, trig_invert

SCHEMA = "momentkit/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NO_SOLUTION = 2
EXIT_NON_REAL = 3
EXIT_BAD_INPUT = 4


# ---------------------------------------------------------------------------
# JSON reading and writing: result dataclasses as objects, floats in
# shortest round-trip form; a non-finite float raises ValueError

@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The field names of a result dataclass, in order, read once per class."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _fields(result) -> dict:
    """The fields of a result dataclass, in order; a shallow walk, since
    ``dataclasses.asdict`` deep-copies every value."""
    return {name: getattr(result, name) for name in _field_names(type(result))}


# the encoder of every reply, kept for the process; a document made for
# one request holds no cycle, so it is encoded without cycle checks
_ENCODER = json.JSONEncoder(default=_fields, allow_nan=False, check_circular=False)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# strict input readers

# the required fields of each request document; every one may carry
# "schema", and a branch document "degree"
_MOMENT_FIELDS = frozenset(("moments", "n_x", "n_y"))
_BRANCH_FIELDS = frozenset(("xs", "ys"))
_SIGNAL_FIELDS = frozenset(("freqs", "amps"))
_TRIG_MOMENT_FIELDS = frozenset(("moments",))


def _check_fields(doc, required: frozenset[str], optional: set[str] | frozenset[str] = frozenset()):
    # a document of exactly the required fields needs no other test
    if type(doc) is dict and doc.keys() == required:
        return
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


# the number types JSON decodes to; it also yields bool, str, None, list
# and dict, and ``type`` tells a bool from an int
_NUMBER_TYPES = frozenset((int, float))


def _number_list(v, where: str) -> list[int | float]:
    if not isinstance(v, list):
        raise ValueError(f"{where} must be an array of numbers")
    if _NUMBER_TYPES.issuperset(map(type, v)):
        return v
    # anything else is checked entry by entry, for _number's message
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
    return _as_float_tuple(itertools.starmap(complex, v), where, complex)


def _read_moments(doc) -> MomentSequence:
    _check_fields(doc, _MOMENT_FIELDS)
    # the constructor checks that the branch counts are integers
    return MomentSequence(tuple(_number_list(doc["moments"], "moments")), doc["n_x"], doc["n_y"])


def _read_branches(doc) -> tuple[list[float], list[float]]:
    _check_fields(doc, _BRANCH_FIELDS, {"degree"})
    xs = _number_list(doc["xs"], "xs")
    ys = _number_list(doc["ys"], "ys")
    if "degree" in doc:
        # accepted for round-trips, and checked as BranchSolution checks
        # it: the count of nonzero xs
        BranchSolution(xs, ys, _as_count(doc["degree"], "degree"))
    return xs, ys


# ---------------------------------------------------------------------------
# output builders

def _moment_doc(m: MomentSequence) -> dict:
    return {"moments": list(m.values), "n_x": m.n_x, "n_y": m.n_y}


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the output fields; ``_reply`` stamps
# the schema)

def _cmd_forward(doc, args, tol):
    return _moment_doc(forward_moments(*_read_branches(doc)))


def _cmd_transform(doc, args, tol):
    m = _read_moments(doc)
    return {"a": list(exp_transform(m).values)}


def _cmd_analyze(doc, args, tol):
    return _fields(analyze(_read_moments(doc), tol=tol))


def _cmd_invert(doc, args, tol):
    m = _read_moments(doc)
    if not args.verbose:
        return _fields(invert_min_degree(m, method=args.method, tol=tol))
    sol, info = invert_min_degree(m, method=args.method, tol=tol, full_output=True)
    out = _fields(sol)
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
    m = _read_moments(doc)
    out = _fields(markov_certificate(m, tol=tol))
    if args.verbose:
        # read off the system the certificate decided on m
        sol = invert_min_degree(m, tol=tol)
        out["diagnostics"] = {"minimal_solution": {"xs": sol.xs, "ys": sol.ys}}
    return out


def _cmd_trig_forward(doc, args, tol):
    _check_fields(doc, _SIGNAL_FIELDS)
    sig = TrigSignal(
        tuple(_number_list(doc["freqs"], "freqs")),
        _complex_list(doc["amps"], "amps"),
    )
    moments = trig_forward(sig, args.count)
    return {"moments": [_complex_pair(z) for z in moments]}


def _cmd_trig_invert(doc, args, tol):
    _check_fields(doc, _TRIG_MOMENT_FIELDS)
    moments = _complex_list(doc["moments"], "moments")
    # the diagnostics are asked for only when they are attached
    result = trig_invert(moments, args.modes, tol=tol, full_output=args.verbose)
    sig, info = result if args.verbose else (result, None)
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


class _UsageError(ValueError):
    """A malformed command line: malformed input, with argparse's message."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are reported as every other
    malformed request is, with argparse's message as the detail, after
    argparse has printed its usage text on stderr."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit:
            raise _UsageError(message) from None


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level argument parser, and by name each subcommand's own
    parser with its option table (``_option_table``), built on the first
    ``main`` call and reused.

    Reuse is safe: ``parse_args`` returns a fresh ``Namespace`` on every
    call and never mutates a parser, and nothing calls ``add_argument``
    or ``set_defaults`` once they are built.  They are not built at
    import, so a process that imports momentkit and makes no request
    pays nothing for them.

    Each subcommand is declared here once: its parser binds its handler
    as ``args.run`` and is entered in the table that ``_parse`` dispatches
    on, and its option table is read off the actions it declares, in the
    vocabulary that ``_option_table`` names and a test holds.  The
    top-level parser declares the same subcommands for ``--help`` and
    for its usage errors.
    """
    # forward, transform and trig-forward take --input only; extend and
    # trig-invert read the rank tolerance alone
    io = _Parser(add_help=False)
    io.add_argument("--input", metavar="FILE", help="read the JSON request from FILE instead of stdin")
    rank = _Parser(add_help=False, parents=[io])
    rank.add_argument("--tol-rank", type=float, default=None, help=f"relative rank tolerance (default {DEFAULT_RANK:g})")
    common = _Parser(add_help=False, parents=[rank])
    common.add_argument("--tol-zero", type=float, default=None, help=f"absolute cutoff for structural zero roots of both sides (default {DEFAULT_ZERO_FACTOR:g} * max_k |m_k|^(1/k))")
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
    p.add_argument("--r-roots", default="", help="comma-separated matched-pair values; write --r-roots=t1,t2 when the first is negative")
    command("markov-check", _cmd_markov_check, "moments -> Markov certificates")
    p = command("trig-forward", _cmd_trig_forward, "trig signal -> complex moments", io)
    p.add_argument("--count", type=int, required=True, help="number of moments")
    p = command("trig-invert", _cmd_trig_invert, "complex moments -> trig signal", rank)
    p.add_argument("--modes", type=int, required=True, help="number of modes r (input has 2r moments)")
    return parser, {name: (p, _option_table(p)) for name, p in commands.items()}


def _option_table(parser: argparse.ArgumentParser) -> tuple:
    """What ``_read_canonical`` needs of ``parser``, read off the actions
    it declares: the action of each option string, the namespace's
    defaults in argparse's order (the actions', then the parser's own)
    and the destinations of the required options.  ``-h``/``--help`` has
    no entry, so it always reaches argparse.

    The walk stands in for a flag (``store_true``) and an option that
    stores one value, converted by no type, ``int`` or ``float``; no
    subcommand declares a positional, ``nargs``, ``append`` and the like,
    a mutually exclusive group, or a string default that argparse would
    convert by the action's type.
    ``test_every_subcommand_declares_only_what_the_walk_reads`` holds
    that vocabulary."""
    options = {s: a for a in parser._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings}
    defaults = {a.dest: a.default for a in parser._actions if a.default is not argparse.SUPPRESS}
    for dest, default in parser._defaults.items():
        defaults.setdefault(dest, default)
    return options, defaults, frozenset(action.dest for action in options.values() if action.required)


def _read_canonical(table, args) -> argparse.Namespace | None:
    """The namespace argparse makes of ``args``, the command line after
    the subcommand's name, when it is canonical; None when it is not.

    Canonical means: every token is an exact option string of the
    table, each valued option is followed by its own value, which does
    not start with ``-``, converts by the action's ``type`` and lies in
    its ``choices``, and every required option is given.  A repeated
    option keeps its last value, as in argparse.  Anything else, from an
    abbreviation or ``--opt=value`` to a usage error, is argparse's to
    parse or to report."""
    options, defaults, required = table
    given = {}
    tokens = iter(args)
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            given[action.dest] = action.const
            continue
        text = next(tokens, "-")  # a missing value is not canonical
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if not required.issubset(given):
        return None
    # made without Namespace.__init__, a Python loop of setattr calls, and
    # filled through its __dict__
    parsed = argparse.Namespace.__new__(argparse.Namespace)
    values = parsed.__dict__
    values.update(defaults)
    values.update(given)
    return parsed


def _parse(argv) -> argparse.Namespace:
    """``argv`` read by its command's option table when it is canonical,
    and otherwise parsed by the command's own parser; either gives the
    namespace of the top-level parser without its ``command`` entry, at a
    fraction of the cost.  ``--help``, an empty argv and an unknown
    command go to the top-level parser."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    own, table = commands[argv[0]]
    args = argv[1:]
    parsed = _read_canonical(table, args)
    return parsed if parsed is not None else own.parse_args(args)


# each ToleranceSet field and the destination of its flag
_TOLERANCE_DESTS = (("rank", "tol_rank"), ("zero", "tol_zero"), ("imag", "tol_imag"))


def _tolerances(args) -> ToleranceSet:
    """The tolerances given by the ``--tol-*`` flags of ``args``, of
    those its command declares; ``DEFAULT_TOLERANCES``, shared by every
    request, when it gives none."""
    values = vars(args)
    given = {name: values[dest] for name, dest in _TOLERANCE_DESTS if values.get(dest) is not None}
    return ToleranceSet(**given) if given else DEFAULT_TOLERANCES


def _read_request(args):
    """The request document, from ``--input FILE`` or standard input."""
    try:
        if args.input is not None:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise ValueError(f"invalid JSON: {exc}") from exc


def _reply(argv) -> tuple[str, int]:
    """The JSON text of the reply to ``argv``, and its exit code."""
    try:
        args = _parse(argv)
        tol = _tolerances(args)
        return _ENCODER.encode({"schema": SCHEMA, **args.run(_read_request(args), args, tol)}), EXIT_OK
    except MomentProblemError as exc:
        kind, detail, code = type(exc).__name__, str(exc), _EXIT_BY_ERROR.get(type(exc), EXIT_NO_SOLUTION)
    # every malformed request, whether the command line, the CLI or the
    # library finds it; a result that is not finite fails to encode here
    except ValueError as exc:
        kind, detail, code = "BadInput", str(exc), EXIT_BAD_INPUT
    except Exception as exc:  # noqa: BLE001  - the CLI must not traceback
        kind, detail, code = "InternalError", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL
    return _ENCODER.encode({"error": {"kind": kind, "detail": detail}}), code


def main(argv=None) -> int:
    try:
        text, code = _reply(argv)
    except SystemExit:  # argparse exits only for --help, having written it
        return EXIT_OK
    # the reply, as one line in one write; a standard output that cannot
    # take it (closed, None, a broken pipe) is an internal error, and the
    # reply is not written a second time
    try:
        sys.stdout.write(text + "\n")
    except (AttributeError, OSError, ValueError):
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
