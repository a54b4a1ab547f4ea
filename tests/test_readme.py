"""The README's library quick start runs, and returns what its comments say.

Each statement of the block runs in order.  A statement with a comment,
on its own last line or on the comment line right after it, has its
result checked: after an expression, the comment's leading Python
literal (up to a ``:``) is the expression's value; after an assignment,
``name = literal`` pairs are attributes of the assigned object.  ``pi``
may appear in a literal.  Numbers compare within 1e-9 relative.
"""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _comments(source: str) -> dict:
    """Line number -> text of the comment on that line, without ``#``."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def _literal(text: str):
    return eval(text, {"__builtins__": {}, "pi": math.pi})


def _matches(got, want) -> bool:
    if isinstance(want, bool):
        return got is want
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_matches, got, want))
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _checks(source: str):
    """(statement, statement source, comment or None) in order."""
    comments = _comments(source)
    lines = source.splitlines()
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        after = stmt.end_lineno + 1
        if comment is None and after in comments and lines[after - 1].lstrip().startswith("#"):
            comment = comments[after]
        yield stmt, ast.get_source_segment(source, stmt), comment


@pytest.mark.filterwarnings("error")
def test_quick_start_results_match_their_comments():
    namespace: dict = {}
    checked = 0
    for stmt, code, comment in _checks(_quick_start()):
        checked += comment is not None
        if isinstance(stmt, ast.Expr):
            got = eval(code, namespace)
            if comment:
                assert _matches(got, _literal(comment.split(":", 1)[0])), (code, got, comment)
            continue
        exec(code, namespace)
        if comment:
            target = namespace[stmt.targets[0].id]
            for name, value in re.findall(r"(\w+) = (.+?)(?:,\s*(?=\w+ = )|$)", comment):
                assert _matches(getattr(target, name), _literal(value)), (code, name, comment)
    # the invert, analyze, next, extend, certificate, trig, factorization
    # residual and density results
    assert checked == 8
