"""The package's import layout: every import runs at module load, and the
package-internal import graph has no cycle.

Imports run one way, _lapack/transform/errors/tolerances -> structure
-> inversion/markov/trig -> cli, so no module needs a lazy import to
break a cycle.  Every entry point takes its decided system from
``structure``, so the three modules above it import none of each other.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momentkit"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def internal_imports(tree):
    """Names of the package modules that ``tree`` imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "momentkit":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                out.add(parts[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "momentkit" and len(parts) > 1:
                    out.add(parts[1])
    return out & TREES.keys()


def find_cycle(graph):
    """One cycle of ``graph`` as a list of nodes, or None."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph[node]):
            cycle = visit(nxt)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_no_function_imports():
    found = [
        f"{name}.{fn.name}:{node.lineno}"
        for name, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_internal_import_graph_is_acyclic():
    graph = {name: internal_imports(tree) for name, tree in TREES.items()}
    assert find_cycle(graph) is None
    assert "inversion" not in graph["structure"]
    # every entry point takes its decided system, existence gate included,
    # from structure, so these three import none of each other
    side = {"inversion", "markov", "trig"}
    assert all(not graph[name] & side for name in side)


def test_cycle_finder_sees_a_cycle():
    assert find_cycle({"structure": {"inversion"}, "inversion": {"structure"}}) == ["inversion", "structure", "inversion"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None
    tree = ast.parse("from . import structure\nfrom .inversion import _invert\nimport momentkit.markov\nimport numpy")
    assert internal_imports(tree) == {"structure", "inversion", "markov"}
