"""Structural call counts of each entry point on fixed instances.

Each problem is factored once: one exponential transform and one Hankel
build, which assembles A once and takes one ``eigvalsh`` of the
symmetric reversed A1, eigenvalues only, whose moduli decide the rank,
and with it existence at full rank, shared by every entry point.  A is
the only matrix assembled: the reduced block is a corner of it.  Only a
rank-deficient A1 takes more: the SVD of A for existence, and one more
``eigvalsh``, of the reversed reduced block, which ranks it as A1 is
ranked.  At full rank the Markov certificate is read off the signs of the same
eigenvalues and factors nothing more.  A full-rank A1 is solved once by
LU, for c' and for the minimum-norm cbar alike; only a rank-deficient A1
takes ``lstsq``, and only where the continuation asks for it.  The roots
of p and q come from one eigenvalue call when their degrees agree, and
the zero cutoff is read off the moments with no call at all.  A size-1
factorization takes no call either: a 1 x 1 A1 or reduced block is its
own eigenvalue, the row [a0, 0] has the singular value |a0|, c' of a
rank-1 system is a quotient, and z + c has the root -c.
``trig_invert`` ranks its Hankel block by one SVD and solves twice, for
the pencil and for the amplitudes.  These are counts, not times, so they
hold on any machine.  Every LAPACK driver that momentkit calls is
counted, which a scan of the source checks: ``eigvalsh``, ``svd``,
``solve``, ``lstsq`` and ``eigvals`` through ``momentkit._lapack``, their
one route.  ``np.linalg`` serves only the public ``numeric_rank``, whose
SVD no entry point calls.

A problem object keeps its decided system, c' included, so these pins
are counted on a fresh object: a cold call.  The warm pins count what a
second entry point on the same object adds, which is only its own step;
a ``next_moment`` with a supplied cbar continues the same kept system.
A different rank tolerance decides the object again.
"""

import ast
import dataclasses
import gc
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import momentkit as mk
from momentkit import _lapack, cli, structure

M = mk.forward_moments([0.3, 0.9, 1.5, 2.1, 2.7], [0.1, 0.6, 1.2, 1.8, 2.4])
M3 = mk.forward_moments([0.3, 1.5, 2.7], [0.1, 1.2, 2.4])
# one matched pair (0.8, 0.8): rank(A1) = 3 < n_x, so the reduced block is decided too
M_PAIR = mk.forward_moments([0.3, 1.5, 2.7, 0.8], [0.1, 1.2, 2.4, 0.8])
# A1 is unit lower-triangular, so of full rank and solvable by the
# theorem, where the relative cutoff on A reads rank(A) = 2 < rank(A1)
M_FALLBACK = mk.forward_moments([100.0, 128.0, -40.0], [])
# no positive branches: the empty system, decided without an SVD
M_EMPTY = mk.MomentSequence((-3.0, -5.0), 0, 2)
# the README's worked instance: y = 0 comes back as a rounding-noise root
WORKED = mk.MomentSequence((2.0, 6.0, 20.0, 66.0), 2, 2)
# n_x = n_y = 1: every block is 1 x 1 and read off its entry
M1 = mk.forward_moments([2.0], [0.5])
# one matched pair (0.8, 0.8) at n_x = 2: rank 1, d_max 2, so the reduced
# block and both polynomials have size 1
M1_PAIR = mk.forward_moments([0.5, 0.8], [0.25, 0.8])

COUNTED = ("transform", "build_hankel", "assemble", "eigvalsh", "svd", "lstsq", "solve", "eigvals")
KERNELS = ("eigvalsh", "svd", "solve", "lstsq", "eigvals")  # momentkit._lapack
LINALG = ("svd",)  # np.linalg: numeric_rank's, which no entry point calls


@pytest.fixture
def counts(monkeypatch):
    """Calls of momentkit._lapack.{eigvalsh,svd,solve,lstsq,eigvals}, of
    numpy.linalg.svd, counted with the kernel's SVDs, and of exp_transform
    (``transform``), the Hankel build (``build_hankel``: the internal
    ``_build_hankel``, which the public ``build_hankel`` calls after its
    checks) and A's assembler (``assemble``) through every momentkit
    module that binds them."""
    tally = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(_lapack, name, counting(name, getattr(_lapack, name)))
    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for name, key in (
        ("exp_transform", "transform"), ("_build_hankel", "build_hankel"), ("_toeplitz_slice", "assemble"),
    ):
        original = getattr(structure, name)
        wrapped = counting(key, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "momentkit" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    return tally


def pin(**counts):
    """One exponential transform, one Hankel build, which assembles A
    once, and the given calls; every other count is 0."""
    return {**dict.fromkeys(COUNTED, 0), "transform": 1, "build_hankel": 1, "assemble": 1, **counts}


@pytest.mark.parametrize("call, problem, want", [
    # the eigenvalues of the reversed A1 decide the rank, and at full rank
    # existence; one eigvals call reads the roots of p and q, of one degree here
    (mk.analyze, M, pin(eigvalsh=1, solve=1, eigvals=1)),
    # the same at n = 3: the count does not grow with n_x
    (mk.analyze, M3, pin(eigvalsh=1, solve=1, eigvals=1)),
    # at full rank every flag is read off the signs of the same eigenvalues
    (mk.markov_certificate, M, pin(eigvalsh=1)),
    (lambda m: mk.invert_min_degree(m, "companion"), M, pin(eigvalsh=1, solve=1, eigvals=1)),
    (lambda m: mk.invert_min_degree(m, "geneig"), M, pin(eigvalsh=1, solve=1, eigvals=1)),
    # at full rank the minimum-norm solution is the unique LU solution
    (mk.next_moment, M, pin(eigvalsh=1, solve=1)),
    # rank-deficient A1 falls back to the SVD of A for existence, and the
    # reduced block, a corner of A not assembled again, is ranked as A1
    # is, by the eigvalsh of its reversed form
    (mk.invert_min_degree, M_PAIR, pin(eigvalsh=2, svd=1, solve=1, eigvals=1)),
    # the SVD of A, then lstsq for the minimum-norm solution
    (mk.next_moment, M_PAIR, pin(eigvalsh=1, svd=1, lstsq=1)),
    # a rank-deficient A1 is not SPD; the minimal solution is still
    # inverted to check that it exists, with invert_min_degree's calls
    (mk.markov_certificate, M_PAIR, pin(eigvalsh=2, svd=1, solve=1, eigvals=1)),
    # full-rank A1 is solvable without the SVD of A; n_y = 0, so q has no
    # roots and only p's companion matrix is solved
    (mk.invert_min_degree, M_FALLBACK, pin(eigvalsh=1, solve=1, eigvals=1)),
    # p = 1 has no roots, so only q's companion matrix is solved
    (mk.analyze, M_EMPTY, pin(eigvals=1)),
    (mk.invert_min_degree, M_EMPTY, pin(eigvals=1)),
    # a y-root at the rounding-noise level, zeroed by the cutoff of the
    # moments without another call
    (mk.invert_min_degree, WORKED, pin(eigvalsh=1, solve=1, eigvals=1)),
    # a 1 x 1 A1 is its own eigenvalue, c' its quotient and each root -c:
    # no LAPACK call at all
    (mk.invert_min_degree, M1, pin()),
    (mk.analyze, M1, pin()),
    (mk.markov_certificate, M1, pin()),
    # rank 1 below n_x = 2: the SVD of A decides existence, and the 1 x 1
    # reduced block, c' and the degree-1 roots are read off their entries
    (mk.invert_min_degree, M1_PAIR, pin(eigvalsh=1, svd=1)),
], ids=[
    "analyze", "analyze_n3", "markov_certificate", "invert_companion", "invert_geneig", "next_moment",
    "invert_matched_pair", "next_moment_matched_pair", "markov_certificate_matched_pair",
    "invert_fallback", "analyze_empty", "invert_empty", "invert_worked",
    "invert_n1", "analyze_n1", "markov_certificate_n1", "invert_rank_1_pair",
])
def test_call_counts(counts, call, problem, want):
    call(dataclasses.replace(problem))
    assert counts == want


def test_no_solution_at_n1_takes_no_svd(counts):
    # a_1 = 0 ranks A1 = [0] at 0, and the row A = [0.75, 0] has the one
    # singular value 0.75, which ranks nonzero: unsolvable, with no call
    with pytest.raises(mk.NoSolution):
        mk.invert_min_degree(mk.MomentSequence((0.0, 1.5), 1, 1))
    assert counts == pin()


def test_trig_invert_call_counts(counts):
    # one SVD ranks H0; one solve forms the pencil H0^-1 H1, whose
    # eigenvalues are the nodes, and one solves for the amplitudes
    mk.trig_invert([2, 0, 2, 0], 2)
    assert counts == {**dict.fromkeys(COUNTED, 0), "svd": 1, "solve": 2, "eigvals": 1}


def test_every_linalg_call_is_counted():
    # a LAPACK call outside COUNTED, or a kernel called past
    # momentkit._lapack, would bypass the pins above
    lapack, linalg, gufunc_callers = set(), set(), set()
    for path in Path(mk.__file__).parent.glob("*.py"):
        # each top-level statement, a function or class with all it holds,
        # is where its calls are made
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(stmt, 'name', '')}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = ast.unparse(node.func.value)
                    if owner in ("np.linalg", "numpy.linalg"):
                        linalg.add((where, node.func.attr))
                    elif owner == "_lapack":
                        lapack.add(node.func.attr)
                    elif owner == "_umath_linalg":
                        gufunc_callers.add(path.stem)
                elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    # an exception class and the gufunc module are not calls
                    names = (alias.name for alias in node.names)
                    linalg.update(
                        (where, n) for n in names if not isinstance(getattr(np.linalg, n), (type, types.ModuleType))
                    )
    # the kernels have one route, and only it calls the gufuncs
    assert lapack == set(KERNELS)
    assert gufunc_callers == {"_lapack"}
    # np.linalg serves only the public numeric_rank, which takes any array
    assert linalg == {("structure.numeric_rank", "svd")}


@pytest.mark.parametrize("argv, builds", [
    (["markov-check"], 1),
    (["markov-check", "--verbose"], 1),
    (["next"], 1),
    # the diagnostic is an independent second route, the minimal
    # solution's power sum, read off the factorization next_moment made
    (["next", "--verbose"], 1),
])
def test_cli_build_counts(counts, capsys, tmp_path, argv, builds):
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2}))
    assert cli.main(argv + ["--input", str(path)]) == 0
    capsys.readouterr()
    assert counts["build_hankel"] == counts["assemble"] == builds


def test_markov_check_verbose_builds_one_system(counts, capsys, tmp_path):
    # a matched pair (0.5, 0.5) makes A1 rank-deficient: the certificate
    # inverts to check that the minimal solution exists, and --verbose
    # inverts again for the answer, on the same decided system and c'
    m = mk.forward_moments([1.0, 3.0, 0.5], [0.25, 2.0, 0.5])
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"moments": list(m.values), "n_x": m.n_x, "n_y": m.n_y}))
    assert cli.main(["markov-check", "--verbose", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert counts == pin(eigvalsh=2, svd=1, solve=1, eigvals=2)
    sol = mk.invert_min_degree(dataclasses.replace(m))
    assert out["diagnostics"]["minimal_solution"] == {"xs": list(sol.xs), "ys": list(sol.ys)}


@pytest.mark.parametrize("first, then, problem, added", [
    # rank, existence and c' are read off the kept system: the recursion is all that runs
    (mk.invert_min_degree, mk.next_moment, M, {}),
    # at full rank the flags are the signs of the kept eigenvalues
    (mk.analyze, mk.markov_certificate, M, {}),
    # the decisions on existence and the reduced block are kept; the
    # minimum-norm solution of a rank-deficient A1 is the continuation's own
    (mk.analyze, mk.next_moment, M_PAIR, {"lstsq": 1}),
    # a supplied cbar continues the same kept system: no transform, no build
    (mk.invert_min_degree, lambda m: mk.next_moment(m, cbar=structure._cprime(m._decided)), M, {}),
], ids=["next_after_invert", "markov_after_analyze", "next_after_analyze_matched_pair", "next_cbar_after_invert"])
def test_warm_call_counts(counts, first, then, problem, added):
    m = dataclasses.replace(problem)
    first(m)
    counts.update(dict.fromkeys(COUNTED, 0))
    then(m)
    assert counts == {**dict.fromkeys(COUNTED, 0), **added}


def test_another_rank_tolerance_decides_again(counts):
    m, loose = dataclasses.replace(M), mk.ToleranceSet(rank=1e-8)
    mk.next_moment(m)
    # the same rank tolerance under other thresholds reuses the system
    mk.next_moment(m, tol=mk.ToleranceSet(imag=1e-6))
    assert counts == pin(eigvalsh=1, solve=1)
    mk.next_moment(m, tol=loose)
    mk.next_moment(m, tol=loose)
    # one system is kept per object: the default tolerance decides again
    mk.next_moment(m)
    assert counts["transform"] == counts["build_hankel"] == counts["assemble"] == counts["eigvalsh"] == 3


def test_a_warm_next_moment_starts_no_collector_pass():
    # a warm next_moment reads its system and c' off the object and takes
    # one recurrence step on the kept tuples, so it allocates no container
    # that the collector counts: at a gen-0 threshold of 1 even two live
    # at once would start a pass
    m = dataclasses.replace(M)
    mk.next_moment(m)
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    threshold = gc.get_threshold()
    gc.callbacks.append(count)
    try:
        gc.set_threshold(1)
        for _ in range(50):  # warm-up round
            mk.next_moment(m)
        passes.clear()
        for _ in range(50):
            mk.next_moment(m)
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    assert passes == []
