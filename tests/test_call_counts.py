"""Structural call counts of each entry point on fixed instances.

Each problem is factored once: one Hankel build, which assembles A once
and takes one SVD of A1, singular values only, which decides the rank,
and with it existence at full rank, shared by every entry point.  A
is the only matrix assembled: the reduced block is a corner of it.  At
full rank the Markov certificate is read off one Cholesky of the
reversed A1 and solves nothing.  A full-rank A1 is solved once by LU,
for c' and for the minimum-norm cbar alike; only a rank-deficient A1
takes ``lstsq``, and only where the continuation asks for it, so no SVD
returns vectors.  The roots of p and q come from one eigenvalue call
when their degrees agree.  These are counts, not times, so they hold on
any machine.
"""

import json
import sys

import numpy as np
import pytest

import momentkit as mk
from momentkit import cli, structure

M = mk.forward_moments([0.3, 0.9, 1.5, 2.1, 2.7], [0.1, 0.6, 1.2, 1.8, 2.4])
M3 = mk.forward_moments([0.3, 1.5, 2.7], [0.1, 1.2, 2.4])
# one matched pair (0.8, 0.8): rank(A1) = 3 < n_x, so the reduced block is decided too
M_PAIR = mk.forward_moments([0.3, 1.5, 2.7, 0.8], [0.1, 1.2, 2.4, 0.8])
# A1 is unit lower-triangular, so of full rank and solvable by the
# theorem, where the relative cutoff on A reads rank(A) = 2 < rank(A1)
M_FALLBACK = mk.forward_moments([100.0, 128.0, -40.0], [])
# no positive branches: the empty system, decided without an SVD
M_EMPTY = mk.MomentSequence((-3.0, -5.0), 0, 2)

COUNTED = ("build_hankel", "assemble", "svd", "svd_uv", "lstsq", "solve", "eigvals", "cholesky")


@pytest.fixture
def counts(monkeypatch):
    """Calls of numpy.linalg.{svd,lstsq,solve,eigvals,cholesky}, and of
    build_hankel and A's assembler (``assemble``) through every momentkit
    module that binds them; ``svd_uv`` counts the SVDs that return
    vectors."""
    tally = dict.fromkeys(COUNTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("lstsq", "solve", "eigvals", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    svd = counting("svd", np.linalg.svd)

    def svd_counting_vectors(a, full_matrices=True, compute_uv=True, hermitian=False):
        tally["svd_uv"] += bool(compute_uv)
        return svd(a, full_matrices, compute_uv, hermitian)

    monkeypatch.setattr(np.linalg, "svd", svd_counting_vectors)
    for name, key in (("build_hankel", "build_hankel"), ("_toeplitz_slice", "assemble")):
        original = getattr(structure, name)
        wrapped = counting(key, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "momentkit" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapped)
    return tally


def pin(**counts):
    """One Hankel build, which assembles A once, and the given calls;
    every other count is 0."""
    return {**dict.fromkeys(COUNTED, 0), "build_hankel": 1, "assemble": 1, **counts}


@pytest.mark.parametrize("call, want", [
    # the singular values of A1 decide the rank, and at full rank existence;
    # one eigvals call reads the roots of p and q, of one degree here
    (lambda: mk.analyze(M), pin(svd=1, solve=1, eigvals=1)),
    # the same at n = 3: the count does not grow with n_x
    (lambda: mk.analyze(M3), pin(svd=1, solve=1, eigvals=1)),
    # at full rank every flag is read off the Cholesky of the reversed A1
    (lambda: mk.markov_certificate(M), pin(svd=1, cholesky=1)),
    (lambda: mk.invert_min_degree(M, "companion"), pin(svd=1, solve=1, eigvals=1)),
    (lambda: mk.invert_min_degree(M, "geneig"), pin(svd=1, solve=1, eigvals=1)),
    # at full rank the minimum-norm solution is the unique LU solution
    (lambda: mk.next_moment(M), pin(svd=1, solve=1)),
    # SVDs of A1, A and A1_tilde: rank-deficient A1 falls back to the SVD
    # of A, and A1_tilde is a corner of A, not assembled again
    (lambda: mk.invert_min_degree(M_PAIR), pin(svd=3, solve=1, eigvals=1)),
    # SVDs of A1 and A, then lstsq for the minimum-norm solution
    (lambda: mk.next_moment(M_PAIR), pin(svd=2, lstsq=1)),
    # a rank-deficient A1 reads its flags off the minimal solution, which
    # takes the same calls as invert_min_degree
    (lambda: mk.markov_certificate(M_PAIR), pin(svd=3, solve=1, eigvals=1, cholesky=1)),
    # full-rank A1 is solvable without the SVD of A; n_y = 0, so q has no
    # roots and only p's companion matrix is solved
    (lambda: mk.invert_min_degree(M_FALLBACK), pin(svd=1, solve=1, eigvals=1)),
    # p = 1 has no roots, so only q's companion matrix is solved
    (lambda: mk.analyze(M_EMPTY), pin(eigvals=1)),
    (lambda: mk.invert_min_degree(M_EMPTY), pin(eigvals=1)),
], ids=[
    "analyze", "analyze_n3", "markov_certificate", "invert_companion", "invert_geneig", "next_moment",
    "invert_matched_pair", "next_moment_matched_pair", "markov_certificate_matched_pair",
    "invert_fallback", "analyze_empty", "invert_empty",
])
def test_call_counts(counts, call, want):
    call()
    assert counts == want


@pytest.mark.parametrize("argv, builds", [
    (["markov-check"], 1),
    (["markov-check", "--verbose"], 1),
    (["next"], 1),
    # the diagnostic is a deliberately independent second route
    (["next", "--verbose"], 2),
])
def test_cli_build_counts(counts, capsys, tmp_path, argv, builds):
    path = tmp_path / "request.json"
    path.write_text(json.dumps({"moments": [2, 6, 20, 66], "n_x": 2, "n_y": 2}))
    assert cli.main(argv + ["--input", str(path)]) == 0
    capsys.readouterr()
    assert counts["build_hankel"] == counts["assemble"] == builds
