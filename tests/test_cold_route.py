"""Each step of the cold route and of the warm continuation against the
form it replaced, bit for bit, on seeded random inputs: the companion
stack gathered through ``structure._companion_index`` against a copy of
stacked shift matrices with column 0 assigned, and the degree-1 roots
read off their coefficients against that copy's eigenvalues; q's
coefficients from ``np.correlate`` against ``np.convolve``; the zero
cutoff's cached exponents against the exponents formed on every call;
the internal Hankel build against the public ``build_hankel``; and a
warm ``next_moment`` against ``extend_moments(m, 1)[-1]``.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import momentkit as mk
from momentkit import _lapack, structure, tolerances
from momentkit.inversion import _recurrence
from momentkit.tolerances import DEFAULT_TOLERANCES as DEFAULT
from instances import separated_values


def _shift_stack(count, n):
    """The stack of ``count`` n x n shift matrices that the companion
    stack was once copied from."""
    return np.broadcast_to(np.eye(n, k=1), (count, n, n))


def _reference_stack(polys):
    C = _shift_stack(len(polys), len(polys[0])).copy()
    C[:, :, 0] = [[-v for v in c] for c in polys]
    return C


def _reference_zero_cutoff(moments):
    return 1e-8 * max(map(pow, map(abs, moments), map((1.0).__truediv__, range(1, len(moments) + 1))))


def _poly(rng, n, kind):
    """Coefficients c of a monic degree-n polynomial as ``_invert`` gives
    them, a list of Python floats: real roots, a conjugate pair among
    real roots, or every root at 0 (all c are 0.0)."""
    if kind == "zero":
        return [0.0] * n
    roots = list(rng.uniform(-2.0, 2.0, n))
    if kind == "complex" and n > 1:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))
        roots[:2] = [z, z.conjugate()]
    return np.poly(roots).real[1:].tolist()


def _problem(rng):
    """Moments of n_x = 0..5 and n_y = 0..6 separated values; one time
    in three the last x and the last y are one value t, a matched pair,
    which makes A1 rank-deficient."""
    while True:
        n_x, n_y = int(rng.integers(0, 6)), int(rng.integers(0, 7))
        if n_x + n_y:
            break
    pair = n_x > 0 and n_y > 0 and rng.integers(3) == 0
    values = separated_values(rng, n_x + n_y, lo=-2.0, hi=2.0, gap=0.15)
    xs, ys = values[:n_x], values[n_x:]
    if pair:
        t = separated_values(rng, 1, lo=-2.0, hi=2.0)[0]
        xs, ys = xs[:-1] + [t], ys[:-1] + [t]
    return mk.forward_moments(xs, ys)


def _reference_roots(polys):
    """The roots of the reference stack, as ``_monic_roots`` reads them
    back: real where every root of the stack is, else complex."""
    w = np.linalg.eigvals(_reference_stack(polys))
    if w.dtype.kind == "f":
        return w.tolist()
    return [(v if v.imag.any() else v.real).tolist() for v in w]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("n", range(2, 11))
def test_the_gathered_companion_stack_is_the_copied_one(monkeypatch, count, n):
    stacks, eigvals = [], _lapack.eigvals

    def spy(C):
        stacks.append(C)
        return eigvals(C)

    monkeypatch.setattr(_lapack, "eigvals", spy)
    rng = np.random.default_rng([n, count])
    kinds = ("real", "complex", "zero")
    for stack_kinds in itertools.product(kinds, repeat=count):
        for _ in range(3):
            polys = [_poly(rng, n, kind) for kind in stack_kinds]
            stacks.clear()
            roots = structure._monic_roots(*polys)
            (got,) = stacks
            want = _reference_stack(polys)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.tobytes() == want.tobytes()
            # the roots read back from it are the reference stack's roots
            assert roots == _reference_roots(polys)
    # the table is shared and stays as it was
    table = structure._companion_index(count, n)
    assert table is structure._companion_index(count, n) and not table.flags.writeable


@pytest.mark.parametrize("count", [1, 2])
def test_degree_one_roots_are_the_reference_stacks_without_a_gather(monkeypatch, count):
    # z + c has the root -c, the 1 x 1 companion matrix's entry: read off
    # the coefficients with no stack gathered and no eigenvalue call
    calls = []
    monkeypatch.setattr(_lapack, "eigvals", lambda C: calls.append(C))
    rng = np.random.default_rng([1, count])
    for stack_kinds in itertools.product(("real", "zero"), repeat=count):
        for _ in range(3):
            polys = [_poly(rng, 1, kind) for kind in stack_kinds]
            roots = structure._monic_roots(*polys)
            assert not calls and all(type(z) is float for r in roots for z in r)
            # bit for bit, the sign of a zero root included
            assert [[z.hex() for z in r] for r in roots] == [[z.hex() for z in r] for r in _reference_roots(polys)]


def test_q_from_correlate_is_q_from_convolve(monkeypatch):
    calls = []
    original = structure._monic_roots

    def spy(*polys):
        calls.append(polys)
        return original(*polys)

    monkeypatch.setattr(structure, "_monic_roots", spy)
    rng = np.random.default_rng(2024)
    shapes = {"shorter": 0, "as long": 0, "n_y_tilde = 0": 0}
    for _ in range(400):
        m = _problem(rng)
        d = structure._decided(m, DEFAULT.rank)
        if not d.exists:
            continue
        h = d.system
        calls.clear()
        try:
            structure._invert(m, d, DEFAULT)
        except (mk.SingularReducedSystem, mk.NonRealSolution):
            pass
        if not calls:  # a singular reduced system forms no q
            continue
        # the first call takes c' and q; where their degrees differ it
        # calls itself once per polynomial
        cprime, d = calls[0]
        n = h.n_y_tilde + 1
        p = [1.0, *cprime][:n]
        want = np.convolve(p, h.a.values[:n])[1:n].tolist()
        assert [v.hex() for v in d] == [v.hex() for v in want]
        shapes["n_y_tilde = 0" if n == 1 else "shorter" if len(p) < n else "as long"] += 1
    # each operand order that np.convolve picks was taken
    assert min(shapes.values()) >= 20, shapes


def test_the_zero_cutoff_reads_cached_exponents():
    rng = np.random.default_rng(77)
    for K in range(1, 13):
        assert tolerances._inverse_orders(K) == tuple(1.0 / k for k in range(1, K + 1))
        for _ in range(100):
            moments = (rng.choice([-1.0, 1.0], K) * 10.0 ** rng.uniform(-300.0, 300.0, K)).tolist()
            got = DEFAULT.zero_cutoff(moments)
            assert got.hex() == _reference_zero_cutoff(moments).hex()
    # a zero moment and the largest and smallest doubles
    for moments in ([0.0, 1e300], [5e-324, 0.0, -1.7976931348623157e308], [-0.0]):
        assert DEFAULT.zero_cutoff(moments).hex() == _reference_zero_cutoff(moments).hex()


def test_the_internal_build_is_build_hankel():
    rng = np.random.default_rng(91)
    for _ in range(200):
        m = _problem(rng)
        a = mk.exp_transform(m)
        for tol_rank in (DEFAULT.rank, 1e-6):
            want = mk.build_hankel(a, m.n_x, m.n_y, tol_rank)
            for got in (structure._build_hankel(a, m.n_x, tol_rank), structure._decided(dataclasses.replace(m), tol_rank).system):
                assert got.a == want.a and got.A1_rank == want.A1_rank and got.tol_rank == want.tol_rank
                for name in ("A", "eigs"):
                    x, y = getattr(got, name), getattr(want, name)
                    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    assert not x.flags.writeable


def test_build_hankel_keeps_its_checks():
    a = mk.ExpCoefficients((1.0, 3.0, 7.0))
    for args, message in (
        ((a, -1, 3), "n_x must be >= 0"),
        ((a, 1.0, 1), "n_x must be an integer"),
        ((a, 1, True), "n_y must be an integer"),
        ((a, 2, 0, 1.0), "rank tolerance must lie in"),
        ((a, 2, 0, float("nan")), "rank tolerance must lie in"),
        ((a, 1, 0), r"need coefficients a_0..a_1, got a_0..a_2"),
        (((1.0, float("inf"), 7.0), 2, 0), "coefficients must be finite"),
        (((2.0, 3.0, 7.0), 2, 0), "must start with a_0 = 1"),
    ):
        with pytest.raises(ValueError, match=message):
            mk.build_hankel(*args)


def test_a_warm_next_moment_is_the_one_step_continuation():
    rng = np.random.default_rng(55)
    for _ in range(300):
        m = _problem(rng)
        try:
            want = mk.extend_moments(dataclasses.replace(m), 1)[-1]
        except mk.NoSolution:
            continue
        cold = dataclasses.replace(m)
        assert mk.next_moment(cold).hex() == want.hex()
        # warm: the same object again, its system and cbar kept
        assert mk.next_moment(cold).hex() == want.hex()
        # a supplied cbar takes the same step as the recurrence's lists
        cbar = rng.uniform(-2.0, 2.0, m.n_x).tolist()
        a = cold._decided.system.a.values
        assert mk.next_moment(cold, cbar=cbar).hex() == _recurrence(m.values, a, cbar, 1)[-1].hex()
