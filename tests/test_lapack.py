"""The LAPACK kernels of ``momentkit._lapack`` against ``np.linalg``, bit
for bit and dtype for dtype, on the arrays momentkit builds: symmetric
Hankel blocks and their reversed views, the rectangular A whose singular
values decide existence, the rank-deficient A1 of a matched pair and its
minimum-norm solution, real companion stacks with real and with complex
roots, and trig_invert's complex Hankel blocks, pencils and Vandermonde
solves.  Their failures are numpy's: ``LinAlgError`` with numpy's
message, and no warning.
"""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg

import momentkit as mk
from momentkit import _lapack, structure, trig
from instances import separated_values

SIZES = range(1, 11)


def same(got, want):
    """Equal dtype, shape and bits."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def hankel_block(rng, n):
    """A, n x (n+1), of a random a-sequence a_0..a_{2n}, as build_hankel assembles it."""
    a = (1.0, *rng.uniform(-3.0, 3.0, 2 * n))
    return structure._toeplitz_slice(a, n)


def companions(*polys):
    """The stacked companion matrices of monic polynomials of one degree, as _monic_roots builds them."""
    coeffs = np.array((0.0, 1.0, *[-v for c in polys for v in c]))
    return coeffs[structure._companion_index(len(polys), len(polys[0]))]


def trig_moments(rng, r):
    """m_0..m_{2r-1} of r modes at random frequencies and amplitudes."""
    freqs = np.sort(rng.uniform(-np.pi, np.pi, r))
    amps = rng.uniform(0.5, 2.0, r) * np.exp(1j * rng.uniform(0, 2 * np.pi, r))
    return trig.trig_forward(trig.TrigSignal(freqs.tolist(), amps.tolist()), 2 * r)


def real_roots(rng, n):
    return np.poly(np.sort(rng.uniform(-2.0, 2.0, n)))[1:]


def complex_roots(rng, n):
    # a conjugate pair among n - 2 real roots
    z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))
    return np.poly([z, z.conjugate(), *rng.uniform(-2.0, 2.0, n - 2)]).real[1:]


@pytest.mark.parametrize("n", SIZES)
def test_eigvalsh_of_hankel_blocks(n):
    rng = np.random.default_rng(n)
    A = hankel_block(rng, n)
    # the reversed A1 that build_hankel factors, a view, and a square block of A
    for M in (A[:, :0:-1], A[:, 1:][:, ::-1], np.ascontiguousarray(A[:, :0:-1]), A[:, :n]):
        same(_lapack.eigvalsh(M), np.linalg.eigvalsh(M))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kinds", [("real",), ("complex",), ("real", "real"), ("complex", "complex"), ("real", "complex")])
def test_eigvals_of_companion_stacks(n, kinds):
    rng = np.random.default_rng(n)
    # below degree 2 there is no conjugate pair
    polys = [complex_roots(rng, n) if kind == "complex" and n > 1 else real_roots(rng, n) for kind in kinds]
    C = companions(*polys)
    got = _lapack.eigvals(C)
    same(got, np.linalg.eigvals(C))
    # one polynomial with a complex pair makes the whole stack complex
    assert (got.dtype == np.complex128) == ("complex" in kinds and n > 1)


@pytest.mark.parametrize("n", SIZES)
def test_svd_of_hankel_blocks(n):
    rng = np.random.default_rng(100 + n)
    A = hankel_block(rng, n)
    # the rectangular A that solvable ranks, a view of A1, and a contiguous copy
    for M in (A, A[:, 1:], np.ascontiguousarray(A[:, 1:])):
        same(_lapack.svd(M), np.linalg.svd(M, compute_uv=False))


@pytest.mark.parametrize("r", range(1, 9))
def test_svd_of_trig_hankel_blocks(r):
    rng = np.random.default_rng(400 + r)
    H0, _ = trig_moments(rng, r)[trig._pencil_index(r)]
    # a complex block's singular values come back real, as from np.linalg
    for M in (H0, np.ascontiguousarray(H0.real)):
        same(_lapack.svd(M), np.linalg.svd(M, compute_uv=False))


@pytest.mark.parametrize("n", range(1, 6))
def test_lstsq_of_matched_pair_blocks(n):
    rng = np.random.default_rng(500 + n)
    values = separated_values(rng, n + 1)
    # the first x-value is matched on the y side, so A1 is rank-deficient;
    # at n = 1 it is the 1 x 1 block [a_2], rounding noise
    m = mk.forward_moments(values[:n], [values[n], values[0]])
    h = structure.build_hankel(mk.exp_transform(m), m.n_x, m.n_y)
    same(_lapack.lstsq(h.A1, -h.a0), np.linalg.lstsq(h.A1, -h.a0, rcond=None)[0])
    # the cutoff's scale is numpy's rcond=None one
    assert _lapack._EPS == np.finfo(np.float64).eps


@pytest.mark.parametrize("n", SIZES)
def test_solve_of_reduced_systems(n):
    rng = np.random.default_rng(200 + n)
    T = hankel_block(rng, n)
    # c' of _cprime: a 1-D right-hand side against a column view
    same(_lapack.solve(T[:, 1:], -T[:, 0]), np.linalg.solve(T[:, 1:], -T[:, 0]))
    B = rng.standard_normal((n, 3))
    same(_lapack.solve(T[:, 1:], B), np.linalg.solve(T[:, 1:], B))


@pytest.mark.parametrize("r", range(1, 9))
def test_trig_pencil_and_vandermonde(r):
    rng = np.random.default_rng(300 + r)
    mv = trig_moments(rng, r)
    H0, H1 = mv[trig._pencil_index(r)]
    # the pencil: a 2-D complex right-hand side, then its complex eigenvalues
    P = _lapack.solve(H0, H1)
    same(P, np.linalg.solve(H0, H1))
    eigs = _lapack.eigvals(P)
    same(eigs, np.linalg.eigvals(P))
    # the amplitudes: a 1-D right-hand side against the Vandermonde matrix of the nodes
    nodes = np.exp(1j * np.angle(eigs))
    V = nodes[None, :] ** np.arange(r)[:, None]
    same(_lapack.solve(V, mv[:r]), np.linalg.solve(V, mv[:r]))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("b", [[1.0, 1.0], [[1.0], [1.0]]])
def test_an_exactly_singular_solve_raises_numpys_error(dtype, b):
    a, b = np.array([[1.0, 2.0], [2.0, 4.0]], dtype), np.array(b, dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinAlgError, match="^Singular matrix$"):
            np.linalg.solve(a, b)
        with pytest.raises(LinAlgError, match="^Singular matrix$"):
            _lapack.solve(a, b)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_nan_svd_input_raises_numpys_error(dtype):
    a = np.eye(3, dtype=dtype)
    a[1, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinAlgError, match="^SVD did not converge$"):
            np.linalg.svd(a, compute_uv=False)
        with pytest.raises(LinAlgError, match="^SVD did not converge$"):
            _lapack.svd(a)


# each kernel, the gufunc it calls, its arguments and LinAlgError message,
# and the same call through np.linalg
SPD = np.array([[2.0, 1.0], [1.0, 2.0]])
KERNEL_CALLS = [
    ("eigvalsh", "eigvalsh_lo", (SPD,), "Eigenvalues did not converge", lambda: np.linalg.eigvalsh(SPD)),
    ("svd", "svd", (SPD,), "SVD did not converge", lambda: np.linalg.svd(SPD, compute_uv=False)),
    ("solve", "solve1", (SPD, np.ones(2)), "Singular matrix", lambda: np.linalg.solve(SPD, np.ones(2))),
    ("solve", "solve", (SPD, np.ones((2, 1))), "Singular matrix", lambda: np.linalg.solve(SPD, np.ones((2, 1)))),
    (
        "lstsq",
        "lstsq",
        (SPD, np.ones(2)),
        "SVD did not converge in Linear Least Squares",
        lambda: np.linalg.lstsq(SPD, np.ones(2), rcond=None),
    ),
    ("eigvals", "eigvals", (SPD,), "Eigenvalues did not converge", lambda: np.linalg.eigvals(SPD)),
]
KERNEL_IDS = [f"{kernel}-{gufunc}" for kernel, gufunc, *_ in KERNEL_CALLS]


def spy_on(monkeypatch, gufunc, fail=False):
    """Replace ``_umath_linalg.<gufunc>`` by a spy that records the error
    state it runs under, and the message of the LinAlgError that the
    state's handler raises; with ``fail`` the spy then lets the handler
    raise, as LAPACK does on a failure."""
    real = getattr(_umath_linalg, gufunc)
    seen = []

    def spy(*args, **kwargs):
        handler = np.geterrcall()
        try:
            handler("invalid", 8)
        except LinAlgError as exc:
            seen.append((np.geterr(), str(exc)))
        if fail:
            handler("invalid", 8)
        return real(*args, **kwargs)

    monkeypatch.setattr(_umath_linalg, gufunc, spy)
    return seen


@pytest.mark.parametrize("kernel, gufunc, args, message, through_numpy", KERNEL_CALLS, ids=KERNEL_IDS)
def test_each_kernel_runs_under_numpys_error_state(monkeypatch, kernel, gufunc, args, message, through_numpy):
    seen = spy_on(monkeypatch, gufunc)
    getattr(_lapack, kernel)(*args)
    through_numpy()
    ours, numpys = seen
    assert ours == ({"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"}, message)
    assert ours == numpys


@pytest.mark.parametrize("kernel, gufunc, args, message, through_numpy", KERNEL_CALLS, ids=KERNEL_IDS)
def test_each_kernel_restores_the_callers_error_state(monkeypatch, kernel, gufunc, args, message, through_numpy):
    for caller in ({}, {"all": "raise"}):
        with np.errstate(**caller):
            before = np.geterr(), np.geterrcall()
            getattr(_lapack, kernel)(*args)
            assert (np.geterr(), np.geterrcall()) == before
            with monkeypatch.context() as patch:
                spy_on(patch, gufunc, fail=True)
                with pytest.raises(LinAlgError, match=f"^{message}$"):
                    getattr(_lapack, kernel)(*args)
            assert (np.geterr(), np.geterrcall()) == before


def test_each_call_keeps_its_own_error_state_in_every_thread():
    # each kernel sets its prebuilt state in numpy's context variable and
    # resets it per call, so threads never restore each other's
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])

    def work(_):
        before = np.geterr()
        for _ in range(500):
            with pytest.raises(LinAlgError, match="^Singular matrix$"):
                _lapack.solve(singular, np.ones(2))
            _lapack.eigvalsh(singular)
        return np.geterr() == before

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(work, range(4), timeout=60)) == [True] * 4
    finally:
        sys.setswitchinterval(interval)


def test_linalg_error_is_a_value_error():
    # analyze and the CLI classify a LAPACK failure as a ValueError
    assert issubclass(LinAlgError, ValueError)
