"""The LAPACK drivers of every problem, called through the gufuncs that
``np.linalg`` itself calls, without its per-call dispatch.

On the small blocks momentkit factors (10 x 10 and below in the
benchmark) the wrapper's array conversion, type dispatch and checks cost
more than LAPACK.  Each kernel here keeps what the wrapper does to the
result: the same gufunc, signature and floating-point error state, so a
LAPACK failure raises ``LinAlgError`` with numpy's message and no
warning, and the same bits.  What it drops are the conversions, shape
checks and scans for inf and NaN that every caller's own finite float64
or complex128 arrays make redundant, and the rebuilding of its error
state on every call: each kernel's state is built once, at import, and
set for the gufunc call alone.  The gufuncs are named, and the error
state kept, as in numpy 2.x, the floor ``pyproject.toml`` sets.
"""

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

# float64's machine epsilon, np.finfo(np.float64).eps, without finfo's
# first-call cost at import
_EPS = 2.0**-52


def _raising(message: str):
    """The floating-point error state that ``np.linalg`` sets around a
    LAPACK call, the one its ``np.errstate`` builds: a failure raises
    ``LinAlgError(message)`` and no floating-point warning is given.

    A kernel sets it in numpy's context variable for its gufunc call and
    resets it after, as ``np.errstate`` does, so each thread keeps its
    own state; built once, it skips the ``np.errstate`` object and the
    state that object builds anew on every call.  The buffer size is
    numpy's at import, which no gufunc here reads."""

    def fail(err, flag):
        raise LinAlgError(message)

    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


# each kernel sets its state in its own body: the set and reset cost less
# there than in a decorator's extra call
_EIGENVALUES = _raising("Eigenvalues did not converge")
_SVD = _raising("SVD did not converge")
_SINGULAR = _raising("Singular matrix")
_LSTSQ = _raising("SVD did not converge in Linear Least Squares")


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric stack, ascending, as ``np.linalg.eigvalsh``
    gives them: from the lower triangle."""
    token = _extobj_contextvar.set(_EIGENVALUES)
    try:
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")
    finally:
        _extobj_contextvar.reset(token)


def svd(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix stack, descending, as
    ``np.linalg.svd(a, compute_uv=False)`` gives them: real for a complex
    stack too."""
    signature = "D->d" if a.dtype.kind == "c" else "d->d"
    token = _extobj_contextvar.set(_SVD)
    try:
        return _umath_linalg.svd(a, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b, as ``np.linalg.solve`` gives it: complex
    when either operand is."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    signature = "DD->D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "dd->d"
    token = _extobj_contextvar.set(_SINGULAR)
    try:
        return gufunc(a, b, signature=signature)
    finally:
        _extobj_contextvar.reset(token)


def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of a x = b for a real,
    non-empty m x n matrix and a vector b, as ``np.linalg.lstsq(a, b,
    rcond=None)[0]`` gives it: singular values at or below eps * max(m, n)
    times the largest count as zero."""
    token = _extobj_contextvar.set(_LSTSQ)
    try:
        x = _umath_linalg.lstsq(a, b[:, None], _EPS * max(a.shape), signature="ddd->ddid")[0]
    finally:
        _extobj_contextvar.reset(token)
    return x[:, 0]


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a finite square stack, as ``np.linalg.eigvals`` gives
    them: of a real stack, a real array exactly when every eigenvalue in
    it is real."""
    real = a.dtype.kind != "c"
    token = _extobj_contextvar.set(_EIGENVALUES)
    try:
        w = _umath_linalg.eigvals(a, signature="d->D" if real else "D->D")
    finally:
        _extobj_contextvar.reset(token)
    return w.real if real and not np.count_nonzero(w.imag) else w
