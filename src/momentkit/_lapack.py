"""The LAPACK drivers of every problem, called through the gufuncs that
``np.linalg`` itself calls, without its per-call dispatch.

On the small blocks momentkit factors (10 x 10 and below in the
benchmark) the wrapper's array conversion, type dispatch and checks cost
more than LAPACK.  Each kernel here keeps what the wrapper does to the
result: the same gufunc, signature and ``np.errstate``, so a LAPACK
failure raises ``LinAlgError`` with numpy's message and no warning, and
the same bits.  What it drops are the conversions, shape checks and
scans for inf and NaN that every caller's own finite float64 or
complex128 arrays make redundant.  The gufuncs are named, and the error
state kept, as in numpy 2.x, the floor ``pyproject.toml`` sets.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

# float64's machine epsilon, np.finfo(np.float64).eps, without finfo's
# first-call cost at import
_EPS = 2.0**-52


def _raising(message: str) -> np.errstate:
    """The ``np.errstate`` that ``np.linalg`` enters around a LAPACK call,
    as a decorator: a failure raises ``LinAlgError(message)`` and no
    floating-point warning is given.  numpy 2.x sets and resets the state
    per call, not on the instance, so one instance serves every thread at
    about half the cost of entering a new one."""

    def fail(err, flag):
        raise LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_raising("Eigenvalues did not converge")
def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric stack, ascending, as ``np.linalg.eigvalsh``
    gives them: from the lower triangle."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


@_raising("SVD did not converge")
def svd(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix stack, descending, as
    ``np.linalg.svd(a, compute_uv=False)`` gives them: real for a complex
    stack too."""
    return _umath_linalg.svd(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


@_raising("Singular matrix")
def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b, as ``np.linalg.solve`` gives it: complex
    when either operand is."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="DD->D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "dd->d")


@_raising("SVD did not converge in Linear Least Squares")
def lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of a x = b for a real,
    non-empty m x n matrix and a vector b, as ``np.linalg.lstsq(a, b,
    rcond=None)[0]`` gives it: singular values at or below eps * max(m, n)
    times the largest count as zero."""
    return _umath_linalg.lstsq(a, b[:, None], _EPS * max(a.shape), signature="ddd->ddid")[0][:, 0]


@_raising("Eigenvalues did not converge")
def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a finite square stack, as ``np.linalg.eigvals`` gives
    them: of a real stack, a real array exactly when every eigenvalue in
    it is real."""
    if a.dtype.kind == "c":
        return _umath_linalg.eigvals(a, signature="D->D")
    w = _umath_linalg.eigvals(a, signature="d->D")
    return w if np.count_nonzero(w.imag) else w.real
