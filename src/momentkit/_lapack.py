"""The three LAPACK drivers of every problem, called through the gufuncs
that ``np.linalg`` itself calls, without its per-call dispatch.

On the small blocks momentkit factors (10 x 10 and below in the
benchmark) the wrapper's array conversion, type dispatch and checks cost
more than LAPACK.  Each kernel here keeps what the wrapper does to the
result: the same gufunc, signature and ``np.errstate``, so a LAPACK
failure raises ``LinAlgError`` with numpy's message and no warning, and
the same bits.  What it drops are the conversions and shape checks that
every caller's own square float64 or complex128 arrays make redundant.
Each call enters its own ``np.errstate``, as numpy does: one instance
shared as a decorator would cost less, but numpy 1.x keeps the saved
state on that instance, so threads would restore each other's.  ``svd``
and ``lstsq``, which only a rank-deficient block reaches, stay on
``np.linalg``: their gufunc names differ between numpy 1.x and 2.x.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _unconverged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric stack, ascending, as ``np.linalg.eigvalsh``
    gives them: from the lower triangle."""
    with np.errstate(call=_unconverged, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b, as ``np.linalg.solve`` gives it: complex
    when either operand is."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    signature = "DD->D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "dd->d"
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return gufunc(a, b, signature=signature)


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square stack, as ``np.linalg.eigvals`` gives them:
    of a real stack, a real array exactly when every eigenvalue in it is
    real.  Input with an inf or NaN raises ``LinAlgError``."""
    # count_nonzero, a C call, tests the entries faster than ndarray.all
    # and ndarray.any, which dispatch through Python
    if np.count_nonzero(np.isfinite(a)) < a.size:
        raise LinAlgError("Array must not contain infs or NaNs")
    real = a.dtype.kind != "c"
    with np.errstate(call=_unconverged, invalid="call", over="ignore", divide="ignore", under="ignore"):
        w = _umath_linalg.eigvals(a, signature="d->D" if real else "D->D")
    return w.real if real and not np.count_nonzero(w.imag) else w
