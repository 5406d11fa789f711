"""A cyclic Jacobi eigensolver, kept only as a test oracle.

The n x n reductions in :mod:`psdlab.pencil` and :mod:`psdlab.precond`
use LAPACK, and no module of :mod:`psdlab` imports this one.
:func:`jacobi_eigh` shares no code with LAPACK and is their independent
test oracle; it is not exported from :mod:`psdlab`, and its signature
mirrors ``numpy.linalg.eigh``.  It stays in the package because the
benchmark traces it by name (``psdlab.jacobi:jacobi_eigh``).
"""

import math

import numpy as np

from .errors import NumericFailure

# Sweeps stop once the off-diagonal Frobenius norm drops below this
# multiple of the Frobenius norm of the input.
OFF_DIAGONAL_TOL = 1e-14

_MAX_SWEEPS = 60


def jacobi_eigh(m):
    """Eigenvalues and eigenvectors of a symmetric matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    m : (n, n) array_like
        Symmetric matrix.  Only the symmetric part is meaningful; the
        routine does not symmetrize its input.

    Returns
    -------
    w : (n,) ndarray
        Eigenvalues in ascending order.
    v : (n, n) ndarray
        Orthonormal eigenvectors, ``v[:, k]`` belonging to ``w[k]``.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy(), np.eye(1)
    v = np.eye(n)

    norm_f = np.linalg.norm(a, "fro")
    if norm_f == 0.0:
        return np.zeros(n), v
    off_tol = OFF_DIAGONAL_TOL * norm_f
    # Rotations on entries already far below the stopping threshold cannot
    # change the outcome; skipping them keeps diagonal inputs O(n^2).
    skip_tol = off_tol / (2.0 * n)

    for _ in range(_MAX_SWEEPS):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if abs(apq) <= skip_tol:
                    continue
                c, s = _rotation(float(a[p, p]), float(a[q, q]), apq)

                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise NumericFailure(
            f"Jacobi sweeps did not converge within {_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {off:.3e}, tolerance {off_tol:.3e})"
        )

    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _rotation(app, aqq, apq):
    """Cosine and sine of the Jacobi rotation annihilating ``apq != 0``."""
    tau = (aqq - app) / (2.0 * apq)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c

