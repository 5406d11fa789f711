"""Preconditioner construction, quality measurement, and rescaling.

A preconditioner's quality is one spectral-equivalence pair
``(gamma1, gamma2)``: ``(z, Az)`` lies between ``gamma1 (z, T^-1 z)`` and
``gamma2 (z, T^-1 z)``.  Two gammas derive from it.  The steepest-descent
solver PSD, whose line search picks the scaling, needs only the
scale-invariant ``gamma = (gamma2 - gamma1) / (gamma1 + gamma2)``, the
quality of the ideally scaled ``T`` with the pair ``(1 - gamma, 1 + gamma)``.
The fixed-step solver PINVIT(1) needs the quality of ``T`` as handed over,
:meth:`PrecondQuality.as_is_gamma`.  An unknown quality is ``None``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pencil import _tril_inverse

__all__ = [
    "PrecondQuality",
    "Preconditioner",
    "synthetic_gamma_preconditioner",
    "jacobi_preconditioner",
    "exact_inverse_preconditioner",
    "identity_preconditioner",
    "estimate_quality",
    "rescale",
]


@dataclass(frozen=True)
class PrecondQuality:
    """Spectral-equivalence constants with ``0 < gamma1 <= gamma2 < inf``."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        if not 0.0 < self.gamma1 <= self.gamma2 < math.inf:  # NaN fails it too
            raise ValueError("equivalence constants must satisfy 0 < gamma1 <= gamma2 < inf, "
                             f"got ({self.gamma1!r}, {self.gamma2!r})")

    @classmethod
    def ideal(cls, gamma):
        """The ideally scaled quality ``(1 - gamma, 1 + gamma)``, ``gamma`` in [0, 1)."""
        if not 0.0 <= gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        return cls(1.0 - gamma, 1.0 + gamma)

    @property
    def gamma(self):
        """Quality after ideal rescaling: ``(g2 - g1) / (g1 + g2)``."""
        return (self.gamma2 - self.gamma1) / (self.gamma1 + self.gamma2)

    def as_is_gamma(self):
        """Smallest ``g`` with ``1 - g <= gamma1 <= gamma2 <= 1 + g``.

        This is the quality of the preconditioner *without* rescaling,
        the one the fixed-step bound needs.  May be ``>= 1`` (then the
        fixed-step bound does not apply).
        """
        return max(1.0 - self.gamma1, self.gamma2 - 1.0)


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """A symmetric positive definite operator with quality metadata.

    ``quality`` is a :class:`PrecondQuality`, or ``None`` when unknown.
    ``coords`` records which coordinates the stored matrix acts in:
    ``"pencil"`` (the original pair) or ``"diagonal"`` (after
    :func:`psdlab.pencil.diagonalize`, where ``A = I``).
    """

    matrix: np.ndarray
    quality: PrecondQuality | None
    coords: str = "pencil"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("preconditioner matrix must be square")
        if self.coords not in ("pencil", "diagonal"):
            raise ValueError(f"unknown coordinate tag {self.coords!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, r):
        return self.matrix.dot(np.asarray(r, dtype=float))

    def scaled(self, factor):
        """The preconditioner ``factor * T``; its equivalence constants scale with it."""
        if not 0.0 < factor < np.inf:
            raise ValueError(f"scale factor must be finite and positive, got {factor!r}")
        q = self.quality
        if q is not None:
            q = PrecondQuality(factor * q.gamma1, factor * q.gamma2)
        return Preconditioner(matrix=factor * self.matrix, quality=q, coords=self.coords)

    def in_coords(self, coords, diag_form):
        """Conjugate into diagonal coordinates, the one direction in use: ``basis T basis^T``."""
        if coords == self.coords:
            return self
        if coords != "diagonal":
            raise ValueError(f"cannot conjugate into {coords!r} coordinates")
        basis = diag_form.basis
        m = basis @ self.matrix @ basis.T
        return Preconditioner(matrix=(m + m.T) / 2.0, quality=self.quality, coords=coords)


def synthetic_gamma_preconditioner(diag_form, gamma, seed=None):
    """A seeded random preconditioner of quality ``gamma`` in diagonal coordinates.

    In the diagonalized coordinates the quality constraint is a spectral
    norm bound on ``I - T``, so ``T = I - E`` with ``||E|| = gamma``
    achieves the declared quality by construction: ``E = Q diag(eta) Q^T``
    with ``Q`` orthogonal, drawn from ``seed``, and ``max |eta| = gamma``
    in ``[0, 1)``.  ``diag_form`` supplies the dimension.  ``seed`` is
    mandatory at every ``gamma``; ``gamma = 0`` gives ``T = I``.
    """
    quality = PrecondQuality.ideal(gamma)
    if seed is None:
        raise ValueError("synthetic_gamma_preconditioner needs a seed")
    n = diag_form.n
    if gamma == 0.0:
        e = np.zeros((n, n))
    else:
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        eta = gamma * rng.uniform(-1.0, 1.0, size=n)
        eta[0] = gamma if rng.random() < 0.5 else -gamma  # attain the norm exactly
        e = (q * eta) @ q.T
        e = (e + e.T) / 2.0
    return Preconditioner(matrix=np.eye(n) - e, quality=quality, coords="diagonal")


def _measured(pencil, t):
    """The pencil-coordinate ``T`` as a :class:`Preconditioner` with its measured quality."""
    quality = estimate_quality(pencil, Preconditioner(t, None, "pencil"))
    return Preconditioner(matrix=t, quality=quality, coords="pencil")


def jacobi_preconditioner(pencil):
    """Diagonal (Jacobi) preconditioner ``T = diag(A)^-1`` with measured quality."""
    # A is positive definite, so its diagonal is positive.
    return _measured(pencil, np.diag(1.0 / np.diag(pencil.a)))


def exact_inverse_preconditioner(pencil):
    """The exact inverse ``T = A^-1`` (quality ``gamma = 0``)."""
    w = _tril_inverse(pencil._chol_a)
    inv = w.T @ w
    inv = (inv + inv.T) / 2.0
    return Preconditioner(matrix=inv, quality=PrecondQuality.ideal(0.0), coords="pencil")


def identity_preconditioner(pencil):
    """``T = I`` in pencil coordinates with measured quality."""
    return _measured(pencil, np.eye(pencil.n))


def estimate_quality(pencil, precond):
    """Tight spectral-equivalence constants of ``(A, T)``.

    ``gamma1`` and ``gamma2`` are the extreme eigenvalues of ``T A``,
    computed densely by LAPACK through ``numpy.linalg.eigvalsh`` (the
    eigenvalues of the symmetric ``C^T T C`` with ``A = C C^T``);
    exactness matters more than scalability at desk scale.
    """
    m = precond.matrix
    if precond.coords == "diagonal":
        g = m
    else:
        c = pencil._chol_a
        g = c.T @ m @ c
        g = (g + g.T) / 2.0
    w = np.linalg.eigvalsh(g)
    gamma1, gamma2 = float(w[0]), float(w[-1])
    if gamma1 <= 0:
        raise ValueError("preconditioner is not positive definite against A")
    return PrecondQuality(gamma1, gamma2)


def rescale(precond):
    """Ideally rescaled preconditioner ``(2 / (g1 + g2)) T``.

    Its quality is ``PrecondQuality.ideal(gamma)`` with the same
    ``gamma = (g2 - g1) / (g1 + g2)``, and it is a fixed point of this
    function.  An unknown quality raises ``ValueError``.
    """
    q = precond.quality
    if q is None:
        raise ValueError("rescaling needs the equivalence constants gamma1, gamma2")
    return Preconditioner((2.0 / (q.gamma1 + q.gamma2)) * precond.matrix,
                          PrecondQuality.ideal(q.gamma), precond.coords)
