"""Preconditioner construction, quality measurement, and rescaling.

Quality is tracked two ways.  The spectral-equivalence pair
``(gamma1, gamma2)`` bounds ``(z, Az)`` between ``gamma1 (z, T^-1 z)``
and ``gamma2 (z, T^-1 z)`` and is invariant under rescaling ``T``; the
single parameter ``gamma = (gamma2 - gamma1) / (gamma1 + gamma2)`` is
the quality after optimal rescaling and the one entering every
convergence factor.  The fixed-step solver PINVIT(1) needs its
preconditioner scaled so that ``gamma1 = 1 - gamma`` and
``gamma2 = 1 + gamma`` hold; the steepest-descent solver PSD does not,
because its line search absorbs the scaling.
"""

from dataclasses import dataclass

import numpy as np

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
    """Quality metadata: scaled-form ``gamma`` and/or equivalence constants."""

    gamma: float = None
    gamma1: float = None
    gamma2: float = None

    def __post_init__(self):
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if (self.gamma1 is None) != (self.gamma2 is None):
            raise ValueError("gamma1 and gamma2 must be given together")
        if self.gamma1 is not None:
            if self.gamma1 <= 0 or self.gamma2 <= 0:
                raise ValueError("equivalence constants must be positive")
            if self.gamma1 > self.gamma2:
                raise ValueError("gamma1 must not exceed gamma2")

    def scaled_gamma(self):
        """Quality after optimal rescaling: ``(g2 - g1) / (g1 + g2)``.

        Falls back to the stored ``gamma``; ``None`` when nothing is known.
        """
        if self.gamma1 is not None:
            return (self.gamma2 - self.gamma1) / (self.gamma1 + self.gamma2)
        return self.gamma

    def as_is_gamma(self):
        """Smallest ``g`` with ``1 - g <= gamma1 <= gamma2 <= 1 + g``.

        This is the quality of the preconditioner *without* rescaling,
        the one the fixed-step bound needs.  May be ``>= 1`` (then the
        fixed-step bound does not apply); ``None`` when unknown.
        """
        if self.gamma1 is not None:
            return max(1.0 - self.gamma1, self.gamma2 - 1.0)
        return self.gamma


@dataclass(frozen=True, eq=False)
class Preconditioner:
    """A symmetric positive definite operator with quality metadata.

    ``coords`` records which coordinates the stored matrix acts in:
    ``"pencil"`` (the original pair) or ``"diagonal"`` (after
    :func:`psdlab.pencil.diagonalize`, where ``A = I``).
    """

    matrix: np.ndarray
    quality: PrecondQuality
    coords: str = "pencil"

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("preconditioner matrix must be square")
        if self.coords not in ("pencil", "diagonal"):
            raise ValueError(f"unknown coordinate tag {self.coords!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self):
        return self.matrix.shape[0]

    def apply(self, r):
        return self.matrix.dot(np.asarray(r, dtype=float))

    def scaled(self, factor):
        """The preconditioner ``factor * T`` with consistently scaled quality."""
        if not 0.0 < factor < np.inf:
            raise ValueError(f"scale factor must be finite and positive, got {factor!r}")
        q = self.quality
        if q.gamma1 is not None:
            quality = PrecondQuality(
                gamma=q.gamma, gamma1=factor * q.gamma1, gamma2=factor * q.gamma2
            )
        else:
            # Equivalence constants unknown; the scaled-form gamma survives,
            # the as-is interpretation of plain gamma does not.
            quality = PrecondQuality(gamma=q.gamma) if factor == 1.0 else PrecondQuality()
        return Preconditioner(
            matrix=factor * self.matrix, quality=quality, coords=self.coords
        )

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
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
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
    t = np.eye(n) - e
    quality = PrecondQuality(gamma=gamma, gamma1=1.0 - gamma, gamma2=1.0 + gamma)
    return Preconditioner(matrix=t, quality=quality, coords="diagonal")


def jacobi_preconditioner(pencil):
    """Diagonal (Jacobi) preconditioner ``T = diag(A)^-1`` with measured quality."""
    d = np.diag(pencil.a).copy()
    if np.any(d <= 0):
        raise ValueError("A has a nonpositive diagonal entry")
    t = np.diag(1.0 / d)
    quality = estimate_quality(pencil, Preconditioner(t, PrecondQuality(), "pencil"))
    return Preconditioner(matrix=t, quality=quality, coords="pencil")


def exact_inverse_preconditioner(pencil):
    """The exact inverse ``T = A^-1`` (quality ``gamma = 0``)."""
    inv = pencil.solve_a(np.eye(pencil.n))
    inv = (inv + inv.T) / 2.0
    quality = PrecondQuality(gamma=0.0, gamma1=1.0, gamma2=1.0)
    return Preconditioner(matrix=inv, quality=quality, coords="pencil")


def identity_preconditioner(pencil):
    """``T = I`` in pencil coordinates with measured quality."""
    t = np.eye(pencil.n)
    quality = estimate_quality(pencil, Preconditioner(t, PrecondQuality(), "pencil"))
    return Preconditioner(matrix=t, quality=quality, coords="pencil")


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
    gamma = (gamma2 - gamma1) / (gamma1 + gamma2)
    return PrecondQuality(gamma=gamma, gamma1=gamma1, gamma2=gamma2)


def rescale(precond):
    """Optimally rescaled preconditioner ``(2 / (g1 + g2)) T``.

    The result satisfies the two-sided quality bound with
    ``gamma = (g2 - g1) / (g1 + g2)`` and is a fixed point of this
    function.
    """
    q = precond.quality
    if q.gamma1 is None:
        raise ValueError("rescaling needs the equivalence constants gamma1, gamma2")
    factor = 2.0 / (q.gamma1 + q.gamma2)
    gamma = (q.gamma2 - q.gamma1) / (q.gamma1 + q.gamma2)
    new_quality = PrecondQuality(gamma=gamma, gamma1=1.0 - gamma, gamma2=1.0 + gamma)
    return Preconditioner(
        matrix=factor * precond.matrix, quality=new_quality, coords=precond.coords
    )
