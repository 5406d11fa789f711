"""Pencil algebra for symmetric positive definite matrix pairs.

A pencil is a pair ``(A, B)`` of s.p.d. matrices whose generalized
eigenvalues ``A x = lambda B x`` are the target of the gradient
eigensolvers in :mod:`psdlab.iterate`.  The analysis-friendly picture is
the reciprocal one: the congruence of :func:`diagonalize` maps the pair
to ``A = I`` and ``B = diag(mu_1, ..., mu_n)`` with ``mu_i = 1/lambda_i``
in decreasing order, and all solver-internal math happens in those
coordinates.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSubspaceError

__all__ = [
    "SymmetricPencil",
    "Spectrum",
    "RayleighValue",
    "DiagonalForm",
    "RitzPair",
    "rayleigh",
    "residual",
    "diagonalize",
    "rayleigh_ritz",
    "orthonormalize",
    "generate_problem",
]

# Rank test of a Gram-Schmidt basis: a vector whose part orthogonal to the
# vectors before it is shorter than this fraction of its length is
# linearly dependent on them.
_RANK_TOL = 1e-10


def _as_dense(m):
    if hasattr(m, "toarray"):  # scipy.sparse at desk scale: densify
        m = m.toarray()
    return np.array(m, dtype=float)


class SymmetricPencil:
    """Matrix pair ``(A, B)``, both symmetric positive definite.

    Every entry must be finite and symmetry must hold exactly on the
    stored entries; positivity is checked through an attempted Cholesky
    factorization at construction time.  Instances are immutable and
    safe to share.
    """

    def __init__(self, a, b):
        a = _as_dense(a)
        b = _as_dense(b)
        for name, m in (("A", a), ("B", b)):
            finite = np.isfinite(m)
            if not finite.all():
                at = tuple(np.argwhere(~finite)[0].tolist())
                raise ValueError(f"{name} has a non-finite entry {float(m[at])!r} at {at}")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape != a.shape:
            raise ValueError("A and B must have identical shape")
        if not np.array_equal(a, a.T):
            raise ValueError("A is not exactly symmetric as stored")
        if not np.array_equal(b, b.T):
            raise ValueError("B is not exactly symmetric as stored")
        try:
            chol_a = np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("A is not positive definite") from exc
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("B is not positive definite") from exc
        a.flags.writeable = False
        b.flags.writeable = False
        self._a = a
        self._b = b
        self._chol_a = chol_a
        self._diag_form = None

    @property
    def a(self):
        return self._a

    @property
    def b(self):
        return self._b

    @property
    def n(self):
        return self._a.shape[0]

    def solve_a(self, rhs):
        """Apply the exact inverse of A through its Cholesky factor."""
        y = np.linalg.solve(self._chol_a, rhs)
        return np.linalg.solve(self._chol_a.T, y)

    def __repr__(self):
        return f"SymmetricPencil(n={self.n})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Generalized eigenvalues of a pencil and their reciprocals.

    ``lambdas`` is finite, positive and nondecreasing; ``mus = 1/lambdas``
    is derived from it, nonincreasing and paired with ``lambdas`` by index.
    ``_lam`` holds the same values as a tuple of Python floats, which the
    per-step interval lookup bisects and indexes without numpy's scalar
    overhead.
    """

    lambdas: np.ndarray
    mus: np.ndarray = field(init=False)
    _lam: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambdas must be a nonempty 1-D sequence")
        finite = np.isfinite(lam)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(f"lambdas must be finite, got lambdas[{k}] = {float(lam[k])!r}")
        if np.any(lam <= 0):
            raise ValueError("all eigenvalues must be positive")
        if np.any(np.diff(lam) < 0):
            raise ValueError("lambdas must be nondecreasing")
        mus = 1.0 / lam
        lam.flags.writeable = False
        mus.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "_lam", tuple(lam.tolist()))

    def __len__(self):
        return self.lambdas.size


class RayleighValue(NamedTuple):
    """A Rayleigh quotient in both conventions: ``rho`` and ``mu = 1/rho``.

    A named tuple: it equals, hashes, orders and unpacks as the plain
    tuple ``(rho, mu)``.
    """

    rho: float
    mu: float

    @classmethod
    def from_rho(cls, rho):
        return cls(rho=float(rho), mu=1.0 / float(rho))


@dataclass(frozen=True, eq=False)
class RitzPair:
    """One Ritz approximation from a projected pencil.

    ``mu`` is the reciprocal-form Ritz value and ``rho = 1/mu`` the
    lambda-form one; ``vector`` has unit Euclidean norm;
    ``basis_coefficients`` are the coordinates of ``vector`` in the
    caller's (non-orthonormalized) basis, sign-fixed so that the first
    nonzero coefficient is positive.
    """

    mu: float
    vector: np.ndarray
    basis_coefficients: np.ndarray

    @property
    def rho(self):
        return 1.0 / self.mu


def rayleigh(pencil, x):
    """Rayleigh quotient ``(x, Ax) / (x, Bx)`` of a nonzero vector.

    Returns a :class:`RayleighValue` carrying both ``rho`` and its
    reciprocal ``mu``.  Scale invariant: ``rayleigh(pencil, c*x)`` equals
    ``rayleigh(pencil, x)`` for every ``c != 0``.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    num = float(x @ (pencil.a @ x))
    den = float(x @ (pencil.b @ x))
    return RayleighValue(rho=num / den, mu=den / num)


def residual(pencil, x):
    """Eigen-residual ``Ax - rho(x) Bx`` of ``x``."""
    x = np.asarray(x, dtype=float)
    return pencil.a @ x - rayleigh(pencil, x).rho * (pencil.b @ x)


@dataclass(eq=False)
class DiagonalForm:
    """Congruence carrying a pencil to ``A = I``, ``B = diag(mus)``.

    ``basis`` maps original coordinates to diagonalized ones
    (``z = basis @ x``); ``inverse_basis`` maps back.  ``mus`` is stored
    in decreasing order, so ``lambdas = 1/mus`` reversed is ascending.
    """

    mus: np.ndarray
    basis: np.ndarray
    inverse_basis: np.ndarray
    _spectrum: Spectrum = field(default=None, repr=False)
    _shift: np.ndarray = field(init=False, default=None, repr=False)

    @property
    def n(self):
        return self.mus.size

    def to_diagonal(self, x):
        return self.basis.dot(np.asarray(x, dtype=float))

    def from_diagonal(self, z):
        return self.inverse_basis.dot(np.asarray(z, dtype=float))

    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = Spectrum(lambdas=1.0 / self.mus)
        return self._spectrum

    @property
    def shift(self):
        """``mus[0] - mus``: the ``S = mus[0] - B`` of the line-search step's 2x2 problem."""
        if self._shift is None:
            self._shift = self.mus[0] - self.mus
        return self._shift


def diagonalize(pencil):
    """Compute (and cache on the pencil) its :class:`DiagonalForm`.

    The congruence is the Cholesky factorization ``A = C C^T`` followed by
    an orthogonal diagonalization of ``C^-1 B C^-T`` by LAPACK through
    numpy (``numpy.linalg.solve`` for the two reductions by ``C`` and the
    map back, ``numpy.linalg.eigh`` for the symmetric eigenproblem); the
    reciprocal eigenvalues come out in decreasing order.  Within a
    repeated eigenvalue the basis is whatever LAPACK returns: only the
    eigenspace is determined.
    """
    if pencil._diag_form is not None:
        return pencil._diag_form
    c = pencil._chol_a
    tmp = np.linalg.solve(c, pencil.b)
    bt = np.linalg.solve(c, tmp.T)
    bt = (bt + bt.T) / 2.0
    mus, q = np.linalg.eigh(bt)
    mus = mus[::-1]
    q = q[:, ::-1]
    # z = Q^T C^T x diagonalizes; x = C^-T Q z maps back.
    basis = q.T @ c.T
    inverse_basis = np.linalg.solve(c.T, q)
    form = DiagonalForm(mus=mus, basis=basis, inverse_basis=inverse_basis)
    pencil._diag_form = form
    return form


def orthonormalize(vectors):
    """Euclidean orthonormalization by modified Gram-Schmidt.

    One reorthogonalization pass is applied to every column.  A column
    whose post-orthogonalization norm falls below ``1e-10`` times its
    original norm is declared linearly dependent and raises
    :class:`DegenerateSubspaceError` carrying the detected rank.

    Returns ``(Q, R)`` with ``column_stack(vectors) == Q @ R``.
    """
    v = np.column_stack([np.asarray(col, dtype=float) for col in vectors])
    n, k = v.shape
    q = np.zeros((n, k))
    r = np.zeros((k, k))
    rank = 0
    dependent = []
    for j in range(k):
        w = v[:, j].copy()
        pre = np.linalg.norm(w)
        if pre == 0.0:
            dependent.append(j)
            continue
        for _ in range(2):  # MGS plus one reorthogonalization pass
            for i in range(rank):
                h = q[:, i] @ w
                r[i, j] += h
                w = w - h * q[:, i]
        post = np.linalg.norm(w)
        if post < _RANK_TOL * pre:
            dependent.append(j)
            continue
        r[j, j] = post
        q[:, rank] = w / post
        rank += 1
    if dependent:
        raise DegenerateSubspaceError(
            f"basis is rank deficient: rank {rank} for {k} vectors "
            f"(dependent columns {dependent})",
            rank=rank,
        )
    return q, r


def _shifted_ritz_2x2(p, q, c):
    """The 2x2 Ritz problem of ``(I, diag(mus))`` on an orthonormal pair, shifted.

    ``p, q >= 0`` and ``c`` are the entries of ``S = mus[0] - B`` on the
    pair, as floats or as arrays of rows.  Returns ``(g, half, root)``:
    the smaller eigenvalue ``g`` of ``[[p, c], [c, q]]``, accurate relative
    to itself as the Ritz value ``mus[0] - g`` nears ``mus[0]``, with
    ``half = (q - p)/2`` and ``root = sqrt(half^2 + c^2)``.  The eigenvector
    of ``g`` is ``(half + root, -c)`` if ``half >= 0``, else
    ``(c, half - root)``; neither cancels.  Outside the contract: ``p = q``
    with ``c = 0`` (zero eigenvector; ``g`` is 0/0 at ``p = 0``) and
    entries whose squares underflow.
    """
    half = 0.5 * (q - p)
    root = (half * half + c * c) ** 0.5  # on arrays, np.sqrt bit for bit
    return (p * q - c * c) / (0.5 * (p + q) + root), half, root


def rayleigh_ritz(pencil, basis_vectors):
    """Ritz pairs of the pencil over the span of ``basis_vectors``.

    The basis is orthonormalized (Euclidean) and the projected pencil is
    solved by LAPACK for any number of basis vectors.  Pairs are returned
    sorted by ascending ``lambda`` (equivalently descending ``mu``), each
    with unit-norm vector and caller-basis coefficients.

    This is the general reference path, kept as the oracle of the
    solvers' O(n) step kernel in :mod:`psdlab.iterate`.  It shares no
    code with the kernel, which does the two-dimensional projection
    without forming matrices and solves it in closed form.  The projected
    pencil goes through LAPACK by ``numpy.linalg``: a Cholesky factor
    ``L`` of the projected A block, ``eigh`` of ``L^-1 (projected B) L^-T``
    and a back-solve with ``L^T``; the caller-basis coefficients come from
    a solve with the triangular ``R`` of the orthonormalization.
    """
    q, r = orthonormalize(basis_vectors)
    k = q.shape[1]
    pa = q.T @ (pencil.a @ q)
    pb = q.T @ (pencil.b @ q)
    pa = (pa + pa.T) / 2.0
    pb = (pb + pb.T) / 2.0
    try:  # pa = L L^T; cannot fail for s.p.d. A and full rank
        chol = np.linalg.cholesky(pa)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSubspaceError(
            "projected A block is numerically singular", rank=k - 1
        ) from exc
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, pb).T)
    # mu ascending, pa-normalized eigenvectors in the orthonormal basis
    mu_vals, v = np.linalg.eigh(reduced)
    z = np.linalg.solve(chol.T, v)

    pairs = []
    for idx in range(k - 1, -1, -1):  # descending mu == ascending lambda
        coeff_orth = z[:, idx]
        vec = q @ coeff_orth
        vec = vec / np.linalg.norm(vec)
        raw = np.linalg.solve(r, coeff_orth)
        scale = np.max(np.abs(raw))
        raw = raw / scale
        nonzero = np.nonzero(np.abs(raw) > 1e-14)[0]
        if nonzero.size and raw[nonzero[0]] < 0:
            raw = -raw
            vec = -vec
        pairs.append(RitzPair(mu=float(mu_vals[idx]), vector=vec, basis_coefficients=raw))
    return pairs


# -- test problem generation -------------------------------------------------


def _laplacian_1d(n, h):
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    a = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return a / (h * h)


def _mass_1d(n, h):
    main = np.full(n, 4.0)
    off = np.full(n - 1, 1.0)
    return (np.diag(main) + np.diag(off, 1) + np.diag(off, -1)) * (h / 6.0)


def generate_problem(kind, **params):
    """Construct a test pencil.

    Parameters
    ----------
    kind : {"diagonal", "laplacian1d", "laplacian2d", "matrix_market"}
        ``diagonal``: ``A = diag(lambdas)``, ``B = I`` (needs
        ``lambdas``, at least three values).
        ``laplacian1d``: second-difference stiffness matrix on ``n``
        interior points of a unit-spaced grid scaled by ``1/h**2``;
        ``mass`` selects ``B``: ``"identity"`` or the ``"fem"``
        tridiagonal ``(h/6) tridiag(1, 4, 1)``.
        ``laplacian2d``: five-point stencil on an ``nx`` by ``ny``
        interior grid; ``mass="fem"`` is the tensor-product mass matrix.
        Both Laplacians take the grid spacing ``h`` (default 1), which
        must be finite and positive.
        ``matrix_market``: read ``path_a`` (and optionally ``path_b``)
        in real symmetric coordinate format; ``B = I`` if no
        ``path_b``.
    """
    h = float(params.get("h", 1.0))
    if not 0.0 < h < np.inf:
        raise ValueError(f"grid spacing h must be finite and positive, got {h!r}")
    if kind == "diagonal":
        lambdas = np.asarray(params["lambdas"], dtype=float)
        if lambdas.size < 3:
            raise ValueError("diagonal problems need at least 3 eigenvalues")
        if not np.all((lambdas > 0) & (lambdas < np.inf)):
            raise ValueError(
                f"diagonal entries must be finite and positive, got {lambdas.tolist()}")
        return SymmetricPencil(np.diag(lambdas), np.eye(lambdas.size))

    if kind == "laplacian1d":
        n = int(params["n"])
        if n < 2:
            raise ValueError("laplacian1d needs n >= 2")
        a = _laplacian_1d(n, h)
        mass = params.get("mass", "identity")
        if mass == "identity":
            b = np.eye(n)
        elif mass == "fem":
            b = _mass_1d(n, h)
        else:
            raise ValueError(f"unknown mass kind {mass!r}")
        return SymmetricPencil(a, b)

    if kind == "laplacian2d":
        nx = int(params["nx"])
        ny = int(params.get("ny", nx))
        if nx < 2 or ny < 2:
            raise ValueError("laplacian2d needs nx, ny >= 2")
        tx = _laplacian_1d(nx, h)
        ty = _laplacian_1d(ny, h)
        a = np.kron(np.eye(ny), tx) + np.kron(ty, np.eye(nx))
        mass = params.get("mass", "identity")
        if mass == "identity":
            b = np.eye(nx * ny)
        elif mass == "fem":
            b = np.kron(_mass_1d(ny, h), _mass_1d(nx, h))
        else:
            raise ValueError(f"unknown mass kind {mass!r}")
        return SymmetricPencil(a, b)

    if kind == "matrix_market":
        from . import mmio

        a = mmio.read_matrix(params["path_a"])
        path_b = params.get("path_b")
        b = mmio.read_matrix(path_b) if path_b else np.eye(a.shape[0])
        return SymmetricPencil(a, b)

    raise ValueError(f"unknown problem kind {kind!r}")
