"""Matrix Market I/O, restricted to real symmetric coordinate files.

Only the format actually used by the pencil readers is supported:
``matrix coordinate real symmetric`` with 1-based indices and ``%``
comment lines.  Array and general/complex/pattern variants are rejected
explicitly rather than silently misread.
"""

import re

import numpy as np

from .errors import MatrixMarketError

_BANNER = "%%matrixmarket"
# A size or index token: ASCII digits, with a minus sign so that a negative
# size reads as one.  int() alone would also take "+1", "1_0" and non-ASCII
# digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _integers(tokens):
    """``tokens`` as ints, or None when one is not an integer token."""
    if all(_INTEGER.fullmatch(tok) for tok in tokens):
        return [int(tok) for tok in tokens]
    return None


def read_matrix(path):
    """Parse a real symmetric coordinate file into a dense symmetric array."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("empty file", line=1)

    header = lines[0].strip().split()
    if len(header) != 5 or header[0].lower() != _BANNER:
        raise MatrixMarketError(
            "expected header '%%MatrixMarket matrix coordinate real symmetric'",
            line=1,
        )
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}", line=1)
    if fmt != "coordinate":
        raise MatrixMarketError(f"unsupported format {fmt!r} (coordinate only)", line=1)
    if field != "real":
        raise MatrixMarketError(f"unsupported field {field!r} (real only)", line=1)
    if symmetry != "symmetric":
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r} (symmetric only)", line=1
        )

    # The first data line is the size line, every later one an entry.
    m = None
    seen = set()
    count = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if m is None:
            if len(parts) != 3:
                raise MatrixMarketError("size line must contain 'rows cols nnz'", line=lineno)
            sizes = _integers(parts)
            if sizes is None:
                raise MatrixMarketError("size line entries must be integers", line=lineno)
            rows, cols, nnz = sizes
            if rows != cols:
                raise MatrixMarketError("symmetric matrices must be square", line=lineno)
            if rows < 1:
                raise MatrixMarketError(f"matrix size must be at least 1, got {rows}",
                                        line=lineno)
            m = np.zeros((rows, rows))
            continue
        if len(parts) != 3:
            raise MatrixMarketError("entry line must be 'i j value'", line=lineno)
        indices = _integers(parts[:2])
        try:
            value = float(parts[2])
        except ValueError:
            value = None
        if indices is None or value is None:
            raise MatrixMarketError(f"cannot parse entry {stripped!r}", line=lineno)
        i, j = indices
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise MatrixMarketError(f"index ({i}, {j}) out of range", line=lineno)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise MatrixMarketError(f"duplicate entry for ({i}, {j})", line=lineno)
        seen.add(key)
        m[i - 1, j - 1] = value
        m[j - 1, i - 1] = value
        count += 1
    if m is None:
        raise MatrixMarketError("missing size line", line=len(lines))
    if count != nnz:
        raise MatrixMarketError(
            f"declared {nnz} entries but found {count}", line=len(lines)
        )
    return m


def write_matrix(path, m, comment=None):
    """Write the lower triangle of a symmetric matrix in coordinate format."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    n = m.shape[0]
    rows, cols = np.nonzero(np.tril(m))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{n} {n} {rows.size}\n")
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1} {float(m[i, j])!r}\n")
