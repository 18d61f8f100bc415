"""Exact linear algebra over a coefficient field.

Matrices are lists of rows of FieldElement, and the matrix routines are plain
dense Gaussian elimination with exact division; no pivoting strategy is
needed because the arithmetic is exact.  RowSpace, the incremental span used
for wide, mostly-zero vectors, keeps its reduced rows sparse instead.
"""

from __future__ import annotations

from .errors import InvalidParameters
from .field import FieldElement, FieldSpec


def zeros(spec: FieldSpec, rows: int, cols: int):
    z = spec.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(spec: FieldSpec, n: int):
    m = zeros(spec, n, n)
    one = spec.one()
    for i in range(n):
        m[i][i] = one
    return m


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0].spec.zero()
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                x = row_a[t]
                if x.is_zero():
                    continue
                term = x * b[t][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else zero)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(row, v):
            if x.is_zero() or y.is_zero():
                continue
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else v[0].spec.zero())
    return out


def mat_pow(a, k: int):
    n = len(a)
    spec = a[0][0].spec
    out = identity(spec, n)
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r] + [row for row in rows[r:] if any(not x.is_zero() for x in row)], pivots


def rank(rows) -> int:
    reduced, pivots = rref(rows)
    return len(pivots)


def kernel_basis(a, spec: FieldSpec):
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        raise InvalidParameters("kernel of an empty matrix is ambiguous")
    ncols = len(a[0])
    reduced, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero, one = spec.zero(), spec.one()
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def solve(a, b, spec: FieldSpec):
    """One solution x of a x = b, or None when inconsistent."""
    rows = [list(ra) + [bv] for ra, bv in zip(a, b)]
    ncols = len(a[0])
    reduced, pivots = rref(rows)
    for row in reduced:
        if all(x.is_zero() for x in row[:-1]) and not row[-1].is_zero():
            return None
    zero = spec.zero()
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = reduced[r][-1]
    return x


def inverse(a, spec: FieldSpec):
    n = len(a)
    aug = [list(row) + list(idr) for row, idr in zip(a, identity(spec, n))]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


class RowSpace:
    """Incrementally built row space with membership testing.

    The basis is kept in reduced row echelon form, one sparse row
    {column: FieldElement} per pivot column, with a one at its pivot and zeros
    (absent keys) at every other pivot.  Vectors may be given dense, as lists
    of `width` scalars, or sparse, as {column: scalar} dicts.
    """

    def __init__(self, spec: FieldSpec, width: int):
        self.spec = spec
        self.width = width
        self.by_pivot = {}      # pivot column -> sparse reduced row

    def _reduce(self, v) -> dict:
        if isinstance(v, dict):
            v = {j: x for j, x in v.items() if not x.is_zero()}
        else:
            v = {j: x for j, x in enumerate(v) if not x.is_zero()}
        # a reduced row is zero at every other pivot, so clearing one pivot
        # never refills another: one pass over the pivots in the support does
        for p in [j for j in v if j in self.by_pivot]:
            _sub_multiple(v, v[p], self.by_pivot[p])
        return v

    def add(self, v) -> bool:
        """Insert the vector; returns True when it enlarged the space."""
        v = self._reduce(v)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot].inv()
        v = {j: x * inv for j, x in v.items()}
        for row in self.by_pivot.values():
            f = row.get(pivot)
            if f is not None:
                _sub_multiple(row, f, v)
        self.by_pivot[pivot] = v
        return True

    def contains(self, v) -> bool:
        return not self._reduce(v)

    @property
    def pivots(self) -> list:
        return sorted(self.by_pivot)

    @property
    def rows(self) -> list:
        """The reduced rows as dense lists, in pivot order."""
        zero = self.spec.zero()
        out = []
        for p in self.pivots:
            row = [zero] * self.width
            for j, x in self.by_pivot[p].items():
                row[j] = x
            out.append(row)
        return out

    @property
    def dim(self) -> int:
        return len(self.by_pivot)

    def equals(self, other: "RowSpace") -> bool:
        return self.dim == other.dim and all(other.contains(r) for r in self.by_pivot.values())


def _sub_multiple(v: dict, f: FieldElement, row: dict) -> None:
    """v -= f * row in place, dropping entries that cancel."""
    f = -f
    for j, y in row.items():
        x = v.get(j)
        if x is None:
            v[j] = f * y
        else:
            x = x + f * y
            if x.is_zero():
                del v[j]
            else:
                v[j] = x
