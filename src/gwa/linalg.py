"""Exact linear algebra over a coefficient field.

Matrices are lists of rows of FieldElement.  The one elimination engine is
RowSpace, an incremental span that keeps its reduced row echelon rows sparse,
as {column: scalar} maps.  A span's reduced echelon form is unique, so rank,
kernel_basis, solve and inverse read their answers off the RowSpace of the rows.
linear_relations(images, spec) is the kernel primitive: the basis of
{c : sum_j c_j images[j] = 0} that kernel_basis gives for the matrix whose
columns are the images, each a dense list or a sparse {coordinate: scalar}
dict; with no nonzero coordinate it is the identity basis.
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


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def transpose(a):
    return [list(col) for col in zip(*a)]


def rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return _row_space(rows, rows[0][0].spec, len(rows[0])).dim


def kernel_basis(a, spec: FieldSpec):
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        raise InvalidParameters("kernel of an empty matrix is ambiguous")
    return _free_column_basis(_row_space(a, spec, len(a[0])))


def linear_relations(images, spec: FieldSpec):
    """Basis of the relations {c : sum_j c_j images[j] = 0}."""
    rows = {}
    for j, image in enumerate(images):
        for k, x in (image.items() if isinstance(image, dict) else enumerate(image)):
            if not x.is_zero():
                rows.setdefault(k, {})[j] = x
    return _free_column_basis(_row_space(rows.values(), spec, len(images)))


def linear_combination(coeffs, elements, zero):
    """sum_j coeffs[j] elements[j], the element a relation stands for; the
    elements are ring or algebra elements."""
    out = zero
    for c, e in zip(coeffs, elements):
        if not c.is_zero():
            out = out + e.scale(c)
    return out


def solve(a, b, spec: FieldSpec):
    """One solution x of a x = b, or None when inconsistent."""
    ncols = len(a[0])
    space = _row_space([list(ra) + [bv] for ra, bv in zip(a, b)], spec, ncols + 1)
    if ncols in space.by_pivot:
        return None
    zero = spec.zero()
    x = [zero] * ncols
    for p, row in space.by_pivot.items():
        x[p] = row.get(ncols, zero)
    return x


def inverse(a, spec: FieldSpec):
    n = len(a)
    aug = [list(row) + list(idr) for row, idr in zip(a, identity(spec, n))]
    space = _row_space(aug, spec, 2 * n)
    if any(p not in space.by_pivot for p in range(n)):
        return None
    zero = spec.zero()
    return [[space.by_pivot[p].get(n + j, zero) for j in range(n)] for p in range(n)]


def _row_space(rows, spec: FieldSpec, width: int) -> RowSpace:
    space = RowSpace(spec, width)
    for row in rows:
        space.add(row)
    return space


def _free_column_basis(space: RowSpace) -> list:
    """The kernel of the reduced rows, one vector per non-pivot column f: a one
    at f, and at each pivot minus that row's entry in column f."""
    zero, one = space.spec.zero(), space.spec.one()
    basis = {}
    for f in range(space.width):
        if f not in space.by_pivot:
            basis[f] = [zero] * space.width
            basis[f][f] = one
    for p, row in space.by_pivot.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = -x
    return list(basis.values())


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
