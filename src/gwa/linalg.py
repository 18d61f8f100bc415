"""Exact linear algebra over a coefficient field.

Matrices are lists of rows of FieldElement; the kernels run on raw payloads
through the field's op table and wrap each result once.  The one elimination
engine is RowSpace, an incremental span that keeps its reduced row echelon rows
sparse, as {column: payload} maps.  A span's reduced echelon form is unique, so
rank, kernel_basis, solve and inverse read their answers off the RowSpace of
the rows.  linear_relations(images, spec) is the kernel primitive: the basis of
{c : sum_j c_j images[j] = 0} that kernel_basis gives for the matrix whose
columns are the images, each a dense list or a sparse {coordinate: scalar}
dict; with no nonzero coordinate it is the identity basis.
"""

from __future__ import annotations

from .errors import FieldMismatch, InvalidParameters
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


def _nonzero_payloads(items, spec: FieldSpec) -> list:
    """(key, payload) of the nonzero scalars among (key, scalar) items, which
    must all lie in spec."""
    is_zero = spec.ops[4]
    out = []
    for j, x in items:
        if x.spec is not spec and x.spec != spec:
            raise FieldMismatch(f"operands live in different fields: {spec!r} vs {x.spec!r}")
        if not is_zero(x.payload):
            out.append((j, x.payload))
    return out


def mat_mul(a, b):
    spec = b[0][0].spec
    add, mul = spec.ops[:2]
    zero = spec.zero()
    m = len(b[0])
    b = [_nonzero_payloads(enumerate(row), spec) for row in b]
    out = []
    for row in a:
        acc = [None] * m
        for t, x in _nonzero_payloads(enumerate(row), spec):
            for j, y in b[t]:
                s = acc[j]
                acc[j] = mul(x, y) if s is None else add(s, mul(x, y))
        out.append([zero if s is None else FieldElement(spec, s) for s in acc])
    return out


def mat_vec(a, v):
    return mat_mul([v], transpose(a))[0] if a else []


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
    {column: payload} per pivot column, with a one at its pivot and zeros
    (absent keys) at every other pivot.  Vectors may be given dense, as lists
    of `width` scalars, or sparse, as {column: scalar} dicts.  `by_pivot` is a
    read-only view of the same rows with FieldElement entries, built on first
    read and dropped whenever the space grows.
    """

    def __init__(self, spec: FieldSpec, width: int):
        self.spec = spec
        self.width = width
        self._rows = {}         # pivot column -> sparse reduced row of payloads
        self._view = None

    def _reduce(self, v) -> dict:
        v = dict(_nonzero_payloads(v.items() if isinstance(v, dict) else enumerate(v), self.spec))
        # a reduced row is zero at every other pivot, so clearing one pivot
        # never refills another: one pass over the pivots in the support does
        rows, ops = self._rows, self.spec.ops
        for p in [j for j in v if j in rows]:
            _sub_multiple(v, v[p], rows[p], ops)
        return v

    def add(self, v) -> bool:
        """Insert the vector; returns True when it enlarged the space."""
        v = self._reduce(v)
        if not v:
            return False
        ops = self.spec.ops
        pivot = min(v)
        inv = ops[3](v[pivot])
        v = {j: ops[1](x, inv) for j, x in v.items()}
        for row in self._rows.values():
            f = row.get(pivot)
            if f is not None:
                _sub_multiple(row, f, v, ops)
        self._rows[pivot] = v
        self._view = None
        return True

    def contains(self, v) -> bool:
        return not self._reduce(v)

    @property
    def by_pivot(self) -> dict:
        """pivot column -> sparse reduced row {column: FieldElement}."""
        if self._view is None:
            self._view = {p: {j: FieldElement(self.spec, x) for j, x in row.items()}
                          for p, row in self._rows.items()}
        return self._view

    @property
    def pivots(self) -> list:
        return sorted(self._rows)

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
        return len(self._rows)

    def equals(self, other: "RowSpace") -> bool:
        return self.dim == other.dim and all(other.contains(r) for r in self.by_pivot.values())


def _sub_multiple(v: dict, f, row: dict, ops) -> None:
    """v -= f * row in place on payloads, dropping entries that cancel."""
    add, mul, neg, _, is_zero = ops
    f = neg(f)
    for j, y in row.items():
        x = v.get(j)
        if x is None:
            v[j] = mul(f, y)
        else:
            x = add(x, mul(f, y))
            if is_zero(x):
                del v[j]
            else:
                v[j] = x
