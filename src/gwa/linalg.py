"""Exact linear algebra over a coefficient field.

The kernels run on payload rows: a matrix is a list of sparse rows
{column: payload}, a vector one such row, with zeros dropped.  Payloads are
canonical per field, so two payload matrices are equal exactly when their row
dicts are.  `payload_rows` checks the field of a matrix of FieldElement (dense
lists or sparse dicts) once and sparsifies it; `element_rows` wraps payload
rows back into dense FieldElement rows.  `mul_rows` is the one product kernel,
and mat_mul and mat_vec are "check, multiply, wrap" around it.  The one
elimination engine is RowSpace, an incremental span that keeps its reduced row
echelon rows as payload rows.  A span's reduced echelon form is unique, so
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


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# -- payload rows ---------------------------------------------------------------


def payload_row(v, spec: FieldSpec) -> dict:
    """The payload row {column: payload} of a vector of scalars of spec, given
    dense or as a sparse {column: scalar} dict."""
    is_zero = spec.ops[4]
    out = {}
    for j, x in (v.items() if isinstance(v, dict) else enumerate(v)):
        if x.spec is not spec and x.spec != spec:
            raise FieldMismatch(f"operands live in different fields: {spec!r} vs {x.spec!r}")
        if not is_zero(x.payload):
            out[j] = x.payload
    return out


def payload_rows(a, spec: FieldSpec) -> list:
    return [payload_row(row, spec) for row in a]


def element_rows(rows, spec: FieldSpec, width: int) -> list:
    """Dense FieldElement rows of `width` entries from payload rows."""
    zero = spec.zero()
    out = []
    for row in rows:
        dense = [zero] * width
        for j, x in row.items():
            dense[j] = FieldElement(spec, x)
        out.append(dense)
    return out


def mul_rows(a, b, ops) -> list:
    """The product a b of payload matrices, with the entries that cancel dropped."""
    add, mul, _, _, is_zero = ops
    out = []
    for row in a:
        acc = {}
        for t, x in row.items():
            for j, y in b[t].items():
                s = acc.get(j)
                acc[j] = mul(x, y) if s is None else add(s, mul(x, y))
        out.append({j: s for j, s in acc.items() if not is_zero(s)})
    return out


def mul_vec(a, v: dict, ops) -> dict:
    """a v for a square payload matrix and a payload row v, through mul_rows
    with v as a one-column matrix."""
    column = [{0: v[j]} if j in v else {} for j in range(len(a))]
    return {i: row[0] for i, row in enumerate(mul_rows(a, column, ops)) if row}


def sum_rows(terms, ops, n: int) -> list:
    """sum_k c_k M_k over (payload c_k, payload matrix M_k of n rows) pairs."""
    add, mul, _, _, is_zero = ops
    out = [{} for _ in range(n)]
    for c, m in terms:
        for acc, row in zip(out, m):
            for j, x in row.items():
                x = mul(c, x)
                s = acc.get(j)
                acc[j] = x if s is None else add(s, x)
    return [{j: x for j, x in acc.items() if not is_zero(x)} for acc in out]


def inverse_rows(rows, spec: FieldSpec) -> list | None:
    """The inverse of a square payload matrix, or None when it is singular."""
    n = len(rows)
    one = spec.one().payload
    space = RowSpace(spec, 2 * n)
    for i, row in enumerate(rows):
        space.add_payloads({**row, n + i: one})
    if any(p not in space._rows for p in range(n)):
        return None
    return [{j - n: x for j, x in space._rows[p].items() if j >= n} for p in range(n)]


def payload_relations(images, spec: FieldSpec) -> list:
    """linear_relations for images given as payload rows."""
    rows = {}
    for j, image in enumerate(images):
        for k, x in image.items():
            rows.setdefault(k, {})[j] = x
    space = RowSpace(spec, len(images))
    for row in rows.values():
        space.add_payloads(row)
    return _free_column_basis(space)


# -- FieldElement matrices --------------------------------------------------------


def mat_mul(a, b):
    spec = b[0][0].spec
    return element_rows(mul_rows(payload_rows(a, spec), payload_rows(b, spec), spec.ops),
                        spec, len(b[0]))


def mat_vec(a, v):
    return mat_mul([v], transpose(a))[0] if a else []


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
    return payload_relations([payload_row(image, spec) for image in images], spec)


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
    inv = inverse_rows(payload_rows(a, spec), spec)
    return None if inv is None else element_rows(inv, spec, len(a))


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

    The basis is kept in reduced row echelon form, one payload row per pivot
    column, with a one at its pivot and zeros (absent keys) at every other
    pivot.  Vectors may be given dense, as lists of `width` scalars, or sparse,
    as {column: scalar} dicts; add_payloads takes a payload row as it is.  `by_pivot` is a
    read-only view of the same rows with FieldElement entries, built on first
    read and dropped whenever the space grows.
    """

    def __init__(self, spec: FieldSpec, width: int):
        self.spec = spec
        self.width = width
        self._rows = {}         # pivot column -> sparse reduced row of payloads
        self._view = None

    def _reduce(self, v: dict) -> dict:
        """v reduced in place against the basis rows."""
        # a reduced row is zero at every other pivot, so clearing one pivot
        # never refills another: one pass over the pivots in the support does
        rows, ops = self._rows, self.spec.ops
        for p in [j for j in v if j in rows]:
            _sub_multiple(v, v[p], rows[p], ops)
        return v

    def add(self, v) -> bool:
        """Insert the vector; returns True when it enlarged the space."""
        return self._insert(payload_row(v, self.spec))

    def add_payloads(self, v) -> bool:
        """add for a payload row of this field, a {column: nonzero payload}
        mapping, which is not checked and not modified."""
        return self._insert(dict(v))

    def _insert(self, v: dict) -> bool:
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
        return not self._reduce(payload_row(v, self.spec))

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
