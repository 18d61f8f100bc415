"""Exact linear algebra over a coefficient field.

There is one matrix form.  A matrix is a list of sparse payload rows
{column: payload}, a vector one such row, with zeros dropped.  Payloads are
canonical per field, so two payload matrices are equal exactly when their row
dicts are.  FieldElement matrices appear only at the edges: `payload_rows`
checks the field of a matrix of FieldElement (dense lists or sparse dicts)
once and sparsifies it, and `element_rows` wraps payload rows back into dense
FieldElement rows.  `mul_rows` is the one product kernel (mul_vec is its
one-column case).  The one elimination engine is RowSpace, an incremental
span that keeps its reduced row echelon rows as payload rows.  A span's
reduced echelon form is unique, so payload_kernel, inverse_rows and same_span
read their answers off the RowSpace of the rows.  payload_relations(images,
spec) is the relation primitive: the basis of {c : sum_j c_j images[j] = 0},
the kernel of the matrix whose columns are the images, each a payload row
keyed by any hashable coordinates; with no nonzero coordinate it is the
identity basis.  mat_mul and kernel_basis are the FieldElement forms:
check, compute on payloads, wrap.
"""

from __future__ import annotations

from .errors import FieldMismatch, InvalidParameters
from .field import FieldElement, FieldSpec


def zeros(spec: FieldSpec, rows: int, cols: int):
    z = spec.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


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


def column_rows(columns, n: int) -> list:
    """The payload matrix of n rows whose j-th column is the payload row columns[j]."""
    rows = [{} for _ in range(n)]
    for j, column in enumerate(columns):
        for i, x in column.items():
            rows[i][j] = x
    return rows


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


def _span(rows, spec: FieldSpec, width: int) -> RowSpace:
    space = RowSpace(spec, width)
    for row in rows:
        space.add_payloads(row)
    return space


def same_span(a, b, spec: FieldSpec, width: int) -> bool:
    """Whether two lists of payload rows span the same space."""
    return _span(a, spec, width)._rows == _span(b, spec, width)._rows


def inverse_rows(rows, spec: FieldSpec) -> list | None:
    """The inverse of a square payload matrix, or None when it is singular."""
    n = len(rows)
    one = spec.one().payload
    space = _span(({**row, n + i: one} for i, row in enumerate(rows)), spec, 2 * n)
    if any(p not in space._rows for p in range(n)):
        return None
    return [{j - n: x for j, x in space._rows[p].items() if j >= n} for p in range(n)]


def payload_kernel(rows, spec: FieldSpec, width: int) -> list:
    """The right kernel {v : a v = 0} of a payload matrix of `width` columns,
    as payload rows: one vector per non-pivot column f of the reduced rows, a
    one at f, and at each pivot minus that row's entry in column f."""
    space = _span(rows, spec, width)
    neg, one = spec.ops[2], spec.one().payload
    basis = {f: {f: one} for f in range(width) if f not in space._rows}
    for p, row in space._rows.items():
        for f, x in row.items():
            if f != p:
                basis[f][p] = neg(x)
    return list(basis.values())


def payload_relations(images, spec: FieldSpec) -> list:
    """The relations {c : sum_j c_j images[j] = 0} among payload rows, as payload rows."""
    rows = {}
    for j, image in enumerate(images):
        for k, x in image.items():
            rows.setdefault(k, {})[j] = x
    return payload_kernel(rows.values(), spec, len(images))


# -- FieldElement matrices --------------------------------------------------------


def mat_mul(a, b):
    spec = b[0][0].spec
    return element_rows(mul_rows(payload_rows(a, spec), payload_rows(b, spec), spec.ops),
                        spec, len(b[0]))


def kernel_basis(a, spec: FieldSpec):
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        raise InvalidParameters("kernel of an empty matrix is ambiguous")
    width = len(a[0])
    return element_rows(payload_kernel(payload_rows(a, spec), spec, width), spec, width)


class RowSpace:
    """Incrementally built row space.

    The basis is kept in reduced row echelon form, one payload row per pivot
    column, with a one at its pivot and zeros (absent keys) at every other
    pivot.  add takes a vector of scalars, dense (a list of `width` scalars)
    or sparse (a {column: scalar} dict), and checks its field; add_payloads
    takes a payload row as it is.  `rows` is a dense FieldElement copy of the
    reduced rows, built on each read.
    """

    def __init__(self, spec: FieldSpec, width: int):
        self.spec = spec
        self.width = width
        self._rows = {}         # pivot column -> sparse reduced row of payloads

    def _reduce(self, v: dict) -> dict:
        """v reduced in place against the basis rows; empty exactly when v
        lies in the span."""
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
        return True

    @property
    def pivots(self) -> list:
        return sorted(self._rows)

    @property
    def rows(self) -> list:
        """The reduced rows as dense lists, in pivot order."""
        return element_rows((self._rows[p] for p in self.pivots), self.spec, self.width)

    @property
    def dim(self) -> int:
        return len(self._rows)


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
