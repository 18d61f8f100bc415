"""Dense FieldElement references for the payload-row linear algebra.

These are the plain dense forms of the library's kernels: Gauss-Jordan
elimination over full-width rows of FieldElement (`DenseRowSpace`, `rref` and
its callers `rank`, `kernel_basis`, `inverse` and `linear_relations`), and the
FieldElement-level products `mat_mul`, `mat_vec` and `linear_combination`.  They share no code with `gwa.linalg`, so the
suite compares the payload kernels, and the module verdicts built on them,
against an independent implementation.  Reduced row echelon form is unique for
a given span, so the two must agree on every return value, whatever order the
vectors come in.
"""

from gwa.field import FieldElement, FieldSpec
from gwa.errors import InvalidParameters

from util import identity


class DenseRowSpace:
    """Incrementally built row space, dense rows in rref."""

    def __init__(self, spec, width):
        self.spec = spec
        self.width = width
        self.rows = []
        self.pivots = []

    def _reduce(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if not v[p].is_zero():
                f = v[p]
                for j in range(self.width):
                    v[j] = v[j] - f * row[j]
        return v

    def add(self, v) -> bool:
        v = self._reduce(v)
        pivot = next((j for j in range(self.width) if not v[j].is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inv()
        v = [x * inv for x in v]
        for row in self.rows:
            if not row[pivot].is_zero():
                f = row[pivot]
                for j in range(self.width):
                    row[j] = row[j] - f * v[j]
        self.rows.append(v)
        self.pivots.append(pivot)
        order = sorted(range(len(self.pivots)), key=lambda i: self.pivots[i])
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return True

    def add_payloads(self, v) -> bool:
        """add for a payload row {column: payload}, RowSpace's unchecked entry."""
        row = [self.spec.zero()] * self.width
        for j, x in dict(v).items():
            row[j] = FieldElement(self.spec, x)
        return self.add(row)

    def contains(self, v) -> bool:
        return all(x.is_zero() for x in self._reduce(v))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def equals(self, other) -> bool:
        return self.dim == other.dim and all(other.contains(r) for r in self.rows)


def dense_span(spec, width, vectors) -> DenseRowSpace:
    space = DenseRowSpace(spec, width)
    for v in vectors:
        space.add(v)
    return space


def transpose(a):
    return [list(col) for col in zip(*a)]


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


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scaled_identity(spec, n, c):
    return [[c if i == j else spec.zero() for j in range(n)] for i in range(n)]


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


def inverse(a, spec: FieldSpec):
    n = len(a)
    aug = [list(row) + list(idr) for row, idr in zip(a, identity(spec, n))]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def linear_relations(images, spec: FieldSpec):
    """Basis of the relations {c : sum_j c_j images[j] = 0}: the kernel_basis
    of the matrix whose columns are the images, each a vector of scalars given
    dense or as a sparse dict keyed by any hashable coordinates.  With no
    coordinate every coefficient is free."""
    columns = [v if isinstance(v, dict) else dict(enumerate(v)) for v in images]
    keys = list(dict.fromkeys(k for column in columns for k in column))
    if not keys:
        return identity(spec, len(images))
    return kernel_basis([[column.get(k, spec.zero()) for column in columns] for k in keys], spec)


def linear_combination(coeffs, elements, zero):
    """sum_j coeffs[j] elements[j], the element a relation stands for; the
    elements are ring or algebra elements."""
    out = zero
    for c, e in zip(coeffs, elements):
        if not c.is_zero():
            out = out + e.scale(c)
    return out
