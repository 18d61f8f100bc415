"""The sparse RowSpace against a dense reference with the same contract.

`DenseRowSpace` is plain dense Gauss-Jordan elimination over full-width rows.
Reduced row echelon form is unique for a given span, so both classes must
agree on every return value, on the rows and on the pivots, whatever order the
vectors come in.
"""

import random

import pytest

import gwa.whittaker
from gwa.field import cyclotomic_field, prime_field, rationals
from gwa.linalg import RowSpace
from gwa.whittaker import build_module, endo_ring, is_simple

from util import univariate_affine

FIELDS = [rationals(), prime_field(5), cyclotomic_field(6)]


class DenseRowSpace:
    """Reference: incrementally built row space, dense rows in rref."""

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

    def contains(self, v) -> bool:
        return all(x.is_zero() for x in self._reduce(v))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def equals(self, other) -> bool:
        return self.dim == other.dim and all(other.contains(r) for r in self.rows)


def random_vector(rng, spec, width):
    """Mostly sparse (one to four nonzeros), sometimes dense, sometimes zero."""
    pool = [x for x in spec.sample_pool() if not x.is_zero()]
    v = [spec.zero()] * width
    shape = rng.random()
    if shape < 0.1:
        return v
    count = width if shape > 0.85 else rng.randint(1, min(4, width))
    for j in rng.sample(range(width), count):
        v[j] = rng.choice(pool)
    return v


def combination(rng, spec, vectors):
    """A random linear combination of up to three of the given vectors."""
    pool = spec.sample_pool()
    out = [spec.zero()] * len(vectors[0])
    for v in rng.sample(vectors, min(3, len(vectors))):
        c = rng.choice(pool)
        out = [x + c * y for x, y in zip(out, v)]
    return out


def vector_stream(rng, spec, width, count):
    """Fresh vectors mixed with duplicates, scalar multiples and combinations."""
    out = []
    pool = [x for x in spec.sample_pool() if not x.is_zero()]
    for _ in range(count):
        kind = rng.random()
        if out and kind < 0.15:
            out.append(list(rng.choice(out)))
        elif out and kind < 0.3:
            c = rng.choice(pool)
            out.append([c * x for x in rng.choice(out)])
        elif out and kind < 0.4:
            out.append(combination(rng, spec, out))
        else:
            out.append(random_vector(rng, spec, width))
    return out


def sparse(v):
    return {j: x for j, x in enumerate(v) if not x.is_zero()}


def assert_same(space, ref):
    assert space.dim == ref.dim
    assert space.pivots == ref.pivots
    assert space.rows == ref.rows


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_rowspace_matches_dense_reference(spec):
    rng = random.Random(8311)
    for trial in range(12):
        width = rng.choice([1, 2, 3, rng.randint(4, 40), rng.randint(41, 200)])
        count = rng.randint(1, 10 if width > 40 else 25)
        space, ref = RowSpace(spec, width), DenseRowSpace(spec, width)
        vectors = vector_stream(rng, spec, width, count)
        for i, v in enumerate(vectors):
            # every other vector goes in sparse
            given = sparse(v) if i % 2 else v
            assert space.add(given) == ref.add(v)
            assert_same(space, ref)
        probes = vector_stream(rng, spec, width, 6) + [combination(rng, spec, vectors)]
        for v in probes:
            assert space.contains(v) == ref.contains(v)
            assert space.contains(sparse(v)) == ref.contains(v)
        for row in ref.rows:
            assert space.contains(row)


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_rowspace_equals_matches_reference(spec):
    rng = random.Random(2718)
    for trial in range(10):
        width = rng.randint(1, 30)
        vectors = vector_stream(rng, spec, width, rng.randint(1, 8))
        a, ref_a = RowSpace(spec, width), DenseRowSpace(spec, width)
        for v in vectors:
            a.add(v)
            ref_a.add(v)
        # the same span from a shuffled, rescaled copy, and a possibly larger one
        b, ref_b = RowSpace(spec, width), DenseRowSpace(spec, width)
        shuffled = [[spec.from_int(3) * x for x in v] for v in vectors]
        rng.shuffle(shuffled)
        if trial % 2:
            shuffled.append(random_vector(rng, spec, width))
        for v in shuffled:
            b.add(sparse(v))
            ref_b.add(v)
        assert a.equals(b) == ref_a.equals(ref_b) == b.equals(a)
        if trial % 2 == 0:
            assert a.equals(b)
            assert_same(a, b)


def test_rowspace_zero_and_empty():
    spec = rationals()
    space = RowSpace(spec, 5)
    assert space.dim == 0 and space.rows == [] and space.pivots == []
    assert space.add([spec.zero()] * 5) is False
    assert space.add({}) is False
    assert space.contains([spec.zero()] * 5)
    assert space.equals(RowSpace(spec, 5))


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_low_block_rows_have_no_high_support(spec):
    """With the high block in columns [0, offset), the reduced rows whose
    pivots are at or past `offset` have no high-block support, and they span
    the whole intersection of the space with the low block."""
    rng = random.Random(4043)
    for trial in range(10):
        width = rng.randint(2, 60)
        offset = rng.randint(1, width - 1)
        vectors = vector_stream(rng, spec, width, rng.randint(1, 12))
        # force some elements of the intersection into the stream
        for _ in range(2):
            low = random_vector(rng, spec, width)
            vectors.append([spec.zero()] * offset + low[offset:])
        space = RowSpace(spec, width)
        for v in vectors:
            space.add(v)
        low_rows = [space.by_pivot[p] for p in space.pivots if p >= offset]
        assert all(min(row) >= offset for row in low_rows)
        for row in space.rows:
            pivot = next(j for j, x in enumerate(row) if not x.is_zero())
            if pivot >= offset:
                assert all(x.is_zero() for x in row[:offset])
        # dim(span ∩ low block) = dim(span) - rank of the projection on the high block
        high = DenseRowSpace(spec, offset)
        for v in vectors:
            high.add(v[:offset])
        assert len(low_rows) == space.dim - high.dim


def test_module_verdicts_match_reference(monkeypatch):
    """is_simple's submodule rows and endo_ring's report are those of the dense
    reference row space."""
    Q = rationals()
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    for gen in (t ** 2, t ** 3, t):
        V = build_module(pres, [gen], (Q.one(),))
        sparse_run = (is_simple(V), endo_ring(V))
        monkeypatch.setattr(gwa.whittaker, "RowSpace", DenseRowSpace)
        dense_run = (is_simple(V), endo_ring(V))
        monkeypatch.undo()
        assert sparse_run == dense_run
