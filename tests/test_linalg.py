"""The payload-row linear algebra against the dense references of `dense`.

`DenseRowSpace` is plain dense Gauss-Jordan elimination over full-width rows,
and `rref` with its callers `rank`, `kernel_basis` and `inverse` is the dense
elimination the library used before everything went through RowSpace.
Reduced row echelon form is unique for a given span, so the library and the
references must agree on every return value, whatever order the vectors come in.
`mat_mul` and `mat_vec` there are the FieldElement-level products the library
used before its kernels ran on raw payloads.
"""

import itertools
import random
import zlib

import pytest

import gwa.linalg as linalg
import gwa.whittaker
from gwa.errors import FieldMismatch, InvalidParameters
from gwa.field import FieldElement, cyclotomic_field, prime_field, rational_functions, rationals
from gwa.linalg import RowSpace, payload_row, payload_rows
from gwa.whittaker import build_module, endo_ring, is_simple

import dense
from dense import DenseRowSpace, transpose
from util import identity, random_ring_element, sample_pool, univariate_affine

FIELDS = [rationals(), prime_field(5), cyclotomic_field(6)]
# the row-space and product references also run over Q(q), whose payloads are
# polynomial pairs rather than integers
ALL_FIELDS = FIELDS + [rational_functions("q")]


def contains(space, v) -> bool:
    """Membership in a RowSpace: v reduces to zero against its rows."""
    return not space._reduce(payload_row(v, space.spec))


def random_vector(rng, spec, width):
    """Mostly sparse (one to four nonzeros), sometimes dense, sometimes zero."""
    pool = [x for x in sample_pool(spec) if not x.is_zero()]
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
    pool = sample_pool(spec)
    out = [spec.zero()] * len(vectors[0])
    for v in rng.sample(vectors, min(3, len(vectors))):
        c = rng.choice(pool)
        out = [x + c * y for x, y in zip(out, v)]
    return out


def vector_stream(rng, spec, width, count):
    """Fresh vectors mixed with duplicates, scalar multiples and combinations."""
    out = []
    pool = [x for x in sample_pool(spec) if not x.is_zero()]
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


@pytest.mark.parametrize("spec", ALL_FIELDS, ids=str)
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
            assert contains(space, v) == ref.contains(v)
            assert contains(space, sparse(v)) == ref.contains(v)
        for row in ref.rows:
            assert contains(space, row)


@pytest.mark.parametrize("spec", ALL_FIELDS, ids=str)
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
        # a span's reduced rows are unique, so equal spans have equal rows
        same = ref_a.equals(ref_b)
        assert (a.rows == b.rows) == same
        assert linalg.same_span(payload_rows(vectors, spec), payload_rows(shuffled, spec),
                                spec, width) == same
        assert linalg.same_span(payload_rows(shuffled, spec), payload_rows(vectors, spec),
                                spec, width) == same
        if trial % 2 == 0:
            assert same
            assert_same(a, b)


@pytest.mark.parametrize("spec", ALL_FIELDS, ids=str)
def test_rowspace_views_follow_every_insert(spec):
    """rows read between inserts always shows the current rows, so a view kept
    from before a growing insert would fail here."""
    rng = random.Random(zlib.crc32(f"views {spec!r}".encode()))
    for trial in range(6):
        width = rng.randint(1, 12)
        space, ref = RowSpace(spec, width), DenseRowSpace(spec, width)
        for v in vector_stream(rng, spec, width, rng.randint(2, 10)):
            assert space.rows == ref.rows
            assert space.add(sparse(v)) == ref.add(v)
            assert all(isinstance(x, FieldElement) and x.spec == spec
                       for row in space.rows for x in row)
            assert space.rows == ref.rows and space.pivots == ref.pivots


def test_kernels_reject_mixed_fields():
    """Every edge that takes FieldElement checks the field of each entry."""
    Q, F5 = rationals(), prime_field(5)
    with pytest.raises(FieldMismatch):
        RowSpace(Q, 2).add([Q.one(), F5.one()])
    with pytest.raises(FieldMismatch):
        RowSpace(Q, 2).add({1: F5.one()})
    with pytest.raises(FieldMismatch):
        linalg.mat_mul([[Q.one()]], [[F5.one()]])
    with pytest.raises(FieldMismatch):
        payload_rows([[Q.one(), Q.one()], [Q.one(), F5.from_int(2)]], Q)
    with pytest.raises(FieldMismatch):
        linalg.kernel_basis([[Q.one(), F5.one()]], Q)
    with pytest.raises(FieldMismatch):
        payload_row({(0, 1): F5.one()}, Q)


def test_rowspace_zero_and_empty():
    spec = rationals()
    space = RowSpace(spec, 5)
    assert space.dim == 0 and space.rows == [] and space.pivots == []
    assert space.add([spec.zero()] * 5) is False
    assert space.add({}) is False
    assert contains(space, [spec.zero()] * 5)
    assert space.rows == RowSpace(spec, 5).rows
    assert linalg.same_span([], [{}], spec, 5)
    assert not linalg.same_span([], [{2: spec.one().payload}], spec, 5)


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
        low_rows = [space._rows[p] for p in space.pivots if p >= offset]
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


@pytest.mark.parametrize("spec", ALL_FIELDS, ids=str)
def test_products_match_element_reference(spec):
    """mat_mul gives the reference's entries, every one a canonical element of
    spec, on every case shape, with zero rows and zero factors; mul_vec does on
    the square cases, and column_rows undoes a transpose."""
    for name, a in matrix_cases(spec):
        rng = random.Random(zlib.crc32(("products " + name).encode()))
        k = len(a[0])
        a_with_zero_row = a + [[spec.zero()] * k]
        zero_b = [[spec.zero()] * 2 for _ in range(k)]
        for left in (a, a_with_zero_row):
            for m in (1, 3):
                b = random_matrix(rng, spec, k, m)
                for right in (b, zero_b):
                    got = linalg.mat_mul(left, right)
                    assert got == dense.mat_mul(left, right), name
                    assert all(isinstance(x, FieldElement) and x.spec == spec
                               for row in got for x in row)
        assert linalg.column_rows(payload_rows(transpose(a), spec), len(a)) == payload_rows(a, spec)
        if len(a) != k:
            continue
        for v in (random_matrix(rng, spec, 1, k)[0], [spec.zero()] * k, [spec.one()] * k):
            got = linalg.mul_vec(payload_rows(a, spec), payload_row(v, spec), spec.ops)
            assert got == payload_row(dense.mat_vec(a, v), spec), name


def _stacked(a, b, b2):
    """(a | -a) and (b ; b2), whose product a (b - b2) cancels entry by entry
    wherever b and b2 agree."""
    return [list(row) + [-x for x in row] for row in a], list(b) + list(b2)


@pytest.mark.parametrize("spec", ALL_FIELDS, ids=str)
def test_payload_kernel_matches_element_reference(spec):
    """mul_rows, its row-dict equality and MatrixModel.matrix_of_ring against
    the dense mat_mul, on sparse matrices and on products that cancel, partly or to zero."""
    rng = random.Random(zlib.crc32(("payload kernel " + repr(spec)).encode()))
    ops = spec.ops
    for trial in range(12):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = random_matrix(rng, spec, n, k), random_matrix(rng, spec, k, m)
        changed = [list(row) for row in b]
        changed[rng.randrange(k)][rng.randrange(m)] = rng.choice(sample_pool(spec))
        products = []
        for left, right in [(a, b), _stacked(a, b, b), _stacked(a, b, changed)]:
            ref = dense.mat_mul(left, right)
            got = linalg.mul_rows(linalg.payload_rows(left, spec), linalg.payload_rows(right, spec), ops)
            assert got == linalg.payload_rows(ref, spec)
            assert linalg.element_rows(got, spec, m) == ref
            products.append((got, ref))
        assert products[1][0] == [{}] * n
        for (got1, ref1), (got2, ref2) in itertools.combinations(products, 2):
            assert (got1 == got2) == (ref1 == ref2)

    pres = univariate_affine(spec, spec.one(), spec.zero())
    d = 4
    t = random_matrix(rng, spec, d, d)
    model = gwa.whittaker.MatrixModel(
        pres, (spec.one(),), {"t": t}, [t], [t], [spec.one()] * d, [pres.ring.one()] * d)
    powers = [identity(spec, d)]
    for _ in range(4):
        powers.append(dense.mat_mul(powers[-1], t))
    for trial in range(8):
        r = random_ring_element(rng, pres.ring, max_degree=4, n_terms=4)
        if trial == 0:
            r = r - r
        ref = [[spec.zero()] * d for _ in range(d)]
        for (e,), c in r.terms.items():
            ref = [[x + c * y for x, y in zip(rr, rp)] for rr, rp in zip(ref, powers[e])]
        assert model.matrix_of_ring(r) == ref
        assert model.ring_rows(r) == linalg.payload_rows(ref, spec)


# -- kernels and inverses against the dense references ------------------------


def random_matrix(rng, spec, rows, cols, rank_at_most=None):
    """Entries from the sample pool, about half of them zero; with
    rank_at_most, every row is a combination of that many random rows."""
    pool = sample_pool(spec)

    def row():
        return [rng.choice(pool) if rng.random() < 0.5 else spec.zero() for _ in range(cols)]

    if rank_at_most is None:
        return [row() for _ in range(rows)]
    base = [row() for _ in range(rank_at_most)]
    out = []
    for _ in range(rows):
        acc = [spec.zero()] * cols
        for r in base:
            c = rng.choice(pool)
            acc = [x + c * y for x, y in zip(acc, r)]
        out.append(acc)
    return out


def matrix_cases(spec):
    """(name, matrix) over spec: zero, identity, rank-deficient, wide, tall,
    one row and one column, each seeded from its name."""
    cases = [("zero", [[spec.zero()] * 4 for _ in range(3)]),
             ("identity", identity(spec, 4))]
    shapes = [("square", 4, 4, None), ("square deficient", 5, 5, 2),
              ("wide", 3, 7, None), ("wide deficient", 4, 8, 2),
              ("tall", 7, 3, None), ("tall deficient", 8, 4, 2),
              ("1xn", 1, 6, None), ("nx1", 6, 1, None), ("1x1", 1, 1, None)]
    for name, rows, cols, r in shapes:
        for trial in range(3):
            label = f"{spec!r} {name} {trial}"
            rng = random.Random(zlib.crc32(label.encode()))
            cases.append((label, random_matrix(rng, spec, rows, cols, r)))
    return cases


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_kernel_and_rank_match_dense_reference(spec):
    """kernel_basis and payload_kernel give the reference kernel, and a
    RowSpace of the rows has the reference rank."""
    for name, a in matrix_cases(spec):
        width = len(a[0])
        assert linalg.kernel_basis(a, spec) == dense.kernel_basis(a, spec), name
        kernel = linalg.payload_kernel(payload_rows(a, spec), spec, width)
        assert kernel == payload_rows(dense.kernel_basis(a, spec), spec), name
        space = RowSpace(spec, width)
        for row in a:
            space.add(row)
        assert space.dim == dense.rank(a), name
    with pytest.raises(InvalidParameters):
        linalg.kernel_basis([], spec)
    assert linalg.payload_kernel([], spec, 3) == payload_rows(identity(spec, 3), spec)
    assert linalg.payload_kernel([], spec, 0) == []


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_inverse_matches_dense_reference(spec):
    outcomes = set()
    for name, a in matrix_cases(spec):
        if len(a) == len(a[0]):
            inv = linalg.inverse_rows(payload_rows(a, spec), spec)
            ref = dense.inverse(a, spec)
            assert inv == (None if ref is None else payload_rows(ref, spec)), name
            outcomes.add(inv is None)
            if inv is not None:
                assert linalg.mul_rows(payload_rows(a, spec), inv, spec.ops) == \
                    payload_rows(identity(spec, len(a)), spec)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_payload_relations_match_dense_kernel(spec):
    """payload_relations(images) is the kernel_basis of the matrix whose
    columns are the images, keyed by column index or by sparse tuple keys."""
    for name, a in matrix_cases(spec):
        expected = payload_rows(dense.kernel_basis(a, spec), spec)
        images = transpose(a)
        assert linalg.payload_relations(payload_rows(images, spec), spec) == expected, name
        rng = random.Random(zlib.crc32(("relations " + name).encode()))
        keys = [("row", i, i * i) for i in range(len(a))]
        sparse_images = []
        for image in images:
            entries = [(keys[i], x) for i, x in enumerate(image) if not x.is_zero()]
            rng.shuffle(entries)
            sparse_images.append(payload_row(dict(entries), spec))
        assert linalg.payload_relations(sparse_images, spec) == expected, name
        assert payload_rows(dense.linear_relations(images, spec), spec) == expected, name


@pytest.mark.parametrize("spec", FIELDS, ids=str)
def test_payload_relations_without_coordinates(spec):
    """All-zero images leave every coefficient free; no images, no relations."""
    zero = [[spec.zero()] * 3 for _ in range(5)]
    assert linalg.payload_relations(payload_rows(transpose(zero), spec), spec) == \
        payload_rows(dense.kernel_basis(zero, spec), spec) == payload_rows(identity(spec, 3), spec)
    assert linalg.payload_relations([{}] * 5, spec) == payload_rows(identity(spec, 5), spec)
    assert dense.linear_relations([[]] * 5, spec) == identity(spec, 5)
    assert dense.linear_relations([{(0, 0): spec.zero()}] * 2, spec) == identity(spec, 2)
    assert linalg.payload_relations([], spec) == dense.linear_relations([], spec) == []
