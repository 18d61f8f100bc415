import itertools
import random
import zlib
from fractions import Fraction

import pytest

from gwa import whittaker
from gwa.catalog import (
    FamilySpec,
    TheoremModuleSpec,
    _ann_V_formula_claim,
    _chain_claim,
    _relations_claim,
    _standard_claims,
    build_family,
    build_theorem_module,
    default_grid,
    tilde_t,
)
from gwa.core import GwaPresentation, gwa_mul
from gwa.errors import FieldMismatch, InvalidParameters, NotAWhittakerPair, NotPhiStable, UnsupportedRing
from gwa.field import cyclotomic_field, prime_field, rational_functions, rationals
from gwa.ideals import ideal_equal_gens, phi_stable_ideal
from gwa.linalg import RowSpace, element_rows, kernel_basis, zeros
from gwa.ring import Automorphism
from gwa.whittaker import (
    EndoReport,
    MatrixModel,
    SimplicityVerdict,
    WhittakerModule,
    _standard_monomials,
    _truncated_left_span,
    algebra_basis,
    ann_V_check,
    ann_w_generators,
    ann_w_member,
    build_module,
    endo_ring,
    is_simple,
    module_to_json,
    recover_annihilator,
    ring_monomials,
    thm43_truncated_check,
    universal_act,
    universal_module,
    verify_relations,
    whittaker_vectors,
)

from dense import (dense_span, inverse, linear_combination, linear_relations, mat_mul, mat_sub, mat_vec,
                   rank, scaled_identity, transpose)
from util import (
    identity,
    random_gwa_element,
    random_ring_element,
    sample_pool,
    univariate_affine,
    weyl1,
    witness_is_submodule,
)

Q = rationals()


def test_universal_action_base_cases():
    pres = weyl1()
    zeta = (Q.from_int(2),)
    one = pres.ring.one()
    t = pres.ring.gen("t")
    # X.1 = zeta
    assert universal_act(pres.X(), one, zeta) == pres.ring.scalar(zeta[0])
    # Y.1 = zeta^{-1} t
    assert universal_act(pres.Y(), one, zeta) == t * zeta[0].inv()
    # Weyl: X.t^3 = zeta (t-1)^3
    assert universal_act(pres.X(), t ** 3, zeta) == (t - one) ** 3 * zeta[0]
    # Weyl: Y.t^3 = zeta^{-1} t (t+1)^3
    assert universal_act(pres.Y(), t ** 3, zeta) == (t + one) ** 3 * t * zeta[0].inv()


def test_universal_action_is_module_action():
    rng = random.Random(31)
    pres = weyl1()
    zeta = (Q.from_int(2),)
    for _ in range(25):
        a = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        b = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        r = random_ring_element(rng, pres.ring, max_degree=3, n_terms=2)
        lhs = universal_act(gwa_mul(a, b), r, zeta)
        rhs = universal_act(a, universal_act(b, r, zeta), zeta)
        assert lhs == rhs


def test_build_module_matrix_case():
    # alpha = 2 not a root of unity, Q = (tilde^2): 2-dimensional module
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    tilde = t  # beta = 0 so tilde = (alpha-1) t, same ideal as t
    zeta = (Q.one(),)
    V = build_module(pres, [tilde ** 2], zeta)
    assert V.is_matrix and V.dim == 2
    assert verify_relations(V.realization) == []
    # X v_k = alpha^k zeta v_k on the monomial basis {1, t}
    X = V.realization.x_mats[0]
    assert X[0][0] == Q.one() and X[1][1] == Q.from_int(2)


def _rebuilt(V, x_mats, y_mats, gen_mats):
    model = V.realization
    return MatrixModel(V.pres, V.zeta, gen_mats, x_mats, y_mats, model.w,
                       model.basis_reps, model.labels)


@pytest.mark.parametrize("theorem, other", [("T8.3", prime_field(7)), ("T9", rationals()),
                                            ("T10", prime_field(5))])
def test_relations_check_names_a_changed_entry(theorem, other):
    """Over Q, F_3 and Q(zeta6): a model rebuilt from the views is green, one
    entry changed in X, Y or a ring generator's matrix breaks a relation that
    names it, and an entry from another field is refused at construction."""
    V, report = build_theorem_module(default_grid(theorem)[-1 if theorem == "T8.3" else 0])
    assert report.all_green
    model = V.realization
    ring = V.pres.ring
    name = next(g for g, l in zip(ring.gens, ring.laurent) if not l)
    x, y, gens = model.x_mats, model.y_mats, model.gen_mats
    same = _rebuilt(V, x, y, gens)
    assert verify_relations(same) == [] and _relations_claim(same).ok

    for label, target in (("X_0", x[0]), ("Y_0", y[0]), (name, gens[name])):
        target[0][0] = target[0][0] + ring.field.one()
        # views are built on each read: a changed view never reaches its model
        assert (model.x_mats, model.y_mats, model.gen_mats) != (x, y, gens)
        broken = _rebuilt(V, x, y, gens)
        failures = verify_relations(broken)
        assert any(label in f for f in failures), (label, failures)
        claim = _relations_claim(broken)
        assert not claim.ok and label in claim.detail
        target[0][0] = target[0][0] - ring.field.one()

    x[0][0][0] = other.one()
    with pytest.raises(FieldMismatch):
        _rebuilt(V, x, y, gens)


@pytest.mark.parametrize("k", range(6))
def test_broken_relation_is_reported_as_red_claims(k):
    """Stated matrices that break a relation give an Ann_R(w) that is not
    phi-stable: the report keeps every claim, with relations, cyclic and
    annihilator red, instead of raising NotPhiStable."""
    spec = default_grid("T8.3")[k]
    V, report = build_theorem_module(spec)
    model = V.realization
    gens = model.gen_mats
    gens["t"][0][0] = gens["t"][0][0] + Q.one()
    broken = WhittakerModule(V.pres, V.zeta, V.Q, _rebuilt(V, model.x_mats, model.y_mats, gens))
    with pytest.raises(NotPhiStable) as raised:
        recover_annihilator(broken)
    alpha, zeta, n = (spec.params[key] for key in ("alpha", "zeta", "n"))
    extra = [_chain_claim(broken, alpha, zeta, n),
             _ann_V_formula_claim(broken, tilde_t(V.pres), alpha, zeta, n)]
    claims = {c.cid: c for c in _standard_claims(broken, [], n == 1, extra)}
    assert list(claims) == [c.cid for c in report.claims]
    assert not claims["relations"].ok
    for cid in ("cyclic", "annihilator"):
        assert not claims[cid].ok and str(raised.value) in claims[cid].detail


def test_build_module_rejects_unit_ideal():
    pres = weyl1(prime_field(3))
    F3 = pres.ring.field
    with pytest.raises(NotAWhittakerPair):
        build_module(pres, [pres.ring.one()], (F3.one(),))


def test_build_module_rejects_unstable_ideal():
    pres = weyl1()
    with pytest.raises(NotPhiStable):
        build_module(pres, [pres.ring.gen("t")], (Q.one(),))


def test_universal_module_round_trip():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    V = universal_module(pres, (Q.one(),))
    assert recover_annihilator(V).is_zero()


def test_recover_annihilator_round_trip():
    F5 = prime_field(5)
    pres = univariate_affine(F5, F5.from_int(2), F5.zero())
    t = pres.ring.gen("t")
    zeta = (F5.one(),)
    for gens in ([t], [t ** 2], [t ** 4 - pres.ring.one()]):
        Q_ideal = phi_stable_ideal(pres.ring, pres.phis, gens)
        V = build_module(pres, Q_ideal, zeta)
        recovered = recover_annihilator(V)
        assert ideal_equal_gens(pres.ring, recovered.generators, Q_ideal.generators)


def test_ann_w_membership():
    pres = weyl1()
    zeta = (Q.from_int(2),)
    V = universal_module(pres, zeta)
    # X - zeta annihilates w
    assert ann_w_member(V, pres.X() - pres.scalar(zeta[0]))
    # Y - zeta^{-1} t annihilates w (from the Y action on 1)
    elt = pres.Y() - pres.embed_ring(pres.ring.gen("t") * zeta[0].inv())
    assert ann_w_member(V, elt)
    assert not ann_w_member(V, pres.X())


def test_ann_w_generators_and_truncated_equality():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    zeta = (Q.one(),)
    V = build_module(pres, [t ** 2], zeta)
    gens = ann_w_generators(V)
    for g in gens:
        assert ann_w_member(V, g)
    res = thm43_truncated_check(V, degree=3)
    assert res.ok, res


def test_ann_V_check_matrix():
    # 1-dimensional module: Ann_A(V) = Ann_A(w)
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    zeta = (Q.one(),)
    V = build_module(pres, [t], zeta)
    res = ann_V_check(V, ann_w_generators(V), degree=3)
    assert res.ok, res


def test_whittaker_vectors_routes_agree():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    zeta = (Q.one(),)
    V = build_module(pres, [t ** 3], zeta)
    # w itself has type zeta
    basis = whittaker_vectors(V, zeta)
    assert basis == [[Q.one(), Q.zero(), Q.zero()]]
    assert len(basis) == 1
    # v_k = t^k w has type alpha^k zeta
    for k, expected in ((1, Q.from_int(2)), (2, Q.from_int(4))):
        basis = whittaker_vectors(V, (expected,))
        assert len(basis) == 1
        vec = basis[0]
        nonzero = [j for j, c in enumerate(vec) if not c.is_zero()]
        assert nonzero == [k]


def test_whittaker_vectors_checks_eta():
    """eta is checked as check_type checks zeta, except that zero entries are
    allowed: one scalar of the coefficient field per index."""
    V, _ = build_theorem_module(TheoremModuleSpec(
        "T8.3", Q, {"alpha": Q.from_int(2), "beta": Q.one(), "n": 3, "zeta": Q.one()}))
    F5 = prime_field(5)
    for eta in ([1], [F5.one()], [], [Q.one(), Q.one()]):
        with pytest.raises(InvalidParameters):
            whittaker_vectors(V, eta)
    symbolic = universal_module(V.pres, V.zeta)
    assert whittaker_vectors(V, [Q.zero()]) == []
    assert len(whittaker_vectors(V, [Q.one()])) == 1
    with pytest.raises(UnsupportedRing):
        whittaker_vectors(symbolic, [Q.one()])


def test_is_simple_chain_module():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    zeta = (Q.one(),)
    V2 = build_module(pres, [t ** 2], zeta)
    verdict = is_simple(V2)
    assert verdict.kind == "not_simple"
    assert verdict.submodule is not None
    V1 = build_module(pres, [t], zeta)
    assert is_simple(V1).kind == "simple"


def test_is_simple_weyl_char_p():
    F3 = prime_field(3)
    pres = weyl1(F3)
    t = pres.ring.gen("t")
    zeta = (F3.one(),)
    V = build_module(pres, [t ** 3 - t], zeta)
    assert V.dim == 3
    assert is_simple(V).kind == "simple"


def test_endo_ring_simple_module():
    F3 = prime_field(3)
    pres = weyl1(F3)
    t = pres.ring.gen("t")
    V = build_module(pres, [t ** 3 - t], (F3.one(),))
    report = endo_ring(V)
    assert report.dimension == 1
    assert report.s_matches


def test_endo_ring_chain_module():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    V = build_module(pres, [t ** 2], (Q.one(),))
    report = endo_ring(V)
    assert report.dimension == 1
    assert report.s_matches


def test_module_json_shape():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    t = pres.ring.gen("t")
    V = build_module(pres, [t ** 2], (Q.one(),))
    data = module_to_json(V)
    assert data["dimension"] == 2
    assert "X" in data["matrices"] and "t" in data["matrices"]
    assert data["zeta"] == ["1"]


# ---------------------------------------------------------------------------
# matrix models against independent references

THEOREMS = ("T8.3", "T8.5", "T8.7", "T8.9", "T9", "T10")


def _theorem_model(theorem):
    # T8.3's last default point is its largest module
    spec = default_grid(theorem)[-1 if theorem == "T8.3" else 0]
    V, _ = build_theorem_module(spec)
    return V.realization


def mat_pow(a, k: int):
    """Reference: the k-th power of a square matrix by repeated squaring."""
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


def _act_matrix(model, a):
    return element_rows(model.act_rows(a), model.field, model.dim)


def _ref_matrix_of_ring(model, r):
    """Sum of c * G_1^e_1 ... G_k^e_k, each power by repeated squaring."""
    out = zeros(model.field, model.dim, model.dim)
    for exps, c in r.terms.items():
        m = identity(model.field, model.dim)
        for name, e in zip(model.pres.ring.gens, exps):
            if e:
                base = model.gen_mats[name]
                base = base if e > 0 else inverse(base, model.field)
                m = mat_mul(m, mat_pow(base, abs(e)))
        out = [[x + c * y for x, y in zip(ro, rm)] for ro, rm in zip(out, m)]
    return out


@pytest.mark.parametrize("theorem", THEOREMS)
def test_monomial_caches_match_mat_pow(theorem):
    model = _theorem_model(theorem)
    ring = model.pres.ring
    rng = random.Random(zlib.crc32(theorem.encode()))
    elements = [random_ring_element(rng, ring, max_degree=4, n_terms=4) for _ in range(8)]
    elements += [ring.gen(name, -3) * ring.gen(ring.gens[0])
                 for name, l in zip(ring.gens, ring.laurent) if l]
    elements.append(ring.zero())
    # the second round finds every monomial cached by the first
    for _ in range(2):
        for r in elements:
            ref = _ref_matrix_of_ring(model, r)
            assert model.matrix_of_ring(r) == ref
            assert model.vector_of_ring(r) == mat_vec(ref, model.w)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_z_matrix_matches_mat_pow(theorem):
    model = _theorem_model(theorem)
    n = model.pres.n
    for alpha in [(0,) * n, (1,) * n, (3,) * n, (-2,) * n, (4,) + (-1,) * (n - 1)]:
        ref = identity(model.field, model.dim)
        for i, e in enumerate(alpha):
            if e:
                base = model.x_mats[i] if e > 0 else model.y_mats[i]
                ref = mat_mul(ref, mat_pow(base, abs(e)))
        assert element_rows(model.z_rows(alpha), model.field, model.dim) == ref


@pytest.mark.parametrize("theorem", THEOREMS)
def test_action_is_a_homomorphism(theorem):
    model = _theorem_model(theorem)
    pres = model.pres
    rng = random.Random(zlib.crc32(("homomorphism " + theorem).encode()))
    for _ in range(6):
        a = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        b = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        assert _act_matrix(model, gwa_mul(a, b)) == mat_mul(_act_matrix(model, a), _act_matrix(model, b))


# ---------------------------------------------------------------------------
# the annihilator walk against the enumeration it replaced


def _ref_monomials(V):
    """Every monomial of degree <= dim + 1, Laurent slots in [-(dim + 1), dim + 1]."""
    ring = V.pres.ring
    bound = V.dim + 1
    ranges = [range(-bound, bound + 1) if l else range(bound + 1) for l in ring.laurent]
    one = ring.field.one()
    return [ring.monomial(e, one) for e in itertools.product(*ranges) if sum(map(abs, e)) <= bound]


def ref_recover_annihilator(V):
    """Reference: Buchberger on the kernel of the map m -> m w over every monomial."""
    ring = V.pres.ring
    monos = _ref_monomials(V)
    kernel = linear_relations([V.realization.vector_of_ring(m) for m in monos], ring.field)
    return phi_stable_ideal(ring, V.pres.phis,
                            [linear_combination(combo, monos, ring.zero()) for combo in kernel])


def ref_cyclic(V):
    """Reference: w generates V when the images of the monomials have full rank."""
    return rank([V.realization.vector_of_ring(m) for m in _ref_monomials(V)]) == V.dim


def _ref_action_generators(model):
    """X_i, Y_i, the ring generators and the inverses of the Laurent ones, as
    FieldElement matrices, in the order of MatrixModel.action_rows."""
    gens = model.x_mats + model.y_mats + list(model.gen_mats.values())
    ring = model.pres.ring
    return gens + [inverse(model.gen_mats[name], model.field)
                   for name, l in zip(ring.gens, ring.laurent) if l]


def _flat(m):
    return [x for row in m for x in row]


def _span(field, width, vectors) -> RowSpace:
    """The span of FieldElement vectors, through the checked RowSpace.add."""
    space = RowSpace(field, width)
    for v in vectors:
        space.add(v)
    return space


def ref_endo_ring(V):
    """Reference: the commutant of the FieldElement action matrices against
    pi(S), with S read off every monomial of degree <= dim + max deg Q."""
    model = V.realization
    pres = V.pres
    field = model.field
    d = model.dim
    rows = []
    for g in _ref_action_generators(model):
        for a in range(d):
            for b in range(d):
                row = [field.zero()] * (d * d)
                for k in range(d):
                    row[k * d + b] = row[k * d + b] + g[a][k]
                for k in range(d):
                    row[a * d + k] = row[a * d + k] - g[k][b]
                rows.append(row)
    commutant_flat = kernel_basis(rows, field)
    commutant = [[vec[i * d:(i + 1) * d] for i in range(d)] for vec in commutant_flat]

    degree = d + max((g.degree() for g in V.Q.generators), default=1)
    monos = [pres.ring.monomial(m, field.one()) for m in ring_monomials(pres.ring, degree)]
    images = [[x for phi in pres.phis for x in model.vector_of_ring(r - phi.apply(r))]
              for r in monos]
    s_space = _span(field, d * d, [
        _flat(model.matrix_of_ring(linear_combination(combo, monos, pres.ring.zero())))
        for combo in kernel_basis(transpose(images), field)])
    # a span's reduced rows are unique
    return EndoReport(len(commutant_flat), commutant,
                      _span(field, d * d, commutant_flat).rows == s_space.rows)


def ref_whittaker_vectors(V, eta):
    """Reference: both routes of whittaker_vectors on FieldElement matrices,
    which must span the same space; returns the direct basis."""
    model = V.realization
    pres = V.pres
    field = model.field
    d = model.dim
    stacked = []
    for i in range(pres.n):
        stacked.extend(mat_sub(model.x_mats[i], scaled_identity(field, d, eta[i])))
    direct = kernel_basis(stacked, field)
    U = transpose([model.vector_of_ring(rep) for rep in model.basis_reps])
    U_inv = inverse(U, field)
    stacked = []
    for i in range(pres.n):
        phi = pres.phis[i]
        images = transpose([model.vector_of_ring(phi.apply(rep)) for rep in model.basis_reps])
        lam = V.zeta[i].inv() * eta[i]
        stacked.extend(mat_sub(mat_mul(U_inv, images), scaled_identity(field, d, lam)))
    induced = [mat_vec(U, x) for x in kernel_basis(stacked, field)]
    assert dense_span(field, d, direct).equals(dense_span(field, d, induced))
    return direct


def ref_is_simple(V, seed=0, random_trials=20):
    """Reference independent of is_simple's criterion, on FieldElement
    matrices: simple when the action spans M_d (Burnside), not_simple when the
    closure of an eigenvector of a generator or of a seeded random vector is
    proper, else inconclusive."""
    model = V.realization
    field = model.field
    d = model.dim
    gens = _ref_action_generators(model)
    algebra = _span(field, d * d, [_flat(identity(field, d))])
    frontier = [identity(field, d)]
    while frontier and algebra.dim < d * d:
        new = []
        for m, g in itertools.product(frontier, gens):
            prod = mat_mul(m, g)
            if algebra.add(_flat(prod)):
                new.append(prod)
        frontier = new
    if algebra.dim == d * d:
        return SimplicityVerdict("simple", "burnside")
    candidates = []
    for g in gens:
        for mu in dict.fromkeys(g[i][i] for i in range(d)):
            candidates.extend(kernel_basis(mat_sub(g, scaled_identity(field, d, mu)), field))
    rng = random.Random(seed)
    pool = sample_pool(field)
    candidates += [[rng.choice(pool) for _ in range(d)] for _ in range(random_trials)]
    for v in candidates:
        if all(x.is_zero() for x in v):
            continue
        space = _span(field, d, [v])
        frontier = [v]
        while frontier:
            new = []
            for u, g in itertools.product(frontier, gens):
                img = mat_vec(g, u)
                if space.add(img):
                    new.append(img)
            frontier = new
        if 0 < space.dim < d:
            return SimplicityVerdict("not_simple", None, space.rows)
    return SimplicityVerdict("inconclusive", "no Burnside certificate; submodule search exhausted")


def _assert_verdicts_match_reference(V, rng):
    """whittaker_vectors and is_simple against their dense references: the
    same basis for the type zeta, an eigenvalue type and a random one (zero
    allowed); the same verdict kind wherever the Burnside reference decides,
    and a witness that is a proper submodule.  endo_ring is compared by
    _assert_walk_matches_reference."""
    model = V.realization
    pool = sample_pool(model.field)
    diagonals = [[x[j][j] for j in range(model.dim)] for x in model.x_mats]
    for eta in (V.zeta, tuple(rng.choice(diag) for diag in diagonals),
                tuple(rng.choice(pool) for _ in V.zeta)):
        assert whittaker_vectors(V, eta) == ref_whittaker_vectors(V, eta)
    verdict, reference = is_simple(V), ref_is_simple(V)
    if reference.kind != "inconclusive":
        assert verdict.kind == reference.kind
    if verdict.kind == "not_simple":
        assert witness_is_submodule(model, verdict.submodule)


def _assert_walk_matches_reference(V):
    walk = recover_annihilator(V)
    assert walk.generators == ref_recover_annihilator(V).generators
    assert walk == V.Q
    cyclic = len(_standard_monomials(V.pres.ring, walk.generators)) == V.dim
    assert cyclic and ref_cyclic(V)
    assert endo_ring(V) == ref_endo_ring(V)


@pytest.mark.parametrize("theorem", THEOREMS)
def test_annihilator_walk_matches_reference_on_default_grids(theorem):
    rng = random.Random(zlib.crc32(("verdicts " + theorem).encode()))
    for spec in default_grid(theorem):
        V, _ = build_theorem_module(spec)
        _assert_walk_matches_reference(V)
        _assert_verdicts_match_reference(V, rng)



def _monic(rng, u, degree, pool):
    """A monic polynomial of this degree in u, the other coefficients from the pool."""
    out = u ** degree
    for k in range(degree):
        out = out + u ** k * rng.choice(pool)
    return out


def _seeded_ideal(rng, invariants, pool, squares):
    """Generators of a phi-stable ideal of finite codimension: polynomials in
    the phi-invariants, with a monic one in each, or with `squares` possibly
    the square of (u - a, v - b).  A single entry is tilde itself, in the
    univariate affine family with alpha = zeta3, where each tilde^a f(tilde^3) is stable."""
    if len(invariants) == 1:
        tilde = invariants[0]
        return [tilde ** rng.randint(0, 2) * _monic(rng, tilde ** 3, rng.randint(0, 1), pool)]
    u, v = invariants
    if not squares or rng.random() < 0.5:
        return [_monic(rng, u, rng.randint(1, 2), pool), _monic(rng, v, 1, pool)]
    a, b = u - u.ring.scalar(rng.choice(pool)), v - v.ring.scalar(rng.choice(pool))
    return [a ** 2, a * b, b ** 2]


def _seeded_families():
    F5 = prime_field(5)
    smith = build_family(FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}))
    h, c = smith.ring.gen("h"), smith.ring.gen("c")
    Z3 = cyclotomic_field(3)
    affine = build_family(FamilySpec("univariate_affine", Z3,
                                     {"alpha": Z3.generator(), "beta": Z3.one()}))
    Z6 = cyclotomic_field(6)
    qsmith = build_family(FamilySpec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()}))
    # the square of a maximal ideal has three times its codimension; smith's is
    # left out, where a 15-dimensional module makes the reference slow
    return {
        "smith F5": (smith, [c, h ** 5 - h], False),
        "univariate_affine Q(zeta3)": (affine, [tilde_t(affine)], False),
        "quantum_smith Q(zeta6), K Laurent": (qsmith, [qsmith.ring.gen("c"), qsmith.ring.gen("K", 3)], True),
    }


@pytest.mark.parametrize("family", list(_seeded_families()))
def test_annihilator_walk_matches_reference_on_seeded_modules(family):
    pres, invariants, squares = _seeded_families()[family]
    rng = random.Random(zlib.crc32(("annihilator walk " + family).encode()))
    verdict_rng = random.Random(zlib.crc32(("verdicts " + family).encode()))
    pool = sample_pool(pres.ring.field)
    nonzero = [c for c in pool if not c.is_zero()]
    built = 0
    while built < 4:
        try:
            V = build_module(pres, _seeded_ideal(rng, invariants, pool, squares), (rng.choice(nonzero),))
        except NotAWhittakerPair:
            # the unit ideal, or a Laurent generator that is a zero divisor mod Q
            continue
        _assert_walk_matches_reference(V)
        _assert_verdicts_match_reference(V, verdict_rng)
        built += 1


CHAIN_FIELDS = [(F, F.generator() if F.kind == "Q(q)" else F.from_int(2))
                for F in (rationals(), prime_field(7), rational_functions("q"))]


@pytest.mark.parametrize("field, alpha", CHAIN_FIELDS, ids=[repr(F) for F, _ in CHAIN_FIELDS])
def test_verdicts_match_reference_on_seeded_chain_modules(field, alpha):
    """R/(tilde^k), tilde = (alpha - 1) t + beta, over the univariate affine
    family: phi(tilde) = alpha tilde, so tilde R/(tilde^k) is a submodule and
    for k >= 2 the submodule search runs."""
    rng = random.Random(zlib.crc32(("chain modules " + repr(field)).encode()))
    nonzero = [c for c in sample_pool(field) if not c.is_zero()]
    for _ in range(4):
        beta = rng.choice(sample_pool(field))
        pres = univariate_affine(field, alpha, beta)
        tilde = pres.ring.gen("t") * (alpha - field.one()) + pres.ring.scalar(beta)
        V = build_module(pres, [tilde ** rng.randint(1, 4)], (rng.choice(nonzero),))
        _assert_walk_matches_reference(V)
        _assert_verdicts_match_reference(V, rng)


def test_cyclic_claim_is_false_when_w_does_not_generate():
    # V_(tilde) + V_(tilde) with w in the first summand: R w is one-dimensional
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(1))
    tilde = pres.ring.gen("t") + pres.ring.one()
    zeta = Q.from_int(3)
    t0 = -Q.one()

    def diag(x):
        return [[x, Q.zero()], [Q.zero(), x]]

    model = MatrixModel(pres, (zeta,), {"t": diag(t0)}, [diag(zeta)], [diag(zeta.inv() * t0)],
                        [Q.one(), Q.zero()], [pres.ring.one(), pres.ring.one()])
    assert verify_relations(model) == []
    V = WhittakerModule(pres, (zeta,), phi_stable_ideal(pres.ring, pres.phis, [tilde]), model)
    assert recover_annihilator(V) == V.Q
    assert not ref_cyclic(V)
    claims = {c.cid: c.ok for c in _standard_claims(V, [], None)}
    assert claims["cyclic"] is False and claims["annihilator"] is True
    # R w is the first summand, a proper submodule
    verdict = is_simple(V)
    assert verdict.kind == "not_simple" and verdict.submodule == [[Q.one(), Q.zero()]]


# ---------------------------------------------------------------------------
# the stopped truncated span against the full span it replaced


def ref_truncated_left_span(pres, gens, index, degree, slack):
    """Reference: the degree-<=degree part of the span of every product b g_j,
    deg b <= degree + slack, read off with the high-degree columns first."""
    field = pres.ring.field
    one = field.one()
    ambient = algebra_basis(pres, degree + slack + max(g.degree() for g in gens))
    high = [key for key in ambient if key not in index]
    columns = {key: pos for pos, key in enumerate(high)}
    columns.update({key: len(high) + j for key, j in index.items()})
    space = RowSpace(field, len(ambient))
    for alpha, exps in algebra_basis(pres, degree + slack):
        b = pres.monomial(alpha, pres.ring.monomial(exps, one))
        for g in gens:
            terms = [((a, e), c) for a, r in gwa_mul(b, g).terms.items() for e, c in r.terms.items()]
            if all(key in columns for key, _ in terms):
                space.add({columns[key]: c for key, c in terms})
    out = RowSpace(field, len(index))
    for row in space.rows:
        pivot = next(j for j, x in enumerate(row) if not x.is_zero())
        if pivot >= len(high):
            out.add(row[len(high):])
    return out


def _ref_basis(pres, degree):
    index = {key: j for j, key in enumerate(algebra_basis(pres, degree))}
    one = pres.ring.field.one()
    elements = [pres.monomial(alpha, pres.ring.monomial(exps, one)) for alpha, exps in index]
    return index, elements


def ref_kernel(V, elements):
    """The relations among the elements that act as zero on the matrix model,
    from its FieldElement action matrices."""
    model = V.realization
    return linear_relations([{(i, j): x for i, row in enumerate(_act_matrix(model, a))
                              for j, x in enumerate(row) if not x.is_zero()}
                             for a in elements], model.field)


def ref_ann_V_check(V, gens, degree=4, slack=2):
    """Reference for the matrix branch of ann_V_check: (ok, kernel_dim,
    span_dim, witness) from the full span."""
    pres = V.pres
    index, elements = _ref_basis(pres, degree)
    kernel = ref_kernel(V, elements)
    span = ref_truncated_left_span(pres, gens, index, degree, slack)
    dense_ref = dense_span(pres.ring.field, len(index), span.rows)
    for vec in kernel:
        if not dense_ref.contains(vec):
            return False, len(kernel), span.dim, linear_combination(vec, elements, pres.zero())
    return True, len(kernel), span.dim, None


def _t83_formula(V, params):
    """The generators tilde^{n-j} prod_{k<j} (X - alpha^k zeta) of Ann_A(V) in Theorem 8.3."""
    pres = V.pres
    alpha, zeta, n = params["alpha"], params["zeta"], params["n"]
    tilde = tilde_t(pres)
    gens = []
    for j in range(n + 1):
        prod = pres.one()
        for k in range(j):
            prod = gwa_mul(prod, pres.X() - pres.scalar(alpha ** k * zeta))
        gens.append(gwa_mul(pres.embed_ring(tilde ** (n - j)), prod))
    return gens


def _t83_points():
    """The six T8.3 default points, then a seeded mirror of each with random
    alpha (not a root of unity), nonzero beta where the default's is, and zeta."""
    rng = random.Random(zlib.crc32(b"stopped truncated span"))
    alphas = [Q.from_fraction(Fraction(a)) for a in ("2", "3", "-2", "1/2", "3/2", "-3")]
    nonzero = [Q.from_fraction(Fraction(a)) for a in ("1", "2", "-1", "1/2", "-1/3")]
    points = [spec.params for spec in default_grid("T8.3")]
    mirrors = [dict(p, alpha=rng.choice(alphas), zeta=rng.choice(nonzero),
                    beta=p["beta"] if p["beta"].is_zero() else rng.choice(nonzero))
               for p in points]
    return points + mirrors


def _t83_module(params):
    V, report = build_theorem_module(TheoremModuleSpec("T8.3", Q, params))
    assert report.all_green
    return V


@pytest.mark.parametrize("k", range(12))
def test_stopped_span_matches_full_span(k, monkeypatch):
    params = _t83_points()[k]
    V = _t83_module(params)
    pres, n = V.pres, params["n"]
    gens = _t83_formula(V, params)
    index, elements = _ref_basis(pres, 4)
    kernel_dim = len(ref_kernel(V, elements))
    ref = ref_truncated_left_span(pres, gens, index, 4, 2)
    products = []
    monkeypatch.setattr(whittaker, "gwa_mul", lambda a, b: products.append(1) or gwa_mul(a, b))
    stopped = _truncated_left_span(pres, gens, index, 4, 2, kernel_dim)
    assert stopped.dim == ref.dim == kernel_dim
    assert stopped.rows == ref.rows
    # the kernel is reached with b of degree <= 4, out of the 49 of degree <= 6
    if k < 6:
        assert len(products) == 17 * (n + 1)


@pytest.mark.parametrize("k", range(6))
def test_dropped_generator_is_red_like_full_span(k):
    params = _t83_points()[k]
    V = _t83_module(params)
    gens = _t83_formula(V, params)
    for j in range(len(gens)):
        dropped = gens[:j] + gens[j + 1:]
        res = ann_V_check(V, dropped)
        ok, kernel_dim, span_dim, witness = ref_ann_V_check(V, dropped)
        assert not res.ok and not ok
        assert (res.kernel_dim, res.span_dim, res.witness) == (kernel_dim, span_dim, witness)


def test_changed_scalar_is_red_at_generator_check():
    params = _t83_points()[5]
    V = _t83_module(params)
    pres = V.pres
    gens = _t83_formula(V, params)
    # alpha^2 zeta + 1 in place of alpha^2 zeta in the last generator
    alpha, zeta = params["alpha"], params["zeta"]
    changed = pres.one()
    for s in (zeta, alpha * zeta, alpha ** 2 * zeta + Q.one()):
        changed = gwa_mul(changed, pres.X() - pres.scalar(s))
    res = ann_V_check(V, gens[:-1] + [changed])
    assert not res.ok
    assert (res.kernel_dim, res.span_dim, res.witness) == (-1, -1, changed)


def test_thm43_generator_check_on_a_broken_model():
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    V = build_module(pres, [pres.ring.gen("t") ** 2], (Q.one(),))
    model = V.realization
    x = model.x_mats
    x[0][0][0] = x[0][0][0] + Q.one()
    broken = WhittakerModule(pres, V.zeta, V.Q, _rebuilt(V, x, model.y_mats, model.gen_mats))
    res = thm43_truncated_check(broken, degree=3)
    assert not res.ok and (res.kernel_dim, res.span_dim) == (-1, -1)
    assert res.witness == pres.X() - pres.scalar(Q.one())
    assert thm43_truncated_check(V, degree=3).ok


def test_is_simple_is_inconclusive_on_a_broken_model():
    """The criterion needs the relations: a model that breaks one is not judged."""
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    V = build_module(pres, [pres.ring.gen("t")], (Q.one(),))
    model = V.realization
    x = model.x_mats
    x[0][0][0] = x[0][0][0] + Q.one()
    broken = WhittakerModule(pres, V.zeta, V.Q, _rebuilt(V, x, model.y_mats, model.gen_mats))
    verdict = is_simple(broken)
    assert verdict.kind == "inconclusive" and verdict.certificate.startswith("relations fail: ")
    assert "X_0 w != zeta_0 w" in verdict.certificate


def test_is_simple_names_m_c_when_undecided():
    """phi = id and Q = (t^2+1)(t^2+2): R/Q = Q(i) x Q(sqrt(-2)) is 4-dimensional
    and radical, End(V) = R/Q is not a field, and no eigenvector of the action
    generates a proper submodule, so the verdict is inconclusive and names m_c."""
    R = univariate_affine(Q, Q.one(), Q.zero()).ring
    pres = GwaPresentation(R, [Automorphism(R, {"t": R.gen("t")})], [R.gen("t")])
    t = R.gen("t")
    verdict = is_simple(build_module(pres, [(t ** 2 + R.one()) * (t ** 2 + R.scalar(Q.from_int(2)))],
                                     (Q.one(),)))
    assert verdict.kind == "inconclusive"
    assert verdict.certificate.startswith("Ann_R(w) is radical, dim End(V) = 4; m_c = c^")


@pytest.mark.parametrize("p", [3, 5, 13, 17, 97, 257, 7681])
def test_sqrt_mod_is_a_square_root(p):
    """Tonelli-Shanks on every square, p - 1 with 2-adic valuation 1 to 9."""
    for a in {x * x % p for x in range(p)}:
        assert whittaker._sqrt_mod(a, p) ** 2 % p == a


def test_stopped_span_matches_full_span_symbolic_smith():
    # the symbolic case of test_ann_V_symbolic_smith_char0, whose kernel only
    # samples residues: each product still annihilates every sampled residue
    smith = build_family(FamilySpec("smith", Q, {"s": [Q.zero(), Q.from_int(2)]}))
    ring = smith.ring
    J = phi_stable_ideal(ring, smith.phis, [ring.gen("c") - ring.scalar(Q.from_int(3))])
    V = build_module(smith, J, (Q.one(),))
    gens = [smith.embed_ring(g) for g in J.generators]
    res = ann_V_check(V, gens, degree=3)
    assert res.ok and res.kernel_dim == res.span_dim
    index, _ = _ref_basis(smith, 3)
    ref = ref_truncated_left_span(smith, gens, index, 3, 2)
    stopped = _truncated_left_span(smith, gens, index, 3, 2, res.kernel_dim)
    assert stopped.dim == ref.dim == res.kernel_dim
    assert stopped.rows == ref.rows
