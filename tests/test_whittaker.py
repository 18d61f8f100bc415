import random
import zlib

import pytest

from gwa.catalog import build_theorem_module, default_grid
from gwa.core import gwa_mul
from gwa.errors import InvalidParameters, NotAWhittakerPair, NotPhiStable
from gwa.field import prime_field, rationals
from gwa.ideals import ideal_equal_gens, phi_stable_ideal
from gwa.linalg import identity, mat_mul, mat_vec, zeros
from gwa.whittaker import (
    ann_V_check,
    ann_w_generators,
    ann_w_member,
    build_module,
    endo_ring,
    is_simple,
    module_to_json,
    recover_annihilator,
    thm43_truncated_check,
    universal_act,
    universal_module,
    verify_relations,
    whittaker_vectors,
    whittaker_vectors_symbolic,
)

from util import random_gwa_element, random_ring_element, univariate_affine, weyl1

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
    assert len(basis) == 1
    # v_k = t^k w has type alpha^k zeta
    for k, expected in ((1, Q.from_int(2)), (2, Q.from_int(4))):
        basis = whittaker_vectors(V, (expected,))
        assert len(basis) == 1
        vec = basis[0]
        nonzero = [j for j, c in enumerate(vec) if not c.is_zero()]
        assert nonzero == [k]


def test_whittaker_vectors_universal():
    # Cor: r w_u is a Whittaker vector iff r is a phi-eigenvector
    pres = univariate_affine(Q, Q.from_int(2), Q.from_int(0))
    V = universal_module(pres, (Q.one(),))
    t = pres.ring.gen("t")
    for eta, expected in ((2, [t]), (4, [t ** 2]), (3, [])):
        assert whittaker_vectors_symbolic(V, (Q.from_int(eta),), degree=3) == expected
    with pytest.raises(InvalidParameters):
        whittaker_vectors_symbolic(V, (Q.from_int(2), Q.from_int(4)), degree=3)


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


def _ref_matrix_of_ring(model, r):
    """Sum of c * G_1^e_1 ... G_k^e_k, each power by repeated squaring."""
    out = zeros(model.field, model.dim, model.dim)
    for exps, c in r.terms.items():
        m = identity(model.field, model.dim)
        for name, e in zip(model.pres.ring.gens, exps):
            if e:
                base = model.gen_mats[name] if e > 0 else model.gen_inv_mats[name]
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
        assert model.z_matrix(alpha) == ref


@pytest.mark.parametrize("theorem", THEOREMS)
def test_action_is_a_homomorphism(theorem):
    model = _theorem_model(theorem)
    pres = model.pres
    rng = random.Random(zlib.crc32(("homomorphism " + theorem).encode()))
    for _ in range(6):
        a = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        b = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        assert model.act_matrix(gwa_mul(a, b)) == mat_mul(model.act_matrix(a), model.act_matrix(b))
