import pytest

import gwa.catalog
from gwa.catalog import (
    FamilySpec,
    TheoremModuleSpec,
    build_family,
    build_theorem_module,
    family_fixed_subring,
    smith_weyl_correspondence,
    solve_telescoping,
    tilde_t,
    uqsl2_equals_quantum_smith,
    verify_family_facts,
)
from gwa.core import GwaPresentation, center_generators, gwa_mul, is_central
from gwa.errors import HypothesisViolated, InvalidParameters, TelescopingUnsolvable
from gwa.field import cyclotomic_field, prime_field, rational_functions, rationals
from gwa.ideals import phi_stable_closure
from gwa.ring import Automorphism, BaseRing
from gwa.whittaker import is_simple, whittaker_vectors

Q = rationals()


def test_weyl_family_relations():
    pres = build_family(FamilySpec("weyl", Q, {"n": 2}))
    assert pres.n == 2
    # [Y_i, X_j] = delta_ij
    for i in range(2):
        for j in range(2):
            comm = gwa_mul(pres.Y(i), pres.X(j)) - gwa_mul(pres.X(j), pres.Y(i))
            expected = pres.one() if i == j else pres.zero()
            assert comm == expected


def test_heisenberg_family_relations():
    pres = build_family(FamilySpec("heisenberg", Q, {"n": 2}))
    c = pres.embed_ring(pres.ring.gen("c"))
    for i in range(2):
        for j in range(2):
            comm = gwa_mul(pres.Y(i), pres.X(j)) - gwa_mul(pres.X(j), pres.Y(i))
            expected = c if i == j else pres.zero()
            assert comm == expected
    assert is_central(pres, c)


def test_smith_telescoping_sl2():
    # s(x) = 2x gives r(x) = 2x^2 - 2x, the U(sl2) Casimir normalization
    r = solve_telescoping(Q, [Q.zero(), Q.from_int(2)])
    assert r == [Q.zero(), Q.from_int(-2), Q.from_int(2)]


def test_telescoping_claim_evaluates_r(monkeypatch):
    """The family-facts telescoping claim is green for the solved r, and red,
    naming r, once r stops telescoping to s."""
    F5 = prime_field(5)
    spec = FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]})
    claim = next(c for c in verify_family_facts(spec).claims if c.cid == "telescoping")
    assert claim.ok and claim.detail == ""
    pres = build_family(spec)
    pres.meta["r"] = [F5.zero(), F5.from_int(-2), F5.from_int(3)]   # 2h^2 - 2h is right
    monkeypatch.setattr(gwa.catalog, "build_family", lambda _: pres)
    claim = next(c for c in verify_family_facts(spec).claims if c.cid == "telescoping")
    assert not claim.ok and claim.detail == "r(h) = 3*h^2 + 3*h"


def test_smith_family_is_sl2_like():
    spec = FamilySpec("smith", Q, {"s": [Q.zero(), Q.from_int(2)]})
    pres = build_family(spec)
    # he - eh = e, hf - fh = -f, ef - fe = s(h) = 2h
    h = pres.embed_ring(pres.ring.gen("h"))
    e, f = pres.X(), pres.Y()
    assert gwa_mul(h, e) - gwa_mul(e, h) == e
    assert gwa_mul(h, f) - gwa_mul(f, h) == -f
    s_h = pres.embed_ring(pres.ring.gen("h") * Q.from_int(2))
    assert gwa_mul(e, f) - gwa_mul(f, e) == s_h


def test_smith_char_p_requires_small_degree():
    F3 = prime_field(3)
    with pytest.raises(TelescopingUnsolvable):
        solve_telescoping(F3, [F3.zero(), F3.zero(), F3.one()])  # deg s = 2, p = 3


def test_quantum_smith_validation():
    F = rational_functions("q")
    q = F.generator()
    with pytest.raises(InvalidParameters):
        build_family(FamilySpec("quantum_smith", F, {"m": 1, "q": F.one()}))
    pres = build_family(FamilySpec("quantum_smith", F, {"m": 2, "q": q}))
    assert pres.ring.gens == ("c", "K")


def test_uqsl2_matches_quantum_smith():
    F = rational_functions("q")
    assert uqsl2_equals_quantum_smith(F, F.generator())
    Z6 = cyclotomic_field(6)
    assert uqsl2_equals_quantum_smith(Z6, Z6.generator())


def test_fixed_subring_families():
    F5 = prime_field(5)
    spec = FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]})
    gens = family_fixed_subring(spec)
    pres = build_family(spec)
    h, c = pres.ring.gen("h"), pres.ring.gen("c")
    assert c in gens and h ** 5 - h in gens

    Z6 = cyclotomic_field(6)
    qs = FamilySpec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()})
    gens = family_fixed_subring(qs)
    ring = build_family(qs).ring
    assert ring.gen("c") in gens
    assert ring.gen("K", 3) in gens and ring.gen("K", -3) in gens

    weyl = FamilySpec("weyl", Q, {"n": 1})
    assert family_fixed_subring(weyl) == []


def test_center_generators_criterion_families():
    # A_{q,1} with q a primitive cube root: {X^3, Y^3, tilde^3}
    Z3 = cyclotomic_field(3)
    q = Z3.generator()
    pres = build_family(FamilySpec("quantum_weyl", Z3, {"q": q}))
    report = center_generators(pres, 6)
    assert report.complete
    tilde = tilde_t(pres)
    assert pres.X(0, 3) in report.generators
    assert pres.Y(0, 3) in report.generators
    assert pres.embed_ring(tilde ** 3) in report.generators
    assert len(report.generators) == 3

    # Smith char 5: {X^5, Y^5, c, h^5 - h}
    F5 = prime_field(5)
    smith = build_family(FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}))
    rep = center_generators(smith, 5)
    assert rep.complete
    ring = smith.ring
    assert smith.embed_ring(ring.gen("c")) in rep.generators
    assert smith.embed_ring(ring.gen("h") ** 5 - ring.gen("h")) in rep.generators
    assert smith.X(0, 5) in rep.generators and smith.Y(0, 5) in rep.generators


def test_theorem_T83():
    spec = TheoremModuleSpec("T8.3", Q, {
        "alpha": Q.from_int(2), "beta": Q.one(), "n": 2, "zeta": Q.one()})
    V, report = build_theorem_module(spec)
    assert report.all_green, report.failures()
    assert V.dim == 2
    assert is_simple(V).kind == "not_simple"

    simple_spec = TheoremModuleSpec("T8.3", Q, {
        "alpha": Q.from_int(2), "beta": Q.one(), "n": 1, "zeta": Q.one()})
    V1, report1 = build_theorem_module(simple_spec)
    assert report1.all_green, report1.failures()


def test_theorem_T83_rejects_root_of_unity():
    Z3 = cyclotomic_field(3)
    with pytest.raises(HypothesisViolated):
        build_theorem_module(TheoremModuleSpec("T8.3", Z3, {
            "alpha": Z3.generator(), "beta": Z3.zero(), "n": 1, "zeta": Z3.one()}))


def test_theorem_T85_both_cases():
    Z3 = cyclotomic_field(3)
    alpha = Z3.generator()
    spec = TheoremModuleSpec("T8.5", Z3, {
        "alpha": alpha, "beta": Z3.one(), "theta": Z3.from_int(2), "zeta": Z3.one()})
    V, report = build_theorem_module(spec)
    assert report.all_green, report.failures()
    assert V.dim == 3

    one_dim = TheoremModuleSpec("T8.5", Z3, {
        "alpha": alpha, "beta": Z3.one(), "theta": None, "zeta": Z3.one()})
    V1, report1 = build_theorem_module(one_dim)
    assert report1.all_green, report1.failures()
    assert V1.dim == 1

    with pytest.raises(HypothesisViolated):
        build_theorem_module(TheoremModuleSpec("T8.5", Z3, {
            "alpha": alpha, "beta": Z3.one(), "theta": Z3.zero(), "zeta": Z3.one()}))


def test_theorem_T87_and_T89():
    F3 = prime_field(3)
    spec = TheoremModuleSpec("T8.7", F3, {
        "beta": F3.one(), "lam": F3.zero(), "zeta": F3.one()})
    V, report = build_theorem_module(spec)
    assert report.all_green, report.failures()
    assert V.dim == 3

    spec9 = TheoremModuleSpec("T8.9", F3, {"lam": F3.zero(), "zeta": F3.one()})
    V9, report9 = build_theorem_module(spec9)
    assert report9.all_green, report9.failures()
    # frozen from the statement: t v_k = k v_k, X v_k = v_{k+1}, Y v_k = (k-1) v_{k-1}
    m = V9.realization
    assert m.gen_mats["t"][1][1] == F3.one()
    assert m.x_mats[0][1][0] == F3.one() and m.x_mats[0][0][2] == F3.one()
    assert m.y_mats[0][0][1] == F3.zero()
    assert m.y_mats[0][1][2] == F3.one()
    assert m.y_mats[0][2][0] == -F3.one()


def test_theorem_T9():
    F3 = prime_field(3)
    spec = TheoremModuleSpec("T9", F3, {
        "s": [F3.zero(), F3.from_int(2)], "theta": F3.one(),
        "lam": F3.zero(), "zeta": F3.one()})
    V, report = build_theorem_module(spec)
    assert report.all_green, report.failures()
    assert V.dim == 3
    m = V.realization
    assert m.gen_mats["c"][0][0] == F3.one()
    assert m.gen_mats["h"][2][2] == F3.from_int(2)


def test_theorem_T10():
    Z6 = cyclotomic_field(6)
    q = Z6.generator()
    spec = TheoremModuleSpec("T10", Z6, {
        "m": 1, "q": q, "theta": Z6.from_int(1), "lam": Z6.from_int(1), "zeta": Z6.one()})
    V, report = build_theorem_module(spec)
    assert report.all_green, report.failures()
    assert V.dim == 3
    # K v_j = lam q^{2j} v_j
    m = V.realization
    assert m.gen_mats["K"][1][1] == q ** 2
    with pytest.raises(HypothesisViolated):
        build_theorem_module(TheoremModuleSpec("T10", Z6, {
            "m": 3, "q": q, "theta": Z6.one(), "lam": Z6.one(), "zeta": Z6.one()}))


def test_smith_weyl_correspondence():
    F3 = prime_field(3)
    F5 = prime_field(5)
    assert smith_weyl_correspondence(3, F3.zero(), F3.one())
    assert smith_weyl_correspondence(5, F5.from_int(2), F5.from_int(1))


def test_verify_family_facts_weyl():
    report = verify_family_facts(FamilySpec("weyl", Q, {"n": 1}))
    assert report.all_green, report.failures()
    assert [c.cid for c in report.claims] == ["center", "no_proper_ideals"]


@pytest.mark.parametrize("n", [1, 2])
def test_weyl_closures_of_monomials_reach_one(n):
    # what the no_proper_ideals hypotheses imply: the stable closure of each
    # t_i^d, d <= 3, is the unit ideal
    pres = build_family(FamilySpec("weyl", Q, {"n": n}))
    assert gwa.catalog._only_shifts(pres)
    for name in pres.ring.gens:
        for d in range(1, 4):
            assert phi_stable_closure([pres.ring.gen(name) ** d], pres.phis).is_unit()


def test_only_shifts_rejects_other_shapes():
    # a shift by c, a shift in characteristic p, and a scaling all allow
    # proper stable ideals, so the hypotheses must fail on each
    F5 = prime_field(5)
    assert not gwa.catalog._only_shifts(build_family(FamilySpec("heisenberg", Q, {"n": 1})))
    assert not gwa.catalog._only_shifts(build_family(FamilySpec("weyl", F5, {"n": 1})))
    assert not gwa.catalog._only_shifts(build_family(FamilySpec(
        "univariate_affine", Q, {"alpha": Q.from_int(2), "beta": Q.zero()})))
    # a Weyl presentation with one generator left unmoved: (t2) is stable
    R = BaseRing(Q, ["t1", "t2"])
    shift = Automorphism(R, {"t1": R.gen("t1") - R.one(), "t2": R.gen("t2")})
    pres = GwaPresentation(R, [shift, Automorphism(R, {"t1": R.gen("t1"), "t2": R.gen("t2")})],
                           [R.gen("t1"), R.gen("t2")])
    assert not gwa.catalog._only_shifts(pres)
    assert not phi_stable_closure([R.gen("t2")], pres.phis).is_unit()


def test_verify_family_facts_quantum():
    F = rational_functions("q")
    report = verify_family_facts(FamilySpec("quantum_weyl", F, {"q": F.generator()}))
    assert report.all_green, report.failures()
    report2 = verify_family_facts(FamilySpec("quantum_plane", F, {"q": F.generator()}))
    assert report2.all_green, report2.failures()

    Z3 = cyclotomic_field(3)
    report3 = verify_family_facts(FamilySpec("quantum_weyl", Z3, {"q": Z3.generator()}))
    assert report3.all_green, report3.failures()


def test_whittaker_vector_dimension_on_simple():
    F3 = prime_field(3)
    spec = TheoremModuleSpec("T8.9", F3, {"lam": F3.zero(), "zeta": F3.one()})
    V, _ = build_theorem_module(spec)
    assert len(whittaker_vectors(V, V.zeta)) == 1
