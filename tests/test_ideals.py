import random
import zlib

import pytest

from gwa.catalog import FamilySpec, build_family
from gwa.errors import NotPhiStable, UnsupportedFamily
from gwa.field import cyclotomic_field, prime_field, rationals
from gwa.ideals import (
    classify_univariate,
    groebner_basis,
    ideal_equal_gens,
    ideal_membership_gens,
    is_centrally_generated,
    is_phi_stable,
    membership,
    normal_form,
    phi_stable_closure,
    phi_stable_ideal,
    reduce_with_certificate,
    _spoly,
    _squarefree,
)
from gwa.ring import Automorphism, BaseRing, format_ring_element, identity_automorphism
from util import certificate_holds, random_ring_element, sample_pool, stability_certificates_hold

Q = rationals()


def univariate(field=None):
    field = field or Q
    return BaseRing(field, ["t"])


def test_membership_univariate():
    R = univariate()
    t = R.gen("t")
    res = ideal_membership_gens(t ** 3 + t ** 2, R, [t ** 2])
    assert res.member
    total = R.zero()
    for c, g in res.certificate:
        total = total + c * g
    assert total == t ** 3 + t ** 2


def test_membership_negative_with_witness():
    R = univariate()
    t = R.gen("t")
    res = ideal_membership_gens(t + R.one(), R, [t ** 2])
    assert not res.member
    assert res.normal_form_witness == t + R.one()


def test_membership_bivariate_groebner():
    # the Smith char-p shape: J = (c - 1, h^3 - h - 6) over F_3 means h^3 - h in J + const
    F3 = prime_field(3)
    R = BaseRing(F3, ["h", "c"])
    h, c = R.gen("h"), R.gen("c")
    J_gens = [c - R.one(), h ** 3 - h]
    res = ideal_membership_gens(c * h - h, R, J_gens)
    assert res.member
    total = R.zero()
    for co, g in res.certificate:
        total = total + co * g
    assert total == c * h - h


def test_membership_laurent_unit_multiple():
    F = cyclotomic_field(6)
    R = BaseRing(F, ["c", "K"], [False, True])
    c, K = R.gen("c"), R.gen("K")
    theta = R.scalar(F.from_int(2))
    res = ideal_membership_gens(R.gen("K", -2) * (c - theta), R, [c - theta])
    assert res.member
    total = R.zero()
    for co, g in res.certificate:
        total = total + co * g
    assert total == R.gen("K", -2) * (c - theta)


def test_laurent_membership_needs_the_full_saturation():
    # x = K^-1 (x*K - y) + K^-2 (y*K - z) + K^-3 z*K: three multiplications by K
    # away from the polynomial ideal, one more than a degree bound of 2 allowed
    R = BaseRing(Q, ["x", "y", "z", "K"], [False, False, False, True])
    x, y, z, K = (R.gen(g) for g in R.gens)
    gens = [K * x - y, K * y - z, K * z]
    res = ideal_membership_gens(x, R, gens)
    assert res.member
    assert certificate_holds(res.certificate, x, gens)
    assert [(format_ring_element(c), format_ring_element(g)) for c, g in res.certificate] == [
        ("K^-1", "x*K - y"), ("K^-2", "y*K - z"), ("K^-3", "z*K")]
    # the saturation is (x, y, z), so every generator is a non-member of it
    J = phi_stable_ideal(R, [identity_automorphism(R)], gens)
    assert J.generators == [z, y, x]
    assert stability_certificates_hold(J)
    assert not ideal_membership_gens(R.one() + x, R, gens).member


def test_unsaturated_laurent_input_gives_the_saturated_basis():
    R, phis = _laurent_quantum_smith()
    c, K = R.gen("c"), R.gen("K")
    two = R.from_int(2)
    J = phi_stable_ideal(R, phis, [K * (c - two)])
    assert [format_ring_element(g) for g in J.generators] == ["c - 2"]
    assert stability_certificates_hold(J)
    same = phi_stable_ideal(R, phis, [c - two])
    assert J == same and J.generators == same.generators
    assert J != phi_stable_ideal(R, phis, [(c - two) ** 2])
    assert ideal_equal_gens(R, [K ** 2 * (c - two), K * (c - two) * c], [c - two])
    assert is_phi_stable(phis, [K * (c - two)]) and is_phi_stable(phis, [R.gen("K", -1) * (c - two)])
    assert phi_stable_closure([K ** 3 * (c - two)], phis) == J
    # the membership certificate cites the generator as given
    res = ideal_membership_gens(c - two, R, [K * (c - two)])
    assert res.member and res.certificate == [(R.gen("K", -1), K * (c - two))]
    for r in (c - two, R.gen("K", -4) * (c - two) * c):
        assert certificate_holds(membership(r, J).certificate, r, J.generators)
    assert not membership(R.gen("K", -1), J).member


def test_certificate_checker_is_strict():
    R = univariate()
    t = R.gen("t")
    assert certificate_holds([(t, t)], t ** 2, [t])
    assert not certificate_holds([(R.one(), t ** 2)], t ** 2, [t])     # cites a non-generator
    assert not certificate_holds([(R.one(), t)], t ** 2, [t])          # re-expands to t


def test_groebner_reduced_and_spolys_reduce():
    F3 = prime_field(3)
    R = BaseRing(F3, ["h", "c"])
    h, c = R.gen("h"), R.gen("c")
    gens = [c * h + h, h ** 2 - c]
    basis, tracks = groebner_basis(gens)
    # every S-polynomial of the output reduces to zero
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s, _, _ = _spoly(basis[i], basis[j])
            assert normal_form(s, basis).is_zero()
    # tracked representation re-expands
    for b, track in zip(basis, tracks):
        total = R.zero()
        for coeff, g in zip(track, gens):
            total = total + coeff * g
        assert total == b


def test_is_phi_stable_examples():
    R = univariate()
    t = R.gen("t")
    doubling = Automorphism(R, {"t": t * Q.from_int(2)})
    assert is_phi_stable([doubling], [t ** 3])
    shift = Automorphism(R, {"t": t - R.one()})
    assert not is_phi_stable([shift], [t])

    # an element fixed by phi generates a stable ideal
    R2 = BaseRing(Q, ["h", "c"])
    phi = Automorphism(R2, {"h": R2.gen("h") - R2.one(), "c": R2.gen("c")})
    assert is_phi_stable([phi], [R2.gen("c") - R2.from_int(3)])


def test_phi_stable_ideal_rejects_unstable():
    R = univariate()
    t = R.gen("t")
    shift = Automorphism(R, {"t": t - R.one()})
    with pytest.raises(NotPhiStable):
        phi_stable_ideal(R, [shift], [t])


def test_closure_reaches_unit_ideal():
    R = univariate()
    t = R.gen("t")
    shift = Automorphism(R, {"t": t - R.one()})
    J = phi_stable_closure([t], [shift])
    assert J.is_unit()


def test_closure_already_stable():
    R = univariate()
    t = R.gen("t")
    doubling = Automorphism(R, {"t": t * Q.from_int(2)})
    J = phi_stable_closure([t ** 2], [doubling])
    assert ideal_equal_gens(R, J.generators, [t ** 2])


def test_closure_empty_is_zero_ideal():
    R = univariate()
    doubling = Automorphism(R, {"t": R.gen("t") * Q.from_int(2)})
    assert phi_stable_closure([], [doubling]).is_zero()


def test_classify_powers_regime():
    R = univariate()
    t = R.gen("t")
    doubling = Automorphism(R, {"t": t * Q.from_int(2)})
    report = classify_univariate(doubling, 3)
    assert report.regime == "powers"
    assert report.monic_generators == [t, t ** 2, t ** 3]
    assert report.maximal_proper == [t]


def test_classify_root_of_unity_f5():
    F5 = prime_field(5)
    R = univariate(F5)
    t = R.gen("t")
    doubling = Automorphism(R, {"t": t * F5.from_int(2)})  # order 4
    report = classify_univariate(doubling, 4)
    assert report.regime == "root_of_unity" and report.ell == 4
    frozen = {frozenset(f.terms.items()) for f in report.monic_generators}
    # brute force: all monic f with deg <= 4 whose ideal is phi-stable
    expected = set()
    from gwa.ideals import _all_monic

    for d in range(1, 5):
        for f in _all_monic(R, "t", d):
            if is_phi_stable([doubling], [f]):
                expected.add(frozenset(f.terms.items()))
    assert frozen == expected
    # Cor: maximal proper stable ideals are (t) and (t^4 - xi)
    maxima = {frozenset(f.terms.items()) for f in report.maximal_proper}
    predicted = {frozenset((t ** 4 - R.scalar(F5.from_int(x))).terms.items()) for x in range(1, 5)}
    predicted.add(frozenset(t.terms.items()))
    assert maxima == predicted


def test_classify_alpha_one_regimes():
    R = univariate()
    t = R.gen("t")
    identity = Automorphism(R, {"t": t})
    assert classify_univariate(identity, 3).regime == "all_ideals"
    shift = Automorphism(R, {"t": t + R.one()})
    rep = classify_univariate(shift, 3)
    assert rep.regime == "only_trivial" and rep.monic_generators == []

    F3 = prime_field(3)
    R3 = univariate(F3)
    shift3 = Automorphism(R3, {"t": R3.gen("t") + R3.one()})
    rep3 = classify_univariate(shift3, 3)
    assert rep3.regime == "centrally_generated"
    z = R3.gen("t") ** 3 - R3.gen("t")
    assert rep3.tilde_t == z
    assert any(f == z for f in rep3.monic_generators)
    for f in rep3.monic_generators:
        assert is_phi_stable([shift3], [f])


def test_classify_every_listed_ideal_is_stable():
    F5 = prime_field(5)
    R = univariate(F5)
    doubling = Automorphism(R, {"t": R.gen("t") * F5.from_int(2)})
    report = classify_univariate(doubling, 4)
    for f in report.monic_generators:
        assert is_phi_stable([doubling], [f])


def test_centrally_generated_weyl_shift():
    F5 = prime_field(5)
    R = univariate(F5)
    t = R.gen("t")
    beta = F5.from_int(1)
    shift = Automorphism(R, {"t": t + R.scalar(beta)})
    mu = F5.from_int(2)
    gen = t ** 5 - t * beta ** 4 - R.scalar(mu)
    J = phi_stable_ideal(R, [shift], [gen])
    ok, central = is_centrally_generated(J)
    assert ok
    assert [format_ring_element(c) for c in central] == ["t^5 + 4*t + 3"]
    assert ideal_equal_gens(R, central, [gen])


def test_centrally_generated_smith_char0():
    R = BaseRing(Q, ["h", "c"])
    phi = Automorphism(R, {"h": R.gen("h") - R.one(), "c": R.gen("c")})
    theta = Q.from_int(3)
    J = phi_stable_ideal(R, [phi], [R.gen("c") - R.scalar(theta)])
    ok, central = is_centrally_generated(J)
    assert ok
    assert [format_ring_element(c) for c in central] == ["c - 3"]
    assert ideal_equal_gens(R, central, [R.gen("c") - R.scalar(theta)])


def test_centrally_generated_quantum_smith():
    # K^-3 is an invariant of its own: it enters the elimination as u_K^3
    F = cyclotomic_field(6)
    q = F.generator()
    R = BaseRing(F, ["c", "K"], [False, True])
    phi = Automorphism(R, {"c": R.gen("c"), "K": R.gen("K") * (q ** -2)})
    lam = F.from_int(2)
    gens = [
        R.gen("c") - R.one(),
        R.gen("K", 3) - R.scalar(lam ** 3),
        R.gen("K", -3) - R.scalar(lam ** -3),
    ]
    J = phi_stable_ideal(R, [phi], gens)
    ok, central = is_centrally_generated(J)
    assert ok
    assert [format_ring_element(c) for c in central] == ["K^-3 - 1/8", "K^3 - 8", "c - 1"]
    assert ideal_equal_gens(R, central, gens)


def test_centrally_generated_smith_charp_t9_ideal():
    # the annihilator shape of T9 over F_5: (c - theta, (h^5 - h) - mu)
    F5 = prime_field(5)
    pres = build_family(FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}))
    R = pres.ring
    h, c = R.gen("h"), R.gen("c")
    gens = [c - R.from_int(2), h ** 5 - h - R.from_int(3)]
    J = phi_stable_ideal(R, pres.phis, gens)
    ok, central = is_centrally_generated(J)
    assert ok
    assert [format_ring_element(g) for g in central] == ["c + 3", "h^5 + 4*h + 2"]
    assert ideal_equal_gens(R, central, gens)


def test_not_centrally_generated():
    # doubling on Q[t] fixes only the constants, so (t) meets R^phi in 0
    R = univariate()
    doubling = Automorphism(R, {"t": R.gen("t") * Q.from_int(2)})
    assert is_centrally_generated(phi_stable_ideal(R, [doubling], [R.gen("t")])) == (False, [])
    # x -> -x on Q[x, z]: (x) meets Q[x^2, z] in (x^2), which generates less than (x)
    S = BaseRing(Q, ["x", "z"])
    sign = Automorphism(S, {"x": -S.gen("x"), "z": S.gen("z")})
    ok, central = is_centrally_generated(phi_stable_ideal(S, [sign], [S.gen("x")]))
    assert not ok
    assert [format_ring_element(g) for g in central] == ["x^2"]


def test_centrally_generated_zero_and_unit_ideals():
    R = univariate()
    doubling = Automorphism(R, {"t": R.gen("t") * Q.from_int(2)})
    assert is_centrally_generated(phi_stable_ideal(R, [doubling], [])) == (True, [])
    assert is_centrally_generated(phi_stable_ideal(R, [doubling], [R.gen("t") + R.one(), R.gen("t")])) == \
        (True, [R.one()])


def _xz_automorphisms(*images):
    S = BaseRing(Q, ["x", "z"])
    x, z = S.gen("x"), S.gen("z")
    return S, [Automorphism(S, {"x": x, "z": z, **f(x, z)}) for f in images]


@pytest.mark.parametrize("images, generator", [
    # the invariants of two automorphisms moving one generator are not on file
    ((lambda x, z: {"x": x * x.ring.from_int(2)}, lambda x, z: {"x": x * x.ring.from_int(3)}),
     lambda x, z: x),
    # one automorphism moving both generators: x*z is invariant, but the
    # per-generator invariants x^2 and z^2 miss it
    ((lambda x, z: {"x": -x, "z": -z},), lambda x, z: x * z),
    # in characteristic 0 the per-generator invariants of two shifts are
    # none, and x - z is missed
    ((lambda x, z: {"x": x + x.ring.one(), "z": z + z.ring.one()},), lambda x, z: x - z),
    # the image of x involves z, which another automorphism moves
    ((lambda x, z: {"x": z ** 2 - x}, lambda x, z: {"z": -z}),
     lambda x, z: z ** 2 - x * x.ring.from_int(2)),
], ids=["two phis move x", "one phi moves x and z", "one phi shifts x and z", "image involves a moved z"])
def test_centrally_generated_unsupported_family(images, generator):
    S, phis = _xz_automorphisms(*images)
    J = phi_stable_ideal(S, phis, [generator(S.gen("x"), S.gen("z"))])
    with pytest.raises(UnsupportedFamily):
        is_centrally_generated(J)


@pytest.mark.parametrize("p, f, expected", [
    (0, lambda t: t ** 3, lambda t: t),
    (3, lambda t: t ** 9 + t ** 3, lambda t: t ** 3 + t),          # (t^3 + t)^3: f' = 0
    (3, lambda t: t ** 4 - t ** 3, lambda t: t ** 2 - t),          # t^3 (t - 1)
    (3, lambda t: (t ** 3 - t) ** 3 * (t + t.ring.one()) ** 2, lambda t: t ** 3 - t),
])
def test_squarefree_part(p, f, expected):
    """The product of the distinct irreducible factors, also when a
    multiplicity is divisible by the characteristic."""
    t = univariate(prime_field(p) if p else Q).gen("t")
    assert _squarefree(t.ring, "t", f(t)) == expected(t)


def test_stability_certificate_reexpands():
    F5 = prime_field(5)
    R = univariate(F5)
    t = R.gen("t")
    doubling = Automorphism(R, {"t": t * F5.from_int(2)})
    J = phi_stable_ideal(R, [doubling], [t ** 2])
    for (i, j), cert in J.stability_certificate.items():
        target = J.generators[j] if j >= 0 else J.generators[-j - 1]
        phi = J.phis[i] if j >= 0 else J.phis[i].inverse()
        total = R.zero()
        for c, g in cert:
            total = total + c * g
        assert total == phi.apply(target)


def test_membership_checks_ring():
    R = univariate()
    other = BaseRing(Q, ["s"])
    doubling = Automorphism(R, {"t": R.gen("t") * Q.from_int(2)})
    J = phi_stable_ideal(R, [doubling], [R.gen("t")])
    from gwa.errors import UnsupportedRing

    with pytest.raises(UnsupportedRing):
        membership(other.gen("s"), J)


# ---------------------------------------------------------------------------
# reference Buchberger: no pair criteria, cofactors always tracked, repeated
# interreduction; the library's earlier implementation, kept as the oracle


def _ref_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _ref_leading(r):
    exps = max(r.terms, key=_ref_key)
    return exps, r.terms[exps]


def _ref_reduce(r, basis):
    ring = r.ring
    cof = [ring.zero() for _ in basis]
    rem = ring.zero()
    f = r
    while not f.is_zero():
        exps, c = _ref_leading(f)
        hit = None
        for j, g in enumerate(basis):
            ge, gc = _ref_leading(g)
            if all(x <= y for x, y in zip(ge, exps)):
                hit = (j, ge, gc)
                break
        if hit is None:
            move = ring.monomial(exps, c)
            rem = rem + move
            f = f - move
        else:
            j, ge, gc = hit
            q = ring.monomial(tuple(x - y for x, y in zip(exps, ge)), c * gc.inv())
            cof[j] = cof[j] + q
            f = f - q * basis[j]
    return rem, cof


def _ref_groebner(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return [], []
    ring = gens[0].ring
    basis, tracks = [], []
    for j, g in enumerate(gens):
        track = [ring.zero()] * len(gens)
        track[j] = ring.one()
        basis.append(g)
        tracks.append(track)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        (fe, fc), (ge, gc) = _ref_leading(basis[i]), _ref_leading(basis[j])
        lcm = tuple(max(x, y) for x, y in zip(fe, ge))
        mf = ring.monomial(tuple(x - y for x, y in zip(lcm, fe)), fc.inv())
        mg = ring.monomial(tuple(x - y for x, y in zip(lcm, ge)), gc.inv())
        rem, cof = _ref_reduce(mf * basis[i] - mg * basis[j], basis)
        if rem.is_zero():
            continue
        track = [mf * a - mg * b for a, b in zip(tracks[i], tracks[j])]
        for k, q in enumerate(cof):
            if not q.is_zero():
                track = [a - q * b for a, b in zip(track, tracks[k])]
        pairs.extend((k, len(basis)) for k in range(len(basis)))
        basis.append(rem)
        tracks.append(track)
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1:]
            other_tracks = tracks[:i] + tracks[i + 1:]
            if not others:
                continue
            rem, cof = _ref_reduce(basis[i], others)
            if rem != basis[i]:
                changed = True
                if rem.is_zero():
                    del basis[i]
                    del tracks[i]
                else:
                    track = list(tracks[i])
                    for k, q in enumerate(cof):
                        if not q.is_zero():
                            track = [a - q * b for a, b in zip(track, other_tracks[k])]
                    basis[i] = rem
                    tracks[i] = track
                break
    order = sorted(range(len(basis)), key=lambda k: _ref_key(_ref_leading(basis[k])[0]))
    out_basis, out_tracks = [], []
    for k in order:
        inv = _ref_leading(basis[k])[1].inv()
        out_basis.append(basis[k] * inv)
        out_tracks.append([t * inv for t in tracks[k]])
    return out_basis, out_tracks


def _min_degree_in(r, name):
    i = r.ring.index(name)
    return min((exps[i] for exps in r.terms), default=0)


def _ref_clear(r):
    """(r * u, u) for the Laurent monomial u that makes every exponent nonnegative."""
    ring = r.ring
    unit = ring.one()
    for name, laurent in zip(ring.gens, ring.laurent):
        if laurent and min(0, _min_degree_in(r, name)):
            unit = unit * ring.gen(name, -_min_degree_in(r, name))
    return r * unit, unit


def _ref_membership(r, ring, gens):
    """The earlier ideal_membership_gens: a fresh basis, then bounded Laurent saturation."""
    gens = [g for g in gens if not g.is_zero()]
    if r.is_zero():
        return True, [], None
    if not gens:
        return False, None, r
    basis, tracks = _ref_groebner([_ref_clear(g)[0] for g in gens])
    r_poly, shift_unit = _ref_clear(r)
    laurents = [g for g, l in zip(ring.gens, ring.laurent) if l]
    spread = max((g.degree_in(name) - min(0, _min_degree_in(g, name))
                  for name in laurents for g in gens), default=0)
    bound = spread + max(0, r.degree()) if laurents else 0
    sat = ring.one()
    for _ in range(bound + 1):
        rem, cof = _ref_reduce(sat * r_poly, basis)
        if rem.is_zero():
            unshift = (shift_unit * sat).unit_inverse()
            cert = []
            for j, g in enumerate(gens):
                total = ring.zero()
                for b, q in enumerate(cof):
                    if not q.is_zero():
                        total = total + q * tracks[b][j]
                if not total.is_zero():
                    cert.append((unshift * total * _ref_clear(g)[1], g))
            return True, cert, None
        for name in laurents:
            sat = sat * ring.gen(name)
    return False, None, _ref_reduce(r_poly, basis)[0]


def _reexpands(transforms, gens, basis):
    ring = basis[0].ring if basis else None
    for b, row in zip(basis, transforms):
        total = ring.zero()
        for coeff, g in zip(row, [g for g in gens if not g.is_zero()]):
            total = total + coeff * g
        if total != b:
            return False
    return True


def _groebner_cases(name, ring, count, n_gens=3, max_degree=3, n_terms=3):
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(count):
        gens = [random_ring_element(rng, ring, max_degree, n_terms)
                for _ in range(rng.randint(1, n_gens))]
        yield rng, [_ref_clear(g)[0] for g in gens]


GROEBNER_RINGS = {
    "Q[x,y]": BaseRing(Q, ["x", "y"]),
    "Q[x,y,z]": BaseRing(Q, ["x", "y", "z"]),
    "F5[h,c]": BaseRing(prime_field(5), ["h", "c"]),
    "F5[x,y,z]": BaseRing(prime_field(5), ["x", "y", "z"]),
    "Q(zeta6)[c,K]": BaseRing(cyclotomic_field(6), ["c", "K"]),
    "Q(zeta6)[c,K^+-1]": BaseRing(cyclotomic_field(6), ["c", "K"], [False, True]),
    "Q[x,K^+-1]": BaseRing(Q, ["x", "K"], [False, True]),
}


@pytest.mark.parametrize("name", sorted(GROEBNER_RINGS))
def test_groebner_matches_reference(name):
    ring = GROEBNER_RINGS[name]
    for _, gens in _groebner_cases(name, ring, 12):
        basis, transforms = groebner_basis(gens)
        ref_basis, _ = _ref_groebner(gens)
        assert basis == ref_basis, gens
        assert _reexpands(transforms, gens, basis), gens
        assert groebner_basis(gens, track=False) == (basis, None)
        # a reduced basis is its own basis, with identity transforms
        again, identity = groebner_basis(basis)
        assert again == basis
        assert identity == [[ring.one() if i == j else ring.zero() for j in range(len(basis))]
                            for i in range(len(basis))]


@pytest.mark.parametrize("name", sorted(GROEBNER_RINGS))
def test_membership_matches_reference(name):
    ring = GROEBNER_RINGS[name]
    for rng, gens in _groebner_cases(name + " membership", ring, 6, n_gens=2):
        probes = [random_ring_element(rng, ring, 3, 3)]
        combo = ring.zero()
        for g in gens:
            combo = combo + random_ring_element(rng, ring, 2, 2) * g
        probes.append(combo)
        laurents = [n for n, l in zip(ring.gens, ring.laurent) if l]
        if laurents:
            probes.append(combo * ring.gen(laurents[0], -rng.randint(1, 2)))
        for r in probes:
            res = ideal_membership_gens(r, ring, gens)
            member, _, witness = _ref_membership(r, ring, gens)
            assert res.member == member, (r, gens)
            if member:
                total = ring.zero()
                for c, g in res.certificate:
                    total = total + c * g
                assert total == r
            else:
                assert res.normal_form_witness == witness


def _laurent_quantum_smith():
    F = cyclotomic_field(6)
    q = F.generator()
    R = BaseRing(F, ["c", "K"], [False, True])
    phi = Automorphism(R, {"c": R.gen("c"), "K": R.gen("K") * (q ** -2)})
    return R, [phi]


def _closure_cases():
    F5 = prime_field(5)
    Rs = BaseRing(F5, ["h", "c"])
    smith = Automorphism(Rs, {"h": Rs.gen("h") - Rs.one(), "c": Rs.gen("c")})
    Rh = BaseRing(Q, ["c", "t"])
    heis = Automorphism(Rh, {"c": Rh.gen("c"), "t": Rh.gen("t") - Rh.gen("c")})
    Rq, qphis = _laurent_quantum_smith()
    return {
        "smith F5": (Rs, [smith], lambda R, rng: [R.gen("c") - R.from_int(rng.randint(1, 4)),
                                                  R.gen("h") ** 5 - R.gen("h") - R.from_int(2)]),
        "heisenberg Q": (Rh, [heis], lambda R, rng: [R.gen("c") ** 2,
                                                     R.gen("c") * (R.gen("t") - R.from_int(rng.randint(1, 3)))]),
        "quantum smith Q(zeta6)": (Rq, qphis, lambda R, rng: [R.gen("c") - R.one(),
                                                             R.gen("K", 3) - R.from_int(rng.randint(2, 3))]),
    }


@pytest.mark.parametrize("name", sorted(_closure_cases()))
def test_ideal_certificates_match_reference(name):
    ring, phis, targets = _closure_cases()[name]
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(3):
        u1, u2 = targets(ring, rng)
        seeds = [u1 * random_ring_element(rng, ring, 1, 2), u2 * random_ring_element(rng, ring, 1, 2)]
        J = phi_stable_closure([g for g in seeds if not g.is_zero()] or [u1], phis)
        assert J.generators == _ref_groebner(J.generators)[0]
        assert stability_certificates_hold(J)
        for (i, j), cert in J.stability_certificate.items():
            phi = J.phis[i] if j >= 0 else J.phis[i].inverse()
            g = J.generators[j] if j >= 0 else J.generators[-j - 1]
            member, ref_cert, _ = _ref_membership(phi.apply(g), ring, J.generators)
            assert member and cert == ref_cert
        probes = [random_ring_element(rng, ring, 3, 3)]
        probes += [random_ring_element(rng, ring, 2, 2) * g for g in J.generators]
        for r in probes:
            res = membership(r, J)
            assert res == ideal_membership_gens(r, ring, J.generators)
            member, ref_cert, witness = _ref_membership(r, ring, J.generators)
            assert (res.member, res.certificate, res.normal_form_witness) == (member, ref_cert, witness)
            assert not member or certificate_holds(res.certificate, r, J.generators)


def _sympy_forms(sympy, ring):
    """(symbols, to_sympy, frozen): a ring element over Q as a sympy expression,
    and a sympy polynomial as the comparable term set of its monic form."""
    syms = sympy.symbols(ring.gens)

    def to_sympy(r):
        return sum(sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)
                   * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
                   for exps, c in r.terms.items())

    def frozen(poly):
        return frozenset(sympy.Poly(poly, *syms, domain="QQ").monic().as_dict().items())

    return syms, to_sympy, frozen


def test_groebner_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    for name in ("Q[x,y]", "Q[x,y,z]"):
        ring = GROEBNER_RINGS[name]
        syms, to_sympy, frozen = _sympy_forms(sympy, ring)
        for _, gens in _groebner_cases(name + " sympy", ring, 8):
            basis, _ = groebner_basis(gens)
            expected = sympy.groebner([to_sympy(g) for g in gens], *syms, order="grevlex")
            assert {frozen(to_sympy(b)) for b in basis} == {frozen(e) for e in expected.exprs}


SATURATION_RINGS = {
    "Q[x,K^+-1]": GROEBNER_RINGS["Q[x,K^+-1]"],
    "Q[x,y,K^+-1]": BaseRing(Q, ["x", "y", "K"], [False, False, True]),
}


@pytest.mark.parametrize("name", sorted(SATURATION_RINGS))
def test_saturation_matches_sympy(name):
    # sympy's route: J + (K*u - 1) in lex with u first, keep the u-free part,
    # then its grevlex basis; the library's stored generators must equal it
    sympy = pytest.importorskip("sympy")
    ring = SATURATION_RINGS[name]
    syms, to_sympy, frozen = _sympy_forms(sympy, ring)
    u = sympy.Symbol("u")
    K = syms[ring.gens.index("K")]
    # J = (K^a f - h g, K^b g) saturates to (f, g) : K^inf, which J itself rarely is
    rng = random.Random(zlib.crc32(name.encode()))
    unsaturated = 0
    for _ in range(8):
        f, g, h = (_ref_clear(random_ring_element(rng, ring, 2, 3))[0] for _ in range(3))
        gens = [ring.gen("K", rng.randint(1, 2)) * f - h * g, ring.gen("K", rng.randint(1, 2)) * g]
        lex = sympy.groebner([to_sympy(g) for g in gens] + [K * u - 1], u, *syms, order="lex")
        free = [e for e in lex.exprs if not e.has(u)]
        expected = sympy.groebner(free, *syms, order="grevlex").exprs if free else []
        J = phi_stable_ideal(ring, [identity_automorphism(ring)], gens)
        assert {frozen(to_sympy(b)) for b in J.generators} == {frozen(e) for e in expected}, gens
        unsaturated += J.generators != groebner_basis(gens, track=False)[0]
    assert unsaturated, "no case exercised a saturation"


@pytest.mark.parametrize("name", ["Q(zeta6)[c,K^+-1]", "Q[x,K^+-1]"])
def test_reduce_is_the_canonical_residue(name):
    ring = GROEBNER_RINGS[name]
    pool = sample_pool(ring.field)
    rng = random.Random(zlib.crc32((name + " reduce").encode()))
    K = ring.gen("K")
    seen = set()
    for _ in range(8):
        gens = [random_ring_element(rng, ring, 2, 3) for _ in range(rng.randint(1, 2))]
        J = phi_stable_ideal(ring, [identity_automorphism(ring)], gens)
        members = [random_ring_element(rng, ring, 2, 2) * g * K ** -rng.randint(0, 2)
                   for g in J.generators]
        for _ in range(4):
            r = random_ring_element(rng, ring, 3, 3)
            red = J.reduce(r)
            res = membership(r, J)
            assert red.is_zero() == res.member, (r, J)
            seen.add(res.member)
            diff = r - red
            cert = membership(diff, J).certificate
            assert cert is not None and certificate_holds(cert, diff, J.generators), (r, J)
            assert J.reduce(red) == red
            for m in members:
                assert J.reduce(r + m) == red and J.reduce(m).is_zero()
            s = random_ring_element(rng, ring, 3, 3)
            a, b = rng.choice(pool), rng.choice(pool)
            assert J.reduce(r * a + s * b) == red * a + J.reduce(s) * b
    assert seen == {True, False}


INVARIANT_CASES = {
    # name: (the generators of Q[x, z] one automorphism each negates, the
    # power of each generator that is invariant)
    "x -> -x": (["x"], [2, 1]),
    "x -> -x, z -> -z": (["x", "z"], [2, 2]),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_CASES))
def test_central_intersection_matches_sympy(name):
    # sympy's route: J + (f_k - y_k) in lex with x, z first, keep the y-only
    # part, then its grevlex basis; the library's list, pulled back along
    # y_k -> f_k (a power of one variable each), must equal it
    sympy = pytest.importorskip("sympy")
    negated, degrees = INVARIANT_CASES[name]
    ring = BaseRing(Q, ["x", "z"])
    phis = [Automorphism(ring, {g: -ring.gen(g) if g == n else ring.gen(g) for g in ring.gens})
            for n in negated]
    syms, to_sympy, _ = _sympy_forms(sympy, ring)
    tags = sympy.symbols("y0 y1")

    def pulled_back(r):
        # x^(d0 a) z^(d1 b) -> y0^a y1^b
        return sum(sympy.Rational(c.as_fraction().numerator, c.as_fraction().denominator)
                   * sympy.Mul(*[y ** (e // d) for y, e, d in zip(tags, exps, degrees)])
                   for exps, c in r.terms.items())

    def frozen(poly):
        return frozenset(sympy.Poly(poly, *tags, domain="QQ").monic().as_dict().items())

    rng = random.Random(zlib.crc32(("central " + name).encode()))
    verdicts = set()
    for _ in range(6):
        seeds = [random_ring_element(rng, ring, 2, 3) for _ in range(rng.randint(1, 2))]
        J = phi_stable_closure([g for g in seeds if not g.is_zero()] or [ring.gen("x")], phis)
        ok, central = is_centrally_generated(J)
        invariants = [s ** d for s, d in zip(syms, degrees)]
        lex = sympy.groebner([to_sympy(g) for g in J.generators]
                             + [f - y for f, y in zip(invariants, tags)], *syms, *tags, order="lex")
        kept = [e for e in lex.exprs if not e.has(*syms)]
        expected = sympy.groebner(kept, *tags, order="grevlex").exprs if kept else []
        assert {frozen(pulled_back(g)) for g in central} == {frozen(e) for e in expected}, J
        # the verdict: R * (J cap R^phi) = J, decided by sympy's grevlex bases
        images = [e.subs(dict(zip(tags, invariants)), simultaneous=True) for e in expected]
        same = (sympy.groebner(images, *syms, order="grevlex").exprs if images else []) == \
            (sympy.groebner([to_sympy(g) for g in J.generators], *syms, order="grevlex").exprs
             if J.generators else [])
        assert ok == same, J
        verdicts.add(ok)
    assert verdicts == {True, False}, "the seeds should give both verdicts"
