import random
import zlib

import pytest

from gwa.errors import InvalidParameters, NonCommutingAutomorphisms, RingMismatch, UnsupportedFamily
from gwa.field import cyclotomic_field, prime_field, rational_functions, rationals
from gwa.catalog import FamilySpec, build_family
from gwa.parser import parse_ring_element
from gwa.ring import (
    APPLY_CACHE_SIZE,
    Automorphism,
    BaseRing,
    auto_order,
    auto_power,
    fixed_subring_generators,
    identity_automorphism,
)

from util import random_ring_element

Q = rationals()


def shift_auto(ring, name, offset):
    """g -> g + offset (a ring element), all other generators fixed."""
    images = {g: ring.gen(g) for g in ring.gens}
    images[name] = ring.gen(name) + offset
    return Automorphism(ring, images)


def test_poly_mul():
    R = BaseRing(Q, ["t"])
    t = R.gen("t")
    assert (t - R.one()) * (t + R.one()) == t * t - R.one()


def test_laurent_unit():
    F = rational_functions("q")
    R = BaseRing(F, ["c", "K"], [False, True])
    K = R.gen("K")
    assert K * R.gen("K", -1) == R.one()


def test_frobenius_cube():
    F3 = prime_field(3)
    R = BaseRing(F3, ["h"])
    h = R.gen("h")
    assert (h + R.one()) ** 3 == h ** 3 + R.one()


def test_negative_power_of_polynomial_rejected():
    R = BaseRing(Q, ["t"])
    with pytest.raises(InvalidParameters):
        R.gen("t", -1)


def test_auto_apply_substitution():
    R = BaseRing(Q, ["t"])
    t = R.gen("t")
    phi = shift_auto(R, "t", -R.one())
    assert phi.apply(t * t) == t * t - R.from_int(2) * t + R.one()


def test_auto_apply_quantum_smith_shape():
    # phi(K) = q^-2 K fixes c and scales K; on K^-1 it gives q^2 K^-1
    F = rational_functions("q")
    q = F.generator()
    R = BaseRing(F, ["c", "K"], [False, True])
    phi = Automorphism(R, {"c": R.gen("c"), "K": R.gen("K") * (q ** -2)})
    assert phi.apply(R.gen("K", -1)) == R.gen("K", -1) * (q ** 2)
    # and phi(c*h-shape): c stays put
    ch = R.gen("c") * R.gen("K")
    assert phi.apply(ch) == ch * (q ** -2)


def test_auto_apply_smith_shape():
    R = BaseRing(Q, ["h", "c"])
    phi = shift_auto(R, "h", -R.one())
    c, h = R.gen("c"), R.gen("h")
    assert phi.apply(c * h) == c * (h - R.one())


def test_auto_is_homomorphism_random():
    rng = random.Random(3)
    R = BaseRing(Q, ["t"])
    phi = shift_auto(R, "t", -R.one())
    pool = [R.gen("t"), R.gen("t") + R.one(), R.gen("t") ** 2 - R.from_int(2)]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)
        assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)


def test_auto_power_identity_cases():
    R = BaseRing(Q, ["t"])
    alpha, beta = Q.from_int(2), Q.from_int(1)
    phi = Automorphism(R, {"t": R.gen("t") * alpha + R.scalar(beta)})
    assert auto_power([phi], [0]).is_identity()

    # Weyl A_2: phi^{(1,1)} shifts both variables by -1
    R2 = BaseRing(Q, ["t1", "t2"])
    phi1 = shift_auto(R2, "t1", -R2.one())
    phi2 = shift_auto(R2, "t2", -R2.one())
    comp = auto_power([phi1, phi2], [1, 1])
    assert comp.images["t1"] == R2.gen("t1") - R2.one()
    assert comp.images["t2"] == R2.gen("t2") - R2.one()

    # phi(t) = 2t over F_5 has order 4
    F5 = prime_field(5)
    R5 = BaseRing(F5, ["t"])
    phi5 = Automorphism(R5, {"t": R5.gen("t") * F5.from_int(2)})
    assert auto_power([phi5], [4]).is_identity()
    assert not auto_power([phi5], [2]).is_identity()


def test_auto_power_checks_commuting():
    R = BaseRing(Q, ["t"])
    phi = shift_auto(R, "t", -R.one())
    psi = Automorphism(R, {"t": R.gen("t") * Q.from_int(2)})
    with pytest.raises(NonCommutingAutomorphisms):
        auto_power([phi, psi], [1, 1])


def test_auto_order():
    R = BaseRing(Q, ["t"])
    phi = shift_auto(R, "t", -R.one())
    assert auto_order(phi, 50) is None

    F7 = prime_field(7)
    R7 = BaseRing(F7, ["t"])
    psi = shift_auto(R7, "t", R7.from_int(3))
    assert auto_order(psi, 10) == 7

    # phi(K) = q^-2 K with q^2 a primitive cube root of unity
    Z6 = cyclotomic_field(6)
    q = Z6.generator()
    RK = BaseRing(Z6, ["K"], [True])
    rho = Automorphism(RK, {"K": RK.gen("K") * (q ** -2)})
    assert auto_order(rho, 10) == 3


def test_inverse_round_trip():
    R = BaseRing(Q, ["h", "c"])
    phi = shift_auto(R, "h", -R.one())
    inv = phi.inverse()
    for g in R.gens:
        assert phi.apply(inv.images[g]) == R.gen(g)
        assert inv.apply(phi.images[g]) == R.gen(g)


def test_inverse_is_cached_and_linked():
    R = BaseRing(Q, ["h", "c"])
    phi = shift_auto(R, "h", -R.one())
    inv = phi.inverse()
    assert phi.inverse() is inv
    assert inv.inverse() is phi
    h = R.gen("h")
    assert inv.apply(phi.apply(h * h)) == h * h
    assert phi.apply_power(-2, h) == inv.apply(inv.apply(h))


def test_auto_power_composition_law():
    rng = random.Random(5)
    F7 = prime_field(7)
    R = BaseRing(F7, ["t"])
    phi = Automorphism(R, {"t": R.gen("t") * F7.from_int(3) + R.one()})
    pool = [R.gen("t") ** 2, R.gen("t") + R.one(), R.gen("t") ** 3 - R.gen("t")]
    for _ in range(10):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        r = rng.choice(pool)
        lhs = auto_power([phi], [a]).apply(auto_power([phi], [b]).apply(r))
        rhs = auto_power([phi], [a + b]).apply(r)
        assert lhs == rhs


def test_fixed_subring_smith_char_p():
    F5 = prime_field(5)
    R = BaseRing(F5, ["h", "c"])
    phi = shift_auto(R, "h", -R.one())
    gens = fixed_subring_generators([phi])
    h, c = R.gen("h"), R.gen("c")
    assert c in gens
    assert h ** 5 - h in gens
    for g in gens:
        assert phi.apply(g) == g


def test_fixed_subring_quantum_smith_root_of_unity():
    Z6 = cyclotomic_field(6)
    q = Z6.generator()
    R = BaseRing(Z6, ["c", "K"], [False, True])
    phi = Automorphism(R, {"c": R.gen("c"), "K": R.gen("K") * (q ** -2)})
    gens = fixed_subring_generators([phi])
    assert R.gen("c") in gens
    assert R.gen("K", 3) in gens
    assert R.gen("K", -3) in gens
    for g in gens:
        assert phi.apply(g) == g


def test_fixed_subring_weyl_char0_empty():
    R = BaseRing(Q, ["t1", "t2"])
    phi1 = shift_auto(R, "t1", -R.one())
    phi2 = shift_auto(R, "t2", -R.one())
    assert fixed_subring_generators([phi1, phi2]) == []


def test_fixed_subring_heisenberg_shift_by_a_fixed_generator():
    # t -> t - c with c fixed: F[c] in characteristic 0, F[c, t^p - c^(p-1) t] in p
    for field, expected in [(Q, ["c"]), (prime_field(5), ["c", "t^5-c^4*t"])]:
        pres = build_family(FamilySpec("heisenberg", field, {"n": 1}))
        assert fixed_subring_generators(pres.phis) == \
            [parse_ring_element(pres.ring, f) for f in expected]


@pytest.mark.parametrize("images", [
    ({"x": "-x", "z": "-z"},),
    ({"x": "x+1", "z": "z+1"},),
    ({"x": "z^2-x"}, {"z": "-z"}),
    ({"x": "2*x"}, {"x": "3*x"}),
], ids=["one phi moves two", "one phi shifts two", "image involves a moved generator",
        "two phis move one"])
def test_fixed_subring_refuses_shapes_it_cannot_complete(images):
    R = BaseRing(Q, ["x", "z"])
    phis = [Automorphism(R, {g: parse_ring_element(R, img.get(g, g)) for g in R.gens}) for img in images]
    with pytest.raises(UnsupportedFamily):
        fixed_subring_generators(phis)


def test_ring_mismatch():
    R1 = BaseRing(Q, ["t"])
    R2 = BaseRing(Q, ["s"])
    with pytest.raises(RingMismatch):
        R1.gen("t") + R2.gen("s")


def test_identity_automorphism():
    R = BaseRing(Q, ["t"])
    assert identity_automorphism(R).is_identity()
    assert identity_automorphism(R).apply(R.gen("t")) == R.gen("t")


def _cache_family(name):
    QQ = rational_functions("q")
    Z6 = cyclotomic_field(6)
    F5 = prime_field(5)
    return build_family({
        "weyl": FamilySpec("weyl", Q, {"n": 2}),
        "smith": FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}),
        "heisenberg": FamilySpec("heisenberg", Q, {"n": 1}),
        "quantum_smith": FamilySpec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()}),
        "quantum_weyl": FamilySpec("quantum_weyl", QQ, {"q": QQ.generator()}),
    }[name])


@pytest.mark.parametrize("name", ["weyl", "smith", "heisenberg", "quantum_smith", "quantum_weyl"])
def test_cached_apply_matches_fresh_substitution(name):
    pres = _cache_family(name)
    rng = random.Random(zlib.crc32(name.encode()))
    first = [random_ring_element(rng, pres.ring, max_degree=4) for _ in range(8)]
    second = [random_ring_element(rng, pres.ring, max_degree=4) for _ in range(8)]

    def fresh(r, images, k):
        for _ in range(k):
            r = r.substitute(images)
        return r

    # the second round repeats the first round's elements (apply cache hits)
    # and adds new ones built from the same generator powers (power cache hits)
    for elements in (first, first + second):
        for phi in pres.phis:
            inv = phi.inverse()
            for r in elements:
                assert phi.apply(r) == fresh(r, phi.images, 1)
                assert inv.apply(r) == fresh(r, phi.inverse_images, 1)
                for k in (1, 2, 3):
                    assert phi.apply_power(k, r) == fresh(r, phi.images, k)
                    assert phi.apply_power(-k, r) == fresh(r, phi.inverse_images, k)


def test_apply_caches_stay_bounded():
    F = cyclotomic_field(6)
    R = BaseRing(F, ["c", "K"], [False, True])
    q = F.generator()
    phi = Automorphism(R, {"c": R.gen("c"), "K": R.gen("K") * q})
    for e in range(-APPLY_CACHE_SIZE, APPLY_CACHE_SIZE + 1):
        r = R.gen("K", e) + R.gen("c")
        assert phi.apply(r) == R.gen("K", e) * q ** e + R.gen("c")
    assert len(phi._apply_cache) <= APPLY_CACHE_SIZE and len(phi._powers) <= APPLY_CACHE_SIZE
