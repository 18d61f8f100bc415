import random
import zlib

import pytest

from gwa.catalog import FamilySpec, build_family
from gwa.core import (
    GwaElement,
    center_generators,
    format_element,
    gwa_mul,
    is_central,
    ykxl_collapse,
)
from gwa.errors import ExprSyntaxError, InvalidParameters, UnknownSymbol
from gwa.field import cyclotomic_field, prime_field, rational_functions, rationals
from gwa.parser import _Parser, _tokenize, parse_element
from gwa.ring import Automorphism, BaseRing

from oracle import oracle_mul
from util import random_gwa_element, univariate_affine, weyl1

Q = rationals()


def quantum_weyl_generic():
    F = rational_functions("q")
    q = F.generator()
    R = BaseRing(F, ["t"])
    phi = Automorphism(R, {"t": (R.gen("t") - R.one()) * q.inv()})
    from gwa.core import GwaPresentation

    return GwaPresentation(R, [phi], [R.gen("t")]), q


def test_ykxl_base_cases():
    pres = weyl1()
    t = pres.ring.gen("t")
    # Y X = t
    assert ykxl_collapse(pres, 0, 1, 1) == pres.embed_ring(t)
    # Y^2 X = phi^{-1}(t) Y = (t+1) Y
    expected = pres.monomial([-1], t + pres.ring.one())
    assert ykxl_collapse(pres, 0, 2, 1) == expected
    # Y X^2 = t X
    assert ykxl_collapse(pres, 0, 1, 2) == pres.monomial([1], t)


def test_ykxl_matches_iterated_products():
    for pres in (weyl1(), univariate_affine(Q, Q.from_int(2), Q.from_int(1))):
        X, Y = pres.X(), pres.Y()
        for k in range(6):
            for ell in range(6):
                prod = pres.one()
                for _ in range(k):
                    prod = gwa_mul(prod, Y)
                for _ in range(ell):
                    prod = gwa_mul(prod, X)
                assert ykxl_collapse(pres, 0, k, ell) == prod, (k, ell)


def test_weyl_commutator():
    pres = weyl1()
    X, Y = pres.X(), pres.Y()
    assert gwa_mul(Y, X) - gwa_mul(X, Y) == pres.one()


def test_weyl_relation_xr():
    pres = weyl1()
    t = pres.embed_ring(pres.ring.gen("t"))
    X = pres.X()
    lhs = gwa_mul(X, t)
    rhs = gwa_mul(pres.embed_ring(pres.ring.gen("t") - pres.ring.one()), X)
    assert lhs == rhs


def test_quantum_weyl_relation():
    pres, q = quantum_weyl_generic()
    X, Y = pres.X(), pres.Y()
    assert gwa_mul(Y, X) - gwa_mul(X, Y).scale(q) == pres.one()


def test_mul_matches_oracle_random():
    rng = random.Random(13)
    pres = weyl1()
    for _ in range(25):
        a = random_gwa_element(rng, pres)
        b = random_gwa_element(rng, pres)
        assert gwa_mul(a, b).terms == oracle_mul(a, b)


def test_mul_matches_oracle_quantum():
    rng = random.Random(17)
    pres, _ = quantum_weyl_generic()
    for _ in range(10):
        a = random_gwa_element(rng, pres, max_degree=2, n_terms=2)
        b = random_gwa_element(rng, pres, max_degree=2, n_terms=2)
        assert gwa_mul(a, b).terms == oracle_mul(a, b)


def test_associativity_random():
    rng = random.Random(19)
    pres = weyl1()
    for _ in range(15):
        a = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        b = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        c = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        assert gwa_mul(gwa_mul(a, b), c) == gwa_mul(a, gwa_mul(b, c))


def test_free_basis_subtraction():
    rng = random.Random(23)
    pres = weyl1()
    a = random_gwa_element(rng, pres)
    assert (a - a).terms == {}
    b = a + pres.one()
    assert (b - a) == pres.one()


def test_hash_agrees_with_equality():
    # two separately built presentations of the same algebra
    X, X2 = weyl1().X(0), weyl1().X(0)
    assert X == X2
    assert hash(X) == hash(X2)
    assert len({X, X2}) == 1


def test_weyl_center_trivial():
    pres = weyl1()
    report = center_generators(pres, 6)
    assert report.complete
    assert report.generators == []


def test_shift_center_char_p():
    F5 = prime_field(5)
    pres = univariate_affine(F5, F5.one(), F5.one())  # phi(t) = t + 1
    report = center_generators(pres, 6)
    assert report.complete
    t = pres.ring.gen("t")
    assert pres.embed_ring(t ** 5 - t) in report.generators
    assert pres.X(0, 5) in report.generators
    assert pres.Y(0, 5) in report.generators
    for g in report.generators:
        assert is_central(pres, g)


def test_center_root_of_unity_scaling():
    F5 = prime_field(5)
    pres = univariate_affine(F5, F5.from_int(2), F5.zero())  # phi(t) = 2t, order 4
    report = center_generators(pres, 4)
    assert report.complete
    assert pres.X(0, 4) in report.generators
    t = pres.ring.gen("t")
    assert pres.embed_ring(t ** 4) in report.generators


def test_parse_collapses_to_normal_form():
    pres = weyl1()
    t = pres.ring.gen("t")
    elt = parse_element(pres, "Y^2*X + 3*t")
    assert elt.terms == {(-1,): t + pres.ring.one(), (0,): t * Q.from_int(3)}


def test_parse_commutator_constant():
    pres = weyl1()
    assert parse_element(pres, "X*Y - Y*X") == pres.scalar(Q.from_int(-1))


def test_parse_errors():
    pres = weyl1()
    with pytest.raises(ExprSyntaxError):
        parse_element(pres, "")
    with pytest.raises(ExprSyntaxError):
        parse_element(pres, "X^-1")
    with pytest.raises(ExprSyntaxError):
        parse_element(pres, "X*")
    err = None
    try:
        parse_element(pres, "X + W")
    except ExprSyntaxError as e:
        err = e
    assert err is not None and err.position == 4


def test_format_parse_round_trip():
    rng = random.Random(29)
    for pres in (weyl1(), univariate_affine(Q, Q.from_int(2), Q.from_int(1))):
        for _ in range(25):
            a = random_gwa_element(rng, pres)
            assert parse_element(pres, format_element(a)) == a


def test_format_zero_and_one():
    pres = weyl1()
    assert format_element(pres.zero()) == "0"
    assert format_element(pres.one()) == "1"
    assert parse_element(pres, "0") == pres.zero()


# ---------------------------------------------------------------------------
# reference parser: every value is a normal-form algebra element, and every
# '*' runs gwa_mul


def reference_parse_element(pres, text):
    ring = pres.ring
    sym = ring.field.gen_symbol()
    symbols = {sym: ring.field.generator()} if sym else {}
    x_index = {name: i for i, name in enumerate(pres.x_names)}
    y_index = {name: i for i, name in enumerate(pres.y_names)}

    def ident(name, pos):
        if name in x_index:
            return pres.X(x_index[name])
        if name in y_index:
            return pres.Y(y_index[name])
        if name in ring.gens:
            return pres.embed_ring(ring.gen(name))
        if name in symbols:
            return pres.scalar(symbols[name])
        raise UnknownSymbol(f"unknown symbol {name!r}", pos)

    def div(a, b, pos):
        r = b.as_ring_element()
        c = r.as_scalar() if r is not None else None
        if c is None:
            raise ExprSyntaxError("division is only defined by scalars", pos)
        if c.is_zero():
            raise ExprSyntaxError("division by zero", pos)
        return a.scale(c.inv())

    def power(a, k, pos):
        if k >= 0:
            return a ** k
        r = a.as_ring_element()
        if r is None:
            raise ExprSyntaxError("negative exponents need a Laurent generator or scalar", pos)
        inv = r.unit_inverse()
        if inv is None:
            raise ExprSyntaxError("negative exponents need a Laurent generator or scalar", pos)
        return pres.embed_ring(inv ** (-k))

    hooks = {
        "int": lambda v: pres.scalar(ring.field.from_int(v)),
        "ident": ident,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": gwa_mul,
        "neg": lambda a: -a,
        "div": div,
        "pow": power,
    }
    return _Parser(_tokenize(text), hooks).parse()


def _parity_family(name):
    QQ = rational_functions("q")
    F5 = prime_field(5)
    Z6 = cyclotomic_field(6)
    q_scalars = ["1", "2", "3", "1/2", "2/3"]
    spec, scalars = {
        "weyl_A1": (FamilySpec("weyl", Q, {"n": 1}), q_scalars),
        "weyl_A2": (FamilySpec("weyl", Q, {"n": 2}), q_scalars),
        "quantum_weyl": (FamilySpec("quantum_weyl", QQ, {"q": QQ.generator()}),
                         ["1", "2", "3", "q", "(q+1)", "(q^2-q)", "q^-1"]),
        "smith": (FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}), ["1", "2", "3", "4"]),
        "quantum_smith": (FamilySpec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()}),
                          ["1", "2", "3", "zeta6", "(zeta6+1)", "(zeta6^2-1)"]),
    }[name]
    return build_family(spec), scalars


def _ring_text(rng, ring, scalars, max_degree=3):
    out = ""
    for _ in range(rng.randint(1, 2)):
        left = max_degree
        factors = [rng.choice(scalars)]
        for g, laurent in zip(ring.gens, ring.laurent):
            e = rng.randint(-left, left) if laurent else rng.randint(0, left)
            left -= abs(e)
            if e:
                factors.append(g if e == 1 else f"{g}^{e}")
        rng.shuffle(factors)
        out += ("-" if rng.random() < 0.5 else "+") + "*".join(factors)
    return out[1:] if out[0] == "+" else out


def _element_text(rng, pres, scalars):
    """Random text mixing ring factors and X/Y letters in any order."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [f"({_ring_text(rng, pres.ring, scalars)})"]
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(pres.n)
            letter = rng.choice((pres.x_names[i], pres.y_names[i]))
            e = rng.randint(1, 2)
            factors.append(letter if e == 1 else f"{letter}^{e}")
        rng.shuffle(factors)
        text = "*".join(factors)
        if rng.random() < 0.2:
            text += "/" + rng.choice(("2", "3", "(1+1)"))
        if rng.random() < 0.2:
            text = f"({text})^{rng.randint(0, 2)}"
        terms.append(text)
    return rng.choice(("", "-")) + " + ".join(terms)


@pytest.mark.parametrize("family", ["weyl_A1", "weyl_A2", "quantum_weyl", "smith", "quantum_smith"])
def test_parse_matches_reference_parser(family):
    pres, scalars = _parity_family(family)
    rng = random.Random(zlib.crc32(family.encode()))
    for _ in range(40):
        text = _element_text(rng, pres, scalars)
        got = parse_element(pres, text)
        assert got == reference_parse_element(pres, text), text
        assert isinstance(got, GwaElement) and got.pres is pres


PARSE_ERROR_CASES = {
    "weyl_A1": ["X/t", "t/(t+1)", "1/X", "X/0", "t/(t-t)", "1/(X*Y-Y*X+1)", "X^-1", "Y^-2",
                "(X*t)^-1", "t^-1", "(t+1)^-2", "0^-1", "(t-t)^-1", "(X-X)^-1", "(X*Y-Y*X+1)^-1",
                "X + W", "zeta3", "q", "2*", ")"],
    "quantum_smith": ["K/c", "c/0", "X/K", "(K-K)^-3", "0^-2", "c^-1", "X^-1", "(c*K)^-1",
                      "(X*K)^-1", "u + K"],
    "quantum_weyl": ["t/q/(q-q)", "(q-q)^-1", "t^-1", "Y^-1", "p"],
}


@pytest.mark.parametrize("family", sorted(PARSE_ERROR_CASES))
def test_parse_errors_match_reference_parser(family):
    pres, _ = _parity_family(family)
    for text in PARSE_ERROR_CASES[family]:
        with pytest.raises(ExprSyntaxError) as want:
            reference_parse_element(pres, text)
        with pytest.raises(ExprSyntaxError) as got:
            parse_element(pres, text)
        assert (type(got.value), str(got.value), got.value.position) == \
            (type(want.value), str(want.value), want.value.position), text


def test_parse_values_match_reference_parser():
    pres, _ = _parity_family("quantum_smith")
    for text in ("K^-2*X", "X*K^-2", "(K*X)^0", "2^-1*X", "(-K)^-1*Y", "zeta6^-1", "-X + 3",
                 "X*Y - Y*X", "K^-1*K", "(c - c)*X", "X*(c - c)", "X/2*K", "(2*K)^-2", "(K^-1)^-2"):
        assert parse_element(pres, text) == reference_parse_element(pres, text), text
