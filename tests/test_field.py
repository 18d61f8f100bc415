import json
import os
import pickle
import random
import subprocess
import sys
import zlib
from fractions import Fraction
from math import gcd

import pytest

from gwa.errors import DivisionByZero, FieldMismatch, InvalidParameters, NoSuchRoot, ZeroElement
from gwa.field import (
    FieldSpec,
    _format_poly,
    cyclotomic_field,
    cyclotomic_polynomial,
    element_order,
    format_scalar,
    multiplicative_order,
    prime_field,
    rational_functions,
    rationals,
    root_of_unity,
)
from gwa.parser import parse_scalar
from util import sample_pool

Q = rationals()
F5 = prime_field(5)
F7 = prime_field(7)
Z3 = cyclotomic_field(3)
QQ = rational_functions("q")

ALL_SPECS = [Q, F5, Z3, cyclotomic_field(6), QQ]


def test_rational_add():
    assert Q.from_fraction(Fraction(1, 3)) + Q.from_fraction(Fraction(1, 6)) == Q.from_fraction(Fraction(1, 2))


def test_f5_inverse():
    # 2*3 = 6 = 1 mod 5
    assert F5.from_int(2).inv() == F5.from_int(3)


def test_zeta3_relation():
    # Phi_3(x) = x^2 + x + 1, so zeta^2 + zeta = -1
    z = Z3.generator()
    assert z * z + z == Z3.from_int(-1)


def test_cyclotomic_polynomials():
    one = Fraction(1)
    assert cyclotomic_polynomial(1) == (-one, one)
    assert cyclotomic_polynomial(2) == (one, one)
    assert cyclotomic_polynomial(3) == (one, one, one)
    assert cyclotomic_polynomial(6) == (one, -one, one)
    assert cyclotomic_polynomial(12) == (one, Fraction(0), -one, Fraction(0), one)


def test_root_of_unity_cyclotomic():
    z = root_of_unity(Z3, 3)
    assert z ** 3 == Z3.one()
    assert z != Z3.one() and z * z != Z3.one()


def test_root_of_unity_f5():
    # order verified by listing powers: 2 -> 4 -> 3 -> 1
    x = root_of_unity(F5, 4)
    powers = [x, x * x, x * x * x, x ** 4]
    assert powers[-1] == F5.one()
    assert all(p != F5.one() for p in powers[:-1])
    assert x in (F5.from_int(2), F5.from_int(3))


def test_root_of_unity_rationals():
    assert root_of_unity(Q, 2) == Q.from_int(-1)
    with pytest.raises(NoSuchRoot):
        root_of_unity(Q, 3)
    with pytest.raises(NoSuchRoot):
        root_of_unity(F5, 3)


def test_multiplicative_order():
    # powers of 3 mod 7: 3, 2, 6, 4, 5, 1
    assert multiplicative_order(F7.from_int(3), 10) == 6
    assert multiplicative_order(Q.from_int(2), 100) is None
    assert multiplicative_order(Z3.one(), 5) == 1
    with pytest.raises(ZeroElement):
        multiplicative_order(Q.zero(), 5)


def test_element_order_exact():
    assert element_order(F7.from_int(3)) == 6
    assert element_order(Q.from_int(-1)) == 2
    assert element_order(Q.from_int(2)) is None
    assert element_order(Z3.generator()) == 3
    assert element_order(-Z3.generator()) == 6
    assert element_order(QQ.generator()) is None


def test_field_axioms_random():
    rng = random.Random(7)
    for spec in ALL_SPECS:
        pool = sample_pool(spec)
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == spec.zero()
            if not a.is_zero():
                assert a * a.inv() == spec.one()


def test_mismatched_specs_rejected():
    with pytest.raises(FieldMismatch):
        Q.one() + F5.one()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.one() / Q.zero()
    with pytest.raises(DivisionByZero):
        QQ.zero().inv()


def test_rational_function_reduction():
    q = QQ.generator()
    one = QQ.one()
    # (q^2 - 1)/(q - 1) reduces to q + 1
    assert (q * q - one) / (q - one) == q + one
    num, den = ((q * q - one) / (q - one)).payload
    assert den == (Fraction(1),)


def test_rational_function_eval_agreement():
    # equality after arithmetic matches evaluation at rational points off the poles
    rng = random.Random(11)
    q = QQ.generator()
    one = QQ.one()
    x = (q ** 2 + q) / (q - one)
    y = (q ** 3 - q) / ((q - one) ** 2)
    z = x * y / x  # should equal y

    def ev(elt, at):
        num, den = elt.payload
        nv = sum(c * at ** i for i, c in enumerate(num))
        dv = sum(c * at ** i for i, c in enumerate(den))
        return nv / dv

    assert z == y
    pts = 0
    while pts < 5:
        at = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        try:
            lhs, rhs = ev(z, at), ev(y, at)
        except ZeroDivisionError:
            continue
        assert lhs == rhs
        pts += 1


def test_scalar_formatting():
    assert format_scalar(Q.from_fraction(Fraction(3, 7))) == "3/7"
    z = Z3.generator()
    # zeta3^2 + 1 = -zeta3 mod Phi_3: canonical form keeps degree < 2
    assert format_scalar(z * z + Z3.one()) == "-zeta3"
    z5 = cyclotomic_field(5).generator()
    assert format_scalar(z5 * z5 + cyclotomic_field(5).one()) == "zeta5^2+1"
    q = QQ.generator()
    assert format_scalar(q ** 2 / (q - QQ.one())) == "q^2/(q-1)"
    assert format_scalar(F5.from_int(-1)) == "4"


def test_spec_json_round_trip():
    for spec in ALL_SPECS + [rational_functions("t")]:
        assert FieldSpec.from_json(spec.to_json()) == spec


def test_pickle_round_trip():
    for spec in ALL_SPECS:
        x = sample_pool(spec)[-1]
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.spec == spec and (y * y + y).inv() == (x * x + x).inv()


@pytest.mark.parametrize("spec", [Q, F5, cyclotomic_field(6), QQ], ids=repr)
def test_from_int_matches_from_fraction(spec):
    """from_int builds each kind's payload directly; it must agree with the
    Fraction route on every integer of [-2p, 2p] (multiples of p included),
    payload for payload, and give the cached zero and one."""
    p = F5.p
    for k in range(-2 * p, 2 * p + 1):
        x = spec.from_int(k)
        ref = spec.from_fraction(Fraction(k))
        assert x == ref and x.payload == ref.payload and hash(x) == hash(ref), k
        assert x.is_zero() == (k % p == 0 if spec is F5 else k == 0)
    assert spec.from_int(0).payload == spec.zero().payload
    assert spec.from_int(1).payload == spec.one().payload


def test_pow_negative():
    q = QQ.generator()
    assert q ** -2 * q ** 2 == QQ.one()
    assert F5.from_int(2) ** -1 == F5.from_int(3)


def test_spec_hash_is_the_same_in_every_process():
    import gwa

    code = ("from gwa.field import cyclotomic_field, prime_field, rational_functions, rationals\n"
            "specs = [rationals(), prime_field(5), cyclotomic_field(6), rational_functions('q')]\n"
            "print([hash(s) for s in specs], [hash(s.one()) for s in specs])")
    src = os.path.dirname(os.path.dirname(gwa.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    outputs = {subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout
               for _ in range(2)}
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# reference Q(zeta_n): a tuple of phi(n) Fraction coefficients, products
# reduced by polynomial division by Phi_n, inverses by the extended gcd


def _ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _ref_sub(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _ref_trim(x - y for x, y in zip(a, b))


def _ref_pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _ref_trim(out)


def _ref_divmod(a, b):
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        if r[-1] == 0:
            r.pop()
            continue
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        for i, d in enumerate(b):
            r[i + k] -= c * d
        r.pop()
    return _ref_trim(q), _ref_trim(r)


def _ref_pad(a, d):
    return tuple(Fraction(c) for c in a) + (Fraction(0),) * (d - len(a))


class RefCyclotomic:
    def __init__(self, n):
        self.mod = cyclotomic_polynomial(n)
        self.d = len(self.mod) - 1

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return _ref_pad(_ref_divmod(_ref_pmul(_ref_trim(a), _ref_trim(b)), self.mod)[1], self.d)

    def inv(self, a):
        r0, r1 = _ref_trim(a), self.mod
        s0, s1 = (Fraction(1),), ()
        while r1:
            q, r = _ref_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _ref_sub(s0, _ref_pmul(q, s1))
        assert len(r0) == 1
        return _ref_pad([c / r0[0] for c in s0], self.d)

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        out = _ref_pad((1,), self.d)
        for _ in range(k):
            out = self.mul(out, a)
        return out


CYCLOTOMIC_INDICES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15)


def _ref_elements(n, d):
    rng = random.Random(zlib.crc32(f"cyclotomic {n}".encode()))
    out = [_ref_pad((), d), _ref_pad((1,), d), _ref_pad((-1,), d), _ref_pad((Fraction(3, 4),), d)]
    if d > 1:
        out.append(_ref_pad((0, 1), d))
    while len(out) < 11:
        out.append(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6)))
                         if rng.random() < 0.6 else Fraction(0) for _ in range(d)))
    return out


@pytest.mark.parametrize("n", CYCLOTOMIC_INDICES)
def test_cyclotomic_matches_reference(n):
    spec = cyclotomic_field(n)
    ref = RefCyclotomic(n)
    d = ref.d
    z = spec.generator()

    def lib(a):
        out = spec.zero()
        for i, c in enumerate(a):
            out = out + spec.from_fraction(c) * z ** i
        return out

    def as_ref(x):
        nums, den = x.payload
        assert len(nums) == d and den > 0 and gcd(den, *nums) == 1
        return tuple(Fraction(c, den) for c in nums)

    def agree(x, a):
        assert as_ref(x) == a
        y = lib(a)
        assert x == y and hash(x) == hash(y)

    spec2 = FieldSpec.from_json(json.loads(json.dumps(spec.to_json())))
    elements = _ref_elements(n, d)
    for a in elements:
        x = lib(a)
        agree(x, a)
        if not any(a):
            assert x.payload == ((0,) * d, 1) and x == spec.zero() and x.is_zero()
        assert format_scalar(x) == _format_poly(_ref_trim(a), f"zeta{n}")
        assert parse_scalar(spec2, format_scalar(x)) == x
        if any(a[1:]):
            with pytest.raises(InvalidParameters):
                x.as_fraction()
        else:
            assert x.as_fraction() == a[0]
            assert spec.from_fraction(a[0]) == x
        agree(-x, ref.neg(a))
        for k in (0, 1, 2, 3, 5):
            agree(x ** k, ref.pow(a, k))
        if any(a):
            agree(x.inv(), ref.inv(a))
            agree(x ** -2, ref.pow(a, -2))
        for b in elements:
            y = lib(b)
            assert (x == y) == (a == b)
            agree(x + y, ref.add(a, b))
            agree(x - y, ref.add(a, ref.neg(b)))
            agree(x * y, ref.mul(a, b))
            if any(b):
                agree(x / y, ref.mul(a, ref.inv(b)))


# ---------------------------------------------------------------------------
# reference Q: fractions.Fraction


def _ref_rationals():
    rng = random.Random(zlib.crc32(b"rationals"))
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(7), Fraction(-12), Fraction(3, 4),
           Fraction(10 ** 30 + 7, 3), Fraction(-(2 ** 70), 10 ** 25 + 1), Fraction(5, -15)]
    while len(out) < 20:
        den = rng.choice((1, 1, 2, 3, 6, -4, rng.randint(1, 10 ** 9)))
        out.append(Fraction(rng.randint(-10 ** 9, 10 ** 9), den))
    return out


def test_rationals_match_reference():
    spec2 = FieldSpec.from_json(json.loads(json.dumps(Q.to_json())))

    def agree(x, f):
        num, den = x.payload
        assert (num, den) == (f.numerator, f.denominator) and den > 0 and gcd(num, den) == 1
        assert x.as_fraction() == f and format_scalar(x) == str(f)
        y = Q.from_fraction(f)
        assert x == y and hash(x) == hash(y)

    elements = _ref_rationals()
    for f in elements:
        x = Q.from_fraction(f)
        agree(x, f)
        # Fraction moves the sign of a negative denominator to the numerator
        agree(Q.from_fraction(Fraction(-2 * f.numerator, -2 * f.denominator)), f)
        if f.denominator == 1:
            agree(Q.from_int(f.numerator), f)
        assert x.is_zero() == (f == 0) and bool(x) == bool(f)
        assert parse_scalar(spec2, format_scalar(x)) == x
        agree(-x, -f)
        for k in (0, 1, 2, 3, 5):
            agree(x ** k, f ** k)
        if f:
            agree(x.inv(), 1 / f)
            agree(x ** -3, f ** -3)
        else:
            with pytest.raises(DivisionByZero):
                x.inv()
        for g in elements:
            y = Q.from_fraction(g)
            assert (x == y) == (f == g)
            agree(x + y, f + g)
            agree(x - y, f - g)
            agree(x * y, f * g)
            if g:
                agree(x / y, f / g)
    # equal values built by different routes are equal and hash alike
    half = Q.from_fraction(Fraction(2, 4))
    for other in (Q.one() / Q.from_int(2), Q.from_int(3) * Q.from_fraction(Fraction(1, 6)),
                  Q.from_fraction(Fraction(3, 4)) - Q.from_fraction(Fraction(1, 4)),
                  Q.from_int(2).inv(), Q.from_fraction(Fraction(-1, -2))):
        assert other == half and hash(other) == hash(half) and other.payload == (1, 2)
    zero = Q.from_fraction(Fraction(5, 7)) - Q.from_fraction(Fraction(10, 14))
    assert zero.payload == (0, 1) and zero == Q.zero() and hash(zero) == hash(Q.zero())


# ---------------------------------------------------------------------------
# reference Q(q): a pair of Fraction-coefficient polynomials with a monic
# denominator, reduced by the Euclidean gcd over Q after every operation


def _ref_add(a, b):
    return _ref_sub(a, tuple(-c for c in b))


def _ref_reduce(num, den):
    num, den = _ref_trim(num), _ref_trim(den)
    if not num:
        return (), (Fraction(1),)
    g, r = den, num
    while r:
        g, r = r, _ref_divmod(g, r)[1]
    num, den = _ref_divmod(num, g)[0], _ref_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


class RefRational:
    def add(self, a, b):
        return _ref_reduce(_ref_add(_ref_pmul(a[0], b[1]), _ref_pmul(b[0], a[1])), _ref_pmul(a[1], b[1]))

    def neg(self, a):
        return tuple(-c for c in a[0]), a[1]

    def mul(self, a, b):
        return _ref_reduce(_ref_pmul(a[0], b[0]), _ref_pmul(a[1], b[1]))

    def inv(self, a):
        return _ref_reduce(a[1], a[0])

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        out = ((Fraction(1),), (Fraction(1),))
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def format(self, a):
        num, den = a
        num_s = _format_poly(num, "q")
        if den == (1,):
            return num_s
        if len([c for c in num if c]) > 1 or num_s.startswith("-"):
            num_s = f"({num_s})"
        return f"{num_s}/({_format_poly(den, 'q')})"


def _ref_rational_elements():
    rng = random.Random(zlib.crc32(b"rational functions"))
    one = Fraction(1)

    def poly(degree):
        return _ref_trim([Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(degree + 1)])

    out = [((), (one,)), ((one,), (one,)), ((-one,), (one,)), ((Fraction(3, 4),), (one,)),
           ((0, one), (one,)), ((one,), (0, 0, one))]
    # q-power denominators c q^k
    while len(out) < 12:
        num = poly(rng.randint(0, 3))
        if num:
            out.append(_ref_reduce(num, (0,) * rng.randint(0, 3) + (Fraction(rng.randint(1, 5)),)))
    # general denominators: q - 1, q^2 + 1, 2q + 3, (q - 1)^2, q^2 - q
    for den in ((-one, one), (one, 0, one), (3 * one, 2 * one), (one, -2 * one, one), (0, -one, one)):
        for _ in range(2):
            out.append(_ref_reduce(poly(rng.randint(0, 3)) or (one,), den))
    return out


def test_rational_functions_match_reference():
    spec = QQ
    ref = RefRational()
    q = spec.generator()

    def lib_poly(a):
        out = spec.zero()
        for i, c in enumerate(a):
            out = out + spec.from_fraction(c) * q ** i
        return out

    def lib(a):
        return lib_poly(a[0]) / lib_poly(a[1])

    def as_ref(x):
        num, den = x.payload
        assert all(type(c) is int for c in num + den)
        assert den and den[-1] > 0 and num == _ref_trim(num) and gcd(*num, *den) == 1
        return tuple(Fraction(c, den[-1]) for c in num), tuple(Fraction(c, den[-1]) for c in den)

    def agree(x, a):
        assert as_ref(x) == a
        y = lib(a)
        assert x == y and hash(x) == hash(y)

    spec2 = FieldSpec.from_json(json.loads(json.dumps(spec.to_json())))
    elements = _ref_rational_elements()
    for a in elements:
        x = lib(a)
        agree(x, a)
        if not a[0]:
            assert x.payload == ((), (1,)) and x == spec.zero() and x.is_zero()
        assert format_scalar(x) == ref.format(a)
        assert parse_scalar(spec2, format_scalar(x)) == x
        if len(a[0]) > 1 or len(a[1]) > 1:
            with pytest.raises(InvalidParameters):
                x.as_fraction()
        else:
            value = a[0][0] if a[0] else Fraction(0)
            assert x.as_fraction() == value
            assert spec.from_fraction(value) == x
        agree(-x, ref.neg(a))
        for k in (0, 1, 2, 3):
            agree(x ** k, ref.pow(a, k))
        if a[0]:
            agree(x.inv(), ref.inv(a))
            agree(x ** -2, ref.pow(a, -2))
        for b in elements:
            y = lib(b)
            assert (x == y) == (a == b)
            agree(x + y, ref.add(a, b))
            agree(x - y, ref.add(a, ref.neg(b)))
            agree(x * y, ref.mul(a, b))
            if b[0]:
                agree(x / y, ref.mul(a, ref.inv(b)))
