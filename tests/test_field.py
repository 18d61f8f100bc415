import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gwa.errors import DivisionByZero, FieldMismatch, NoSuchRoot, ZeroElement
from gwa.field import (
    FieldSpec,
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
        pool = spec.sample_pool()
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
