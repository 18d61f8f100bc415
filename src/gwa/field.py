"""Exact coefficient fields: Q, F_p, cyclotomic Q(zeta_n), and rational functions Q(q).

Every element is kept in a canonical form, so equality is structural and
arithmetic is exact.  Each FieldSpec builds its payload arithmetic once, as the
op table `ops` = (add, mul, neg, inv, is_zero); a FieldElement wraps a payload
and calls that table, and the linalg kernels call it on raw payloads.  An
element of Q is a pair (num, den) of ints with gcd 1 and den > 0; Fraction
appears only at the boundaries (from_fraction, as_fraction).  An element of
F_p is an int in [0, p).  Cyclotomic fields are residue rings Q[x]/Phi_n(x) with
Phi_n obtained by repeated exact division of x^n - 1.  An element of Q(zeta_n)
is phi(n) integer numerators over one positive common denominator, with no
common factor.  Products are integer convolutions folded back through a table
of x^k mod Phi_n, whose entries are integers because Phi_n is monic and
integral.  The inverse is the product of the other Galois conjugates
x -> x^u, u a unit mod n, divided by the (rational) norm.  An element of Q(q)
is a pair of dense integer polynomials num/den, coprime in Q[q], with joint
integer content 1 and a positive leading coefficient of den.  When either side
is a monomial c q^k, as in every q-power denominator, reducing a result only
strips a power of q and the content; other pairs take a primitive gcd.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InternalConsistencyError,
    InvalidParameters,
    NoSuchRoot,
    ScalarTooLarge,
    ZeroElement,
)

Q_KIND = "Q"
FP_KIND = "Fp"
CYC_KIND = "cyclotomic"
QQ_KIND = "Q(q)"


# ---------------------------------------------------------------------------
# dense univariate polynomials over Z, as tuples without trailing zeros

def _ptrim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return tuple(out)


def _pdivmod(a, b):
    """Quotient and remainder when every quotient coefficient is an integer: for
    a monic b, a primitive b that divides a (Gauss's lemma), or a pseudo-division."""
    r = list(a)
    nb = len(b) - 1
    q = [0] * max(0, len(r) - nb)
    while len(r) > nb:
        c = r.pop()
        if c:
            k = len(r) - nb
            c //= b[-1]
            q[k] = c
            for i in range(nb):
                r[i + k] -= c * b[i]
    return tuple(q), _ptrim(r)


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(c // g for c in a)


def _pgcd(a, b):
    """The primitive gcd of two nonzero polynomials, by primitive pseudo-remainders."""
    a, b = _primitive(a), _primitive(b)
    while b:
        # lead(b)^(deg a - deg b + 1) * a has an integral quotient by b
        s = b[-1] ** max(0, len(a) - len(b) + 1)
        r = _pdivmod(tuple(c * s for c in a), b)[1]
        a, b = b, (_primitive(r) if r else ())
    return a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Phi_n as integer coefficients, by dividing x^n - 1 by Phi_d for every proper divisor d."""
    if n < 1:
        raise InvalidParameters("cyclotomic index must be positive")
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            q, r = _pdivmod(poly, cyclotomic_polynomial(d))
            if r:
                raise InternalConsistencyError(f"Phi_{d} does not divide x^{n} - 1")
            poly = q
    return poly


@lru_cache(maxsize=None)
def _power_table(n: int):
    """x^k mod Phi_n as integer tuples, for k < max(n, 2 phi(n) - 1).

    That covers the fold of a product's high terms and, since x^n = 1 mod
    Phi_n, the conjugates x^(i u mod n)."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    table = []
    for _ in range(max(n, 2 * d - 1)):
        table.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            # x^d = -(phi_0 + ... + phi_{d-1} x^{d-1}) mod Phi_n
            row = [r - top * c for r, c in zip(row, phi)]
    return tuple(table)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------


class FieldSpec:
    """Identifies one of the supported coefficient fields."""

    __slots__ = ("kind", "p", "n", "gen_name", "_degree", "_xpow", "_units", "ops", "_zero", "_one")

    def __init__(self, kind, p=None, n=None, gen_name=None):
        self.kind = kind
        self.p = p
        self.n = n
        self.gen_name = gen_name
        self._degree = None
        if kind == Q_KIND:
            self.ops = (_q_add, _q_mul, lambda a: (-a[0], a[1]),
                        lambda a: (a[1], a[0]) if a[0] > 0 else (-a[1], -a[0]), lambda a: a[0] == 0)
        elif kind == FP_KIND:
            if not is_prime(p):
                raise InvalidParameters(f"{p} is not prime")
            self.ops = (lambda a, b: (a + b) % p, lambda a, b: a * b % p, lambda a: -a % p,
                        lambda a: pow(a, p - 2, p), lambda a: a == 0)
        elif kind == CYC_KIND:
            self._degree = len(cyclotomic_polynomial(n)) - 1
            self._xpow = _power_table(n)
            # the Galois automorphisms zeta -> zeta^u other than the identity
            self._units = tuple(u for u in range(2, n) if gcd(u, n) == 1)
            self.ops = (_cyc_add, lambda a, b: _cyc_element(_cyc_mulmod(self, a[0], b[0]), a[1] * b[1]),
                        _neg_numerator, lambda a: _cyc_inv(self, *a), lambda a: not any(a[0]))
        elif kind == QQ_KIND:
            if not gen_name:
                raise InvalidParameters("rational-function field needs a generator name")
            self.ops = (_qq_add, lambda a, b: _qq_reduce(_pmul(a[0], b[0]), _pmul(a[1], b[1])), _neg_numerator,
                        lambda a: (_pneg(a[1]), _pneg(a[0])) if a[0][-1] < 0 else (a[1], a[0]),
                        lambda a: not a[0])
        else:
            raise InvalidParameters(f"unknown field kind {kind!r}")
        self._zero, self._one = self.from_int(0), self.from_int(1)

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                and (self.kind, self.p, self.n, self.gen_name)
                == (other.kind, other.p, other.n, other.gen_name))

    def __reduce__(self):
        # pickle by parameters: the op table holds closures
        return FieldSpec, (self.kind, self.p, self.n, self.gen_name)

    def __hash__(self):
        # hash(None) is the object's address before Python 3.12, so absent
        # fields hash as 0 and "" to keep hashes equal across processes
        return hash((self.kind, self.p or 0, self.n or 0, self.gen_name or ""))

    def __repr__(self):
        if self.kind == FP_KIND:
            return f"F{self.p}"
        if self.kind == CYC_KIND:
            return f"Q(zeta{self.n})"
        if self.kind == QQ_KIND:
            return f"Q({self.gen_name})"
        return "Q"

    def characteristic(self) -> int:
        return self.p if self.kind == FP_KIND else 0

    # -- constructors ------------------------------------------------------

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def from_int(self, k: int) -> "FieldElement":
        """The image of the integer k, built as its canonical payload."""
        if self.kind == Q_KIND:
            return FieldElement(self, (k, 1))
        if self.kind == FP_KIND:
            return FieldElement(self, k % self.p)
        if self.kind == CYC_KIND:
            return FieldElement(self, ((k,) + (0,) * (self._degree - 1), 1))
        return FieldElement(self, ((k,) if k else (), (1,)))

    def from_fraction(self, f: Fraction) -> "FieldElement":
        if self.kind == Q_KIND:
            return FieldElement(self, (f.numerator, f.denominator))
        if self.kind == FP_KIND:
            den = f.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator of {f} vanishes mod {self.p}")
            val = f.numerator * pow(den, self.p - 2, self.p) % self.p
            return FieldElement(self, val)
        if self.kind == CYC_KIND:
            return FieldElement(self, ((f.numerator,) + (0,) * (self._degree - 1), f.denominator))
        return FieldElement(self, ((f.numerator,) if f else (), (f.denominator,)))

    def generator(self) -> "FieldElement":
        """zeta_n for cyclotomic fields, q for rational-function fields."""
        if self.kind == CYC_KIND:
            if self._degree == 1:
                # zeta_1 = 1, zeta_2 = -1
                return self.from_int(1 if self.n == 1 else -1)
            return FieldElement(self, ((0, 1) + (0,) * (self._degree - 2), 1))
        if self.kind == QQ_KIND:
            return FieldElement(self, ((0, 1), (1,)))
        raise InvalidParameters(f"{self!r} has no distinguished generator")

    def gen_symbol(self) -> str:
        if self.kind == CYC_KIND:
            return f"zeta{self.n}"
        if self.kind == QQ_KIND:
            return self.gen_name
        return ""

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == FP_KIND:
            return {"field": "Fp", "p": self.p}
        if self.kind == CYC_KIND:
            return {"field": "cyclotomic", "n": self.n}
        if self.kind == QQ_KIND:
            return {"field": "Q(q)", "generator": self.gen_name}
        return {"field": "Q"}

    @staticmethod
    def from_json(data: dict) -> "FieldSpec":
        kind = data.get("field")
        if kind == "Q":
            return rationals()
        if kind == "Fp":
            return prime_field(int(data["p"]))
        if kind == "cyclotomic":
            return cyclotomic_field(int(data["n"]))
        if kind == "Q(q)":
            return rational_functions(data.get("generator", "q"))
        raise InvalidParameters(f"unknown field spec {data!r}")


def rationals() -> FieldSpec:
    return FieldSpec(Q_KIND)


def prime_field(p: int) -> FieldSpec:
    return FieldSpec(FP_KIND, p=p)


def cyclotomic_field(n: int) -> FieldSpec:
    return FieldSpec(CYC_KIND, n=n)


def rational_functions(gen_name: str = "q") -> FieldSpec:
    return FieldSpec(QQ_KIND, gen_name=gen_name)


class FieldElement:
    """An exact scalar; immutable, hashable, equality is structural."""

    __slots__ = ("spec", "payload", "_hash")

    def __init__(self, spec: FieldSpec, payload):
        self.spec = spec
        self.payload = payload
        self._hash = None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.spec.ops[4](self.payload)

    def is_one(self) -> bool:
        return self.payload == self.spec._one.payload

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if isinstance(other, FieldElement) and (other.spec is self.spec or other.spec == self.spec):
            return
        raise FieldMismatch(f"operands live in different fields: {self.spec!r} vs {getattr(other, 'spec', other)!r}")

    def __add__(self, other):
        self._check(other)
        spec = self.spec
        return FieldElement(spec, spec.ops[0](self.payload, other.payload))

    def __neg__(self):
        spec = self.spec
        return FieldElement(spec, spec.ops[2](self.payload))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        return FieldElement(spec, spec.ops[1](self.payload, other.payload))

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        spec = self.spec
        return FieldElement(spec, spec.ops[3](self.payload))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.spec.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.spec == other.spec
                and self.payload == other.payload)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.payload))
        return self._hash

    def __repr__(self):
        return format_scalar(self)

    # -- misc ----------------------------------------------------------------

    def as_fraction(self) -> Fraction:
        """The value as a rational number, when the element is rational."""
        k = self.spec.kind
        if k == Q_KIND:
            return Fraction(*self.payload)
        if k == FP_KIND:
            return Fraction(self.payload)
        if k == CYC_KIND:
            nums, den = self.payload
            if any(nums[1:]):
                raise InvalidParameters(f"{self!r} is not rational")
            return Fraction(nums[0], den)
        n, d = self.payload
        if len(n) > 1 or len(d) > 1:
            raise InvalidParameters(f"{self!r} is not rational")
        return Fraction(n[0] if n else 0, d[0])


def _q_add(a, b):
    (an, ad), (bn, bd) = a, b
    if ad == 1 and bd == 1:
        return (an + bn, 1)
    n, d = (an + bn, ad) if ad == bd else (an * bd + bn * ad, ad * bd)
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def _q_mul(a, b):
    (an, ad), (bn, bd) = a, b
    if ad == 1 and bd == 1:
        return (an * bn, 1)
    # cross-cancel: an/ad and bn/bd are in lowest terms, and zero is 0/1
    g, h = gcd(an, bd), gcd(bn, ad)
    return (an // g) * (bn // h), (ad // h) * (bd // g)


def _neg_numerator(a):
    """neg for Q(zeta_n) and Q(q), whose payloads are (integer tuple, denominator)."""
    return (_pneg(a[0]), a[1])


def _cyc_element(nums, den):
    """The canonical Q(zeta_n) payload nums / den, for den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return (tuple(nums), den)


def _cyc_add(a, b):
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return _cyc_element([x + y for x, y in zip(an, bn)], ad)
    return _cyc_element([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)


def _cyc_mulmod(spec, a, b) -> list:
    """Integer numerators of a * b mod Phi_n."""
    d = spec._degree
    conv = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = conv[:d]
    xpow = spec._xpow
    for k in range(d, 2 * d - 1):
        c = conv[k]
        if c:
            for i, r in enumerate(xpow[k]):
                out[i] += c * r
    return out


def _cyc_inv(spec, nums, den):
    """1/(nums/den) = den * P / N(nums), where P is the product of the
    conjugates of nums other than itself and N = nums * P is its norm."""
    d, n, xpow = spec._degree, spec.n, spec._xpow
    prod = [1] + [0] * (d - 1)
    for u in spec._units:
        conj = [0] * d
        for i, a in enumerate(nums):
            if a:
                for k, r in enumerate(xpow[i * u % n]):
                    conj[k] += a * r
        prod = _cyc_mulmod(spec, prod, conj)
    norm = _cyc_mulmod(spec, nums, prod)
    if any(norm[1:]):
        raise InternalConsistencyError("the norm of a cyclotomic element is rational")
    if norm[0] < 0:
        return _cyc_element([-den * c for c in prod], -norm[0])
    return _cyc_element([den * c for c in prod], norm[0])


def _qq_add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return _qq_reduce(_padd(n1, n2), d1)
    return _qq_reduce(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))


def _qq_reduce(num, den):
    """The canonical Q(q) payload num / den, for integer polynomials num, den."""
    if not num:
        return ((), (1,))
    if not any(num[:-1]) or not any(den[:-1]):
        # a monomial c q^k on either side: the gcd is a power of q
        v = min(next(i for i, c in enumerate(p) if c) for p in (num, den))
        num, den = num[v:], den[v:]
    else:
        g = _pgcd(num, den)
        if len(g) > 1:
            num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    g = gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num, den = tuple(c // g for c in num), tuple(c // g for c in den)
    return (num, den)


# ---------------------------------------------------------------------------
# orders and roots of unity


def multiplicative_order(x: FieldElement, bound: int):
    """Least k <= bound with x^k = 1, or None if no such k exists below the bound."""
    if x.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    one = x.spec.one()
    acc = x
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = acc * x
    return None


def element_order(x: FieldElement):
    """Exact multiplicative order, or None when infinite."""
    if x.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    spec = x.spec
    one = spec.one()
    if x == one:
        return 1
    kind = spec.kind
    if kind == FP_KIND:
        m = spec.p - 1
    elif kind == CYC_KIND:
        m = spec.n if spec.n % 2 == 0 else 2 * spec.n
    else:
        # Q and Q(q): the only roots of unity are +-1
        return 2 if x == -one else None
    if x ** m != one:
        return None
    order = m
    for p in _prime_factors(m):
        while order % p == 0 and x ** (order // p) == one:
            order //= p
    return order


def root_of_unity(spec: FieldSpec, ell: int) -> FieldElement:
    """An element of multiplicative order exactly ell, when the field has one."""
    if ell < 1:
        raise InvalidParameters("order must be positive")
    if ell == 1:
        return spec.one()
    if ell == 2:
        return -spec.one()
    kind = spec.kind
    if kind == FP_KIND:
        p = spec.p
        if (p - 1) % ell != 0:
            raise NoSuchRoot(f"F_{p} has no element of order {ell}")
        for g in range(2, p):
            x = spec.from_int(pow(g, (p - 1) // ell, p))
            if element_order(x) == ell:
                return x
        raise NoSuchRoot(f"F_{p} has no element of order {ell}")  # unreachable
    if kind == CYC_KIND:
        n = spec.n
        if n % ell == 0:
            return spec.generator() ** (n // ell)
        if n % 2 == 1 and ell % 2 == 0 and (ell // 2) % 2 == 1 and n % (ell // 2) == 0:
            return -(spec.generator() ** (n // (ell // 2)))
        raise NoSuchRoot(f"Q(zeta{n}) has no element of order {ell}")
    raise NoSuchRoot(f"{spec!r} has only the roots of unity +-1")


# ---------------------------------------------------------------------------
# printing and parsing of scalars


def _format_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _format_poly(coeffs, sym: str) -> str:
    """Dense Q[sym] polynomial as compact text, descending powers."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if i == 0:
            body = _format_fraction(mag)
        else:
            head = "" if mag == 1 else _format_fraction(mag) + "*"
            body = f"{head}{sym}" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts) if parts else "0"


def format_scalar(x: FieldElement) -> str:
    """Canonical text form: "3/7", "zeta3^2+1", "q^2/(q-1)"."""
    try:
        kind = x.spec.kind
        if kind == Q_KIND:
            num, den = x.payload
            return str(num) if den == 1 else f"{num}/{den}"
        if kind == FP_KIND:
            return str(x.payload)
        if kind == CYC_KIND:
            nums, den = x.payload
            return _format_poly(_ptrim([Fraction(c, den) for c in nums]), x.spec.gen_symbol())
        num, den = x.payload
        num = [Fraction(c, den[-1]) for c in num]
        num_s = _format_poly(num, x.spec.gen_name)
        if len(den) == 1:
            return num_s
        den = [Fraction(c, den[-1]) for c in den]
        den_s = _format_poly(den, x.spec.gen_name)
        if len([c for c in num if c]) > 1 or num_s.startswith("-"):
            num_s = f"({num_s})"
        return f"{num_s}/({den_s})"
    except ValueError as exc:    # str(int) refuses more than sys.get_int_max_str_digits() digits
        raise ScalarTooLarge(f"a {x.spec!r} scalar has too many digits to print") from exc


def scalar_needs_parens(s: str) -> bool:
    """True when a scalar printed as s by format_scalar must be parenthesized inside a product."""
    return any(ch in s[1:] for ch in "+-") or "/" in s or s.startswith("-")
