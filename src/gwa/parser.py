"""Recursive-descent parser for algebra expressions.

Grammar (whitespace insignificant):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' '-'? integer)?
    atom   := integer | ident | '(' expr ')'

Identifiers are the X/Y generators of the presentation, the base-ring
generators, and the field's distinguished symbol (q or zeta_n).  Division is
only defined by elements that reduce to a nonzero scalar; negative exponents
are allowed on scalars and on Laurent ring generators exclusively.
"""

from __future__ import annotations

from .core import GwaElement, GwaPresentation, gwa_mul
from .errors import ExprSyntaxError, UnknownSymbol
from .field import FieldElement, FieldSpec
from .ring import BaseRing, RingElement

MAX_EXPONENT = 10_000   # a larger exponent, such as a typo t^99999999, is a parse error
MAX_DIGITS = 4_300      # a longer integer literal is a parse error (int()'s default limit)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j - i > MAX_DIGITS:
                raise ExprSyntaxError(f"integer literal longer than {MAX_DIGITS} digits", i)
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    """Parses onto an arbitrary value algebra supplied by hooks."""

    def __init__(self, tokens, hooks):
        self.tokens = tokens
        self.k = 0
        self.hooks = hooks

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self):
        tok = self.peek()
        if tok.kind == "end":
            raise ExprSyntaxError("empty expression", tok.pos)
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def expr(self):
        negate = False
        if self.peek().kind in ("+", "-"):
            negate = self.advance().kind == "-"
        value = self.term()
        if negate:
            value = self.hooks["neg"](value)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = self.hooks["sub"](value, rhs) if op == "-" else self.hooks["add"](value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            if op.kind == "*":
                value = self.hooks["mul"](value, rhs)
            else:
                value = self.hooks["div"](value, rhs, op.pos)
        return value

    def factor(self):
        value = self.atom()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("int")
            if int(tok.text) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent exceeds the limit {MAX_EXPONENT}", tok.pos)
            value = self.hooks["pow"](value, sign * int(tok.text), tok.pos)
        return value

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return self.hooks["int"](int(tok.text))
        if tok.kind == "ident":
            self.advance()
            return self.hooks["ident"](tok.text, tok.pos)
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)


_NEGATIVE_EXPONENT = "negative exponents need a Laurent generator or scalar"


def _ring_hooks(ring: BaseRing) -> dict:
    """Parser hooks whose values are elements of the base ring."""
    symbols = {g: ring.gen(g) for g in ring.gens}
    sym = ring.field.gen_symbol()
    if sym and sym not in symbols:
        symbols[sym] = ring.scalar(ring.field.generator())

    def ident(name, pos):
        value = symbols.get(name)
        if value is None:
            raise UnknownSymbol(f"unknown symbol {name!r}", pos)
        return value

    def div(a, b, pos):
        return a * _inverse_scalar(b, pos)

    def power(a, k, pos):
        if k < 0:
            if a.is_zero():
                raise ExprSyntaxError("negative power of zero", pos)
            a, k = a.unit_inverse(), -k
            if a is None:
                raise ExprSyntaxError(_NEGATIVE_EXPONENT, pos)
        return a ** k

    return {
        "int": ring.from_int,
        "ident": ident,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "neg": lambda a: -a,
        "div": div,
        "pow": power,
    }


def _inverse_scalar(b, pos) -> FieldElement:
    """1/b for a divisor b that is a nonzero scalar (ring or algebra element, or None)."""
    c = b.as_scalar() if b is not None else None
    if c is None:
        raise ExprSyntaxError("division is only defined by scalars", pos)
    if c.is_zero():
        raise ExprSyntaxError("division by zero", pos)
    return c.inv()


def parse_scalar(spec: FieldSpec, text: str) -> FieldElement:
    """Parse field-element text such as "3/7", "zeta3^2+1" or "q^2/(q-1)"."""
    return _Parser(_tokenize(text), _ring_hooks(BaseRing(spec, ()))).parse().as_scalar()


def parse_ring_element(ring: BaseRing, text: str) -> RingElement:
    """Parse text over the base ring only (no X/Y generators)."""
    return _Parser(_tokenize(text), _ring_hooks(ring)).parse()


def parse_element(pres: GwaPresentation, text: str) -> GwaElement:
    """Parse and normalize an expression in the generalized Weyl algebra.

    Values stay in the base ring R until an X or Y enters: R-by-R operations
    are ring operations, r * a scales the left coefficients of a, and only
    a * r and a * b run the normal-form product."""
    hooks = _ring_hooks(pres.ring)
    ring_ident, ring_power = hooks["ident"], hooks["pow"]
    x_index = {name: i for i, name in enumerate(pres.x_names)}
    y_index = {name: i for i, name in enumerate(pres.y_names)}

    def lift(a):
        return pres.embed_ring(a) if isinstance(a, RingElement) else a

    def ident(name, pos):
        if name in x_index:
            return pres.X(x_index[name])
        if name in y_index:
            return pres.Y(y_index[name])
        return ring_ident(name, pos)

    def mul(a, b):
        if isinstance(a, RingElement):
            if isinstance(b, RingElement):
                return a * b
            if a.is_zero():
                return pres.zero()
            # R is a domain, so no coefficient vanishes
            return GwaElement(pres, {alpha: a * r for alpha, r in b.terms.items()})
        return gwa_mul(a, lift(b))

    def div(a, b, pos):
        c = _inverse_scalar(b.as_ring_element() if isinstance(b, GwaElement) else b, pos)
        return a * c if isinstance(a, RingElement) else a.scale(c)

    def power(a, k, pos):
        if k < 0 and isinstance(a, GwaElement):
            a = a.as_ring_element()
        if k < 0 and (a is None or a.is_zero()):
            raise ExprSyntaxError(_NEGATIVE_EXPONENT, pos)
        return ring_power(a, k, pos)

    hooks.update({
        "ident": ident,
        "add": lambda a, b: a + b if type(a) is type(b) else lift(a) + lift(b),
        "sub": lambda a, b: a - b if type(a) is type(b) else lift(a) - lift(b),
        "mul": mul,
        "div": div,
        "pow": power,
    })
    return lift(_Parser(_tokenize(text), hooks).parse())
