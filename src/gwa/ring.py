"""Commutative base rings: sparse (Laurent) polynomials and their automorphisms.

A BaseRing is F[g_1, ..., g_k] with an invertibility flag per generator;
elements store a map from integer exponent vectors to nonzero field scalars.
Automorphisms are substitution maps given by generator images, with the
inverse substitution solved at construction time and the round trip checked.
"""

from __future__ import annotations

from operator import add

from .errors import (
    InvalidParameters,
    NonCommutingAutomorphisms,
    NonInvertibleMap,
    RingMismatch,
    UnsupportedFamily,
)
from .field import FieldElement, FieldSpec, element_order, scalar_needs_parens, format_scalar


class BaseRing:
    __slots__ = ("field", "gens", "laurent")

    def __init__(self, field: FieldSpec, gens, laurent=None):
        self.field = field
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise InvalidParameters("generator names must be unique")
        self.laurent = tuple(bool(b) for b in (laurent or [False] * len(self.gens)))
        if len(self.laurent) != len(self.gens):
            raise InvalidParameters("need one Laurent flag per generator")

    def __eq__(self, other):
        return self is other or (isinstance(other, BaseRing) and self.field == other.field
                                 and self.gens == other.gens and self.laurent == other.laurent)

    def __hash__(self):
        return hash((self.field, self.gens, self.laurent))

    def __repr__(self):
        names = ", ".join(g + ("^+-1" if l else "") for g, l in zip(self.gens, self.laurent))
        return f"{self.field!r}[{names}]"

    def index(self, name: str) -> int:
        try:
            return self.gens.index(name)
        except ValueError:
            raise InvalidParameters(f"{name!r} is not a generator of {self!r}") from None

    # -- element constructors -----------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.scalar(self.field.one())

    def scalar(self, c: FieldElement) -> "RingElement":
        if c.is_zero():
            return self.zero()
        return RingElement(self, {(0,) * len(self.gens): c})

    def from_int(self, k: int) -> "RingElement":
        return self.scalar(self.field.from_int(k))

    def gen(self, name: str, power: int = 1) -> "RingElement":
        i = self.index(name)
        if power < 0 and not self.laurent[i]:
            raise InvalidParameters(f"{name!r} is not invertible")
        exps = [0] * len(self.gens)
        exps[i] = power
        return self.monomial(tuple(exps), self.field.one())

    def monomial(self, exps, c: FieldElement) -> "RingElement":
        if c.is_zero():
            return self.zero()
        for e, l in zip(exps, self.laurent):
            if e < 0 and not l:
                raise InvalidParameters("negative exponent on a non-Laurent generator")
        return RingElement(self, {tuple(exps): c})

    def to_json(self) -> dict:
        return {"vars": list(self.gens), "laurent": list(self.laurent)}

    @staticmethod
    def from_json(field: FieldSpec, data: dict) -> "BaseRing":
        gens = data["vars"]
        laurent = data.get("laurent", [False] * len(gens))
        return BaseRing(field, gens, laurent)


def _term_sort_key(item):
    exps, _ = item
    return (-sum(abs(e) for e in exps), tuple(-e for e in exps))


class RingElement:
    """Immutable sparse polynomial; terms maps exponent tuples to nonzero scalars."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: BaseRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def _check(self, other):
        if not isinstance(other, RingElement) or not (other.ring is self.ring or other.ring == self.ring):
            raise RingMismatch("operands live in different rings")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.is_zero():
                return self.ring.zero()
            return RingElement(self.ring, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
        return RingElement(self.ring, out)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "RingElement":
        """Multiply by a field scalar."""
        return self * c

    def __pow__(self, k: int):
        if k < 0:
            inv = self.unit_inverse()
            if inv is None:
                raise InvalidParameters("negative power of a non-unit")
            return inv ** (-k)
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            return RingElement(self.ring, {tuple(e * k for e in exps): c ** k})
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        """Total degree, counting Laurent exponents by absolute value; zero has -1."""
        if not self.terms:
            return -1
        return max(sum(abs(e) for e in exps) for exps in self.terms)

    def is_unit_monomial(self) -> bool:
        """One term whose support sits entirely on Laurent generators."""
        if len(self.terms) != 1:
            return False
        exps = next(iter(self.terms))
        return all(e == 0 or l for e, l in zip(exps, self.ring.laurent))

    def unit_inverse(self):
        """Inverse when the element is a unit (scalar times Laurent monomial)."""
        if not self.is_unit_monomial():
            return None
        exps, c = next(iter(self.terms.items()))
        return self.ring.monomial(tuple(-e for e in exps), c.inv())

    def as_scalar(self):
        """The field scalar, when constant; None otherwise."""
        if not self.terms:
            return self.ring.field.zero()
        if len(self.terms) == 1:
            exps, c = next(iter(self.terms.items()))
            if all(e == 0 for e in exps):
                return c
        return None

    def substitute(self, images: dict) -> "RingElement":
        """Replace each generator by its image (a RingElement of a target ring)."""
        return _substitute(self, images, {})

    def coefficient_of(self, name: str, power: int) -> "RingElement":
        """Coefficient of name^power, an element of the same ring without that generator power."""
        i = self.ring.index(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == power:
                reduced = list(exps)
                reduced[i] = 0
                out[tuple(reduced)] = c
        return RingElement(self.ring, out)

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self.terms:
            return -1
        return max(exps[i] for exps in self.terms)

    def involves(self, name: str) -> bool:
        i = self.ring.index(name)
        return any(exps[i] != 0 for exps in self.terms)

    def __repr__(self):
        return format_ring_element(self)


def _substitute(r: RingElement, images: dict, powers: dict) -> RingElement:
    """r with each generator replaced by its image; powers caches images[g] ** e by (g, e)."""
    target = next(iter(images.values())).ring if images else r.ring
    out = target.zero()
    for exps, c in r.terms.items():
        term = None
        for name, e in zip(r.ring.gens, exps):
            if e == 0:
                continue
            power = powers.get((name, e))
            if power is None:
                if len(powers) >= APPLY_CACHE_SIZE:
                    del powers[next(iter(powers))]
                power = powers[name, e] = images[name] ** e
            term = power if term is None else term * power
        out = out + (target.scalar(c) if term is None else term * c)
    return out


def format_ring_element(r: RingElement) -> str:
    if not r.terms:
        return "0"
    parts = []
    for exps, c in sorted(r.terms.items(), key=_term_sort_key):
        mono = "*".join(
            g + (f"^{e}" if e != 1 else "")
            for g, e in zip(r.ring.gens, exps) if e != 0
        )
        cs = format_scalar(c)
        if mono:
            if cs == "1":
                body = mono
            elif cs == "-1":
                body = "-" + mono
            elif scalar_needs_parens(cs):
                body = f"({cs})*{mono}"
            else:
                body = f"{cs}*{mono}"
        else:
            body = cs
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts)


def ring_needs_parens(r: RingElement) -> bool:
    """True when the printed form must be bracketed inside a product.

    A single term only multiplies further factors, so it can be juxtaposed;
    sums must be wrapped."""
    return len(r.terms) > 1


# ---------------------------------------------------------------------------


APPLY_CACHE_SIZE = 256     # images (and image powers) kept per automorphism, oldest evicted first


class Automorphism:
    """Substitution automorphism of a BaseRing with a stored inverse."""

    __slots__ = ("ring", "images", "inverse_images", "_apply_cache", "_powers", "_inverse")

    def __init__(self, ring: BaseRing, images: dict, inverse_images: dict | None = None):
        self.ring = ring
        self.images = {g: images[g] for g in ring.gens}
        for g, l in zip(ring.gens, ring.laurent):
            img = self.images[g]
            if img.ring != ring:
                raise RingMismatch(f"image of {g!r} lies in the wrong ring")
            if l and not img.is_unit_monomial():
                raise NonInvertibleMap(f"Laurent generator {g!r} must map to a unit monomial")
        if inverse_images is None:
            inverse_images = self._solve_inverse()
        self.inverse_images = inverse_images
        self._apply_cache = {}
        self._powers = {}
        self._inverse = None
        self._verify_inverse()

    def _solve_inverse(self) -> dict:
        # Handles the affine and monomial shapes: g -> a*g + b with scalar a != 0
        # and b free of g, or g -> (unit monomial in g alone).
        out = {}
        for g in self.ring.gens:
            img = self.images[g]
            i = self.ring.index(g)
            if img.is_unit_monomial():
                exps, c = next(iter(img.terms.items()))
                if exps[i] in (1, -1) and all(e == 0 for j, e in enumerate(exps) if j != i):
                    # g -> c * g^{e}; inverse: g -> (c^{-1} g)^{e}
                    e = exps[i]
                    inv_exps = [0] * len(self.ring.gens)
                    inv_exps[i] = e
                    out[g] = self.ring.monomial(tuple(inv_exps), c.inv() if e == 1 else c)
                    continue
            lin = img.coefficient_of(g, 1).as_scalar()
            rest = RingElement(self.ring, {e: c for e, c in img.terms.items() if e[i] == 0})
            involves_higher = any(e[i] not in (0, 1) for e in img.terms)
            if lin is None or lin.is_zero() or involves_higher:
                raise NonInvertibleMap(
                    f"cannot invert the image of {g!r}; pass inverse_images explicitly")
            # g -> lin*g + rest  =>  g -> lin^{-1} (g - rest)
            out[g] = (self.ring.gen(g) - rest) * lin.inv()
        return out

    def _verify_inverse(self):
        for g in self.ring.gens:
            x = self.ring.gen(g)
            if self.apply(self.inverse_images[g]) != x:
                raise NonInvertibleMap(f"inverse images do not round-trip {g!r}")
            if self.inverse().apply(self.images[g]) != x:
                raise NonInvertibleMap(f"inverse images do not round-trip {g!r}")

    def apply(self, r: RingElement) -> RingElement:
        cache = self._apply_cache
        hit = cache.get(r)
        if hit is None:
            hit = _substitute(r, self.images, self._powers)
            if len(cache) >= APPLY_CACHE_SIZE:
                # bounded memory that follows the current working set
                del cache[next(iter(cache))]
            cache[r] = hit
        return hit

    def inverse(self) -> "Automorphism":
        """The inverse, built once and linked back, so both keep their caches."""
        inv = self._inverse
        if inv is None:
            inv = Automorphism.__new__(Automorphism)
            inv.ring = self.ring
            inv.images = self.inverse_images
            inv.inverse_images = self.images
            inv._apply_cache = {}
            inv._powers = {}
            inv._inverse = self
            self._inverse = inv
        return inv

    def apply_power(self, k: int, r: RingElement) -> RingElement:
        phi = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            r = phi.apply(r)
        return r

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        images = {g: self.apply(other.images[g]) for g in self.ring.gens}
        inverse = {g: other.inverse().apply(self.inverse_images[g]) for g in self.ring.gens}
        return Automorphism(self.ring, images, inverse)

    def is_identity(self) -> bool:
        return all(self.images[g] == self.ring.gen(g) for g in self.ring.gens)

    def commutes_with(self, other: "Automorphism") -> bool:
        return all(
            self.apply(other.images[g]) == other.apply(self.images[g])
            for g in self.ring.gens
        )

    def moved_generators(self):
        return [g for g in self.ring.gens if self.images[g] != self.ring.gen(g)]

    def __eq__(self, other):
        return (isinstance(other, Automorphism) and self.ring == other.ring
                and self.images == other.images)

    def __hash__(self):
        return hash((self.ring, tuple(self.images[g] for g in self.ring.gens)))

    def __repr__(self):
        body = ", ".join(f"{g} -> {self.images[g]!r}" for g in self.moved_generators())
        return f"Automorphism({body or 'id'})"


def identity_automorphism(ring: BaseRing) -> Automorphism:
    images = {g: ring.gen(g) for g in ring.gens}
    return Automorphism(ring, images, dict(images))


def auto_power(phis, alpha) -> Automorphism:
    """The composite prod_i phi_i^{alpha_i}; the phi_i must commute pairwise."""
    if len(phis) != len(alpha):
        raise InvalidParameters("need one exponent per automorphism")
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            if not phis[i].commutes_with(phis[j]):
                raise NonCommutingAutomorphisms(f"automorphisms {i} and {j} do not commute")
    ring = phis[0].ring if phis else None
    if ring is None:
        raise InvalidParameters("auto_power needs at least one automorphism")
    out = identity_automorphism(ring)
    for phi, k in zip(phis, alpha):
        step = phi if k >= 0 else phi.inverse()
        for _ in range(abs(k)):
            out = step.compose(out)
    return out


def auto_order(phi: Automorphism, bound: int):
    """Least k <= bound with phi^k = id, or None."""
    exact = affine_order(phi)
    if exact == "unknown":
        current = phi
        for k in range(1, bound + 1):
            if current.is_identity():
                return k
            current = phi.compose(current)
        return None
    return exact if exact is not None and exact <= bound else None


# -- shape analysis used for exact order / fixed-ring computations ----------


def affine_shape(phi: Automorphism, g: str):
    """(a, b) when phi(g) = a*g + b with scalar a and b free of g, else None."""
    img = phi.images[g]
    i = phi.ring.index(g)
    if any(e[i] not in (0, 1) for e in img.terms):
        return None
    a = img.coefficient_of(g, 1).as_scalar()
    if a is None or a.is_zero():
        return None
    b = RingElement(phi.ring, {e: c for e, c in img.terms.items() if e[i] == 0})
    if b.involves(g):
        return None
    return a, b


def _per_generator_order(phi: Automorphism, g: str):
    """Exact order of phi restricted to g for affine/monomial shapes; None=infinite."""
    shape = affine_shape(phi, g)
    if shape is None:
        raise UnsupportedFamily(f"image of {g!r} is not affine or unit-monomial")
    a, b = shape
    field = phi.ring.field
    if a.is_one():
        if b.is_zero():
            return 1
        p = field.characteristic()
        return p if p else None
    # phi^k(g) = a^k g + b (a^{k-1} + ... + 1); for a != 1 the sum vanishes iff a^k = 1
    return element_order(a)


def affine_order(phi: Automorphism):
    """Exact order of phi when every image is affine/monomial; 'unknown' otherwise."""
    orders = []
    try:
        for g in phi.moved_generators():
            orders.append(_per_generator_order(phi, g))
    except UnsupportedFamily:
        return "unknown"
    if not orders:
        return 1
    if any(o is None for o in orders):
        return None
    out = 1
    for o in orders:
        out = out * o // __import__("math").gcd(out, o)
    return out


def fixed_subring_generators(phis) -> list:
    """Generators of the subring fixed by every phi_i, for the shapes the
    catalog families use: each phi_i moves at most one generator, no generator
    is moved by two of them, and each moved image is affine, a*g + b with b free
    of every moved generator.  Then R is a polynomial ring over the fixed
    generators in the moved ones, each phi_i acts on its own variable alone,
    and the fixed ring is generated by the fixed generators and one invariant
    per moved variable, so the list is complete.  Raises UnsupportedFamily
    outside that class."""
    if not phis:
        raise UnsupportedFamily("no automorphisms supplied")
    ring = phis[0].ring
    field = ring.field
    p = field.characteristic()
    moved = []
    for phi in phis:
        gs = phi.moved_generators()
        if len(gs) > 1:
            raise UnsupportedFamily(f"one automorphism moves {', '.join(gs)}")
        moved += gs
    out = []
    for g in ring.gens:
        movers = [phi for phi in phis if phi.images[g] != ring.gen(g)]
        if not movers:
            out.append(ring.gen(g))
            continue
        if len(movers) > 1:
            raise UnsupportedFamily(f"{g!r} is moved by several automorphisms")
        phi = movers[0]
        shape = affine_shape(phi, g)
        if shape is None:
            raise UnsupportedFamily(f"image of {g!r} is not affine")
        a, b = shape
        if any(b.involves(m) for m in moved):
            raise UnsupportedFamily(f"image of {g!r} involves a moved generator")
        x = ring.gen(g)
        if a.is_one():
            # shift g -> g + b: the fixed part is F in char 0 and F[g^p - b^{p-1} g]
            # in char p (b itself must be fixed, which the check below enforces)
            if b.is_zero():
                out.append(x)
            elif p:
                out.append(x ** p - x * (b ** (p - 1)))
            continue
        order = element_order(a)
        if order is None:
            continue
        if b.is_zero():
            out.append(x ** order)
            if ring.laurent[ring.index(g)]:
                out.append(x ** (-order))
        else:
            # gt = (a-1)g + b satisfies phi(gt) = a*gt, so gt^order is fixed
            gt = x * (a - field.one()) + b
            out.append(gt ** order)
    # verify every claimed generator really is fixed
    for r in out:
        for phi in phis:
            if phi.apply(r) != r:
                raise UnsupportedFamily("computed invariant is not fixed; unsupported shape")
    return out
