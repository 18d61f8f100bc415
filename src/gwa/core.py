"""The generalized Weyl algebra A = R(phi, t) in normal form.

Elements are stored as finite sums  sum_alpha  c_alpha Z^alpha  with left
coefficients c_alpha in R, where Z_i^k packs X_i^k for k >= 0 and Y_i^{-k}
for k < 0; this is the free left R-basis of the algebra.  Products are
normalized with the defining relations

    Y_i X_i = t_i,   X_i Y_i = phi_i(t_i),   X_i r = phi_i(r) X_i,
    Y_i r = phi_i^{-1}(r) Y_i,   and generators of distinct indices commute.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    GwaError,
    InternalConsistencyError,
    InvalidParameters,
    NonCommutingAutomorphisms,
    PresentationMismatch,
    UnsupportedFamily,
)
from .ring import (
    BaseRing,
    RingElement,
    affine_order,
    fixed_subring_generators,
    format_ring_element,
    ring_needs_parens,
)


class GwaPresentation:
    """Validated data (R, phi, t) defining a generalized Weyl algebra."""

    __slots__ = ("ring", "phis", "ts", "x_names", "y_names", "_fixed_subring", "meta")

    def __init__(self, ring: BaseRing, phis, ts, x_names=None, y_names=None):
        self.ring = ring
        self.phis = list(phis)
        self.ts = list(ts)
        n = len(self.phis)
        if len(self.ts) != n or n == 0:
            raise InvalidParameters("need matching nonempty lists of automorphisms and t's")
        for phi in self.phis:
            if phi.ring != ring:
                raise InvalidParameters("automorphism acts on the wrong ring")
        for t in self.ts:
            if t.ring != ring:
                raise InvalidParameters("t lives in the wrong ring")
            if t.is_zero():
                raise InvalidParameters("the elements t_i must be nonzero")
        for i in range(n):
            for j in range(i + 1, n):
                if not self.phis[i].commutes_with(self.phis[j]):
                    raise NonCommutingAutomorphisms(f"phi_{i} and phi_{j} do not commute")
        for i in range(n):
            for j in range(n):
                if i != j and self.phis[i].apply(self.ts[j]) != self.ts[j]:
                    raise InvalidParameters(f"phi_{i}(t_{j}) != t_{j}: incompatible presentation")
        if x_names is None:
            x_names = ["X"] if n == 1 else [f"X{i+1}" for i in range(n)]
            y_names = ["Y"] if n == 1 else [f"Y{i+1}" for i in range(n)]
        self.x_names = list(x_names)
        self.y_names = list(y_names)
        self._fixed_subring = "unset"
        self.meta = {}

    @property
    def n(self) -> int:
        return len(self.phis)

    def __eq__(self, other):
        return self is other or (isinstance(other, GwaPresentation) and self.ring == other.ring
                                 and self.phis == other.phis and self.ts == other.ts)

    def __hash__(self):
        return hash((self.ring, tuple(self.phis), tuple(self.ts)))

    def __repr__(self):
        return f"GWA over {self.ring!r} with {self.n} index(es)"

    # -- elements -----------------------------------------------------------

    def zero(self) -> "GwaElement":
        return GwaElement(self, {})

    def one(self) -> "GwaElement":
        return self.embed_ring(self.ring.one())

    def embed_ring(self, r: RingElement) -> "GwaElement":
        if r.is_zero():
            return self.zero()
        return GwaElement(self, {(0,) * self.n: r})

    def scalar(self, c) -> "GwaElement":
        return self.embed_ring(self.ring.scalar(c))

    def monomial(self, alpha, r: RingElement) -> "GwaElement":
        if r.is_zero():
            return self.zero()
        return GwaElement(self, {tuple(alpha): r})

    def X(self, i: int = 0, power: int = 1) -> "GwaElement":
        if power < 0:
            raise InvalidParameters("X powers must be nonnegative")
        alpha = [0] * self.n
        alpha[i] = power
        return self.monomial(alpha, self.ring.one())

    def Y(self, i: int = 0, power: int = 1) -> "GwaElement":
        if power < 0:
            raise InvalidParameters("Y powers must be nonnegative")
        alpha = [0] * self.n
        alpha[i] = -power
        return self.monomial(alpha, self.ring.one())

    def fixed_subring(self):
        """Generators of R^phi, or None when the shape analysis does not apply."""
        if self._fixed_subring == "unset":
            try:
                self._fixed_subring = fixed_subring_generators(self.phis)
            except UnsupportedFamily:
                self._fixed_subring = None
        return self._fixed_subring

    def phi_alpha(self, alpha, r: RingElement) -> RingElement:
        """Apply prod_i phi_i^{alpha_i} to a ring element."""
        for i, k in enumerate(alpha):
            if k:
                r = self.phis[i].apply_power(k, r)
        return r


class GwaElement:
    """Normal-form element: a map from exponent vectors to nonzero R-coefficients."""

    __slots__ = ("pres", "terms", "_hash")

    def __init__(self, pres: GwaPresentation, terms: dict):
        self.pres = pres
        self.terms = terms
        self._hash = None

    def _check(self, other):
        if not isinstance(other, GwaElement) or not (other.pres is self.pres or other.pres == self.pres):
            raise PresentationMismatch("operands belong to different presentations")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for a, r in other.terms.items():
            s = out.get(a)
            if s is None:
                out[a] = r
            else:
                s = s + r
                if s.is_zero():
                    del out[a]
                else:
                    out[a] = s
        return GwaElement(self.pres, out)

    def __neg__(self):
        return GwaElement(self.pres, {a: -r for a, r in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RingElement) or not isinstance(other, GwaElement):
            raise PresentationMismatch("multiply GwaElements; embed ring elements first")
        return gwa_mul(self, other)

    def __pow__(self, k: int):
        if k < 0:
            raise InvalidParameters("GWA elements have no negative powers")
        out = self.pres.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, GwaElement) and self.pres == other.pres
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.pres, frozenset(self.terms.items())))
        return self._hash

    def scale(self, c) -> "GwaElement":
        """Left-multiply by a field scalar."""
        if c.is_zero():
            return self.pres.zero()
        return GwaElement(self.pres, {a: r * c for a, r in self.terms.items()})

    def degree(self) -> int:
        """Normal-form degree max(|alpha| + deg c_alpha); zero has -1."""
        if not self.terms:
            return -1
        return max(sum(abs(e) for e in a) + r.degree() for a, r in self.terms.items())

    def as_ring_element(self):
        """The coefficient of Z^0 when no other term is present, else None."""
        if not self.terms:
            return self.pres.ring.zero()
        if len(self.terms) == 1:
            a, r = next(iter(self.terms.items()))
            if all(e == 0 for e in a):
                return r
        return None

    def __repr__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# multiplication


def ykxl_collapse(pres: GwaPresentation, i: int, k: int, ell: int) -> GwaElement:
    """Normal form of Y_i^k X_i^ell via the closed form of the defining relations."""
    if k < 0 or ell < 0:
        raise InvalidParameters("exponents must be nonnegative")
    coeff = _collapse_coeff_yx(pres, i, k, ell)
    alpha = [0] * pres.n
    alpha[i] = ell - k
    return pres.monomial(alpha, coeff)


def _collapse_coeff_yx(pres, i, k, ell) -> RingElement:
    # Y^k X^ell = phi^{-(k-1)}(t) phi^{-(k-2)}(t) ... phi^{-(k-m)}(t) Z^{ell-k},  m = min(k, ell)
    m = min(k, ell)
    out = pres.ring.one()
    t = pres.ts[i]
    inv = pres.phis[i].inverse()
    cur = t
    powers = {0: t}
    for s in range(1, k):
        cur = inv.apply(cur)
        powers[s] = cur
    for j in range(1, m + 1):
        out = out * powers[k - j]
    return out


def _collapse_coeff_xy(pres, i, a, b) -> RingElement:
    # X^a Y^b = phi^{a}(t) phi^{a-1}(t) ... phi^{a-m+1}(t) Z^{a-b},  m = min(a, b)
    m = min(a, b)
    out = pres.ring.one()
    t = pres.ts[i]
    phi = pres.phis[i]
    cur = t
    powers = {0: t}
    for s in range(1, a + 1):
        cur = phi.apply(cur)
        powers[s] = cur
    for j in range(m):
        out = out * powers[a - j]
    return out


def gwa_mul(a: GwaElement, b: GwaElement) -> GwaElement:
    a._check(b)
    pres = a.pres
    out = {}
    for alpha, r in a.terms.items():
        for beta, s in b.terms.items():
            coeff = r * pres.phi_alpha(alpha, s)
            gamma = []
            for i in range(pres.n):
                ai, bi = alpha[i], beta[i]
                gamma.append(ai + bi)
                if ai < 0 < bi:
                    coeff = coeff * _collapse_coeff_yx(pres, i, -ai, bi)
                elif ai > 0 > bi:
                    coeff = coeff * _collapse_coeff_xy(pres, i, ai, -bi)
                # the collapse coefficients are built from phi_i-powers of t_i,
                # which every other phi_j fixes, so no further commuting is needed
            if coeff.is_zero():
                continue
            key = tuple(gamma)
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = acc + coeff
                if acc.is_zero():
                    del out[key]
                else:
                    out[key] = acc
    return GwaElement(pres, out)


# ---------------------------------------------------------------------------
# the center


@dataclass
class CenterReport:
    generators: list
    complete: bool
    notes: list = dc_field(default_factory=list)


def center_generators(pres: GwaPresentation, exponent_bound: int) -> CenterReport:
    """Generators of the center within the exponent bound.

    Combines the fixed-subring generators of R with the monomials Z^alpha for
    alpha in the kernel of alpha -> phi^alpha.  Exact per-index orders are used
    when every automorphism has the affine/scaling shape and moves its own set
    of generators; otherwise a bounded exhaustive search is reported as partial.
    """
    notes = []
    complete = True
    gens = []

    fixed = pres.fixed_subring()
    if fixed is None:
        complete = False
        notes.append("fixed subring of R not determined for this automorphism shape")
        fixed = []
    for r in fixed:
        for phi in pres.phis:
            if phi.apply(r) != r:
                raise InternalConsistencyError(f"{r!r} is not fixed by every automorphism")
        gens.append(pres.embed_ring(r))

    moved = [set(phi.moved_generators()) for phi in pres.phis]
    disjoint = all(not (moved[i] & moved[j]) for i in range(pres.n) for j in range(i + 1, pres.n))
    orders = [affine_order(phi) for phi in pres.phis]
    if disjoint and "unknown" not in orders:
        for i, d in enumerate(orders):
            if d is None:
                continue  # only alpha_i = 0 contributes for this index
            if d <= exponent_bound:
                gens.append(pres.X(i, d))
                gens.append(pres.Y(i, d))
            else:
                complete = False
                notes.append(f"order of phi_{i} is {d}, beyond the exponent bound")
    else:
        complete = False
        notes.append("Delta solved by bounded search only")
        for alpha in _exponent_box(pres.n, exponent_bound):
            if any(alpha) and _phi_alpha_is_identity(pres, alpha):
                gens.append(pres.monomial(alpha, pres.ring.one()))

    for g in gens:
        if not is_central(pres, g):
            raise GwaError(f"internal error: claimed central element {g!r} is not central")
    return CenterReport(gens, complete, notes)


def _exponent_box(n, bound):
    if n == 0:
        yield ()
        return
    for rest in _exponent_box(n - 1, bound):
        for k in range(-bound, bound + 1):
            yield rest + (k,)


def _phi_alpha_is_identity(pres, alpha) -> bool:
    for g in pres.ring.gens:
        img = pres.phi_alpha(alpha, pres.ring.gen(g))
        if img != pres.ring.gen(g):
            return False
    return True


def is_central(pres: GwaPresentation, a: GwaElement) -> bool:
    """Exact commutation with every X_i, Y_i, and ring generator."""
    for i in range(pres.n):
        x = pres.X(i)
        if gwa_mul(a, x) != gwa_mul(x, a):
            return False
        y = pres.Y(i)
        if gwa_mul(a, y) != gwa_mul(y, a):
            return False
    for g in pres.ring.gens:
        r = pres.embed_ring(pres.ring.gen(g))
        if gwa_mul(a, r) != gwa_mul(r, a):
            return False
    return True


# ---------------------------------------------------------------------------
# printing


def format_element(a: GwaElement) -> str:
    if not a.terms:
        return "0"
    pres = a.pres
    parts = []
    for alpha in sorted(a.terms, key=lambda t: (sum(abs(e) for e in t), t)):
        r = a.terms[alpha]
        mono = "*".join(
            (pres.x_names[i] if e > 0 else pres.y_names[i])
            + (f"^{abs(e)}" if abs(e) != 1 else "")
            for i, e in enumerate(alpha) if e != 0
        )
        rs = format_ring_element(r)
        if mono:
            if rs == "1":
                body = mono
            elif rs == "-1":
                body = "-" + mono
            elif ring_needs_parens(r):
                body = f"({rs})*{mono}"
            else:
                body = f"{rs}*{mono}"
        else:
            body = rs
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts)
