"""phi-stable ideal machinery over the supported commutative rings.

Polynomial rings of any number of variables are handled by a small Buchberger
implementation (degrevlex, with cofactor tracking so every membership answer
carries a certificate).  It skips S-pairs by Buchberger's product and chain
criteria.  A `PhiStableIdeal` stores its reduced basis, and membership
reduces against that basis directly, so a query runs no Groebner computation.
There is one elimination ring, `_EliminationRing`: a kept and an eliminated
block of variables in a block order.  Laurent rings are treated through their
polynomial part: exponents are shifted to be nonnegative, and an ideal is
stored as the reduced basis of its saturation by the Laurent generators,
computed exactly in that ring by the Rabinowitsch trick (each K^-1 becomes an
eliminated u_K).  So membership is exact there too, and equal ideals have
equal bases.  `PhiStableIdeal.reduce` gives the canonical residue of an
element modulo the ideal, negative exponents included, from the same
extension.  `is_centrally_generated` computes J cap R^phi exactly in the same
ring, with tags for the invariants kept and everything else eliminated.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dc_field
from operator import add, le, sub

from .errors import ClosureBudgetExceeded, InternalConsistencyError, NotPhiStable, UnsupportedRing
from .field import element_order
from .ring import Automorphism, BaseRing, RingElement, affine_shape, fixed_subring_generators


# ---------------------------------------------------------------------------
# monomial order and division


def _degrevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _heap_key(exps):
    # the elementwise negation of _degrevlex_key: heapq pops the largest monomial first
    return (-sum(exps), exps[::-1])


class _EliminationRing(BaseRing):
    """The one block-elimination ring: a kept block of variables, then an
    eliminated block, ordered by total degree in the eliminated block, then
    degrevlex.  The elements of a reduced basis free of the eliminated block
    generate its ideal's intersection with the kept variables' ring (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, 3.1).

    The variables are a tag y_k per element f_k of `tagged`, the generators of
    the base ring, then a u_K per Laurent generator K; `lift` writes each K^-a
    of a base element as u_K^a, `lower` maps u_K back to K^-1 in an element
    free of the tags, and `image` maps y_k to f_k in one of the tags alone.
    The kept block is the tags, followed by the base generators when
    `keep_base`; the rest is eliminated.  Laurent saturation keeps the base
    generators and eliminates the u_K (the Rabinowitsch ring); the central
    part J cap R^phi keeps only the tags."""

    __slots__ = ("keys", "base", "slots", "tagged", "split")

    def __init__(self, base: BaseRing, tagged=(), keep_base=True):
        self.base = base
        self.tagged = tuple(tagged)
        self.slots = tuple(i for i, l in enumerate(base.laurent) if l)
        # longer than every generator name, so no u_K or y_k clashes with one
        pad = "_" * max(map(len, base.gens))
        tags = tuple(f"y{pad}{k}" for k in range(len(self.tagged)))
        inverses = tuple("1/" + pad + base.gens[i] for i in self.slots)
        super().__init__(base.field, tags + base.gens + inverses)
        self.split = n = len(tags) + (len(base.gens) if keep_base else 0)
        self.keys = (lambda e: (sum(e[n:]),) + _degrevlex_key(e),
                     lambda e: (-sum(e[n:]),) + _heap_key(e))

    def lift(self, r: RingElement) -> RingElement:
        pad = (0,) * len(self.tagged)
        return RingElement(self, {pad + tuple(max(x, 0) for x in e) + tuple(max(-e[i], 0) for i in self.slots): c
                                  for e, c in r.terms.items()})

    def lower(self, r: RingElement) -> RingElement:
        m = len(self.tagged)
        n = m + len(self.base.gens)
        out = {}
        for e, c in r.terms.items():
            low = list(e[m:n])
            for i, a in zip(self.slots, e[n:]):
                low[i] -= a
            low = tuple(low)
            out[low] = out[low] + c if low in out else c
        return RingElement(self.base, {e: c for e, c in out.items() if not c.is_zero()})

    def image(self, r: RingElement) -> RingElement:
        """r(f_1, ..., f_m) for r in the tags alone."""
        out = self.base.zero()
        for e, c in r.terms.items():
            term = self.base.scalar(c)
            for f, a in zip(self.tagged, e):
                if a:
                    term = term * f ** a
            out = out + term
        return out

    def basis(self, polys, track: bool):
        """Reduced basis of the lifted polys, K*u_K - 1 per Laurent generator K
        and f_k - y_k per tag, with transforms as in `groebner_basis` (the
        polys first)."""
        m = len(self.tagged)
        relations = [self.gen(self.gens[m + i]) * self.gen(u) - self.one()
                     for i, u in zip(self.slots, self.gens[m + len(self.base.gens):])]
        relations += [self.lift(f) - self.gen(y) for f, y in zip(self.tagged, self.gens)]
        return groebner_basis([self.lift(g) for g in polys] + relations, track)

    def kept(self, basis) -> list:
        """The indices of the basis elements free of the eliminated block."""
        n = self.split
        return [i for i, b in enumerate(basis) if not any(any(e[n:]) for e in b.terms)]


def _keys(ring):
    """(sort key, heap key) of the ring's monomial order."""
    return (_degrevlex_key, _heap_key) if type(ring) is BaseRing else ring.keys


def _leading(r: RingElement):
    exps = max(r.terms, key=_keys(r.ring)[0])
    return exps, r.terms[exps]


def _mono_div(a, b):
    return tuple(map(sub, a, b))


def _mono_lcm(a, b):
    return tuple(map(max, a, b))


class _Divisors(list):
    """Divisors prepared once for repeated division: each entry is
    (leading monomial, inverse of the leading coefficient, terms)."""


def _prepared(g: RingElement):
    exps, c = _leading(g)
    return exps, (c if c.is_one() else c.inv()), g.terms


def _divisors(basis) -> _Divisors:
    return basis if isinstance(basis, _Divisors) else _Divisors(map(_prepared, basis))


def reduce_with_certificate(r: RingElement, basis):
    """Divide r by the basis: returns (normal_form, cofactors) with
    r = sum_j cofactors[j]*basis[j] + normal_form.

    `basis` is a list of ring elements or a `_Divisors`.  Each step divides the
    leading term of what is left by the first basis element whose leading
    monomial divides it, subtracting in place on a term dict."""
    divisors = _divisors(basis)
    ring = r.ring
    heap_key = _keys(ring)[1]
    f = dict(r.terms)
    heap = [(heap_key(e), e) for e in f]
    heapq.heapify(heap)
    cof = [{} for _ in divisors]
    rem = {}
    while heap:
        exps = heapq.heappop(heap)[1]
        c = f.pop(exps, None)
        if c is None:               # cancelled after it was queued
            continue
        for j, (ge, ginv, gterms) in enumerate(divisors):
            if all(map(le, ge, exps)):
                break
        else:
            rem[exps] = c
            continue
        q = c * ginv
        shift = _mono_div(exps, ge)
        cof[j][shift] = q           # quotient monomials of one divisor never repeat
        nq = -q
        for e, gc in gterms.items():
            if e == ge:
                continue
            m = tuple(map(add, shift, e))
            old = f.get(m)
            if old is None:
                f[m] = nq * gc
                heapq.heappush(heap, (heap_key(m), m))
            else:
                s = old + nq * gc
                if s.is_zero():
                    del f[m]
                else:
                    f[m] = s
    return RingElement(ring, rem), [RingElement(ring, q) for q in cof]


def normal_form(r: RingElement, basis) -> RingElement:
    return reduce_with_certificate(r, basis)[0]


def _spoly(f, g):
    ring = f.ring
    fe, fc = _leading(f)
    ge, gc = _leading(g)
    l = _mono_lcm(fe, ge)
    mf = ring.monomial(_mono_div(l, fe), fc.inv())
    mg = ring.monomial(_mono_div(l, ge), gc.inv())
    return mf * f - mg * g, mf, mg


def _chain_criterion(i, j, lcm, divisors, pending) -> bool:
    """Some k has LM_k | lcm(LM_i, LM_j) and neither (i, k) nor (j, k) pending."""
    for k, (lk, _, _) in enumerate(divisors):
        if (k != i and k != j and all(map(le, lk, lcm))
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending):
            return True
    return False


def _combine(track, cof, tracks, indices):
    """track - sum_k cof[k] * tracks[indices[k]] over the nonzero cofactors."""
    for q, k in zip(cof, indices):
        if not q.is_zero():
            track = [a - q * b for a, b in zip(track, tracks[k])]
    return track


def groebner_basis(gens, track: bool = True):
    """Reduced Groebner basis of the input polynomials, monic and sorted by
    leading monomial, in degrevlex (an `_EliminationRing` brings its own order).

    Returns (basis, transforms): basis[i] = sum_j transforms[i][j]*gens[j] over
    the nonzero gens.  transforms is None when track is false.  Pairs pop LIFO;
    Buchberger's product and chain criteria skip pairs whose S-polynomial
    provably reduces to zero (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, 2.10)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return [], ([] if track else None)
    ring = gens[0].ring
    basis = list(gens)
    divisors = _divisors(basis)
    tracks = None
    if track:
        zero, one = ring.zero(), ring.one()
        tracks = [[one if k == j else zero for k in range(len(gens))] for j in range(len(gens))]

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    pending = set(pairs)
    while pairs:
        pair = pairs.pop()
        pending.discard(pair)
        i, j = pair
        li, lj = divisors[i][0], divisors[j][0]
        if not any(a and b for a, b in zip(li, lj)):      # product criterion
            continue
        if _chain_criterion(i, j, _mono_lcm(li, lj), divisors, pending):
            continue
        s, mf, mg = _spoly(basis[i], basis[j])
        rem, cof = reduce_with_certificate(s, divisors)
        if rem.is_zero():
            continue
        if track:
            new = [mf * a - mg * b for a, b in zip(tracks[i], tracks[j])]
            tracks.append(_combine(new, cof, tracks, range(len(cof))))
        n = len(basis)
        new_pairs = [(k, n) for k in range(n)]
        pairs.extend(new_pairs)
        pending.update(new_pairs)
        basis.append(rem)
        divisors.append(_prepared(rem))

    # minimal basis: drop every element whose leading monomial another one's
    # divides (of equal leading monomials the first stays), then reduce tails
    leads = [d[0] for d in divisors]
    keep = [i for i, li in enumerate(leads)
            if not any(k != i and all(map(le, lk, li)) and (k < i or lk != li)
                       for k, lk in enumerate(leads))]
    for i in keep:
        others = [k for k in keep if k != i]
        rem, cof = reduce_with_certificate(basis[i], _Divisors(divisors[k] for k in others))
        if rem != basis[i]:
            if track:
                tracks[i] = _combine(tracks[i], cof, tracks, others)
            basis[i] = rem
            divisors[i] = divisors[i][:2] + (rem.terms,)

    key = _keys(ring)[0]
    order = sorted(keep, key=lambda k: key(leads[k]))
    out_basis = [basis[k] * divisors[k][1] for k in order]
    out_tracks = [[t * divisors[k][1] for t in tracks[k]] for k in order] if track else None
    return out_basis, out_tracks


# ---------------------------------------------------------------------------
# Laurent handling


def _clear_laurent(r: RingElement):
    """Shift exponents to be nonnegative: returns (r * u, u) for the Laurent
    monomial u of least degree that does it."""
    ring = r.ring
    shift = tuple(max(0, -min((exps[i] for exps in r.terms), default=0)) if l else 0
                  for i, l in enumerate(ring.laurent))
    unit = ring.monomial(shift, ring.field.one())
    return (r * unit if any(shift) else r), unit


def _saturated_basis(gens, track: bool):
    """Reduced basis of J : K^inf, for J the ideal of the exponent-shifted
    nonzero gens and K the Laurent generators, with transforms over the shifted
    gens as in `groebner_basis`.  It generates the same Laurent ideal as gens.

    Rabinowitsch trick (Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, 3.1 and 4.4): adjoin u_K and K*u_K - 1 per K, keep the u-free
    part of the reduced basis in an order eliminating the u_K, and map the
    transforms back by u_K -> K^-1, which kills each K*u_K - 1."""
    cleared = [_clear_laurent(g)[0] for g in gens if not g.is_zero()]
    ring = cleared[0].ring if cleared else None
    if ring is None or not any(ring.laurent):
        return groebner_basis(cleared, track)
    ext = _EliminationRing(ring)
    basis, transforms = ext.basis(cleared, track)
    keep = ext.kept(basis)
    out = [ext.lower(basis[i]) for i in keep]
    if not track:
        return out, None
    return out, [[ext.lower(t) for t in transforms[i][:len(cleared)]] for i in keep]


# ---------------------------------------------------------------------------


@dataclass
class MembershipResult:
    member: bool
    certificate: list | None      # pairs (cofactor, generator) with r = sum c*g
    normal_form_witness: RingElement | None

    def __bool__(self):
        return self.member


class PhiStableIdeal:
    """A left ideal of the (commutative) base ring, closed under every phi_i.

    `generators` is the reduced Groebner basis of the polynomial part (for
    Laurent rings: of the saturation of the exponent-shifted generators),
    monic and unique to the ideal.  Membership reduces against it directly,
    with no further Groebner computation; `reduce` gives canonical residues.
    The stability certificate maps (i, j) to the membership expression of
    phi_i(g_j)."""

    def __init__(self, ring: BaseRing, phis, generators, stability_certificate=None):
        self.ring = ring
        self.phis = list(phis)
        self.generators = list(generators)
        self.stability_certificate = stability_certificate or {}
        self._divisors = _divisors(self.generators)
        self._extension = None      # (ring[u_K], prepared basis), built by the first `reduce` that needs it

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({gens})"

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return any(g.as_scalar() is not None and not g.as_scalar().is_zero()
                   for g in self.generators)

    def reduce(self, r: RingElement) -> RingElement:
        """The canonical representative of r + Q, linear in r and zero exactly on Q.

        Each K^-a of r is written u_K^a, reduced against the basis of
        (generators, K*u_K - 1) and read back by u_K -> K^-1; no standard
        monomial is divisible by K*u_K, so residues stay distinct.  A term free
        of the u_K is divisible only by the u-free part of that basis, the generators."""
        if r.ring != self.ring:
            raise UnsupportedRing("element and ideal live in different rings")
        if all(x >= 0 for e in r.terms for x in e):
            return normal_form(r, self._divisors)
        if self._extension is None:
            ext = _EliminationRing(self.ring)
            self._extension = ext, _divisors(ext.basis(self.generators, track=False)[0])
        ext, divisors = self._extension
        return ext.lower(normal_form(ext.lift(r), divisors))

    def __eq__(self, other):
        if not isinstance(other, PhiStableIdeal) or other.ring != self.ring:
            return NotImplemented
        return self.generators == other.generators

    # equality compares the unique reduced bases, but the ideal carries its
    # mutable certificate and automorphism list, so it is left unhashable
    __hash__ = None


def _membership(r: RingElement, ring: BaseRing, gens, basis, transforms) -> MembershipResult:
    """Membership of r in the ideal generated by the nonzero `gens`, given the
    saturated basis of their exponent-shifted forms (a list or a `_Divisors`).

    transforms[i][j] is the coefficient of the shifted gens[j] in basis[i];
    None means gens is the reduced basis itself."""
    if r.is_zero():
        return MembershipResult(True, [], None)
    if not gens:
        return MembershipResult(False, None, r)
    target, shift_unit = _clear_laurent(r)
    rem, cof = reduce_with_certificate(target, basis)
    if not rem.is_zero():
        return MembershipResult(False, None, rem)
    return MembershipResult(True, _certificate(r, ring, gens, cof, transforms, shift_unit), None)


def _certificate(r, ring, gens, cof, transforms, unit):
    """Express r over the original (unshifted) gens from the cofactors of
    unit * r over the basis, and check that the expression re-expands."""
    unshift = unit.unit_inverse()
    one = ring.one()
    cert = []
    for j, g in enumerate(gens):
        if transforms is None:
            total = cof[j]
        else:
            total = ring.zero()
            for q, row in zip(cof, transforms):
                if not q.is_zero():
                    total = total + q * row[j]
        if not total.is_zero():
            g_unit = unshift * _clear_laurent(g)[1]
            cert.append((total if g_unit == one else total * g_unit, g))
    check = ring.zero()
    for c, g in cert:
        check = check + c * g
    if check != r:
        raise InternalConsistencyError("membership certificate failed to re-expand")
    return cert


def ideal_membership_gens(r: RingElement, ring: BaseRing, gens) -> MembershipResult:
    """Membership of r in the ideal generated by gens, with certificate."""
    gens = [g for g in gens if not g.is_zero()]
    if r.is_zero():
        return MembershipResult(True, [], None)
    return _membership(r, ring, gens, *_saturated_basis(gens, track=True))


def membership(r: RingElement, J: PhiStableIdeal) -> MembershipResult:
    if r.ring != J.ring:
        raise UnsupportedRing("element and ideal live in different rings")
    return _membership(r, J.ring, J.generators, J._divisors, None)


def ideal_equal_gens(ring, gens_a, gens_b) -> bool:
    return _saturated_basis(gens_a, track=False)[0] == _saturated_basis(gens_b, track=False)[0]


def is_phi_stable(phis, generators) -> bool:
    """phi_i(g) in (generators) for every generator and every i."""
    divisors = _divisors(_saturated_basis(generators, track=False)[0])
    return all(normal_form(_clear_laurent(phi.apply(g))[0], divisors).is_zero()
               for phi in phis for g in generators)


def phi_stable_ideal(ring: BaseRing, phis, generators) -> PhiStableIdeal:
    """Construct the ideal and certify stability (raises NotPhiStable)."""
    return _certified(ring, phis, _saturated_basis(generators, track=False)[0])


def _certified(ring: BaseRing, phis, basis) -> PhiStableIdeal:
    """The ideal with this reduced (saturated) basis, once its stability is certified."""
    J = PhiStableIdeal(ring, phis, basis)
    cert = J.stability_certificate
    for i, phi in enumerate(phis):
        for j, g in enumerate(basis):
            res = _membership(phi.apply(g), ring, basis, J._divisors, None)
            if not res.member:
                raise NotPhiStable(f"phi_{i}({g!r}) escapes the ideal: {res.normal_form_witness!r}")
            cert[(i, j)] = res.certificate
            # Lemma: stability forces equality, witnessed on the inverse side too
            res_inv = _membership(phi.inverse().apply(g), ring, basis, J._divisors, None)
            if not res_inv.member:
                raise NotPhiStable(f"phi_{i}^-1({g!r}) escapes the ideal")
            cert[(i, -j - 1)] = res_inv.certificate
    return J


# rounds of phi_stable_closure; an ascending chain of ideals stabilizes (Noetherianity)
CLOSURE_ROUNDS = 64


def phi_stable_closure(generators, phis) -> PhiStableIdeal:
    """Smallest phi-stable ideal containing the generators."""
    if not generators:
        return PhiStableIdeal(phis[0].ring, phis, [])
    ring = generators[0].ring
    current = _saturated_basis(generators, track=False)[0]
    for _ in range(CLOSURE_ROUNDS):
        extended = list(current)
        for phi in phis:
            extended.extend(phi.apply(g) for g in current)
            extended.extend(phi.inverse().apply(g) for g in current)
        new_basis = _saturated_basis(extended, track=False)[0]
        if new_basis == current:
            return _certified(ring, phis, new_basis)
        current = new_basis
    raise ClosureBudgetExceeded("closure did not stabilize; this contradicts Noetherianity")


# ---------------------------------------------------------------------------
# univariate classification


@dataclass
class ClassificationReport:
    regime: str                   # powers | root_of_unity | all_ideals | only_trivial | centrally_generated
    tilde_t: RingElement | None
    ell: int | None
    monic_generators: list | None      # generators of the nonzero proper stable ideals within the bound
    maximal_proper: list | None
    maximal_caveat: str | None = None
    notes: list = dc_field(default_factory=list)


def _univariate_gen(ring: BaseRing) -> str:
    polys = [g for g, l in zip(ring.gens, ring.laurent) if not l]
    if len(ring.gens) != 1 or len(polys) != 1:
        raise UnsupportedRing("classification needs a univariate polynomial ring")
    return polys[0]


def _all_monic(ring: BaseRing, name: str, degree: int):
    """All monic univariate polynomials of exactly this degree (finite fields)."""
    field = ring.field
    p = field.characteristic()
    if not p:
        raise UnsupportedRing("enumeration needs a finite field")
    t = ring.gen(name)
    polys = [t ** degree]
    for d in range(degree):
        polys = [
            f + (t ** d) * field.from_int(c)
            for f in polys
            for c in range(p)
        ]
    return polys


def classify_univariate(phi: Automorphism, degree_bound: int) -> ClassificationReport:
    """Describe all phi-stable ideals of F[t] for phi(t) = alpha t + beta."""
    ring = phi.ring
    name = _univariate_gen(ring)
    shape = affine_shape(phi, name)
    if shape is None:
        raise UnsupportedRing("automorphism is not affine on the generator")
    alpha, beta_elt = shape
    beta = beta_elt.as_scalar()
    field = ring.field
    t = ring.gen(name)
    p = field.characteristic()

    if alpha.is_one():
        if beta.is_zero():
            gens = None
            if p:
                gens = [f for d in range(1, degree_bound + 1) for f in _all_monic(ring, name, d)]
            return ClassificationReport(
                "all_ideals", None, None, gens, None,
                notes=["phi = id: every ideal is stable"])
        if not p:
            return ClassificationReport(
                "only_trivial", None, None, [], [],
                notes=["shift in characteristic 0: only (0) and (1) are stable"])
        z = t ** p - t * (beta ** (p - 1))
        gens = None
        if p:
            gens = []
            for dz in range(1, degree_bound // p + 1):
                for f in _all_monic(ring, name, dz):
                    gens.append(f.substitute({name: z}))
        return ClassificationReport(
            "centrally_generated", z, p, gens, None,
            notes=["stable ideals are generated by monic polynomials in t^p - beta^(p-1) t"])

    tilde = t * (alpha - field.one()) + ring.scalar(beta)
    ell = element_order(alpha)
    if ell is None:
        gens = [tilde ** n for n in range(1, degree_bound + 1)]
        return ClassificationReport("powers", tilde, None, gens, [tilde])

    # alpha is a primitive ell-th root of unity: f = tilde^a * g(tilde^ell),
    # g monic with nonzero constant term
    gens = None
    maximal = None
    caveat = None
    if p:
        gens = []
        seen = set()
        for a in range(0, degree_bound + 1):
            power = tilde ** a
            if a and _freeze(power) not in seen:
                seen.add(_freeze(power))
                gens.append(power)
            max_dz = (degree_bound - a) // ell
            for dz in range(1, max_dz + 1):
                for g in _all_monic(ring, name, dz):
                    const = g.coefficient_of(name, 0).as_scalar()
                    if const is None or const.is_zero():
                        continue
                    f = power * g.substitute({name: tilde ** ell})
                    key = _freeze(f)
                    if key not in seen:
                        seen.add(key)
                        gens.append(f)
        maximal = [f for f in gens if _is_maximal_stable(ring, f, gens)]
        caveat = None
    else:
        maximal = [tilde]
        caveat = ("over an algebraically closed field the other maximal stable ideals "
                  "are (tilde^ell - xi) for nonzero xi")
    return ClassificationReport("root_of_unity", tilde, ell, gens, maximal, caveat)


def _freeze(r: RingElement):
    return frozenset(r.terms.items())


def _is_maximal_stable(ring, f, all_gens) -> bool:
    """No stable monic proper divisor strictly above (f) in the explicit list."""
    for g in all_gens:
        if g == f:
            continue
        if 0 < g.degree() < f.degree():
            if normal_form(f, [g]).is_zero():
                return False
    return True


# ---------------------------------------------------------------------------
# centrally generated ideals


def is_centrally_generated(J: PhiStableIdeal):
    """Whether J = R*(J cap R^phi), with the generators of J cap R^phi found.

    The invariants f_k come from `fixed_subring_generators` (UnsupportedFamily
    outside its shapes).  In the elimination ring with a tag y_k per f_k kept
    and the rest eliminated, the tag-only part of the reduced basis of J, the
    K*u_K - 1 and the f_k - y_k generates the preimage of J in F[y] (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, 3.1 and 7.4), and
    y_k -> f_k maps it onto generators of J cap R^phi."""
    ring = J.ring
    ext = _EliminationRing(ring, fixed_subring_generators(J.phis), keep_base=False)
    basis = ext.basis(J.generators, track=False)[0]
    central = [c for c in (ext.image(basis[i]) for i in ext.kept(basis)) if not c.is_zero()]
    return ideal_equal_gens(ring, central, J.generators), central


# ---------------------------------------------------------------------------
# univariate squarefree parts


def _derivative(ring, name, f):
    i = ring.index(name)
    terms = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * ring.field.from_int(e[i]) for e, c in f.terms.items()}
    return RingElement(ring, {e: c for e, c in terms.items() if not c.is_zero()})


def _squarefree(ring, name, f):
    """The monic product of the distinct irreducible factors of the univariate
    f.  f / gcd(f, f') keeps those of multiplicity prime to the characteristic
    p; the others divide gcd(f, f'), and f' = 0 makes f a p-th power."""
    df = _derivative(ring, name, f)
    if df.is_zero():
        if f.degree() <= 0:
            return ring.one()
        # f is a polynomial in t^p; over F_p its p-th root has the same coefficients
        i, p = ring.index(name), ring.field.characteristic()
        if any(exps[i] % p for exps in f.terms):
            raise InternalConsistencyError("a polynomial with zero derivative is one in t^p")
        return _squarefree(ring, name, RingElement(ring, {exps[:i] + (exps[i] // p,) + exps[i + 1:]: c
                                                          for exps, c in f.terms.items()}))
    g = _poly_gcd(ring, f, df)
    u = reduce_with_certificate(f, [g])[1][0]
    if g.degree() > 0 and ring.field.characteristic():
        r = _squarefree(ring, name, g)
        u = reduce_with_certificate(u * r, [_poly_gcd(ring, u, r)])[1][0]
    return u * _leading(u)[1].inv()


def _poly_gcd(ring, a, b):
    while not b.is_zero():
        a, b = b, reduce_with_certificate(a, [b])[0]
    return a if a.is_zero() else a * _leading(a)[1].inv()
