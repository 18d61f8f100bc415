"""Whittaker modules: the universal action, quotients R/Q, annihilators,
Whittaker vectors, simplicity verdicts, and endomorphism rings.

Every residue modulo Q is the canonical one of `PhiStableIdeal.reduce`.  A
finite-dimensional module also gets a MatrixModel (one exact matrix per
algebra generator, basis vectors tagged with the ring elements they
represent), built from those residues; an infinite one is R/Q itself, acted
on through `WhittakerModule.act_residue`, with degree-truncated enumeration.
On a MatrixModel, Ann_R(w) (a Buchberger-Moller walk) and End(V) need no
degree bound.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import GwaElement, GwaPresentation, gwa_mul
from .errors import (
    InternalConsistencyError,
    InvalidParameters,
    NotAWhittakerPair,
    PresentationMismatch,
    TruncationTooSmall,
    UnsupportedRing,
)
from .field import FP_KIND, Q_KIND, FieldElement, format_scalar
from .ideals import (PhiStableIdeal, _certified, _degrevlex_key, _derivative, _leading, _poly_gcd,
                     _squarefree, phi_stable_ideal)
from .linalg import (
    RowSpace,
    column_rows,
    element_rows,
    inverse_rows,
    mul_rows,
    mul_vec,
    payload_kernel,
    payload_relations,
    payload_row,
    payload_rows,
    same_span,
    sum_rows,
)
from .ring import BaseRing, RingElement, format_ring_element


def _check_scalars(pres: GwaPresentation, values, name: str) -> tuple:
    """values as a tuple of one scalar of the coefficient field per index."""
    values = tuple(values)
    if len(values) != pres.n:
        raise InvalidParameters(f"need one {name}_i per index")
    for z in values:
        if not isinstance(z, FieldElement) or z.spec != pres.ring.field:
            raise InvalidParameters(f"{name} entries must be scalars of the coefficient field")
    return values


def check_type(pres: GwaPresentation, zeta) -> tuple:
    zeta = _check_scalars(pres, zeta, "zeta")
    if any(z.is_zero() for z in zeta):
        raise InvalidParameters("Whittaker types have nonzero entries")
    return zeta


# ---------------------------------------------------------------------------
# the universal action on R (eqs. r'.r = r'r, X.r = zeta phi(r), Y.r = zeta^{-1} phi^{-1}(r) t)


def universal_act(a: GwaElement, r: RingElement, zeta) -> RingElement:
    pres = a.pres
    if r.ring != pres.ring:
        raise PresentationMismatch("the acted-on element lives in the wrong ring")
    zeta = check_type(pres, zeta)
    out = pres.ring.zero()
    for alpha, coeff in a.terms.items():
        value = r
        for i in range(pres.n - 1, -1, -1):
            k = alpha[i]
            if k >= 0:
                for _ in range(k):
                    value = pres.phis[i].apply(value) * zeta[i]
            else:
                zinv = zeta[i].inv()
                inv = pres.phis[i].inverse()
                for _ in range(-k):
                    value = inv.apply(value) * pres.ts[i] * zinv
        out = out + coeff * value
    return out


# ---------------------------------------------------------------------------
# realizations


class MatrixModel:
    """Finite-dimensional model: one matrix per generator, cyclic vector w.

    basis_reps[j] is a ring element r_j with basis vector v_j = r_j . w, so the
    coordinate map doubles as the isomorphism V ~ R/Q.

    The model keeps its matrices as payload rows (see linalg): x_rows, y_rows,
    gen_rows and gen_inv_rows, and w as the payload row w_row.  The stated
    FieldElement matrices are checked for their field and converted once, here;
    x_mats, y_mats, gen_mats and w are FieldElement views built from the
    payload form on each read.  The payload methods (ring_rows, ring_vector,
    z_rows, act_rows, action_rows) may return rows the model shares, which
    callers must not modify; matrix_of_ring and vector_of_ring return
    FieldElement copies.

    The action of a ring monomial G^e = G_1^e_1 ... G_k^e_k is cached twice,
    per exponent tuple: as a matrix, built from the cached G^(e - e_last) by
    one product with the last nonzero slot's generator (or inverse) matrix,
    and as the vector G^e w, built from the cached G^(e - e_first) w by one
    matrix-vector product.  Both keep the generator order of the monomial."""

    def __init__(self, pres, zeta, gen_mats, x_mats, y_mats, w, basis_reps, labels=None):
        self.pres = pres
        self.zeta = check_type(pres, zeta)
        self.basis_reps = list(basis_reps)
        self.dim = d = len(w)
        self.labels = labels or [repr(r) for r in basis_reps]
        self.field = field = pres.ring.field

        def checked(m):
            if len(m) != d or any(len(row) != d for row in m):
                raise InvalidParameters(f"every matrix of the model must be {d} x {d}")
            return payload_rows(m, field)

        self.gen_rows = {name: checked(m) for name, m in gen_mats.items()}
        self.x_rows = [checked(m) for m in x_mats]
        self.y_rows = [checked(m) for m in y_mats]
        self.w_row = payload_row(w, field)
        self.gen_inv_rows = {}
        for name, l in zip(pres.ring.gens, pres.ring.laurent):
            if l:
                inv = inverse_rows(self.gen_rows[name], field)
                if inv is None:
                    raise InvalidParameters(f"Laurent generator {name!r} acts non-invertibly")
                self.gen_inv_rows[name] = inv
        one = (0,) * len(pres.ring.gens)
        self._identity = [{i: field.one().payload} for i in range(d)]
        self._monomial_mats = {one: self._identity}
        self._monomial_vecs = {one: self.w_row}

    # -- FieldElement views of the payload form --------------------------------

    def _view(self, rows):
        return element_rows(rows, self.field, self.dim)

    @property
    def x_mats(self):
        return [self._view(m) for m in self.x_rows]

    @property
    def y_mats(self):
        return [self._view(m) for m in self.y_rows]

    @property
    def gen_mats(self):
        return {name: self._view(m) for name, m in self.gen_rows.items()}

    @property
    def w(self):
        return self._view([self.w_row])[0]

    # -- payload form ----------------------------------------------------------

    def _step(self, exps, slot):
        """(exps moved one step toward zero in slot, that step's matrix)."""
        e = exps[slot]
        name = self.pres.ring.gens[slot]
        prev = exps[:slot] + (e - 1 if e > 0 else e + 1,) + exps[slot + 1:]
        return prev, self.gen_rows[name] if e > 0 else self.gen_inv_rows[name]

    def _monomial_matrix(self, exps):
        m = self._monomial_mats.get(exps)
        if m is None:
            last = max(i for i, e in enumerate(exps) if e)
            prev, step = self._step(exps, last)
            m = self._monomial_matrix(prev)
            m = step if m is self._identity else mul_rows(m, step, self.field.ops)
            self._monomial_mats[exps] = m
        return m

    def _monomial_vector(self, exps):
        v = self._monomial_vecs.get(exps)
        if v is None:
            first = next(i for i, e in enumerate(exps) if e)
            prev, step = self._step(exps, first)
            v = mul_vec(step, self._monomial_vector(prev), self.field.ops)
            self._monomial_vecs[exps] = v
        return v

    def _coefficients(self, r: RingElement):
        if r.ring is not self.pres.ring and r.ring != self.pres.ring:
            raise PresentationMismatch("the ring element lives in the wrong ring")
        return ((exps, c.payload) for exps, c in r.terms.items())

    def ring_rows(self, r: RingElement) -> list:
        return sum_rows(((c, self._monomial_matrix(exps)) for exps, c in self._coefficients(r)),
                        self.field.ops, self.dim)

    def ring_vector(self, r: RingElement) -> dict:
        """The payload row of r . w."""
        return sum_rows(((c, [self._monomial_vector(exps)]) for exps, c in self._coefficients(r)),
                        self.field.ops, 1)[0]

    def z_rows(self, alpha) -> list:
        m = self._identity
        for i, e in enumerate(alpha):
            step = self.x_rows[i] if e > 0 else self.y_rows[i]
            for _ in range(abs(e)):
                m = step if m is self._identity else mul_rows(m, step, self.field.ops)
        return m

    def act_rows(self, a: GwaElement) -> list:
        ops, one = self.field.ops, self.field.one().payload
        terms = []
        for alpha, coeff in a.terms.items():
            m, z = self.ring_rows(coeff), self.z_rows(alpha)
            terms.append((one, m if z is self._identity else mul_rows(m, z, ops)))
        return sum_rows(terms, ops, self.dim)

    def action_rows(self) -> list:
        return (self.x_rows + self.y_rows + list(self.gen_rows.values())
                + list(self.gen_inv_rows.values()))

    # -- FieldElement results --------------------------------------------------

    def matrix_of_ring(self, r: RingElement):
        return self._view(self.ring_rows(r))

    def vector_of_ring(self, r: RingElement):
        return self._view([self.ring_vector(r)])[0]


@dataclass
class WhittakerModule:
    pres: GwaPresentation
    zeta: tuple
    Q: PhiStableIdeal
    realization: MatrixModel | None     # None when R/Q is infinite-dimensional

    @property
    def is_matrix(self) -> bool:
        return self.realization is not None

    def act_residue(self, a: GwaElement, r: RingElement) -> RingElement:
        """The residue of a . (r + Q) in R/Q."""
        return self.Q.reduce(universal_act(a, r, self.zeta))

    @property
    def dim(self):
        return self.realization.dim if self.is_matrix else None


# ---------------------------------------------------------------------------
# construction from an ideal


def _standard_monomials(ring, basis):
    """Exponent tuples of the monomial basis of R/(basis); None when infinite."""
    if not basis:
        return None
    leads = [_leading(g)[0] for g in basis]
    nvars = len(ring.gens)
    caps = []
    for v in range(nvars):
        pure = [e[v] for e in leads if all(x == 0 for i, x in enumerate(e) if i != v)]
        if not pure:
            return None
        caps.append(min(pure))
    monos = []
    for exps in itertools.product(*(range(c) for c in caps)):
        if not any(all(x >= y for x, y in zip(exps, lead)) for lead in leads):
            monos.append(exps)
    return monos


def build_module(pres: GwaPresentation, Q, zeta) -> WhittakerModule:
    """The Whittaker module V_Q = R/Q; matrix form when it is finite-dimensional."""
    zeta = check_type(pres, zeta)
    if not isinstance(Q, PhiStableIdeal):
        Q = phi_stable_ideal(pres.ring, pres.phis, list(Q))
    if Q.is_unit():
        raise NotAWhittakerPair("Q = (1) gives the zero module, which has no cyclic vector")
    ring = pres.ring
    monos = _standard_monomials(ring, Q.generators)
    if monos is None:
        return WhittakerModule(pres, zeta, Q, None)

    index = {m: j for j, m in enumerate(monos)}
    dim = len(monos)
    field = ring.field
    basis_reps = [ring.monomial(m, field.one()) for m in monos]

    def vector_of(r: RingElement):
        vec = [field.zero()] * dim
        for exps, c in Q.reduce(r).terms.items():
            j = index.get(exps)
            if j is None:
                raise InternalConsistencyError("a residue escaped the standard monomials")
            vec[j] = c
        return vec

    def matrix_from(fn):
        cols = [fn(rep) for rep in basis_reps]
        return [[cols[j][i] for j in range(dim)] for i in range(dim)]

    gen_mats = {name: matrix_from(lambda rep, g=ring.gen(name): vector_of(g * rep))
                for name in ring.gens}

    x_mats, y_mats = [], []
    for i in range(pres.n):
        phi = pres.phis[i]
        inv = phi.inverse()
        zi = zeta[i]
        ziv = zi.inv()
        t = pres.ts[i]
        x_mats.append(matrix_from(lambda rep, phi=phi, zi=zi: vector_of(phi.apply(rep) * zi)))
        y_mats.append(matrix_from(lambda rep, inv=inv, ziv=ziv, t=t: vector_of(inv.apply(rep) * t * ziv)))

    w = vector_of(ring.one())
    if all(x.is_zero() for x in w):
        raise NotAWhittakerPair("the residue of 1 vanishes")
    model = MatrixModel(pres, zeta, gen_mats, x_mats, y_mats, w, basis_reps)
    if failures := verify_relations(model):
        raise InternalConsistencyError(f"constructed matrices violate relations: {failures}")
    return WhittakerModule(pres, zeta, Q, model)


def universal_module(pres: GwaPresentation, zeta) -> WhittakerModule:
    zeta = check_type(pres, zeta)
    return WhittakerModule(pres, zeta, PhiStableIdeal(pres.ring, pres.phis, []), None)


def verify_relations(model: MatrixModel) -> list:
    """All GWA defining relations as exact matrix identities; returns failures."""
    pres = model.pres
    ops = model.field.ops

    def mul(a, b):
        return mul_rows(a, b, ops)

    failures = []
    for i in range(pres.n):
        X, Y = model.x_rows[i], model.y_rows[i]
        phi = pres.phis[i]
        if mul(Y, X) != model.ring_rows(pres.ts[i]):
            failures.append(f"Y_{i} X_{i} != t_{i}")
        if mul(X, Y) != model.ring_rows(phi.apply(pres.ts[i])):
            failures.append(f"X_{i} Y_{i} != phi_{i}(t_{i})")
        for name in pres.ring.gens:
            g = pres.ring.gen(name)
            Mg = model.gen_rows[name]
            if mul(X, Mg) != mul(model.ring_rows(phi.apply(g)), X):
                failures.append(f"X_{i} {name} != phi_{i}({name}) X_{i}")
            if mul(Y, Mg) != mul(model.ring_rows(phi.inverse().apply(g)), Y):
                failures.append(f"Y_{i} {name} != phi_{i}^-1({name}) Y_{i}")
        for j in range(i + 1, pres.n):
            for A, an in ((model.x_rows[i], f"X_{i}"), (model.y_rows[i], f"Y_{i}")):
                for B, bn in ((model.x_rows[j], f"X_{j}"), (model.y_rows[j], f"Y_{j}")):
                    if mul(A, B) != mul(B, A):
                        failures.append(f"[{an}, {bn}] != 0")
    for na, nb in itertools.combinations(pres.ring.gens, 2):
        if mul(model.gen_rows[na], model.gen_rows[nb]) != mul(model.gen_rows[nb], model.gen_rows[na]):
            failures.append(f"[{na}, {nb}] != 0")
    # the cyclic vector is a Whittaker vector of the right type
    for i in range(pres.n):
        z = model.zeta[i].payload
        if mul_vec(model.x_rows[i], model.w_row, ops) != {j: ops[1](z, x) for j, x in model.w_row.items()}:
            failures.append(f"X_{i} w != zeta_{i} w")
    return failures


# ---------------------------------------------------------------------------
# ring monomial / algebra monomial enumeration


def ring_monomials(ring, degree: int):
    """Exponent tuples with sum of |e| <= degree; Laurent slots range negative."""
    ranges = []
    for l in ring.laurent:
        ranges.append(range(-degree, degree + 1) if l else range(0, degree + 1))
    out = []
    for exps in itertools.product(*ranges):
        if sum(abs(e) for e in exps) <= degree:
            out.append(exps)
    return out


def algebra_basis(pres, degree: int):
    """Normal-form monomials Z^alpha * m with |alpha| + deg(m) <= degree."""
    out = []
    for alpha in itertools.product(*(range(-degree, degree + 1) for _ in range(pres.n))):
        za = sum(abs(e) for e in alpha)
        if za > degree:
            continue
        for exps in ring_monomials(pres.ring, degree - za):
            out.append((alpha, exps))
    return out


def _basis_elements(pres, basis) -> list:
    """The algebra monomials Z^alpha * m of the basis keys (alpha, m)."""
    one = pres.ring.field.one()
    return [pres.monomial(alpha, pres.ring.monomial(exps, one)) for alpha, exps in basis]


def _element_vector(a: GwaElement, index) -> dict | None:
    """The payload row {column: payload} of a's coordinates, or None when a
    has a term outside the index."""
    vec = {}
    for alpha, coeff in a.terms.items():
        for exps, c in coeff.terms.items():
            j = index.get((alpha, exps))
            if j is None:
                return None
            vec[j] = c.payload
    return vec


def _combination(vec: dict, elements, zero, field):
    """sum_j vec[j] elements[j] for a payload row of coefficients; the
    elements are ring or algebra elements."""
    out = zero
    for j, x in sorted(vec.items()):
        out = out + elements[j].scale(FieldElement(field, x))
    return out


def _first_outside(span: RowSpace, vectors) -> dict | None:
    """The first of the payload rows outside the span, or None."""
    return next((v for v in vectors if span._reduce(dict(v))), None)


# ---------------------------------------------------------------------------
# annihilators


def recover_annihilator(V: WhittakerModule) -> PhiStableIdeal:
    """The reduced basis of Ann_R(w) by a Buchberger-Moller walk (Marinari,
    Moeller and Mora 1993).  Monomials m leave a heap in increasing degrevlex
    order, less multiples of leading monomials found.  If m w is independent of
    the standard images, m is standard and queues each m x_i; if not, the one
    relation is the basis element m - sum c_s s.  Laurent generators walk as variables."""
    if not V.is_matrix:
        return V.Q
    ring = V.pres.ring
    space = RowSpace(ring.field, V.dim)
    standard, images, leads, basis = [], [], [], []
    start = (0,) * len(ring.gens)
    heap, queued = [(_degrevlex_key(start), start)], {start}
    while heap:
        m = heapq.heappop(heap)[1]
        if any(all(a <= b for a, b in zip(lead, m)) for lead in leads):
            continue
        image, mono = V.realization._monomial_vector(m), ring.monomial(m, ring.field.one())
        if not space.add_payloads(image):
            # the standard images are independent, so the one relation ends in a one
            (relation,) = payload_relations(images + [image], ring.field)
            leads.append(m)
            basis.append(_combination(relation, standard + [mono], ring.zero(), ring.field))
            continue
        standard.append(mono)
        images.append(image)
        for up in (m[:i] + (m[i] + 1,) + m[i + 1:] for i in range(len(m))):
            if up not in queued:
                queued.add(up)
                heapq.heappush(heap, (_degrevlex_key(up), up))
    return _certified(ring, V.pres.phis, basis)


def ann_w_member(V: WhittakerModule, a: GwaElement) -> bool:
    if V.is_matrix:
        model = V.realization
        return not mul_vec(model.act_rows(a), model.w_row, model.field.ops)
    return V.act_residue(a, V.pres.ring.one()).is_zero()


def ann_w_generators(V: WhittakerModule) -> list:
    """Generators of Ann_A(w): Q together with the elements X_i - zeta_i."""
    pres = V.pres
    out = [pres.embed_ring(g) for g in V.Q.generators]
    for i in range(pres.n):
        out.append(pres.X(i) - pres.scalar(V.zeta[i]))
    return out


@dataclass
class TruncatedIdealCheck:
    ok: bool
    degree: int
    kernel_dim: int
    span_dim: int
    witness: GwaElement | None = None


# the truncated span collects products of degree <= degree + SPAN_SLACK; the
# symbolic ann_V_check samples ring monomials of degree <= degree + SAMPLE_EXTRA
SPAN_SLACK = 2
SAMPLE_EXTRA = 3


def _truncated_left_span(pres, gens, index, degree, slack, kernel_dim):
    """Row space of the degree-<=degree part of sum_j A g_j, inside the index.

    Products are collected in the larger space of degree <= degree + slack and
    the degree-<=degree part is read off as an exact subspace intersection:
    with the high-degree coordinates ordered first, the reduced rows whose
    pivots sit in the low block have no high-degree support.

    kernel_dim is the dimension of the degree-<=degree part of the annihilator
    (of V, or of w) that the span is compared with.  The callers check first
    that each g_j lies in that annihilator, so every product b g_j does too (an
    annihilator is a left ideal) and the span lies inside the kernel.  Once the
    span has kernel_dim dimensions it is the kernel, and no later product can
    change it, so the loop stops there; taking b in increasing degree gets
    there early."""
    field = pres.ring.field
    max_gen = max((g.degree() for g in gens), default=0)
    ambient_degree = degree + slack + max_gen
    ambient = algebra_basis(pres, ambient_degree)
    low = [key for key in ambient if key in index]
    high = [key for key in ambient if key not in index]
    columns = {key: pos for pos, key in enumerate(high)}
    offset = len(high)
    for key in low:
        columns[key] = offset + index[key]
    width = len(ambient)

    space = RowSpace(field, width)
    one = field.one()
    by_degree = sorted(algebra_basis(pres, degree + slack),
                       key=lambda key: sum(map(abs, key[0])) + sum(map(abs, key[1])))
    low_dim = 0
    for alpha, exps in by_degree:
        if low_dim >= kernel_dim:
            break
        b = pres.monomial(alpha, pres.ring.monomial(exps, one))
        for g in gens:
            prod = gwa_mul(b, g)
            if prod.is_zero():
                continue
            vec = _element_vector(prod, columns)
            if vec is not None and space.add_payloads(vec):
                low_dim = sum(pivot >= offset for pivot in space._rows)
                if low_dim >= kernel_dim:
                    break

    out = RowSpace(field, len(index))
    for pivot, row in space._rows.items():
        if pivot >= offset:
            out.add_payloads({j - offset: x for j, x in row.items()})
    return out


def thm43_truncated_check(V: WhittakerModule, degree: int = 4) -> TruncatedIdealCheck:
    """Kernel of a -> a.w on normal-form degree <= D equals the truncated span
    of A Q + sum_i A (X_i - zeta_i); each of those generators must first
    annihilate w."""
    if not V.is_matrix:
        raise UnsupportedRing("the truncated annihilator check needs a matrix model")
    pres = V.pres
    model = V.realization
    field = pres.ring.field
    basis = algebra_basis(pres, degree)
    index = {key: j for j, key in enumerate(basis)}
    elements = _basis_elements(pres, basis)
    gens = ann_w_generators(V)
    for g in gens:
        if not ann_w_member(V, g):
            return TruncatedIdealCheck(False, degree, -1, -1, g)
    kernel = payload_relations([mul_vec(model.act_rows(a), model.w_row, field.ops)
                                for a in elements], field)

    span = _truncated_left_span(pres, gens, index, degree, SPAN_SLACK, len(kernel))
    outside = _first_outside(span, kernel)
    ok = outside is None
    witness = None if ok else _combination(outside, elements, pres.zero(), field)
    # the reverse inclusion: spanned elements annihilate w
    for p in span.pivots:
        elt = _combination(span._rows[p], elements, pres.zero(), field)
        if not ann_w_member(V, elt):
            ok = False
            witness = elt
            break
    return TruncatedIdealCheck(ok, degree, len(kernel), span.dim, witness)


def ann_V_check(V: WhittakerModule, candidate_gens, degree: int = 4) -> TruncatedIdealCheck:
    """Verify Ann_A(V) = sum_j A g_j at truncation `degree`.

    Every candidate generator must annihilate the module, and every element of
    normal-form degree <= degree that annihilates it must lie in the truncated
    left span of the candidates.  On a symbolic module the kernel is sampled
    on the residues of the ring monomials of degree <= degree + SAMPLE_EXTRA."""
    pres = V.pres
    field = pres.ring.field
    basis = algebra_basis(pres, degree)
    index = {key: j for j, key in enumerate(basis)}
    elements = _basis_elements(pres, basis)

    if V.is_matrix:
        model = V.realization
        for g in candidate_gens:
            if any(model.act_rows(g)):
                return TruncatedIdealCheck(False, degree, -1, -1, g)
        kernel = payload_relations([{(i, j): x for i, row in enumerate(model.act_rows(a))
                                     for j, x in row.items()} for a in elements], field)
    else:
        residues = (V.Q.reduce(pres.ring.monomial(m, field.one()))
                    for m in ring_monomials(pres.ring, degree + SAMPLE_EXTRA))
        reps = list(dict.fromkeys(r for r in residues if r))     # distinct, in first-seen order
        for g in candidate_gens:
            for r in reps:
                if not V.act_residue(g, r).is_zero():
                    return TruncatedIdealCheck(False, degree, -1, -1, g)
        images = [{(slot, e): c.payload for slot, r in enumerate(reps)
                   for e, c in V.act_residue(a, r).terms.items()} for a in elements]
        kernel = payload_relations(images, field)

    span = _truncated_left_span(pres, candidate_gens, index, degree, SPAN_SLACK, len(kernel))
    outside = _first_outside(span, kernel)
    if outside is None:
        return TruncatedIdealCheck(True, degree, len(kernel), span.dim)
    if not V.is_matrix:
        # the symbolic kernel only sampled finitely many residues, so a
        # mismatch here cannot be blamed on the candidates
        raise TruncationTooSmall(
            f"an apparent annihilator of degree <= {degree} is outside the "
            "truncated span; enlarge the truncation")
    return TruncatedIdealCheck(False, degree, len(kernel), span.dim,
                               _combination(outside, elements, pres.zero(), field))


# ---------------------------------------------------------------------------
# Whittaker vectors


def whittaker_vectors(V: WhittakerModule, eta) -> list:
    """Basis of the simultaneous eigenspace {v : X_i v = eta_i v}, computed
    both directly and through the induced phi-action on R/Q; the two routes
    must agree."""
    if not V.is_matrix:
        raise UnsupportedRing("Whittaker vectors need a finite-dimensional module")
    model, pres = V.realization, V.pres
    field, d = model.field, model.dim
    eta = _check_scalars(pres, eta, "eta")
    direct = _eigenspace(model, [(x, e.payload) for x, e in zip(model.x_rows, eta)])

    # Second route: r w is a Whittaker vector of type eta iff r + Q is a
    # phi_i-eigenvector with eigenvalue zeta_i^{-1} eta_i.  The matrix of the
    # induced phi_i in the basis {rep_j + Q} is U^{-1} [phi_i(rep_j) . w],
    # where U = [rep_j . w] identifies R/Q with the module.
    U = column_rows([model.ring_vector(rep) for rep in model.basis_reps], d)
    U_inv = inverse_rows(U, field)
    if U_inv is None:
        raise InternalConsistencyError("basis representatives do not span R/Q")
    phibars = []
    for i in range(pres.n):
        images = column_rows([model.ring_vector(pres.phis[i].apply(rep)) for rep in model.basis_reps], d)
        phibars.append((mul_rows(U_inv, images, field.ops), (V.zeta[i].inv() * eta[i]).payload))
    induced = [mul_vec(U, x, field.ops) for x in _eigenspace(model, phibars)]

    if not same_span(direct, induced, field, d):
        raise InternalConsistencyError("the two Whittaker-vector routes disagree")
    return element_rows(direct, field, d)


def _eigenspace(model: MatrixModel, pairs) -> list:
    """A basis of {v : m v = c v for each pair (payload matrix m, payload scalar c)}."""
    field, d = model.field, model.dim
    return payload_kernel([row for m, c in pairs for row in sum_rows(
        [(field.one().payload, m), (field.ops[2](c), model._identity)], field.ops, d)], field, d)


# ---------------------------------------------------------------------------
# simplicity


@dataclass
class SimplicityVerdict:
    kind: str                      # "simple" | "not_simple" | "inconclusive"
    certificate: str | None = None
    submodule: list | None = None  # basis vectors of a proper invariant subspace


def _closure(model: MatrixModel, vectors, mats=None) -> RowSpace:
    """The span of the vectors and their images under the matrices (default: the action)."""
    space, mats = RowSpace(model.field, model.dim), mats or model.action_rows()
    frontier = [v for v in vectors if space.add_payloads(v)]
    while frontier:
        frontier = [img for u, g in itertools.product(frontier, mats)
                    if space.add_payloads(img := mul_vec(g, u, model.field.ops))]
    return space


def _submodule(model: MatrixModel, space: RowSpace) -> SimplicityVerdict:
    """not_simple with the span as witness, checked nonzero, proper and invariant."""
    rows = space.rows
    if not 0 < space.dim < model.dim or any(space.add_payloads(mul_vec(g, row, model.field.ops))
                                            for g in model.action_rows()
                                            for row in payload_rows(rows, model.field)):
        raise InternalConsistencyError("a simplicity witness is not a proper submodule")
    return SimplicityVerdict("not_simple", None, rows)


def _minimal_polynomial(m, v: dict, ring, slot: int = 0) -> RingElement:
    """The monic minimal polynomial of the payload matrix m on the vector v, in
    the slot-th generator of the ring, from the first dependent m^k v.  It is
    m's own when v generates the module over a commutative algebra holding m."""
    space, powers = RowSpace(ring.field, len(m)), [v]
    while space.add_payloads(powers[-1]):
        powers.append(mul_vec(m, powers[-1], ring.field.ops))
    zeros = (0,) * len(ring.gens)
    return RingElement(ring, {zeros[:slot] + (k,) + zeros[slot + 1:]: FieldElement(ring.field, c)
                              for k, c in payload_relations(powers, ring.field)[0].items()})


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the square a modulo the odd prime p (Tonelli-Shanks)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1        # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _quadratic_root(b: FieldElement, c: FieldElement):
    """A root of x^2 + b x + c or None: over F_p by Euler's criterion (p = 2: try
    both), over Q by the discriminant; elsewhere NotImplemented unless it is a rational square."""
    field, two = b.spec, b.spec.from_int(2)
    if field.kind == FP_KIND and field.p == 2:
        return next((x for x in (field.zero(), field.one()) if ((x + b) * x + c).is_zero()), None)
    disc = b * b - c * two * two
    if field.kind == FP_KIND:
        if pow(disc.payload, (field.p - 1) // 2, field.p) > 1:
            return None
        return (field.from_int(_sqrt_mod(disc.payload, field.p)) - b) / two
    try:
        num, den = disc.as_fraction().as_integer_ratio()
    except InvalidParameters:       # an irrational discriminant
        return NotImplemented
    if num >= 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
        return (field.from_fraction(Fraction(isqrt(num), isqrt(den))) - b) / two
    return None if field.kind == Q_KIND else NotImplemented


def is_simple(V: WhittakerModule) -> SimplicityVerdict:
    """The paper's criterion: V = A w ~ R/Q is simple exactly when Q is radical
    (each ring generator's minimal polynomial m_x is squarefree; the fields are
    perfect) and End(V) = (R/Q)^phi, which is Wh_zeta(V) once R w = V, is a
    field.  Witnesses: A sqfree(m_x) w in sqrt(Q)/Q, ker(c - mu) for a root mu
    of m_c, closures of eigenvectors of the action; each is re-checked."""
    if not V.is_matrix:
        return SimplicityVerdict("inconclusive", "symbolic realization")
    model = V.realization
    field, d = model.field, model.dim
    if d == 0 or not model.w_row:
        raise NotAWhittakerPair("a Whittaker module has a nonzero cyclic vector")
    if failures := verify_relations(model):
        return SimplicityVerdict("inconclusive", "relations fail: " + "; ".join(failures))
    # A w = R w, and a finite-dimensional R-closure is closed under inverses
    cyclic = _closure(model, [model.w_row], list(model.gen_rows.values()))
    if cyclic.dim < d:
        return _submodule(model, cyclic)
    ring = V.pres.ring
    for slot, name in enumerate(ring.gens):
        m = _minimal_polynomial(model.gen_rows[name], model.w_row, ring, slot)
        dm = _derivative(ring, name, m)
        if dm.is_zero() or _poly_gcd(ring, m, dm).degree() > 0:
            return _submodule(model, _closure(model, [model.ring_vector(_squarefree(ring, name, m))]))

    whittaker = _eigenspace(model, [(x, z.payload) for x, z in zip(model.x_rows, model.zeta)])
    if len(whittaker) == 1:
        return SimplicityVerdict("simple", "Ann_R(w) is radical and dim End(V) = 1")
    # a non-scalar element c of End(V): off the diagonal (k = i d + i), or two values on it
    flat = next(v for v in _commutant(model)
                if len(v) < d or any(k % (d + 1) for k in v) or len(set(v.values())) > 1)
    c = [{k % d: x for k, x in flat.items() if k // d == i} for i in range(d)]
    m_c = _minimal_polynomial(c, model.w_row, BaseRing(field, ["c"]))
    # eigenvector candidates: ker(c - mu) for a root mu of a quadratic m_c, then ker(g - mu) for mu on
    # g's diagonal, in first-occurrence order so that the submodule does not vary with hashing
    zero = field.zero().payload
    candidates = [(g, dict.fromkeys(g[i].get(i, zero) for i in range(d))) for g in model.action_rows()]
    if len(whittaker) == 2:
        mu = _quadratic_root(*(m_c.terms.get((k,), field.zero()) for k in (1, 0)))
        if mu is None:
            return SimplicityVerdict("simple", f"Ann_R(w) is radical and End(V) = F[c], "
                                               f"m_c = {format_ring_element(m_c)} has no root")
        if mu is not NotImplemented:
            candidates.insert(0, (c, [mu.payload]))
    for g, mus in candidates:
        for mu in mus:
            for v in _eigenspace(model, [(g, mu)]):
                space = _closure(model, [v])
                if space.dim < d:
                    return _submodule(model, space)
    return SimplicityVerdict("inconclusive", f"Ann_R(w) is radical, dim End(V) = {len(whittaker)}; "
                                             f"m_c = {format_ring_element(m_c)} is not decided")


# ---------------------------------------------------------------------------
# endomorphisms


@dataclass
class EndoReport:
    dimension: int
    commutant: list
    s_matches: bool


def _commutant(model: MatrixModel) -> list:
    """The matrices M with g M = M g for every action matrix g, as a basis of
    row-major flattened payload rows."""
    field, d = model.field, model.dim
    add, _, neg, _, is_zero = field.ops
    # the linear map M -> g M - M g on row-major flattened M, one row per entry (a, b)
    rows = []
    for g in model.action_rows():
        g_columns = column_rows(g, d)
        for a in range(d):
            for b in range(d):
                row = {k * d + b: x for k, x in g[a].items()}
                for k, x in g_columns[b].items():
                    j = a * d + k
                    row[j] = neg(x) if j not in row else add(row[j], neg(x))
                rows.append({j: x for j, x in row.items() if not is_zero(x)})
    return payload_kernel(rows, field, d * d)


def endo_ring(V: WhittakerModule) -> EndoReport:
    """Commutant of the action compared against pi(S), S = {s : s - phi_i(s) in
    Ann_R(w)}, read exactly off the basis representatives, which span R/Ann_R(w)."""
    if not V.is_matrix:
        raise UnsupportedRing("endomorphism computation needs a matrix model")
    model, pres = V.realization, V.pres
    field, d = model.field, model.dim
    commutant = _commutant(model)

    # pi(s) for s = sum_j c_j rep_j is sum_j c_j pi(rep_j)
    images = [{(p, i): x for p, phi in enumerate(pres.phis)
               for i, x in model.ring_vector(r - phi.apply(r)).items()}
              for r in model.basis_reps]
    s_rows = []
    for combo in payload_relations(images, field):
        m = sum_rows([(c, model.ring_rows(model.basis_reps[j])) for j, c in combo.items()], field.ops, d)
        s_rows.append({i * d + j: x for i, row in enumerate(m) for j, x in row.items()})

    flat = element_rows(commutant, field, d * d)
    return EndoReport(len(commutant), [[vec[i * d:(i + 1) * d] for i in range(d)] for vec in flat],
                      same_span(commutant, s_rows, field, d * d))


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(m):
    return [[format_scalar(x) for x in row] for row in m]


def module_to_json(V: WhittakerModule) -> dict:
    out = {
        "zeta": [format_scalar(z) for z in V.zeta],
        "annihilator_generators": [format_ring_element(g) for g in V.Q.generators],
    }
    if V.is_matrix:
        model = V.realization
        out["dimension"] = model.dim
        out["basis"] = model.labels
        out["w"] = [format_scalar(x) for x in model.w]
        mats = {}
        for i in range(V.pres.n):
            mats[V.pres.x_names[i]] = matrix_to_json(model.x_mats[i])
            mats[V.pres.y_names[i]] = matrix_to_json(model.y_mats[i])
        for name, m in model.gen_mats.items():
            mats[name] = matrix_to_json(m)
        out["matrices"] = mats
    else:
        out["realization"] = "R/Q"
    return out
