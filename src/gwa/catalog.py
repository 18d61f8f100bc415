"""Concrete algebra families and the explicitly classified simple modules.

Every constructor returns a validated presentation; every theorem-module
builder returns the module together with a claims report in which each stated
fact (defining relations, the cyclic Whittaker vector, the annihilator, the
central scalars, simplicity) has been checked as an exact matrix identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .core import (
    GwaPresentation,
    center_generators,
    gwa_mul,
    is_central,
)
from .errors import (
    HypothesisViolated,
    InternalConsistencyError,
    InvalidParameters,
    NotPhiStable,
    TelescopingUnsolvable,
    UnsupportedFamily,
)
from .field import FieldElement, FieldSpec, cyclotomic_field, element_order, prime_field, rationals
from .ideals import phi_stable_ideal
from .linalg import RowSpace, column_rows, mul_rows, mul_vec, payload_rows, zeros
from .ring import Automorphism, BaseRing, RingElement, affine_shape, format_ring_element
from .whittaker import (
    MatrixModel,
    WhittakerModule,
    _standard_monomials,
    build_module,
    is_simple,
    recover_annihilator,
    verify_relations,
)


@dataclass
class FamilySpec:
    tag: str
    field: FieldSpec
    params: dict = dc_field(default_factory=dict)


FAMILY_TAGS = ("weyl", "heisenberg", "quantum_plane", "quantum_weyl",
               "univariate_affine", "smith", "quantum_smith", "uqsl2")


def _sc(spec: FamilySpec, key: str) -> FieldElement:
    v = spec.params[key]
    if not isinstance(v, FieldElement) or v.spec != spec.field:
        raise InvalidParameters(f"parameter {key!r} must be a scalar of the family's field")
    return v


def build_family(spec: FamilySpec) -> GwaPresentation:
    if spec.tag == "weyl":
        return _weyl(spec.field, int(spec.params.get("n", 1)))
    if spec.tag == "heisenberg":
        return _heisenberg(spec.field, int(spec.params.get("n", 1)))
    if spec.tag == "quantum_plane":
        q = _sc(spec, "q")
        if q.is_zero() or q.is_one():
            raise InvalidParameters("the quantum plane needs q != 0, 1")
        return _univariate(spec.field, q, spec.field.zero(), family=spec)
    if spec.tag == "quantum_weyl":
        q = _sc(spec, "q")
        if q.is_zero():
            raise InvalidParameters("the quantum Weyl algebra needs q != 0")
        qi = q.inv()
        return _univariate(spec.field, qi, -qi, family=spec)
    if spec.tag == "univariate_affine":
        alpha = _sc(spec, "alpha")
        if alpha.is_zero():
            raise InvalidParameters("alpha must be nonzero for an automorphism")
        return _univariate(spec.field, alpha, _sc(spec, "beta"), family=spec)
    if spec.tag == "smith":
        return _smith(spec)
    if spec.tag == "quantum_smith":
        return _quantum_smith(spec, int(spec.params["m"]), _sc(spec, "q"))
    if spec.tag == "uqsl2":
        q = _sc(spec, "q")
        spec2 = FamilySpec("quantum_smith", spec.field, {"m": 1, "q": q})
        pres = _quantum_smith(spec2, 1, q)
        pres.meta["family"] = spec
        return pres
    raise UnsupportedFamily(f"unknown family tag {spec.tag!r}")


def _weyl(field: FieldSpec, n: int) -> GwaPresentation:
    names = ["t"] if n == 1 else [f"t{i+1}" for i in range(n)]
    R = BaseRing(field, names)
    phis = []
    for i in range(n):
        images = {g: R.gen(g) for g in names}
        images[names[i]] = R.gen(names[i]) - R.one()
        phis.append(Automorphism(R, images))
    pres = GwaPresentation(R, phis, [R.gen(g) for g in names])
    pres.meta["family"] = FamilySpec("weyl", field, {"n": n})
    return pres


def _heisenberg(field: FieldSpec, n: int) -> GwaPresentation:
    names = ["c"] + ([f"t{i+1}" for i in range(n)] if n > 1 else ["t"])
    R = BaseRing(field, names)
    tnames = names[1:]
    phis = []
    for i in range(n):
        images = {g: R.gen(g) for g in names}
        images[tnames[i]] = R.gen(tnames[i]) - R.gen("c")
        phis.append(Automorphism(R, images))
    pres = GwaPresentation(R, phis, [R.gen(g) for g in tnames])
    pres.meta["family"] = FamilySpec("heisenberg", field, {"n": n})
    return pres


def _univariate(field, alpha, beta, family=None) -> GwaPresentation:
    R = BaseRing(field, ["t"])
    phi = Automorphism(R, {"t": R.gen("t") * alpha + R.scalar(beta)})
    pres = GwaPresentation(R, [phi], [R.gen("t")])
    pres.meta["alpha"] = alpha
    pres.meta["beta"] = beta
    if family is not None:
        pres.meta["family"] = family
    return pres


def tilde_t(pres: GwaPresentation) -> RingElement:
    """(alpha - 1) t + beta for the univariate affine families."""
    alpha, beta = pres.meta["alpha"], pres.meta["beta"]
    R = pres.ring
    return R.gen("t") * (alpha - R.field.one()) + R.scalar(beta)


# -- Smith algebras ---------------------------------------------------------


def solve_telescoping(field: FieldSpec, s_coeffs) -> list:
    """The polynomial r with r(0) = 0 and s(x) = (r(x+1) - r(x))/2.

    Coefficient lists are ascending.  deg r = deg s + 1; in characteristic p
    this requires deg s + 1 < p."""
    s_coeffs = list(s_coeffs)
    while s_coeffs and s_coeffs[-1].is_zero():
        s_coeffs.pop()
    if not s_coeffs:
        raise InvalidParameters("s must be nonzero")
    d = len(s_coeffs) - 1
    p = field.characteristic()
    if p and d + 2 > p:
        raise TelescopingUnsolvable(
            f"deg s + 1 = {d + 1} does not stay below the characteristic {p}")
    # unknowns r_1..r_{d+1}; (x+1)^j - x^j = sum_i C(j,i) x^i for i < j, so
    # the coefficient of x^i is sum_{j > i} C(j,i) r_j = 2 s_i: upper
    # triangular, with C(i+1,i) = i + 1 on the diagonal, nonzero as i + 1 < p
    from math import comb

    r = [field.zero()] * (d + 2)
    for i in range(d, -1, -1):
        acc = s_coeffs[i] * field.from_int(2)
        for j in range(i + 2, d + 2):
            acc = acc - field.from_int(comb(j, i)) * r[j]
        r[i + 1] = acc / field.from_int(i + 1)
    return r


def eval_poly(coeffs, at: RingElement) -> RingElement:
    ring = at.ring
    out = ring.zero()
    power = ring.one()
    for c in coeffs:
        out = out + power * c
        power = power * at
    return out


def _smith(spec: FamilySpec) -> GwaPresentation:
    field = spec.field
    if field.characteristic() == 2:
        raise InvalidParameters("Smith algebras need characteristic != 2")
    s_coeffs = list(spec.params["s"])
    r_coeffs = solve_telescoping(field, s_coeffs)
    R = BaseRing(field, ["h", "c"])
    h, c = R.gen("h"), R.gen("c")
    phi = Automorphism(R, {"h": h - R.one(), "c": c})
    half = field.from_int(2).inv()
    t = (c - eval_poly(r_coeffs, h + R.one())) * half
    pres = GwaPresentation(R, [phi], [t])
    pres.meta["family"] = spec
    pres.meta["s"] = s_coeffs
    pres.meta["r"] = r_coeffs
    _verify_smith_facts(pres)
    return pres


def _telescopes(pres: GwaPresentation) -> bool:
    """Whether r(0) = 0 and (r(h+1) - r(h))/2 = s(h) for the stored s and r."""
    R, r = pres.ring, pres.meta["r"]
    h = R.gen("h")
    lhs = (eval_poly(r, h + R.one()) - eval_poly(r, h)) * R.field.from_int(2).inv()
    return r[0].is_zero() and lhs == eval_poly(pres.meta["s"], h)


def _verify_smith_facts(pres: GwaPresentation):
    """The telescoping identity and the centrality of the Casimir element."""
    if not _telescopes(pres):
        raise InternalConsistencyError("telescoping identity failed")
    field, R, r = pres.ring.field, pres.ring, pres.meta["r"]
    h = R.gen("h")
    # c = 2 Y X + r(h+1) inside the algebra, and c is central
    c_elt = pres.embed_ring(R.gen("c"))
    two_yx = gwa_mul(pres.Y(), pres.X()).scale(field.from_int(2))
    casimir = two_yx + pres.embed_ring(eval_poly(r, h + R.one()))
    if casimir != c_elt:
        raise InternalConsistencyError("Casimir identity failed")
    if not is_central(pres, c_elt):
        raise InternalConsistencyError("Casimir is not central")


def _quantum_smith(spec: FamilySpec, m: int, q: FieldElement) -> GwaPresentation:
    field = spec.field
    if field.characteristic() == 2:
        raise InvalidParameters("quantum Smith algebras need characteristic != 2")
    if m < 1:
        raise InvalidParameters("m must be a positive integer")
    one = field.one()
    if q.is_zero() or q == one or q == -one:
        raise InvalidParameters("need q != 0, +-1")
    if (q ** (2 * m)).is_one():
        raise InvalidParameters("q^2 must not be an m-th root of unity")
    R = BaseRing(field, ["c", "K"], [False, True])
    c, K = R.gen("c"), R.gen("K")
    phi = Automorphism(R, {"c": c, "K": K * (q ** -2)})
    qm = q ** m
    denom = ((qm - qm.inv()) * (q - q.inv())).inv()
    t = c - (K ** m * qm + K ** (-m) * qm.inv()) * denom
    pres = GwaPresentation(R, [phi], [t])
    pres.meta["family"] = spec
    pres.meta["m"] = m
    pres.meta["q"] = q
    return pres


def family_fixed_subring(spec: FamilySpec) -> list:
    """Verified generators of R^phi for a catalog family."""
    pres = build_family(spec)
    gens = pres.fixed_subring()
    if gens is None:
        raise UnsupportedFamily(f"no fixed-subring data for {spec.tag!r}")
    return gens


# ---------------------------------------------------------------------------
# theorem modules


@dataclass
class Claim:
    cid: str
    description: str
    ok: bool
    detail: str = ""


@dataclass
class ClaimsReport:
    theorem: str
    params: dict
    claims: list

    @property
    def all_green(self) -> bool:
        return all(c.ok for c in self.claims)

    def failures(self):
        return [c for c in self.claims if not c.ok]


@dataclass
class TheoremModuleSpec:
    theorem: str
    field: FieldSpec
    params: dict


def build_theorem_module(tspec: TheoremModuleSpec):
    builders = {
        "T8.3": _module_T83,
        "T8.5": _module_T85,
        "T8.7": _module_T87,
        "T8.9": _module_T89,
        "T9": _module_T9,
        "T10": _module_T10,
    }
    if tspec.theorem not in builders:
        raise InvalidParameters(f"unknown theorem id {tspec.theorem!r}")
    return builders[tspec.theorem](tspec)


def default_grid(theorem: str) -> list:
    """The parameter points `gwa verify THEOREM` checks when no --grid is given."""
    Q = rationals()
    if theorem == "T8.3":
        return [
            TheoremModuleSpec("T8.3", Q, {"alpha": Q.from_int(2), "beta": Q.from_int(b),
                                          "n": n, "zeta": Q.one()})
            for b in (0, 1) for n in (1, 2, 3)
        ]
    if theorem == "T8.5":
        Z3 = cyclotomic_field(3)
        grid = [
            TheoremModuleSpec("T8.5", Z3, {"alpha": Z3.generator(), "beta": Z3.from_int(b),
                                           "theta": Z3.from_int(th), "zeta": Z3.one()})
            for b in (0, 1) for th in (1, 2)
        ]
        grid.append(TheoremModuleSpec("T8.5", Z3, {"alpha": Z3.generator(), "beta": Z3.one(),
                                                   "theta": None, "zeta": Z3.one()}))
        return grid
    if theorem == "T8.7":
        out = []
        for p in (3, 5):
            F = prime_field(p)
            for lam in (0, 1):
                for z in (1, 2):
                    out.append(TheoremModuleSpec("T8.7", F, {
                        "beta": F.one(), "lam": F.from_int(lam), "zeta": F.from_int(z)}))
        return out
    if theorem == "T8.9":
        out = []
        for p in (3, 5):
            F = prime_field(p)
            for lam in (0, 1):
                for z in (1, 2):
                    out.append(TheoremModuleSpec("T8.9", F, {
                        "lam": F.from_int(lam), "zeta": F.from_int(z)}))
        return out
    if theorem == "T9":
        out = []
        for p in (3, 5):
            F = prime_field(p)
            s = [F.zero(), F.from_int(2)]
            for th in (0, 1):
                for lam in (0, 1):
                    out.append(TheoremModuleSpec("T9", F, {
                        "s": s, "theta": F.from_int(th), "lam": F.from_int(lam),
                        "zeta": F.one()}))
        return out
    if theorem == "T10":
        Z6 = cyclotomic_field(6)
        q = Z6.generator()
        out = []
        for th in (0, 1):
            for lam in (1, 2):
                out.append(TheoremModuleSpec("T10", Z6, {
                    "m": 1, "q": q, "theta": Z6.from_int(th),
                    "lam": Z6.from_int(lam), "zeta": Z6.one()}))
        return out
    raise InvalidParameters(f"unknown theorem id {theorem!r}")


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisViolated(message)


def _nonzero(tspec, key) -> FieldElement:
    v = tspec.params[key]
    _require(isinstance(v, FieldElement) and not v.is_zero(), f"{key} must be a nonzero scalar")
    return v


def _diag(field, values):
    n = len(values)
    m = zeros(field, n, n)
    for i, v in enumerate(values):
        m[i][i] = v
    return m


def _sub_diag(field, dim, entries, wrap: bool, offset: int):
    """Matrix with entries[k] in column k, row k+offset (mod dim if wrap)."""
    m = zeros(field, dim, dim)
    for k, v in enumerate(entries):
        row = k + offset
        if wrap:
            row %= dim
        elif not (0 <= row < dim):
            continue
        m[row][k] = m[row][k] + v
    return m


def _finish_module(pres, zeta, Q_gens, gen_mats, x_mats, y_mats, w, basis_reps, labels=None):
    Q = phi_stable_ideal(pres.ring, pres.phis, Q_gens)
    model = MatrixModel(pres, zeta, gen_mats, x_mats, y_mats, w, basis_reps, labels)
    return WhittakerModule(pres, tuple(zeta), Q, model)


def _relations_claim(model: MatrixModel) -> Claim:
    failures = verify_relations(model)
    return Claim("relations", "defining relations hold as matrix identities",
                 not failures, "; ".join(failures))


def _standard_claims(V: WhittakerModule, central_scalars, expect_simple, extra_claims=()):
    """The checks every theorem module runs: relations, Whittaker cyclicity,
    the annihilator, central scalars, simplicity, and agreement with R/Q."""
    pres = V.pres
    model = V.realization
    field = pres.ring.field
    claims = []

    claims.append(_relations_claim(model))

    # w generates V exactly when dim R/Ann_R(w) = dim R w is dim V
    try:
        recovered = recover_annihilator(V)
    except NotPhiStable as exc:
        # the annihilator of a Whittaker vector is phi-stable, so this needs
        # matrices that break a relation, and the relations claim is red
        detail = f"Ann_R(w) is not phi-stable: {exc}"
        claims.append(Claim("cyclic", "w generates the module over R", False, detail))
        claims.append(Claim("annihilator", "Ann_R(w) equals the stated ideal", False, detail))
    else:
        cyc = len(_standard_monomials(pres.ring, recovered.generators)) == model.dim
        claims.append(Claim("cyclic", "w generates the module over R", cyc))
        claims.append(Claim("annihilator", "Ann_R(w) equals the stated ideal", recovered == V.Q,
                            repr(recovered.generators)))

    for label, elt, scalar in central_scalars:
        ok = model.act_rows(elt) == payload_rows(_diag(field, [scalar] * model.dim), field)
        claims.append(Claim(label, f"{label} acts as the stated scalar", ok))

    if expect_simple is not None:
        verdict = is_simple(V)
        ok = (verdict.kind == "simple") == expect_simple and verdict.kind != "inconclusive"
        claims.append(Claim("simple", f"is_simple = {'Simple' if expect_simple else 'NotSimple'}",
                            ok, verdict.kind))

    claims.append(_rq_agreement_claim(V))
    claims.extend(extra_claims)
    return claims


def _rq_agreement_claim(V: WhittakerModule) -> Claim:
    """The explicit matrices agree with the R/Q construction through the
    change of basis sending v_j to its representative in R/Q."""
    pres = V.pres
    model = V.realization
    field = pres.ring.field
    built = build_module(pres, V.Q, V.zeta)
    if not built.is_matrix or built.dim != model.dim:
        return Claim("rq_model", "matches the R/Q construction", False,
                     f"R/Q model dimension {built.dim} != {model.dim}")
    B = built.realization
    P = column_rows([B.ring_vector(rep) for rep in model.basis_reps], model.dim)
    span = RowSpace(field, model.dim)
    for row in P:
        span.add_payloads(row)
    if span.dim < model.dim:
        return Claim("rq_model", "matches the R/Q construction", False,
                     "basis representatives are dependent in R/Q")
    pairs = [(B.x_rows[i], model.x_rows[i]) for i in range(pres.n)]
    pairs += [(B.y_rows[i], model.y_rows[i]) for i in range(pres.n)]
    pairs += [(B.gen_rows[g], model.gen_rows[g]) for g in pres.ring.gens]
    ok = all(mul_rows(Mb, P, field.ops) == mul_rows(P, Me, field.ops) for Mb, Me in pairs)
    return Claim("rq_model", "matches the R/Q construction", ok)


# -- T8.3: alpha not a root of unity, Q = (tilde^n) --------------------------


def _module_T83(tspec):
    field = tspec.field
    alpha = _nonzero(tspec, "alpha")
    beta = tspec.params["beta"]
    n = int(tspec.params["n"])
    zeta = _nonzero(tspec, "zeta")
    _require(n >= 1, "n must be at least 1")
    _require(element_order(alpha) is None, "alpha must not be a root of unity")
    pres = _univariate(field, alpha, beta,
                       FamilySpec("univariate_affine", field, {"alpha": alpha, "beta": beta}))
    tilde = tilde_t(pres)
    am1 = (alpha - field.one()).inv()

    x_mat = _diag(field, [zeta * alpha ** k for k in range(n)])
    t_mat = _sub_diag(field, n, [am1] * n, wrap=False, offset=1)
    for k in range(n):
        t_mat[k][k] = t_mat[k][k] - beta * am1
    y_mat = _sub_diag(field, n, [zeta.inv() * alpha ** (-k) * am1 for k in range(n)],
                      wrap=False, offset=1)
    for k in range(n):
        y_mat[k][k] = y_mat[k][k] - beta * zeta.inv() * alpha ** (-k) * am1

    basis_reps = [tilde ** k for k in range(n)]
    w = [field.one()] + [field.zero()] * (n - 1)
    V = _finish_module(pres, (zeta,), [tilde ** n], {"t": t_mat}, [x_mat], [y_mat],
                       w, basis_reps, [f"v{k}" for k in range(n)])

    extra = [_chain_claim(V, alpha, zeta, n), _ann_V_formula_claim(V, tilde, alpha, zeta, n)]
    claims = _standard_claims(V, [], n == 1, extra)
    report = ClaimsReport("T8.3", dict(tspec.params), claims)
    return V, report


def _chain_claim(V, alpha, zeta, n) -> Claim:
    """V = V_0 > V_1 > ... > V_n = 0 with v_k a Whittaker vector of type alpha^k zeta."""
    model = V.realization
    ops = model.field.ops
    ok = True
    detail = ""
    for k in range(n):
        ek = {k: model.field.one().payload}
        if mul_vec(model.x_rows[0], ek, ops) != {k: (alpha ** k * zeta).payload}:
            ok, detail = False, f"v_{k} is not a Whittaker vector of type alpha^{k} zeta"
            break
        # the action maps span{v_k..} into itself
        if any(j < k for m in model.action_rows() for j in mul_vec(m, ek, ops)):
            ok, detail = False, f"span(v_{k}..) is not invariant"
            break
    return Claim("chain", "the submodule chain of the theorem is present", ok, detail)


def _ann_V_formula_claim(V, tilde, alpha, zeta, n, degree=4) -> Claim:
    """Ann_A(V) = sum_j A tilde^{n-j} prod_{k<j} (X - alpha^k zeta), at truncation."""
    from .whittaker import ann_V_check

    pres = V.pres
    gens = []
    for j in range(n + 1):
        prod = pres.one()
        for k in range(j):
            prod = gwa_mul(prod, pres.X() - pres.scalar(alpha ** k * zeta))
        gens.append(gwa_mul(pres.embed_ring(tilde ** (n - j)), prod))
    res = ann_V_check(V, gens, degree=degree)
    return Claim("annV", "the annihilator of V matches the displayed formula", res.ok,
                 f"kernel {res.kernel_dim}, span {res.span_dim}")


# -- T8.5: alpha a primitive ell-th root of unity ----------------------------


def _module_T85(tspec):
    field = tspec.field
    alpha = _nonzero(tspec, "alpha")
    beta = tspec.params["beta"]
    zeta = _nonzero(tspec, "zeta")
    ell = element_order(alpha)
    _require(ell is not None and ell >= 2, "alpha must be a primitive root of unity, != 1")
    theta = tspec.params.get("theta")
    pres = _univariate(field, alpha, beta,
                       FamilySpec("univariate_affine", field, {"alpha": alpha, "beta": beta}))
    tilde = tilde_t(pres)
    am1 = (alpha - field.one()).inv()
    one = field.one()

    if theta is None:
        # case (ii): Q = (tilde), dim 1
        t_scalar = -am1 * beta
        t_mat = [[t_scalar]]
        x_mat = [[zeta]]
        y_mat = [[-zeta.inv() * am1 * beta]]
        V = _finish_module(pres, (zeta,), [tilde], {"t": t_mat}, [x_mat], [y_mat],
                           [one], [pres.ring.one()], ["w"])
        claims = _standard_claims(V, [], True)
        return V, ClaimsReport("T8.5", dict(tspec.params), claims)

    _require(not theta.is_zero(), "theta must be nonzero in case (i)")
    x_mat = _diag(field, [zeta * alpha ** k for k in range(ell)])
    t_mat = _sub_diag(field, ell, [am1 * theta] * ell, wrap=True, offset=1)
    for k in range(ell):
        t_mat[k][k] = t_mat[k][k] - beta * am1
    y_entries = [zeta.inv() * alpha ** (-k) * am1 * theta for k in range(ell)]
    y_mat = _sub_diag(field, ell, y_entries, wrap=True, offset=1)
    for k in range(ell):
        y_mat[k][k] = y_mat[k][k] - beta * zeta.inv() * alpha ** (-k) * am1

    basis_reps = [tilde ** k * theta.inv() ** k for k in range(ell)]
    w = [one] + [field.zero()] * (ell - 1)
    Q_gen = tilde ** ell - pres.ring.scalar(theta ** ell)
    V = _finish_module(pres, (zeta,), [Q_gen], {"t": t_mat}, [x_mat], [y_mat],
                       w, basis_reps, [f"u{k}" for k in range(ell)])

    y_scalar = (zeta.inv() ** ell) * (am1 ** ell) * alpha ** (-(ell - 1) * ell // 2) \
        * (theta ** ell - beta ** ell)
    central = [
        ("x_power", pres.X(0, ell), zeta ** ell),
        ("y_power", pres.Y(0, ell), y_scalar),
    ]
    claims = _standard_claims(V, central, True)
    return V, ClaimsReport("T8.5", dict(tspec.params), claims)


# -- T8.7 / T8.9: characteristic p shift ------------------------------------


def _module_T87(tspec, weyl: bool = False):
    field = tspec.field
    p = field.characteristic()
    _require(p > 2, "the theorem needs characteristic p > 2")
    beta = field.from_int(-1) if weyl else _nonzero(tspec, "beta")
    lam = tspec.params["lam"]
    zeta = _nonzero(tspec, "zeta")
    if weyl:
        pres = _weyl(field, 1)
    else:
        pres = _univariate(field, field.one(), beta,
                           FamilySpec("univariate_affine", field,
                                      {"alpha": field.one(), "beta": beta}))
    t = pres.ring.gen("t")

    t_mat = _diag(field, [lam - field.from_int(k) * beta for k in range(p)])
    x_mat = _sub_diag(field, p, [zeta] * p, wrap=True, offset=1)
    y_mat = _sub_diag(field, p, [zeta.inv() * (lam - field.from_int(k - 1) * beta)
                                 for k in range(p)], wrap=True, offset=-1)

    r0 = pres.ring.one()
    for k in range(1, p):
        r0 = r0 * (t - pres.ring.scalar(lam - field.from_int(k) * beta))
    reps = [r0]
    for k in range(1, p):
        reps.append(pres.phis[0].apply(reps[-1]))
    w = [field.one()] * p
    Q_gen = t ** p - t * beta ** (p - 1) - pres.ring.scalar(lam ** p - lam * beta ** (p - 1))
    V = _finish_module(pres, (zeta,), [Q_gen], {"t": t_mat}, [x_mat], [y_mat],
                       w, reps, [f"v{k}" for k in range(p)])

    y_scalar = zeta.inv() ** p * (lam ** p - lam * beta ** (p - 1))
    central = [
        ("x_power", pres.X(0, p), zeta ** p),
        ("y_power", pres.Y(0, p), y_scalar),
    ]
    claims = _standard_claims(V, central, True)
    name = "T8.9" if weyl else "T8.7"
    return V, ClaimsReport(name, dict(tspec.params), claims)


def _module_T89(tspec):
    return _module_T87(tspec, weyl=True)


# -- T9: Smith algebras in characteristic p ----------------------------------


def _module_T9(tspec):
    field = tspec.field
    p = field.characteristic()
    _require(p > 2, "the theorem needs characteristic p > 2")
    theta = tspec.params["theta"]
    lam = tspec.params["lam"]
    zeta = _nonzero(tspec, "zeta")
    fam = FamilySpec("smith", field, {"s": list(tspec.params["s"])})
    pres = build_family(fam)
    r_coeffs = pres.meta["r"]
    R = pres.ring
    h, c = R.gen("h"), R.gen("c")
    half = field.from_int(2).inv()

    def r_at(x: FieldElement) -> FieldElement:
        out = field.zero()
        power = field.one()
        for coeff in r_coeffs:
            out = out + power * coeff
            power = power * x
        return out

    h_mat = _diag(field, [lam + field.from_int(k) for k in range(p)])
    c_mat = _diag(field, [theta] * p)
    x_mat = _sub_diag(field, p, [zeta] * p, wrap=True, offset=1)
    y_mat = _sub_diag(field, p,
                      [half * zeta.inv() * (theta - r_at(lam + field.from_int(k)))
                       for k in range(p)], wrap=True, offset=-1)

    r0 = R.one()
    for k in range(1, p):
        r0 = r0 * (h - R.scalar(lam + field.from_int(k)))
    reps = [r0]
    for k in range(1, p):
        reps.append(pres.phis[0].apply(reps[-1]))
    w = [field.one()] * p
    Q_gens = [c - R.scalar(theta),
              h ** p - h - R.scalar(lam ** p - lam)]
    V = _finish_module(pres, (zeta,), Q_gens, {"h": h_mat, "c": c_mat},
                       [x_mat], [y_mat], w, reps, [f"v{k}" for k in range(p)])

    y_scalar = zeta.inv() ** p * half
    for k in range(p):
        y_scalar = y_scalar * (theta - r_at(lam + field.from_int(k)))
    central = [
        ("x_power", pres.X(0, p), zeta ** p),
        ("y_power", pres.Y(0, p), y_scalar),
        ("casimir", pres.embed_ring(c), theta),
    ]
    claims = _standard_claims(V, central, True)
    return V, ClaimsReport("T9", dict(tspec.params), claims)


# -- T10: quantum Smith algebras at a root of unity ---------------------------


def _module_T10(tspec):
    field = tspec.field
    m = int(tspec.params["m"])
    q = _nonzero(tspec, "q")
    theta = tspec.params["theta"]
    lam = _nonzero(tspec, "lam")
    zeta = _nonzero(tspec, "zeta")
    ell = element_order(q ** 2)
    _require(ell is not None and ell >= 2, "q^2 must be a primitive root of unity")
    _require(ell != m, "the theorem requires ell != m")
    fam = FamilySpec("quantum_smith", field, {"m": m, "q": q})
    pres = build_family(fam)
    R = pres.ring
    c, K = R.gen("c"), R.gen("K")

    qm = q ** m
    denom = ((qm - qm.inv()) * (q - q.inv())).inv()

    def y_coeff(j: int) -> FieldElement:
        # forced by Y v_j = zeta^{-j} X^{j-1} phi^{-(j-1)}(t) v_0: the exponent
        # is (2j-1)m; over a full period the Y^ell product is unchanged
        qpow = q ** ((2 * j - 1) * m)
        term = (lam ** m * qpow + lam.inv() ** m * qpow.inv()) * denom
        return zeta.inv() * (theta - term)

    k_mat = _diag(field, [lam * q ** (2 * j) for j in range(ell)])
    c_mat = _diag(field, [theta] * ell)
    x_mat = _sub_diag(field, ell, [zeta] * ell, wrap=True, offset=1)
    y_mat = _sub_diag(field, ell, [y_coeff(j) for j in range(ell)], wrap=True, offset=-1)

    r0 = R.zero()
    for j in range(ell):
        r0 = r0 + R.gen("K", j) * lam.inv() ** j
    reps = [r0]
    for j in range(1, ell):
        reps.append(pres.phis[0].apply(reps[-1]))
    w = [field.one()] * ell
    Q_gens = [c - R.scalar(theta),
              R.gen("K", ell) - R.scalar(lam ** ell),
              R.gen("K", -ell) - R.scalar(lam.inv() ** ell)]
    V = _finish_module(pres, (zeta,), Q_gens, {"c": c_mat, "K": k_mat},
                       [x_mat], [y_mat], w, reps, [f"v{j}" for j in range(ell)])

    y_scalar = zeta.inv() ** ell
    for j in range(ell):
        y_scalar = y_scalar * (theta - (lam ** m * q ** ((2 * j + 1) * m)
                                        + lam.inv() ** m * q.inv() ** ((2 * j + 1) * m)) * denom)
    central = [
        ("x_power", pres.X(0, ell), zeta ** ell),
        ("y_power", pres.Y(0, ell), y_scalar),
        ("casimir", pres.embed_ring(c), theta),
    ]
    claims = _standard_claims(V, central, True)
    return V, ClaimsReport("T10", dict(tspec.params), claims)


# ---------------------------------------------------------------------------
# cross-checks and family fact suites


def uqsl2_equals_quantum_smith(field: FieldSpec, q: FieldElement) -> bool:
    """The U_q(sl2) presentation coincides with quantum Smith at m = 1."""
    a = build_family(FamilySpec("uqsl2", field, {"q": q}))
    direct_t = a.ring.gen("c") - (a.ring.gen("K") * q + a.ring.gen("K", -1) * q.inv()) \
        * ((q - q.inv()) ** 2).inv()
    return a.ts[0] == direct_t


def smith_weyl_correspondence(p: int, lam: FieldElement, zeta: FieldElement) -> bool:
    """Setting theta = 0 in the Smith module for s = -1 (r = -2x) recovers the
    characteristic-p Weyl module after t' = h + 1 and a shift of lambda."""
    field = prime_field(p)
    s = [field.from_int(-1)]
    smith_spec = TheoremModuleSpec("T9", field, {
        "s": s, "theta": field.zero(), "lam": lam, "zeta": zeta})
    V_smith, rep_smith = build_theorem_module(smith_spec)
    if not rep_smith.all_green:
        return False
    weyl_spec = TheoremModuleSpec("T8.9", field, {
        "lam": lam + field.one(), "zeta": zeta})
    V_weyl, rep_weyl = build_theorem_module(weyl_spec)
    if not rep_weyl.all_green:
        return False
    ms, mw = V_smith.realization, V_weyl.realization
    h = ms.gen_mats["h"]
    t_prime = [[h[i][j] + (field.one() if i == j else field.zero())
                for j in range(p)] for i in range(p)]
    return (t_prime == mw.gen_mats["t"]
            and ms.x_rows[0] == mw.x_rows[0]
            and ms.y_rows[0] == mw.y_rows[0])


# the exponent bound of the family center search
CENTER_BOUND = 6


def _only_shifts(pres: GwaPresentation) -> bool:
    """In characteristic 0, each phi_i moves one generator alone, by a nonzero
    scalar shift, and every generator is moved.  Then for a nonzero f in a
    stable ideal, f - phi_i(f) is nonzero of lower degree in the generator
    phi_i moves, so every nonzero stable ideal holds a nonzero constant."""
    ring = pres.ring
    if ring.field.characteristic() or any(ring.laurent):
        return False
    moved = set()
    for phi in pres.phis:
        names = [g for g in ring.gens if phi.images[g] != ring.gen(g)]
        shape = affine_shape(phi, names[0]) if len(names) == 1 else None
        if shape is None or not shape[0].is_one() or shape[1].as_scalar() is None or shape[1].is_zero():
            return False
        moved.add(names[0])
    return moved == set(ring.gens)


def verify_family_facts(spec: FamilySpec) -> ClaimsReport:
    """Family-level fact suite: the center, stable ideals of the Weyl algebra,
    and the small explicit modules of the quantum plane and quantum Weyl algebra."""
    pres = build_family(spec)
    field = spec.field
    claims = []

    report = center_generators(pres, CENTER_BOUND)
    ok = all(is_central(pres, g) for g in report.generators)
    claims.append(Claim("center", "center generators commute with everything", ok,
                        f"{len(report.generators)} generators, complete={report.complete}"))

    if spec.tag == "weyl" and field.characteristic() == 0:
        claims.append(Claim("no_proper_ideals",
                            "each phi_i shifts t_i alone by a nonzero scalar in characteristic 0, "
                            "so the only stable ideals are 0 and (1): every Whittaker module is simple",
                            _only_shifts(pres)))

    if spec.tag == "quantum_weyl":
        q = spec.params["q"]
        if element_order(q) is None:
            tilde = tilde_t(pres)
            V = build_module(pres, [tilde], (field.one(),))
            model = V.realization
            om1 = (field.one() - q).inv()
            ok = (model.dim == 1
                  and model.gen_mats["t"][0][0] == om1
                  and model.y_mats[0][0][0] == om1
                  and model.x_mats[0][0][0] == field.one())
            claims.append(Claim("one_dim_module",
                                "t w = (1-q)^{-1} w and Y w = zeta^{-1}(1-q)^{-1} w", ok))
        else:
            ell = element_order(q)
            theta = field.from_int(1)
            zeta = field.one()
            tspec = TheoremModuleSpec("T8.5", field, {
                "alpha": q.inv(), "beta": -q.inv(), "theta": theta, "zeta": zeta})
            V, rep = build_theorem_module(tspec)
            model = V.realization
            om1 = (field.one() - q).inv()
            ok = rep.all_green
            t, x, y = model.gen_mats["t"], model.x_mats[0], model.y_mats[0]
            for k in range(model.dim):
                kk = (k + 1) % model.dim
                if t[kk][k] != q * om1 * theta:
                    ok = False
                if t[k][k] != om1:
                    ok = False
                if x[k][k] != zeta * q ** (-k):
                    ok = False
                if y[kk][k] != zeta.inv() * q ** (k + 1) * om1 * theta:
                    ok = False
                if y[k][k] != zeta.inv() * q ** (k + 1) * om1 * q.inv():
                    ok = False
            claims.append(Claim("root_of_unity_module",
                                "the ell-dimensional module matches the displayed action", ok))
            # the one-dimensional case at a root of unity
            tspec2 = TheoremModuleSpec("T8.5", field, {
                "alpha": q.inv(), "beta": -q.inv(), "theta": None, "zeta": zeta})
            V2, rep2 = build_theorem_module(tspec2)
            m2 = V2.realization
            ok2 = (rep2.all_green and m2.gen_mats["t"][0][0] == om1
                   and m2.y_mats[0][0][0] == zeta.inv() * om1)
            claims.append(Claim("one_dim_module",
                                "t w = (1-q)^{-1} w and Y w = zeta^{-1}(1-q)^{-1} w", ok2))

    if spec.tag == "quantum_plane":
        q = spec.params["q"]
        if element_order(q) is None:
            tilde = tilde_t(pres)
            V = build_module(pres, [tilde], (field.one(),))
            model = V.realization
            ok = (model.dim == 1
                  and model.gen_mats["t"][0][0].is_zero()
                  and model.y_mats[0][0][0].is_zero()
                  and model.x_mats[0][0][0] == field.one())
            claims.append(Claim("one_dim_module", "X w = zeta w, Y w = 0, t w = 0", ok))

    if spec.tag == "smith":
        ok = _telescopes(pres)
        r = format_ring_element(eval_poly(pres.meta["r"], pres.ring.gen("h")))
        claims.append(Claim("telescoping", "s(x) = (r(x+1) - r(x))/2 with r(0) = 0", ok,
                            "" if ok else f"r(h) = {r}"))

    if spec.tag in ("quantum_smith", "uqsl2"):
        q = spec.params["q"]
        claims.append(Claim("uqsl2_match", "U_q(sl2) coincides with quantum Smith at m = 1",
                            uqsl2_equals_quantum_smith(field, q)))

    return ClaimsReport(f"family:{spec.tag}", dict(spec.params), claims)
