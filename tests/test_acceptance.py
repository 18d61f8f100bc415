"""Acceptance suite: one test per criterion, printed as a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact; there are no tolerances anywhere.
"""

import json
import random
import zlib

import pytest

from gwa.catalog import (
    FamilySpec,
    TheoremModuleSpec,
    build_family,
    build_theorem_module,
    default_grid,
    smith_weyl_correspondence,
    tilde_t,
    uqsl2_equals_quantum_smith,
    verify_family_facts,
)
from gwa.cli import main
from gwa.core import center_generators, format_element, gwa_mul, is_central, ykxl_collapse
from gwa.errors import NotAWhittakerPair
from gwa.field import cyclotomic_field, prime_field, rational_functions, rationals
from gwa.ideals import _all_monic, classify_univariate, ideal_equal_gens, is_phi_stable, phi_stable_ideal
from gwa.parser import parse_element
from gwa.whittaker import (
    build_module,
    endo_ring,
    is_simple,
    recover_annihilator,
    ring_monomials,
    thm43_truncated_check,
    universal_act,
    universal_module,
    whittaker_vectors,
)

from dense import rank
from oracle import oracle_mul
from util import random_gwa_element, random_ring_element

Q = rationals()
F3 = prime_field(3)
F5 = prime_field(5)
QQ = rational_functions("q")
Z3 = cyclotomic_field(3)
Z6 = cyclotomic_field(6)


def report(criterion: int, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def acceptance_families():
    return [
        ("weyl_A1", build_family(FamilySpec("weyl", Q, {"n": 1}))),
        ("weyl_A2", build_family(FamilySpec("weyl", Q, {"n": 2}))),
        ("quantum_plane", build_family(FamilySpec("quantum_plane", QQ, {"q": QQ.generator()}))),
        ("quantum_weyl_generic", build_family(FamilySpec("quantum_weyl", QQ, {"q": QQ.generator()}))),
        ("quantum_weyl_l3", build_family(FamilySpec("quantum_weyl", Z3, {"q": Z3.generator()}))),
        ("smith_sl2_char0", build_family(FamilySpec("smith", Q, {"s": [Q.zero(), Q.from_int(2)]}))),
        ("smith_char5", build_family(FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}))),
        ("quantum_smith_l3", build_family(FamilySpec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()}))),
    ]


def test_criterion_1_normal_form_soundness():
    ok = True
    detail = []
    for name, pres in acceptance_families():
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(200):
            a = random_gwa_element(rng, pres, max_z=3, max_degree=3, n_terms=3)
            b = random_gwa_element(rng, pres, max_z=3, max_degree=3, n_terms=3)
            if gwa_mul(a, b).terms != oracle_mul(a, b):
                ok = False
                detail.append(f"{name}: product disagrees with the oracle")
                break
        for _ in range(100):
            a = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
            b = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
            c = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
            if gwa_mul(gwa_mul(a, b), c) != gwa_mul(a, gwa_mul(b, c)):
                ok = False
                detail.append(f"{name}: associativity fails")
                break
    report(1, ok, "; ".join(detail) or "8 families, 200 oracle products + 100 triples each")


def test_criterion_2_collapse_closed_form():
    ok = True
    for name, pres in acceptance_families():
        for i in range(pres.n):
            X, Y = pres.X(i), pres.Y(i)
            for k in range(6):
                for ell in range(6):
                    iterated = pres.one()
                    for _ in range(k):
                        iterated = gwa_mul(iterated, Y)
                    for _ in range(ell):
                        iterated = gwa_mul(iterated, X)
                    if ykxl_collapse(pres, i, k, ell) != iterated:
                        ok = False
    report(2, ok, "Y^k X^l closed form vs iterated relations, 0 <= k,l <= 5, all families")


def test_criterion_3_centers():
    checks = []

    weyl = build_family(FamilySpec("weyl", Q, {"n": 1}))
    rep = center_generators(weyl, 6)
    checks.append(rep.complete and rep.generators == [])

    qw = build_family(FamilySpec("quantum_weyl", Z3, {"q": Z3.generator()}))
    rep = center_generators(qw, 6)
    tilde = tilde_t(qw)
    expected = {qw.X(0, 3), qw.Y(0, 3), qw.embed_ring(tilde ** 3)}
    checks.append(rep.complete and set(rep.generators) == expected)

    for p in (3, 5):
        F = prime_field(p)
        shift = build_family(FamilySpec("univariate_affine", F,
                                        {"alpha": F.one(), "beta": F.one()}))
        rep = center_generators(shift, p)
        t = shift.ring.gen("t")
        expected = {shift.X(0, p), shift.Y(0, p), shift.embed_ring(t ** p - t)}
        checks.append(rep.complete and set(rep.generators) == expected)

    smith = build_family(FamilySpec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]}))
    rep = center_generators(smith, 5)
    ring = smith.ring
    expected = {smith.X(0, 5), smith.Y(0, 5), smith.embed_ring(ring.gen("c")),
                smith.embed_ring(ring.gen("h") ** 5 - ring.gen("h"))}
    checks.append(rep.complete and set(rep.generators) == expected)

    qs = build_family(FamilySpec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()}))
    rep = center_generators(qs, 3)
    ring = qs.ring
    expected = {qs.X(0, 3), qs.Y(0, 3), qs.embed_ring(ring.gen("c")),
                qs.embed_ring(ring.gen("K", 3)), qs.embed_ring(ring.gen("K", -3))}
    checks.append(rep.complete and set(rep.generators) == expected)

    # every generator above was verified central inside center_generators, but
    # assert the commutation once more against the multiplication directly
    for pres, rep_bound in ((weyl, 6), (qw, 6), (smith, 5), (qs, 3)):
        for g in center_generators(pres, rep_bound).generators:
            checks.append(is_central(pres, g))

    report(3, all(checks), "Weyl, A_q1 l=3, char-p shifts, Smith char 5, quantum Smith l=3")


def test_criterion_4_bijection_desk_scale():
    F = F5
    pres = build_family(FamilySpec("univariate_affine", F,
                                   {"alpha": F.from_int(2), "beta": F.zero()}))
    phi = pres.phis[0]
    ring = pres.ring
    reportobj = classify_univariate(phi, 4)
    listed = {frozenset(f.terms.items()) for f in reportobj.monic_generators}
    brute = set()
    for d in range(1, 5):
        for f in _all_monic(ring, "t", d):
            if is_phi_stable([phi], [f]):
                brute.add(frozenset(f.terms.items()))
    sets_match = listed == brute

    zeta = (F.one(),)
    round_trips = True
    for f in reportobj.monic_generators:
        Q_ideal = phi_stable_ideal(ring, [phi], [f])
        V = build_module(pres, Q_ideal, zeta)
        recovered = recover_annihilator(V)
        if not ideal_equal_gens(ring, recovered.generators, Q_ideal.generators):
            round_trips = False
    # the zero ideal: universal module recovers (0); the unit ideal is rejected
    V0 = universal_module(pres, zeta)
    round_trips = round_trips and recover_annihilator(V0).is_zero()
    try:
        build_module(pres, [ring.one()], zeta)
        round_trips = False
    except NotAWhittakerPair:
        pass
    report(4, sets_match and round_trips,
           f"{len(listed)} stable ideals over F_5 match brute force; all round-trip")


def _t83_n2():
    spec = TheoremModuleSpec("T8.3", Q, {"alpha": Q.from_int(2), "beta": Q.one(),
                                         "n": 2, "zeta": Q.one()})
    return build_theorem_module(spec)


def _t89_p3():
    spec = TheoremModuleSpec("T8.9", F3, {"lam": F3.one(), "zeta": F3.one()})
    return build_theorem_module(spec)


def _t9_p3():
    spec = TheoremModuleSpec("T9", F3, {"s": [F3.zero(), F3.from_int(2)],
                                        "theta": F3.one(), "lam": F3.zero(),
                                        "zeta": F3.one()})
    return build_theorem_module(spec)


def test_criterion_5_annw_truncated():
    ok = True
    details = []
    for builder, label in ((_t83_n2, "T8.3 n=2"), (_t89_p3, "T8.9 p=3"), (_t9_p3, "T9 p=3")):
        V, _ = builder()
        res = thm43_truncated_check(V, degree=4)
        if not res.ok:
            ok = False
            details.append(f"{label}: kernel {res.kernel_dim} vs span {res.span_dim}")
    report(5, ok, "; ".join(details) or "AQ + A(X-zeta) matches the annihilator kernel at D=4")


def test_criterion_6_theorem_83():
    ok = True
    details = []
    for beta in (0, 1):
        for n in (1, 2, 3):
            spec = TheoremModuleSpec("T8.3", Q, {
                "alpha": Q.from_int(2), "beta": Q.from_int(beta), "n": n, "zeta": Q.one()})
            V, rep = build_theorem_module(spec)
            if not rep.all_green:
                ok = False
                details.append(f"beta={beta} n={n}: {[c.cid for c in rep.failures()]}")
            verdict = is_simple(V)
            if n == 1 and verdict.kind != "simple":
                ok = False
                details.append(f"n=1 should be simple, got {verdict.kind}")
            if n > 1 and verdict.kind != "not_simple":
                ok = False
                details.append(f"n={n} should expose a submodule")
    report(6, ok, "; ".join(details) or "alpha=2, beta in {0,1}, n in {1,2,3}: all claims green")


def test_criterion_7_theorem_85_and_specializations():
    ok = True
    details = []
    for beta in (0, 1):
        for theta in (1, 2):
            spec = TheoremModuleSpec("T8.5", Z3, {
                "alpha": Z3.generator(), "beta": Z3.from_int(beta),
                "theta": Z3.from_int(theta), "zeta": Z3.one()})
            V, rep = build_theorem_module(spec)
            if not (rep.all_green and V.dim == 3):
                ok = False
                details.append(f"T8.5 beta={beta} theta={theta}: {[c.cid for c in rep.failures()]}")
            if is_simple(V).kind != "simple":
                ok = False
                details.append("T8.5 module not certified simple")
    for fam in (FamilySpec("quantum_plane", QQ, {"q": QQ.generator()}),
                FamilySpec("quantum_weyl", QQ, {"q": QQ.generator()}),
                FamilySpec("quantum_weyl", Z3, {"q": Z3.generator()})):
        rep = verify_family_facts(fam)
        if not rep.all_green:
            ok = False
            details.append(f"{fam.tag}: {[c.cid for c in rep.failures()]}")
    report(7, ok, "; ".join(details) or "l=3 modules, X^l and Y^l scalars, quantum plane/Weyl facts")


def test_criterion_8_char_p_theorems():
    ok = True
    details = []
    for p in (3, 5):
        F = prime_field(p)
        points = [
            TheoremModuleSpec("T8.7", F, {"beta": F.one(), "lam": F.one(), "zeta": F.one()}),
            TheoremModuleSpec("T8.9", F, {"lam": F.zero(), "zeta": F.one()}),
            TheoremModuleSpec("T9", F, {"s": [F.zero(), F.from_int(2)],
                                        "theta": F.one(), "lam": F.one(), "zeta": F.one()}),
        ]
        for spec in points:
            V, rep = build_theorem_module(spec)
            if not (rep.all_green and V.dim == p):
                ok = False
                details.append(f"{spec.theorem} p={p}: {[c.cid for c in rep.failures()]}")
            if is_simple(V).kind != "simple":
                ok = False
                details.append(f"{spec.theorem} p={p}: not certified simple")
        if not smith_weyl_correspondence(p, F.from_int(2), F.one()):
            ok = False
            details.append(f"final-remark correspondence fails at p={p}")
    report(8, ok, "; ".join(details) or "T8.7/T8.9/T9 at p in {3,5}; Smith->Weyl relabeling")


def test_criterion_9_theorem_10():
    ok = True
    details = []
    q = Z6.generator()
    for theta in (0, 2):
        for lam in (1, 2):
            spec = TheoremModuleSpec("T10", Z6, {
                "m": 1, "q": q, "theta": Z6.from_int(theta),
                "lam": Z6.from_int(lam), "zeta": Z6.one()})
            V, rep = build_theorem_module(spec)
            if not (rep.all_green and V.dim == 3):
                ok = False
                details.append(f"theta={theta} lam={lam}: {[c.cid for c in rep.failures()]}")
    if not uqsl2_equals_quantum_smith(Z6, q):
        ok = False
        details.append("U_q(sl2) != quantum Smith at m=1")
    if not uqsl2_equals_quantum_smith(QQ, QQ.generator()):
        ok = False
        details.append("U_q(sl2) != quantum Smith at m=1 over Q(q)")
    report(9, ok, "; ".join(details) or "m=1 l=3 over Q(zeta6); X^3, Y^3 scalars; U_q(sl2) identity")


def test_criterion_10_universal_module():
    ok = True
    details = []
    for name, pres in acceptance_families():
        field = pres.ring.field
        zeta = tuple(field.one() for _ in range(pres.n))
        rng = random.Random(len(name))
        for _ in range(100):
            a = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
            b = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
            r = random_ring_element(rng, pres.ring, max_degree=3, n_terms=2)
            if universal_act(gwa_mul(a, b), r, zeta) != universal_act(a, universal_act(b, r, zeta), zeta):
                ok = False
                details.append(f"{name}: module axiom fails")
                break
        # Ann_R(w_u) = 0 up to degree 6: the monomial actions on 1 stay independent
        monos = ring_monomials(pres.ring, 6)
        coords = {}
        rows = []
        for m in monos:
            r = pres.ring.monomial(m, field.one())
            image = universal_act(pres.embed_ring(r), pres.ring.one(), zeta)
            vec = {}
            for exps, c in image.terms.items():
                coords.setdefault(exps, len(coords))
                vec[exps] = c
            rows.append(vec)
        width = len(coords)
        dense = []
        for vec in rows:
            row = [field.zero()] * width
            for exps, c in vec.items():
                row[coords[exps]] = c
            dense.append(row)
        if rank(dense) != len(monos):
            ok = False
            details.append(f"{name}: a nonzero ring element annihilates w_u")
    report(10, ok, "; ".join(details) or "module axioms x100 per family; Ann_R(w_u)=0 to degree 6")


def test_criterion_11_whittaker_vectors_and_endos():
    ok = True
    details = []
    models = []
    simple_models = []

    V83, _ = _t83_n2()
    models.append(("T8.3 n=2", V83))
    V89, _ = _t89_p3()
    models.append(("T8.9 p=3", V89))
    simple_models.append(("T8.9 p=3", V89))
    V9, _ = _t9_p3()
    models.append(("T9 p=3", V9))
    simple_models.append(("T9 p=3", V9))
    V85, _ = build_theorem_module(TheoremModuleSpec("T8.5", Z3, {
        "alpha": Z3.generator(), "beta": Z3.one(), "theta": Z3.from_int(2), "zeta": Z3.one()}))
    models.append(("T8.5", V85))
    simple_models.append(("T8.5", V85))
    V10, _ = build_theorem_module(TheoremModuleSpec("T10", Z6, {
        "m": 1, "q": Z6.generator(), "theta": Z6.one(), "lam": Z6.one(), "zeta": Z6.one()}))
    models.append(("T10", V10))
    simple_models.append(("T10", V10))

    pres5 = build_family(FamilySpec("univariate_affine", F5,
                                    {"alpha": F5.from_int(2), "beta": F5.zero()}))
    for f in classify_univariate(pres5.phis[0], 4).monic_generators:
        V = build_module(pres5, phi_stable_ideal(pres5.ring, pres5.phis, [f]), (F5.one(),))
        models.append((f"F5 ideal {f!r}", V))

    for label, V in models:
        try:
            whittaker_vectors(V, V.zeta)  # raises if the two routes disagree
        except Exception as exc:
            ok = False
            details.append(f"{label}: routes disagree ({exc})")

    for label, V in ((lbl, v) for lbl, v in models if lbl in ("T8.3 n=2", "T9 p=3")):
        rep = endo_ring(V)
        if not rep.s_matches:
            ok = False
            details.append(f"{label}: commutant != pi(S)")

    for label, V in simple_models:
        if is_simple(V).kind != "simple":
            ok = False
            details.append(f"{label}: expected a Burnside certificate")
            continue
        if len(whittaker_vectors(V, V.zeta)) != 1:
            ok = False
            details.append(f"{label}: dim Wh_zeta != 1 on a simple module")
    report(11, ok, "; ".join(details) or "two-route agreement; endos match pi(S); dim Wh=1 on simples")


def test_criterion_12_cli(tmp_path, capsys):
    ok = True
    details = []

    config = tmp_path / "weyl.json"
    config.write_text(json.dumps({"field": {"field": "Q"},
                                  "ring": {"vars": ["t"], "laurent": [False]},
                                  "automorphisms": [{"t": "t-1"}], "t": ["t"]}))
    from util import weyl1

    pres = weyl1()
    rng = random.Random(97)
    for _ in range(100):
        elt = random_gwa_element(rng, pres, max_z=2, max_degree=2, n_terms=2)
        text = format_element(elt)
        code = main(["--config", str(config), "normalize", "--", text])
        out = capsys.readouterr().out.strip()
        if code != 0 or parse_element(pres, out) != elt:
            ok = False
            details.append(f"round trip failed on {text!r}")
            break

    for theorem in ("T8.3", "T8.5", "T8.7", "T8.9", "T9", "T10"):
        code = main(["--json", "verify", theorem])
        out = capsys.readouterr().out
        if code != 0:
            ok = False
            details.append(f"verify {theorem} exited {code}")
        else:
            data = json.loads(out)
            if not data["all_green"]:
                ok = False
                details.append(f"verify {theorem} has red claims")
    report(12, ok, "; ".join(details) or "100 normalize round-trips; verify green for all six theorems")
