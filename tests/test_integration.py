"""Cross-module checks tying the library surfaces together."""

import json

from gwa.catalog import FamilySpec, TheoremModuleSpec, build_family, build_theorem_module
from gwa.cli import main
from gwa.field import rationals
from gwa.ideals import phi_stable_ideal
from gwa.parser import parse_element
from gwa.whittaker import ann_V_check, whittaker_vectors

Q = rationals()


def test_field_operators():
    assert Q.from_int(1) + Q.from_int(2) == Q.from_int(3)
    assert Q.from_int(2).inv() == Q.from_fraction(__import__("fractions").Fraction(1, 2))
    assert (Q.one() == Q.one()) is True
    assert Q.from_int(2) ** 3 == Q.from_int(8)


def test_ring_operators():
    from gwa.ring import BaseRing

    R = BaseRing(Q, ["t"])
    t = R.gen("t")
    assert (t - R.one()) * (t + R.one()) == t * t - R.one()
    assert t ** 3 == t * t * t


def test_parse_weyl_a2_names():
    pres = build_family(FamilySpec("weyl", Q, {"n": 2}))
    elt = parse_element(pres, "Y1*X1 - X1*Y1 + Y2*X2 - X2*Y2")
    assert elt == pres.scalar(Q.from_int(2))
    mixed = parse_element(pres, "X1*Y2 - Y2*X1")
    assert mixed.is_zero()


def test_ann_V_symbolic_smith_char0():
    # the infinite-dimensional module R/(c - theta): Ann_A(V) = A(c - theta)
    from gwa.whittaker import ann_V_check, build_module

    smith = build_family(FamilySpec("smith", Q, {"s": [Q.zero(), Q.from_int(2)]}))
    ring = smith.ring
    J = phi_stable_ideal(ring, smith.phis, [ring.gen("c") - ring.scalar(Q.from_int(3))])
    V = build_module(smith, J, (Q.one(),))
    assert not V.is_matrix
    res = ann_V_check(V, [smith.embed_ring(g) for g in J.generators], degree=3)
    assert res.ok


def test_cli_module_act(tmp_path, capsys):
    config = tmp_path / "alg.json"
    config.write_text(json.dumps({
        "field": {"field": "Q"}, "ring": {"vars": ["t"], "laurent": [False]},
        "automorphisms": [{"t": "2*t"}], "t": ["t"]}))
    code = main(["--config", str(config), "--json", "module", "--zeta", "1",
                 "--annihilator", "t^2", "act", "Y"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    # Y.w = zeta^{-1} t w: the coordinate of t in the monomial basis {1, t}
    assert data["on_w"] == ["0", "1"]


def test_t83_whittaker_vector_types():
    # v_k is a Whittaker vector of type alpha^k zeta
    spec = TheoremModuleSpec("T8.3", Q, {"alpha": Q.from_int(2), "beta": Q.one(),
                                         "n": 3, "zeta": Q.one()})
    V, _ = build_theorem_module(spec)
    for k in range(3):
        basis = whittaker_vectors(V, (Q.from_int(2) ** k,))
        assert len(basis) == 1
        support = [j for j, c in enumerate(basis[0]) if not c.is_zero()]
        assert support == [k]


def test_cli_truncation_env(tmp_path, capsys, monkeypatch):
    config = tmp_path / "alg.json"
    config.write_text(json.dumps({
        "field": {"field": "Q"}, "ring": {"vars": ["t"], "laurent": [False]},
        "automorphisms": [{"t": "2*t"}], "t": ["t"]}))
    monkeypatch.setenv("GWA_TRUNCATION", "2")
    code = main(["--config", str(config), "--json", "ideals", "classify"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["proper_nonzero"] == ["t", "t^2"]


def test_library_has_no_bare_asserts():
    # `python -O` strips assert statements, so library checks must raise instead
    import ast
    import pathlib

    import gwa

    offenders = []
    for path in sorted(pathlib.Path(gwa.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
