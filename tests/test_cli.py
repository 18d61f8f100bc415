import json
import os
import random
import subprocess
import sys

import pytest

from gwa.catalog import default_grid
from gwa.cli import EXIT_CONFIG, EXIT_PIPE, MAX_DEGREE, build_arg_parser, main
from gwa.core import format_element
from gwa.parser import MAX_DIGITS, MAX_EXPONENT, parse_element

from util import random_gwa_element, weyl1

WEYL1 = {"field": {"field": "Q"}, "ring": {"vars": ["t"], "laurent": [False]},
         "automorphisms": [{"t": "t-1"}], "t": ["t"]}
QWEYL = {"field": {"field": "Q(q)"}, "family": "quantum_weyl", "q": "q"}
DOUBLING = {"field": {"field": "Q"}, "ring": {"vars": ["t"], "laurent": [False]},
            "automorphisms": [{"t": "2*t"}], "t": ["t"]}
SMITH5 = {"field": {"field": "Fp", "p": 5}, "family": "smith", "s": "2*x"}
QSMITH6 = {"field": {"field": "cyclotomic", "n": 6}, "family": "quantum_smith", "q": "zeta6", "m": 1}


@pytest.fixture
def config(tmp_path):
    def write(data):
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_weyl_commutator(config, capsys):
    path = config(WEYL1)
    code, out, _ = run(capsys, "--config", path, "normalize", "Y*X - X*Y")
    assert code == 0
    assert out.strip() == "1"


def test_normalize_quantum_weyl(config, capsys):
    path = config(QWEYL)
    code, out, _ = run(capsys, "--config", path, "normalize", "Y*X")
    assert code == 0
    assert out.strip() == "t"


def test_normalize_parse_error_exit2(config, capsys):
    path = config(WEYL1)
    code, _, err = run(capsys, "--config", path, "normalize", "X^-1")
    assert code == 2
    assert "position" in err


def test_normalize_superscript_digit_is_parse_error(config, capsys):
    # "²" is a digit to str.isdigit but not a decimal, so int() must never see it
    path = config(WEYL1)
    code, out, err = run(capsys, "--config", path, "normalize", "\u00b2*X")
    assert code == 2 and out == ""
    assert "unexpected character" in err and "position 0" in err


def test_normalize_exponent_over_the_cap_is_parse_error(config, capsys):
    # only the cap plus one is tried: a larger exponent under a broken cap never finishes
    path = config(WEYL1)
    for text in (f"X^{MAX_EXPONENT + 1}", f"t^{MAX_EXPONENT + 1}*X", f"2^-{MAX_EXPONENT + 1}"):
        code, out, err = run(capsys, "--config", path, "normalize", text)
        assert code == 2 and out == ""
        assert f"exponent exceeds the limit {MAX_EXPONENT}" in err
    assert f"position {text.index('-') + 1}" in err


def test_normalize_literal_over_the_digit_cap_is_parse_error(config, capsys):
    path = config(WEYL1)
    code, out, err = run(capsys, "--config", path, "normalize", "3*X + " + "1" * (MAX_DIGITS + 1) + "*X")
    assert code == 2 and out == ""
    assert f"integer literal longer than {MAX_DIGITS} digits" in err and "position 6" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="integers print at any length before Python 3.11")
def test_normalize_scalar_too_long_to_print_is_one_error_line(config, capsys):
    # each literal is within the digit cap, but their product is not
    path = config(WEYL1)
    code, out, err = run(capsys, "--config", path, "normalize", f"({'9' * MAX_DIGITS})^2*X")
    assert code == 1 and out == ""
    assert err == "error: a Q scalar has too many digits to print\n"


def test_normalize_config_error_exit3(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "--config", missing, "normalize", "X")
    assert code == 3


@pytest.mark.parametrize("env, argv", [
    ("abc", ()),
    ("-1", ()),
    (str(MAX_DEGREE + 1), ()),
    (None, ("--degree", "-1")),
    (None, ("--degree", str(MAX_DEGREE + 1))),
])
def test_degree_bound_out_of_range_is_config_error(config, capsys, monkeypatch, env, argv):
    path = config(WEYL1)
    if env is None:
        monkeypatch.delenv("GWA_TRUNCATION", raising=False)
    else:
        monkeypatch.setenv("GWA_TRUNCATION", env)
    code, out, err = run(capsys, "--config", path, *argv, "center")
    assert code == EXIT_CONFIG
    assert out == "" and err.startswith("config error:") and err.count("\n") == 1


def test_normalize_json_round_trip(config, capsys):
    path = config(WEYL1)
    pres = weyl1()
    rng = random.Random(41)
    for _ in range(20):
        elt = random_gwa_element(rng, pres)
        text = format_element(elt)
        # "--" keeps argparse from reading a leading minus sign as a flag
        code, out, _ = run(capsys, "--config", path, "normalize", "--", text)
        assert code == 0
        assert parse_element(pres, out.strip()) == elt


def test_ideals_classify(config, capsys):
    path = config(DOUBLING)
    code, out, _ = run(capsys, "--config", path, "--degree", "3", "--json",
                       "ideals", "classify")
    assert code == 0
    data = json.loads(out)
    assert data["regime"] == "powers"
    assert data["proper_nonzero"] == ["t", "t^2", "t^3"]
    assert data["maximal_proper"] == ["t"]


def test_ideals_stable_check_false_with_witness(config, capsys):
    path = config(WEYL1)
    code, out, _ = run(capsys, "--config", path, "--json", "ideals", "stable-check", "t")
    assert code == 0
    data = json.loads(out)
    assert data["stable"] is False
    assert data["witness"]["image"] == "t - 1"


def test_ideals_central_smith_char5(config, capsys):
    path = config(SMITH5)
    code, out, _ = run(capsys, "--config", path, "--json", "ideals", "central", "c-2,h^5-h-3")
    assert code == 0
    assert json.loads(out) == {"centrally_generated": True,
                               "central_generators": ["c + 3", "h^5 + 4*h + 2"]}


def test_ideals_central_needs_a_stable_ideal_exit1(config, capsys):
    path = config(WEYL1)
    code, out, err = run(capsys, "--config", path, "--json", "ideals", "central", "t")
    assert code == 1
    assert out == ""
    assert "escapes the ideal" in err


# one automorphism negating both generators: x*z is invariant, but the
# per-generator invariants x^2 and z^2 miss it
NEGATE_XZ = {"field": {"field": "Q"}, "ring": {"vars": ["x", "z"], "laurent": [False, False]},
             "automorphisms": [{"x": "-x", "z": "-z"}], "t": ["x"]}


def test_ideals_central_refuses_an_automorphism_moving_two_generators_exit1(config, capsys):
    path = config(NEGATE_XZ)
    code, out, err = run(capsys, "--config", path, "--json", "ideals", "central", "x*z")
    assert code == 1
    assert out == ""
    assert "one automorphism moves x, z" in err


def test_ideals_closure_reaches_unit(config, capsys):
    path = config(WEYL1)
    code, out, _ = run(capsys, "--config", path, "--json", "ideals", "closure", "t")
    assert code == 0
    data = json.loads(out)
    assert data["is_unit_ideal"] is True


def test_module_build_smith_char5(config, capsys):
    path = config(SMITH5)
    code, out, _ = run(capsys, "--config", path, "--json",
                       "module", "--zeta", "1",
                       "--annihilator", "c-1,h^5-h", "build")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 5
    assert data["matrices"]["c"][0][0] == "1"


def test_module_ann_w(config, capsys):
    path = config(WEYL1)
    code, out, _ = run(capsys, "--config", path, "--json",
                       "module", "--zeta", "2", "ann-w", "X - 2")
    assert code == 0
    assert json.loads(out)["member"] is True


def test_module_ann_w_laurent_residue(config, capsys):
    # the residue of a*w keeps negative powers of K; membership in Q must still be exact
    path = config(QSMITH6)
    for text, member in (("K^-1*c-2*K^-1", True), ("K^-5*(c-2)*X", True),
                         ("Y*K^-2*(c-2)", True), ("K^-1", False)):
        code, out, _ = run(capsys, "--config", path, "--json",
                           "module", "--annihilator", "c-2", "ann-w", text)
        assert code == 0
        assert json.loads(out)["member"] is member, text


def test_module_act_laurent_residue(config, capsys):
    # the residue of a*w is canonical even when it carries negative powers of K
    path = config(QSMITH6)
    for text, residue in (("K^-1*(c-2)", "0"), ("K^-1*c", "2*K^-1")):
        code, out, _ = run(capsys, "--config", path, "--json",
                           "module", "--annihilator", "c-2", "act", text)
        assert code == 0
        assert json.loads(out)["on_w"] == residue, text


def test_whittaker_vectors_needs_a_finite_module_exit4(config, capsys):
    # the universal Weyl module, and quantum Smith over (c - 2) with K free:
    # both have infinite R/Q
    for data, annihilator in ((WEYL1, []), (QSMITH6, ["--annihilator", "c-2"])):
        code, out, err = run(capsys, "--config", config(data), "module", "--zeta", "1",
                             *annihilator, "whittaker-vectors")
        assert code == 4 and out == ""
        assert err == ("unsupported ring: whittaker-vectors needs a finite-dimensional module "
                       "(an annihilator with finite R/Q)\n")


def test_closed_stdout_exits_quietly(config):
    # the reader's end of the pipe is closed before the command writes anything
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "gwa.cli", "--config", config(QSMITH6), "--json",
                             "module", "--annihilator", "c-2,K^3-2", "build"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_PIPE
    assert err == b""


def test_module_build_prints_the_saturated_annihilator(config, capsys):
    path = config(QSMITH6)
    code, out, _ = run(capsys, "--config", path, "--json", "module", "--annihilator", "K*(c-2)", "build")
    assert code == 0
    assert json.loads(out)["annihilator_generators"] == ["c - 2"]


def _fixed(field):
    """F[t] with phi = id and t_1 = t: every ideal is phi-stable, so V = R/Q is
    simple exactly when R/Q is a field."""
    return {"field": field, "ring": {"vars": ["t"], "laurent": [False]},
            "automorphisms": [{"t": "t"}], "t": ["t"]}


FIXED_Q, FIXED_F2, FIXED_F3, FIXED_F17 = (_fixed(f) for f in (
    {"field": "Q"}, {"field": "Fp", "p": 2}, {"field": "Fp", "p": 3}, {"field": "Fp", "p": 17}))


@pytest.mark.parametrize("algebra, annihilator, verdict, witness_dim", [
    (FIXED_Q, "(t^2+1)^2", "not_simple", 2),     # sqrt(Q)/Q = (t^2+1)/(t^2+1)^2
    (FIXED_Q, "t^2+1", "simple", None),          # R/Q = Q(i)
    (FIXED_Q, "t^2-1", "not_simple", 1),         # R/Q = Q x Q
    (DOUBLING, "t^3", "not_simple", 2),          # sqrt(Q)/Q = (t)/(t^3)
    (FIXED_F3, "t^9+t^3", "not_simple", 6),      # (t^3+t)^3: f' = 0, a cube
    (FIXED_F3, "t^4-t^3", "not_simple", 2),      # t^3 (t-1): t divides gcd(f, f') only
    (FIXED_F17, "t^2-2", "not_simple", 1),       # 6^2 = 2 mod 17
    (FIXED_F17, "t^2-3", "simple", None),        # 3 is not a square mod 17
    (FIXED_F2, "t^2+t", "not_simple", 1),
    (FIXED_F2, "t^2+t+1", "simple", None),
])
def test_module_simple_decides_by_the_radical_and_end(config, capsys, algebra, annihilator,
                                                      verdict, witness_dim):
    """The radical test and the quadratic End(V) = F[c] decide each case; a
    witness spans sqrt(Q)/Q or an eigenspace of c."""
    path = config(algebra)
    code, out, _ = run(capsys, "--config", path, "--json", "module", "--zeta", "1",
                       "--annihilator", annihilator, "simple")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == verdict
    if witness_dim is None:
        assert payload["certificate"].startswith("Ann_R(w) is radical and ")
    else:
        assert len(payload["submodule"]) == witness_dim


def test_module_simple_and_whittaker_vectors(config, capsys):
    path = config(SMITH5)
    code, out, _ = run(capsys, "--config", path, "--json",
                       "module", "--zeta", "1",
                       "--annihilator", "c-1,h^5-h", "simple")
    assert code == 0
    assert json.loads(out)["verdict"] == "simple"
    code, out, _ = run(capsys, "--config", path, "--json",
                       "module", "--zeta", "1",
                       "--annihilator", "c-1,h^5-h", "whittaker-vectors")
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_module_endo(config, capsys):
    path = config(SMITH5)
    code, out, _ = run(capsys, "--config", path, "--json",
                       "module", "--zeta", "1",
                       "--annihilator", "c-1,h^5-h", "endo")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 1 and data["matches_S_over_Q"] is True


def test_verify_t89_green(config, capsys):
    code, out, _ = run(capsys, "--json", "verify", "T8.9",
                       "--grid", json.dumps([{"p": 3, "lam": "0", "zeta": "1"}]))
    assert code == 0
    data = json.loads(out)
    assert data["all_green"] is True


def test_verify_hypothesis_violated_exit5(config, capsys):
    code, _, err = run(capsys, "--json", "verify", "T8.5",
                       "--grid", json.dumps([
                           {"cyclotomic": 3, "alpha": "zeta3", "beta": "1",
                            "theta": "0", "zeta": "1"}]))
    assert code == 5
    assert "hypothesis" in err


def test_center_command(config, capsys):
    path = config(SMITH5)
    code, out, _ = run(capsys, "--config", path, "--json", "--degree", "5", "center")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True
    assert "c" in data["generators"]
    assert "X^5" in data["generators"]


def test_center_is_partial_when_one_automorphism_moves_two_generators(config, capsys):
    path = config(NEGATE_XZ)
    code, out, _ = run(capsys, "--config", path, "--json", "center")
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is False
    assert data["generators"] == ["X^2", "Y^2"]


def test_family_facts_command(config, capsys):
    path = config(QWEYL)
    code, out, _ = run(capsys, "--config", path, "--json", "family-facts")
    assert code == 0
    assert json.loads(out)["all_green"] is True


def test_deterministic_output(config, capsys):
    path = config(SMITH5)
    _, out1, _ = run(capsys, "--config", path, "--json",
                     "module", "--zeta", "1", "--annihilator", "c-1,h^5-h", "build")
    _, out2, _ = run(capsys, "--config", path, "--json",
                     "module", "--zeta", "1", "--annihilator", "c-1,h^5-h", "build")
    assert out1 == out2


def test_main_twice_in_one_process(config, capsys, monkeypatch):
    # the parser is built once per process, but GWA_TRUNCATION is read on
    # every call, and an explicit --degree still wins
    path = config(DOUBLING)

    def classify(*extra):
        code, out, _ = run(capsys, "--config", path, "--json", "ideals", "classify", *extra)
        assert code == 0
        return json.loads(out)["proper_nonzero"]

    monkeypatch.setenv("GWA_TRUNCATION", "3")
    assert classify() == ["t", "t^2", "t^3"]
    code, out, _ = run(capsys, "--config", path, "normalize", "Y*X")
    assert code == 0 and out.strip() == "t"
    monkeypatch.setenv("GWA_TRUNCATION", "2")
    assert classify() == ["t", "t^2"]
    assert classify("--degree", "1") == ["t"]
    monkeypatch.delenv("GWA_TRUNCATION")
    assert classify() == ["t", "t^2", "t^3", "t^4"]
    assert build_arg_parser() is build_arg_parser()


GOLDEN_VERIFY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "golden_verify.json")


def _golden_subset_diff(golden, actual, path="$"):
    """First place where `actual` disagrees with `golden`; keys only `actual` has are ignored."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in golden.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            diff = _golden_subset_diff(value, actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return f"{path}: expected a list of {len(golden)}"
        for i, (g, a) in enumerate(zip(golden, actual)):
            diff = _golden_subset_diff(g, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if golden == actual else f"{path}: {actual!r} != {golden!r}"


@pytest.mark.parametrize("theorem", ["T8.3", "T8.5", "T8.7", "T8.9", "T9", "T10"])
def test_verify_default_grid_matches_golden(capsys, theorem):
    # the golden file holds one `verify --grid [point] --json` output per
    # default point, keyed by the point; match the default grid's points to
    # them by field and parameters
    with open(GOLDEN_VERIFY) as fh:
        golden = json.load(fh)
    expected = {}
    for key, doc in golden.items():
        name, grid_point = key.split(" ", 1)
        if name == theorem:
            grid_point = json.loads(grid_point)
            field = (f"F{grid_point['p']}" if "p" in grid_point else
                     f"Q(zeta{grid_point['cyclotomic']})" if "cyclotomic" in grid_point else "Q")
            (point,) = doc["points"]
            expected[field, json.dumps(point["params"], sort_keys=True)] = point
    fields = [repr(spec.field) for spec in default_grid(theorem)]
    code, out, _ = run(capsys, "verify", theorem, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_green"] and doc["theorem"] == theorem
    assert len(doc["points"]) == len(fields) == len(expected)
    for field, point in zip(fields, doc["points"]):
        want = expected.pop((field, json.dumps(point["params"], sort_keys=True)))
        assert _golden_subset_diff(want, point) is None


GOLDEN_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
with open(GOLDEN_CLI) as _fh:
    CLI_CASES = json.load(_fh)


@pytest.mark.parametrize("case", CLI_CASES,
                         ids=[f"{c['family']}: {' '.join(c['argv'][1:])}" for c in CLI_CASES])
def test_cli_matches_golden(config, capsys, case):
    # `family-facts`, `module` and `ideals central` outputs over the catalog
    # families: stdout byte for byte, and the exit code
    path = config(case["config"])
    code, out, _ = run(capsys, "--config", path, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
