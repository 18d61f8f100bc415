"""Command-line front end.

Commands:  normalize | center | ideals classify/stable-check/central/closure |
module build/act/whittaker-vectors/ann-w/simple/endo | verify <theorem>.
Configuration comes from a JSON file (--config); stdout carries data (JSON
with --json), stderr carries human-readable messages.

Exit codes: 0 success/green, 1 red claims or failed check, 2 expression parse
error, 3 configuration error, 4 unsupported ring, 5 violated theorem
hypothesis, 141 (as for SIGPIPE) stdout closed early by its reader, silently.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .catalog import (
    FAMILY_TAGS,
    FamilySpec,
    TheoremModuleSpec,
    build_family,
    build_theorem_module,
    default_grid,
    verify_family_facts,
)
from .core import GwaPresentation, center_generators, format_element
from .errors import (
    ExprSyntaxError,
    GwaError,
    HypothesisViolated,
    InvalidParameters,
    NotPhiStable,
    UnsupportedRing,
)
from .field import FieldSpec, format_scalar, prime_field, cyclotomic_field
from .linalg import element_rows, mul_vec
from .ideals import (
    classify_univariate,
    ideal_membership_gens,
    is_centrally_generated,
    is_phi_stable,
    phi_stable_closure,
    phi_stable_ideal,
)
from .parser import parse_element, parse_ring_element, parse_scalar
from .ring import Automorphism, BaseRing, format_ring_element
from .whittaker import (
    WhittakerModule,
    ann_w_generators,
    ann_w_member,
    build_module,
    endo_ring,
    is_simple,
    matrix_to_json,
    module_to_json,
    universal_module,
    whittaker_vectors,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_RING = 4
EXIT_HYPOTHESIS = 5
EXIT_PIPE = 141

# the degree bound of --degree and GWA_TRUNCATION; enumerations such as the
# monic polynomials of `ideals classify` over F_p grow exponentially in it
MAX_DEGREE = 32


class ConfigError(GwaError):
    pass


def _degree_bound(args) -> int:
    """--degree, else $GWA_TRUNCATION, else 4; within 0..MAX_DEGREE."""
    if args.degree is not None:
        degree, source = args.degree, "--degree"
    else:
        text = os.environ.get("GWA_TRUNCATION", "4")
        try:
            degree = int(text)
        except ValueError:
            raise ConfigError(f"GWA_TRUNCATION must be an integer, got {text[:40]!r}") from None
        source = "GWA_TRUNCATION"
    if not 0 <= degree <= MAX_DEGREE:
        raise ConfigError(f"{source} must lie in 0..{MAX_DEGREE}, got {degree}")
    return degree


def load_config(path: str) -> GwaPresentation:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return presentation_from_config(data)


def presentation_from_config(data: dict) -> GwaPresentation:
    try:
        field = FieldSpec.from_json(data.get("field", {"field": "Q"}))
    except (KeyError, InvalidParameters) as exc:
        raise ConfigError(f"bad field spec: {exc}") from exc
    if "family" in data:
        return _family_from_config(field, data)
    try:
        ring = BaseRing.from_json(field, data["ring"])
        phis = []
        for images_text in data["automorphisms"]:
            images = {name: parse_ring_element(ring, text)
                      for name, text in images_text.items()}
            for g in ring.gens:
                images.setdefault(g, ring.gen(g))
            phis.append(Automorphism(ring, images))
        ts = [parse_ring_element(ring, text) for text in data["t"]]
        return GwaPresentation(ring, phis, ts)
    except KeyError as exc:
        raise ConfigError(f"config is missing the {exc.args[0]!r} entry") from exc
    except (GwaError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _family_from_config(field: FieldSpec, data: dict) -> GwaPresentation:
    tag = data["family"]
    if tag not in FAMILY_TAGS:
        raise ConfigError(f"unknown family {tag!r}; expected one of {FAMILY_TAGS}")
    params = {}
    try:
        if tag in ("weyl", "heisenberg"):
            params["n"] = int(data.get("n", 1))
        if tag in ("quantum_plane", "quantum_weyl", "quantum_smith", "uqsl2"):
            params["q"] = parse_scalar(field, str(data["q"]))
        if tag == "quantum_smith":
            params["m"] = int(data.get("m", 1))
        if tag == "univariate_affine":
            params["alpha"] = parse_scalar(field, str(data["alpha"]))
            params["beta"] = parse_scalar(field, str(data.get("beta", "0")))
        if tag == "smith":
            params["s"] = _poly_coeffs(field, str(data["s"]))
        return build_family(FamilySpec(tag, field, params))
    except KeyError as exc:
        raise ConfigError(f"family {tag!r} needs the {exc.args[0]!r} parameter") from exc
    except (GwaError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _poly_coeffs(field: FieldSpec, text: str) -> list:
    """A univariate polynomial in x, as ascending coefficients."""
    ring = BaseRing(field, ["x"])
    poly = parse_ring_element(ring, text)
    degree = poly.degree_in("x")
    out = []
    for k in range(max(degree, 0) + 1):
        c = poly.coefficient_of("x", k).as_scalar()
        out.append(c if c is not None else field.zero())
    return out


def _emit(args, payload: dict, plain: str | None = None):
    if args.json or plain is None:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(plain)


def _parse_zeta(pres, text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != pres.n:
        raise ConfigError(f"need {pres.n} zeta value(s), got {len(parts)}")
    return tuple(parse_scalar(pres.ring.field, p) for p in parts)


def _module_from_args(pres, args) -> WhittakerModule:
    zeta = _parse_zeta(pres, args.zeta)
    gens_text = [g for g in (args.annihilator or "").split(",") if g.strip()]
    if not gens_text:
        return universal_module(pres, zeta)
    gens = [parse_ring_element(pres.ring, g) for g in gens_text]
    return build_module(pres, gens, zeta)


# -- subcommand implementations ----------------------------------------------


def cmd_normalize(args) -> int:
    pres = load_config(args.config)
    elt = parse_element(pres, args.expression)
    text = format_element(elt)
    payload = {
        "normal_form": text,
        "terms": [
            {
                "z_exponents": list(alpha),
                "coefficient": format_ring_element(r),
            }
            for alpha, r in sorted(elt.terms.items())
        ],
    }
    _emit(args, payload, text)
    return EXIT_OK


def cmd_center(args) -> int:
    pres = load_config(args.config)
    report = center_generators(pres, args.degree)
    payload = {
        "generators": [format_element(g) for g in report.generators],
        "complete": report.complete,
        "notes": report.notes,
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_ideals(args) -> int:
    pres = load_config(args.config)
    ring = pres.ring
    if args.ideals_cmd == "classify":
        report = classify_univariate(pres.phis[0], args.degree)
        payload = {
            "regime": report.regime,
            "zero_and_unit_ideals": "always phi-stable",
            "proper_nonzero": None if report.monic_generators is None
            else [format_ring_element(f) for f in report.monic_generators],
            "maximal_proper": None if report.maximal_proper is None
            else [format_ring_element(f) for f in report.maximal_proper],
            "maximal_caveat": report.maximal_caveat,
            "notes": report.notes,
        }
        _emit(args, payload)
        return EXIT_OK
    gens = [parse_ring_element(ring, g) for g in args.generators.split(",") if g.strip()]
    if args.ideals_cmd == "stable-check":
        stable = is_phi_stable(pres.phis, gens)
        payload = {"stable": stable}
        if not stable:
            for phi in pres.phis:
                for g in gens:
                    res = ideal_membership_gens(phi.apply(g), ring, gens)
                    if not res.member:
                        payload["witness"] = {
                            "image": format_ring_element(phi.apply(g)),
                            "normal_form": format_ring_element(res.normal_form_witness),
                        }
                        break
                if "witness" in payload:
                    break
        _emit(args, payload)
        return EXIT_OK
    if args.ideals_cmd == "central":
        ok, central = is_centrally_generated(phi_stable_ideal(ring, pres.phis, gens))
        payload = {"centrally_generated": ok,
                   "central_generators": [format_ring_element(g) for g in central]}
        _emit(args, payload)
        return EXIT_OK
    if args.ideals_cmd == "closure":
        closure = phi_stable_closure(gens, pres.phis)
        payload = {"generators": [format_ring_element(g) for g in closure.generators],
                   "is_unit_ideal": closure.is_unit()}
        _emit(args, payload)
        return EXIT_OK
    raise ConfigError(f"unknown ideals subcommand {args.ideals_cmd!r}")


def cmd_module(args) -> int:
    pres = load_config(args.config)
    V = _module_from_args(pres, args)
    sub = args.module_cmd
    if sub == "build":
        _emit(args, module_to_json(V))
        return EXIT_OK
    if sub == "act":
        elt = parse_element(pres, args.expression)
        if V.is_matrix:
            model = V.realization
            rows = model.act_rows(elt)
            on_w = mul_vec(rows, model.w_row, model.field.ops)
            payload = {"matrix": matrix_to_json(element_rows(rows, model.field, model.dim)),
                       "on_w": [format_scalar(x) for x in element_rows([on_w], model.field, model.dim)[0]]}
        else:
            payload = {"on_w": format_ring_element(V.act_residue(elt, pres.ring.one()))}
        _emit(args, payload)
        return EXIT_OK
    if sub == "whittaker-vectors":
        if not V.is_matrix:
            raise UnsupportedRing("whittaker-vectors needs a finite-dimensional module "
                                  "(an annihilator with finite R/Q)")
        eta = _parse_zeta(pres, args.eta) if args.eta else V.zeta
        basis = whittaker_vectors(V, eta)
        payload = {"dimension": len(basis),
                   "basis": [[format_scalar(c) for c in v] for v in basis]}
        _emit(args, payload)
        return EXIT_OK
    if sub == "ann-w":
        elt = parse_element(pres, args.expression)
        payload = {"member": ann_w_member(V, elt),
                   "generators": [format_element(g) for g in ann_w_generators(V)]}
        _emit(args, payload)
        return EXIT_OK
    if sub == "simple":
        verdict = is_simple(V)
        payload = {"verdict": verdict.kind}
        if verdict.certificate:
            payload["certificate"] = verdict.certificate
        if verdict.submodule:
            payload["submodule"] = [[format_scalar(c) for c in row] for row in verdict.submodule]
        _emit(args, payload)
        return EXIT_OK
    if sub == "endo":
        report = endo_ring(V)
        payload = {"dimension": report.dimension, "matches_S_over_Q": report.s_matches}
        _emit(args, payload)
        return EXIT_OK
    raise ConfigError(f"unknown module subcommand {sub!r}")


# -- theorem verification -----------------------------------------------------


def _grid_from_json(theorem: str, text: str) -> list:
    points = json.loads(text)
    if not isinstance(points, list):
        raise ConfigError("--grid expects a JSON list of parameter objects")
    out = []
    for point in points:
        point = dict(point)
        if "p" in point:
            field = prime_field(int(point.pop("p")))
        elif "cyclotomic" in point:
            field = cyclotomic_field(int(point.pop("cyclotomic")))
        else:
            field = FieldSpec.from_json(point.pop("field", {"field": "Q"}))
        params = {}
        for key, value in point.items():
            if key in ("n", "m"):
                params[key] = int(value)
            elif key == "s":
                params[key] = _poly_coeffs(field, str(value))
            elif value is None:
                params[key] = None
            else:
                params[key] = parse_scalar(field, str(value))
        out.append(TheoremModuleSpec(theorem, field, params))
    return out


def cmd_verify(args) -> int:
    grid = _grid_from_json(args.theorem, args.grid) if args.grid else default_grid(args.theorem)
    results = []
    green = True
    for tspec in grid:
        V, report = build_theorem_module(tspec)
        entry = {
            "theorem": report.theorem,
            "params": {k: (format_scalar(v) if hasattr(v, "spec") else repr(v))
                       for k, v in report.params.items()},
            "dimension": V.dim,
            "claims": [{"id": c.cid, "description": c.description, "ok": c.ok,
                        **({"detail": c.detail} if c.detail else {})}
                       for c in report.claims],
            "all_green": report.all_green,
        }
        results.append(entry)
        green = green and report.all_green
    _emit(args, {"theorem": args.theorem, "points": results, "all_green": green})
    return EXIT_OK if green else EXIT_FAIL


def cmd_family(args) -> int:
    pres = load_config(args.config)
    fam = pres.meta.get("family")
    if fam is None:
        raise ConfigError("the config does not describe a catalog family")
    report = verify_family_facts(fam)
    payload = {
        "family": fam.tag,
        "claims": [{"id": c.cid, "description": c.description, "ok": c.ok,
                    **({"detail": c.detail} if c.detail else {})}
                   for c in report.claims],
        "all_green": report.all_green,
    }
    _emit(args, payload)
    return EXIT_OK if report.all_green else EXIT_FAIL


# -- driver -------------------------------------------------------------------


def _global_options(parser, suppress: bool):
    # the same options are registered on the main parser and (with SUPPRESS
    # defaults) on every subparser, so they may appear on either side of the
    # subcommand without the subparser default clobbering an earlier value
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config",
                        **({"default": d} if suppress else {"default": "algebra.json"}),
                        help="algebra definition (JSON)")
    parser.add_argument("--json", action="store_true",
                        **({"default": d} if suppress else {}),
                        help="machine-readable output")
    parser.add_argument("--degree", type=int, default=d,
                        help="degree bound for classifications and truncations "
                             "(default: $GWA_TRUNCATION, else 4)")


@lru_cache(maxsize=None)
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared."""
    ap = argparse.ArgumentParser(prog="gwa",
                                 description="exact computations in generalized Weyl algebras")
    _global_options(ap, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _global_options(shared, suppress=True)

    def parser_class(**kw):
        return argparse.ArgumentParser(parents=[shared], **kw)

    sub = ap.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p = sub.add_parser("normalize", help="rewrite an expression to the normal form")
    p.add_argument("expression")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("center", help="center generators within the exponent bound")
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("ideals", help="phi-stable ideal computations")
    ps = p.add_subparsers(dest="ideals_cmd", required=True, parser_class=parser_class)
    c = ps.add_parser("classify")
    c.set_defaults(fn=cmd_ideals)
    for name in ("stable-check", "central", "closure"):
        c = ps.add_parser(name)
        c.add_argument("generators", help="comma-separated ring elements")
        c.set_defaults(fn=cmd_ideals)

    p = sub.add_parser("module", help="Whittaker module computations")
    p.add_argument("--zeta", default="1", help="comma-separated Whittaker type")
    p.add_argument("--annihilator", default="",
                   help="comma-separated generators of Q (empty: universal module)")
    ps = p.add_subparsers(dest="module_cmd", required=True, parser_class=parser_class)
    for name in ("build", "simple", "endo"):
        c = ps.add_parser(name)
        c.set_defaults(fn=cmd_module)
    for name in ("act", "ann-w"):
        c = ps.add_parser(name)
        c.add_argument("expression")
        c.set_defaults(fn=cmd_module)
    c = ps.add_parser("whittaker-vectors")
    c.add_argument("--eta", default="", help="type to search for (default: zeta)")
    c.set_defaults(fn=cmd_module)

    p = sub.add_parser("verify", help="run a theorem's claim suite over a parameter grid")
    p.add_argument("theorem", choices=["T8.3", "T8.5", "T8.7", "T8.9", "T9", "T10"])
    p.add_argument("--grid", help="JSON list of parameter points")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("family-facts", help="fact suite for the configured catalog family")
    p.set_defaults(fn=cmd_family)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        args.degree = _degree_bound(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send the interpreter's final flush of the unwritten rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedRing as exc:
        print(f"unsupported ring: {exc}", file=sys.stderr)
        return EXIT_RING
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (NotPhiStable, GwaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
