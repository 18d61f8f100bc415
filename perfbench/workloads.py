"""The four benchmark workloads: seeded inputs, the timed item, the output check.

A workload hands out passes of items.  Pass k is generated from
random.Random seeded by (seed, crc32(workload name), k), so the same seed gives
the same inputs in every process whatever PYTHONHASHSEED is.  `run` is the
timed call into gwa; `check` runs afterwards, outside the timed region, and
returns None or a one-line failure reason.

The gwa entry points are looked up as module attributes at call time
(`gwa.cli.main`, `gwa.core.gwa_mul`, ...), so the traced run's wrappers are
picked up without the benchmark holding its own references.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import zlib

import gwa.catalog
import gwa.cli
import gwa.core
import gwa.field
import gwa.ideals
import gwa.parser
import gwa.ring

import rewriting


def pass_rng(seed: int, name: str, k: int) -> random.Random:
    return random.Random((seed * 2 ** 32 + zlib.crc32(name.encode())) * 2 ** 20 + k)


class Item:
    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data):
        self.kind = kind
        self.data = data


class Workload:
    name = ""
    # A pass is this many consecutive blocks of equal size and composition;
    # throughput is the median over blocks, which resists bursts of noise.
    BLOCKS = 1

    def __init__(self, seed: int):
        self.seed = seed

    def items(self, k: int) -> list:
        return self.generate(pass_rng(self.seed, self.name, k), k)

    def digest(self, passes=3) -> str:
        """Hash of the inputs of the first passes, for cross-process checks."""
        h = hashlib.sha256()
        for k in range(passes):
            for item in self.items(k):
                h.update(self.describe(item).encode())
                h.update(b"\n")
        return h.hexdigest()

    def generate(self, rng: random.Random, k: int) -> list:
        raise NotImplementedError

    def describe(self, item: Item) -> str:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, output) -> str | None:
        raise NotImplementedError

    def claim_counts(self, outputs) -> tuple:
        """(claims, red claims) reported by a pass's outputs."""
        return 0, 0


# ---------------------------------------------------------------------------
# verify_annv / verify_modules: `gwa verify <T> --grid <one point> --json`

# The default grids of the seed's `gwa verify`, written out as --grid points.
DEFAULT_POINTS = {
    "T8.3": [{"alpha": "2", "beta": str(b), "n": n, "zeta": "1"}
             for b in (0, 1) for n in (1, 2, 3)],
    "T8.5": [{"cyclotomic": 3, "alpha": "zeta3", "beta": str(b), "theta": str(th), "zeta": "1"}
             for b in (0, 1) for th in (1, 2)]
    + [{"cyclotomic": 3, "alpha": "zeta3", "beta": "1", "theta": None, "zeta": "1"}],
    "T8.7": [{"p": p, "beta": "1", "lam": str(lam), "zeta": str(z)}
             for p in (3, 5) for lam in (0, 1) for z in (1, 2)],
    "T8.9": [{"p": p, "lam": str(lam), "zeta": str(z)}
             for p in (3, 5) for lam in (0, 1) for z in (1, 2)],
    "T9": [{"p": p, "s": "2*x", "theta": str(th), "lam": str(lam), "zeta": "1"}
           for p in (3, 5) for th in (0, 1) for lam in (0, 1)],
    "T10": [{"cyclotomic": 6, "m": 1, "q": "zeta6", "theta": str(th), "lam": str(lam), "zeta": "1"}
            for th in (0, 1) for lam in (1, 2)],
}

# Nonzero scalars the seeded points draw from, per field of the default grids.
_Q_NONZERO = ["1", "2", "3", "-1", "-2", "1/2", "3/2", "-1/3"]
_Q_NOT_ROOT_OF_UNITY = ["2", "3", "-2", "-3", "1/2", "3/2", "2/3", "-1/2", "5", "4/3"]
_Z3_NONZERO = ["1", "2", "-1", "zeta3", "zeta3+1", "2*zeta3", "zeta3-1"]
_Z6_NONZERO = ["1", "2", "-1", "zeta6", "zeta6+1", "2*zeta6", "zeta6-1"]


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_verify.json")


def grid_key(theorem: str, point: dict) -> str:
    return theorem + " " + json.dumps(point, sort_keys=True)


def run_verify(theorem: str, point: dict):
    """`gwa verify <theorem> --grid [point] --json` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gwa.cli.main(["verify", theorem, "--grid", json.dumps([point]), "--json"])
    return rc, out.getvalue(), err.getvalue()


def _nonzero_fp(rng, p):
    return str(rng.randrange(1, p))


def _like(rng, value, pool):
    """Zero stays zero; a nonzero default becomes a random nonzero value."""
    return value if value in ("0", None) else rng.choice(pool)


def seeded_point(rng: random.Random, theorem: str, default: dict) -> dict:
    """A random point with the same field, size and zero pattern as `default`."""
    pt = dict(default)
    if theorem == "T8.3":
        pt["alpha"] = rng.choice(_Q_NOT_ROOT_OF_UNITY)
        pt["beta"] = _like(rng, default["beta"], _Q_NONZERO)
        pt["zeta"] = rng.choice(_Q_NONZERO)
    elif theorem == "T8.5":
        pt["alpha"] = rng.choice(["zeta3", "zeta3^2"])
        pt["beta"] = _like(rng, default["beta"], _Z3_NONZERO)
        pt["theta"] = _like(rng, default["theta"], _Z3_NONZERO)
        pt["zeta"] = rng.choice(_Z3_NONZERO)
    elif theorem in ("T8.7", "T8.9", "T9"):
        p = default["p"]
        for key in ("beta", "lam", "theta"):
            if key in default:
                pt[key] = "0" if default[key] == "0" else _nonzero_fp(rng, p)
        pt["zeta"] = _nonzero_fp(rng, p)
        if theorem == "T9":
            pt["s"] = f"{_nonzero_fp(rng, p)}*x+{rng.randrange(p)}"
    elif theorem == "T10":
        pt["q"] = rng.choice(["zeta6", "zeta6^5"])
        pt["theta"] = _like(rng, default["theta"], _Z6_NONZERO)
        pt["lam"] = rng.choice(_Z6_NONZERO)
        pt["zeta"] = rng.choice(_Z6_NONZERO)
    else:
        raise ValueError(f"no seeded points for {theorem}")
    return pt


def golden_subset_diff(golden, actual, path="$") -> str | None:
    """First place where `actual` disagrees with `golden`; keys that only
    `actual` has are ignored, so additive CLI fields do not break the check."""
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in golden.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            diff = golden_subset_diff(value, actual[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return f"{path}: expected a list of {len(golden)}"
        for i, (g, a) in enumerate(zip(golden, actual)):
            diff = golden_subset_diff(g, a, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if golden == actual else f"{path}: {actual!r} != {golden!r}"


class VerifyWorkload(Workload):
    """Each pass runs every default point of its theorems plus one seeded
    mirror point per default point (same theorem, field, size and zero
    pattern), so pass cost does not drift with the seed.  The default points
    and their mirrors are the pass's two blocks."""

    BLOCKS = 2
    theorems: tuple = ()

    def __init__(self, seed):
        super().__init__(seed)
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)

    def generate(self, rng, k):
        defaults, seeded = [], []
        for theorem in self.theorems:
            for point in DEFAULT_POINTS[theorem]:
                golden = self.golden[grid_key(theorem, point)]
                defaults.append(Item("default", (theorem, point, golden)))
                seeded.append(Item("seeded", (theorem, seeded_point(rng, theorem, point), golden)))
        return defaults + seeded

    def describe(self, item):
        theorem, point, _ = item.data
        return grid_key(theorem, point)

    def run(self, item):
        theorem, point, _ = item.data
        return run_verify(theorem, point)

    def check(self, item, output):
        theorem, point, golden = item.data
        rc, out, err = output
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        doc = json.loads(out)
        got = doc["points"][0]
        red = [c["id"] for c in got["claims"] if not c["ok"]]
        if red or not doc["all_green"]:
            return f"red claims {red}"
        want = golden["points"][0]
        ids = [c["id"] for c in got["claims"]]
        if ids != [c["id"] for c in want["claims"]]:
            return f"claim ids {ids}"
        if got["dimension"] != want["dimension"]:
            return f"dimension {got['dimension']} != {want['dimension']}"
        if item.kind == "default":
            return golden_subset_diff(golden, doc)
        return None

    def claim_counts(self, outputs):
        claims = red = 0
        for out in outputs:
            if isinstance(out, tuple) and out[1]:
                for point in json.loads(out[1])["points"]:
                    claims += len(point["claims"])
                    red += sum(not c["ok"] for c in point["claims"])
        return claims, red


class VerifyAnnV(VerifyWorkload):
    name = "verify_annv"
    theorems = ("T8.3",)


class VerifyModules(VerifyWorkload):
    name = "verify_modules"
    theorems = ("T8.5", "T8.7", "T8.9", "T9", "T10")


# ---------------------------------------------------------------------------
# products: parse_element, gwa_mul, format_element


def _families():
    Q = gwa.field.rationals()
    F5 = gwa.field.prime_field(5)
    QQ = gwa.field.rational_functions("q")
    Z6 = gwa.field.cyclotomic_field(6)
    spec = gwa.catalog.FamilySpec
    build = gwa.catalog.build_family
    q_scalars = ["1", "2", "3", "1/2", "2/3"]
    # name: (presentation, scalar texts, items per block); the counts keep the
    # slow Q(q) family near a quarter of the pass time
    return {
        "weyl_A1": (build(spec("weyl", Q, {"n": 1})), q_scalars, 120),
        "weyl_A2": (build(spec("weyl", Q, {"n": 2})), q_scalars, 120),
        "quantum_weyl": (build(spec("quantum_weyl", QQ, {"q": QQ.generator()})),
                         ["1", "2", "3", "q", "(q+1)", "(q^2-q)"], 20),
        "smith": (build(spec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]})),
                  ["1", "2", "3", "4"], 120),
        "quantum_smith": (build(spec("quantum_smith", Z6, {"m": 1, "q": Z6.generator()})),
                          ["1", "2", "3", "zeta6", "(zeta6+1)", "(zeta6^2-1)"], 60),
    }


def ring_text(rng, ring, scalars, max_degree=3, n_terms=2) -> str:
    out = ""
    for _ in range(rng.randint(1, n_terms)):
        left = max_degree
        factors = [rng.choice(scalars)]
        for g, laurent in zip(ring.gens, ring.laurent):
            e = rng.randint(-left, left) if laurent else rng.randint(0, left)
            left -= abs(e)
            if e:
                factors.append(g if e == 1 else f"{g}^{e}")
        out += ("-" if rng.random() < 0.5 else "+") + "*".join(factors)
    return out[1:] if out[0] == "+" else out


def element_text(rng, pres, scalars, max_z=3, n_terms=3) -> str:
    """A random element: 1..n_terms terms (ring coefficient) * Z^alpha, |alpha| <= max_z."""
    terms = []
    for _ in range(rng.randint(1, n_terms)):
        alpha = [0] * pres.n
        for _ in range(rng.randint(0, max_z)):
            alpha[rng.randrange(pres.n)] += rng.choice((1, -1))
        factors = [f"({ring_text(rng, pres.ring, scalars)})"]
        for i, e in enumerate(alpha):
            if e:
                letter = pres.x_names[i] if e > 0 else pres.y_names[i]
                factors.append(letter if abs(e) == 1 else f"{letter}^{abs(e)}")
        terms.append("*".join(factors))
    return " + ".join(terms)


class Products(Workload):
    """Fresh operand pairs every pass; the presentations persist across passes
    as they would in a session.  About one item in eight is re-checked against
    the adjacent-pair rewriting reference."""

    name = "products"
    BLOCKS = 6
    REFERENCE_SHARE = 0.125

    def __init__(self, seed):
        super().__init__(seed)
        self.families = _families()

    def generate(self, rng, k):
        items = []
        for _ in range(self.BLOCKS):
            block = []
            for family, (pres, scalars, count) in self.families.items():
                for _ in range(count):
                    a = element_text(rng, pres, scalars)
                    b = element_text(rng, pres, scalars)
                    block.append(Item(family, (a, b, rng.random() < self.REFERENCE_SHARE)))
            rng.shuffle(block)
            items += block
        return items

    def describe(self, item):
        a, b, ref = item.data
        return f"{item.kind} | {a} | {b} | {int(ref)}"

    def run(self, item):
        pres = self.families[item.kind][0]
        a, b, _ = item.data
        x = gwa.parser.parse_element(pres, a)
        y = gwa.parser.parse_element(pres, b)
        return gwa.core.format_element(gwa.core.gwa_mul(x, y))

    def check(self, item, output):
        a, b, ref = item.data
        if not ref:
            return None
        pres = self.families[item.kind][0]
        x = gwa.parser.parse_element(pres, a)
        y = gwa.parser.parse_element(pres, b)
        want = gwa.core.format_element(gwa.core.GwaElement(pres, rewriting.product_terms(x, y)))
        return None if output == want else f"{item.kind}: ({a})*({b}) gave {output}, reference {want}"


# ---------------------------------------------------------------------------
# ideals: phi-stable closures (writes) and membership queries (reads)


def _ideal_rings():
    """name: (presentation, scalar pool, target-ideal maker, shape templates).

    A seeded ideal has generators u1*m1, u2*m2 where u1, u2 generate a
    phi-stable target (random scalars, fixed shape) and m1, m2 have the
    template's fixed monomial supports with random nonzero coefficients.
    Fixing the supports keeps each closure's Groebner work, and so the pass
    cost, nearly independent of the seed."""
    Q = gwa.field.rationals()
    F5 = gwa.field.prime_field(5)
    Z6 = gwa.field.cyclotomic_field(6)
    spec = gwa.catalog.FamilySpec
    build = gwa.catalog.build_family
    z = Z6.generator()

    def smith_targets(R, rng, pool):
        h, c = R.gen("h"), R.gen("c")
        return c - R.scalar(rng.choice(pool)), h ** 5 - h - R.scalar(rng.choice(pool))

    def heisenberg_targets(R, rng, pool):
        c, t = R.gen("c"), R.gen("t")
        return c ** 2, c * (t - R.scalar(rng.choice(pool)))

    def quantum_smith_targets(R, rng, pool):
        c, K = R.gen("c"), R.gen("K")
        return c - R.scalar(rng.choice(pool)), K ** 3 - R.scalar(rng.choice(pool))

    # Shapes whose closure cost is unimodal under random coefficients, so no
    # coefficient coincidence halves or doubles a block
    return {
        # ring generators (h, c)
        "smith_F5": (build(spec("smith", F5, {"s": [F5.zero(), F5.from_int(2)]})),
                     [F5.from_int(k) for k in range(1, 5)], smith_targets,
                     [([(1, 1)], [(1, 0), (0, 0)]), ([(1, 0), (0, 1)], [(0, 0)]),
                      ([(2, 0), (0, 1)], [(0, 0)]), ([(1, 1), (0, 0)], [(1, 0), (0, 0)])]),
        # ring generators (c, t)
        "heisenberg_Q": (build(spec("heisenberg", Q, {"n": 1})),
                         [Q.from_int(k) for k in (1, 2, 3, -1, -2)], heisenberg_targets,
                         [([(0, 1), (1, 0)], [(0, 0)]), ([(0, 1)], [(1, 0), (0, 0)]),
                          ([(1, 0), (0, 0)], [(0, 1)]), ([(1, 1), (0, 0)], [(0, 1), (0, 0)])]),
        # ring generators (c, K^+-1)
        "quantum_smith_Z6": (build(spec("quantum_smith", Z6, {"m": 1, "q": z})),
                             [Z6.one(), Z6.from_int(2), z, z + Z6.one(), -Z6.one()],
                             quantum_smith_targets,
                             [([(0, 1), (1, 0)], [(0, 0)]), ([(1, 1)], [(1, 0), (0, -1)]),
                              ([(1, 1), (0, 0)], [(0, 0)]), ([(0, -1), (1, 0)], [(0, 1), (0, 0)])]),
    }


def random_ring_element(rng, ring, pool, max_degree, n_terms):
    """Nonzero; Laurent exponents may be negative."""
    out = ring.zero()
    while out.is_zero():
        for _ in range(n_terms):
            left = max_degree
            exps = []
            for laurent in ring.laurent:
                e = rng.randint(-left, left) if laurent else rng.randint(0, left)
                left -= abs(e)
                exps.append(e)
            out = out + ring.monomial(tuple(exps), rng.choice(pool))
    return out


def _support_poly(rng, ring, pool, support):
    out = ring.zero()
    for exps in support:
        out = out + ring.monomial(exps, rng.choice(pool))
    return out


class Ideals(Workload):
    """Per block and ring, one closure per shape template, each followed by
    six member-by-construction queries (random cofactors times the seeded
    generators) and one random probe whose answer is not known in advance.
    Closures are an eighth of the items, so p90 falls among the cheapest
    closure shapes, not on the boundary between queries and closures."""

    name = "ideals"
    BLOCKS = 3
    MEMBER_QUERIES = 6

    def __init__(self, seed):
        super().__init__(seed)
        self.rings = _ideal_rings()
        self.closures = {}

    def generate(self, rng, k):
        self.closures.clear()
        items = []
        for block, (ring_name, (pres, pool, targets, templates)) in itertools.product(
                range(self.BLOCKS), self.rings.items()):
            R = pres.ring
            for t, (s1, s2) in enumerate(templates):
                key = (k, block, ring_name, t)
                u1, u2 = targets(R, rng, pool)
                gens = [u1 * _support_poly(rng, R, pool, s1), u2 * _support_poly(rng, R, pool, s2)]
                items.append(Item("closure", (key, ring_name, gens)))
                for _ in range(self.MEMBER_QUERIES):
                    r = R.zero()
                    for g in gens:
                        r = r + random_ring_element(rng, R, pool, 2, 2) * g
                    items.append(Item("member", (key, r)))
                items.append(Item("probe", (key, random_ring_element(rng, R, pool, 3, 3))))
        return items

    def describe(self, item):
        fmt = gwa.ring.format_ring_element
        if item.kind == "closure":
            key, ring_name, gens = item.data
            return f"closure {key} {ring_name} " + ", ".join(fmt(g) for g in gens)
        key, r = item.data
        return f"{item.kind} {key} {fmt(r)}"

    def run(self, item):
        if item.kind == "closure":
            key, ring_name, gens = item.data
            J = gwa.ideals.phi_stable_closure(gens, self.rings[ring_name][0].phis)
            self.closures[key] = J
            return J
        key, r = item.data
        return gwa.ideals.membership(r, self.closures[key])

    def check(self, item, output):
        if item.kind == "closure":
            J = output
            for (i, j), cert in J.stability_certificate.items():
                phi = J.phis[i]
                g = J.generators[j] if j >= 0 else J.generators[-j - 1]
                image = g.substitute(phi.images if j >= 0 else phi.inverse_images)
                diff = _reexpand_diff(cert, image, J.generators)
                if diff:
                    return f"stability certificate ({i}, {j}): {diff}"
            return None
        key, r = item.data
        if not output.member:
            return "member by construction reported as not a member" if item.kind == "member" else None
        diff = _reexpand_diff(output.certificate, r, self.closures[key].generators)
        return f"membership certificate: {diff}" if diff else None


def _reexpand_diff(cert, target, generators) -> str | None:
    total = target.ring.zero()
    for c, g in cert:
        if g not in generators:
            return f"{g!r} is not a generator of the ideal"
        total = total + c * g
    return None if total == target else f"sum c*g = {total!r} != {target!r}"


WORKLOADS = {w.name: w for w in (VerifyAnnV, VerifyModules, Products, Ideals)}
