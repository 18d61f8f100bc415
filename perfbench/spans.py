"""Span tracing for the benchmark's traced run, and the per-layer report.

`Tracer.install` wraps the entry points of each gwa layer from outside the
package: module functions are re-bound in every gwa module that holds them
(a `from .x import f` copy included) and methods are patched on their class.
Each wrapped call records one span: name, start, end, parent span and the id
of the benchmark item it belongs to.  Spans are kept in memory in columnar
arrays and written out when the run ends.  Field operations are counted, not
spanned: a span per scalar operation would swamp a 3 us multiply.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from fractions import Fraction

import gwa.cli
import gwa.core
import gwa.field
import gwa.ideals
import gwa.linalg
import gwa.parser
import gwa.ring
import gwa.whittaker
import gwa.catalog

ITEM = "bench.item"

# (owner, attribute, span name); a module owner means a module-level function
SPANNED = [
    (gwa.cli, "main", "cli.main"),
    (gwa.catalog, "build_theorem_module", "catalog.build_theorem_module"),
    (gwa.whittaker, "ann_V_check", "whittaker.ann_V_check"),
    (gwa.whittaker, "_truncated_left_span", "whittaker.truncated_span"),
    (gwa.whittaker, "build_module", "whittaker.build_module"),
    (gwa.whittaker, "recover_annihilator", "whittaker.recover_annihilator"),
    (gwa.whittaker, "is_simple", "whittaker.is_simple"),
    (gwa.whittaker.MatrixModel, "matrix_of_ring", "whittaker.matrix_of_ring"),
    (gwa.linalg.RowSpace, "add", "linalg.rowspace_add"),
    (gwa.linalg, "kernel_basis", "linalg.kernel_basis"),
    (gwa.linalg, "mat_mul", "linalg.mat_mul"),
    (gwa.ideals, "groebner_basis", "ideals.groebner"),
    (gwa.ideals, "ideal_membership_gens", "ideals.membership"),
    (gwa.ideals, "phi_stable_closure", "ideals.closure"),
    (gwa.ideals, "phi_stable_ideal", "ideals.stable_ideal"),
    (gwa.core, "gwa_mul", "core.gwa_mul"),
    (gwa.ring.RingElement, "__mul__", "ring.mul"),
    (gwa.ring.RingElement, "__rmul__", "ring.mul"),
    (gwa.ring.Automorphism, "apply", "ring.apply"),
    (gwa.ring.Automorphism, "apply_power", "ring.apply"),
    (gwa.parser, "parse_element", "parser.parse"),
    (gwa.parser, "parse_scalar", "parser.parse"),
    (gwa.parser, "parse_ring_element", "parser.parse"),
]

FIELD_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inv")

COUNTERS = ("field.ops", "ring.inverse.calls", "core.gwa_mul.term_pairs",
            "linalg.rowspace_add.grew", "linalg.rowspace_add.cells", "linalg.kernel_basis.cells",
            "ideals.spairs", "ideals.spairs_useful")


def _gwa_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "gwa" or name.startswith("gwa."))]


class Tracer:
    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack = []
        self.item_id = -1
        self.counts = {key: [0] for key in COUNTERS}
        self._undo = []

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    # -- recording ------------------------------------------------------------

    def _spanned(self, label, fn, before=None, after=None):
        nid = self.label_id(label)
        name, start, end, parent, item, stack = (
            self.name, self.start, self.end, self.parent, self.item, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(tracer.item_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    def run_item(self, item_id: int, fn, *args):
        """Run one benchmark item under a root span."""
        self.item_id = item_id
        try:
            return self._spanned(ITEM, fn)(*args)
        finally:
            self.item_id = -1

    def _counted(self, key, fn):
        cell = self.counts[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for module in _gwa_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _extras(self, label):
        """Per-call work counters recorded alongside some spans."""
        c = self.counts
        if label == "linalg.rowspace_add":
            cells, grew = c["linalg.rowspace_add.cells"], c["linalg.rowspace_add.grew"]

            def before(space, v):
                cells[0] += space.width * (len(space.rows) + 1)

            def after(result):
                grew[0] += bool(result)
            return before, after
        if label == "linalg.kernel_basis":
            cells = c["linalg.kernel_basis.cells"]

            def before(a, spec):
                cells[0] += len(a) * len(a[0]) if a else 0
            return before, None
        if label == "core.gwa_mul":
            pairs = c["core.gwa_mul.term_pairs"]

            def before(a, b):
                pairs[0] += len(a.terms) * len(b.terms)
            return before, None
        return None, None

    def install(self):
        for owner, attr, label in SPANNED:
            original = getattr(owner, attr)
            wrapper = self._spanned(label, original, *self._extras(label))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        for op in FIELD_OPS:
            self._set(gwa.field.FieldElement, op,
                      self._counted("field.ops", getattr(gwa.field.FieldElement, op)))
        self._set(gwa.ring.Automorphism, "inverse",
                  self._counted("ring.inverse.calls", gwa.ring.Automorphism.inverse))
        self._install_spair_counters()

    def _install_spair_counters(self):
        # groebner_basis reduces each S-polynomial right after building it, so
        # the first reduction after a _spoly call is that pair's reduction
        spairs, useful = self.counts["ideals.spairs"], self.counts["ideals.spairs_useful"]
        pending = [False]
        spoly, reduce = gwa.ideals._spoly, gwa.ideals.reduce_with_certificate

        def counted_spoly(f, g):
            spairs[0] += 1
            pending[0] = True
            return spoly(f, g)

        def counted_reduce(r, basis):
            result = reduce(r, basis)
            if pending[0]:
                pending[0] = False
                useful[0] += not result[0].is_zero()
            return result
        self._rebind(spoly, counted_spoly)
        self._rebind(reduce, counted_reduce)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------------

    def self_times(self, lo: int, hi: int):
        """Self time of every span in [lo, hi); children always follow their parent."""
        own = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                own[p - lo] -= self.end[i] - self.start[i]
        return own

    def write(self, path: str):
        """One JSON line per span: name, start, end, parent, item (start-relative seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.labels[self.name[i]], round(self.start[i] - t0, 9),
                                     round(self.end[i] - t0, 9), self.parent[i], self.item[i]]))
                fh.write("\n")


def layer_report(tracer: Tracer, spans: list, traced_s: float, overhead_ratio: float,
                 claims: tuple) -> dict:
    """Per-layer metrics per traced pass.

    `spans` lists the [lo, hi) span ranges of the traced passes, `traced_s` is
    their summed wall time, `overhead_ratio` the traced / untraced pass time,
    and `claims` is (claims, red claims) summed over the traced passes."""
    n = len(spans)
    calls = dict.fromkeys(tracer.labels, 0)
    self_s = dict.fromkeys(tracer.labels, 0.0)
    membership_id = tracer._label_ids.get("ideals.membership")
    groebner_id = tracer._label_ids.get("ideals.groebner")
    gwa_mul_id = tracer._label_ids.get("core.gwa_mul")
    groebner_in_membership = 0
    gwa_mul_incl_s = 0.0
    root_s = 0.0
    for lo, hi in spans:
        own = tracer.self_times(lo, hi)
        for i in range(lo, hi):
            label = tracer.labels[tracer.name[i]]
            if own[i - lo] < -1e-6:
                raise RuntimeError(f"span {label} has negative self time: spans are not nested")
            calls[label] += 1
            self_s[label] += own[i - lo]
            nid = tracer.name[i]
            if label == ITEM:
                root_s += tracer.end[i] - tracer.start[i]
            elif nid == gwa_mul_id and not _has_ancestor(tracer, i, lo, gwa_mul_id):
                gwa_mul_incl_s += tracer.end[i] - tracer.start[i]
            elif nid == groebner_id and _has_ancestor(tracer, i, lo, membership_id):
                groebner_in_membership += 1

    layer_self = sum(v for k, v in self_s.items() if k != ITEM)
    unattributed = traced_s - layer_self
    # self times telescope: the layer spans' self times plus the item spans'
    # own self time must add up to the item spans' wall time
    if abs(layer_self + self_s.get(ITEM, 0.0) - root_s) > 1e-6 * max(1.0, root_s) + 1e-6 * n:
        raise RuntimeError("layer self times do not add up to the traced item time")

    c = {k: v[0] / n for k, v in tracer.counts.items()}

    def per_pass(table, label):
        return table.get(label, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "field.ops": c["field.ops"],
        "ring.mul.calls": per_pass(calls, "ring.mul"),
        "ring.mul.self_s": per_pass(self_s, "ring.mul"),
        "ring.apply.calls": per_pass(calls, "ring.apply"),
        "ring.apply.self_s": per_pass(self_s, "ring.apply"),
        "ring.inverse.calls": c["ring.inverse.calls"],
        "core.gwa_mul.calls": per_pass(calls, "core.gwa_mul"),
        "core.gwa_mul.self_s": per_pass(self_s, "core.gwa_mul"),
        "core.gwa_mul.term_pairs": c["core.gwa_mul.term_pairs"],
        "core.gwa_mul.incl_share": ratio(gwa_mul_incl_s, traced_s),
        "ideals.groebner.calls": per_pass(calls, "ideals.groebner"),
        "ideals.groebner.self_s": per_pass(self_s, "ideals.groebner"),
        "ideals.spairs": c["ideals.spairs"],
        "ideals.spair_useful_ratio": ratio(c["ideals.spairs_useful"], c["ideals.spairs"]),
        "ideals.membership.calls": per_pass(calls, "ideals.membership"),
        "ideals.membership.self_s": per_pass(self_s, "ideals.membership"),
        "ideals.groebner_per_membership": ratio(groebner_in_membership,
                                                calls.get("ideals.membership", 0)),
        "ideals.closure.self_s": per_pass(self_s, "ideals.closure"),
        "ideals.stable_ideal.self_s": per_pass(self_s, "ideals.stable_ideal"),
        "linalg.rowspace_add.calls": per_pass(calls, "linalg.rowspace_add"),
        "linalg.rowspace_add.self_s": per_pass(self_s, "linalg.rowspace_add"),
        "linalg.rowspace_add.self_share": ratio(self_s.get("linalg.rowspace_add", 0.0), traced_s),
        "linalg.rowspace_add.useful_ratio": ratio(c["linalg.rowspace_add.grew"],
                                                  per_pass(calls, "linalg.rowspace_add")),
        "linalg.rowspace_add.cells": c["linalg.rowspace_add.cells"],
        "linalg.kernel_basis.calls": per_pass(calls, "linalg.kernel_basis"),
        "linalg.kernel_basis.self_s": per_pass(self_s, "linalg.kernel_basis"),
        "linalg.kernel_basis.cells": c["linalg.kernel_basis.cells"],
        "linalg.mat_mul.calls": per_pass(calls, "linalg.mat_mul"),
        "linalg.mat_mul.self_s": per_pass(self_s, "linalg.mat_mul"),
        "whittaker.ann_V_check.self_s": per_pass(self_s, "whittaker.ann_V_check"),
        "whittaker.truncated_span.self_s": per_pass(self_s, "whittaker.truncated_span"),
        "whittaker.build_module.self_s": per_pass(self_s, "whittaker.build_module"),
        "whittaker.recover_annihilator.self_s": per_pass(self_s, "whittaker.recover_annihilator"),
        "whittaker.is_simple.self_s": per_pass(self_s, "whittaker.is_simple"),
        "whittaker.matrix_of_ring.calls": per_pass(calls, "whittaker.matrix_of_ring"),
        "whittaker.matrix_of_ring.self_s": per_pass(self_s, "whittaker.matrix_of_ring"),
        "catalog.build_theorem_module.self_s": per_pass(self_s, "catalog.build_theorem_module"),
        "catalog.claims": claims[0] / n,
        "catalog.claims_red": claims[1] / n,
        "parser.parse.calls": per_pass(calls, "parser.parse"),
        "parser.parse.self_s": per_pass(self_s, "parser.parse"),
        "cli.main.self_s": per_pass(self_s, "cli.main"),
        "bench.item.self_s": per_pass(self_s, ITEM),
        "trace.traced_pass_s": traced_s / n,
        "trace.unattributed_s": unattributed / n,
        "trace.overhead_ratio": overhead_ratio,
    }
    return m


def _has_ancestor(tracer, i, lo, label_id) -> bool:
    p = tracer.parent[i]
    while p >= lo:
        if tracer.name[p] == label_id:
            return True
        p = tracer.parent[p]
    return False



# ---------------------------------------------------------------------------
# field micro-kernel


def field_kernels(rng, repeats: int = 5) -> dict:
    """Median per-operation latency (microseconds) on seeded operands."""
    Q = gwa.field.rationals()
    F5 = gwa.field.prime_field(5)
    Z6 = gwa.field.cyclotomic_field(6)
    QQ = gwa.field.rational_functions("q")

    def q_elt():
        return Q.from_fraction(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))

    def fp_elt():
        return F5.from_int(rng.randint(1, 4))

    def cyc_elt():
        z = Z6.generator()
        return Z6.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) \
            + z * Z6.from_fraction(Fraction(rng.randint(1, 9), rng.randint(1, 9)))

    def qq_elt():
        q = QQ.generator()
        num = QQ.from_int(rng.randint(1, 5)) + q * QQ.from_int(rng.randint(-5, 5)) + q * q
        den = QQ.from_int(rng.randint(1, 5)) + q * QQ.from_int(rng.randint(1, 5))
        return num / den

    kernels = [
        ("field.mul_us.Q", q_elt, lambda x, y: x * y, 4000),
        ("field.mul_us.Fp", fp_elt, lambda x, y: x * y, 8000),
        ("field.mul_us.cyc6", cyc_elt, lambda x, y: x * y, 600),
        ("field.mul_us.Qq", qq_elt, lambda x, y: x * y, 200),
        ("field.add_us.Qq", qq_elt, lambda x, y: x + y, 200),
        ("field.inv_us.cyc6", cyc_elt, lambda x, y: x.inv(), 600),
    ]
    out = {}
    for name, make, op, n in kernels:
        pool = [make() for _ in range(32)]
        pairs = [(pool[rng.randrange(32)], pool[rng.randrange(32)]) for _ in range(n)]
        samples = []
        for _ in range(repeats):
            t = time.perf_counter()
            for x, y in pairs:
                op(x, y)
            samples.append((time.perf_counter() - t) / n * 1e6)
        out[name] = statistics.median(samples)
    return out
