"""Opt-in tracing for the benchmark, installed from outside the package.

Every wrapper replaces a public function or method at a layer boundary of
fermatmf.  Module-level functions are replaced in every consuming module
that holds a reference to them (the fermatmf modules and the benchmark's
own ``workloads``), because ``equiv``, ``moduli6`` and ``cli`` bind
``field_rref``, ``determinant``, ``scalar_equivalence`` and friends with
``from ... import``; patching only the defining module would miss those
callers.

Spans nest on one stack.  A span's self time is its duration minus the
time its child spans cover; a call is counted only when the enclosing span
has a different name, so a constructor that calls another one counts once.
Field arithmetic is far too hot for spans: it is only counted, and a
decimated sample of its operands is kept so that ``replay_field_ops`` can
time the same kind of operands once tracing is off.
"""

from __future__ import annotations

import operator
import random
import statistics
import sys
import time
from collections import Counter, defaultdict

from fermatmf import cli, equiv, families, field, matrix, moduli6, poly

# Verdict methods ``equiv._decide_blocks`` can return; any other name is
# counted as ``other`` so a new method still shows up.
VERDICT_METHODS = ("empty_solution_space", "determinant_polynomial",
                   "sampled_witness", "sampled_determinant")
DET_SIZES = (1, 2, 3, 4, 5, 6)
SCALAR_TEST_SIZES = (3, 4, 5)
TOWERS = {2: "omega", 6: "sextic"}
_CONSUMERS = ("fermatmf", "workloads")

_SAMPLE_CAP = 2048      # operand pairs kept per (op, tower) before thinning
_REPLAY_PAIRS = 1000    # operand pairs replayed per (op, tower)
_REPLAY_ROUNDS = 7


class _OperandSample:
    """Every stride-th operand pair; thinned by half whenever it fills up,
    so it stays an evenly spaced sample of the whole run."""

    __slots__ = ("pairs", "stride", "seen")

    def __init__(self):
        self.pairs = []
        self.stride = 1
        self.seen = 0

    def offer(self, a, b):
        self.seen += 1
        if self.seen % self.stride == 0:
            self.pairs.append((a, b))
            if len(self.pairs) >= 2 * _SAMPLE_CAP:
                del self.pairs[1::2]
                self.stride *= 2


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.samples = defaultdict(_OperandSample)
        self._sampled_points = set()
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        self._install_field_counters()
        self._patch_method(poly.Polynomial, ("__mul__", "__rmul__"),
                           "poly.mul", self._note_poly_mul)
        self._patch_method(matrix.PolyMatrix, ("__mul__",), "matrix.polymul")
        self._patch_function(matrix, "field_rref", "matrix.rref",
                             self._note_rref)
        self._patch_function(matrix, "determinant", "matrix.det",
                             self._note_det)
        self._patch_function(matrix, "pfaffian", "matrix.pfaffian")
        self._patch_function(matrix, "adjugate", "matrix.adjugate")
        self._patch_method(families.FamilyId, ("build",), "families.build")
        for name in ("build_six_gen", "build_curve_alpha"):
            self._patch_function(families, name, "families.build")
        self._patch_function(equiv, "scalar_equivalence", "equiv.scalar_test",
                             self._note_scalar_test)
        self._patch_function(equiv, "pairwise_distinctness", "equiv.sweep",
                             self._note_sweep)
        self._patch_function(moduli6, "sample_moduli_point", "moduli6.sample",
                             self._note_sample)
        self._patch_method(moduli6.ModuliPoint, ("__init__",),
                           "moduli6.certify", self._note_certify)
        self._patch_function(moduli6, "equation_values",
                             "moduli6.equation_values")
        self._patch_function(moduli6, "gamma2_solve", "moduli6.gamma2_solve")
        self._patch_function(cli, "main", "cli.main")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span(self, name, fn, note):
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if not stack or stack[-1][0] != name:
                calls[name] += 1
            if note is not None:
                note(args, result, duration)
            return result

        return wrapper

    def _patch_function(self, module, attr, name, note=None):
        original = getattr(module, attr)
        wrapped = self._span(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(_CONSUMERS):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attrs, name, note=None):
        original = getattr(cls, attrs[0])
        wrapped = self._span(name, original, note)
        for attr in attrs:
            self._undo.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapped)

    def _install_field_counters(self):
        element = field.FieldElement
        counts = self.counts
        samples = self.samples
        mul, add, inv_value = element.__mul__, element.__add__, \
            field.NumberField.inv_value

        # an operand the element cannot take (a Polynomial, say) returns
        # NotImplemented and is neither counted nor sampled
        def counted_mul(a, b):
            result = mul(a, b)
            if result is not NotImplemented:
                key = ("mul", a.field.degree)
                counts[key] += 1
                samples[key].offer(a, b)
            return result

        def sampled_add(a, b):
            result = add(a, b)
            if result is not NotImplemented:
                samples[("add", a.field.degree)].offer(a, b)
            return result

        def counted_inv(self_field, value):
            counts["inv"] += 1
            return inv_value(self_field, value)

        for attr, wrapped in (("__mul__", counted_mul),
                              ("__rmul__", counted_mul),
                              ("__add__", sampled_add),
                              ("__radd__", sampled_add)):
            self._undo.append((element, attr, getattr(element, attr)))
            setattr(element, attr, wrapped)
        self._undo.append((field.NumberField, "inv_value", inv_value))
        field.NumberField.inv_value = counted_inv

    # -- per-call notes -------------------------------------------------------

    def _note_poly_mul(self, args, result, duration):
        left, right = args
        width = len(right.terms) if isinstance(right, poly.Polynomial) else 1
        self.counts["poly.mul_terms"] += len(left.terms) * width

    def _note_rref(self, args, result, duration):
        rows = result[0]
        self.counts["matrix.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _note_det(self, args, result, duration):
        self.counts[("det", args[0].nrows)] += 1

    def _note_scalar_test(self, args, result, duration):
        self.durations[("scalar_test", args[0].nrows)].append(duration)
        method = result.method if result.method in VERDICT_METHODS else "other"
        self.counts[("method", method)] += 1

    def _note_sweep(self, args, result, duration):
        for record in result.evidence:
            self.counts["sweep.pairs"] += 1
            if record["method"] == "reduced_shape":
                self.counts["sweep.shape_split"] += 1
        self.counts["sweep.inconclusive"] += len(result.inconclusive)

    def _note_sample(self, args, result, duration):
        point = args[0]
        if point in self._sampled_points:
            self.durations["sample"].append(duration)
        else:
            self._sampled_points.add(point)
            self.durations["first_sample"].append(duration)

    def _note_certify(self, args, result, duration):
        self.durations["certify"].append(duration)
        self.counts["certified"] += bool(args[0].certified)

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer numbers from the traced items, keyed by metric name."""
        out = {}
        for degree, tower in TOWERS.items():
            out["field.%s.mul_calls" % tower] = (
                self.counts[("mul", degree)], "count")
        out["field.inv_calls"] = (self.counts["inv"], "count")
        out["poly.mul_calls"] = (self.calls["poly.mul"], "count")
        out["poly.mul_self_s"] = (self.self_s["poly.mul"], "s")
        out["poly.mul_terms"] = (self.counts["poly.mul_terms"], "count")
        out["matrix.rref_calls"] = (self.calls["matrix.rref"], "count")
        out["matrix.rref_cells"] = (self.counts["matrix.rref_cells"], "count")
        out["matrix.rref_self_s"] = (self.self_s["matrix.rref"], "s")
        for n in DET_SIZES:
            out["matrix.det_calls.%d" % n] = (self.counts[("det", n)], "count")
        out["matrix.det_self_s"] = (self.self_s["matrix.det"], "s")
        out["matrix.pfaffian_self_s"] = (self.self_s["matrix.pfaffian"], "s")
        out["matrix.adjugate_self_s"] = (self.self_s["matrix.adjugate"], "s")
        out["matrix.polymul_self_s"] = (self.self_s["matrix.polymul"], "s")
        out["families.build_calls"] = (self.calls["families.build"], "count")
        out["families.build_self_s"] = (self.self_s["families.build"], "s")
        out["equiv.scalar_tests"] = (self.calls["equiv.scalar_test"], "count")
        for n in SCALAR_TEST_SIZES:
            out["equiv.scalar_test_ms.%d" % n] = (
                _median_ms(self.durations[("scalar_test", n)]), "ms")
        out["equiv.sweep_self_s"] = (self.self_s["equiv.sweep"], "s")
        for method in VERDICT_METHODS + ("other",):
            out["equiv.method.%s" % method] = (
                self.counts[("method", method)], "count")
        pairs = self.counts["sweep.pairs"]
        out["equiv.decided_ratio"] = (
            _ratio(pairs - self.counts["sweep.inconclusive"], pairs), "ratio")
        out["equiv.shape_split_ratio"] = (
            _ratio(self.counts["sweep.shape_split"], pairs), "ratio")
        out["moduli6.first_sample_s"] = (sum(self.durations["first_sample"]), "s")
        out["moduli6.sample_ms"] = (_median_ms(self.durations["sample"]), "ms")
        out["moduli6.certify_ms"] = (_median_ms(self.durations["certify"]), "ms")
        out["moduli6.equation_values_self_s"] = (
            self.self_s["moduli6.equation_values"], "s")
        out["moduli6.gamma2_solve_calls"] = (
            self.calls["moduli6.gamma2_solve"], "count")
        out["moduli6.certified_ratio"] = (
            _ratio(self.counts["certified"], len(self.durations["certify"])),
            "ratio")
        out["cli.self_s"] = (self.self_s["cli.main"], "s")
        return out

    def replay_field_ops(self, seed):
        """Median time per operation, in microseconds, over a seeded subset
        of the captured operands; 0 for an operation the workload never
        ran in that tower.  Call after ``uninstall``."""
        rng = random.Random(seed)
        out = {}
        for op_name, op, degree in (("mul", operator.mul, 2),
                                    ("mul", operator.mul, 6),
                                    ("add", operator.add, 2)):
            pairs = list(self.samples[(op_name, degree)].pairs)
            if len(pairs) > _REPLAY_PAIRS:
                pairs = rng.sample(pairs, _REPLAY_PAIRS)
            out["field.%s.%s_us" % (TOWERS[degree], op_name)] = (
                _time_per_op(op, pairs) * 1e6 if pairs else 0.0, "us")
        return out


def cache_sizes():
    """Entries in the two process-global caches, as counts."""
    inv = sum(len(tower._inv_cache) for tower in field._TOWER_CACHE.values())
    return {"field.inv_cache_size": (inv, "count"),
            "moduli6.candidate_cache_size": (len(moduli6._CANDIDATE_CACHE),
                                             "count")}


def _time_per_op(op, pairs):
    rounds = []
    for _ in range(_REPLAY_ROUNDS):
        start = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        rounds.append((time.perf_counter() - start) / len(pairs))
    return statistics.median(rounds)


def _median_ms(durations):
    return statistics.median(durations) * 1e3 if durations else 0.0


def _ratio(part, whole):
    return part / whole if whole else 0.0
