"""Spans and counts recorded around the public functions of twistq.

The benchmark measures each layer from outside.  install() replaces the
public functions of coeff, quandle, exactlin, chain, cocycles, knot and
cli at every name their callers look them up by (the module attribute and
every `from .x import f` copy), and a few public methods on their class.
Private helpers are never wrapped, so the metrics keep their meaning when
a later change rewrites or deletes them; a function that disappears
simply reads 0.

A span is [name, start_ns, end_ns, parent index or -1].  Spans and
counts stay in memory; a traced child process writes them to a JSON file
that the parent merges.  The per-layer metrics and the end-to-end metric
each should move are tabulated in bench/DESIGN.md.
"""

import inspect
import json
import math
import sys
import time

clock = time.perf_counter_ns

# public functions that are hot helpers, not units of work
_UNSPANNED = {"chain.is_degenerate", "chain.basis_tuples", "coeff.parse_poly",
              "coeff.render_poly"}
_RING_OPS = ("add", "sub", "neg", "scalar_mul", "mul", "t_act", "t_pow",
             "quandle_op")

QUANDLE_BUILD = {"quandle.FiniteQuandle", "quandle.quandle_from_table",
                 "quandle.trivial_quandle", "quandle.dihedral_quandle",
                 "quandle.alexander_quandle", "quandle.quandle_standard",
                 "quandle.quandle_product", "quandle.quandle_extension",
                 "quandle.parse_quandle_table"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self._patches = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def add_span(self, name, start, end):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent])

    def inside(self, prefix):
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def spanned(self, name, fn, after=None, before=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def counted(self, keys, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions in every twistq module."""
        from twistq import (chain, cli, cocycles, coeff, exactlin, knot,
                            quandle)
        modules = {"coeff": coeff, "quandle": quandle, "exactlin": exactlin,
                   "chain": chain, "cocycles": cocycles, "knot": knot,
                   "cli": cli}
        wrappers = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", ["main"])
            for fname in names:
                fn = getattr(mod, fname, None)
                key = "%s.%s" % (layer, fname)
                if not inspect.isfunction(fn) or key in _UNSPANNED:
                    continue
                wrappers[id(fn)] = self.spanned(key, fn, _AFTER.get(key),
                                                _BEFORE.get(key))
        basis = getattr(chain, "basis_tuples", None)
        if basis is not None:
            wrappers[id(basis)] = self._basis_counter(basis)
        for mod in [m for n, m in sys.modules.items()
                    if n == "twistq" or n.startswith("twistq.")]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patch(mod, attr, wrappers[id(val)])
        for op in _RING_OPS:
            keys = ["coeff.ring_ops"]
            if op == "t_pow":
                keys.append("coeff.t_pow.calls")
            self._patch_method(coeff.AlexanderRing, op,
                               lambda fn, keys=keys: self.counted(keys, fn))
        self._patch_method(
            coeff.GroupRingElem, "canonical_under_T",
            lambda fn: self.spanned("coeff.canonical_under_T", fn))
        self._patch_method(coeff.GroupRingElem, "t_act", self._orbit_step)
        self._patch_method(
            quandle.FiniteQuandle, "__init__",
            lambda fn: self.spanned("quandle.FiniteQuandle", fn))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_method(self, cls, name, make):
        fn = cls.__dict__.get(name)
        if inspect.isfunction(fn):
            self._patch(cls, name, make(fn))

    def _orbit_step(self, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "coeff.canonical_under_T":
                counts["coeff.canonical_under_T.steps"] = \
                    counts.get("coeff.canonical_under_T.steps", 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _basis_counter(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count("chain.basis_tuples.calls")
            self.count("chain.basis_size", len(result))
            return result
        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- child processes -------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge(self, path):
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1])
        for key, n in data["counts"].items():
            self.count(key, n)


# -- size hooks, run after the call and outside its span --------------------

def _matrix_size(obj):
    """(cells, nonzeros) of a matrix-like argument, else (0, 0)."""
    if hasattr(obj, "rows") and hasattr(obj, "cols"):
        data = getattr(obj, "data", None)
        nnz = sum(1 for row in data for v in row if v) if data else 0
        return obj.rows * obj.cols, nnz
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        return (sum(len(c) for c in obj),
                sum(1 for c in obj for v in c if v))
    return 0, 0


def _max_bits(obj):
    if obj is None or isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if hasattr(obj, "generators"):
        return _max_bits(obj.generators)
    if hasattr(obj, "data"):
        return _max_bits(obj.data)
    if isinstance(obj, (list, tuple)):
        return max((_max_bits(v) for v in obj), default=0)
    return 0


def _after_exactlin(tr, args, result):
    if tr.inside("exactlin."):
        return
    for arg in args:
        cells, nnz = _matrix_size(arg)
        tr.count("exactlin.in_cells", cells)
        tr.count("exactlin.in_nnz", nnz)
    bits = _max_bits(result)
    if bits > tr.counts.get("exactlin.out_max_bits", 0):
        tr.counts["exactlin.out_max_bits"] = bits


def _after_solve(tr, args, result):
    _after_exactlin(tr, args, result)
    if result is None and not tr.inside("exactlin."):
        tr.count("exactlin.solve_linear.unsolved")


def _before_colorings(tr, args):
    thing, x = args[0], args[1]
    cells = getattr(thing, "semiarcs", None) or getattr(thing, "sheets", [])
    tr.count("knot.searches")
    tr.count("knot.search_space_bits", len(cells) * math.log2(x.size))


def _after_colorings(tr, args, result):
    tr.count("knot.colorings.kept", len(result))


_AFTER = {
    "exactlin.smith_normal_form": _after_exactlin,
    "exactlin.kernel_basis": _after_exactlin,
    "exactlin.lattice_basis": _after_exactlin,
    "exactlin.homology_segment": _after_exactlin,
    "exactlin.solve_linear": _after_solve,
    "knot.colorings": _after_colorings,
    "knot.surface_colorings": _after_colorings,
}
_BEFORE = {
    "knot.colorings": _before_colorings,
    "knot.surface_colorings": _before_colorings,
}


# -- per-layer metrics --------------------------------------------------------

def layer_metrics(tr):
    """Per-layer metrics of everything the tracer recorded.

    name.s is the time inside spans of that name, counting nested calls
    of the same name once; self_s subtracts the time covered by child
    spans; counts come from the hooks and counting wrappers.
    """
    spans = tr.spans
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    def outermost(names):
        total, calls = 0, 0
        for name, start, end, parent in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += end - start
                calls += 1
        return total / 1e9, calls

    def self_s(names):
        return sum(end - start - child_ns[i]
                   for i, (name, start, end, _p) in enumerate(spans)
                   if name in names) / 1e9

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    c = tr.counts.get
    m = {}
    for fn in ("homology_segment", "solve_linear", "kernel_basis",
               "lattice_basis"):
        m["exactlin.%s.s" % fn] = outermost({"exactlin." + fn})[0]
    m["exactlin.homology_segment.calls"] = calls("exactlin.homology_segment")
    m["exactlin.solve_linear.calls"] = calls("exactlin.solve_linear")
    m["exactlin.solve_linear.unsolved"] = c("exactlin.solve_linear.unsolved", 0)
    m["exactlin.in_cells"] = c("exactlin.in_cells", 0)
    m["exactlin.in_nnz"] = c("exactlin.in_nnz", 0)
    m["exactlin.out_max_bits"] = c("exactlin.out_max_bits", 0)

    m["chain.boundary_matrix.s"] = outermost({"chain.boundary_matrix"})[0]
    m["chain.delta_matrix.s"] = outermost({"chain.delta_matrix"})[0]
    m["chain.basis_tuples.calls"] = c("chain.basis_tuples.calls", 0)
    m["chain.basis_size"] = c("chain.basis_size", 0)
    m["chain.homology.self_s"] = self_s({"chain.homology", "chain.cohomology"})
    m["chain.delta.s"] = outermost({"chain.delta"})[0]
    m["chain.brute_force_homology.s"] = \
        outermost({"chain.brute_force_homology"})[0]

    m["coeff.ring_ops"] = c("coeff.ring_ops", 0)
    m["coeff.t_pow.calls"] = c("coeff.t_pow.calls", 0)
    m["coeff.canonical_under_T.s"] = \
        outermost({"coeff.canonical_under_T"})[0]
    m["coeff.canonical_under_T.steps"] = c("coeff.canonical_under_T.steps", 0)

    m["quandle.build.s"], m["quandle.build.calls"] = outermost(QUANDLE_BUILD)
    m["quandle.find_isomorphism.s"] = \
        outermost({"quandle.find_isomorphism"})[0]

    cocycle_fns = {s[0] for s in spans if s[0].startswith("cocycles.")}
    m["cocycles.construct.s"], m["cocycles.construct.calls"] = \
        outermost(cocycle_fns)

    m["knot.parse.s"] = outermost({"knot.parse_pd", "knot.parse_surface"})[0]
    m["knot.alexander_numbering.s"] = \
        outermost({"knot.alexander_numbering"})[0]
    m["knot.colorings.s"] = \
        outermost({"knot.colorings", "knot.surface_colorings"})[0]
    m["knot.colorings.kept"] = c("knot.colorings.kept", 0)
    searches = c("knot.searches", 0)
    m["knot.search_space_log2"] = \
        c("knot.search_space_bits", 0) / searches if searches else 0.0
    m["knot.state_sum.self_s"] = \
        self_s({"knot.state_sum", "knot.state_sum_surface"})

    m["cli.import.s"] = outermost({"cli.import"})[0]
    m["cli.main.s"] = outermost({"cli.main"})[0]
    m["cli.report_bytes"] = c("cli.report_bytes", 0)
    return m
