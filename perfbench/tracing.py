"""Span and counter wrappers that the traced benchmark run installs around bfw.

Nothing here changes bfw's files: :meth:`Tracer.install` replaces functions
and methods in memory and :meth:`Tracer.uninstall` puts the originals back.
A module-level function is replaced in every loaded module that holds it, so
names taken in with ``from ... import`` are traced where they are looked up.

A span records (id, name, start, end, parent id).  A layer's self time is its
span's duration minus the time covered by its child spans.  Calls made once
per label (``GroupDual.fuse``, ``Weight.log_value``,
``OperatorField.from_terms``) get counters only, since a span there would
cost more than the call; fusion cache misses are counted at each family's
``_fuse``, which ``fuse`` calls only on a miss.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, attribute) for every span; several attributes may
# share a prefix, and "Class.method" names a method
SPANS = (
    ("duals.support_step", "bfw.duals", "GroupDual.support_step"),
    ("duals.ball", "bfw.duals", "GroupDual.ball"),
    ("duals.intertwiners", "bfw.duals", "GroupDual.intertwiners"),
    ("duals.irrep_stack", "bfw.duals", "su2_irrep_stack"),
    ("weights.certificate", "bfw.weights", "_certificate"),
    ("weights.validate", "bfw.weights", "validate"),
    ("fields.multiply", "bfw.fields", "multiply"),
    ("fields.norm", "bfw.fields", "norm_a_omega"),
    ("fields.norm", "bfw.fields", "norm_l2_omega"),
    ("fields.norm", "bfw.fields", "dual_norm_report"),
    ("quadrature.rep_stack", "bfw.quadrature", "HaarGrid.rep_stack"),
    ("quadrature.grid_values", "bfw.quadrature", "grid_values"),
    ("quadrature.coefficients", "bfw.quadrature", "HaarGrid.coefficients"),
    ("spectrum.bounds", "bfw.spectrum", "spectrum_bounds"),
    ("spectrum.membership", "bfw.spectrum", "membership"),
    ("spectrum.char_eval", "bfw.spectrum", "char_eval"),
    ("calculus.exp_itu", "bfw.calculus", "exp_itu"),
    ("calculus.exp_itu_auto", "bfw.calculus", "exp_itu_auto"),
    ("calculus.separating", "bfw.calculus", "separating_function"),
    ("calculus.derivation_scan", "bfw.calculus", "derivation_bound_scan"),
    ("serialize.dumps", "bfw.serialize", "dumps"),
    ("serialize.element_from_json", "bfw.serialize", "element_from_json"),
    ("cli.main", "bfw.cli", "main"),
)

# per-layer metrics reported by a traced run, with units
PER_LAYER = {
    "duals.fuse.calls": "count",
    "duals.fuse.distinct": "count",
    "duals.support_step.calls": "count",
    "duals.support_step.labels": "count",
    "duals.support_step.self_s": "s",
    "duals.ball.calls": "count",
    "duals.ball.labels": "count",
    "duals.ball.self_s": "s",
    "duals.intertwiners.calls": "count",
    "duals.intertwiners.builds": "count",
    "duals.intertwiners.self_s": "s",
    "duals.irrep_stack.calls": "count",
    "duals.irrep_stack.self_s": "s",
    "weights.log_value.calls": "count",
    "weights.certificate.self_s": "s",
    "weights.validate.self_s": "s",
    "fields.multiply.calls": "count",
    "fields.multiply.self_s": "s",
    "fields.norm.self_s": "s",
    "fields.from_terms.calls": "count",
    "fields.from_terms.entries": "count",
    "quadrature.rep_stack.calls": "count",
    "quadrature.rep_stack.self_s": "s",
    "quadrature.grid_values.self_s": "s",
    "quadrature.coefficients.self_s": "s",
    "spectrum.bounds.self_s": "s",
    "spectrum.membership.self_s": "s",
    "spectrum.char_eval.self_s": "s",
    "calculus.exp_itu.calls": "count",
    "calculus.exp_itu.doublings": "count",
    "calculus.exp_itu.self_s": "s",
    "calculus.separating.self_s": "s",
    "calculus.derivation_scan.self_s": "s",
    "serialize.dumps.self_s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.element_from_json.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
}


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


def _owner(module: str, attr: str):
    mod = sys.modules[module]
    if "." in attr:
        cls_name, name = attr.split(".")
        return getattr(mod, cls_name), name
    return mod, attr


class Tracer:
    """Installs wrappers, keeps spans and per-round counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # --- per-round figures ----------------------------------------------
    def reset_round(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    def round_metrics(self) -> dict:
        out = {}
        for name in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]]
            else:
                out[name] = self.counts[name]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": self.spans}, fh)

    # --- wrappers -------------------------------------------------------
    def _span(self, name, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.self_s[name] += (end - start) - frame[1]
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append((frame[0], name, start, end, parent[0] if parent else None))
                tracer.counts[name + ".calls"] += 1
            if post is not None:
                post(token, result)
            return result

        return wrapper

    def _hooks(self, name):
        """(pre, post) counters attached to a span."""
        c = self.counts
        if name == "duals.support_step":
            def pre(args):
                c["duals.support_step.labels"] += len(args[1]) * len(args[2])
            return pre, None
        if name == "duals.ball":
            def post(_, result):
                c["duals.ball.labels"] += len(result)
            return None, post
        if name == "duals.intertwiners":
            def pre(args):
                c["duals.intertwiners.builds"] += (args[1], args[2]) not in args[0]._iw_cache
            return pre, None
        if name == "calculus.exp_itu_auto":
            def pre(args):
                return c["calculus.exp_itu.calls"]

            def post(before, result):
                c["calculus.exp_itu.doublings"] += c["calculus.exp_itu.calls"] - before - 1
            return pre, post
        if name == "serialize.dumps":
            def post(_, result):
                c["serialize.bytes_out"] += len(result.encode())
            return None, post
        return None, None

    def _counters(self):
        """Wrappers for the per-label calls: counts only, no spans."""
        from bfw.duals import GroupDual
        from bfw.fields import OperatorField
        from bfw.weights import Weight

        c = self.counts
        fuse, log_value = GroupDual.fuse, Weight.log_value
        from_terms = OperatorField.__dict__["from_terms"].__func__

        @functools.wraps(fuse)
        def fuse_counted(dual, a, b):
            c["duals.fuse.calls"] += 1
            return fuse(dual, a, b)

        def miss_counted(build):
            # fuse calls the family's _fuse only when (a, b) is not cached yet
            @functools.wraps(build)
            def counted(dual, a, b):
                c["duals.fuse.distinct"] += 1
                return build(dual, a, b)
            return counted

        @functools.wraps(log_value)
        def log_value_counted(w, a):
            c["weights.log_value.calls"] += 1
            return log_value(w, a)

        @functools.wraps(from_terms)
        def from_terms_counted(dual, terms):
            out = from_terms(dual, terms)
            c["fields.from_terms.calls"] += 1
            c["fields.from_terms.entries"] += sum(M.size for M in out.coeffs.values())
            return out

        families = [cls for cls in _subclasses(GroupDual) if "_fuse" in cls.__dict__]
        return ([(GroupDual, "fuse", fuse_counted), (Weight, "log_value", log_value_counted),
                 (OperatorField, "from_terms", staticmethod(from_terms_counted))]
                + [(cls, "_fuse", miss_counted(cls.__dict__["_fuse"])) for cls in families])

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions = {}
        for name, module, attr in SPANS:
            owner, key = _owner(module, attr)
            original = owner.__dict__[key]
            wrapped = self._span(name, original, *self._hooks(name))
            if isinstance(owner, type):
                self._set(owner, key, wrapped)
            else:
                functions[id(original)] = (original, wrapped)
        for cls, key, wrapped in self._counters():
            self._set(cls, key, wrapped)
        # rebind module-level functions in every module that imported them
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            hits = [(k, functions[id(v)]) for k, v in list(namespace.items()) if id(v) in functions]
            for k, (original, wrapped) in hits:
                if namespace[k] is original:
                    self._set(mod, k, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
