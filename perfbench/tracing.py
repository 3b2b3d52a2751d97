"""Per-layer tracing installed from outside the qlattice package.

`Tracer.install` wraps public functions and constructors of each layer.  It
patches the defining module or class, every other qlattice module that
imported the same object by name, and the check table of `verify`, so that
no call path escapes the wrapper.  Each call records one span
(name, start, end, parent) in memory; `Tracer.summary` turns the spans into
per-layer counts, inclusive seconds and self seconds.  `uninstall` puts every
original object back.
"""

import functools
import sys
import time

# (module, attribute, span name, extra counter).  An attribute "C.m" is the
# method m of class C; "C.__init__" spans are named after the class.  The
# extra counter adds len(instance) after construction, or counts non-None
# results.
LAYERS = [
    ("ontic", "closure_step", "ontic.closure_step", None),
    ("ontic", "closure", "ontic.closure", None),
    ("ontic", "OnticCompletion.__init__", "ontic.OnticCompletion",
     "ontic.OnticCompletion.elements"),
    ("ontic", "OnticCompletion.sharpening", "ontic.sharpening", None),
    ("ontic", "OnticCompletion.join", "ontic.join", None),
    ("tensor", "TensorSpace.normalize", "tensor.normalize", None),
    ("tensor", "TensorSpace.__init__", "tensor.TensorSpace",
     "tensor.TensorSpace.elements"),
    ("tensor", "TensorSpace.index_of", "tensor.index_of", None),
    ("tensor", "congruence_oracle", "tensor.congruence_oracle", None),
    ("core_order", "StateSpace.__init__", "core_order.StateSpace", None),
    ("quantum", "lambda_search", "quantum.lambda_search",
     "quantum.lambda_search.found"),
    ("quantum", "bell_marginals", "quantum.bell_marginals", None),
    ("quantum", "broadcast_obstruction", "quantum.broadcast_obstruction",
     None),
    ("geometry", "GeometrySet.__init__", "geometry.GeometrySet",
     "geometry.points"),
    ("geometry", "GeometrySet.consistency_cover",
     "geometry.consistency_cover", None),
    ("geometry", "verify_projective", "geometry.verify_projective", None),
    ("geometry", "verify_ortho", "geometry.verify_ortho", None),
    ("geometry", "verify_invariants", "geometry.verify_invariants", None),
    ("contextuality", "maximal_contexts", "contextuality.maximal_contexts",
     None),
    ("contextuality", "verify_model_iso", "contextuality.verify_model_iso",
     None),
    ("contextuality", "find_joint_morphism",
     "contextuality.find_joint_morphism", None),
    ("chu", "all_effects", "chu.all_effects", None),
    ("realspaces", "ortho_matrix", "realspaces.ortho_matrix", None),
    ("realspaces", "orthoclosed_sets", "realspaces.orthoclosed_sets", None),
    ("cli", "main", "cli.main", None),
]

# The thirteen verify checks, by slug; their spans are "verify.<slug>".
CHECK_SLUGS = [
    "bool-tables", "preclosure-counterexample", "closure-idempotency",
    "simplex-tensor", "completion-zprime2", "tensor-congruence", "bell",
    "broadcasting", "contextuality", "orthoclosure", "geometry",
    "covering-preservation", "non-completeness",
]

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def span_names():
    return [name for _, _, name, _ in LAYERS] + \
        ["verify." + slug for slug in CHECK_SLUGS]


# Counters added by the wrappers and reported as they are.
COUNTERS = ["ontic.OnticCompletion.elements", "tensor.TensorSpace.elements",
            "geometry.points"]

# name: (numerator, denominator, better); 0 when the denominator is 0.
RATIOS = {
    "ontic.steps_per_closure":
        ("ontic.closure_step.calls", "ontic.closure.calls", "lower"),
    "tensor.elements_per_normalize":
        ("tensor.TensorSpace.elements", "tensor.normalize.calls", "higher"),
    "quantum.lambda_search.found_ratio":
        ("quantum.lambda_search.found", "quantum.lambda_search.calls",
         "higher"),
}


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in span_names():
        for field in ("calls", "s", "self_s"):
            out.append(("%s.%s" % (name, field), _UNITS[field], "lower"))
    out += [(name, "count", "higher") for name in COUNTERS]
    out += [(name, "ratio", better)
            for name, (_, _, better) in RATIOS.items()]
    out += [("trace.overhead_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


def per_layer(summary, untraced_s, traced_s):
    """Every per-layer metric as name -> (value, unit), from a traced
    process's summary and the wall seconds of the same work untraced and
    traced."""
    values = dict(summary)
    for name, (num, den, _) in RATIOS.items():
        values[name] = values.get(num, 0) / values[den] \
            if values.get(den) else 0.0
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    return {name: (values.get(name, 0), unit)
            for name, unit, _ in metric_specs()}


class Tracer(object):
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counters = {}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, counter, is_init):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if counter is not None:
                if is_init:
                    counters[counter] = counters.get(counter, 0) + len(args[0])
                elif result is not None:
                    counters[counter] = counters.get(counter, 0) + 1
            return result
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, mods, orig, wrapped):
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._set(m, key, wrapped)

    def install(self):
        """Wrap every layer in LAYERS and every verify check."""
        import qlattice
        import qlattice.cli
        import qlattice.verify
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "qlattice" or name.startswith("qlattice.")]
        for modname, attr, name, counter in LAYERS:
            mod = sys.modules["qlattice." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, counter,
                                                meth == "__init__"))
            else:
                orig = getattr(mod, attr)
                self._rebind(mods, orig,
                             self._wrap(name, orig, counter, False))
        checks = qlattice.verify.CHECKS
        if sorted(slug for slug, _, _ in checks) != sorted(CHECK_SLUGS):
            raise RuntimeError("verify checks changed: %s"
                               % [slug for slug, _, _ in checks])
        self._undo.append((checks, None, list(checks)))
        for i, (slug, anchor, fn) in enumerate(checks):
            wrapped = self._wrap("verify." + slug, fn, None, False)
            checks[i] = (slug, anchor, wrapped)
            self._rebind(mods, fn, wrapped)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)
        self._undo = []

    def summary(self):
        """Per-layer calls, inclusive and self seconds, plus counters.

        Inclusive time counts only the outermost of nested spans of one
        name; self time is a span's duration minus its children's."""
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        self_s = [0.0] * n
        child = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            nid, start, end, parent = self.spans[idx]
            dur = end - start
            self_s[nid] += dur - child[idx]
            if parent >= 0:
                child[parent] += dur
            calls[nid] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:
                incl[nid] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".s"] = incl[nid]
            out[name + ".self_s"] = self_s[nid]
        out.update(self.counters)
        return out
