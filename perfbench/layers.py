"""Per-layer tracing from outside the package.

The layers are the package's modules.  `Tracer.install` replaces the public
functions listed in WRAPPED with wrappers that count calls and, at the
outermost entry into a layer, record a span.  A layer's self time is its
spans' time minus the time of spans of other layers opened beneath them.
Calls from a layer into itself are only counted.  Functions that are not
listed (for example `model.bits`, imported by name into other modules) are
not boundaries: their time counts to the caller's layer.

Spans are kept in memory, up to SPAN_CAP, and written out by `dump`.
"""

import json
import time

LAYERS = ("cli", "syntax", "trump", "games", "algebra", "finlat", "model")

# layer -> functions wrapped, as attribute paths in the layer's module.
# A trailing "*" marks a generator: its yields are counted and every resume
# is a span of the layer.
WRAPPED = {
    "cli": ("main",),
    "syntax": ("parse",),
    "trump": ("meaning", "truth_value", "Meaning.render",
              "Evaluator.satisfies", "Evaluator.winning_mask",
              "Evaluator.meaning", "Evaluator.truth_value"),
    "games": ("GameAnalyzer.antichain", "GameAnalyzer.has_winning_strategy",
              "Strategy.render"),
    "algebra": ("cyls_of", "generate_subalgebra", "check_law",
                "AlgebraContext.add", "AlgebraContext.mul",
                "AlgebraContext.cyl", "AlgebraContext.dump"),
    "finlat": ("monadic_reduct", "check_quantifier",
               "classify_quantifier_type", "check_variety_markers"),
    "model": ("Structure.from_file", "Space.variant_team",
              "Space.powerset_mask", "Space.team_classes",
              "Space.independent_functions*", "Space.saturated_splits*",
              "Space.classes", "Space.variant_team_all",
              "Space.variant_team_fn", "Space.touched_classes",
              "Space.parse_team", "Space.render_team"),
}

# per-layer metrics: name -> how to read it from a finished Tracer
COUNTED = (
    "trump.Evaluator.winning_mask", "model.Space.variant_team",
    "model.Space.powerset_mask", "trump.Evaluator.satisfies",
    "games.GameAnalyzer.antichain", "algebra.AlgebraContext.add",
    "algebra.AlgebraContext.cyl", "algebra.AlgebraContext.mul",
    "algebra.check_law", "model.Space.team_classes", "syntax.parse",
    "cli.main",
)
YIELDED = ("model.Space.independent_functions", "model.Space.saturated_splits")
SELF_TIMED = ("trump", "games", "algebra", "finlat", "model", "syntax", "cli")

SPAN_CAP = 100000


def metric_units():
    """Every per-layer metric with its unit, in report order."""
    out = {}
    for layer in SELF_TIMED:
        out["%s.self_ms" % layer] = "ms"
    for name in COUNTED:
        out["%s.calls" % name] = "count"
    for name in YIELDED:
        out["%s.yields" % name] = "count"
    out["games.GameAnalyzer.antichain.max_width"] = "count"
    out["algebra.generate_subalgebra.elements"] = "count"
    out["cli.stdout_bytes"] = "bytes"
    out["trace.overhead_pct"] = "%"
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.calls = {}
        self.yields = {}
        self.self_raw = dict.fromkeys(LAYERS, 0.0)
        self.self_norm = dict.fromkeys(LAYERS, 0.0)
        self.max_width = 0
        self.elements = 0
        self.stdout_bytes = 0
        self.spans = []
        self.dropped = 0
        self.op = -1
        self.missing = []

    # -- installation ---------------------------------------------------------

    def install(self, modules):
        """Wrap every listed function; modules maps layer -> module."""
        for layer, names in WRAPPED.items():
            for name in names:
                generator = name.endswith("*")
                path = name.rstrip("*").split(".")
                owner = modules[layer]
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                key = "%s.%s" % (layer, ".".join(path))
                raw = getattr(owner, "__dict__", {}).get(path[-1])
                if raw is None:
                    self.missing.append(key)
                    continue
                wrap = classmethod if isinstance(raw, classmethod) else None
                fn = raw.__func__ if wrap else raw
                self.calls[key] = 0
                if generator:
                    self.yields[key] = 0
                    new = self._generator(layer, key, fn)
                else:
                    new = self._function(layer, key, fn, _HOOKS.get(key))
                setattr(owner, path[-1], wrap(new) if wrap else new)

    def _function(self, layer, key, fn, hook):
        tracer = self
        calls = self.calls

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(layer, fn, args, kwargs)
            if hook is not None:
                hook(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, layer, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            return tracer._resume(layer, key, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _resume(self, layer, key, inner):
        while True:
            stack = self.stack
            try:
                if stack and stack[-1][0] == layer:
                    item = next(inner)
                else:
                    item = self._span(layer, next, (inner,), {})
            except StopIteration:
                return
            self.yields[key] += 1
            yield item

    def _span(self, layer, fn, args, kwargs):
        frame = [layer, 0.0]
        stack = self.stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            took = end - start
            self.self_raw[layer] += took - frame[1]
            if stack:
                stack[-1][1] += took
            if len(self.spans) < SPAN_CAP:
                self.spans.append((self.op, layer, start, end, len(stack)))
            else:
                self.dropped += 1

    # -- per operation ----------------------------------------------------------

    def begin(self, op):
        self.op = op
        for layer in LAYERS:
            self.self_raw[layer] = 0.0
        self.active = True

    def end(self, factor):
        """Stop recording; scale the operation's self times to normalised."""
        self.active = False
        for layer in LAYERS:
            self.self_norm[layer] += self.self_raw[layer] * factor

    # -- results ------------------------------------------------------------------

    def metrics(self, overhead_pct):
        out = {}
        for layer in SELF_TIMED:
            out["%s.self_ms" % layer] = self.self_norm[layer] * 1000.0
        for name in COUNTED:
            out["%s.calls" % name] = self.calls.get(name, 0)
        for name in YIELDED:
            out["%s.yields" % name] = self.yields.get(name, 0)
        out["games.GameAnalyzer.antichain.max_width"] = self.max_width
        out["algebra.generate_subalgebra.elements"] = self.elements
        out["cli.stdout_bytes"] = self.stdout_bytes
        out["trace.overhead_pct"] = overhead_pct
        return out

    def dump(self, path, header):
        """Write the header, then one JSON list per span."""
        with open(path, "w") as handle:
            header = dict(header, missing=self.missing, spans=len(self.spans),
                          dropped=self.dropped)
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _antichain_width(tracer, result):
    tracer.max_width = max(tracer.max_width, len(result))


def _subalgebra_size(tracer, result):
    if isinstance(result, list):
        tracer.elements += len(result)


_HOOKS = {
    "games.GameAnalyzer.antichain": _antichain_width,
    "algebra.generate_subalgebra": _subalgebra_size,
}
