"""Per-layer tracing installed from outside the package.

Tracer.install() replaces each traced public function by a wrapper at every
module binding that holds it, including the copies that from-imports leave
in other modules, and uninstall() puts the originals back.  A wrapper counts
the call, times it, and charges its duration to the enclosing wrapper so that
self time is a span's duration minus the part its child spans cover.  Spans
(name, start, end, parent, op id) are kept in memory up to SPAN_CAP and
written out at the end; the hottest inner functions are count-and-time only
and leave no span.  A function missing from its module is reported absent.
"""

import json
import sys
import time

SPAN_CAP = 200_000

# (module, function, keeps spans, result measure).  The measure turns a
# return value into a number summed per function: members or vertices
# returned, or singular systems met.
TARGETS = [
    ("cli", "main", True, None),
    ("census", "census", True, None),
    ("census", "count_at", True, None),
    ("census", "count_at_infinity", True, None),
    ("equiv", "find_shift", True, None),
    ("equiv", "deformation_class", True, None),
    ("equiv", "enumerate_b", True, len),
    ("equiv", "sigma2_holds", False, None),
    ("symfun", "truncated_sym_equal", False, None),
    ("symfun", "elem_sym_all", False, None),
    ("moves", "move_path", True, None),
    ("families", "generate_family", True, None),
    ("families", "lift_class", True, None),
    ("polytope", "build", True, None),
    ("polytope", "is_delzant", True, None),
    ("polytope", "vertices", True, len),
    ("polytope", "recognize", True, None),
    ("polytope", "transform_polytope", True, None),
    ("polytope", "exact_volume", True, None),
    ("polytope", "fiber_fingerprint", True, None),
    ("_linalg", "det_int", False, None),
    ("_linalg", "solve_cramer", False, lambda x: x is None),
    ("_linalg", "kernel_vector_int", False, None),
    ("_linalg", "inverse_unimodular", False, None),
]


def layer_name(module, func):
    """Metric names may not start with '_', so _linalg reports as linalg."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack = []
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.measured = {}
        self.parent_calls = {}
        self.kind_calls = {}
        self.spans = []
        self.next_span_id = 0
        self.dropped_spans = 0
        self.absent = []
        self.op_id = None
        self.op_kind = None
        self._bindings = None  # (module, attribute, original, wrapper)

    def begin_op(self, op_id, kind):
        self.op_id = op_id
        self.op_kind = kind

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self):
        """Put the wrappers in place; the first call finds the bindings and
        makes the wrappers, later calls (after uninstall) reuse them."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig, _ in reversed(self._bindings or ()):
            setattr(m, attr, orig)

    def _find_bindings(self):
        modules = self._modules()
        bindings = []
        for module, func, spans, measure in TARGETS:
            home = sys.modules.get(f"{self.package.__name__}.{module}")
            orig = getattr(home, func, None) if home is not None else None
            name = layer_name(module, func)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, spans, measure)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        bindings.append((m, attr, orig, wrapper))
        return bindings

    def _wrap(self, name, fn, keep_spans, measure):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        self.calls[name] = 0
        self.total[name] = 0.0
        self.self_time[name] = 0.0
        self.measured[name] = 0
        depth = [0]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if keep_spans:
                span_id = self.next_span_id
                self.next_span_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                dt = end - start
                self.calls[name] += 1
                self.self_time[name] += dt - frame[1]
                if not depth[0]:
                    self.total[name] += dt
                if parent is not None:
                    parent[1] += dt
                    key = (name, parent[0])
                    self.parent_calls[key] = self.parent_calls.get(key, 0) + 1
                if keep_spans:
                    key = (self.op_kind, name)
                    self.kind_calls[key] = self.kind_calls.get(key, 0) + 1
                    if len(spans) < SPAN_CAP:
                        spans.append((span_id, name, start, end,
                                      parent[2] if parent else None, self.op_id))
                    else:
                        self.dropped_spans += 1
            if measure is not None:
                self.measured[name] += measure(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write_spans(self, path):
        """One JSON object per span, in order of ending; parent is the id of the
        enclosing span (ids are given in order of starting)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, op_kinds, exit_codes, overhead_ratio):
        """The per-layer metrics, with the base of every ratio alongside.

        op_kinds counts traced ops by kind; exit_codes counts CLI exit codes.
        A ratio whose base is 0 (the layer was not reached) reads 0.
        """
        calls, total, selft = self.calls, self.total, self.self_time
        parents, kinds, measured = self.parent_calls, self.kind_calls, self.measured
        out = {}
        bases = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        def ratio(name, num, den):
            bases[name] = {"numerator": num, "denominator": den}
            put(name, num / den if den else 0.0, "ratio")

        for module, func, _, _ in TARGETS:
            n = layer_name(module, func)
            put(f"{n}.calls", calls.get(n, 0), "count")
            put(f"{n}.time_s", total.get(n, 0.0), "s")
            put(f"{n}.self_s", selft.get(n, 0.0), "s")
        ratio("equiv.enumerate_b.accept_ratio", measured.get("equiv.enumerate_b", 0),
              parents.get(("symfun.truncated_sym_equal", "equiv.enumerate_b"), 0))
        ratio("polytope.vertices.useful_ratio", measured.get("polytope.vertices", 0),
              parents.get(("linalg.solve_cramer", "polytope.vertices"), 0))
        ratio("linalg.solve_cramer.singular_ratio", measured.get("linalg.solve_cramer", 0),
              calls.get("linalg.solve_cramer", 0))
        census_kinds = ("census_kappa", "census_infinity")
        ratio("census.deformation_class_per_cli_census_op",
              sum(kinds.get((k, "equiv.deformation_class"), 0) for k in census_kinds),
              sum(op_kinds.get(k, 0) for k in census_kinds))
        ratio("polytope.vertices_per_cli_polytope_op",
              kinds.get(("polytope_out", "polytope.vertices"), 0), op_kinds.get("polytope_out", 0))
        for code in (0, 1, 2):
            put(f"cli.exit_code.{code}", exit_codes.get(code, 0), "count")
        put("trace.overhead_ratio", overhead_ratio, "ratio")
        return out, bases
