"""Per-layer tracing from outside the program.

The tracer replaces each traced function of ``halfspin`` with a wrapper that
times it, everywhere the function is bound: module globals (``spinrep`` and
``cli`` import ``dim_vector`` and ``state_u`` by name), dicts held by modules
(``oracle._SPIN_OPS``, ``oracle.SUITES``), package re-exports, and class
attributes for methods.  After installing, it scans every ``halfspin`` module
again and refuses to run if an original function is still held where it
cannot be replaced: in a tuple, list or set, a default argument or a closure.
A layer that a workload must drive and that reads zero fails the run too
(see ``workloads.py``), which catches the bindings no scan can see.

Every wrapped call is a span of its layer.  A layer's self time is its span
time minus the time of the spans nested directly in it; a call nested directly
in a span of its own layer (``__sub__`` calling ``__add__``) is part of that
span.  Counts and times are aggregated as the calls end.  Full span records
(layer, start, end, parent) are kept in memory only for the coarse layers,
whose calls number in the thousands per pass; the per-state layers are
aggregated only, since they run up to a million times per pass.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

PACKAGE = "halfspin"
SUITES = (
    "chevalley", "clifford", "factorization", "faithfulness", "intertwiner",
    "module", "serre", "weights", "dinfty",
)
_SUITE_FUNCS = {
    "chevalley": "check_chevalley",
    "clifford": "check_clifford",
    "factorization": "check_factorization",
    "faithfulness": "check_faithfulness",
    "intertwiner": "check_intertwiner",
    "module": "check_module_structure",
    "serre": "check_serre",
    "weights": "check_weight_consistency",
    "dinfty": "check_dinfty",
}

# (layer, traced functions as "module.name" or "module.Class.method", keep spans)
LAYERS = (
    ("diagram.enumerate", ("diagram.enumerate_diagrams", "diagram.enumerate_diagrams_by_boxes"), True),
    ("quiver.rank_context", ("quiver.RankContext.__init__",), True),
    ("quiver.dim_vector", ("quiver.dim_vector",), False),
    ("quiver.state_u", ("quiver.state_u",), False),
    ("spinrep.shift", ("spinrep._shift_state",), False),
    ("spinrep.apply_H", ("spinrep.apply_H",), False),
    ("spinrep.ladder", ("spinrep.geometric_a", "spinrep.geometric_b"), False),
    (
        "spinrep.weight",
        (
            "spinrep.weight_eps",
            "spinrep.weight_eps_alpha",
            "spinrep.weight_eps_closed",
            "spinrep.weight_eps_halved_variant",
        ),
        False,
    ),
    ("clifford.create_annihilate", ("clifford.create", "clifford.annihilate"), False),
    ("clifford.act", ("clifford.act",), False),
    ("clifford.product", ("clifford.CliffordElement.__mul__",), False),
    ("clifford.parse", ("clifford.parse_clifford_expression",), True),
    ("oracle.tabulate", ("oracle.operator_matrix",), True),
    ("oracle.matmul", ("oracle.ExactMatrix.__mul__",), True),
    ("oracle.mateq", ("oracle.ExactMatrix.__eq__",), False),
    ("oracle.matadd", ("oracle.ExactMatrix.__add__", "oracle.ExactMatrix.__sub__"), False),
    ("oracle.rank", ("oracle.ExactMatrix.rank",), True),
) + tuple(
    ("oracle.suite.%s" % s, ("oracle.%s" % _SUITE_FUNCS[s],), True) for s in SUITES
) + (
    ("cli.main", ("cli.main",), True),
)

# the per_layer metrics of BENCHMARK.json, with their units
METRICS = (
    ("diagram.enumerate.calls", "count"),
    ("diagram.enumerate.self_s", "s"),
    ("quiver.dim_vector.calls", "count"),
    ("quiver.dim_vector.self_s", "s"),
    ("quiver.state_u.calls", "count"),
    ("quiver.state_u.self_s", "s"),
    ("quiver.rank_context.calls", "count"),
    ("quiver.rank_context.self_s", "s"),
    ("spinrep.shift.calls", "count"),
    ("spinrep.shift.self_s", "s"),
    ("spinrep.shift.hit_ratio", "ratio"),
    ("spinrep.dim_vector_per_shift", "ratio"),
    ("spinrep.apply_H.self_s", "s"),
    ("spinrep.ladder.calls", "count"),
    ("spinrep.ladder.self_s", "s"),
    ("spinrep.weight.self_s", "s"),
    ("clifford.create_annihilate.calls", "count"),
    ("clifford.create_annihilate.self_s", "s"),
    ("clifford.act.calls", "count"),
    ("clifford.act.self_s", "s"),
    ("clifford.product.calls", "count"),
    ("clifford.product.self_s", "s"),
    ("clifford.parse.self_s", "s"),
    ("oracle.tabulate.calls", "count"),
    ("oracle.tabulate.self_s", "s"),
    ("oracle.tabulate.reuse_ratio", "ratio"),
    ("oracle.matmul.calls", "count"),
    ("oracle.matmul.self_s", "s"),
    ("oracle.matmul.nnz_out", "count"),
    ("oracle.mateq.self_s", "s"),
    ("oracle.matadd.self_s", "s"),
    ("oracle.rank.calls", "count"),
    ("oracle.rank.self_s", "s"),
) + tuple(("oracle.suite.%s.s" % s, "s") for s in SUITES) + (
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class TraceError(RuntimeError):
    pass


def _resolve(path):
    module_name, _, rest = path.partition(".")
    module = sys.modules.get("%s.%s" % (PACKAGE, module_name))
    if module is None:
        raise TraceError("module %s.%s is not imported" % (PACKAGE, module_name))
    owner = module
    parts = rest.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError("traced function %s not found" % path)
    func = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if not isinstance(func, types.FunctionType):
        raise TraceError("traced function %s not found" % path)
    return func


def _bindings():
    """Every (container, key, value) in the package that can hold a function reference."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            yield module, key, value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v
            elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for k, v in list(vars(value).items()):
                    yield value, k, v


def _stray_references(wrappers):
    """Where an original is held beyond _bindings' reach: sequences, defaults, closures."""
    ours = set(wrappers.values())
    found = []
    for container, key, value in _bindings():
        if isinstance(value, types.FunctionType) and value in ours:
            continue
        where = "%s.%s" % (getattr(container, "__name__", type(container).__name__), key)
        held = []
        if isinstance(value, (tuple, list, set, frozenset)):
            held = list(value)
        elif isinstance(value, types.FunctionType):
            held = list(value.__defaults__ or ()) + list((value.__kwdefaults__ or {}).values())
            held += [cell.cell_contents for cell in value.__closure__ or () if _filled(cell)]
        if any(isinstance(v, types.FunctionType) and v in wrappers for v in held):
            found.append(where)
    return found


def _filled(cell):
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Install with ``install()``; read ``layer_metrics()``; always ``uninstall()``."""

    def __init__(self):
        self.names = [layer for layer, _, _ in LAYERS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(LAYERS)
        self.incl = [0.0] * len(LAYERS)
        self.self_time = [0.0] * len(LAYERS)
        self.edges = defaultdict(int)
        self.spans = []
        self.shift_hits = 0
        self.nnz_out = 0
        self.tabulated = set()
        self.distinct_tabulations = 0
        self.passes = 0
        self._wrappers = None
        self._patched = []
        self._stack = []
        self._open_span = [-1]

    # -- installing -------------------------------------------------------

    def install(self):
        if self._wrappers is None:
            self._wrappers = {}
            for layer, paths, keep in LAYERS:
                hook = self._hooks().get(layer)
                for path in paths:
                    func = _resolve(path)
                    self._wrappers[func] = self._wrap(self.index[layer], func, keep, hook)
        try:
            for container, key, value in _bindings():
                if isinstance(value, types.FunctionType) and value in self._wrappers:
                    self._patched.append((container, key, value))
                    _set(container, key, self._wrappers[value])
            stray = _stray_references(self._wrappers)
            if stray:
                raise TraceError("references the tracer cannot replace: %s" % ", ".join(stray))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patched:
            container, key, value = self._patched.pop()
            _set(container, key, value)

    def _hooks(self):
        def shift(args, result):
            if result is not None:
                self.shift_hits += 1

        def tabulate(args, result):
            op, basis, ctx = args[:3]
            self.tabulated.add((op, ctx.n, len(basis)))

        def matmul(args, result):
            self.nnz_out += getattr(result, "nnz", 0)

        return {"spinrep.shift": shift, "oracle.tabulate": tabulate, "oracle.matmul": matmul}

    def _wrap(self, layer, func, keep, hook):
        stack = self._stack
        calls, incl, self_time, edges = self.calls, self.incl, self.self_time, self.edges
        spans, open_span = self.spans, self._open_span

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return func(*args, **kwargs)
            frame = [layer, 0.0]
            if keep:
                sid = len(spans)
                spans.append(None)
                parent_sid = open_span[0]
                open_span[0] = sid
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[layer] += 1
                incl[layer] += took
                self_time[layer] += took - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += took
                    edges[parent[0], layer] += 1
                if keep:
                    spans[sid] = (layer, start, end, parent_sid)
                    open_span[0] = parent_sid
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- reading ----------------------------------------------------------

    def end_pass(self):
        self.passes += 1
        self.distinct_tabulations += len(self.tabulated)
        self.tabulated.clear()

    def totals(self, layer):
        i = self.index[layer]
        return self.calls[i], self.incl[i], self.self_time[i]

    def layer_metrics(self) -> dict:
        """The per-layer metrics, each per traced pass (ratios are ratios of totals)."""
        per = 1.0 / max(self.passes, 1)
        out = {}
        for layer in self.names:
            calls, incl, self_s = self.totals(layer)
            if layer.startswith("oracle.suite."):
                out[layer + ".s"] = incl * per
            else:
                out[layer + ".calls"] = calls * per
                out[layer + ".self_s"] = self_s * per
        shift_calls = self.totals("spinrep.shift")[0]
        out["spinrep.shift.hit_ratio"] = self.shift_hits / shift_calls if shift_calls else 0.0
        dv_in_shift = self.edges[self.index["spinrep.shift"], self.index["quiver.dim_vector"]]
        out["spinrep.dim_vector_per_shift"] = dv_in_shift / shift_calls if shift_calls else 0.0
        tab_calls = self.totals("oracle.tabulate")[0]
        out["oracle.tabulate.reuse_ratio"] = (
            tab_calls / self.distinct_tabulations if self.distinct_tabulations else 0.0
        )
        out["oracle.matmul.nnz_out"] = self.nnz_out * per
        return out

    def dump(self) -> dict:
        """Everything recorded: the span list, and per-layer and per-edge totals."""
        return {
            "layers": self.names,
            "span_fields": ["layer", "start", "end", "parent"],
            "spans": self.spans,
            "totals": {
                name: {"calls": self.calls[i], "incl_s": self.incl[i], "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)
            },
            "edges": [
                [self.names[p], self.names[c], n] for (p, c), n in sorted(self.edges.items())
            ],
            "passes": self.passes,
        }
