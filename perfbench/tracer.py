"""Per-layer tracing of cayleypoly, installed from outside the package.

One layer is one module of the package.  `Tracer.install()` replaces every
public function, public method and arithmetic operator of each module with
a wrapper, and rebinds every name that another module imported with
`from .x import y`, so a cross-module call such as
verify -> geometry.simplex_for_forest opens a geometry span.

A span opens only where the layer changes: a call into a layer from code
of the same layer is folded into the open span and only counted.  Spans
are kept in memory as (name, start_ns, end_ns, parent_index) and written
out by the caller at the end.  A layer's self time is the time of its
spans minus the time of their child spans, so the stdlib `Fraction`
arithmetic a function does counts towards the layer of that function.

Generators are traced per resumption: every `next()` on a generator that
a layer returned runs inside a span of that layer.

Install only in a process that exits afterwards (a forked job child):
the wrappers are never removed.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types

PACKAGE = "cayleypoly"
LAYERS = ("exact", "graphs", "forests", "geometry", "volumes", "faces", "verify", "cli")

# Operators that do a layer's work; comparison and hashing dunders are
# protocol glue called by dicts and sets, and are left unwrapped.
OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__"}
)

# Counters named by function, beyond the per-layer call count.
POLY_MUL = {"BivariatePolynomial.__mul__", "BivariatePolynomial.__rmul__"}
ELIMINATION = {"determinant", "solve_linear_system", "matrix_rank"}
CONTAINS = {"HRep.contains", "contains"}
CELL_BUILDERS = {
    "simplex_for_forest",
    "forest_chain_hrep",
    "piece_for_plane_forest",
    "piece_for_plane_forest_via_cones",
}
CLOSED_FORMS = {"closed_form_simplex_volume", "closed_form_piece_volume"}
VERIFY_JOBS = {
    "verify_triangulation",
    "verify_subdivision",
    "verify_refinement",
    "verify_specializations",
    "verify_piece_constructions",
    "verify_fiber",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # Each span: [name_id, start_ns, end_ns, parent_index]; -1 is the root.
        self.spans: list[list[int]] = []
        self.open: list[int] = []
        self.layer_of_open: list[str] = [""]
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.counts: dict[str, int] = {}

    # -- span bookkeeping ---------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name_id: int, layer: str) -> int:
        index = len(self.spans)
        self.spans.append([name_id, time.perf_counter_ns(), 0, self.open[-1] if self.open else -1])
        self.open.append(index)
        self.layer_of_open.append(layer)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.open.pop()
        self.layer_of_open.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        name_id = self._name_id(f"{layer}.{qualname}")
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            outer = tracer.layer_of_open[-1]
            if outer == layer:
                result = fn(*args, **kwargs)
            else:
                index = tracer._enter(name_id, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(index)
            tracer._observe(qualname, outer, result)
            if isinstance(result, types.GeneratorType):
                return tracer._resume_in_layer(result, name_id, layer, qualname, outer)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _resume_in_layer(self, gen, name_id, layer, qualname, caller_layer):
        yielded = 0
        try:
            while True:
                if self.layer_of_open[-1] == layer:
                    item = next(gen, _DONE)
                else:
                    index = self._enter(name_id, layer)
                    try:
                        item = next(gen, _DONE)
                    finally:
                        self._exit(index)
                if item is _DONE:
                    return
                yielded += 1
                yield item
        finally:
            if qualname == "enumerate_labeled_forests":
                self.count("forests.labeled_forests", yielded)
            elif qualname == "enumerate_graphs" and caller_layer == "verify":
                self.count("verify.graphs_swept", yielded)

    def _observe(self, qualname: str, caller_layer: str, result) -> None:
        """Counters read from a call's name, caller layer and return value."""
        if qualname in POLY_MUL:
            self.count("exact.poly_mul.calls")
        elif qualname in ELIMINATION:
            self.count("exact.elim.calls")
        elif qualname == "nfs":
            self.count("forests.nfs.calls")
        elif qualname in CONTAINS:
            self.count("geometry.contains.calls")
        elif qualname in CELL_BUILDERS and caller_layer != "geometry":
            self.count("geometry.cells_built")
        elif qualname in CLOSED_FORMS:
            self.count("volumes.closed_form.calls")
        elif qualname == "face_lattice":
            self.count("faces.faces_found", sum(result.f_vector))
        elif qualname in VERIFY_JOBS and caller_layer != "verify":
            self.count("verify.jobs")
            sampling = result.checks.get("sampling")
            if sampling is not None:
                self.count("verify.samples_accepted", sampling["samples"])
                self.count("verify.samples_discarded", sampling["discarded_non_generic"])
            swept = result.checks.get("graphs_swept")
            if swept is not None:
                self.count("verify.graphs_swept", swept["got"])

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, layer, name)
                    replaced[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        package = importlib.import_module(PACKAGE)
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(member, classmethod):
                setattr(cls, name, classmethod(self._wrap(member.__func__, layer, qualname)))
            elif isinstance(member, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(member.__func__, layer, qualname)))
            elif inspect.isfunction(member):
                setattr(cls, name, self._wrap(member, layer, qualname))

    # -- summary ------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer: span time minus the time of child spans."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: 0 for layer in LAYERS}
        for index, (name_id, start, end, _) in enumerate(self.spans):
            layer = self.names[name_id].split(".", 1)[0]
            out[layer] += end - start - child_ns[index]
        return out

    def summary(self) -> dict:
        return {
            "self_ns": self.layer_self_ns(),
            "calls": self.calls,
            "counts": self.counts,
        }


_DONE = object()
