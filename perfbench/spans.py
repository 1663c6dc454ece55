"""Span tracing of figurate's layers from outside the package.

The tracer never edits ``src/``. While installed it replaces every public
function bound in a layer module's namespace with a wrapper that records one
span per call, and it puts the original functions back when removed. Because
the wrapper sits on the name as the *calling* module sees it
(``figurate.pipeline.generic_point``, ``figurate.partitions.affine_hull_contains``,
``figurate.lattice.enumerate_facets`` ...), calls between modules and calls
inside a module through its globals are both seen. Geometry's own namespace is
left alone, so geometry spans are exactly the calls made into geometry from
the other layers.

A span is ``(name, layer, start_ns, end_ns, parent, item, outer_name,
outer_layer)``: ``parent`` is the index of the enclosing span (-1 at the
top), ``item`` identifies the workload item, one CLI invocation, and the
flags say whether no enclosing span has the same name, or the same layer.
Spans stay in memory until written out. A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import json
from math import comb
from time import perf_counter_ns

LAYERS = ("geometry", "lattice", "triangulation", "partitions", "sequences", "pipeline", "cli")

NAME, LAYER, START, END, PARENT, ITEM, OUTER_NAME, OUTER_LAYER = range(8)

# Functions whose time is reported as ``<name>.s``; the ``.calls`` list adds
# call counts. Names are ``<defining module>.<function>``.
TIMED = (
    "partitions.generic_point",
    "partitions.visible_facets",
    "partitions.exterior_partition",
    "partitions.interior_partition",
    "partitions.verify_partition",
    "partitions.compute_vectors",
    "geometry.affine_hull_contains",
    "geometry.hyperplane_through",
    "geometry.affine_rank",
    "lattice.parse_builtin",
    "lattice.polytope_from_json",
    "lattice.enumerate_facets",
    "triangulation.generic_functional",
    "triangulation.assign_apexes",
    "triangulation.build_pointed_triangulation",
    "triangulation.verify_pointed",
    "triangulation.split_boundary_interior",
    "triangulation.pseudomanifold_certificate",
    "triangulation.is_simplicial_complex",
    "triangulation.link",
    "sequences.polytope_number_recursive",
    "sequences.polytope_number_simplex_sum",
    "pipeline.run_pipeline",
    "cli.main",
)
COUNTED = (
    "partitions.visible_facets",
    "partitions.verify_partition",
    "geometry.affine_hull_contains",
    "geometry.hyperplane_through",
    "geometry.side_of_hyperplane",
    "geometry.affine_rank",
    "geometry.matrix_rank",
    "triangulation.verify_pointed",
)
# The closed-form sequence routes (from h, from k, from h reversed), per term
# and per prefix, timed together as ``sequences.closed_form.s``. Inside the
# sequences layer they only call each other, so the outermost sequences span
# of the group is the outermost of the group.
CLOSED_FORM = frozenset({
    "sequences.polytope_number_from_h",
    "sequences.interior_from_k",
    "sequences.interior_from_h_reversed",
    "sequences.sequence_from_h",
    "sequences.sequence_interior_from_h",
    "sequences.sequence_interior_from_k",
})
SIZES = (
    "partitions.generic_point.targets",
    "partitions.intervals",
    "lattice.faces",
    "lattice.facets",
    "lattice.hull_candidates",
    "triangulation.simplices",
    "triangulation.maximal",
    "triangulation.interior",
    "sequences.terms",
    "sequences.value_bits",
    "pipeline.claims",
)


def _sequence_sizes(args, result):
    if isinstance(result, int):  # one term from a per-term closed form
        values = (result,)
    elif isinstance(getattr(result, "values", None), tuple):  # a SequenceResult
        values = result.values
    else:
        return {}
    return {"sequences.terms": len(values), "sequences.value_bits": sum(abs(v).bit_length() for v in values)}


def _lattice_sizes(result):
    return {"lattice.faces": len(result.faces), "lattice.facets": len(result.facet_ids())}


# Size counters read off a call's arguments and result, as (args, result) -> counts.
# They are taken only from the outermost span of the name (outermost in the
# layer, for sequences) so that nested calls are not counted twice.
_SIZE_HOOKS = {
    "partitions.generic_point": lambda a, r: {"partitions.generic_point.targets": len(r.certificate)},
    "partitions.exterior_partition": lambda a, r: {"partitions.intervals": len(r.intervals)},
    "partitions.interior_partition": lambda a, r: {"partitions.intervals": len(r.intervals)},
    "lattice.parse_builtin": lambda a, r: _lattice_sizes(r),
    "lattice.polytope_from_json": lambda a, r: _lattice_sizes(r),
    "lattice.enumerate_facets": lambda a, r: {"lattice.hull_candidates": comb(len(a[0].vertices), a[0].dim)},
    "triangulation.build_pointed_triangulation": lambda a, r: {
        "triangulation.simplices": len(r.simplices), "triangulation.maximal": len(r.maximal)
    },
    "triangulation.split_boundary_interior": lambda a, r: {"triangulation.interior": len(r.interior)},
    "pipeline.run_pipeline": lambda a, r: {"pipeline.claims": len(r)},
}


class Tracer:
    """Records spans for calls into figurate's layer modules while installed."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> imported module
        self.spans: list[tuple] = []
        self.sizes: dict[str, int] = dict.fromkeys(SIZES, 0)
        self.item = None
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        if layer == "sequences":
            hook, by_layer = _sequence_sizes, True
        else:
            hook, by_layer = _SIZE_HOOKS.get(name), False
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_name = not active.get(name)
            outer_layer = not active.get(layer)
            active[name] = active.get(name, 0) + 1
            active[layer] = active.get(layer, 0) + 1
            parent = stack[-1] if stack else -1
            index = len(spans)
            # A placeholder keeps the index; the finished span is an atomic
            # tuple, which the garbage collector stops tracking.
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (
                    name, layer, start, perf_counter_ns(), parent, self.item, outer_name, outer_layer
                )
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
            if hook is not None and (outer_layer if by_layer else outer_name):
                for key, value in hook(args, result).items():
                    self.sizes[key] += value
            return result

        return traced

    def install(self) -> None:
        """Wrap every public figurate function bound in a non-geometry layer module."""
        for layer, module in self.modules.items():
            if layer == "geometry":
                continue
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("figurate.")
                ):
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, self._wrap(obj))

    def remove(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def longest(self, count: int) -> list[tuple[str, float]]:
        """The ``count`` longest single spans below ``cli.main``, as (name, seconds)."""
        spans = sorted((s for s in self.spans if s[NAME] != "cli.main"), key=lambda s: s[START] - s[END])
        return [(s[NAME], (s[END] - s[START]) / 1e9) for s in spans[:count]]

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, times in ns from the first span."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start_ns": s[START] - t0, "end_ns": s[END] - t0,
                    "parent": s[PARENT], "item": s[ITEM],
                }) + "\n")


def layer_metrics(spans, sizes) -> dict[str, float]:
    """Per-layer metrics of one traced pass: times in s, counts as integers.

    A function's or a layer's time is the time its spans cover: the spans
    nested in another span of the same function (layer) add nothing.
    """
    calls: dict[str, int] = {}
    name_ns: dict[str, int] = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    closed_form_ns = 0
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    for s, children in zip(spans, child_ns):
        name, layer, duration = s[NAME], s[LAYER], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_ns[layer] += duration - children
        if s[OUTER_NAME]:
            name_ns[name] = name_ns.get(name, 0) + duration
        if s[OUTER_LAYER]:
            layer_ns[layer] += duration
            if name in CLOSED_FORM:
                closed_form_ns += duration
    out: dict[str, float] = {f"{name}.s": name_ns.get(name, 0) / 1e9 for name in TIMED}
    out["sequences.closed_form.s"] = closed_form_ns / 1e9
    out.update({f"{layer}.s": layer_ns[layer] / 1e9 for layer in LAYERS})
    out.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED})
    out.update({f"{layer}.self.s": self_ns[layer] / 1e9 for layer in LAYERS})
    out.update(sizes)
    out["trace.spans"] = len(spans)
    return out
