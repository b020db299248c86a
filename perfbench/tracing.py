"""Spans around the calls into each bentgroups module, from outside the program.

:func:`install` replaces every function a layer module exports, and every
private function another module imports from it, with a wrapper that
records a span.  It rebinds the module attribute and each ``from .x import``
binding in the sibling modules and the package, so calls are caught
whichever name they go through.  ``Group.exponent`` is wrapped too, so that
its element-order loop counts as ``groups`` time wherever it is read.

A span is ``[name, start, end, parent index, op id]``; the parent index
counts within the op, -1 for a root.  Spans stay in memory while an op runs
and are written out after it ends.  A layer's self time is the time
its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

#: The layers are the modules of the package.
LAYERS = (
    "groups", "characters", "class_functions", "bentness", "criteria",
    "constructions", "search", "ledger", "cli",
)
#: Functions that build a group; a build counts once at its outermost call.
_GROUP_BUILDERS = {
    "make_cyclic", "make_abelian", "make_named", "group_from_label",
    "group_from_json", "load_group",
}


class Tracer:
    """Collects spans and per-layer counts for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._built: set[str] = set()

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        probe = _PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self, parent, args, kwargs, result)
            return result

        return traced

    def flush(self, fh) -> tuple[dict, float]:
        """Write the finished op's spans to ``fh`` and drop them.

        Returns the op's :func:`layer_summary` and the time its root spans cover.
        """
        summary = layer_summary(self.spans)
        root_s = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        fh.writelines(json.dumps(span) + "\n" for span in self.spans)
        self.spans.clear()
        return summary, root_s

    def parent_layer(self, parent: int) -> str | None:
        return self.spans[parent][0].split(".")[0] if parent >= 0 else None


def _probe_group_build(tracer: Tracer, parent, args, kwargs, group) -> None:
    if tracer.parent_layer(parent) == "groups":
        return
    tracer.counts["groups.builds"] += 1
    if group.name in tracer._built:
        tracer.counts["groups.repeats"] += 1
    tracer._built.add(group.name)


def _probe_table(tracer: Tracer, parent, args, kwargs, table) -> None:
    tracer.counts["characters.tables"] += 1
    if table.group.abelian_factors is None:
        tracer.counts["characters.classsum"] += 1


def _probe_check(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["bentness.checks"] += 1


def _probe_sums(tracer: Tracer, parent, args, kwargs, sums) -> None:
    tracer.counts["bentness.directions"] += len(sums) - 1


def _probe_sum(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["bentness.directions"] += 1


def _probe_certified(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["constructions.certified"] += 1


def _probe_search(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["search.evals"] += result.evaluations
    tracer.counts["search.budget"] += result.config.budget


_PROBES = {f"groups.{name}": _probe_group_build for name in _GROUP_BUILDERS}
_PROBES.update({
    "characters.character_table": _probe_table,
    "bentness.is_bent": _probe_check,
    "bentness.is_bent_spectral": _probe_check,
    "bentness.derivative_sums": _probe_sums,
    "bentness.derivative_sum": _probe_sum,
    "constructions.make_bent_cyclic": _probe_certified,
    "search.run_search": _probe_search,
})


def install(tracer: Tracer) -> None:
    """Wrap every layer's cross-module functions and ``Group.exponent``."""
    package = "bentgroups"
    importlib.import_module(f"{package}.cli")
    modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            imported = any(
                vars(other).get(attr) is obj for other in modules if other is not mod
            )
            if not attr.startswith("_") or imported:
                wrappers[obj] = tracer.wrap(layer, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    group_cls = sys.modules[f"{package}.groups"].Group
    group_cls.exponent = property(tracer.wrap("groups", group_cls.exponent.fget))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_summary(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: total self time and entries (calls from another layer)."""
    summary = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".")[0]
        summary[layer]["self_s"] += own
        parent = span[3]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            summary[layer]["calls"] += 1
    return summary
