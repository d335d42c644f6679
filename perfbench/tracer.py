"""Outside-in tracer: wraps functions of already-imported modules.

Nothing in the traced program changes.  ``Tracer.install`` replaces a
function by a wrapper in every module that bound it, so
``from .x import f`` and aliases such as ``import f as _f`` are caught too.
``Tracer.uninstall`` puts every original back.

Two kinds of wrapper:

* a *span* records name, start, end, parent span and graph id, and adds
  the span's self time (duration minus the time covered by its child
  spans) to its layer;
* a *count* only counts calls, for hot private helpers whose time belongs
  to the enclosing span's layer.

Spans are kept in memory, in compact arrays, and written out by
``write_spans`` once the traced job has ended.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

NO_GRAPH = -1
NO_PARENT = -1

# called as hook(tracer, result, args) after a layer-outermost call returns
Hook = Callable[["Tracer", object, tuple], None]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` in layer ``layer``."""

    layer: str
    module: str
    attr: str
    span: bool = True        # False: count calls only
    recursive: bool = False  # span only the outermost frame
    graph_arg: bool = False  # first argument names the span's graph
    hook: Hook | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.inclusive_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.values: Counter[str] = Counter()  # filled by hooks
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._graph_ids: dict[object, int] = {}
        # span columns, one entry per finished span
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.graph = array("q")
        self.start = array("d")
        self.end = array("d")
        self._next_id = 0
        # open spans: [span id, seconds covered by children, graph id]
        self._stack: list[list] = []
        self._layer_depth: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        """Wrap every target in every loaded module that bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for t in targets:
            original = getattr(sys.modules[t.module], t.attr)
            wrappers[id(original)] = (original, self._wrap(t, original))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def graph_id(self, g: object) -> int:
        """Small integer naming a distinct graph (equal graphs share it).
        Spans of targets without ``graph_arg`` inherit their parent's."""
        return self._graph_ids.setdefault(g, len(self._graph_ids))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, t: Target, fn):
        if not t.span:
            calls = self.calls
            name = t.name

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        name = t.name
        layer = t.layer
        self._name_index[name] = len(self.names)
        self.names.append(name)
        name_ix = self._name_index[name]
        calls, errors = self.calls, self.errors
        inclusive, self_s = self.inclusive_s, self.self_s
        stack, layer_depth = self._stack, self._layer_depth
        graph_id, clock = self.graph_id, self.clock
        hook, recursive, graph_arg = t.hook, t.recursive, t.graph_arg
        depth = 0  # frames of this very function on the stack

        def spanned(*args, **kwargs):
            nonlocal depth
            calls[name] += 1
            if recursive and depth:
                return fn(*args, **kwargs)
            if stack:
                parent, _, gid = stack[-1]
            else:
                parent, gid = NO_PARENT, NO_GRAPH
            if graph_arg:
                gid = graph_id(args[0])
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0, gid]
            stack.append(frame)
            depth += 1
            layer_depth[layer] += 1
            outermost = layer_depth[layer] == 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                layer_depth[layer] -= 1
                depth -= 1
                stack.pop()
                duration = end - start
                inclusive[name] += duration
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name.append(name_ix)
                self.graph.append(gid)
                self.start.append(start)
                self.end.append(end)
            if hook is not None and outermost:
                hook(self, result, args)
            return result

        return spanned

    # -- output -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_id)

    def spans_of(self, name: str) -> list[int]:
        """Indices of the finished spans of function ``name``."""
        ix = self._name_index[name]
        return [i for i, n in enumerate(self.name) if n == ix]

    def write_spans(self, path) -> None:
        """Tab-separated spans, gzip-compressed: id, parent, name, graph,
        start and end in seconds of the tracer's clock."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("span\tparent\tname\tgraph\tstart\tend\n")
            names = self.names
            for i in range(self.span_count):
                out.write(f"{self.span_id[i]}\t{self.parent[i]}\t"
                          f"{names[self.name[i]]}\t{self.graph[i]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

