"""Spans around the calls into each bayeslb module, recorded from outside.

``Tracer.install`` wraps every function a layer module lists in ``__all__``
and rebinds each reference to it that the package holds: the module
attribute, names imported with ``from .x import y`` elsewhere in the package
(``cli`` and ``simulate`` call through those), and module-level tables such
as ``cli._SCENARIO_FNS``. ``uninstall`` puts the originals back.

Spans stay in memory, in flat arrays because a traced pass can make close
to a million calls, until the run writes them out.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "info", "sdpi", "bounds", "scenarios", "simulate")


class Tracer:
    def __init__(self):
        self.names: list = []           # "layer.function" per name id
        self.name_id = array("H")       # per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")        # parent span index, -1 at top level
        self.op = array("i")            # index of the operation in its pass
        self.current_op = -1
        self._stack: list = []
        self._undo: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, layer: str, fn):
        ident = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent, op = (self.name_id, self.start, self.end,
                                           self.parent, self.op)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"bayeslb.{layer}")
            if module is None:  # never imported, so never called
                continue
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(layer, fn)
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "bayeslb" or name.startswith("bayeslb.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((vars(module), attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._undo.append((value, key, entry))
                            value[key] = wrappers[id(entry)]

    def uninstall(self) -> None:
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def layer_totals(self) -> tuple[dict, dict]:
        """Calls and self time per layer; self time excludes direct child spans."""
        covered = [0.0] * len(self)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        layer_of = [name.split(".")[0] for name in self.names]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for index, ident in enumerate(self.name_id):
            layer = layer_of[ident]
            calls[layer] += 1
            self_s[layer] += self.end[index] - self.start[index] - covered[index]
        return calls, self_s

    def durations(self, names: set) -> dict:
        """Span durations of the named "layer.function"s, grouped by op index."""
        wanted = {i for i, name in enumerate(self.names) if name in names}
        out = defaultdict(list)
        for index, ident in enumerate(self.name_id):
            if ident in wanted:
                out[self.op[index]].append(self.end[index] - self.start[index])
        return out

    def write(self, path: Path) -> None:
        """One gzipped CSV row per span; times in ns from the first span's start."""
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_ns,end_ns,parent,op\n")
            for index in range(len(self)):
                out.write(f"{index},{self.names[self.name_id[index]]},"
                          f"{round((self.start[index] - origin) * 1e9)},"
                          f"{round((self.end[index] - origin) * 1e9)},"
                          f"{self.parent[index]},{self.op[index]}\n")
