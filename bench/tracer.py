"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps, in place, every public function, method and property
of nemosim's modules, every non-dataclass constructor, and every event
handler handed to `Engine.register` that is not wrapped already.  Names
bound with `from .x import f` are rebound to the same wrapper.  Each call
records a span: its id, its parent's id, the id of the outermost span it
runs under, start, duration and self time.  Self time is kept on a stack: a
span's duration minus the time of the spans it directly encloses.  Calls are
counted per (caller, callee) pair.  Spans are held in memory and written out
by `write_spans` once the run has ended.

The wrapper costs about a microsecond per call, several times what a small
nemosim function costs, and part of it lands on the caller's self time.
Span times therefore show the call structure, not where the time goes; the
per-module split comes from `sampler.Sampler` on an untraced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import is_dataclass
from enum import Enum
from pathlib import Path

MODULES = ("engine", "packets", "network", "diffserv", "fsm", "metrics", "scenario",
           "nemo_bs", "diff_nemo", "diff_fh", "nodes", "simulation", "experiment", "cli")

# Spans kept in full; later spans still count towards the call counts.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # (caller's name index, or -1 outside any span, callee's name index) -> calls
        self.edges: dict[tuple[int, int], int] = {}
        self.spans: list[tuple] = []   # (id, parent, root, name index, start, duration, self)
        self.counters = {"engine.events": 0, "engine.heap_peak": 0,
                         "diffserv.dequeue.useful": 0, "nodes.bg_packets": 0}
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: set = set()
        self._after: dict = {}   # span name -> after(args, result) counter hook

    # -- wrapping ---------------------------------------------------------------
    def _name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, fn, name: str, after=None):
        """`fn` recording one span named `name` per call; `after(args, result)`
        runs inside the span when the call returns normally."""
        idx = self._name_index(name)
        edges, spans, stack = self.edges, self.spans, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = clock()
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0, idx]
            if stack:
                up = stack[-1]
                parent, key, root = up[0], (up[2], idx), stack[0][0]
            else:
                parent, key, root = -1, (-1, idx), sid
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            finally:
                stack.pop()
                edges[key] = edges.get(key, 0) + 1
                duration = clock() - start
                if stack:
                    stack[-1][1] += duration
                if sid < SPAN_CAP:
                    spans.append((sid, parent, root, idx, start, duration, duration - frame[1]))
            return result

        self._wrappers.add(span)
        return span

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not is_dataclass(cls)):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(value):
                self._set(cls, attr, self.wrap(value, name, self._after.get(name)))
            elif isinstance(value, property) and value.fget is not None:
                self._set(cls, attr, property(self.wrap(value.fget, name), value.fset,
                                              value.fdel, value.__doc__))

    def install(self) -> None:
        from nemosim.engine import Engine
        from nemosim.metrics import FLOW_BG
        counters = self.counters
        pending = Engine.pending

        def count_events(args, result):
            counters["engine.events"] += result

        def heap_peak(args, result):
            counters["engine.heap_peak"] = max(counters["engine.heap_peak"], pending(args[0]))

        def useful_dequeue(args, result):
            if result is not None:
                counters["diffserv.dequeue.useful"] += 1

        def bg_packet(args, result):
            if args[1].flow == FLOW_BG:
                counters["nodes.bg_packets"] += 1

        self._after = {"engine.Engine.run_until": count_events,
                       "engine.Engine.schedule": heap_peak,
                       "diffserv.PriorityScheduler.dequeue": useful_dequeue,
                       "network.LinkQueue.send": bg_packet}

        modules = [importlib.import_module(f"nemosim.{short}") for short in MODULES]
        replaced = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(obj, f"{short}.{attr}")
                    replaced[obj] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(short, obj)
        # Names imported from another module (`from .packets import encapsulate`).
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

        # Event handlers, including closures, are reached through registration.
        # Public methods registered as handlers are wrapped already.
        register = Engine.register
        tracer = self

        def traced_register(engine, node_id, handler):
            func = getattr(handler, "__func__", handler)
            if func not in tracer._wrappers:
                short = func.__module__.rsplit(".", 1)[-1]
                handler = tracer.wrap(handler, f"{short}.{func.__qualname__}")
            return register(engine, node_id, handler)

        self._set(Engine, "register", traced_register)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------
    def calls(self) -> dict[str, int]:
        """Calls per span name."""
        out = dict.fromkeys(self.names, 0)
        for (_, idx), n in self.edges.items():
            out[self.names[idx]] += n
        return out

    def call_count(self, *names: str) -> int:
        calls = self.calls()
        missing = [n for n in names if n not in calls]
        if missing:   # renamed in nemosim, or never called in this pass
            print(f"tracer: no spans named {', '.join(missing)}", file=sys.stderr)
        return sum(calls.get(n, 0) for n in names)

    def calls_from(self, caller: str, prefix: str) -> int:
        """Calls made directly by span `caller` into spans whose names start
        with `prefix`."""
        up = self._index.get(caller)
        return sum(n for (parent, idx), n in self.edges.items()
                   if parent == up and self.names[idx].startswith(prefix))

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id\tparent_id\troot_id\tname\tstart_ns\tduration_ns\tself_ns\n")
            names = self.names
            for sid, parent, root, idx, start, duration, own in self.spans:
                fh.write(f"{sid}\t{parent}\t{root}\t{names[idx]}\t{start}\t{duration}\t{own}\n")
