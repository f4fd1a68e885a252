"""Call tracing for the traced run, installed from outside the program.

``Tracer.install`` replaces every public function of the listed halolab
modules, and every public method of the classes they define, by a thin
timing wrapper; ``uninstall`` puts the originals back.  Each wrapper
counts calls and accumulates

- self time: time inside the call minus the time spent in wrapped
  callees, so every nanosecond of a traced call is charged to exactly
  one function;
- inclusive time of outermost calls: re-entrant (recursive) calls of the
  same function are not counted twice.

Calls made directly by the benchmark are kept as spans (name, start,
duration) in memory until the run ends; nested calls are folded into the
per-function totals, which keeps memory flat while a lift makes millions
of calls.  The key functions ``sort_key`` and ``site_key`` stay unwrapped:
``sorted`` calls them tens of millions of times in a lift round, where
wrappers would double the round's time; their cost is charged to the
function that sorts.
"""
from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

CALLS, SELF_NS, INCL_NS, ACTIVE, EXTRA = range(5)
UNWRAPPED = {"sort_key", "site_key"}


class Tracer:
    def __init__(self, modules, measures: Optional[Dict[str, Callable]] = None):
        """modules: halolab submodules to wrap.  measures: qualified name ->
        f(args, kwargs, result) returning a count added to that function's
        EXTRA slot (e.g. the number of block elements returned)."""
        self.modules = list(modules)
        self.measures = measures or {}
        self.stats: Dict[str, List[int]] = {}
        self.spans: List[Tuple[str, int, int]] = []
        self._stack = [0]
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, [0, 0, 0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        measure = self.measures.get(qualname)

        def wrapper(*args, **kwargs):
            top = len(stack) == 1
            stack.append(0)
            stat[ACTIVE] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[ACTIVE] -= 1
                stat[CALLS] += 1
                stat[SELF_NS] += dt - stack.pop()
                stack[-1] += dt
                if not stat[ACTIVE]:
                    stat[INCL_NS] += dt
                if top:
                    spans.append((qualname, t0, dt))
            if measure is not None:
                stat[EXTRA] += measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self) -> None:
        replaced = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if (attr.startswith("_") or attr in UNWRAPPED
                                or not inspect.isfunction(member)):
                            continue
                        self._undo.append((obj, attr, member))
                        setattr(obj, attr, self._wrap(f"{short}.{obj.__name__}.{attr}", member))
        # a function is reached through every module namespace that imported it
        package = self.modules[0].__name__.split(".")[0]
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, replaced[obj])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- queries ----------------------------------------------------------
    def _matching(self, layer: str, name: str):
        """Stats of `layer.name` and of `layer.<Class>.name`."""
        out = []
        for q, stat in self.stats.items():
            parts = q.split(".")
            if parts[0] == layer and parts[-1] == name and len(parts) in (2, 3):
                out.append(stat)
        return out

    def calls(self, layer: str, name: str) -> int:
        return sum(s[CALLS] for s in self._matching(layer, name))

    def extra(self, layer: str, name: str) -> int:
        return sum(s[EXTRA] for s in self._matching(layer, name))

    def self_per_call_ns(self, layer: str, name: str) -> float:
        stats = self._matching(layer, name)
        calls = sum(s[CALLS] for s in stats)
        return sum(s[SELF_NS] for s in stats) / calls if calls else 0.0

    def inclusive_s(self, layer: str, name: str) -> float:
        return sum(s[INCL_NS] for s in self._matching(layer, name)) / 1e9

    def report(self, limit: int = 15) -> List[str]:
        """Where the time went: the functions with the most self time, and
        the spans of the calls the benchmark made, totalled by name."""
        lines = [f"{'function':52s} {'calls':>10s} {'self s':>9s} {'incl s':>9s}"]
        ranked = sorted(self.stats.items(), key=lambda kv: -kv[1][SELF_NS])
        for name, s in ranked[:limit]:
            if s[CALLS]:
                lines.append(f"{name:52s} {s[CALLS]:10d} {s[SELF_NS] / 1e9:9.3f} "
                             f"{s[INCL_NS] / 1e9:9.3f}")
        top: Dict[str, List[int]] = {}
        for name, _start, dt in self.spans:
            entry = top.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += dt
        lines.append(f"{len(self.spans)} spans of benchmark calls:")
        lines += [f"  {name:50s} {n:10d} {dt / 1e9:9.3f}"
                  for name, (n, dt) in sorted(top.items(), key=lambda kv: -kv[1][1])]
        return lines
