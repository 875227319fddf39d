"""Per-layer tracing from outside the library.

Every public function of the traced modules is wrapped, and the wrapper is
installed under every module attribute that holds the original, because
``cli`` and ``verify`` bind names with ``from .x import y`` (for example
``verify.eigenvalues_sym`` and ``cli.find_odd_factor``). A wrapper records a
span (name, start, end, parent) and, for a few functions, counts read from
the arguments or the result. Spans stay in memory until ``stats`` reads them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("graphs", "spectral", "thresholds", "factor", "verify", "cli")


def _observe_eigenvalues(args, kwargs, result):
    order = len(result.values)
    return {"order_max": order, "order_cubed_sum": order**3}


def _observe_theorem_check(args, kwargs, result):
    return {"applicable": int(result.implication_applicable), "margin_min": result.rho - result.lambda3}


def _observe_find_odd_factor(args, kwargs, result):
    return {"found": int(result is not None), "none": int(result is None), "edges_max": len(args[0].edges)}


def _observe_check_amahashi(args, kwargs, result):
    return {"violations": int(result is not None), "order_max": args[0].n}


# counts read at a layer boundary; a key ending in _max or _min keeps the
# extreme over all calls, any other key is summed
OBSERVERS = {
    "spectral.eigenvalues_sym": _observe_eigenvalues,
    "verify.theorem_check": _observe_theorem_check,
    "factor.find_odd_factor": _observe_find_odd_factor,
    "factor.check_amahashi": _observe_check_amahashi,
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Wraps the library's public functions while installed and keeps the spans."""

    def __init__(self):
        self.modules = [importlib.import_module(f"oddfactor.{layer}") for layer in LAYERS]
        self.modules.append(importlib.import_module("oddfactor"))
        self.spans = []  # [name, start, end, parent index, raised, observed counts]
        self._stack = []
        self._patched = []
        self.wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in zip(LAYERS, self.modules):
            for name, fn in _public_functions(module):
                self.wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))

    def _wrap(self, span_name: str, fn):
        observe = OBSERVERS.get(span_name)
        spans, stack = self.spans, self._stack  # cleared in place, never rebound

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                pair = self.wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def stats(self) -> dict:
        """Per-function and per-layer figures over the spans recorded so far.

        busy_s counts only the outermost span of a name, so a function that
        calls itself through a wrapped name is not counted twice; self_s is a
        span's duration minus the time its direct child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, raised, observed) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - child_time[i])
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                add(f"{name}.busy_s", end - start)
            add(f"{name}.errors", int(raised))
            add(f"{layer}.errors", int(raised))
            for key, value in (observed or {}).items():
                key = f"{name}.{key}"
                if key.endswith("_max"):
                    out[key] = max(out.get(key, value), value)
                elif key.endswith("_min"):
                    out[key] = min(out.get(key, value), value)
                else:
                    add(key, value)
        calls = out.get("verify.theorem_check.calls", 0)
        if calls:
            out["verify.theorem_check.applicable_ratio"] = out["verify.theorem_check.applicable"] / calls
        return out
