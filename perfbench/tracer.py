"""Outside-in call tracing of the spanqa layers.

`Tracer.install` wraps the public functions and methods that each measured
`spanqa` module defines. A function is rebound wherever a `spanqa` module
holds it, so a caller that imported it by name (`from .classifier import
span_loss`) is traced as well as one that goes through the module attribute.
A method is replaced on its class, which covers every instance.

Each call records one span: name, start, end and the index of the enclosing
span. Hooks registered by name compute counts from a call's arguments and
result; their time is recorded as a `trace.hook` child span, so it is kept
out of the caller's self time. `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

# Measured layers, in pipeline order. `cli` is a thin shell and `types` holds
# plain records; neither is a layer.
LAYERS = ("corpus", "diffmerge", "encoder", "classifier", "selftrain",
          "aggregate", "model", "metrics")

# Span names that differ from `<layer>.<method>`.
RENAMES = {("classifier", "Adam", "step"): "classifier.adam_step"}

HOOK = "trace.hook"


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, package: str = "spanqa", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.recording = True
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._hooks: dict[str, list] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.installed_at = self.uninstalled_at = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that is not a wrapped call."""
        if not self.recording:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside this block record nothing (output checks)."""
        before = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = before

    def on(self, name: str, hook) -> None:
        """Run `hook(args, kwargs, result)` after each recorded call of `name`."""
        self._hooks.setdefault(name, []).append(hook)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            hooks = tracer._hooks.get(name)
            if hooks:
                hidx = tracer._open(HOOK)
                try:
                    for hook in hooks:
                        hook(args, kwargs, result)
                finally:
                    tracer._close(hidx)
            return result

        return traced

    def _modules(self) -> list:
        prefix = self.package + "."
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package or key.startswith(prefix))]

    def targets(self):
        """(owner, attribute, original, span name) for every wrapped callable."""
        found = []
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((module, attr, obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    for mname, raw in vars(obj).items():
                        if mname.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn):
                            name = RENAMES.get((layer, obj.__name__, mname), f"{layer}.{mname}")
                            found.append((obj, mname, raw, name))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for owner, attr, original, name in self.targets():
            if inspect.isclass(owner):
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, original)
            # Rebind every module-level name that holds this function.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        self.installed_at = self.clock()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.uninstalled_at = self.clock()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts a call nested inside a call of the same name once
        (the interval union); self time subtracts the time covered by child
        spans.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row["s"] += dur
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (the part of a span name before the dot)."""
        out: dict[str, float] = {}
        for name, row in self.summary().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out
