"""Span tracer that wraps the public layer functions of ``loopexp``.

The tracer patches every ``loopexp.*`` module attribute bound to a target
function, so calls made through the globals of ``cli`` or ``loopseries`` are
caught as well as calls from the bench.  Methods are patched once on their
class.  Spans are kept only inside a root span (one benchmark trial); calls
outside a root pass straight through.  ``uninstall`` puts every original
object back.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

MARK = "__bench_wrapper__"


def loopexp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "loopexp"
                                  or name.startswith("loopexp."))]


def installed_wrappers() -> list[str]:
    """Names of every bench wrapper still bound in a loopexp module or class."""
    found = []
    for mod in loopexp_modules():
        for key, val in list(vars(mod).items()):
            if getattr(val, MARK, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(val, type) and val.__module__.startswith("loopexp"):
                for attr, member in list(vars(val).items()):
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return sorted(set(found))


class Tracer:
    """Wrappers, spans and counters for one traced benchmark run.

    ``targets`` holds ``(module, qualname, layer, counter)`` tuples: the module
    under ``loopexp`` that defines the target, its qualified name there
    (``"ActivityTable.__init__"`` for a method), the layer name used in the
    metrics, and an optional ``counter(counts, args, kwargs, result)`` that
    adds work counts for the call.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []   # [layer, start, end, parent, trial, child_s]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, qualname, layer, counter in self.targets:
            home = sys.modules.get(f"loopexp.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = home
            if home is not None and owner_name:
                owner = getattr(home, owner_name, None)
            orig = None if owner is None else vars(owner).get(attr)
            if orig is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, orig, counter)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in loopexp_modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # ------------------------------------------------------------ spans

    def _open(self, layer: str, trial=None) -> int:
        parent = self.stack[-1] if self.stack else None
        if trial is None and parent is not None:
            trial = self.spans[parent][4]
        self.spans.append([layer, time.perf_counter(), None, parent, trial,
                           0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    @contextmanager
    def root(self, layer: str, trial):
        """Root span of one trial; wrapped calls are recorded only inside it."""
        idx = self._open(layer, trial)
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer: duration minus time in child spans."""
        out: dict[str, float] = {}
        for layer, start, end, _, _, child_s in self.spans:
            out[layer] = out.get(layer, 0.0) + (end - start) - child_s
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans
                   if parent is None)
