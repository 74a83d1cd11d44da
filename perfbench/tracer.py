"""In-memory span tracer that instruments the program from outside.

The tracer replaces public functions with timing wrappers for the length
of one traced run and puts every original back afterwards, so untraced
runs execute unmodified code. A function imported by name into other
modules (``from .simulator import simulate_turn``) is a separate binding
in each importer, so every binding in the package is replaced, not only
the one in the defining module.

A span is (name, start, end, parent); parents come from a call stack, so
a span's children are the traced calls made while it was open. Self time
is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from stats import covered_length


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self.flagged = set()  # indices of spans a result hook marked
        self._stack = []
        self._patches = []  # (owner, attribute, original binding)

    def record(self, name, start, end, parent=-1) -> int:
        """Append a finished span; returns its index."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def wrap(self, fn, name, on_result=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, idx, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing and restoring wrappers ---------------------------------

    def install(self, specs, package: str) -> None:
        """Wrap each (span name, module, attribute, on_result) spec.

        A dotted attribute ("Class.method") is replaced on its class. A
        plain attribute is replaced in the defining module and wherever a
        module of `package` holds the same object. Specs naming something
        the program no longer has are skipped; their metrics read 0.
        """
        for name, module_name, attr, on_result in specs:
            owner = importlib.import_module(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, on_result)
            if outer:
                self._patch(owner, leaf, wrapper)
                continue
            for module in self._modules(owner, package):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    @staticmethod
    def _modules(home, package):
        """The defining module plus every loaded module of `package`."""
        found = {id(home): home}
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == package
                                    or mod_name.startswith(package + ".")):
                found.setdefault(id(mod), mod)
        return list(found.values())

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, specs, package: str = "trustsim"):
        try:
            self.install(specs, package)
            yield self
        finally:
            self.restore()

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list:
        """Per-span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = self.durations()
        for parent, kids in children.items():
            out[parent] -= covered_length(
                [(self.starts[k], self.ends[k]) for k in kids],
                self.starts[parent], self.ends[parent],
            )
        return out

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False
