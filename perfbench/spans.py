"""Span tracing installed from outside the package.

Spans wrap the functions and methods of the modules at ``kgroup`` level and
above.  ``cyclo`` and ``phase_fn`` see millions of calls per iteration, so
they only get call counters.  Spans are aggregated on the fly into a call
tree with one node per distinct path of span names, which keeps memory
bounded however many calls a run makes; a node's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Iterator, Optional

PACKAGE = "lcsmbqc"
SPAN_MODULES = ("kgroup", "ktensor", "projection", "mbqc", "lcs", "verify", "cli")
# Only the index-table class of ``verify`` has properties that do real work
# (the Cayley table is built lazily by ``KGroupTable.mul``); elsewhere a
# property is an attribute read that a span would only slow down.
PROPERTY_MODULES = ("verify",)
TRACED_DUNDERS = ("__mul__", "__pow__", "__eq__")
# (module, attribute path) -> counter name; attribute paths name methods.
COUNTED = {
    ("cyclo", "Phase.__init__"): "cyclo.phase_new",
    ("cyclo", "Phase.__mul__"): "cyclo.mul_calls",
    ("phase_fn", "PhaseFunction.__init__"): "phase_fn.table_new",
    ("phase_fn", "PhaseFunction.decompose"): "phase_fn.decompose_calls",
    # every KElement construction re-checks det == 1 through this method
    ("phase_fn", "PhaseFunction.in_special_torus"): "kgroup.torus_checks",
}


class Node:
    """Aggregate of every span reached through one path of span names."""

    __slots__ = ("name", "count", "total", "self_time", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict[str, Node] = {}


class SpanTree:
    """Aggregated span tree.  Spans are recorded only while ``active``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.root = Node("")
        self.active = False
        self.counts: Counter = Counter()
        self._stack: list[list] = [[self.root, 0.0, 0.0]]

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = Node(name)
        self._stack.append([node, self.clock(), 0.0])

    def exit(self) -> None:
        node, start, child_time = self._stack.pop()
        duration = self.clock() - start
        node.count += 1
        node.total += duration
        node.self_time += duration - child_time
        self._stack[-1][2] += duration

    def _walk(self, node: Node, ancestors: tuple[str, ...]) -> Iterator[tuple[Node, tuple[str, ...]]]:
        for child in node.children.values():
            yield child, ancestors
            yield from self._walk(child, ancestors + (child.name,))

    def self_by_module(self) -> dict[str, float]:
        """Self time summed per module, the first component of a span name."""
        out: dict[str, float] = {}
        for node, _ in self._walk(self.root, ()):
            module = node.name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + node.self_time
        return out

    def calls(self, name: str, under: Optional[str] = None) -> int:
        """Number of spans named ``name``, optionally only those with an
        enclosing span named ``under``."""
        return sum(
            node.count
            for node, ancestors in self._walk(self.root, ())
            if node.name == name and (under is None or under in ancestors)
        )

    def inclusive(self, name: str, under: Optional[str] = None) -> float:
        """Wall time inside spans named ``name``, counting a recursive call
        only once (spans nested in a span of the same name are skipped)."""
        return sum(
            node.total
            for node, ancestors in self._walk(self.root, ())
            if node.name == name
            and name not in ancestors
            and (under is None or under in ancestors)
        )


def _span(tree: SpanTree, name: str, fn: Callable) -> Callable:
    enter, exit_ = tree.enter, tree.exit

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if not tree.active:
            return fn(*args, **kwargs)
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    for attr in ("cache_clear", "cache_info"):  # keep lru_cache controls reachable
        if hasattr(fn, attr):
            setattr(wrapped, attr, getattr(fn, attr))
    return wrapped


def _counter(tree: SpanTree, key: str, fn: Callable) -> Callable:
    counts = tree.counts

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if tree.active:
            counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped


class Instrumentation:
    """Installs span and counter wrappers into the ``lcsmbqc`` modules and
    removes them again.  A module-level function is replaced in every
    ``lcsmbqc`` namespace that imported it, so calls between modules are
    traced too."""

    def __init__(self, tree: SpanTree):
        self.tree = tree
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _module(self, short: str):
        return importlib.import_module(f"{PACKAGE}.{short}")

    def _wrap_class(self, short: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in TRACED_DUNDERS:
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(value):
                self._set(cls, attr, _span(self.tree, name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(_span(self.tree, name, value.__func__)))
            elif isinstance(value, property) and short in PROPERTY_MODULES and value.fget:
                self._set(cls, attr, property(_span(self.tree, name, value.fget)))

    def install(self) -> None:
        replaced: dict[int, Callable] = {}
        for short in SPAN_MODULES:
            module = self._module(short)
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(short, value)
                elif callable(value):  # functions, and lru_cache-wrapped ones
                    replaced[id(value)] = _span(self.tree, f"{short}.{attr}", value)
        for (short, path), key in COUNTED.items():
            cls_name, attr = path.split(".")
            cls = getattr(self._module(short), cls_name, None)
            if cls is not None and attr in vars(cls):  # a counter whose method is gone reads 0
                self._set(cls, attr, _counter(self.tree, key, vars(cls)[attr]))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
