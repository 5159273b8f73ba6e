"""Outside-in tracing: wrap public callables, record spans in memory.

A :class:`Tracer` replaces named attributes (module functions, class
methods) with timing wrappers for the duration of one traced repeat and
puts the originals back afterwards.  Nothing under ``src/`` knows it is
being traced; when a later change stops calling a wrapped function its
count honestly drops to zero.

Two recording modes per callable:

* **span** — one record per call: id, parent id, name, start, end,
  self time (duration minus the part covered by child spans);
* **aggregate** — for callables hit more than ~10k times per run, one
  record per *(parent node, name)*: count, total, self.  An aggregate
  is a node like any other, so a hot callable called from a hot
  callable still lands under the right parent.

Wrappers are inert until :meth:`Tracer.span` opens a root span, so the
harness's own verification work (which re-runs query operators
centrally) is never attributed to the program under test.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Target", "Tracer", "phase_totals"]

@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    Attributes:
        name: span name, ``<layer>.<what>``.
        owner: the module or class holding the attribute.
        attr: attribute name on ``owner``.
        hot: record as per-parent aggregates instead of single spans.
        units: optional ``(args, result) -> int`` work-size probe (rows
            folded, operators planned), summed beside the call count;
            skipped when the call raises.
    """

    name: str
    owner: Any
    attr: str
    hot: bool = False
    units: Callable[[tuple, Any], int] | None = None


class Tracer:
    """Span recorder for one (workload, repeat).

    A disabled tracer (``enabled=False``) is never installed and its
    :meth:`span` is a no-op, so untraced repeats share the adapter's
    code path without paying for it.
    """

    def __init__(self, run_id: str = "", enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        # (id, parent, name, start, end, self_s, units)
        self.spans: list[tuple[int, int, str, float, float, float, int]] = []
        # (parent id, name) -> [id, count, total_s, self_s, units]
        self.aggregates: dict[tuple[int, str], list[Any]] = {}
        self._stack: list[list[Any]] = []  # frames: [node id, child seconds]
        self._ids = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a harness-side span (root, phases) around a block."""
        if not self.enabled:
            yield
            return
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._new_id(), 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            self.spans.append((
                frame[0], parent[0] if parent is not None else 0,
                name, start, end, elapsed - frame[1], 0,
            ))

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        stack, spans, new_id = self._stack, self.spans, self._new_id
        name, units = target.name, target.units

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [new_id(), 0.0]
            stack.append(frame)
            work = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    work = units(args, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                spans.append((
                    frame[0], parent[0], name, start, end,
                    elapsed - frame[1], work,
                ))

        return wrapper

    def _aggregate_wrapper(self, target: Target, fn: Callable) -> Callable:
        stack, aggregates, new_id = self._stack, self.aggregates, self._new_id
        name, units = target.name, target.units

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            key = (parent[0], name)
            record = aggregates.get(key)
            if record is None:
                record = aggregates[key] = [new_id(), 0, 0.0, 0.0, 0]
            frame = [record[0], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    record[4] += units(args, result)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                record[1] += 1
                record[2] += elapsed
                record[3] += elapsed - frame[1]

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self, targets: list[Target], alias_modules: list[Any]) -> None:
        """Wrap every target; also rebind ``from x import f`` aliases.

        Modules that imported a target function by name hold their own
        reference to it; each module in ``alias_modules`` has any global
        that *is* a wrapped function rebound to the wrapper, so the
        traced call path is the real one.
        """
        replaced: dict[int, Any] = {}
        for target in targets:
            original = target.owner.__dict__[target.attr]
            make = self._aggregate_wrapper if target.hot else self._span_wrapper
            wrapper = make(target, original)
            self._patch(target.owner, target.attr, original, wrapper)
            if not isinstance(target.owner, type):
                replaced[id(original)] = wrapper
        for module in alias_modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, value, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """Everything recorded, JSON-ready; times relative to the root."""
        origin = min((s[3] for s in self.spans), default=0.0)
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "id": sid, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                    "self_s": self_s, "units": units,
                }
                for sid, parent, name, start, end, self_s, units in self.spans
            ],
            "aggregates": [
                {
                    "id": record[0], "parent": parent, "name": name,
                    "count": record[1], "total_s": record[2],
                    "self_s": record[3], "units": record[4],
                }
                for (parent, name), record in self.aggregates.items()
            ],
        }


def phase_totals(trace: dict[str, Any]) -> dict[tuple[str, str], dict[str, float]]:
    """Fold a trace into ``(phase, name) -> count / total_s / self_s / units``.

    A node's phase is the name of its ancestor directly under the root
    span (``phase:setup`` / ``phase:exec``); a phase span is its own
    phase and the root's phase is ``""``.
    """
    nodes: dict[int, tuple[int, str]] = {}
    for span in trace["spans"]:
        nodes[span["id"]] = (span["parent"], span["name"])
    for record in trace["aggregates"]:
        nodes[record["id"]] = (record["parent"], record["name"])
    phase_of: dict[int, str] = {}

    def resolve(node_id: int) -> str:
        phase = phase_of.get(node_id)
        if phase is None:
            parent, name = nodes[node_id]
            if parent == 0:
                phase = ""
            elif nodes[parent][0] == 0:
                phase = name
            else:
                phase = resolve(parent)
            phase_of[node_id] = phase
        return phase

    totals: dict[tuple[str, str], dict[str, float]] = {}

    def add(node_id: int, name: str, count: int, total: float, self_s: float, units: int) -> None:
        entry = totals.setdefault(
            (resolve(node_id), name),
            {"count": 0, "total_s": 0.0, "self_s": 0.0, "units": 0},
        )
        entry["count"] += count
        entry["total_s"] += total
        entry["self_s"] += self_s
        entry["units"] += units

    for span in trace["spans"]:
        add(span["id"], span["name"], 1, span["end"] - span["start"],
            span["self_s"], span["units"])
    for record in trace["aggregates"]:
        add(record["id"], record["name"], record["count"], record["total_s"],
            record["self_s"], record["units"])
    return totals
