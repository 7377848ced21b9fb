"""In-memory spans and counters recorded around calls into rockland.

The benchmark never edits the program: it replaces functions and methods of
the loaded ``rockland`` modules with timing wrappers for the length of a
traced run and restores them afterwards.  Two kinds of wrapper exist:

* a *span* wrapper records (name, start, end, parent, operation id) for each
  call, so self time and nesting can be derived afterwards;
* a *busy* wrapper only counts calls and adds up the time spent in the
  outermost call of its layer.  It is used where calls are too many and too
  small for a span each (``Poly.__mul__`` runs ~3,000 times per report).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# one span: [name, start, end, parent index or None, operation id]
Span = list


class Tracer:
    """Spans, counters and busy times of one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.busy: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._busy_depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def span_wrapper(self, name: str, fn: Callable,
                     on_result: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; failures count as
        ``<name>.raised``; on_result(result, args, kwargs) sees each result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[name + ".raised"] += 1
                raise
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def busy_wrapper(self, layer: str, counter: str, fn: Callable) -> Callable:
        """Wrap fn to count calls and add outermost-call time to the layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[counter] += 1
            if tracer._busy_depth[layer]:
                return fn(*args, **kwargs)
            tracer._busy_depth[layer] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.busy[layer] += perf_counter() - t0
                tracer._busy_depth[layer] = 0

        return wrapper

    # -- installing wrappers -----------------------------------------------

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_function(self, module: str, attr: str, new: Callable) -> None:
        """Replace a module-level function in its module and in every loaded
        module of the same package that imported it by name."""
        original = getattr(sys.modules[module], attr)
        package = module.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- derived figures ---------------------------------------------------

    def outermost_total(self, name: str) -> float:
        """Total duration of spans called name that have no ancestor of the
        same name, so recursion is not counted twice."""
        total = 0.0
        for s in self.spans:
            if s[0] == name and not self.has_ancestor(s, name):
                total += s[2] - s[1]
        return total

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = span[3]
        while parent is not None:
            anc = self.spans[parent]
            if anc[0] == name:
                return True
            parent = anc[3]
        return False


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        out.append((s[2] - s[1]) - covered(children.get(i, []), s[1], s[2]))
    return out


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def root_coverage(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Share of [lo, hi] covered by spans that have no parent."""
    if hi <= lo:
        return 0.0
    roots = [(s[1], s[2]) for s in spans if s[3] is None]
    return covered(roots, lo, hi) / (hi - lo)
