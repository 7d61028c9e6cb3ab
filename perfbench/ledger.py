"""Span accounting from outside the program: the traced run's machinery.

A :class:`Ledger` hands out wrappers. Each wrapped call is one span: it
counts the call, adds its duration to the span's total, and adds the
duration minus the time its own wrapped callees took to the span's self
time. A stack of open spans makes that exact for nested calls without
keeping the spans themselves. Time outside every span accumulates on the
stack's root frame, so ``wall - covered_ns`` is the residual no layer
explains.

A :class:`Patcher` installs wrappers and takes them out again. Functions
are replaced in every ``repro`` module that imported them by name, so a
caller holding its own reference (``from x import f``) still goes through
the wrapper. Callees cached at construction time (bound handlers, the
network's receiver table) are only wrapped if the patch precedes the
build, which is why the traced run installs first and builds second.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple


class SpanStats:
    """Totals of one span name: calls, total ns, self ns."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Ledger:
    """Streaming self-time accounting over nested wrapped calls."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = defaultdict(SpanStats)
        #: free-form counters filled by ``tally`` callbacks
        self.counts: Dict[str, int] = defaultdict(int)
        # one frame per open span: [child ns, span name]; the root frame
        # collects the duration of every top-level span
        self._stack: List[list] = [[0, None]]

    @property
    def covered_ns(self) -> int:
        """Total duration of top-level spans so far."""
        return self._stack[0][0]

    @property
    def current(self) -> Optional[str]:
        """Name of the innermost open span (None outside every span)."""
        return self._stack[-1][1]

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: Optional[Callable[["Ledger", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``tally(ledger, args, result)`` runs after the span closes, so its
        own cost lands in the caller's self time, not in ``name``'s.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                acc = spans[name]
                acc.calls += 1
                acc.total_ns += dt
                acc.self_ns += dt - frame[0]
            if tally is not None:
                tally(self, args, result)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returns an iterator; each ``next`` on it is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timed_next = self.wrap(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = timed_next()
                except StopIteration:
                    return
                yield item

        return wrapper

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def total_s(self, name: str) -> float:
        return self.spans[name].total_ns / 1e9 if name in self.spans else 0.0

    def per_call(self, name: str, field: str = "total_ns", scale: float = 1e-3) -> float:
        """Mean ``field`` per call of ``name`` in ns × ``scale`` (0 if never called)."""
        acc = self.spans.get(name)
        if acc is None or acc.calls == 0:
            return 0.0
        return getattr(acc, field) * scale / acc.calls


class Patcher:
    """Replace attributes and put the originals back afterwards."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) with ``make(orig)``."""
        if name not in cls.__dict__:
            raise AttributeError(f"{cls.__qualname__}.{name} is not defined on that class")
        orig = cls.__dict__[name]
        self._undo.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def function(self, module: str, name: str, make: Callable[[Callable], Callable]) -> int:
        """Replace function ``module.name`` wherever a ``repro`` module holds it.

        Returns how many module bindings were replaced (at least one: the
        defining module).
        """
        orig = getattr(sys.modules[module], name)
        replacement = make(orig)
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, name, None) is orig:
                self._undo.append((mod, name, orig))
                setattr(mod, name, replacement)
                n += 1
        if n == 0:
            raise AttributeError(f"{module}.{name} is bound nowhere")
        return n

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
