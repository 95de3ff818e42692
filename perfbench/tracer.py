"""Outside-in layer tracing: time calls into the program's public functions.

The benchmark never edits the program. Instead a :class:`Tracer` replaces a
function or method with a wrapper for the length of one traced repetition
and puts the original back afterwards. Each wrapper records a span around
the call and keeps, per layer:

* **self time** — the span's duration minus the time its child spans (calls
  into other wrapped layers made from inside it) took, so the self times of
  all layers add up to the traced wall time that they cover;
* **calls** — how many times the layer was entered.

A wrapper may also hand the call's arguments and return value to a hook, so
useful/attempted ratios (pages processed vs. unreachable, rows per batch)
are counted where the work happens, from returned values.

Spans live only in memory, keyed by the current *phase* (``setup`` or
``work``), so set-up work is kept apart from the timed job.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, DefaultDict, List, Optional, Tuple

Hook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Per-layer self time and call counts for wrapped public calls."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: (phase, layer) -> seconds spent in the layer itself.
        self.self_s: DefaultDict[Tuple[str, str], float] = defaultdict(float)
        #: (phase, layer) -> number of calls into the layer.
        self.calls: DefaultDict[Tuple[str, str], int] = defaultdict(int)
        #: (phase, name) -> counts recorded by hooks.
        self.counts: DefaultDict[Tuple[str, str], int] = defaultdict(int)
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner: object, attr: str, layer: str, *,
             count: bool = True, hook: Optional[Hook] = None) -> None:
        """Time every call of ``owner.attr`` as a span of ``layer``.

        ``owner`` is a class (wrapping the method for every instance) or a
        module (wrapping a function looked up through that module).
        ``count=False`` keeps the span but not the call, for entry points
        whose calls are counted by a wrapped callee.
        """
        original = vars(owner).get(attr)
        if not callable(original):
            raise AttributeError(f"{owner!r} defines no callable {attr!r}")
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                key = (self.phase, layer)
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if count:
                    calls[key] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.phase, name)] += amount

    # -- reading ----------------------------------------------------------------

    def layer_s(self, layer: str, phase: str = "work") -> float:
        return self.self_s.get((phase, layer), 0.0)

    def layer_calls(self, layer: str, phase: str = "work") -> int:
        return self.calls.get((phase, layer), 0)

    def counted(self, name: str, phase: str = "work") -> int:
        return self.counts.get((phase, name), 0)

    def attributed_s(self, phase: str = "work") -> float:
        """Sum of all layers' self times in ``phase``."""
        return sum(s for (p, _layer), s in self.self_s.items() if p == phase)
