"""In-memory span tracer that wraps the program's public calls from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.installed` swaps a
timing wrapper in for each target attribute (a method on a class, or a
function in every module namespace that imported it by name) and puts the
originals back on exit, even when the traced code raises.

Each wrapped call is one span ``(id, name, start, end, parent)``.  Self time
is computed as the span minus the time its child spans cover, online, with
one stack frame per open span, so per-name totals stay exact however many
calls a run makes.  Only the first ``span_cap`` spans of each name are kept
for the JSON dump: the hot per-request calls (``Simulator.schedule``,
``Server.submit``) run hundreds of thousands of times per op.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# after(tracer, args, result) runs once a wrapped call returns normally.
After = Callable[["Tracer", tuple, Any], None]

ROOT = "op"


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``.

    With ``everywhere`` set, ``owner`` is a module and every loaded module
    that bound the same function object by name is patched too (the
    schedulers do ``from repro.lp import solve``).
    """

    owner: Any
    attr: str
    name: str
    after: Optional[After] = None
    everywhere: bool = False


class Tracer:
    def __init__(self, span_cap: int = 1000) -> None:
        self.span_cap = span_cap
        self.spans: List[Tuple[int, str, float, float, int]] = []
        # name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        # Outcome counters filled by the ``after`` hooks.
        self.counts: Dict[str, float] = {}
        self._seen: Dict[str, Dict[int, Any]] = {}
        self._stack: List[List[float]] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _record(self, fn: Callable, name: str, after: Optional[After]) -> Callable:
        stack, spans, cap = self._stack, self.spans, self.span_cap
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        ids, clock = self._ids, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if stat[0] <= cap:
                    spans.append((sid, name, t0, t1, parent))
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span of the benchmark's own (the op root)."""
        return self._record(fn, name, None)(*args)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def see(self, tag: str, obj: Any) -> None:
        """Remember an instance whose counters :meth:`harvest` reads later."""
        self._seen.setdefault(tag, {})[id(obj)] = obj

    def harvest(self, readers: Dict[str, Callable[[Any], Dict[str, float]]]) -> None:
        """Fold counters of the instances seen so far, then forget them.

        Called after each op so a finished op's world can be freed.
        """
        for tag, objs in self._seen.items():
            read = readers[tag]
            for obj in objs.values():
                for key, value in read(obj).items():
                    self.count(key, value)
        self._seen.clear()

    # -- installing --------------------------------------------------------

    def _patch(self, ns: Any, attr: str, new: Any) -> None:
        self._patches.append((ns, attr, vars(ns)[attr]))
        setattr(ns, attr, new)

    @contextmanager
    def installed(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Wrap ``targets`` for the duration of the block, then restore."""
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]   # KeyError: not defined there
                wrapper = self._record(original, t.name, t.after)
                owners = [t.owner]
                if t.everywhere:
                    owners += [
                        m for m in list(sys.modules.values())
                        if m is not None and m is not t.owner
                        and vars(m).get(t.attr) is original
                    ]
                for ns in owners:
                    self._patch(ns, t.attr, wrapper)
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self_s(self) -> float:
        """Self time of every wrapped layer (the op root excluded)."""
        return sum(st[2] for name, st in self.stats.items() if name != ROOT)

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "span_fields": ["id", "name", "start", "end", "parent"],
            "span_cap_per_name": self.span_cap,
            "stats": {n: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                      for n, s in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": self.spans,
        }
        payload.update(extra or {})
        path.write_text(json.dumps(payload))

