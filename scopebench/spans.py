"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans are recorded around the
calls into each layer by replacing the attribute the caller looks up
(``repro.core.pipeline.gpart``, ``TieredStore.put`` ...) with a wrapper, so
nothing under ``src/`` changes. Spans stay in memory and are written once, at
exit; self time is a span's duration minus that of its direct children.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records spans and counters; ``enabled`` is False for untraced runs.

    ``totals`` (seconds per span name), ``counts`` and ``series`` (values
    in call order) accumulate until :meth:`take` hands them over, so a
    caller can read them per round.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = ""
        self.spans: list[Span] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.series: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return self.enabled and not self._paused

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        sp = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                  self._stack[-1] if self._stack else None, self.run_id)
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.totals[name] += sp.end - sp.start

    @contextmanager
    def paused(self):
        """Run untraced work (checks, rebuilds) inside a traced round."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def count(self, key: str, value: float = 1.0) -> None:
        if self.active:
            self.counts[key] += value

    def record(self, key: str, value: float) -> None:
        if self.active:
            self.series[key].append(value)

    def take(self) -> tuple[dict[str, float], dict[str, float], dict[str, list[float]]]:
        out = dict(self.totals), dict(self.counts), dict(self.series)
        self.totals.clear()
        self.counts.clear()
        self.series.clear()
        return out

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str,
             after: Callable[["Tracer", object, tuple, dict], None] | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``after(tracer, result, args, kwargs)`` runs outside the span, to
        count the work the call did.
        """
        orig = vars(owner)[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            with self.span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                after(self, out, args, kwargs)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, less the time covered by child spans."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out: defaultdict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start - child[sp.sid]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")
            fh.write(json.dumps({"self_s": self.self_times()}) + "\n")
