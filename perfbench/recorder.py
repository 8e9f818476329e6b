"""Per-pass bookkeeping: operations attempted and failed, library counters,
operation times (speed-scaled by a reference kernel in timed runs), and, in
the traced run, spans around every public call the benchmark makes.

Spans come only from the benchmark's own files.  A span name is dotted and
its first component is the layer it is charged to: the pircodes module of the
public function (``designs.exact_packing``), or ``bench`` for the benchmark's
own operation spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


class WrongVerdict(Exception):
    """A call returned, but not the verdict its workload expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongVerdict(message)


def cpu_seconds() -> float:
    """CPU of this process plus every worker process it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


REFERENCE_SECONDS = 0.015  # the unit: scaled times are seconds at this kernel time
GAUGE_PERIOD = 0.25  # seconds between speed samples


def reference_kernel() -> int:
    """Fixed pure-Python work in the mix the engines run on: int arithmetic
    and bit counts with dict traffic, then sets and a keyed sort over a
    working set larger than the first part's.  Its duration gauges how fast
    the machine runs at the moment; the code never changes with pircodes."""
    table: dict[int, int] = {}
    x = 0x9E3779B97F4A7C15
    for _ in range(20_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 52
        table[key] = table.get(key, 0) + (x & 0xFFFF).bit_count()
    items = [(x := (x * 6364136223846793005 + 1) & 0xFFFFFFFFFF) for _ in range(6_000)]
    groups: dict[int, set[int]] = {}
    for v in items:
        groups.setdefault(v & 1023, set()).add(v)
    acc = len(table)
    for v in sorted(items, key=lambda v: (v.bit_count(), v)):
        acc ^= v >> 3
        acc += len(groups[v & 1023]) > 3
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class SpeedGauge:
    """Samples the reference kernel at most every GAUGE_PERIOD seconds.

    Other processes on a shared machine slow it down by tens of percent for
    seconds at a time.  Dividing an operation's time by the kernel time
    measured around it, in units of REFERENCE_SECONDS, cancels most of that
    while any change to pircodes still shows in full.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.taken_at = float("-inf")

    def current(self) -> float:
        if time.perf_counter() - self.taken_at >= GAUGE_PERIOD:
            self.seconds = reference_seconds()
            self.taken_at = time.perf_counter()
        return self.seconds


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    trace: bool
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    gauge: SpeedGauge | None = None
    # name -> (wall, cpu), scaled to REFERENCE_SECONDS when a gauge is set
    op_seconds: dict[str, tuple[float, float]] = field(default_factory=dict)
    raw_op_seconds: dict[str, tuple[float, float]] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else None,
                               time.perf_counter()))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    @contextmanager
    def op(self, name: str):
        """One gated operation: it fails if its body raises, which includes a
        wrong, incomplete or unconfirmed verdict (WrongVerdict)."""
        self.attempted += 1
        before = self.gauge.current() if self.gauge else REFERENCE_SECONDS
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            with self.span(f"bench.op.{name}"):
                yield
        except Exception as exc:  # noqa: BLE001 - every failure is counted, the pass goes on
            self.failures.append(f"{name}: {exc!r}")
        finally:
            wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            after = self.gauge.current() if self.gauge else REFERENCE_SECONDS
            scale = 2 * REFERENCE_SECONDS / (before + after)
            self.raw_op_seconds[name] = (wall, cpu)
            self.op_seconds[name] = (wall * scale, cpu * scale)

    def call(self, name: str, fn, *args, **kwargs):
        """Call a public pircodes function inside a span named `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: int) -> None:
        self.counters[name] += value

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Each span's duration minus the time its child spans cover, summed
        per layer.  Children of one span never overlap (one thread)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        out: Counter = Counter()
        for s, c in zip(self.spans, covered):
            out[s.layer] += s.duration - c
        return dict(out)

    def spans_jsonable(self, origin: float) -> list[dict]:
        return [{"name": s.name, "parent": s.parent,
                 "start": s.start - origin, "end": s.end - origin}
                for s in self.spans]
