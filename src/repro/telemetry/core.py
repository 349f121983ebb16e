"""Tracing spans, counters, histograms, and the global telemetry switch.

The design goal is a no-op fast path: all instrumentation funnels through
:func:`span`, :func:`add`, and :func:`observe`, each of which reads one
module-level attribute (``_ACTIVE``) and returns immediately when no
collector is installed.  Instrumented code never needs to guard its calls.

Tracing is thread-aware: the collector keeps one span stack per thread,
so spans opened by concurrent workers (the :mod:`repro.service` worker
pool) nest correctly within their own thread and become additional roots
rather than corrupting another thread's stack.  Counter and histogram
updates are lock-protected; the disabled fast path is unchanged.

Collectors are also *mergeable* across processes: a child process (an
``engine.map`` pool worker) records into its own collector, serialises it
with :meth:`TelemetryCollector.to_delta`, and ships the plain-dict delta
back over the pool's result channel; the parent stitches the child's span
trees under the originating span with :meth:`TelemetryCollector.merge`
and accumulates its counters/histograms, so a parallel run produces one
coherent trace with totals that match a serial run.  Histograms are
log-bucketed for exactly this reason — bucket tables merge losslessly
where a bare mean cannot, and they expose tail quantiles (p50/p90/p99).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "BUCKET_BASE",
    "Histogram",
    "NOOP_SPAN",
    "Span",
    "TelemetryCollector",
    "active",
    "add",
    "bucket_bound",
    "bucket_index",
    "disable",
    "enable",
    "enabled",
    "observe",
    "session",
    "span",
]


@dataclass
class Span:
    """One timed region: name, wall time, attributes, and children."""

    name: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes after the span has started; returns self."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            attributes=dict(payload.get("attributes", {})),
            start=float(payload.get("start", 0.0)),
            end=payload.get("end"),
            children=[
                cls.from_dict(child) for child in payload.get("children", [])
            ],
        )


#: Log-bucket growth factor: each bucket's upper bound is ~19% above the
#: previous one (2**0.25), giving <= 19% relative quantile error over a
#: huge dynamic range with a handful of occupied buckets per histogram.
BUCKET_BASE = 2.0 ** 0.25
_LOG_BUCKET_BASE = math.log(BUCKET_BASE)


def bucket_index(value: float) -> int:
    """Index of the log bucket covering a positive ``value``.

    Bucket ``i`` covers ``(BUCKET_BASE**(i-1), BUCKET_BASE**i]``, so the
    returned index's :func:`bucket_bound` is an upper bound on ``value``.
    """
    return math.ceil(math.log(value) / _LOG_BUCKET_BASE - 1e-12)


def bucket_bound(index: int) -> float:
    """Upper bound of log bucket ``index``."""
    return BUCKET_BASE ** index


@dataclass
class Histogram:
    """Mergeable log-bucketed aggregate of observed values.

    Keeps the streaming count/total/min/max of the original telemetry
    layer and additionally buckets positive values into log-spaced bins
    (non-positive values land in :attr:`underflow`), which is what makes
    two histograms mergeable across processes and tail quantiles
    (:meth:`quantile`, :attr:`p50`/:attr:`p90`/:attr:`p99`) answerable.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    #: log-bucket index -> observation count (positive values only).
    buckets: Dict[int, int] = field(default_factory=dict)
    #: observations <= 0 (upper bound 0.0 in exports).
    underflow: int = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self.underflow += 1
        else:
            index = bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact for count/total/
        min/max and bucket tables; the basis of cross-process merging)."""
        self.count += other.count
        self.total += other.total
        if other.count:
            if other.minimum < self.minimum:
                self.minimum = other.minimum
            if other.maximum > self.maximum:
                self.maximum = other.maximum
        self.underflow += other.underflow
        for index, bucket_count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + bucket_count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _clamp(self, value: float) -> float:
        return min(max(value, self.minimum), self.maximum)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket table.

        Returns the upper bound of the bucket holding the rank-``q``
        observation, clamped to the observed [min, max] (so a single
        observation reports itself exactly).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        observed = self.underflow + sum(self.buckets.values())
        rank = max(1, math.ceil(q * observed))
        cumulative = self.underflow
        if rank <= cumulative:
            return self._clamp(0.0)
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return self._clamp(bucket_bound(index))
        return self.maximum

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "p50": self.p50 if self.count else 0.0,
            "p90": self.p90 if self.count else 0.0,
            "p95": self.p95 if self.count else 0.0,
            "p99": self.p99 if self.count else 0.0,
            "underflow": self.underflow,
            "buckets": {
                str(index): count for index, count in sorted(self.buckets.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Histogram":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: the payload's ``count`` exceeds the observations
                its underflow and bucket table hold, as in a payload
                written without buckets; its quantiles would be unknown.
        """
        histogram = cls(
            count=int(payload.get("count", 0)),
            total=float(payload.get("total", 0.0)),
        )
        if histogram.count:
            histogram.minimum = float(payload["min"])
            histogram.maximum = float(payload["max"])
        histogram.underflow = int(payload.get("underflow", 0))
        histogram.buckets = {
            int(index): int(count)
            for index, count in payload.get("buckets", {}).items()
        }
        bucketed = histogram.underflow + sum(histogram.buckets.values())
        if histogram.count > bucketed:
            raise ValueError(
                f"histogram payload counts {histogram.count} observations "
                f"but its underflow and buckets hold {bucketed}"
            )
        return histogram


class TelemetryCollector:
    """In-memory sink: span forest + counter/histogram tables.

    Args:
        max_spans: hard cap on held spans.  A long session (many solves
            under one ``--trace``) can open thousands of spans; beyond the
            cap new spans are dropped (counted in :attr:`dropped_spans`)
            while counters/histograms keep aggregating, so long runs
            degrade to metrics-only instead of exhausting memory.
            :meth:`detach` gives a removed tree's spans back.
        clock: timestamp source (seconds); injectable for tests.

    Span stacks are per-thread: a span opened on a worker thread nests
    under that thread's innermost open span (or starts a new root), never
    under another thread's.  Counters, histograms, and the span budget
    are guarded by one lock so concurrent workers cannot lose updates.
    """

    def __init__(
        self,
        max_spans: int = 100_000,
        clock=time.perf_counter,
    ) -> None:
        self.roots: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_count = 0

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's own span stack."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def start_span(self, name: str, attributes: Dict[str, Any]) -> Optional[Span]:
        """Open a child of the current span (or a new root); may drop.

        Under an :meth:`adopt`-ed span that its own thread has since
        ended, nothing is recorded or counted: that trace is closed.
        """
        stack = self._stack
        with self._lock:
            if stack and stack[0].end is not None:
                return None
            if self._span_count >= self.max_spans:
                self.dropped_spans += 1
                return None
            self._span_count += 1
            node = Span(name=name, attributes=attributes, start=self._clock())
            (stack[-1].children if stack else self.roots).append(node)
        stack.append(node)
        return node

    def end_span(self, node: Span) -> None:
        node.end = self._clock()
        # Pop through any descendants left open by non-local exits.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is node:
                break

    @contextmanager
    def adopt(self, parent: Span):
        """Open the calling thread's spans under ``parent``, a span open
        on another thread, for the duration of a ``with`` block.

        The thread must have no open span of its own.  Once ``parent``
        ends (say a deadline abandoned this thread), later spans here are
        neither recorded nor counted, so a detached tree takes its whole
        span budget with it.
        """
        stack = self._stack
        if stack:
            raise ValueError("adopt needs a thread with no open span")
        stack.append(parent)
        try:
            yield
        finally:
            stack.clear()

    def detach(self, root: Span) -> Dict[str, Any]:
        """Remove the finished root span ``root`` and return its dict.

        The span budget its tree used is given back, so a long-lived
        collector that hands each unit of work its own trace (the
        service's per-job flight recorder) never fills up.

        Raises:
            ValueError: ``root`` is not one of this collector's roots,
                or it is still open.
        """
        if root.end is None:
            raise ValueError(f"span {root.name!r} is still open")
        with self._lock:
            for index, candidate in enumerate(self.roots):
                if candidate is root:
                    del self.roots[index]
                    break
            else:
                raise ValueError(
                    f"span {root.name!r} is not a root of this collector"
                )
            self._span_count -= sum(1 for _ in root.walk())
        return root.to_dict()

    def current_span(self) -> Optional[Span]:
        """Innermost open span on the calling thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def span_names(self) -> List[str]:
        """Names of all recorded spans, depth-first."""
        return [node.name for node in self.iter_spans()]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram:
        """One histogram by name (a fresh empty one when never observed)."""
        with self._lock:
            return self.histograms.get(name) or Histogram()

    def snapshot_counters(self) -> Dict[str, float]:
        """Copy of the counter table (for before/after deltas)."""
        with self._lock:
            return dict(self.counters)

    def summary(self) -> Dict[str, Any]:
        """Plain-dict rollup of counters and histogram aggregates."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in self.histograms.items()
                },
                "spans": self._span_count,
                "dropped_spans": self.dropped_spans,
            }

    # ------------------------------------------------------------------
    # Cross-process merging
    # ------------------------------------------------------------------
    def to_delta(self) -> Dict[str, Any]:
        """Serializable snapshot of everything this collector recorded.

        The wire format for cross-process telemetry: a pool worker
        records into a private collector, returns ``to_delta()`` (plain
        dicts — picklable and JSON-safe), and the parent folds it in with
        :meth:`merge`.
        """
        with self._lock:
            return {
                "spans": [root.to_dict() for root in self.roots],
                "counters": dict(self.counters),
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in self.histograms.items()
                },
                "dropped_spans": self.dropped_spans,
            }

    def merge(
        self,
        delta: "TelemetryCollector | Dict[str, Any]",
        *,
        parent: Optional[Span] = None,
    ) -> None:
        """Fold another collector (or a :meth:`to_delta` dict) into this one.

        Counters accumulate, histograms merge bucket-wise, and the
        delta's span trees are stitched under ``parent`` (e.g. the
        ``engine.map`` span that fanned the work out) — or appended as
        new roots when ``parent`` is ``None``.  Counter totals after a
        merge match what a single-collector (serial) run would have
        recorded.
        """
        if isinstance(delta, TelemetryCollector):
            delta = delta.to_delta()
        spans = [Span.from_dict(payload) for payload in delta.get("spans", [])]
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0.0) + value
            for name, payload in delta.get("histograms", {}).items():
                histogram = self.histograms.get(name)
                if histogram is None:
                    self.histograms[name] = Histogram.from_dict(payload)
                else:
                    histogram.merge(Histogram.from_dict(payload))
            self.dropped_spans += int(delta.get("dropped_spans", 0))
            self._span_count += sum(
                1 for root in spans for _ in root.walk()
            )
            if parent is None:
                self.roots.extend(spans)
        if parent is not None:
            parent.children.extend(spans)


class _NoopSpan:
    """Singleton stand-in returned by :func:`span` when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager binding one live span to a collector."""

    __slots__ = ("_collector", "_name", "_attributes", "_node")

    def __init__(
        self, collector: TelemetryCollector, name: str, attributes: Dict[str, Any]
    ) -> None:
        self._collector = collector
        self._name = name
        self._attributes = attributes
        self._node: Optional[Span] = None

    def __enter__(self):
        self._node = self._collector.start_span(self._name, self._attributes)
        return self._node if self._node is not None else NOOP_SPAN

    def __exit__(self, *exc_info) -> bool:
        if self._node is not None:
            self._collector.end_span(self._node)
        return False


# ----------------------------------------------------------------------
# Global switch
# ----------------------------------------------------------------------
_ACTIVE: Optional[TelemetryCollector] = None
_PREVIOUS: List[Optional[TelemetryCollector]] = []


def enable(collector: Optional[TelemetryCollector] = None) -> TelemetryCollector:
    """Install ``collector`` (or a fresh one) as the global sink.

    Enables stack: a previously active collector is remembered and
    restored by the matching :func:`disable`.
    """
    global _ACTIVE
    _PREVIOUS.append(_ACTIVE)
    _ACTIVE = collector if collector is not None else TelemetryCollector()
    return _ACTIVE


def disable() -> Optional[TelemetryCollector]:
    """Uninstall the active collector and return it (None if none)."""
    global _ACTIVE
    current = _ACTIVE
    _ACTIVE = _PREVIOUS.pop() if _PREVIOUS else None
    return current


def enabled() -> bool:
    """True when a collector is installed."""
    return _ACTIVE is not None


def active() -> Optional[TelemetryCollector]:
    """The installed collector, or None."""
    return _ACTIVE


@contextmanager
def session(collector: Optional[TelemetryCollector] = None):
    """Enable telemetry for the duration of a ``with`` block."""
    installed = enable(collector)
    try:
        yield installed
    finally:
        disable()


# ----------------------------------------------------------------------
# Instrumentation entry points (the no-op fast path)
# ----------------------------------------------------------------------
def span(name: str, **attributes: Any):
    """Open a traced region; returns a context manager.

    With telemetry disabled this returns the shared no-op span, so call
    sites pay one global read.  The object yielded by ``with`` supports
    ``.set(**attrs)`` in both modes.
    """
    collector = _ACTIVE
    if collector is None:
        return NOOP_SPAN
    return _SpanContext(collector, name, attributes)


def add(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.add(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.observe(name, value)
