"""Request-correlated span tracing with context propagation.

Where :mod:`repro.obs.trace` records what the *engine* does inside one run
(supersteps, loops, branches), a span records what a *request* experiences
across the serving pipeline: admission queue wait, routing, warm-pool
leasing, micro-batch coalescing, engine execution, verification, and the
terminal completed/rejected disposition.  Every span carries

* a ``span_id`` unique within its :class:`SpanCollector`,
* a ``parent_id`` linking it into a tree,
* a ``correlation_id`` shared by every span of one request, so one id greps
  a request's whole journey across service, router, pool, and engine logs,
* monotonic ``start_s`` / ``end_s`` stamps and free-form ``attributes``.

Propagation is **ambient**: :meth:`SpanCollector.span` installs the new span
as the current one (a :mod:`contextvars` context variable, so worker threads
are isolated), and :func:`child_span` lets deep layers — the batch solver,
the BSP engine, the warm pool's compile path — attach child spans to
whatever request is active *without any parameter plumbing*.  Crossing a
thread boundary (the serving layer hands a ticket from the submitting
thread to a worker) is explicit: the worker re-activates the request's span
with :meth:`SpanCollector.activate`.

Spans are opt-in and follow ``NULL_TRACER``'s discipline: the module-level
:data:`NULL_SPANS` is the default everywhere, its ``enabled`` flag is
``False``, and every call site either guards on that flag or goes through
:func:`child_span`, which costs one context-variable read when no request
is being traced (the <5 % overhead budget on uninstrumented solves).
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import threading
from time import monotonic
from typing import Any, Iterator

__all__ = [
    "Span",
    "SpanCollector",
    "NullSpanTracer",
    "NULL_SPANS",
    "SPAN_STATUSES",
    "child_span",
    "correlation_scope",
    "current_correlation_id",
    "current_span",
]

#: Terminal span statuses (mirrors the request's terminal states, plus
#: ``error`` for sub-operations that raised and were handled upstream).
SPAN_STATUSES = ("ok", "rejected", "error")

#: Ambient (collector, span) pair; per-thread via contextvars.
_ACTIVE: contextvars.ContextVar[tuple["SpanCollector", "Span"] | None] = (
    contextvars.ContextVar("repro_active_span", default=None)
)

#: Ambient correlation id for contexts that are correlated but not span
#: traced (the serve pipeline always sets this, even with NULL_SPANS, so
#: log lines can be grepped by request regardless of span overhead).
_CORRELATION: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_correlation_id", default=None
)


@dataclasses.dataclass
class Span:
    """One timed operation in a request's journey."""

    name: str
    span_id: int
    correlation_id: str
    parent_id: int | None
    start_s: float
    end_s: float | None = None
    status: str = "ok"
    attributes: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Elapsed seconds; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "correlation_id": self.correlation_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Shared inert span: every mutation is a no-op, identity is stable."""

    __slots__ = ()

    name = ""
    span_id = -1
    correlation_id = ""
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    status = "ok"
    attributes: dict[str, Any] = {}
    finished = True
    duration_s = 0.0

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullContext:
    """Shared inert context manager: enters as :data:`_NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullSpanTracer:
    """Disabled span layer: every method is a no-op, ``enabled`` is False.

    Call sites guard on ``spans.enabled`` before building attribute
    payloads, so the disabled path never allocates — same discipline as
    :data:`repro.obs.trace.NULL_TRACER`.
    """

    enabled = False

    def start(
        self,
        name: str,
        *,
        correlation_id: str | None = None,
        parent: Span | None = None,
        root: bool = False,
        at: float | None = None,
        **attributes: Any,
    ):
        return _NULL_SPAN

    def end(self, span, status: str | None = None, *, at: float | None = None) -> None:
        pass

    def span(
        self,
        name: str,
        *,
        correlation_id: str | None = None,
        parent: Span | None = None,
        root: bool = False,
        **attributes: Any,
    ):
        return _NULL_CONTEXT

    def activate(self, span) -> contextlib.AbstractContextManager:
        return _NULL_CONTEXT


#: Shared disabled span tracer (stateless, safe to reuse everywhere).
NULL_SPANS = NullSpanTracer()


class SpanCollector(NullSpanTracer):
    """Thread-safe span sink: many workers emit into one collector.

    Span ids are allocated under a lock; finished spans are appended under
    the same lock, so :meth:`finished` and the export see a consistent
    list.  A span itself is only ever mutated by the thread that owns it
    (the serving pipeline hands a request's spans from the submitter to
    exactly one worker), so per-span attribute writes are unlocked.
    """

    enabled = True

    def __init__(self, *, clock=monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 0
        self._spans: list[Span] = []
        self._anonymous = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def start(
        self,
        name: str,
        *,
        correlation_id: str | None = None,
        parent: Span | None = None,
        root: bool = False,
        at: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span.  Parent/correlation default to the ambient span.

        ``root=True`` forces a detached span even when an ambient span is
        active (the serving layer's per-request roots must never attach to
        whatever the submitting thread happens to be tracing).  ``at``
        opens it at an instant already read from the collector's clock
        instead of now, so a span can start exactly where another began
        or ended.
        """
        if parent is None and not root:
            active = _ACTIVE.get()
            if active is not None and active[0] is self:
                parent = active[1]
        if correlation_id is None:
            if parent is not None:
                correlation_id = parent.correlation_id
            else:
                with self._lock:
                    self._anonymous += 1
                    correlation_id = f"span-{self._anonymous:06d}"
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(
            name=name,
            span_id=span_id,
            correlation_id=correlation_id,
            parent_id=None if parent is None else parent.span_id,
            start_s=self._clock() if at is None else at,
            attributes=dict(attributes),
        )

    def end(
        self, span: Span, status: str | None = None, *, at: float | None = None
    ) -> None:
        """Close ``span`` and record it; idempotent.

        ``at`` closes it at an instant already read from the collector's
        clock instead of now (a parent ending exactly where its last child
        did).
        """
        if span is _NULL_SPAN or span.end_s is not None:
            return
        span.end_s = self._clock() if at is None else at
        if status is not None:
            span.status = status
        with self._lock:
            self._spans.append(span)

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        correlation_id: str | None = None,
        parent: Span | None = None,
        root: bool = False,
        **attributes: Any,
    ) -> Iterator[Span]:
        """Open a span, make it ambient, close it on exit.

        An escaping exception marks the span ``status="error"`` (and
        re-raises); the pipeline's handled-fault paths set statuses
        explicitly instead.
        """
        span = self.start(
            name,
            correlation_id=correlation_id,
            parent=parent,
            root=root,
            **attributes,
        )
        token = _ACTIVE.set((self, span))
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            _ACTIVE.reset(token)
            self.end(span)

    @contextlib.contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Adopt an existing span as the ambient one (cross-thread handoff).

        Does not end the span on exit — the creator owns its lifecycle.
        """
        token = _ACTIVE.set((self, span))
        try:
            yield span
        finally:
            _ACTIVE.reset(token)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def finished(self) -> list[Span]:
        """Snapshot of every closed span, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def roots(self) -> list[Span]:
        """Finished spans with no parent, in completion order."""
        return [span for span in self.finished() if span.parent_id is None]

    def by_correlation(self, correlation_id: str) -> list[Span]:
        return [
            span for span in self.finished()
            if span.correlation_id == correlation_id
        ]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.finished() if s.parent_id == span.span_id]

    def tree(self, correlation_id: str) -> dict[str, Any] | None:
        """Nested dict view of one request's span tree (root or None)."""
        spans = self.by_correlation(correlation_id)
        by_parent: dict[int | None, list[Span]] = {}
        for span in spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        roots = by_parent.get(None, [])
        if not roots:
            return None

        def build(span: Span) -> dict[str, Any]:
            node = span.to_dict()
            node["children"] = [
                build(child)
                for child in sorted(
                    by_parent.get(span.span_id, []), key=lambda s: s.start_s
                )
            ]
            return node

        return build(roots[0])

    def coverage(self, correlation_id: str) -> float:
        """Fraction of the root span's latency its child spans account for.

        The acceptance criterion for request tracing: the direct children
        of the root (queue wait + execution) must cover ≥ 95 % of the
        measured end-to-end latency, i.e. the span tree explains where the
        time went.  A childless root (admission-time reject) trivially
        accounts for itself → 1.0.
        """
        spans = self.by_correlation(correlation_id)
        root = next((s for s in spans if s.parent_id is None), None)
        if root is None:
            return 0.0
        children = [s for s in spans if s.parent_id == root.span_id]
        if not children:
            return 1.0
        if root.duration_s <= 0.0:
            return 1.0
        covered = sum(child.duration_s for child in children)
        return min(1.0, covered / root.duration_s)


# ----------------------------------------------------------------------
# Ambient context helpers
# ----------------------------------------------------------------------


def current_span() -> Span | None:
    """The ambient span of this thread/context, or None."""
    active = _ACTIVE.get()
    return None if active is None else active[1]


def current_correlation_id() -> str | None:
    """The ambient correlation id (span-derived or :func:`correlation_scope`)."""
    active = _ACTIVE.get()
    if active is not None:
        return active[1].correlation_id
    return _CORRELATION.get()


@contextlib.contextmanager
def correlation_scope(correlation_id: str) -> Iterator[str]:
    """Tag this context with a correlation id without opening a span.

    The serving pipeline wraps every request's processing in this scope even
    when span tracing is off, so the logging layer
    (:class:`repro.obs.logging_setup.CorrelationFilter`) can stamp the id
    into every log line the request causes.
    """
    token = _CORRELATION.set(correlation_id)
    try:
        yield correlation_id
    finally:
        _CORRELATION.reset(token)


def child_span(name: str, **attributes: Any):
    """A child span of the ambient one — or a shared no-op when untraced.

    This is the deep-layer hook: the batch solver, the BSP engine, and the
    warm pool call it unconditionally.  With no active span the cost is one
    context-variable read and a shared null context manager — no
    allocation, no branching at the call sites.
    """
    active = _ACTIVE.get()
    if active is None:
        return _NULL_CONTEXT
    collector, span = active
    return collector.span(
        name,
        parent=span,
        correlation_id=span.correlation_id,
        **attributes,
    )
