"""Per-query trace trees: spans with deterministic ids and timings.

A :class:`Tracer` produces one tree per served query: a root span for
the cluster entry point, child spans for shard dispatch, retry
attempts, server-side search phases, and so on.  Spans carry monotonic
timings and structured attributes (shard id, attempt number, postings
scanned, cache hit/miss) — the per-stage accounting that makes a
sharded encrypted-search deployment tunable (cf. the distributed
framework of arXiv:1408.5539).

Two properties the test suites depend on:

* **determinism** — span and trace ids come from a plain counter
  under the tracer lock, and the clock is injectable, so a seeded run
  with a fake clock exports a byte-identical JSONL trace;
* **near-zero overhead when off** — the serving path is instrumented
  against :data:`NOOP_TRACER`, whose ``span()`` returns a shared no-op
  context manager; with tracing off, the extra cost of a traced call
  is a few attribute reads (the overhead-guard test pins this).

Parenting is thread-local: ``tracer.span(name)`` nests under the
span currently open *in the calling thread*; a fan-out boundary (the
cluster's thread pool) passes ``parent=`` explicitly to bridge
threads.  A *process* boundary passes a :class:`RemoteParent` — the
(trace id, span id) pair carried on the wire by the network layer's
traced envelope — and disjoint ``id_base`` ranges keep each worker
process's span ids from colliding with the front end's when their
artifacts are merged into one cluster trace.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.errors import ParameterError


class Span:
    """One timed, attributed operation inside a trace tree.

    Use as a context manager (via :meth:`Tracer.span`); the span is
    recorded into the tracer when the block exits.  Attributes set
    after exit are ignored by exporters only in the sense that the
    span was already serialized from live state — set them inside the
    block.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_s",
        "end_s",
        "attrs",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        start_s: float,
        attrs: dict[str, Any],
    ):
        self._tracer = tracer
        self._token: "Span | None" = None
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attrs: Any) -> "Span":
        """Attach structured attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._token = self._tracer._push_current(self)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop_current(self._token)
        self._tracer._record(self)
        return None

    def finish(self) -> None:
        """Close and record a span that was opened without ``with``.

        Such a span never becomes the thread's current span, so it can
        open in one asyncio task and close in another.
        """
        self._tracer._record(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, name={self.name!r})"
        )


class _NoopSpan:
    """The shared do-nothing span of :class:`NoopTracer`."""

    __slots__ = ()

    trace_id = 0
    span_id = 0
    parent_id = None
    name = ""
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        return None

    def finish(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class RemoteParent:
    """A parent span that lives in another process.

    Carries just the (trace id, span id) pair a traced wire envelope
    ships across a process boundary; pass it as ``parent=`` to adopt
    the remote caller's trace.  Spans opened under a remote parent are
    marked with a ``remote_parent`` attribute so artifact validation
    knows their parent resolves in the *caller's* dump, not the local
    one.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        if trace_id < 1 or span_id < 1:
            raise ParameterError(
                "remote parent ids must be >= 1, got "
                f"trace {trace_id} / span {span_id}"
            )
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteParent(trace={self.trace_id}, id={self.span_id})"
        )


class NoopTracer:
    """The off switch: same surface as :class:`Tracer`, zero work.

    ``enabled`` is False, so call sites can skip attribute
    computations entirely (``if tracer.enabled: ...``); everything
    else is safe to call unconditionally.
    """

    enabled = False

    def span(
        self, name: str, parent: Any = None, **attrs: Any
    ) -> _NoopSpan:
        """A shared no-op context manager."""
        return NOOP_SPAN

    def current(self) -> None:
        """No current span, ever."""
        return None

    def annotate(self, **attrs: Any) -> None:
        """Dropped."""

    @property
    def spans(self) -> tuple[()]:
        """Always empty."""
        return ()

    def reset(self) -> None:
        """Nothing to clear."""


#: Shared no-op tracer; instrumented code defaults to this.
NOOP_TRACER = NoopTracer()


class Tracer:
    """Collects finished spans into per-trace trees.

    Parameters
    ----------
    clock:
        Monotonic time source (seconds).  Injectable so deterministic
        suites can drive a fake clock; defaults to
        :func:`time.perf_counter`.
    max_spans:
        Retention cap: once this many spans are recorded, the oldest
        are dropped (a tracer left on in a long-lived server must not
        grow without bound).
    id_base:
        Starting offset for span and trace ids (ids count up from
        ``id_base + 1``).  Give each process of a distributed
        deployment a disjoint base so merged cluster artifacts never
        collide on ids; the default 0 keeps single-process traces
        (and their golden artifacts) unchanged.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        max_spans: int = 100_000,
        id_base: int = 0,
    ):
        if max_spans < 1:
            raise ParameterError(
                f"max_spans must be >= 1, got {max_spans}"
            )
        if id_base < 0:
            raise ParameterError(
                f"id_base must be >= 0, got {id_base}"
            )
        self._clock = clock if clock is not None else time.perf_counter
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._next_span_id = id_base + 1
        self._next_trace_id = id_base + 1
        self._local = threading.local()

    # -- span lifecycle ----------------------------------------------------

    def span(
        self,
        name: str,
        parent: "Span | _NoopSpan | RemoteParent | None" = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (use as a context manager).

        With no explicit ``parent``, nests under the calling thread's
        current span; with neither, starts a new trace (a root span).
        A ``parent`` argument bridges thread boundaries (pass the root
        span into pool workers) or process boundaries (pass the
        :class:`RemoteParent` a traced wire envelope carried in).
        """
        if not name:
            raise ParameterError("span name must be non-empty")
        attrs = dict(attrs)
        if isinstance(parent, RemoteParent):
            attrs["remote_parent"] = True
        if parent is None:
            parent = self.current()
        if isinstance(parent, _NoopSpan):
            parent = None
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            if parent is None:
                trace_id = self._next_trace_id
                self._next_trace_id += 1
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
        return Span(
            tracer=self,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start_s=self._clock(),
            attrs=dict(attrs),
        )

    def _push_current(self, span: Span) -> Span | None:
        previous = getattr(self._local, "current", None)
        self._local.current = span
        return previous

    def _pop_current(self, previous: Span | None) -> None:
        self._local.current = previous

    def _record(self, span: Span) -> None:
        span.end_s = self._clock()
        with self._lock:
            self._finished.append(span)
            overflow = len(self._finished) - self._max_spans
            if overflow > 0:
                del self._finished[:overflow]

    # -- inspection --------------------------------------------------------

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        return getattr(self._local, "current", None)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the calling thread's current span."""
        span = self.current()
        if span is not None:
            span.set(**attrs)

    @property
    def spans(self) -> tuple[Span, ...]:
        """Finished spans, sorted by (trace id, span id)."""
        with self._lock:
            finished = list(self._finished)
        finished.sort(key=lambda span: (span.trace_id, span.span_id))
        return tuple(finished)

    def trace_ids(self) -> tuple[int, ...]:
        """Distinct trace ids with at least one finished span."""
        return tuple(
            sorted({span.trace_id for span in self.spans})
        )

    def reset(self) -> None:
        """Drop finished spans (ids keep counting, stays monotonic)."""
        with self._lock:
            self._finished.clear()


class FakeClock:
    """A deterministic clock: each read advances by a fixed step.

    Drives golden-trace tests — span timings become a pure function of
    the instrumentation call sequence.
    """

    def __init__(self, step_s: float = 0.001):
        if step_s <= 0:
            raise ParameterError(f"step_s must be positive, got {step_s}")
        self._step_s = step_s
        self._ticks = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            tick = self._ticks
            self._ticks += 1
        return tick * self._step_s
