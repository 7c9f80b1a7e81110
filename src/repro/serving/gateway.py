"""Online serving gateway: submit/step instead of pre-baked traces.

Real serving frontends (vLLM-style continuous batching) accept requests at
runtime; they do not get the whole workload up front.  ``ServingGateway``
is that entry point for every engine speaking the
:class:`~repro.serving.base.ServingEngine` protocol:

* :meth:`submit` — a request joins the simulated system *now* (or at an
  explicit ``arrival_s``), returning a
  :class:`~repro.serving.handle.RequestHandle` — the client's view of
  that one request: per-request token streaming, status, ``cancel()``,
  a finish-by ``deadline_s``, and the terminal record;
* :meth:`step` — advance the engine by one scheduling iteration;
* :meth:`run_until_drained` — serve until every submitted request finished;
* per-token and per-request completion callbacks fire as the simulated
  clock produces tokens, enabling closed-loop clients, autoscalers, and
  interactive sessions.  :meth:`add_token_listener` and
  :meth:`add_completion_listener` register extra observers without
  stealing the constructor callbacks' slots; listeners survive
  :meth:`reset` (they are wiring, not per-timeline state).

Offline :meth:`replay` is a thin adapter over the same machinery — it
submits the trace's requests verbatim and drains — so replaying a trace
through the gateway is bit-identical to the legacy ``engine.run(trace)``
path.  ``replay(trace, cancels=[(request_id, at_s), ...])`` additionally
schedules client cancellations at deterministic simulated times (the
impatient-client workload model).

Multi-tenant admission control (token buckets, VTC fair queueing,
SLO-aware shedding) is layered *in front of* this gateway by
:class:`repro.serving.tenancy.TenantGateway`, which holds requests at the
frontier and releases them through :meth:`ingest`.

Simulated time is owned by the :mod:`repro.sim` kernel underneath the
engine; this gateway exposes it read-only through :attr:`clock` and
:attr:`frontier` so stacked layers (cluster, tenancy) share one
definition of "now" instead of re-deriving it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..workload.spec import Trace, TraceRequest
from .base import ServingEngine
from .handle import HandleStatus, RequestHandle
from .metrics import ServingResult
from .request import RequestRecord, RequestState, ServingRequest
from .streaming_metrics import RecordPolicy

__all__ = ["ServingGateway"]

# gateway-level callbacks
TokenCallback = Callable[[int, str, int, float], None]
#: (request_id, model_id, generated_tokens, clock_s)
CompletionCallback = Callable[[RequestRecord], None]
#: fires once per finished request with its immutable record

#: a client-cancellation schedule: (request_id, cancel_at_s) pairs
CancelSchedule = Iterable[Tuple[int, float]]


class ServingGateway:
    """Online submit/step facade over any registered serving engine."""

    def __init__(self, engine: ServingEngine,
                 on_token: Optional[TokenCallback] = None,
                 on_request_complete: Optional[CompletionCallback] = None,
                 telemetry=None):
        self.engine = engine
        self._on_token = on_token
        self._on_complete = on_request_complete
        self._listeners: List[CompletionCallback] = []
        self._token_listeners: List[TokenCallback] = []
        self._handles: Dict[int, RequestHandle] = {}
        self._next_id = 0
        self._telemetry = None
        self._refresh_hooks()
        if telemetry is not None:
            telemetry.attach_serving(self)

    @property
    def telemetry(self):
        """The attached :class:`repro.telemetry.Telemetry`, or None."""
        return self._telemetry

    def add_completion_listener(self, listener: CompletionCallback) -> None:
        """Register an extra per-request completion callback.

        Listeners run after the constructor's ``on_request_complete`` (if
        any); the admission layer (:mod:`repro.serving.tenancy`) uses this
        to track outstanding work and service rates without stealing the
        user's callback slot.  Listeners survive :meth:`reset`.
        """
        self._listeners.append(listener)
        self._refresh_hooks()

    def add_token_listener(self, listener: TokenCallback) -> None:
        """Register an extra per-token callback — the streaming-side
        parity of :meth:`add_completion_listener`.  Fires as
        ``(request_id, model_id, generated_tokens, clock_s)`` after the
        constructor's ``on_token`` (if any) and survives :meth:`reset`."""
        self._token_listeners.append(listener)
        self._refresh_hooks()

    def _refresh_hooks(self) -> None:
        """Engine callbacks are installed only while someone listens, so
        pure replay paths pay no per-token callback overhead."""
        want_tokens = bool(self._on_token or self._token_listeners
                           or self._handles)
        want_finish = bool(self._on_complete or self._listeners
                           or self._handles)
        self.engine.on_token = self._token_hook if want_tokens else None
        self.engine.on_finish = self._finish_hook if want_finish else None

    # ------------------------------------------------------------------ #
    # online path
    # ------------------------------------------------------------------ #
    def submit(self, model_id: str, prompt_len: int, output_len: int,
               arrival_s: Optional[float] = None,
               tenant_id: Optional[str] = None,
               deadline_s: Optional[float] = None,
               conversation_id: Optional[str] = None) -> RequestHandle:
        """Submit one request; returns its :class:`RequestHandle`.

        ``arrival_s`` defaults to the engine's current simulated clock
        ("the request arrives now"); an explicit value may also lie in the
        future (it joins once the clock gets there) or the past (it joins
        at the next step, keeping its nominal arrival for latency math).
        ``tenant_id`` tags the request for per-tenant metrics and the
        admission layer.  ``deadline_s`` bounds the request: it must
        *finish* within that many simulated seconds of its arrival or it
        is aborted as expired.  ``conversation_id`` marks the request as
        one turn of a multi-turn session, which a prefix-cache-enabled
        engine uses to skip re-prefilling the session's history.  The
        returned handle streams this request's tokens and exposes its
        id, status and terminal record.
        """
        if prompt_len < 1 or output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 when set")
        if arrival_s is None:
            arrival_s = self.engine.clock
        absolute_deadline = None if deadline_s is None \
            else float(arrival_s) + float(deadline_s)
        request = TraceRequest(request_id=self._next_id, model_id=model_id,
                               arrival_s=float(arrival_s),
                               prompt_tokens=int(prompt_len),
                               output_tokens=int(output_len),
                               tenant_id=tenant_id,
                               deadline_s=absolute_deadline,
                               conversation_id=conversation_id)
        self._next_id += 1
        handle = RequestHandle(request.request_id, self, model_id,
                               tenant_id=tenant_id,
                               deadline_s=absolute_deadline)
        self._handles[request.request_id] = handle
        self._refresh_hooks()
        self.engine.submit(request)
        return handle

    def ingest(self, request: TraceRequest) -> int:
        """Submit a fully-formed :class:`TraceRequest` verbatim.

        Preserves the caller's request id and arrival time — the entry
        point used by trace replay and by the cluster gateway, which
        allocates ids globally so merged records stay unique.
        """
        self.engine.submit(request)
        self._next_id = max(self._next_id, request.request_id + 1)
        return request.request_id

    def cancel(self, request_id: int, at_s: Optional[float] = None,
               reason: str = "cancel") -> None:
        """Schedule a cancellation of one request at simulated time
        ``at_s`` (default: the engine's current clock, i.e. "now").  The
        abort applies at the first iteration boundary at or after that
        time; stale cancels are ignored."""
        if at_s is None:
            at_s = self.engine.clock
        self.engine.schedule_cancel(request_id, float(at_s),
                                    reason=reason)

    def handle(self, request_id: int) -> Optional[RequestHandle]:
        """The handle for a request submitted through this gateway."""
        return self._handles.get(request_id)

    def step(self) -> bool:
        """One engine iteration; False when the engine is drained."""
        progressed = self.engine.step()
        if self._telemetry is not None:
            self._telemetry.advance(self.engine.clock)
        return progressed

    def run_until_drained(self) -> ServingResult:
        """Serve until everything submitted so far has finished."""
        if self._telemetry is None:
            self.engine.run_until_drained()
        else:
            # step() advances the telemetry clock each iteration; the
            # direct engine path above stays the telemetry-off fast path
            while self.step():
                pass
        return self.result()

    def result(self) -> ServingResult:
        """Snapshot of completions so far (callable mid-flight)."""
        return self.engine.build_result()

    @property
    def clock(self) -> float:
        return self.engine.clock

    @property
    def frontier(self) -> float:
        """The point simulated time cannot retreat behind — for a single
        engine, its kernel clock.  Outer layers (cluster routing, the
        admission frontier in :mod:`repro.serving.tenancy`) read this
        instead of deriving their own notion of "now"."""
        return self.engine.clock

    @property
    def unfinished(self) -> int:
        return self.engine.unfinished

    @property
    def backlog(self) -> int:
        """Arrived-but-unfinished requests (future arrivals excluded)."""
        return self.engine.backlog

    # ------------------------------------------------------------------ #
    # offline adapter
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Fresh simulated timeline (request ids restart from zero).
        Registered token/completion listeners survive; per-request
        handles from the previous timeline are dropped."""
        self.engine.reset()
        self._handles.clear()
        self._next_id = 0
        self._refresh_hooks()
        if self._telemetry is not None:
            self._telemetry.reset()

    def replay(self, trace: Trace,
               cancels: Optional[CancelSchedule] = None) -> ServingResult:
        """Replay a pre-materialized trace through the online machinery.

        Equivalent to (and bit-identical with) ``engine.run(trace)``:
        resets the engine, submits every trace request verbatim
        (preserving its request id and arrival time), and drains.
        ``cancels`` schedules client cancellations — ``(request_id,
        at_s)`` pairs — at deterministic simulated times; with
        ``cancels=None`` the records are bit-identical to a
        pre-cancellation replay.
        """
        self.reset()
        for request in trace:
            self.ingest(request)
        if cancels is not None:
            for request_id, at_s in cancels:
                self.cancel(request_id, at_s=at_s)
        return self.run_until_drained()

    # ------------------------------------------------------------------ #
    # handle plumbing
    # ------------------------------------------------------------------ #
    def _status_of(self, request_id: int) -> HandleStatus:
        """Live status for a handle (terminal handles answer locally)."""
        req = self.engine.lookup(request_id)
        if req is None:
            return HandleStatus.QUEUED
        return _engine_status(req, self.engine.clock)

    def _token_hook(self, request: ServingRequest, clock: float) -> None:
        if self._on_token is not None:
            self._on_token(request.request_id, request.model_id,
                           request.generated_tokens, clock)
        for listener in self._token_listeners:
            listener(request.request_id, request.model_id,
                     request.generated_tokens, clock)
        handle = self._handles.get(request.request_id)
        if handle is not None:
            handle._push_token(clock, request.generated_tokens)

    @property
    def record_policy(self) -> "RecordPolicy":
        """The engine's record-retention policy (outer layers gate their
        own per-request maps on it)."""
        return self.engine.config.record_policy

    def _finish_hook(self, request: ServingRequest, clock: float) -> None:
        record = request.record()
        if self._on_complete is not None:
            self._on_complete(record)
        for listener in self._listeners:
            listener(record)
        if self.record_policy is RecordPolicy.KEEP_ALL:
            handle = self._handles.get(request.request_id)
        else:
            # releasing policy: terminal handles answer from their own
            # record; dropping the map entry keeps gateway memory
            # O(active requests)
            handle = self._handles.pop(request.request_id, None)
        if handle is not None:
            handle._finish(record)


def _engine_status(req: ServingRequest, clock: float) -> HandleStatus:
    """Map an engine-side request state onto the client vocabulary."""
    if req.state is RequestState.RUNNING:
        return HandleStatus.RUNNING
    if req.state is RequestState.FINISHED:
        return HandleStatus.FINISHED
    if req.state is RequestState.CANCELLED:
        return HandleStatus.CANCELLED
    if req.state is RequestState.EXPIRED:
        return HandleStatus.EXPIRED
    # queued or preempted: inside the engine once it has arrived
    if req.arrival_s <= clock:
        return HandleStatus.ADMITTED
    return HandleStatus.QUEUED
