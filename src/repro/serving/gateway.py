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

That client surface — ``submit``, ``handle``, the listeners, terminal
delivery, ``replay`` and ``run_until_drained`` — is written once, in
:class:`GatewayBase`, and shared with the cluster and tenant gateways;
each gateway overrides only where an accepted request goes and how it
steps, cancels and resets.

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

__all__ = ["GatewayBase", "ServingGateway"]

# gateway-level callbacks
TokenCallback = Callable[[int, str, int, float], None]
#: (request_id, model_id, generated_tokens, clock_s)
CompletionCallback = Callable[[RequestRecord], None]
#: fires once per finished request with its immutable record

#: a client-cancellation schedule: (request_id, cancel_at_s) pairs
CancelSchedule = Iterable[Tuple[int, float]]


class GatewayBase:
    """The client surface every gateway shares.

    :class:`ServingGateway`, :class:`~repro.serving.cluster.ClusterGateway`
    and :class:`~repro.serving.tenancy.TenantGateway` all take requests
    through :meth:`submit`, look handles up with :meth:`handle`, fan
    tokens and terminal records out to listeners and handles, and replay
    traces.  A subclass supplies only what differs between them:

    * :meth:`_check_open` (raise when no request can be accepted now),
      :meth:`_arrival_now` (the default arrival time) and :meth:`_accept`
      (where an accepted request goes; by default :meth:`ingest`);
    * :meth:`ingest`, :meth:`step`, :meth:`cancel`, :meth:`result`,
      :meth:`_status_of` and :attr:`record_policy`, plus :meth:`reset`
      for its own state (ending in ``super().reset()``);
    * the token tap: :meth:`_token_sources`, or a :meth:`_listen`
      override for a gateway that taps an engine directly.

    Subclasses feed every token event into :meth:`_fan_out_token` and
    every terminal record, exactly once per request, into
    :meth:`_deliver`.
    """

    def __init__(self, on_token: Optional[TokenCallback] = None,
                 on_request_complete: Optional[CompletionCallback] = None):
        self._token_listeners: List[TokenCallback] = []
        self._completion_listeners: List[CompletionCallback] = []
        self._handles: Dict[int, RequestHandle] = {}
        self._next_id = 0
        self._tapped = False
        self._telemetry = None
        if on_token is not None:
            self.add_token_listener(on_token)
        if on_request_complete is not None:
            self.add_completion_listener(on_request_complete)

    @property
    def telemetry(self):
        """The attached :class:`repro.telemetry.Telemetry`, or None."""
        return self._telemetry

    # ------------------------------------------------------------------ #
    # listeners
    # ------------------------------------------------------------------ #
    def add_completion_listener(self, listener: CompletionCallback) -> None:
        """Register a per-request completion callback, fired with each
        terminal record in registration order (the constructor's
        ``on_request_complete``, when given, registers first).  Outer
        layers use this to track outstanding work without stealing the
        user's callback.  Listeners survive :meth:`reset`."""
        self._completion_listeners.append(listener)
        self._listen()

    def add_token_listener(self, listener: TokenCallback) -> None:
        """Register a per-token callback, fired as ``(request_id,
        model_id, generated_tokens, clock_s)`` in registration order (the
        constructor's ``on_token``, when given, registers first).
        Listeners survive :meth:`reset`."""
        self._token_listeners.append(listener)
        self._listen()

    def _listen(self) -> None:
        """Install the token tap once a token listener or handle needs
        it, so replay without either pays no per-token overhead."""
        if not self._tapped and (self._token_listeners or self._handles):
            self._tapped = True
            for source in self._token_sources():
                source.add_token_listener(self._fan_out_token)

    def _token_sources(self) -> List["GatewayBase"]:
        """The inner gateways whose token events this one fans out."""
        raise NotImplementedError

    def _fan_out_token(self, request_id: int, model_id: str,
                       n_generated: int, clock: float) -> None:
        for listener in self._token_listeners:
            listener(request_id, model_id, n_generated, clock)
        handle = self._handles.get(request_id)
        if handle is not None:
            handle._push_token(clock, n_generated)

    def _deliver(self, record: RequestRecord) -> None:
        """A request reached its terminal state: hand its record to the
        completion listeners, then to its handle."""
        for listener in self._completion_listeners:
            listener(record)
        if self.record_policy is RecordPolicy.KEEP_ALL:
            handle = self._handles.get(record.request_id)
        else:
            # releasing policy: terminal handles answer from their own
            # record; dropping the map entry keeps gateway memory
            # O(active requests)
            handle = self._handles.pop(record.request_id, None)
        if handle is not None:
            handle._finish(record)

    # ------------------------------------------------------------------ #
    # online path
    # ------------------------------------------------------------------ #
    def submit(self, model_id: str, prompt_len: int, output_len: int,
               arrival_s: Optional[float] = None,
               tenant_id: Optional[str] = None,
               deadline_s: Optional[float] = None,
               conversation_id: Optional[str] = None) -> RequestHandle:
        """Submit one request; returns its :class:`RequestHandle`.

        ``arrival_s`` defaults to the gateway's current simulated time
        ("the request arrives now"); an explicit value may also lie in the
        future (it joins once the clock gets there) or the past (it joins
        at the next step, keeping its nominal arrival for latency math).
        ``tenant_id`` tags the request for per-tenant metrics and the
        admission layer.  ``deadline_s`` bounds the request: it must
        *finish* within that many simulated seconds of its arrival or it
        is aborted as expired.  ``conversation_id`` marks the request as
        one turn of a multi-turn session: affinity balancers route it to
        the session's home replica, and a prefix-cache-enabled engine
        skips re-prefilling the session's history.  The returned handle
        streams this request's tokens and exposes its id, status and
        terminal record.
        """
        if prompt_len < 1 or output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 when set")
        self._check_open()
        if arrival_s is None:
            arrival_s = self._arrival_now()
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
        self._listen()
        try:
            self._accept(request)
        except Exception:
            # rejected at routing time (e.g. an unknown model): the
            # handle must not outlive its request
            self._handles.pop(request.request_id, None)
            raise
        return handle

    def _check_open(self) -> None:
        """Raise when the gateway can accept no request right now."""

    def _arrival_now(self) -> float:
        """The arrival time of a request submitted without one."""
        raise NotImplementedError

    def _accept(self, request: TraceRequest) -> None:
        """Take one submitted request (its handle is registered).  An
        exception here rejects the submit and drops the handle."""
        self.ingest(request)

    def handle(self, request_id: int) -> Optional[RequestHandle]:
        """The handle for a request submitted through this gateway."""
        return self._handles.get(request_id)

    # ------------------------------------------------------------------ #
    # what each gateway supplies
    # ------------------------------------------------------------------ #
    def ingest(self, request: TraceRequest) -> int:
        """Accept a fully-formed request verbatim, keeping its id and
        arrival time: the entry point of :meth:`replay` and outer layers."""
        raise NotImplementedError

    def step(self) -> bool:
        """Advance one iteration; False once drained."""
        raise NotImplementedError

    def cancel(self, request_id: int, at_s: Optional[float] = None,
               reason: str = "cancel") -> None:
        """Schedule a cancellation of one request at simulated time
        ``at_s`` (default: now).  The abort applies at the first iteration
        boundary at or after that time; stale cancels are ignored."""
        raise NotImplementedError

    def reset(self) -> None:
        """Fresh simulated timeline: request ids restart from zero and
        the previous timeline's handles are dropped; listeners survive.
        Each gateway resets its own state, then calls this."""
        self._handles.clear()
        self._next_id = 0
        if self._telemetry is not None:
            self._telemetry.reset()   # idempotent; layers share one

    def result(self) -> ServingResult:
        """Snapshot of completions so far (callable mid-flight)."""
        raise NotImplementedError

    def _status_of(self, request_id: int) -> HandleStatus:
        """Live status of a not-yet-terminal request."""
        raise NotImplementedError

    @property
    def record_policy(self) -> RecordPolicy:
        """The record-retention policy terminal delivery follows."""
        raise NotImplementedError

    def run_until_drained(self) -> ServingResult:
        """Serve until everything submitted so far has finished."""
        while self.step():
            pass
        return self.result()

    # ------------------------------------------------------------------ #
    # offline adapter
    # ------------------------------------------------------------------ #
    def replay(self, trace: Trace,
               cancels: Optional[CancelSchedule] = None) -> ServingResult:
        """Replay a pre-materialized trace through the online machinery.

        Resets to a fresh timeline, passes every trace request to
        :meth:`ingest` verbatim (preserving its request id and arrival
        time), and drains.  ``cancels`` schedules client cancellations —
        ``(request_id, at_s)`` pairs — at deterministic simulated times
        (the impatient-client workload model); with ``cancels=None`` the
        records are bit-identical to a pre-cancellation replay.
        """
        self.reset()
        for request in trace:
            self.ingest(request)
        if cancels is not None:
            for request_id, at_s in cancels:
                self.cancel(request_id, at_s=at_s)
        return self.run_until_drained()


class ServingGateway(GatewayBase):
    """Online submit/step facade over any registered serving engine.

    ``replay(trace)`` is bit-identical to ``engine.run(trace)``.
    """

    def __init__(self, engine: ServingEngine,
                 on_token: Optional[TokenCallback] = None,
                 on_request_complete: Optional[CompletionCallback] = None,
                 telemetry=None):
        self.engine = engine
        super().__init__(on_token, on_request_complete)
        self._listen()
        if telemetry is not None:
            telemetry.attach_serving(self)

    def _listen(self) -> None:
        """Engine callbacks are installed only while someone listens, so
        pure replay paths pay no per-token callback overhead."""
        want_tokens = bool(self._token_listeners or self._handles)
        want_finish = bool(self._completion_listeners or self._handles)
        self.engine.on_token = self._token_hook if want_tokens else None
        self.engine.on_finish = self._finish_hook if want_finish else None

    # ------------------------------------------------------------------ #
    # online path
    # ------------------------------------------------------------------ #
    def _arrival_now(self) -> float:
        return self.engine.clock

    def ingest(self, request: TraceRequest) -> int:
        self.engine.submit(request)
        self._next_id = max(self._next_id, request.request_id + 1)
        return request.request_id

    def cancel(self, request_id: int, at_s: Optional[float] = None,
               reason: str = "cancel") -> None:
        if at_s is None:
            at_s = self.engine.clock
        self.engine.schedule_cancel(request_id, float(at_s),
                                    reason=reason)

    def step(self) -> bool:
        """One engine iteration; False when the engine is drained."""
        progressed = self.engine.step()
        if self._telemetry is not None:
            self._telemetry.advance(self.engine.clock)
        return progressed

    def run_until_drained(self) -> ServingResult:
        if self._telemetry is not None:
            # step() advances the telemetry clock each iteration
            return super().run_until_drained()
        self.engine.run_until_drained()
        return self.result()

    def result(self) -> ServingResult:
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

    @property
    def record_policy(self) -> RecordPolicy:
        """The engine's record-retention policy (outer layers gate their
        own per-request maps on it)."""
        return self.engine.config.record_policy

    def active_engines(self) -> List[ServingEngine]:
        """The engines that accept new work: this gateway's one engine."""
        return [self.engine]

    def reset(self) -> None:
        self.engine.reset()
        super().reset()
        self._listen()

    # ------------------------------------------------------------------ #
    # handle plumbing
    # ------------------------------------------------------------------ #
    def _status_of(self, request_id: int) -> HandleStatus:
        req = self.engine.lookup(request_id)
        if req is None:
            return HandleStatus.QUEUED
        return _engine_status(req, self.engine.clock)

    def _token_hook(self, request: ServingRequest, clock: float) -> None:
        self._fan_out_token(request.request_id, request.model_id,
                            request.generated_tokens, clock)

    def _finish_hook(self, request: ServingRequest, clock: float) -> None:
        self._deliver(request.record())


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
