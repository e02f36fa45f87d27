"""Request/response RPC over the simulated network.

Every grid service in this reproduction (NTCP servers, the repository, NSDS,
CHEF, telepresence) is exposed through :class:`RpcService` and called through
:class:`RpcClient`.  The layer provides:

* request/response correlation by request id;
* per-call timeout with bounded retransmission (at-least-once) — exactness
  (at-most-once) is the job of the layer above, as in NTCP's design;
* remote exception propagation (:class:`RemoteException` wraps the server
  side error without smuggling live exception objects across "the wire");
* an optional security hook: services may install a ``checker`` that
  authenticates/authorizes each request's credential before dispatch.

Client calls are written in the process style::

    result = yield from client.call("uiuc", "ntcp", "propose", {...})
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, NamedTuple

from repro.net.network import Message, Network
from repro.sim import Task
from repro.sim.events import PENDING
from repro.telemetry.spans import Span
from repro.util.errors import ConfigurationError, ReproError, SecurityError
from repro.util.ids import IdFactory


class RpcError(ReproError):
    """Base class for RPC-layer failures."""


class RpcTimeout(RpcError):
    """No response arrived within the timeout across all retries."""


class RemoteException(RpcError):
    """The remote handler raised; carries the remote type name and message."""

    def __init__(self, remote_type: str, message: str, data: Any = None):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message
        self.data = data


class RpcRequest(NamedTuple):
    """A call on the wire; like :class:`~repro.net.network.Message` (and
    :class:`RpcResponse`), a ``NamedTuple`` because every call and every
    reply builds one."""

    request_id: str
    method: str
    params: dict[str, Any]
    reply_port: str
    credential: Any = None
    #: trace context of the calling span, a plain dict so nothing live
    #: crosses the wire (:meth:`~repro.telemetry.Span.to_wire`):
    #: ``trace_id``, ``span_id`` (``span-N``), ``number`` (that ``N``, so
    #: the server parses no id) and ``covered`` — true when the caller's
    #: own span covers the hop, so the server opens no ``net.rpc.server``
    #: span and parents its handler's spans straight under the caller's.
    #: One that is not that shape, or whose ``number`` is not its
    #: ``span_id``'s, is ignored: the hop is served under a new trace.
    trace: dict[str, Any] | None = None


class RpcResponse(NamedTuple):
    request_id: str
    ok: bool
    value: Any = None
    error_type: str = ""
    error_message: str = ""
    error_data: Any = None


@dataclass(frozen=True)
class RpcStats:
    """What :attr:`RpcClient.stats` reads off the client's ``net.rpc.*``
    hub series (retry/latency accounting for reports and benchmarks);
    ``latencies`` come in no promised order."""

    calls: int
    retries: int
    timeouts: int
    remote_errors: int
    latencies: list[float]


_TIMED_OUT = object()
"""What an attempt's reply event yields when its timer got there first."""


def _wire_parent(trace: Any) -> dict[str, Any] | None:
    """``RpcRequest.trace`` if it is a well-formed context, else None.

    An invalid context is no context (as W3C Trace Context treats an
    invalid ``traceparent``): the hop is still served, under a new trace.
    """
    number = trace.get("number") if isinstance(trace, dict) else None
    return trace if (type(number) is int and 0 < number < 2 ** 63
                     and trace.get("span_id") == f"span-{number}"
                     and isinstance(trace.get("trace_id"), str)
                     and type(trace.get("covered")) is bool) else None


def _check_policy(timeout: Any, retries: Any) -> None:
    """Refuse a timeout that is not a number > 0 (NaN included) and a
    retry count that is not an int >= 0."""
    if (isinstance(timeout, bool) or not isinstance(timeout, (int, float))
            or not timeout > 0):
        raise ConfigurationError(
            f"RPC timeout must be a number > 0, got {timeout!r}")
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise ConfigurationError(
            f"RPC retries must be an int >= 0, got {retries!r}")


class RpcService:
    """Server side: binds a port and dispatches methods to handlers.

    A handler is ``fn(caller, **params)``.  It may return a plain value or a
    generator — a generator is run as a :class:`~repro.sim.Task` whose end
    sends the reply, so a handler can take simulation time (e.g. a
    servo-hydraulic actuator settling).
    """

    def __init__(self, network: Network, host: str, port: str, *,
                 name: str | None = None,
                 checker: Callable[[Any, str], Any] | None = None):
        self.network = network
        self.kernel = network.kernel
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        self.checker = checker
        self._methods: dict[str, Callable[..., Any]] = {}
        self.telemetry = network.kernel.telemetry
        network.host(host).bind(port, self._on_message)

    def register(self, method: str, fn: Callable[..., Any]) -> None:
        """Expose ``fn`` as ``method``; replaces any previous registration."""
        self._methods[method] = fn

    def _on_message(self, msg: Message) -> None:
        req = msg.payload
        if not isinstance(req, RpcRequest):
            self.kernel.emit(self.name, "rpc.bad_message", msg_id=msg.msg_id)
            return
        tracer = self.telemetry.tracer
        parent = _wire_parent(req.trace)
        # A hop the caller's span covers opens no span here either.
        span = None if parent and parent["covered"] else tracer.start_span(
            "net.rpc.server", parent=parent, method=req.method, service=self.name)

        def reply(response: RpcResponse) -> None:
            if span is not None:
                span.end(ok=response.ok)
            self._reply(msg, response)

        caller = req.credential
        if self.checker is not None:
            try:
                caller = self.checker(req.credential, req.method)
            except SecurityError as exc:
                reply(RpcResponse(
                    request_id=req.request_id, ok=False,
                    error_type="SecurityError", error_message=str(exc)))
                return
        fn = self._methods.get(req.method)
        if fn is None:
            reply(RpcResponse(
                request_id=req.request_id, ok=False,
                error_type="NoSuchMethod",
                error_message=f"{req.method!r} on {self.name}"))
            return
        try:
            # Ambient trace context: synchronous handler code (and the
            # synchronous prefix of generator handlers) parents its spans
            # under this hop's server span, or the caller's covering span.
            previous = tracer.activate(span or parent)
            try:
                result = fn(caller, **req.params)
            finally:
                tracer.activate(previous)
        except Exception as exc:
            # Expected protocol-level failures (policy rejections, state
            # errors, ...) travel to the caller as wire errors.  A handler
            # bug does too — the caller must not hang — but it is logged
            # loudly first.
            if not isinstance(exc, ReproError):
                self.kernel.emit(self.name, "rpc.handler_error",
                                 method=req.method, request_id=req.request_id,
                                 error=f"{type(exc).__name__}: {exc}")
            reply(self._error_response(req, exc))
            return
        if hasattr(result, "send") and hasattr(result, "throw"):
            # Handler is a generator: reply when it finishes.
            def finish(task: Task, req=req) -> None:
                if task._ok:
                    reply(RpcResponse(
                        request_id=req.request_id, ok=True, value=task._value))
                else:
                    reply(self._error_response(req, task._value))

            Task(self.kernel, result, finish)
        else:
            reply(RpcResponse(
                request_id=req.request_id, ok=True, value=result))

    def _error_response(self, req: RpcRequest, exc: BaseException) -> RpcResponse:
        data = getattr(exc, "__dict__", None)
        return RpcResponse(request_id=req.request_id, ok=False,
                           error_type=type(exc).__name__,
                           error_message=str(exc), error_data=data)

    def _reply(self, msg: Message, response: RpcResponse) -> None:
        self.network.send(self.host, msg.src, msg.payload.reply_port, response)


class RpcClient:
    """Client side: issues calls from a host, with timeout and retries.

    ``labels`` adds extra telemetry labels (e.g. ``tenant=...``/``run=...``)
    to this client's ``net.rpc.*`` series: two clients on the same host —
    normal when concurrent experiments multiplex one kernel — would
    otherwise increment one shared set of counters.
    """

    def __init__(self, network: Network, host: str, *,
                 default_timeout: float = 5.0, default_retries: int = 0,
                 labels: dict[str, str] | None = None):
        self.network = network
        self.kernel = network.kernel
        self.host = host
        _check_policy(default_timeout, default_retries)
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        self.reply_port = network.new_port("rpc-reply")
        self._request_ids = IdFactory(f"{host}.req")
        self._pending: dict[str, Any] = {}
        self.telemetry = network.kernel.telemetry
        extra = dict(labels or {})
        self._tm = {key: self.telemetry.counter(f"net.rpc.{key}", host=host,
                                                **extra)
                    for key in ("calls", "retries", "timeouts",
                                "remote_errors")}
        self._latency = self.telemetry.histogram("net.rpc.latency", host=host,
                                                 **extra)
        network.host(host).bind(self.reply_port, self._on_reply)

    @property
    def stats(self) -> RpcStats:
        """This client's ``net.rpc.*`` series as they stand (clients
        sharing a host and label set share the series)."""
        return RpcStats(**{key: counter.value
                           for key, counter in self._tm.items()},
                        latencies=self._latency.values)

    def _on_reply(self, msg: Message) -> None:
        resp = msg.payload
        if not isinstance(resp, RpcResponse):
            return
        evt = self._pending.pop(resp.request_id, None)
        if evt is None:
            # Late or duplicate response after a retry already won: ignore.
            self.kernel.emit(f"rpc.client.{self.host}", "rpc.late_reply",
                             request_id=resp.request_id)
            return
        if evt._value is PENDING:  # else the timer won this very instant
            evt.succeed(resp)

    def call(self, dst: str, port: str, method: str,
             params: dict[str, Any] | None = None, *,
             credential: Any = None, timeout: float | None = None,
             retries: int | None = None,
             ctx: Any = None) -> Generator[Any, Any, Any]:
        """Invoke ``method`` on ``dst:port``; use as ``yield from client.call(...)``.

        Each retransmission reuses the same request id, so an idempotent (or
        deduplicating) server observes a single logical request.  Raises
        :class:`RpcTimeout` after the final attempt, or
        :class:`RemoteException` if the handler raised.  A ``timeout`` that
        is not a number > 0 or ``retries`` that is not an int >= 0 is a
        :class:`ConfigurationError` before anything is counted, sent or
        traced.

        ``ctx`` (a span or trace context) parents the call's client span,
        and the span's own context rides to the server in
        :attr:`RpcRequest.trace` — one trace covers both sides of the hop.
        A live :class:`~repro.telemetry.Span` passed as ``ctx`` covers the
        hop itself: no ``net.rpc.*`` span opens on either side, and the
        call records its ``attempts`` on that span (its caller records
        the outcome).
        """
        params = params or {}
        if timeout is None and retries is None:  # checked at construction
            timeout, retries = self.default_timeout, self.default_retries
        else:
            timeout = self.default_timeout if timeout is None else timeout
            retries = self.default_retries if retries is None else retries
            _check_policy(timeout, retries)
        covering = isinstance(ctx, Span) and ctx.end_time is None
        span = ctx if covering else self.telemetry.tracer.start_span(
            "net.rpc.call", method=method, dst=dst, port=port,
            **({} if ctx is None else {"parent": ctx}))
        req = RpcRequest(request_id=self._request_ids(), method=method,
                         params=params, reply_port=self.reply_port,
                         credential=credential, trace=span.to_wire(covering))
        self._tm["calls"].inc()
        started = self.kernel.now
        for attempt in range(retries + 1):  # attempts 0..retries inclusive
            evt = self.kernel.event()
            self._pending[req.request_id] = evt
            self.network.send(self.host, dst, port, req)
            if attempt > 0:
                self._tm["retries"].inc()
                self.kernel.emit(f"rpc.client.{self.host}", "rpc.retry",
                                 request_id=req.request_id, attempt=attempt,
                                 method=method, dst=dst)
            # The attempt waits on its reply alone; the timer is a kernel
            # deadline that wakes it if it is still pending then, and never
            # reaches the heap once the reply has won.  Its seq is reserved
            # here, so (time, seq) order settles a tie: a timer armed before
            # the reply was sent runs before the reply's arrival in their
            # common instant, so the timer wins and that reply is dropped
            # in _on_reply.
            self.kernel.deadline(timeout, evt, _TIMED_OUT)
            resp = yield evt
            if resp is not _TIMED_OUT:
                break
            # timed out: abandon this wait and (maybe) retransmit
            self._pending.pop(req.request_id, None)
        if resp is _TIMED_OUT:
            self._tm["timeouts"].inc()
            error = {"error": "timeout"}
        else:
            self._latency.observe(self.kernel.now - started)
            error = {} if resp.ok else {"error": resp.error_type}
            if error:
                self._tm["remote_errors"].inc()
        if covering:  # the caller's span: its owner records the outcome
            span.attrs["attempts"] = attempt + 1
        else:
            span.end(ok=not error, attempts=attempt + 1, **error)
        if not error:
            return resp.value
        if resp is _TIMED_OUT:
            raise RpcTimeout(f"{method} on {dst}:{port} after {retries + 1} attempt(s)")
        raise RemoteException(resp.error_type, resp.error_message, resp.error_data)
