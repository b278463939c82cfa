"""Asyncio HTTP/1.1 front end over :class:`CompressionService`.

Pure stdlib (``asyncio`` streams -- no new hard deps): a single event
loop accepts connections, parses minimal HTTP/1.1, and bridges each
request onto the service's :class:`~repro.serve.pool.PoolFuture` without
blocking the loop.  The protocol is deliberately small:

* ``POST /v1/compress``   -- body: raw array bytes; headers ``X-Dtype``
  and ``X-Shape`` describe the array, query ``?rel=`` / ``?abs=`` the
  error bound (none for a fixed-rate codec).  Response body: the
  compressed stream.
* ``POST /v1/decompress`` -- body: a compressed stream.  Response body:
  raw array bytes, with ``X-Dtype`` / ``X-Shape`` echoing the layout.
* ``GET /v1/stats``       -- JSON snapshot of the service's
  :class:`~repro.serve.stats.MetricsRegistry` (plus cache counters).
* ``GET /healthz``        -- liveness probe.

Overload handling is layered exactly like the in-process path:

* **admission control** -- more than ``max_inflight`` requests already
  in flight -> ``503`` + ``Retry-After`` before any work is queued;
* **per-tenant quotas** -- the ``X-Tenant`` header maps to a token
  bucket (``tenant_rate``/s, burst ``tenant_burst``); an empty bucket
  -> ``429`` + ``Retry-After``;
* **SLO shedding** -- ``X-Deadline-Ms`` arms the same
  :class:`~repro.serve.deadline.Deadline` machinery the service uses
  internally; a request that misses it (shed while queued, reclaimed
  mid-run, or expired on arrival) -> ``503`` + ``Retry-After``;
* **error taxonomy** -- every error response is JSON
  ``{"error": <classify_error label>, "detail": ...}``, so clients see
  the same closed taxonomy the chaos harness asserts in-process
  (malformed requests are ``400 {"error": "client"}``).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.errors import StreamFormatError
from .deadline import DeadlineExceeded, WorkerTimeout
from .pool import PoolFuture
from .resilience import classify_error
from .scheduler import QueueFull

__all__ = ["HttpConfig", "HttpFrontend", "TokenBucket", "parse_hostport"]

_MAX_HEADER_BYTES = 32 << 10

#: ``Retry-After`` hint, in seconds, on a 503 (backpressure, deadline).
RETRY_AFTER_S = 1.0


class _HttpError(Exception):
    """Internal: carries a ready-to-send error response."""

    def __init__(self, status: int, code: str, detail: str,
                 retry_after: Optional[float] = None):
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


@dataclass(frozen=True)
class HttpConfig:
    """Front-end knobs (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 64  # admission cap across all connections
    max_body_bytes: int = 256 << 20
    tenant_rate: float = 50.0  # tokens/s refill per tenant
    tenant_burst: float = 20.0  # bucket capacity
    default_deadline_ms: Optional[float] = None  # applied when no header


class TokenBucket:
    """Classic token bucket; thread-safe, injectable clock for tests."""

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._t = clock()
        self._lock = threading.Lock()

    def try_acquire(self, n: float = 1.0) -> bool:
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst, self._tokens + (now - self._t) * self.rate)
            self._t = now
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def retry_after(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available (>= 0)."""
        with self._lock:
            deficit = n - self._tokens
        return max(0.0, deficit / self.rate) if self.rate > 0 else 60.0


def parse_hostport(spec: str, default_host: str = "127.0.0.1",
                   default_port: int = 8080) -> Tuple[str, int]:
    """Parse ``host:port``, ``:port``, or ``port`` CLI specs."""
    spec = spec.strip()
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        return host or default_host, int(port) if port else default_port
    if spec.isdigit():
        return default_host, int(spec)
    return spec or default_host, default_port


async def _await_pool_future(fut: PoolFuture):
    """Bridge a thread-side :class:`PoolFuture` into the event loop."""
    loop = asyncio.get_running_loop()
    afut = loop.create_future()

    def _resolve(f: PoolFuture, _afut=afut, _loop=loop):
        exc = f.exception()

        def _apply():
            if _afut.done():  # connection already torn down
                return
            if exc is not None:
                _afut.set_exception(exc)
            else:
                _afut.set_result(f.result())

        _loop.call_soon_threadsafe(_apply)

    fut.add_done_callback(_resolve)
    return await afut


class HttpFrontend:
    """Serve a :class:`~repro.serve.service.CompressionService` over HTTP.

    Tests drive it with :meth:`start` / :meth:`stop` inside their own
    event loop (bind ``port=0`` for an ephemeral port, then read
    :attr:`port`); the CLI uses the blocking :meth:`run`.
    """

    def __init__(self, service, cfg: Optional[HttpConfig] = None):
        self.service = service
        self.cfg = cfg if cfg is not None else HttpConfig()
        self.stats = service.stats
        self._server: Optional[asyncio.AbstractServer] = None
        self._inflight = 0
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The actually-bound port (useful after binding port 0)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "HttpFrontend":
        self._server = await asyncio.start_server(
            self._handle_conn, self.cfg.host, self.cfg.port
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def run(self) -> None:  # pragma: no cover - interactive entry point
        """Blocking serve-forever loop (the ``repro serve`` command)."""

        async def _main():
            await self.start()
            assert self._server is not None
            async with self._server:
                await self._server.serve_forever()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # -- request plumbing ---------------------------------------------------

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._buckets_lock:
            b = self._buckets.get(tenant)
            if b is None:
                b = self._buckets[tenant] = TokenBucket(
                    self.cfg.tenant_rate, self.cfg.tenant_burst
                )
            return b

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except _HttpError as e:
                    # parse errors poison the stream: answer, then close
                    status, out_headers, payload = self._error_response(e)
                    await self._write_response(
                        writer, status, out_headers, payload, keep_alive=False
                    )
                    return
                if req is None:
                    return
                method, path, headers, body = req
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, out_headers, payload = await self._route(
                        method, path, headers, body
                    )
                except _HttpError as e:
                    status, out_headers, payload = self._error_response(e)
                except asyncio.CancelledError:
                    raise
                except BaseException as e:  # noqa: BLE001 - taxonomy boundary
                    status, out_headers, payload = self._error_response(
                        self._classify_exception(e)
                    )
                await self._write_response(
                    writer, status, out_headers, payload, keep_alive
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            line = await reader.readline()
        except (ConnectionError, ValueError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "client", f"malformed request line {line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        hdr_bytes = 0
        while True:
            line = await reader.readline()
            hdr_bytes += len(line)
            if hdr_bytes > _MAX_HEADER_BYTES:
                raise _HttpError(400, "client", "header section too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            nbody = int(length)
        except ValueError:
            raise _HttpError(400, "client", f"bad Content-Length {length!r}") from None
        if nbody < 0 or nbody > self.cfg.max_body_bytes:
            raise _HttpError(
                413 if nbody > 0 else 400, "client",
                f"body of {nbody} bytes exceeds limit {self.cfg.max_body_bytes}",
            )
        body = await reader.readexactly(nbody) if nbody else b""
        return method, path, headers, body

    async def _write_response(self, writer, status, headers, payload,
                              keep_alive) -> None:
        reason = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        headers = dict(headers)
        headers.setdefault("content-length", str(len(payload)))
        headers.setdefault("connection", "keep-alive" if keep_alive else "close")
        head += [f"{k}: {v}" for k, v in headers.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    # -- error taxonomy -----------------------------------------------------

    def _classify_exception(self, exc: BaseException) -> _HttpError:
        label = classify_error(exc)
        if isinstance(exc, (DeadlineExceeded, WorkerTimeout)):
            return _HttpError(503, label, str(exc), RETRY_AFTER_S)
        if isinstance(exc, QueueFull):
            return _HttpError(503, "backpressure", str(exc), RETRY_AFTER_S)
        if isinstance(exc, StreamFormatError):
            # the stream came in the request body: the client's fault
            return _HttpError(400, "client", str(exc))
        if label == "client":
            return _HttpError(400, "client", str(exc))
        return _HttpError(500, label, str(exc))

    def _error_response(self, e: _HttpError):
        self.stats.counter(f"http.errors.{e.code}").inc()
        self.stats.counter(f"http.status.{e.status}").inc()
        headers = {"content-type": "application/json"}
        if e.retry_after is not None:
            headers["retry-after"] = f"{max(e.retry_after, 0.001):.3f}"
        body = json.dumps({"error": e.code, "detail": e.detail}).encode()
        return e.status, headers, body

    # -- routing ------------------------------------------------------------

    async def _route(self, method: str, path: str, headers, body: bytes):
        path, _, query = path.partition("?")
        self.stats.counter("http.requests").inc()
        if path == "/healthz":
            return 200, {"content-type": "text/plain"}, b"ok\n"
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, "client", f"{method} not allowed on {path}")
            snap = self.service.stats_snapshot()
            return (200, {"content-type": "application/json"},
                    json.dumps(snap, default=str).encode())
        if path not in ("/v1/compress", "/v1/decompress"):
            raise _HttpError(404, "client", f"no route {path}")
        if method != "POST":
            raise _HttpError(405, "client", f"{method} not allowed on {path}")

        # admission control: reject before any work is queued
        if self._inflight >= self.cfg.max_inflight:
            self.stats.counter("http.admission_rejects").inc()
            raise _HttpError(
                503, "backpressure",
                f"{self._inflight} requests in flight (cap {self.cfg.max_inflight})",
                RETRY_AFTER_S,
            )
        # per-tenant quota
        tenant = headers.get("x-tenant", "default")
        bucket = self._bucket(tenant)
        if not bucket.try_acquire():
            self.stats.counter("http.quota_rejects").inc()
            raise _HttpError(
                429, "quota", f"tenant {tenant!r} out of quota",
                bucket.retry_after(),
            )
        # SLO: an already-expired deadline is shed immediately
        timeout_s = self._deadline_s(headers)
        if timeout_s is not None and timeout_s <= 0:
            self.stats.counter("http.deadline_sheds").inc()
            raise _HttpError(
                503, "deadline", "deadline expired before processing",
                RETRY_AFTER_S,
            )

        self._inflight += 1
        self.stats.gauge("http.inflight").set(self._inflight)
        try:
            if path == "/v1/compress":
                resp = await self._compress(headers, query, body, timeout_s)
            else:
                resp = await self._decompress(headers, body, timeout_s)
            self.stats.counter("http.status.200").inc()
            return resp
        finally:
            self._inflight -= 1
            self.stats.gauge("http.inflight").set(self._inflight)

    def _deadline_s(self, headers) -> Optional[float]:
        raw = headers.get("x-deadline-ms")
        if raw is None:
            ms = self.cfg.default_deadline_ms
            return ms / 1000.0 if ms is not None else None
        try:
            return float(raw) / 1000.0
        except ValueError:
            raise _HttpError(400, "client", f"bad X-Deadline-Ms {raw!r}") from None

    # -- endpoints ----------------------------------------------------------

    def _parse_array(self, headers, body: bytes) -> np.ndarray:
        dtype = headers.get("x-dtype", "float32")
        shape_hdr = headers.get("x-shape")
        try:
            dt = np.dtype(dtype)
        except TypeError:
            raise _HttpError(400, "client", f"bad X-Dtype {dtype!r}") from None
        if shape_hdr:
            try:
                shape = tuple(int(s) for s in shape_hdr.split(",") if s.strip())
            except ValueError:
                raise _HttpError(
                    400, "client", f"bad X-Shape {shape_hdr!r}"
                ) from None
        else:
            if len(body) % dt.itemsize:
                raise _HttpError(
                    400, "client",
                    f"body of {len(body)} bytes is not a whole number of "
                    f"{dt.name} elements",
                )
            shape = (len(body) // dt.itemsize,)
        try:
            return np.frombuffer(body, dtype=dt).reshape(shape)
        except ValueError as e:
            raise _HttpError(400, "client", str(e)) from None

    @staticmethod
    def _parse_bound(query: str):
        params = {}
        for pair in query.split("&"):
            if not pair:
                continue
            k, _, v = pair.partition("=")
            params[k] = v
        rel = params.get("rel")
        ab = params.get("abs")
        # which bounds a codec takes is the service's call (exactly one
        # for a bounded plugin, none for a fixed-rate one); its
        # InvalidInputError is answered as a classified 400
        try:
            return (float(rel) if rel is not None else None,
                    float(ab) if ab is not None else None,
                    params.get("mode"))
        except ValueError:
            raise _HttpError(
                400, "client", f"bad error bound in query {query!r}"
            ) from None

    async def _compress(self, headers, query: str, body: bytes,
                        timeout_s: Optional[float]):
        rel, ab, mode = self._parse_bound(query)
        data = self._parse_array(headers, body)
        fut = self.service.compress(
            data, rel=rel, abs=ab, mode=mode, timeout_s=timeout_s
        )
        stream = await _await_pool_future(fut)
        payload = np.asarray(stream, dtype=np.uint8).tobytes()
        return 200, {
            "content-type": "application/octet-stream",
            "x-uncompressed-bytes": str(data.nbytes),
        }, payload

    async def _decompress(self, headers, body: bytes,
                          timeout_s: Optional[float]):
        if not body:
            raise _HttpError(400, "client", "empty body")
        fut = self.service.decompress(body, timeout_s=timeout_s)
        arr = await _await_pool_future(fut)
        return 200, {
            "content-type": "application/octet-stream",
            "x-dtype": str(arr.dtype),
            "x-shape": ",".join(str(s) for s in arr.shape),
        }, np.ascontiguousarray(arr).tobytes()
