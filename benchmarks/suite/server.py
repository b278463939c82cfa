"""The http-small workload's server: ``HttpFrontend`` over a
``CompressionService`` built like ``repro serve``'s defaults (process
backend, shm transport, 2 workers), with tenant quotas lifted so policy
does not throttle the load generator and a 4 MiB decode cache.

Protocol with the load generator (one JSON object per stdout line):

* on start, binds an ephemeral port on 127.0.0.1 and prints ``{"port": N}``;
* stdin ``trace`` installs a ``repro.obs.Tracer`` (ambient and on the
  service) and restarts the latency and counter baselines; answers
  ``{"tracing": true}``;
* stdin ``stop`` (or end of input) shuts down and prints the summary:
  counter increments since the last baseline, the summed service-future
  latency, the layer breakdown when tracing, and peak RSS of the server
  and its pool workers.

Run by ``workload.py``; not meant to be started by hand.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.serve.http import HttpConfig, HttpFrontend  # noqa: E402
from repro.serve.service import CompressionService, ServiceConfig  # noqa: E402

from layers import Breakdown, counters_of, delta  # noqa: E402

#: The decode cache holds 16 decoded requests, so it is full after the
#: first few seconds of a run and the server's memory stops growing.  At
#: the default 256 MiB it would fill for the whole run, and peak RSS would
#: track how many requests the run got through.
CACHE_BYTES = 4 << 20


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class TimedService:
    """Hands the front end a service whose futures are timed from submit
    to resolution, so the client can split its round trip into front-end
    time and service time."""

    def __init__(self, svc: CompressionService):
        self.svc = svc
        self.stats = svc.stats
        self._lock = threading.Lock()
        self.latency_s = 0.0

    def stats_snapshot(self) -> dict:
        return self.svc.stats_snapshot()

    def compress(self, *args, **kwargs):
        t0 = time.perf_counter()
        return self._timed(self.svc.compress(*args, **kwargs), t0)

    def decompress(self, *args, **kwargs):
        t0 = time.perf_counter()
        return self._timed(self.svc.decompress(*args, **kwargs), t0)

    def _timed(self, fut, t0: float):
        fut.add_done_callback(lambda f: self._record(time.perf_counter() - t0))
        return fut

    def _record(self, dt: float) -> None:
        with self._lock:
            self.latency_s += dt

    def reset(self) -> None:
        with self._lock:
            self.latency_s = 0.0


def _max_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


async def serve(svc: CompressionService, timed: TimedService) -> dict:
    frontend = HttpFrontend(
        timed, HttpConfig(host="127.0.0.1", port=0, tenant_rate=1e9, tenant_burst=1e9)
    )
    await frontend.start()
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin():
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    threading.Thread(target=read_stdin, name="bench-stdin", daemon=True).start()
    emit({"port": frontend.port})
    tracer = None
    baseline = counters_of(svc.stats_snapshot())
    while True:
        cmd = await commands.get()
        if cmd == "trace":
            tracer = obs.Tracer()
            obs.activate(tracer)
            svc.tracer = tracer
            timed.reset()
            baseline = counters_of(svc.stats_snapshot())
            emit({"tracing": True})
        elif cmd == "stop":
            break
    # the client closed its connections before "stop"; let their handlers
    # see the end of input and finish, so shutdown cancels none of them
    await asyncio.sleep(0.1)
    await frontend.stop()
    counters = delta(baseline, counters_of(svc.stats_snapshot()))
    breakdown = None
    if tracer is not None:
        obs.deactivate()
        roots = [r for r in tracer.roots() if r.name.startswith("service.")]
        breakdown = Breakdown().add(roots).to_dict()
    return {"counters": counters, "service_latency_s": timed.latency_s,
            "breakdown": breakdown}


def main() -> int:
    svc = CompressionService(ServiceConfig(workers=2, backend="process", transport="shm",
                                           cache_bytes=CACHE_BYTES))
    timed = TimedService(svc)
    try:
        summary = asyncio.run(serve(svc, timed))
    finally:
        svc.close()
    summary["peak_rss_MiB"] = max(_max_rss_mib(resource.RUSAGE_SELF),
                                  _max_rss_mib(resource.RUSAGE_CHILDREN))
    emit(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
