"""One run of one workload, in a process of its own.

    python workload.py --workload NAME --seed N --seconds S [--trace 1]
                       [--scale F] [--setup-only]

Prints ``ready`` once the system under test is built and has answered one
warm-up request (``run.py`` times set-up from launching this process to
that line), then measures for ``--seconds`` and prints one JSON result
line.  With ``--trace 1`` the first half of the time runs untraced and the
second half under a ``repro.obs.Tracer``; the result then holds the
per-layer metrics and the tracing overhead between the halves.

Inputs come from ``--seed`` only: iteration ``i`` of a workload always
gets the same input for the same seed, and every iteration's input is
distinct.  A workload's inputs come in cycles (one pass over its input
mix), and a run measures whole cycles.  Every operation's output is
checked; a failed check is counted, never raised, so one run reports all
of its failures.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.backends import resolve_backend  # noqa: E402

import spec  # noqa: E402
from layers import Breakdown, counters_of, delta, per_layer  # noqa: E402

MIB = float(1 << 20)
FIELD_BYTES = 1 << 20
# serve-bulk's fan-out threshold.  The chunk planner rounds chunks up to
# whole 131072-element block groups, so a 1 MiB float32 field splits into
# 2 chunks and the 1 MiB float64 field goes through the chunked path as 1.
CHUNK_BYTES = 256 << 10
REQUEST_ELEMS = 64 << 10  # 256 KiB of float32 per HTTP request
REQUEST_SOURCES = 8  # distinct slices of the field the requests scale
MAX_ERRORS = 5  # failure messages kept in a result


def factor(seed: int, *ids: int) -> float:
    """The seeded scale applied to iteration ``ids``'s input."""
    return float(np.random.default_rng([seed % 2**32, *ids]).uniform(0.5, 2.0))


def eb_of(x: np.ndarray) -> float:
    return repro.ErrorBound.relative(spec.REL).resolve(x)


def decodes_to(original: np.ndarray, out, eb: float) -> bool:
    """The output check every decode passes: dtype, shape and error bound."""
    # imported on first use: repro.metrics pulls in scipy, a cost of the
    # benchmark's checking that set-up time must not include
    from repro.metrics import check_error_bound

    return (isinstance(out, np.ndarray) and out.dtype == original.dtype
            and out.shape == original.shape and check_error_bound(original, out, eb))


def make_field(dataset: str, field: str, size: int) -> np.ndarray:
    """A registry field at its reproduction-scale shape, flattened and cut
    or repeated to ``size`` bytes."""
    from repro.datasets.registry import get_dataset

    ds = get_dataset(dataset)
    n = max(1024, size // ds.dtype.itemsize)
    return np.resize(ds.field(field).generate(ds.dtype).reshape(-1), n)


def cycles(seconds: float, n: int):
    """Count iterations in whole cycles of ``n`` until ``seconds`` pass
    (at least one cycle).  The caller numbers its iterations on from one
    phase to the next, so iteration ``i`` is in cycle ``i // n``."""
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        yield i
        i += 1
        if i % n == 0 and time.perf_counter() >= t_end:
            return


def timed(tracer, name: str, fn, *args):
    """``(fn(*args), seconds)``, inside a root span when tracing."""
    with tracer.span(name) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if len(samples) else 0.0


class Phase:
    """The operations of one measured phase, in the order they completed.
    Every iteration does one write and one read; ``period`` iterations make
    an input cycle."""

    def __init__(self, period: int):
        self.period = period
        self.records: list = []  # (kind, uncompressed bytes, seconds, iteration)
        self.raw = 0
        self.compressed = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def ok(self, kind: str, size: int, seconds: float, i: int) -> None:
        self.attempted += 1
        self.records.append((kind, size, seconds, i))

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)

    def check(self, ok: bool, kind: str, size: int, seconds: float, i: int,
              what: str) -> None:
        if ok:
            self.ok(kind, size, seconds, i)
        else:
            self.fail(what)

    def compressed_from(self, raw: int, compressed: int) -> None:
        self.raw += raw
        self.compressed += compressed

    @property
    def ops(self) -> int:
        return len(self.records)

    @property
    def op_s(self) -> float:
        return sum(r[2] for r in self.records)

    def latencies(self, kind: str) -> np.ndarray:
        return np.array([s for k, _, s, _ in self.records if k == kind])

    def cycle_rates(self, kind: str) -> list:
        """MiB/s of ``kind`` operations in each complete input cycle: the
        cycle's uncompressed bytes over the summed time of those operations."""
        cycles: dict = {}
        for k, size, seconds, i in self.records:
            if k == kind:
                n, b, s = cycles.get(i // self.period, (0, 0, 0.0))
                cycles[i // self.period] = (n + 1, b + size, s + seconds)
        return [b / MIB / s for n, b, s in cycles.values() if n == self.period and s > 0]

    def end_to_end(self) -> dict:
        """The end-to-end metrics.  Throughput is the fastest complete input
        cycle's: the host's CPU speed drifts by a quarter or more over
        minutes, which moves a run's mean or median with it, while short
        quiet stretches in which a cycle runs at full speed recur in every
        run (README.md, "Noise")."""
        return {
            "write_MiBps": max(self.cycle_rates("write"), default=0.0),
            "read_MiBps": max(self.cycle_rates("read"), default=0.0),
            "ratio": self.raw / self.compressed if self.compressed else 0.0,
        }

    def latency(self) -> dict:
        """Per operation kind, over all of the phase's operations: median and
        tail latency, the samples behind them, and the complete cycles.
        Reported with every run, but not end-to-end metrics: they move with
        the host's drift."""
        out = {}
        for k in ("write", "read"):
            lat = self.latencies(k)
            tail = np.percentile(lat, spec.TAIL) if lat.size else 0.0
            out[k] = {"n": int(lat.size), "p50_ms": percentile_ms(lat, 50),
                      f"p{spec.TAIL}_ms": float(tail) * 1e3,
                      f"beyond_p{spec.TAIL}": int((lat > tail).sum()),
                      "cycles": len(self.cycle_rates(k))}
        return out


def _failure(what: str, exc: BaseException) -> str:
    return f"{what}: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class CodecBulk:
    """``repro.compress`` / ``repro.decompress`` on four 1 MiB fields in a
    closed loop from one thread."""

    FIELDS = (("Miranda", "density"), ("NYX", "temperature"),
              ("CESM-ATM", "CLDHGH"), ("S3D", "YCO2"))
    PERIOD = len(FIELDS)  # iterations per input cycle

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.i = 0  # iteration counter; continues across phases

    def setup(self) -> None:
        warm = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
        self.warm = (warm, self.read(self.write(warm)), eb_of(warm))

    def check_warmup(self) -> None:
        """Check the warm-up answer (after set-up has been timed)."""
        original, out, eb = self.warm
        if not decodes_to(original, out, eb):
            raise RuntimeError("warm-up answer failed its error-bound check")

    def prepare(self) -> None:
        size = int(FIELD_BYTES * self.scale)
        self.fields = [make_field(ds, f, size) for ds, f in self.FIELDS]

    def write(self, x):
        return repro.compress(x, rel=spec.REL)

    def read(self, blob):
        return repro.decompress(blob)

    def trace(self, tracer) -> None:
        obs.activate(tracer)

    def counters(self) -> dict:
        return {}

    def measure(self, seconds: float, phase: Phase, tracer) -> None:
        for _ in cycles(seconds, self.PERIOD):
            i, self.i = self.i, self.i + 1
            x = self.fields[i % self.PERIOD] * factor(self.seed, i)
            eb = eb_of(x)
            try:
                blob, dt = timed(tracer, "bench.write", self.write, x)
            except Exception as e:  # noqa: BLE001 - counted as a failed operation
                phase.fail(_failure(f"write {i}", e))
                continue
            phase.ok("write", x.nbytes, dt, i)
            phase.compressed_from(x.nbytes, blob.nbytes)
            try:
                out, dt = timed(tracer, "bench.read", self.read, blob)
            except Exception as e:  # noqa: BLE001 - counted as a failed operation
                phase.fail(_failure(f"read {i}", e))
                continue
            phase.check(decodes_to(x, out, eb), "read", x.nbytes, dt, i,
                        f"read {i}: decode outside the error bound or wrong dtype/shape")

    def per_layer(self, tracer, base: Phase, traced: Phase, counters: dict) -> dict:
        b = Breakdown().add(r for r in tracer.roots() if r.name.startswith("bench."))
        return per_layer(b, b.root_s, traced.ops, counters, overhead(base, traced))

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        obs.deactivate()


class ServeBulk(CodecBulk):
    """The codec-bulk inputs through ``CompressionService(workers=1,
    chunk_bytes=CHUNK_BYTES)``, otherwise ``ServiceConfig`` defaults."""

    def setup(self) -> None:
        from repro.serve.service import CompressionService

        self.svc = CompressionService(workers=1, chunk_bytes=int(CHUNK_BYTES * self.scale))
        super().setup()

    def write(self, x):
        return self.svc.compress(x, rel=spec.REL).result()

    def read(self, blob):
        return self.svc.decompress(blob).result()

    def trace(self, tracer) -> None:
        obs.activate(tracer)
        self.svc.tracer = tracer

    def counters(self) -> dict:
        return counters_of(self.svc.stats_snapshot())

    def close(self) -> None:
        if hasattr(self, "svc"):
            self.svc.close()
        super().close()


def overhead(base: Phase, traced: Phase) -> float:
    """Mean traced operation time over mean untraced operation time, - 1."""
    if not base.ops or not traced.ops or base.op_s <= 0:
        return 0.0
    return (traced.op_s / traced.ops) / (base.op_s / base.ops) - 1.0


class HttpSmall(CodecBulk):
    """One keep-alive connection in a closed loop of compress + decompress
    requests against the benchmark's server process.

    One connection, not two: with two, the server's two pool workers, its
    event loop and two client threads contend for the host's two cores,
    and the latencies measure that contention more than the front end."""

    PERIOD = REQUEST_SOURCES

    def setup(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")], cwd=str(ROOT),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = json.loads(self._server_line())["port"]
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.j = 0
        self.last = None  # (stream, decoded bytes) of the latest cache miss
        self.summary = None
        warm = np.linspace(0.0, 1.0, 4096, dtype=np.float32)
        status, blob, _ = self._post(f"/v1/compress?rel={spec.REL}", warm)
        status_d, body, headers = self._post("/v1/decompress", blob)
        if status != 200 or status_d != 200:
            raise RuntimeError(f"warm-up requests answered {status} and {status_d}")
        self.warm = (warm, self._array(body, headers), eb_of(warm))

    def _server_line(self) -> str:
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited (code {self.server.poll()})")
        return line

    def prepare(self) -> None:
        from repro.datasets.registry import get_dataset

        field = get_dataset("CESM-ATM").field("CLDHGH").generate(np.float32).reshape(-1)
        # shorter windows of this field can be all zero, and a zero window
        # times any factor is the same input every time
        n = max(4096, int(REQUEST_ELEMS * self.scale))
        step = (field.size - n) // (REQUEST_SOURCES - 1)
        self.sources = [field[k * step: k * step + n].copy()
                        for k in range(REQUEST_SOURCES)]

    def _post(self, path: str, payload):
        body = payload.tobytes() if isinstance(payload, np.ndarray) else payload
        self.conn.request("POST", path, body=body, headers={"X-Dtype": "float32"})
        resp = self.conn.getresponse()
        return resp.status, resp.read(), resp.headers

    @staticmethod
    def _array(body: bytes, headers) -> np.ndarray:
        shape = tuple(int(s) for s in headers["x-shape"].split(",") if s)
        return np.frombuffer(body, dtype=np.dtype(headers["x-dtype"])).reshape(shape)

    def trace(self, tracer) -> None:
        self.server.stdin.write("trace\n")
        self.server.stdin.flush()
        if not json.loads(self._server_line()).get("tracing"):
            raise RuntimeError("server did not switch tracing on")

    def _input(self, j: int) -> np.ndarray:
        return self.sources[j % REQUEST_SOURCES] * factor(self.seed, j)

    def measure(self, seconds: float, phase: Phase, tracer) -> None:
        for _ in cycles(seconds, self.PERIOD):
            j, self.j = self.j, self.j + 1
            try:
                self._iteration(j, phase)
            except Exception as e:  # noqa: BLE001 - counted as a failed operation
                phase.fail(_failure(f"iteration {j}", e))

    def _iteration(self, j: int, phase: Phase) -> None:
        x = self._input(j)
        eb = eb_of(x)
        t0 = time.perf_counter()
        status, blob, _ = self._post(f"/v1/compress?rel={spec.REL}", x)
        dt = time.perf_counter() - t0
        if status != 200:
            phase.fail(f"compress {j}: status {status}")
            return
        phase.check(decodes_to(x, repro.decompress(np.frombuffer(blob, np.uint8)), eb),
                    "write", x.nbytes, dt, j, f"compress {j}: stream decodes outside the bound")
        phase.compressed_from(x.nbytes, len(blob))
        # Three iterations in four decode the stream just returned (a cache
        # miss, checked against the input); the fourth re-decodes the
        # previous iteration's stream, which the cache still holds (a hit,
        # which must return the miss's bytes).  Hits are the minority: a
        # hit is a millisecond of Python on both ends of the socket, whose
        # time swung by a third from run to run with the host's load.
        if j % 4 != 3:
            t0 = time.perf_counter()
            status, body, headers = self._post("/v1/decompress", blob)
            dt = time.perf_counter() - t0
            ok = status == 200 and decodes_to(x, self._array(body, headers), eb)
            if ok:
                self.last = (blob, body)
            phase.check(ok, "read", x.nbytes, dt, j,
                        f"decompress {j}: status {status} or bad decode")
            return
        last_blob, last_body = self.last
        t0 = time.perf_counter()
        status, body, _ = self._post("/v1/decompress", last_blob)
        dt = time.perf_counter() - t0
        phase.check(status == 200 and body == last_body, "read", len(body), dt, j,
                    f"decompress {j}: status {status} or bytes differ from the miss")

    def stop_server(self) -> dict:
        """Close the connection, stop the server and return its summary."""
        if self.summary is None:
            self.conn.close()
            self.server.stdin.write("stop\n")
            self.server.stdin.flush()
            self.summary = json.loads(self._server_line())
            self.server.wait(timeout=60)
        return self.summary

    def shm_leaks(self) -> list:
        """``/dev/shm`` segments the stopped server's shm arena left behind."""
        prefix = f"reproshm-{self.server.pid:x}-"
        if not os.path.isdir("/dev/shm"):
            return []
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))

    def per_layer(self, tracer, base: Phase, traced: Phase, counters: dict) -> dict:
        s = self.stop_server()
        b = Breakdown.from_dict(s["breakdown"])
        rtt = traced.op_s
        return per_layer(
            b, rtt, traced.ops, s["counters"], overhead(base, traced),
            http_overhead_s=max(rtt - s["service_latency_s"], 0.0),
            unattributed_extra_s=max(s["service_latency_s"] - b.root_s, 0.0),
        )

    def peak_rss_mib(self) -> float:
        """The server's (or its largest pool worker's): the load generator
        is not part of the system under test."""
        return self.stop_server()["peak_rss_MiB"]

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            if server.poll() is None and hasattr(self, "conn"):
                try:
                    self.stop_server()
                except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired):
                    pass  # killed below; the run has already failed
            if server.poll() is None:
                server.kill()
            server.wait()
        super().close()


WORKLOADS = {
    "codec-bulk": CodecBulk,
    "serve-bulk": ServeBulk,
    "http-small": HttpSmall,
}


def run(wl, seconds: float, trace: bool) -> dict:
    """Measure a set-up workload; returns the result dict."""
    wl.prepare()
    base = Phase(wl.PERIOD)
    counters0 = wl.counters()
    if trace:
        wl.measure(seconds / 2, base, None)
        tracer = obs.Tracer()
        wl.trace(tracer)
        counters0 = wl.counters()
        traced = Phase(wl.PERIOD)
        wl.measure(seconds / 2, traced, tracer)
        metrics = wl.per_layer(tracer, base, traced, delta(counters0, wl.counters()))
        phases = (base, traced)
    else:
        wl.measure(seconds, base, None)
        metrics = base.end_to_end()
        phases = (base,)
    counters = delta(counters0, wl.counters())
    if not trace:
        metrics["peak_rss_MiB"] = wl.peak_rss_mib()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors][:MAX_ERRORS]
    if isinstance(wl, HttpSmall):
        wl.stop_server()
        attempted += 1
        leaks = wl.shm_leaks()
        if leaks:
            failed += 1
            errors.append(f"shm segments left in /dev/shm: {leaks}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "latency": None if trace else base.latency(),
        "errors": errors,
        "counters": counters,
        "ops": sum(p.ops for p in phases),
        # what the host fingerprint in run.py, which never imports repro, lacks
        "versions": {"numpy": np.__version__, "kernel_backend": resolve_backend("auto").name},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        wl.setup()
        print("ready", flush=True)
        wl.check_warmup()
        if args.setup_only:
            return 0
        result = run(wl, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - reported to the parent via exit code
        traceback.print_exc()
        return 1
    finally:
        wl.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
