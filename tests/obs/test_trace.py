"""Span/Tracer semantics: nesting, thread safety, cross-process adoption."""

import threading
import time

import numpy as np

from tests.helpers import seeded_rng
import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    DISABLED,
    Span,
    TraceContext,
    Tracer,
    activate,
    current_tracer,
    deactivate,
    maybe_span,
    set_thread_tracer,
    tracing,
)
from repro.serve.pool import WorkerPool, register_task


@register_task("test.traced_work")
def _traced_work(arg):
    """A task that opens its own spans (visible only when the pool ships
    a tracer into the worker via the trace protocol)."""
    with obs_trace.maybe_span("work.outer", bytes_in=int(arg)) as sp:
        with obs_trace.maybe_span("work.inner"):
            time.sleep(0.001)
        if sp is not None:
            sp.set(bytes_out=2 * int(arg))
    return arg


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Tests control activation explicitly; never leak a global tracer."""
    yield
    deactivate()


class TestSpanTree:
    def test_nested_spans_form_a_tree(self):
        tr = Tracer()
        with tr.span("root") as root:
            with tr.span("a") as a:
                with tr.span("a1"):
                    pass
            with tr.span("b"):
                pass
        assert tr.roots() == [root]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in a.children] == ["a1"]
        assert all(s.done for s in tr.find("a1"))
        assert a.parent_id == root.span_id

    def test_durations_nest(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                time.sleep(0.002)
        assert inner.duration_s > 0
        assert outer.duration_s >= inner.duration_s
        assert outer.self_s() == pytest.approx(
            outer.duration_s - inner.duration_s, abs=1e-9
        )

    def test_self_time_clamped_for_overlapping_children(self):
        # children recorded from parallel workers can overlap the parent
        tr = Tracer()
        root = tr.begin("root")
        tr.record("w1", 0.0, 1.0, parent=root)
        tr.record("w2", 0.0, 1.0, parent=root)
        tr.end(root)
        assert root.self_s() == 0.0

    def test_explicit_parent_across_threads(self):
        tr = Tracer()
        root = tr.begin("request")
        done = threading.Event()

        def worker():
            child = tr.begin("stage", parent=root)
            tr.end(child)
            done.set()

        threading.Thread(target=worker).start()
        assert done.wait(5)
        tr.end(root)
        assert [c.name for c in root.children] == ["stage"]

    def test_parent_by_span_id(self):
        tr = Tracer()
        root = tr.begin("root")
        child = tr.begin("child", parent=root.span_id)
        assert child.parent_id == root.span_id
        assert root.children == [child]

    def test_attach_makes_span_current_without_closing(self):
        tr = Tracer()
        root = tr.begin("request")
        with tr.attach(root):
            with tr.span("nested"):
                pass
        assert not root.done  # attach never closes
        assert [c.name for c in root.children] == ["nested"]
        assert tr.current() is None

    def test_record_finished_interval(self):
        tr = Tracer()
        sp = tr.record("wait", 10.0, 10.5, priority="bulk")
        assert sp.done
        assert sp.duration_s == pytest.approx(0.5)
        assert sp.attrs["priority"] == "bulk"

    def test_roundtrip_dict(self):
        tr = Tracer()
        with tr.span("root", bytes_in=7) as root:
            with tr.span("child"):
                pass
        clone = Span.from_dict(root.to_dict())
        assert clone.name == "root"
        assert clone.attrs == {"bytes_in": 7}
        assert clone.duration_s == pytest.approx(root.duration_s)
        assert [c.name for c in clone.children] == ["child"]

    def test_concurrent_begins_thread_safe(self):
        tr = Tracer()
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def hammer(i):
            barrier.wait()
            for k in range(per_thread):
                with tr.span(f"t{i}"):
                    pass

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tr.roots()) == n_threads * per_thread

    def test_per_thread_nesting_is_independent(self):
        tr = Tracer()
        inner_parent = {}
        ready = threading.Barrier(2)

        def worker(tag):
            with tr.span(f"outer.{tag}"):
                ready.wait()  # both threads inside their outer span
                with tr.span(f"inner.{tag}") as sp:
                    inner_parent[tag] = sp.parent_id

        threads = [threading.Thread(target=worker, args=(t,)) for t in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        outer = {s.name: s.span_id for s in tr.roots()}
        assert inner_parent["a"] == outer["outer.a"]
        assert inner_parent["b"] == outer["outer.b"]


class TestAdoption:
    def test_adopt_reparents_under_parent(self):
        worker = Tracer()
        with worker.span("work.outer"):
            with worker.span("work.inner"):
                pass
        shipped = [s.to_dict() for s in worker.roots()]

        main = Tracer()
        req = main.begin("request")
        main.adopt(req, shipped)
        main.end(req)
        assert [c.name for c in req.children] == ["work.outer"]
        assert req.children[0].parent_id == req.span_id
        assert [c.name for c in req.children[0].children] == ["work.inner"]
        # adopted spans are indexed: addressable as explicit parents
        inner = main.find("work.inner")[0]
        extra = main.begin("late", parent=inner.span_id)
        assert extra.parent_id == inner.span_id

    def test_adopt_without_parent_adds_roots(self):
        worker = Tracer()
        with worker.span("solo"):
            pass
        main = Tracer()
        main.adopt(None, [s.to_dict() for s in worker.roots()])
        assert [r.name for r in main.roots()] == ["solo"]
        assert main.roots()[0].parent_id is None


class TestGuard:
    def test_maybe_span_disabled_is_shared_nullcontext(self):
        assert current_tracer() is None
        cm1 = maybe_span("x")
        cm2 = maybe_span("y", bytes_in=3)
        assert cm1 is cm2  # singleton: no per-call allocation
        with cm1 as sp:
            assert sp is None

    def test_activate_routes_spans(self):
        tr = Tracer()
        activate(tr)
        try:
            with maybe_span("stage", bytes_in=1) as sp:
                assert sp is not None
        finally:
            deactivate()
        assert [r.name for r in tr.roots()] == ["stage"]
        assert maybe_span("after") is not tr  # disabled again
        assert current_tracer() is None

    def test_thread_override_beats_global(self):
        global_tr, local_tr = Tracer(), Tracer()
        activate(global_tr)
        try:
            prev = set_thread_tracer(local_tr)
            try:
                with maybe_span("stage"):
                    pass
            finally:
                set_thread_tracer(prev)
            assert [r.name for r in local_tr.roots()] == ["stage"]
            assert global_tr.roots() == []
        finally:
            deactivate()

    def test_disabled_sentinel_suppresses_global(self):
        tr = Tracer()
        activate(tr)
        try:
            prev = set_thread_tracer(DISABLED)
            try:
                assert current_tracer() is None
                with maybe_span("stage") as sp:
                    assert sp is None
            finally:
                set_thread_tracer(prev)
        finally:
            deactivate()
        assert tr.roots() == []

    def test_tracing_context_manager(self):
        with tracing() as tr:
            with maybe_span("inside"):
                pass
        assert current_tracer() is None
        assert [r.name for r in tr.roots()] == ["inside"]


class TestPoolIntegration:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_spans_reparent_under_request(self, backend):
        tr = Tracer()
        with WorkerPool(nworkers=1, backend=backend, warmup=False) as pool:
            pool.wait_ready()
            req = tr.begin("request")
            fut = pool.submit(
                "test.traced_work", 21, trace=TraceContext(tr, req)
            )
            assert fut.result(timeout=30) == 21
            tr.end(req)
        task_spans = [c for c in req.children if c.name.startswith("pool.task.")]
        assert len(task_spans) == 1
        task = task_spans[0]
        assert task.attrs["backend"] == backend
        outer = [c for c in task.children if c.name == "work.outer"]
        assert len(outer) == 1
        assert outer[0].attrs == {"bytes_in": 21, "bytes_out": 42}
        assert [c.name for c in outer[0].children] == ["work.inner"]
        if backend == "process":
            assert outer[0].pid != req.pid  # genuinely crossed a process

    def test_ambient_submission_auto_traces(self):
        tr = Tracer()
        activate(tr)
        try:
            with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
                pool.wait_ready()
                with tr.span("request") as req:
                    fut = pool.submit("test.traced_work", 5)
                assert fut.result(timeout=30) == 5
        finally:
            deactivate()
        # with no explicit TraceContext the ambient tracer + current span
        # were captured at submit time
        assert [c.name for c in req.children if c.name.startswith("pool.task.")]
        assert tr.find("work.outer")

    def test_untraced_submission_ships_no_spans(self):
        # a globally-activated tracer must NOT receive stray spans from a
        # worker thread running an untraced task (thread backend shares the
        # process, so only the worker's DISABLED override prevents it)
        tr = Tracer()
        activate(tr)
        prev = set_thread_tracer(DISABLED)  # suppress submit-side capture
        try:
            with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
                pool.wait_ready()
                assert pool.submit("test.traced_work", 1).result(timeout=30) == 1
        finally:
            set_thread_tracer(prev)
            deactivate()
        assert tr.find("work.outer") == []
        assert tr.roots() == []

    def test_spans_ship_even_when_task_fails(self):
        tr = Tracer()

        @register_task("test.traced_fail")
        def _traced_fail(arg):
            with obs_trace.maybe_span("fail.stage"):
                raise ValueError("boom")

        with WorkerPool(nworkers=1, backend="thread", warmup=False) as pool:
            pool.wait_ready()
            req = tr.begin("request")
            fut = pool.submit("test.traced_fail", 0, trace=TraceContext(tr, req))
            with pytest.raises(ValueError, match="boom"):
                fut.result(timeout=30)
            tr.end(req)
        assert len(tr.find("fail.stage")) == 1


class TestServiceIntegration:
    def test_service_trace_covers_wall_time(self):
        from repro.serve.service import CompressionService

        tr = Tracer()
        rng = seeded_rng(0)
        data = np.cumsum(rng.standard_normal(1 << 16)).astype(np.float32)
        activate(tr)
        try:
            with CompressionService(workers=2, backend="thread", tracer=tr) as svc:
                svc.pool.wait_ready()
                t0 = time.perf_counter()
                blob = svc.compress(data, rel=1e-3).result(timeout=60)
                recon = svc.decompress(blob).result(timeout=60)
                wall = time.perf_counter() - t0
        finally:
            deactivate()
        np.testing.assert_allclose(recon, data, atol=1e-3 * np.ptp(data))

        from repro.obs import coverage

        cov = coverage(tr.roots(), wall)
        assert 0.95 <= cov <= 1.0 + 1e-9
        # the codec stages of both directions are all present
        for stage in ("codec.quantize", "codec.fle", "codec.fle_decode",
                      "codec.dequantize"):
            assert tr.find(stage), f"missing {stage}"
        # stage durations sum consistently: children fit inside their parent
        comp = tr.find("codec.compress")[0]
        assert sum(c.duration_s for c in comp.children) <= comp.duration_s * 1.05

    def test_compress_span_covers_validation(self):
        # the request span opens before input validation and closes with
        # ok=False when validation rejects the request; the request
        # counters still count only validated requests
        from repro.core.errors import InvalidInputError
        from repro.serve.service import CompressionService

        tr = Tracer()
        bad = np.array([1.0, np.nan], dtype=np.float32)
        with CompressionService(workers=1, backend="thread", tracer=tr) as svc:
            with pytest.raises(InvalidInputError):
                svc.compress(bad, rel=1e-3)
            with pytest.raises(InvalidInputError):
                svc.compress(np.ones(8, dtype=np.float32))  # no bound given
            svc.compress(np.linspace(0, 1, 64, dtype=np.float32), rel=1e-3).result(
                timeout=60
            )
            requests = svc.stats_snapshot()["counters"]["service.requests"]
        spans = tr.find("service.compress")
        assert [s.attrs["ok"] for s in spans] == [False, False, True]
        assert all(s.t1 is not None for s in spans)
        assert requests == 1

    def test_decompress_cache_hit_span(self):
        from repro.serve.service import CompressionService

        tr = Tracer()
        data = np.linspace(0, 1, 4096, dtype=np.float32)
        with CompressionService(workers=1, backend="thread", tracer=tr) as svc:
            blob = svc.compress(data, rel=1e-3).result(timeout=60)
            svc.decompress(blob).result(timeout=60)
            svc.decompress(blob).result(timeout=60)  # hit
        dec = tr.find("service.decompress")
        assert [s.attrs["cache_hit"] for s in dec] == [False, True]
        assert all(s.done for s in dec)
