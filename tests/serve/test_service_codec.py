"""ServiceConfig.codec: every codec, the default included, rides the
plugin contract through one task pair."""

import asyncio
import json

import numpy as np
import pytest

from repro import codecs
from repro.core.errors import InvalidInputError
from repro.core.stream import StreamHeader
from repro.faults.chaos import ChaosConfig, ChaosWorkerPool
from repro.serve import compress_chunked, is_chunked
from repro.serve.service import CompressionService, ServiceConfig

from tests.serve.test_http import _frontend, _request

#: (backend, transport) pairs the byte-identity checks run over
TRANSPORTS = [("thread", "pickle"), ("process", "shm")]


@pytest.fixture
def field(rng):
    return np.cumsum(rng.normal(size=6_000)).astype(np.float32).reshape(60, 100)


class TestCodecRouting:
    @pytest.mark.parametrize("codec", ["cusz", "fzgpu", "cuszx"])
    def test_bounded_codec_roundtrip(self, field, codec):
        with CompressionService(workers=2, codec=codec) as svc:
            blob = svc.compress(field, rel=1e-3).result(timeout=30)
            assert codecs.sniff(blob) == codec
            recon = svc.decompress(blob).result(timeout=30)
        assert recon.shape == field.shape
        assert recon.dtype == field.dtype
        eb = 1e-3 * float(field.max() - field.min())
        err = np.abs(recon.astype(np.float64) - field.astype(np.float64)).max()
        assert err <= eb * (1 + 1e-6)

    def test_fixed_rate_codec_with_opts(self, field):
        cfg = ServiceConfig(
            workers=1, codec="cuzfp", codec_opts=(("rate", 16.0),)
        )
        with CompressionService(cfg) as svc:
            blob = svc.compress(field).result(timeout=30)
            recon = svc.decompress(blob).result(timeout=30)
        assert recon.shape == field.shape
        assert recon.dtype == field.dtype
        # rate 16 on float32: ~2x, well below raw
        assert blob.size < field.nbytes

    def test_abs_bound_rides_through(self, field):
        with CompressionService(workers=1, codec="fzgpu") as svc:
            blob = svc.compress(field, abs=1e-2).result(timeout=30)
            recon = svc.decompress(blob).result(timeout=30)
        assert np.abs(recon.astype(np.float64) - field.astype(np.float64)).max() <= 1e-2 * (1 + 1e-6)

    def test_default_service_decodes_foreign_streams(self, field):
        """Decoding always sniffs: a cuszp2 service decodes any
        registered plugin's stream."""
        stream = bytes(codecs.encode(field, "fzgpu", abs=1e-3))
        with CompressionService(workers=1) as svc:
            recon = svc.decompress(stream).result(timeout=30)
        assert recon.shape == field.shape

    def test_codec_service_still_decodes_csz2(self, field):
        """And the reverse: a plugin-configured service decodes core
        CSZ2 streams produced elsewhere."""
        from repro.core import compress as core_compress

        stream = core_compress(field, rel=1e-3)
        with CompressionService(workers=1, codec="cusz") as svc:
            recon = svc.decompress(stream).result(timeout=30)
        assert recon.shape == field.shape


class TestCodecValidation:
    def test_unknown_codec_fails_fast(self, field):
        with CompressionService(workers=1, codec="nope") as svc:
            with pytest.raises(InvalidInputError, match="unknown codec"):
                svc.compress(field, rel=1e-3)

    def test_bad_codec_opt_fails_fast(self, field):
        with CompressionService(
            workers=1, codec="cusz", codec_opts=(("bogus", 1),)
        ) as svc:
            with pytest.raises(InvalidInputError, match="has no option"):
                svc.compress(field, rel=1e-3)

    def test_bounded_codec_requires_exactly_one_bound(self, field):
        with CompressionService(workers=1, codec="cusz") as svc:
            with pytest.raises(InvalidInputError, match="exactly one"):
                svc.compress(field)
            with pytest.raises(InvalidInputError, match="exactly one"):
                svc.compress(field, rel=1e-3, abs=1e-3)

    def test_metrics_account_codec_requests(self, field):
        with CompressionService(workers=1, codec="cuszx") as svc:
            svc.compress(field, rel=1e-3).result(timeout=30)
            snap = svc.stats_snapshot()
        assert snap["counters"]["service.requests"] >= 1
        assert snap["counters"]["service.bytes_in"] >= field.nbytes


class TestFixedRateCodecTakesNoBound:
    """A fixed-rate codec's ratio is set by ``rate``, not a bound: the
    service rejects ``rel``/``abs`` as the plugin API does, and over HTTP
    a compress needs no bound."""

    FIXED = {"codec": "cuzfp", "codec_opts": (("rate", 16.0),)}

    @pytest.mark.parametrize("bound", ["rel", "abs"])
    def test_bound_is_rejected(self, field, bound):
        with CompressionService(workers=1, **self.FIXED) as svc:
            with pytest.raises(InvalidInputError, match=f"has no option '{bound}'"):
                svc.compress(field, **{bound: 1e-3})
            assert "service.requests" not in svc.stats_snapshot()["counters"]

    def test_http_compress_without_a_bound(self, field):
        headers = {"x-dtype": "float32", "x-shape": "60,100"}

        async def go(svc):
            async with _frontend(svc) as fe:
                plain = await _request(
                    fe.port, "POST", "/v1/compress", headers, field.tobytes()
                )
                bounded = await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3", headers, field.tobytes()
                )
                return plain, bounded

        with CompressionService(workers=1, **self.FIXED) as svc:
            (status, _, payload), (bad_status, _, bad_payload) = asyncio.run(go(svc))
        assert status == 200
        assert payload == codecs.encode(field, "cuzfp", rate=16.0).tobytes()
        assert bad_status == 400
        err = json.loads(bad_payload)
        assert err["error"] == "client" and "has no option 'rel'" in err["detail"]


class TestCodecSettingsReachTheCodec:
    """Settings meant for one codec are neither dropped nor accepted by
    another: the default codec's settings ride ``codec_opts`` and the
    plugin's schema judges every request."""

    @pytest.mark.parametrize("setting", [("block", 64), ("mode", "plain"), ("group_blocks", 4)])
    def test_default_codec_honours_codec_opts(self, field, setting):
        with CompressionService(workers=1, codec_opts=(setting,)) as svc:
            blob = svc.compress(field, rel=1e-3).result(timeout=30)
        expected = codecs.encode(field, "cuszp2", rel=1e-3, **dict([setting]))
        assert blob.tobytes() == expected.tobytes()
        if setting[0] == "block":
            assert StreamHeader.unpack(blob).block == 64

    @pytest.mark.parametrize("opt", [("bogus", 1), ("rate", 16.0)])
    def test_default_codec_rejects_foreign_options(self, field, opt):
        with CompressionService(workers=1, codec_opts=(opt,)) as svc:
            with pytest.raises(InvalidInputError, match="has no option"):
                svc.compress(field, rel=1e-3)

    @pytest.mark.parametrize("codec", ["cuszp", "fzgpu", "cusz", "cuszx", "mgard", "cuzfp"])
    def test_mode_rejected_by_a_plugin_without_it(self, field, codec):
        bound = {"rel": 1e-3} if codecs.resolve(codec).bounded else {}
        with CompressionService(workers=1, codec=codec) as svc:
            with pytest.raises(InvalidInputError, match="has no option 'mode'"):
                svc.compress(field, mode="plain", **bound)
            assert "service.requests" not in svc.stats_snapshot()["counters"]

    @pytest.mark.parametrize("codec", ["cusz", "fzgpu"])
    def test_http_mode_for_a_plugin_without_it_is_a_client_error(self, codec):
        async def go(svc):
            async with _frontend(svc) as fe:
                return await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3&mode=plain",
                    body=np.linspace(0, 1, 64, dtype=np.float32).tobytes(),
                )

        with CompressionService(workers=1, codec=codec) as svc:
            status, _, payload = asyncio.run(go(svc))
        assert status == 400
        err = json.loads(payload)
        assert err["error"] == "client" and "has no option 'mode'" in err["detail"]

    @pytest.mark.parametrize("backend, transport", TRANSPORTS)
    def test_corrupted_cuszp_result_is_caught_and_retried(self, field, backend, transport):
        """cuSZp emits CSZ2 streams, so its results are CRC-checked like
        the core codec's: a result corrupted in transit is retried (here
        every pool attempt is corrupted, so the inline tier answers)."""
        chaos = ChaosConfig(seed=3, corrupt_rate=1.0)
        with CompressionService(
            workers=1, backend=backend, transport=transport, codec="cuszp",
            pool_wrapper=lambda pool: ChaosWorkerPool(pool, chaos),
        ) as svc:
            blob = svc.compress(field, rel=1e-3).result(timeout=60)
            counters = svc.stats_snapshot()["counters"]
        assert blob.tobytes() == codecs.encode(field, "cuszp", rel=1e-3).tobytes()
        assert counters["resilience.corrupt_results"] >= 1


def _plugin_request(name):
    """(codec_opts, bound) for one request through plugin ``name``."""
    if codecs.resolve(name).bounded:
        return (), {"rel": 1e-3}
    return (("rate", 16.0),), {}


class TestServiceAddsNothing:
    """The service is transport, not format: its bytes are the plugin's
    bytes, and a fanned-out request is exactly ``compress_chunked``'s
    container."""

    @pytest.mark.parametrize("backend, transport", TRANSPORTS)
    @pytest.mark.parametrize("codec", codecs.codec_names())
    def test_service_stream_is_the_plugin_stream(self, field, codec, backend, transport):
        opts, bound = _plugin_request(codec)
        with CompressionService(
            workers=1, backend=backend, transport=transport, shm_min_bytes=1,
            codec=codec, codec_opts=opts,
        ) as svc:
            blob = svc.compress(field, **bound).result(timeout=60)
        expected = codecs.encode(field, codec, **dict(opts), **bound)
        assert blob.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("backend, transport", TRANSPORTS)
    def test_fanned_out_request_is_the_chunked_container(self, rng, backend, transport):
        data = np.cumsum(rng.normal(size=300_000)).astype(np.float32)
        chunk_bytes = 256 << 10
        with CompressionService(
            workers=2, backend=backend, transport=transport, chunk_bytes=chunk_bytes,
        ) as svc:
            blob = svc.compress(data, rel=1e-3).result(timeout=60)
        assert is_chunked(blob)
        expected = compress_chunked(data, rel=1e-3, chunk_bytes=chunk_bytes).to_bytes()
        assert blob.tobytes() == expected.tobytes()
