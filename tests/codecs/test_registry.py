"""Registry mechanics: registration, resolution, sniffing, envelopes,
and the per-plugin option schema."""

import re

import numpy as np
import pytest

from repro import codecs
from repro.codecs.plugin import (
    ENVELOPE_MAGIC,
    CompressorPlugin,
    OptionSpec,
    is_envelope,
    register,
    unregister,
)
from repro.core.errors import InvalidInputError, StreamFormatError


@pytest.fixture
def walk_f32(rng):
    return np.cumsum(rng.normal(size=4_000)).astype(np.float32)


class TestRegistry:
    def test_builtin_names_and_default(self):
        names = codecs.codec_names()
        assert names[0] == codecs.DEFAULT_CODEC == "cuszp2"
        assert set(names) == {
            "cuszp2", "cuszp", "fzgpu", "cuzfp", "cusz", "cuszx", "mgard"
        }

    def test_resolve_unknown_is_classified(self):
        with pytest.raises(InvalidInputError, match="unknown codec"):
            codecs.resolve("nope")
        with pytest.raises(InvalidInputError):
            codecs.encode(np.zeros(4, np.float32), "nope", rel=1e-3)

    def test_resolve_passes_plugin_instances_through(self):
        plugin = codecs.resolve("cusz")
        assert codecs.resolve(plugin) is plugin

    def test_duplicate_registration_is_a_programming_error(self):
        class Dummy(CompressorPlugin):
            name = "cusz"  # collides with a builtin

        with pytest.raises(ValueError, match="already registered"):
            register(Dummy())

    def test_register_replace_and_unregister(self):
        class Dummy(CompressorPlugin):
            name = "test-dummy"
            description = "registry test plugin"

        try:
            register(Dummy())
            assert "test-dummy" in codecs.codec_names()
            register(Dummy(), replace=True)  # no error with replace
        finally:
            unregister("test-dummy")
        assert "test-dummy" not in codecs.codec_names()

    def test_register_rejects_bad_names(self):
        class Anon(CompressorPlugin):
            name = ""

        with pytest.raises(ValueError, match="non-empty ASCII"):
            register(Anon())


class TestMagic:
    """Plugins declare their magic as literals (their baseline modules are
    imported on first use); pin each to the module's own constant and to
    the streams it writes."""

    def test_magic_matches_the_codec_module(self):
        from repro.baselines import fzgpu
        from repro.baselines.zfp import codec as zfp
        from repro.core import stream

        expected = {
            "cuszp2": stream.MAGIC, "cuszp": stream.MAGIC,
            "fzgpu": fzgpu.MAGIC, "cuzfp": zfp.MAGIC,
        }
        for name, magic in expected.items():
            assert codecs.resolve(name).magic == magic, name

    @pytest.mark.parametrize("name", codecs.codec_names())
    def test_streams_start_with_the_declared_magic(self, walk_f32, name):
        plugin = codecs.resolve(name)
        opts = {"rel": 1e-3} if plugin.bounded else {}
        stream = codecs.encode(walk_f32[:512], name, **opts)
        if is_envelope(stream):
            from repro.codecs.plugin import _unwrap_envelope

            stream = _unwrap_envelope(stream)[2]
        assert bytes(stream[: len(plugin.magic)]) == plugin.magic


class TestSniffAndDecode:
    def test_sniff_raw_and_enveloped_streams(self, walk_f32):
        assert codecs.sniff(codecs.encode(walk_f32, "cuszp2", rel=1e-3)) == "cuszp2"
        assert codecs.sniff(codecs.encode(walk_f32, "fzgpu", rel=1e-3)) == "fzgpu"
        # hybrids wrap in the shape envelope, which carries the name
        cusz = codecs.encode(walk_f32, "cusz", rel=1e-3)
        assert is_envelope(cusz)
        assert codecs.sniff(cusz) == "cusz"

    def test_cuszp_streams_sniff_as_the_core_codec(self, walk_f32):
        # cuSZp emits core CSZ2 streams; sniffing resolves them to the
        # first-registered (core) plugin, which decodes them fine
        stream = codecs.encode(walk_f32, "cuszp", rel=1e-3)
        assert codecs.sniff(stream) == "cuszp2"
        recon = codecs.decode(stream)
        assert recon.shape == walk_f32.shape

    def test_decode_garbage_is_classified(self):
        with pytest.raises(StreamFormatError, match="unrecognized"):
            codecs.decode(b"\x00\x01\x02\x03 definitely not a stream")

    def test_decode_forced_codec_mismatch(self, walk_f32):
        stream = codecs.encode(walk_f32, "fzgpu", rel=1e-3)
        with pytest.raises(StreamFormatError):
            codecs.decode(stream, codec="cuszp2")

    def test_sniff_unknown_returns_none(self):
        assert codecs.sniff(b"????????") is None
        assert codecs.sniff(b"") is None


class TestEnvelope:
    def test_envelope_truncation_is_classified(self, walk_f32):
        stream = codecs.encode(walk_f32, "cusz", rel=1e-3)
        for cut in (len(ENVELOPE_MAGIC), len(ENVELOPE_MAGIC) + 3, stream.size - 5):
            with pytest.raises(StreamFormatError):
                codecs.decode(stream[:cut].copy())

    def test_envelope_wrong_producer_name(self, walk_f32):
        stream = codecs.encode(walk_f32, "cusz", rel=1e-3)
        with pytest.raises(StreamFormatError, match="produced by codec"):
            codecs.resolve("mgard").decompress(stream)

    def test_envelope_preserves_multidim_shape(self, rng):
        data = rng.normal(size=(6, 7, 8)).astype(np.float32)
        for name in ("cusz", "cuszx", "mgard"):
            recon = codecs.decode(codecs.encode(data, name, abs=1e-2))
            assert recon.shape == data.shape
            assert recon.dtype == data.dtype


class TestOptionSchema:
    def test_unknown_option(self):
        with pytest.raises(InvalidInputError, match="has no option"):
            codecs.encode(np.zeros(8, np.float32), "cuszp2", rel=1e-3, bogus=1)

    def test_missing_and_double_bound(self):
        plugin = codecs.resolve("cuszp2")
        with pytest.raises(InvalidInputError, match="exactly one"):
            plugin.validate_options({})
        with pytest.raises(InvalidInputError, match="exactly one"):
            plugin.validate_options({"rel": 1e-3, "abs": 1e-3})

    def test_choice_violation(self):
        with pytest.raises(InvalidInputError, match="must be one of"):
            codecs.resolve("cuszp2").validate_options({"rel": 1e-3, "mode": "turbo"})

    def test_minimum_violation(self):
        with pytest.raises(InvalidInputError, match=">="):
            codecs.resolve("cuzfp").validate_options({"rate": 0.25})

    def test_bool_is_not_a_number(self):
        with pytest.raises(InvalidInputError, match="bool"):
            codecs.resolve("cuzfp").validate_options({"rate": True})

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"block": 12}, "block size must be a positive multiple of 8, got 12"),
            ({"block": 0}, "block size must be a positive multiple of 8, got 0"),
            (
                {"group_blocks": 70_000},
                "group_blocks (blocks per checksum group) must be in [1, 65535], got 70000",
            ),
            (
                {"group_blocks": 0},
                "group_blocks (blocks per checksum group) must be in [1, 65535], got 0",
            ),
            ({"predictor_ndim": 2, "block": 32}, "block=32 is not a perfect 2-D tile"),
        ],
        ids=["block12", "block0", "group70000", "group0", "tile"],
    )
    def test_core_codec_validates_with_its_own_config(self, setting, message):
        """cuszp2's options pass through ``CompressorConfig`` at validation
        time, so a setting the codec would refuse never reaches a worker."""
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            codecs.resolve("cuszp2").validate_options({"rel": 1e-3, **setting})

    def test_string_coercion_for_cli_values(self):
        out = codecs.resolve("cuszp2").validate_options(
            {"rel": "1e-3", "block": "64"}
        )
        assert out["rel"] == 1e-3 and out["block"] == 64

    def test_non_integer_float_rejected_for_int_option(self):
        with pytest.raises(InvalidInputError):
            codecs.resolve("cuszp2").validate_options({"rel": 1e-3, "block": 32.5})

    def test_defaults_injected(self):
        out = codecs.resolve("cuszp2").validate_options({"rel": 1e-3})
        assert out["mode"] == "outlier"
        assert out["block"] >= 1

    def test_option_spec_exposed_for_introspection(self):
        for plugin in codecs.list_plugins().values():
            for opt in plugin.options.values():
                assert isinstance(opt, OptionSpec)
                assert opt.type in (int, float, str)
                assert opt.doc
