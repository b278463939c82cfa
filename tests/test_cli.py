"""Tests for the command-line interface (the paper's AE-style workflow)."""

import numpy as np
import pytest

from repro.cli import main, parse_args
from repro.datasets import read_field, write_field


@pytest.fixture
def raw_field(tmp_path, rng):
    data = np.cumsum(rng.normal(size=20_000)).astype(np.float32)
    path = tmp_path / "field.f32"
    write_field(path, data)
    return path, data


class TestCompressDecompress:
    def test_round_trip(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        out = tmp_path / "field.csz2"
        rc = main(["compress", str(path), "1e-3", "--mode", "o", "-o", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "GSZ finished!" in text
        assert "Pass error check!" in text
        assert "compression ratio" in text
        assert out.exists()

        recon_path = tmp_path / "recon.f32"
        rc = main(["decompress", str(out), "-o", str(recon_path)])
        assert rc == 0
        recon = read_field(recon_path)
        eb = 1e-3 * (data.max() - data.min())
        assert np.abs(recon - data).max() <= eb * (1 + 1e-6)

    def test_absolute_bound(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        rc = main(["compress", str(path), "0.5", "--absolute", "-o", str(tmp_path / "a.csz2")])
        assert rc == 0
        assert "Pass error check!" in capsys.readouterr().out

    def test_mode_shorthands(self, raw_field, tmp_path):
        path, _ = raw_field
        for mode in ("p", "plain", "o", "outlier"):
            assert main(["compress", str(path), "1e-2", "--mode", mode, "-o", str(tmp_path / f"{mode}.csz2")]) == 0

    def test_p_and_o_files_differ_in_size(self, tmp_path, rng):
        data = np.cumsum(rng.normal(size=50_000)).astype(np.float32)
        path = tmp_path / "smooth.f32"
        write_field(path, data)
        main(["compress", str(path), "1e-3", "--mode", "p", "-o", str(tmp_path / "p.csz2")])
        main(["compress", str(path), "1e-3", "--mode", "o", "-o", str(tmp_path / "o.csz2")])
        assert (tmp_path / "o.csz2").stat().st_size < (tmp_path / "p.csz2").stat().st_size

    def test_f64_input(self, tmp_path, rng):
        data = np.cumsum(rng.normal(size=5_000))
        path = tmp_path / "field.f64"
        write_field(path, data)
        out = tmp_path / "field.csz2"
        assert main(["compress", str(path), "1e-3", "-o", str(out)]) == 0
        recon_path = tmp_path / "r.f64"
        assert main(["decompress", str(out), "-o", str(recon_path)]) == 0
        assert read_field(recon_path).dtype == np.float64

    def test_device_flag(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        rc = main(["compress", str(path), "1e-3", "--device", "RTX-3080", "-o", str(tmp_path / "x.csz2")])
        assert rc == 0
        assert "RTX-3080" in capsys.readouterr().out


class TestOtherCommands:
    def test_datasets_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        text = capsys.readouterr().out
        for name in ("CESM-ATM", "HACC", "JetIn", "NWChem"):
            assert name in text

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "p3000.f32"
        assert main(["generate", "RTM", "P3000", "-o", str(out)]) == 0
        data = read_field(out)
        assert data.size == 48 * 48 * 256

    def test_experiment_runs_and_writes(self, tmp_path, capsys):
        out = tmp_path / "fig10.txt"
        assert main(["experiment", "fig10", "-o", str(out)]) == 0
        assert "SASS" in out.read_text()

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_evaluate_dataset(self, capsys):
        assert main(["evaluate", "QMCPack", "--rel", "1e-2"]) == 0
        text = capsys.readouterr().out
        assert "GSZ-P" in text and "GSZ-O" in text
        assert "avg compression ratio" in text


class TestArchiveCommands:
    def test_pack_and_extract(self, tmp_path, capsys):
        arch = tmp_path / "qmc.arch"
        assert main(["pack", "QMCPack", "--rel", "1e-2", "-o", str(arch)]) == 0
        assert arch.exists()

        # Listing fields.
        assert main(["extract", str(arch)]) == 0
        assert "einspline" in capsys.readouterr().out

        out = tmp_path / "field.f32"
        assert main(["extract", str(arch), "einspline", "-o", str(out)]) == 0
        data = read_field(out)
        assert data.size == 48 * 48 * 256


class TestChunkedCompress:
    def test_big_input_routes_through_chunked_engine(self, raw_field, tmp_path, capsys):
        path, data = raw_field  # 80 KB: above a 0.05 MiB threshold
        out = tmp_path / "field.csz2"
        rc = main(["compress", str(path), "1e-3", "--chunk-mb", "0.05", "-o", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "chunked into" in text
        assert "Pass error check!" in text
        assert out.exists()

    def test_workers_flag_forces_chunked_path(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        out = tmp_path / "field.csz2"
        rc = main([
            "compress", str(path), "1e-3",
            "--workers", "2", "--backend", "thread", "-o", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "2 worker(s), thread backend" in text
        assert "Pass error check!" in text

    def test_chunked_container_decompresses(self, raw_field, tmp_path, capsys):
        path, data = raw_field
        out = tmp_path / "field.csz2"
        assert main(["compress", str(path), "1e-3", "--chunk-mb", "0.05", "-o", str(out)]) == 0
        capsys.readouterr()
        recon_path = tmp_path / "recon.f32"
        rc = main(["decompress", str(out), "-o", str(recon_path)])
        assert rc == 0
        assert "chunked container" in capsys.readouterr().out
        recon = read_field(recon_path)
        eb = 1e-3 * (data.max() - data.min())
        assert np.abs(recon - data).max() <= eb * (1 + 1e-6)

    def test_small_input_stays_single_stream(self, raw_field, tmp_path, capsys):
        path, data = raw_field  # 80 KB: far below the default 32 MiB
        out = tmp_path / "field.csz2"
        assert main(["compress", str(path), "1e-3", "-o", str(out)]) == 0
        assert "chunked into" not in capsys.readouterr().out


class TestServeBench:
    def test_serve_bench_runs_and_reports(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main([
            "serve-bench", "--size-mb", "0.2", "--workers", "1",
            "--requests", "2", "--clients", "1", "--chunk-mb", "0.1",
            "--json", str(report_path),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "serve-bench:" in text
        assert "throughput" in text
        assert report_path.exists()


class TestTransportFlag:
    """``--transport shm`` needs process workers; ``repro serve``'s
    default follows ``--backend``."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--backend", "thread", "--transport", "shm"],
        ["serve-bench", "--transport", "shm"],  # thread is the default
        ["chaoscheck", "--transport", "shm"],
    ], ids=lambda argv: argv[0])
    def test_shm_on_thread_workers_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"{argv[0]}: --transport shm needs --backend process" in err

    @pytest.mark.parametrize("argv, backend, transport", [
        (["serve"], "process", "shm"),
        (["serve", "--backend", "thread"], "thread", "pickle"),
        (["serve", "--transport", "pickle"], "process", "pickle"),
    ])
    def test_serve_transport_follows_backend(self, argv, backend, transport):
        args = parse_args(argv)
        assert (args.backend, args.transport) == (backend, transport)


class TestTrace:
    def test_trace_synthetic_stage_table(self, capsys):
        rc = main(["trace", "--size-mb", "0.5", "--workers", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        for stage in ("service.compress", "codec.quantize", "codec.fle",
                      "service.decompress", "codec.fle_decode",
                      "codec.dequantize", "(untraced)"):
            assert stage in text
        assert "Pass error check!" in text
        # acceptance: span self-times account for >= 95% of traced wall
        cov = float(text.split("trace coverage:")[1].split("%")[0])
        assert cov >= 95.0

    def test_trace_process_backend_ships_worker_spans(self, capsys):
        rc = main([
            "trace", "--size-mb", "0.5", "--workers", "2",
            "--backend", "process",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        # codec stages only exist inside worker processes here, so their
        # presence proves the cross-process ship-back + re-parenting
        assert "pool.task.chunk.compress" in text
        assert "codec.fle" in text
        cov = float(text.split("trace coverage:")[1].split("%")[0])
        assert cov >= 95.0

    def test_trace_exports(self, tmp_path, capsys):
        import json

        spans = tmp_path / "spans.json"
        fold = tmp_path / "stacks.folded"
        prom = tmp_path / "metrics.txt"
        rc = main([
            "trace", "--size-mb", "0.25", "--workers", "1",
            "--json", str(spans), "--folded", str(fold), "--metrics", str(prom),
        ])
        assert rc == 0
        roots = json.loads(spans.read_text())
        assert {r["name"] for r in roots} >= {"service.compress", "service.decompress"}
        assert any(";codec.fle " in line for line in fold.read_text().splitlines())
        assert "repro_pool_tasks_total" in prom.read_text()

    def test_trace_raw_file_input(self, raw_field, capsys):
        path, _data = raw_field
        rc = main(["trace", str(path), "--workers", "1"])
        assert rc == 0
        assert "Pass error check!" in capsys.readouterr().out


class TestCodecFlag:
    """``--codec`` (compressor plugin registry) on compress/decompress/pack."""

    def test_codecs_list_stays_in_sync_with_registry(self):
        from repro import codecs
        from repro.cli import CODECS

        assert set(CODECS) == {"auto"} | set(codecs.codec_names())
        assert CODECS[0] == "auto"

    def test_codecs_subcommand_lists_every_plugin(self, capsys):
        from repro import codecs

        assert main(["codecs"]) == 0
        text = capsys.readouterr().out
        for name in codecs.codec_names():
            assert name in text
        assert "fixed-rate" in text  # cuzfp's flag
        assert "--codec-opt" in text

    @pytest.mark.parametrize("codec", ["cuszp", "fzgpu", "cusz", "cuszx", "mgard"])
    def test_compress_decompress_each_bounded_codec(self, raw_field, tmp_path, codec, capsys):
        path, data = raw_field
        out = tmp_path / f"field.{codec}"
        rc = main(["compress", str(path), "1e-3", "--codec", codec, "-o", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert f"codec: {codec}" in text
        assert "Pass error check!" in text

        recon_path = tmp_path / "recon.f32"
        assert main(["decompress", str(out), "-o", str(recon_path)]) == 0
        assert f"{codec} stream" in capsys.readouterr().out or codec == "cuszp"
        recon = read_field(recon_path)
        eb = 1e-3 * (data.max() - data.min())
        assert np.abs(recon - data).max() <= eb * (1 + 1e-6)

    def test_compress_fixed_rate_codec_with_opt(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "field.cuzfp"
        rc = main([
            "compress", str(path), "1e-3", "--codec", "cuzfp",
            "--codec-opt", "rate=16", "-o", str(out),
        ])
        assert rc == 0
        assert "no error bound to check" in capsys.readouterr().out
        assert out.exists()

    def test_compress_codec_auto_prints_tuning_report(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "field.auto"
        rc = main(["compress", str(path), "1e-3", "--codec", "auto", "-o", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "auto-tuner:" in text
        assert "<== chosen" in text
        assert "Pass error check!" in text

    def test_bad_codec_opt_format_exits(self, raw_field):
        path, _ = raw_field
        with pytest.raises(SystemExit):
            main(["compress", str(path), "1e-3", "--codec", "cusz", "--codec-opt", "rate16"])

    def test_decompress_forced_codec(self, raw_field, tmp_path, capsys):
        path, _ = raw_field
        out = tmp_path / "f.fzgpu"
        assert main(["compress", str(path), "1e-3", "--codec", "fzgpu", "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["decompress", str(out), "--codec", "fzgpu", "-o", str(tmp_path / "r.f32")]) == 0
        # forcing the wrong plugin is a classified failure, not a traceback
        assert main(["decompress", str(out), "--codec", "mgard", "-o", str(tmp_path / "x.f32")]) == 1
        assert "not a stream of any registered codec" in capsys.readouterr().out

    def test_pack_codec_auto_reports_per_field_choices(self, tmp_path, capsys):
        out = tmp_path / "hacc.arch"
        rc = main(["pack", "HACC", "--codec", "auto", "-o", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "codec auto" in text
        assert text.count("sample ratio") == 6  # one line per HACC field

        assert main(["extract", str(out), "xx", "-o", str(tmp_path / "xx.f32")]) == 0

    def test_pack_fixed_codec(self, tmp_path, capsys):
        out = tmp_path / "hacc2.arch"
        assert main(["pack", "HACC", "--codec", "cuszx", "-o", str(out)]) == 0
        assert "codec cuszx" in capsys.readouterr().out
        assert main(["extract", str(out), "vx", "-o", str(tmp_path / "vx.f32")]) == 0
