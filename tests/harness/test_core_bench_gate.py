"""The core throughput benchmark's CI gate checks compress and decompress."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_core_throughput.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_core_throughput", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(compress: float, decompress: float) -> dict:
    head = {"compress_MiBps": compress, "decompress_MiBps": decompress}
    return {"quick": True, "headline_by_backend": {"numpy": head}}


@pytest.fixture
def reference(tmp_path) -> str:
    path = tmp_path / "BENCH_core.json"
    ref = {"numpy": {"elements": 1 << 20, "compress_MiBps": 200.0, "decompress_MiBps": 100.0}}
    path.write_text(json.dumps({"ci_reference": ref}))
    return str(path)


@pytest.mark.parametrize(
    "compress, decompress, rc",
    [(141.0, 71.0, 0), (139.0, 71.0, 1), (141.0, 69.0, 1)],
)
def test_each_direction_gated_at_the_floor(bench, reference, compress, decompress, rc):
    assert bench.check_regression(_report(compress, decompress), reference) == rc


def test_reference_without_decompress_gates_compress_only(bench, tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"ci_reference": {"numpy": {"compress_MiBps": 200.0}}}))
    assert bench.check_regression(_report(150.0, 1.0), str(path)) == 0
    assert "no committed decompress reference" in capsys.readouterr().out
