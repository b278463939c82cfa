"""Tests of the benchmark suite itself: ``pytest benchmarks/suite/tests``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SUITE = Path(__file__).resolve().parents[1]
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import run  # noqa: E402
import spec  # noqa: E402
import summary  # noqa: E402
import workload  # noqa: E402

#: the limits BENCHMARK.json's names and units must keep
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# ---------------------------------------------------------------------------
# compare: one synthetic case per verdict
# ---------------------------------------------------------------------------

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
NOISY = [70.0, 130.0, 85.0, 115.0, 100.0, 60.0, 140.0, 95.0, 105.0, 100.0]


@pytest.mark.parametrize("parent, change, better, expected", [
    (STEADY, [v * 1.10 for v in STEADY], "higher", "improved"),
    (STEADY, [v * 0.90 for v in STEADY], "lower", "improved"),
    (STEADY, [v + 0.3 for v in reversed(STEADY)], "higher", "within bound"),
    (STEADY, [v * 0.90 for v in STEADY], "higher", "worse"),
    (STEADY, [v * 1.10 for v in STEADY], "lower", "worse"),
    (NOISY, [v * 0.98 for v in reversed(NOISY)], "higher", "unresolved"),
    # a wide spread is resolved when every change run beats every parent run
    (NOISY, [v + 1000.0 for v in NOISY], "higher", "improved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert summary.verdict(parent, change, better, bound=0.05) == expected


def test_compare_rows_report_quartiles_and_wins():
    rows = summary.compare({"w": {"m": STEADY}}, {"w": {"m": [v * 1.1 for v in STEADY]}},
                           {"m": ("x", "higher")}, {"m": 0.05})
    (row,) = rows
    assert row["wins"] == 1.0
    assert row["parent"]["q1"] <= row["parent"]["median"] <= row["parent"]["q3"]
    assert row["verdict"] == "improved"


def test_bound_is_three_spreads_within_limits():
    assert run.bound_of("setup_s", [0.0]) == 0.25
    assert run.bound_of("ratio", [0.0]) == 0.05
    assert run.bound_of("read_MiBps", [0.03, 0.041]) == 0.13
    assert run.bound_of("read_MiBps", [0.5]) == 0.25


def test_throughput_is_the_fastest_complete_cycle():
    phase = workload.Phase(period=4)
    for i in range(100):  # 25 cycles of 4; cycle c takes 4 * (c + 1) ms to write
        phase.ok("write", 1 << 20, (i // 4 + 1) / 1e3, i)
        phase.ok("read", 1 << 20, 2 * (i // 4 + 1) / 1e3, i)
    phase.ok("write", 1 << 20, 1e-6, 100)  # an incomplete cycle does not count
    m = phase.end_to_end()
    assert m["write_MiBps"] == pytest.approx(1000.0)
    assert m["read_MiBps"] == pytest.approx(500.0)
    assert phase.cycle_rates("read") == pytest.approx([500.0 / (c + 1) for c in range(25)])


def test_latency_percentiles_span_the_whole_run():
    phase = workload.Phase(period=1)
    for ms in range(1, 101):
        phase.ok("write", 1 << 20, ms / 1e3, ms)
    lat = phase.latency()["write"]
    assert lat["p50_ms"] == pytest.approx(50.5)
    assert lat[f"p{spec.TAIL}_ms"] == pytest.approx(np.percentile(range(1, 101), spec.TAIL))
    assert lat[f"beyond_p{spec.TAIL}"] == 100 - spec.TAIL and lat["n"] == lat["cycles"] == 100

# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with spec.py and with the format's limits
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bench == run.benchmark_json(bounds)
    assert 1 <= len(bench["per_layer"]) <= 128 and 2 <= len(bench["workloads"]) <= 8
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names), names
    units = [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(UNIT_RE.match(u) for u in units), units
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all((ROOT / p).is_dir() for p in bench["paths"])

# ---------------------------------------------------------------------------
# every operation's output is checked
# ---------------------------------------------------------------------------


def _perturbed(decode):
    def wrapper(*args, **kwargs):
        out = np.array(decode(*args, **kwargs))
        out.reshape(-1)[out.size // 2] += 1e3 * (float(out.max()) - float(out.min()) + 1.0)
        return out
    return wrapper


def test_perturbed_codec_decode_is_caught(monkeypatch):
    wl = workload.CodecBulk(seed=0, scale=0.01)
    wl.setup()
    wl.fields = [np.cumsum(np.random.default_rng(k).normal(size=4096)).astype(np.float32)
                 for k in range(4)]
    monkeypatch.setattr(workload.repro, "decompress", _perturbed(workload.repro.decompress))
    phase = workload.Phase(wl.PERIOD)
    wl.measure(0.0, phase, None)
    assert phase.failed == len(wl.fields) and phase.attempted == 2 * len(wl.fields)
    assert "error bound" in phase.errors[0]


# ---------------------------------------------------------------------------
# smoke: the whole suite, scaled down
# ---------------------------------------------------------------------------


def test_smoke_all_workloads(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--scale", "0.02", "--seconds", "0.5",
         "--trace", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert elapsed < 60, f"smoke suite took {elapsed:.1f}s"
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0
    result = json.loads(out.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    by_kind = {False: bench["end_to_end"], True: bench["per_layer"]}
    seen = set()
    for r in result["runs"]:
        assert r["failed"] == 0 and r["correct"], r["errors"]
        if not r["trace"]:
            assert all(s["n"] > 0 for s in r["latency"].values())
            assert len(r["setup_samples"]) == spec.SETUP_SAMPLES
        line = run.contract_line(r)
        for m in by_kind[r["trace"]]:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert np.isfinite(line["metrics"][m["name"]]["value"])
        seen.add((r["workload"], r["trace"]))
    assert seen == {(w, t) for w in spec.WORKLOADS for t in (False, True)}
    # the HTTP front end did its work: one decompress in four hits the cache
    traced = {r["workload"]: r["metrics"] for r in result["runs"] if r["trace"]}
    assert traced["http-small"]["serve.cache.hit_rate"] == pytest.approx(0.25)
    for m in traced.values():
        assert 0 <= m["bench.unattributed_frac"] < 0.5
