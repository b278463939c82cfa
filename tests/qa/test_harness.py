"""The campaign loop: deterministic reports, early-stop bookkeeping and
the CI smoke campaign (marked ``qa``)."""

import pytest

from repro.qa import FuzzConfig, run_fuzz
from repro.qa.harness import smoke_campaign


class TestConfig:
    def test_unknown_path_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown path"):
            FuzzConfig(paths=("roundtrip", "nope"))

    def test_defaults_cover_all_oracles(self):
        assert set(FuzzConfig().paths) == {
            "roundtrip", "chunked", "random_access", "corruption", "store",
            "serve_shm", "codecs",
        }


class TestCampaign:
    def test_small_campaign_green_and_counted(self):
        report = run_fuzz(FuzzConfig(seed=0, iters=15))  # one family cycle
        assert report.ok, report.summary()
        assert report.iterations == 15
        assert sum(report.by_family.values()) == 15
        assert len(report.by_family) == 15  # every family seen once
        assert report.checks == sum(report.by_oracle.values())
        # nonfinite keeps only roundtrip; ndim2/ndim3 additionally drop
        # random_access and store
        assert report.by_oracle["roundtrip"] == 15
        assert report.by_oracle["chunked"] == 14
        assert report.by_oracle["random_access"] == 12
        assert report.by_oracle["corruption"] == 14

    def test_reports_are_reproducible(self):
        cfg = FuzzConfig(seed=3, iters=10, paths=("roundtrip",))
        a, b = run_fuzz(cfg), run_fuzz(cfg)
        assert a.by_family == b.by_family
        assert a.checks == b.checks
        assert a.ok and b.ok

    def test_time_budget_stops_early(self):
        report = run_fuzz(FuzzConfig(seed=0, iters=10_000, time_budget=1.0))
        assert report.iterations < 10_000
        assert "time budget" in (report.stopped_early or "")
        assert report.ok

    def test_summary_verdict_line(self):
        report = run_fuzz(FuzzConfig(seed=0, iters=3, paths=("roundtrip",)))
        assert report.summary().endswith("FUZZ PASSED")

    def test_worker_pool_path(self):
        report = run_fuzz(
            FuzzConfig(seed=1, iters=4, paths=("chunked",), workers=2)
        )
        assert report.ok, report.summary()


@pytest.mark.qa
class TestSmoke:
    def test_smoke_campaign_all_paths_green(self):
        report = smoke_campaign()
        assert report.ok, report.summary()
        assert report.iterations == 30
