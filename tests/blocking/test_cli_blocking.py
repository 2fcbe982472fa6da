"""CLI --blocker flag and the stats blocking section."""

import pytest

from repro.cli import main
from repro.observability import (
    MetricsRegistry,
    format_blocking_summary,
    register_metric,
)
from repro.observability.metrics import WELL_KNOWN_METRICS


@pytest.fixture
def demo_csvs(tmp_path):
    r_path = tmp_path / "R.csv"
    r_path.write_text(
        "name,cuisine,street\n"
        "TwinCities,Chinese,Wash.Ave.\n"
        "Kabul,Afghani,Univ.Ave.\n"
    )
    s_path = tmp_path / "S.csv"
    s_path.write_text(
        "name,speciality,city\n"
        "TwinCities,Dumplings,St.Paul\n"
        "Kabul,Kebab,Mpls\n"
    )
    return r_path, s_path


def _identify(r_path, s_path, *extra):
    return main(
        [
            str(r_path),
            str(s_path),
            "--r-key", "name",
            "--s-key", "name",
            "--extended-key", "name",
            *extra,
        ]
    )


class TestBlockerFlag:
    @pytest.mark.parametrize("blocker", ["cross", "hash"])
    def test_same_output_as_legacy(self, demo_csvs, capsys, blocker):
        r_path, s_path = demo_csvs
        legacy_status = _identify(r_path, s_path)
        legacy_out = capsys.readouterr().out
        blocked_status = _identify(r_path, s_path, "--blocker", blocker)
        blocked_out = capsys.readouterr().out
        assert blocked_status == legacy_status
        assert blocked_out == legacy_out

    def test_unknown_blocker_rejected(self, demo_csvs):
        r_path, s_path = demo_csvs
        with pytest.raises(SystemExit):
            _identify(r_path, s_path, "--blocker", "bogus")

    def test_metrics_report_blocking_counters(self, demo_csvs, capsys):
        r_path, s_path = demo_csvs
        status = _identify(
            r_path, s_path, "--blocker", "hash", "--metrics", "--quiet",
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "blocking.pairs_generated" in out
        assert "executor.pairs_evaluated" in out

    def test_stats_renders_blocking_section(self, demo_csvs, tmp_path, capsys):
        r_path, s_path = demo_csvs
        trace = tmp_path / "trace.jsonl"
        _identify(
            r_path, s_path, "--blocker", "hash", "--trace", str(trace), "--quiet"
        )
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "blocking (candidate generation):" in out
        assert "reduction ratio" in out


class TestObservabilityRegistry:
    def test_blocking_metrics_are_well_known(self):
        for name in (
            "blocking.pairs_generated",
            "blocking.pairs_pruned",
            "executor.pairs_evaluated",
        ):
            assert MetricsRegistry.description(name)
            assert name in WELL_KNOWN_METRICS

    def test_register_metric(self):
        register_metric("blocking.test_metric", "a test metric")
        try:
            assert MetricsRegistry.description("blocking.test_metric") == (
                "a test metric"
            )
        finally:
            WELL_KNOWN_METRICS.pop("blocking.test_metric", None)

    def test_summary_empty_without_blocking_counters(self):
        assert format_blocking_summary({"counters": {}, "histograms": {}}) == ""
