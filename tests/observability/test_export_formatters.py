"""Coverage for the export.py subsystem summary formatters.

``format_blocking_summary`` / ``format_store_summary`` /
``format_resilience_summary`` render "" for runs that never touched
their subsystem — the CLI prints them unconditionally, so the
empty-snapshot contract is load-bearing.
"""

from repro.observability.export import (
    format_blocking_summary,
    format_resilience_summary,
    format_store_summary,
)

_EMPTY = {"counters": {}, "histograms": {}}


class TestBlockingSummary:
    def test_empty_snapshot_is_silent(self):
        assert format_blocking_summary(_EMPTY) == ""
        assert format_blocking_summary({}) == ""

    def test_requires_pairs_generated(self):
        # pruned alone (no generated) means no blocker ran
        snapshot = {"counters": {"blocking.pairs_pruned": 5}}
        assert format_blocking_summary(snapshot) == ""

    def test_full_snapshot(self):
        snapshot = {
            "counters": {
                "blocking.pairs_generated": 25,
                "blocking.pairs_pruned": 75,
                "executor.pairs_evaluated": 25,
            }
        }
        text = format_blocking_summary(snapshot)
        assert "pairs generated   25" in text
        assert "pairs pruned      75" in text
        assert "reduction ratio   75.00%" in text
        assert "pairs evaluated   25" in text

    def test_partial_without_executor(self):
        snapshot = {"counters": {"blocking.pairs_generated": 10}}
        text = format_blocking_summary(snapshot)
        assert "pairs generated   10" in text
        assert "pairs evaluated" not in text

    def test_zero_generated_still_renders(self):
        snapshot = {
            "counters": {
                "blocking.pairs_generated": 0,
                "blocking.pairs_pruned": 0,
            }
        }
        text = format_blocking_summary(snapshot)
        assert "reduction ratio   0.00%" in text


class TestStoreSummary:
    def test_empty_snapshot_is_silent(self):
        assert format_store_summary(_EMPTY) == ""
        assert format_store_summary({}) == ""

    def test_writes_only(self):
        snapshot = {"counters": {"store.writes": 12}}
        text = format_store_summary(snapshot)
        assert "table writes      12" in text
        assert "journal entries   0" in text
        assert "transactions" not in text

    def test_journal_only(self):
        snapshot = {"counters": {"store.journal_entries": 7}}
        text = format_store_summary(snapshot)
        assert "journal entries   7" in text

    def test_full_snapshot_with_checkpoint_size(self):
        snapshot = {
            "counters": {
                "store.writes": 10,
                "store.journal_entries": 10,
                "store.removes": 2,
                "store.transactions": 3,
                "store.checkpoints": 1,
            },
            "histograms": {
                "store.checkpoint_bytes": {
                    "count": 1,
                    "sum": 4096.0,
                    "min": 4096.0,
                    "max": 4096.0,
                    "mean": 4096.0,
                }
            },
        }
        text = format_store_summary(snapshot)
        assert "removes           2" in text
        assert "transactions      3" in text
        assert "checkpoints       1" in text


class TestResilienceSummary:
    def test_empty_snapshot_is_silent(self):
        assert format_resilience_summary(_EMPTY) == ""
        assert format_resilience_summary({}) == ""

    def test_zero_valued_counters_stay_silent(self):
        snapshot = {"counters": {"resilience.retries": 0}}
        assert format_resilience_summary(snapshot) == ""

    def test_partial_snapshot_lists_only_nonzero(self):
        snapshot = {
            "counters": {
                "resilience.retries": 3,
                "resilience.commit_failures": 0,
            }
        }
        text = format_resilience_summary(snapshot)
        assert "retries" in text
        assert "commit failures" not in text

    def test_full_snapshot(self):
        snapshot = {
            "counters": {
                "resilience.faults_injected": 2,
                "resilience.retries": 3,
                "resilience.pairs_quarantined": 1,
                "resilience.commit_failures": 1,
                "resilience.salvages": 1,
            }
        }
        text = format_resilience_summary(snapshot)
        assert text.startswith("resilience (fault handling):")
        for label in (
            "faults injected",
            "retries",
            "pairs quarantined",
            "commit failures",
            "salvages",
        ):
            assert label in text
