"""CLI resilience: --inject-faults/--retries, exit codes, --salvage."""

import os

import pytest

from repro.cli import main

IDENTIFY_ARGS = [
    "--r-key", "name,cuisine",
    "--s-key", "name,speciality",
    "--extended-key", "name,cuisine",
    "--ilfd", "speciality=Mughalai -> cuisine=Indian",
]

# A memory store commits the matching table first (store.commit #0) and
# then the negative table (#1); both go through the pair executor's
# store write, which --retries retries after a failed commit.
COMMIT_FAULT = ["--store", "memory", "--inject-faults", "store.commit:crash@1"]


@pytest.fixture
def example_csvs(tmp_path):
    r_path = tmp_path / "R.csv"
    r_path.write_text(
        "name,cuisine,street\n"
        "TwinCities,Chinese,Wash.Ave.\n"
        "TwinCities,Indian,Univ.Ave.\n"
    )
    s_path = tmp_path / "S.csv"
    s_path.write_text("name,speciality,city\nTwinCities,Mughalai,St.Paul\n")
    return r_path, s_path


def _matching_tables(example_csvs, capsys, fault):
    """The matching table printed by a clean run and by a run that
    recovers from *fault* under --retries (which must exit 0)."""
    r_path, s_path = example_csvs
    args = ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS]
    assert main(args) == 0
    clean_out = capsys.readouterr().out
    status = main(
        [*args, "--retries", "3", "--retry-delay", "0", "--store", "memory",
         "--inject-faults", fault]
    )
    assert status == 0
    out = capsys.readouterr().out
    return clean_out.split("\n\n")[0], out.split("\n\n")[0]


class TestIdentifyFlags:
    def test_injected_crash_recovered_exit_zero(self, example_csvs, capsys):
        clean, recovered = _matching_tables(
            example_csvs, capsys, "store.commit:crash@1"
        )
        assert "Indian" in clean and recovered == clean

    def test_matching_table_commit_is_retried(self, example_csvs, capsys):
        clean, recovered = _matching_tables(
            example_csvs, capsys, "store.commit:crash@0"
        )
        assert "Indian" in clean and recovered == clean

    def test_metrics_report_the_fault_handling(self, example_csvs, capsys):
        r_path, s_path = example_csvs
        status = main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--retries", "3", "--metrics", "--quiet", *COMMIT_FAULT]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "resilience.commit_failures" in out
        assert "resilience.retries" in out

    def test_malformed_plan_is_a_usage_error(self, example_csvs, capsys):
        r_path, s_path = example_csvs
        status = main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--inject-faults", "no-index-here", "--quiet"]
        )
        assert status == 2
        assert "fault" in capsys.readouterr().err.lower()

    def test_zero_retries_is_a_usage_error(self, example_csvs, capsys):
        r_path, s_path = example_csvs
        status = main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--retries", "0", "--quiet"]
        )
        assert status == 2

    def test_unrecoverable_commit_faults_are_fatal(
        self, example_csvs, tmp_path, capsys
    ):
        r_path, s_path = example_csvs
        db = tmp_path / "run.sqlite"
        status = main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--store", f"sqlite:{db}", "--retries", "2", "--quiet",
             "--inject-faults", "store.commit:error@0..9"]
        )
        assert status == 2
        assert "store.commit" in capsys.readouterr().err


class TestStatsSection:
    def test_stats_renders_resilience_section(
        self, example_csvs, tmp_path, capsys
    ):
        r_path, s_path = example_csvs
        trace = tmp_path / "run.trace"
        status = main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--retries", "3", *COMMIT_FAULT,
             "--trace", str(trace), "--quiet"]
        )
        assert status == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "resilience (fault handling):" in out
        assert "commit failures" in out


class TestSalvageFlow:
    def _checkpoint(self, example_csvs, tmp_path):
        r_path, s_path = example_csvs
        ckpt = tmp_path / "session.sqlite"
        status = main(
            ["checkpoint", str(r_path), str(s_path), str(ckpt),
             *IDENTIFY_ARGS, "--quiet"]
        )
        assert status == 0
        return ckpt

    def test_truncated_resume_is_fatal_with_a_hint(
        self, example_csvs, tmp_path, capsys
    ):
        ckpt = self._checkpoint(example_csvs, tmp_path)
        size = os.path.getsize(ckpt)
        with open(ckpt, "r+b") as handle:
            handle.truncate(size // 2)
        status = main(["resume", str(ckpt), "--quiet"])
        assert status == 2
        assert "--salvage" in capsys.readouterr().err

    def test_salvage_rebuilds_a_resumable_session(
        self, example_csvs, tmp_path, capsys
    ):
        r_path, s_path = example_csvs
        ckpt = self._checkpoint(example_csvs, tmp_path)
        size = os.path.getsize(ckpt)
        with open(ckpt, "r+b") as handle:
            handle.truncate(int(size * 0.4))

        rebuilt = tmp_path / "rebuilt.sqlite"
        status = main(
            ["resume", str(ckpt), "--salvage",
             "--salvage-out", str(rebuilt),
             "--salvage-r", str(r_path), "--salvage-r-key", "name,cuisine",
             "--salvage-s", str(s_path), "--salvage-s-key", "name,speciality",
             "--salvage-extended-key", "name,cuisine"]
        )
        # Salvage succeeded, but the session is flagged degraded/partial.
        assert status == 1
        out = capsys.readouterr().out
        assert "salvage" in out

        status = main(["resume", str(rebuilt)])
        assert status == 0
        out = capsys.readouterr().out
        assert "1 match(es)" in out
