"""The exit-code contract of every verdict-bearing subcommand.

All ``repro`` subcommands speak the same three-way protocol:

- **0** — green: the run completed and the verdict is clean (sound key,
  conformance all green, resume verified);
- **1** — degraded: the run completed but the verdict is qualified
  (unsound key, conformance mismatch/drift, salvaged session);
- **2** — fatal: the run could not produce a trustworthy result
  (usage error, damaged checkpoint without --salvage, unrecoverable
  faults).

These are contract tests: scripts and the CI pipeline branch on these
codes, so the mapping is pinned here across ``identify``, ``resume``
(including ``--salvage``), ``checkpoint``, and ``conform``, and every
input error is pinned to one ``repro <command>:`` line and exit 2.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main

IDENTIFY_ARGS = [
    "--r-key", "name,cuisine",
    "--s-key", "name,speciality",
    "--ilfd", "speciality=Mughalai -> cuisine=Indian",
]


@pytest.fixture
def csvs(tmp_path):
    r_path = tmp_path / "R.csv"
    r_path.write_text(
        "name,cuisine,street\n"
        "TwinCities,Chinese,Wash.Ave.\n"
        "TwinCities,Indian,Univ.Ave.\n"
    )
    s_path = tmp_path / "S.csv"
    s_path.write_text("name,speciality,city\nTwinCities,Mughalai,St.Paul\n")
    return r_path, s_path


@pytest.fixture
def checkpoint(csvs, tmp_path):
    r_path, s_path = csvs
    ckpt = tmp_path / "session.sqlite"
    status = main(
        ["checkpoint", str(r_path), str(s_path), str(ckpt),
         *IDENTIFY_ARGS, "--extended-key", "name,cuisine", "--quiet"]
    )
    assert status == 0
    return ckpt


class TestIdentifyExitCodes:
    def test_sound_key_exits_zero(self, csvs):
        r_path, s_path = csvs
        assert main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--extended-key", "name,cuisine", "--quiet"]
        ) == 0

    def test_unsound_key_exits_one(self, csvs):
        r_path, s_path = csvs
        assert main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--extended-key", "name", "--quiet"]
        ) == 1

    @pytest.mark.parametrize("blocker", [[], ["--blocker", "hash"],
                                         ["--blocker", "cross"]],
                             ids=["default", "hash", "cross"])
    @pytest.mark.parametrize("flags", [[], ["--metrics"], ["--store"]],
                             ids=["plain", "metrics", "store"])
    def test_inconsistent_rules_exit_two(
        self, tmp_path, capsys, blocker, flags
    ):
        # The one pair matches on a sound key, yet the ILFD's dual says
        # a Hunan restaurant serving Thai food is a different entity.
        for side in ("R", "S"):
            (tmp_path / f"{side}.csv").write_text(
                "name,speciality,cuisine\nTwinCities,Hunan,Thai\n"
            )
        if flags == ["--store"]:
            flags = ["--store", f"sqlite:{tmp_path / 'run.sqlite'}"]
        status = main(
            ["identify", str(tmp_path / "R.csv"), str(tmp_path / "S.csv"),
             "--r-key", "name,cuisine", "--s-key", "name,speciality",
             "--extended-key", "name,cuisine",
             "--ilfd", "speciality=Hunan -> cuisine=Chinese",
             "--quiet", *blocker, *flags]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("repro identify: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("blocker", ["hash", "cross"])
    def test_unsound_key_exits_one_on_every_blocker(self, csvs, blocker):
        r_path, s_path = csvs
        assert main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--extended-key", "name", "--blocker", blocker, "--metrics",
             "--quiet"]
        ) == 1

    def test_usage_error_exits_two(self, csvs, capsys):
        r_path, s_path = csvs
        assert main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--extended-key", "name,cuisine",
             "--workers", "0", "--quiet"]
        ) == 2
        assert "--workers" in capsys.readouterr().err

    def test_unrecoverable_fault_exits_two(self, csvs, tmp_path, capsys):
        r_path, s_path = csvs
        assert main(
            ["identify", str(r_path), str(s_path), *IDENTIFY_ARGS,
             "--extended-key", "name,cuisine",
             "--store", f"sqlite:{tmp_path / 'run.sqlite'}",
             "--retries", "2", "--quiet",
             "--inject-faults", "store.commit:error@0..9"]
        ) == 2
        assert "store.commit" in capsys.readouterr().err


class TestResumeExitCodes:
    def test_clean_resume_exits_zero(self, checkpoint):
        assert main(["resume", str(checkpoint), "--quiet"]) == 0

    def test_damaged_checkpoint_exits_two_without_salvage(
        self, checkpoint, capsys
    ):
        with open(checkpoint, "r+b") as handle:
            handle.truncate(os.path.getsize(checkpoint) // 2)
        assert main(["resume", str(checkpoint), "--quiet"]) == 2
        assert "--salvage" in capsys.readouterr().err

    def test_salvaged_session_exits_one(self, csvs, checkpoint, tmp_path):
        r_path, s_path = csvs
        with open(checkpoint, "r+b") as handle:
            handle.truncate(int(os.path.getsize(checkpoint) * 0.4))
        assert main(
            ["resume", str(checkpoint), "--salvage",
             "--salvage-out", str(tmp_path / "rebuilt.sqlite"),
             "--salvage-r", str(r_path), "--salvage-r-key", "name,cuisine",
             "--salvage-s", str(s_path), "--salvage-s-key",
             "name,speciality",
             "--salvage-extended-key", "name,cuisine", "--quiet"]
        ) == 1

    def test_missing_checkpoint_exits_two(self, tmp_path):
        missing = tmp_path / "nowhere.sqlite"
        assert main(["resume", str(missing), "--quiet"]) == 2
        assert not missing.exists()  # refused, not created empty

    @pytest.mark.parametrize("action", [["show"], ["export", "--out", "x.csv"]],
                             ids=["show", "export"])
    def test_missing_entity_store_exits_two(self, tmp_path, capsys, action):
        missing = tmp_path / "nowhere.sqlite"
        assert main(["entities", action[0], str(missing), *action[1:]]) == 2
        assert capsys.readouterr().err.startswith("repro entities: no such store")
        assert not missing.exists()

    def test_duplicate_insert_exits_two(self, csvs, checkpoint, capsys):
        # R.csv repeats keys the checkpoint already holds: a CoreError,
        # reported as one line rather than a traceback.
        r_path, _ = csvs
        status = main(
            ["resume", str(checkpoint), "--insert-r", str(r_path), "--quiet"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("repro resume: ")
        assert "duplicate key" in err
        assert len(err.strip().splitlines()) == 1


class TestCheckpointExitCodes:
    def test_inconsistent_rules_exit_two(self, tmp_path, capsys):
        # The sources' one pair matches, but the ILFD's dual declares it
        # distinct: the session refuses it and nothing is checkpointed.
        for side in ("R", "S"):
            (tmp_path / f"{side}.csv").write_text(
                "name,speciality,cuisine\nTwinCities,Hunan,Thai\n"
            )
        ckpt = tmp_path / "session.sqlite"
        status = main(
            ["checkpoint", str(tmp_path / "R.csv"), str(tmp_path / "S.csv"),
             str(ckpt), "--r-key", "name,speciality",
             "--s-key", "name,speciality", "--extended-key", "name,cuisine",
             "--ilfd", "speciality=Hunan -> cuisine=Chinese", "--quiet"]
        )
        err = capsys.readouterr().err
        assert status == 2
        assert err.startswith("repro checkpoint: ")
        assert len(err.strip().splitlines()) == 1
        assert not ckpt.exists()


class TestConformExitCodes:
    def test_green_run_exits_zero(self):
        assert main(
            ["conform", "restaurants", "--entities", "6",
             "--matrix", "none", "--quiet"]
        ) == 0

    def test_golden_drift_exits_one(self, tmp_path):
        golden_dir = tmp_path / "golden"
        assert main(
            ["conform", "--matrix", "none", "--no-oracles",
             "--no-metamorphic", "--golden", str(golden_dir),
             "--golden-workload", "example3", "--update-golden",
             "--quiet"]
        ) == 0
        path = golden_dir / "example3.json"
        data = json.loads(path.read_text())
        data["nmt_fingerprint"] = "0" * 64
        path.write_text(json.dumps(data))
        assert main(
            ["conform", "--matrix", "none", "--no-oracles",
             "--no-metamorphic", "--golden", str(golden_dir),
             "--golden-workload", "example3", "--quiet"]
        ) == 1

    def test_unknown_workload_exits_two(self, capsys):
        assert main(["conform", "klingons", "--matrix", "none"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_json_verdict_matches_exit_code(self, capsys):
        status = main(
            ["conform", "restaurants", "--entities", "6",
             "--matrix", "none", "--no-metamorphic", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["ok"] is True
        assert payload["workloads"]["restaurants"]["oracles"]["ok"] is True


# Each case builds the argv of one missing, unwritable or malformed
# input from (R.csv, S.csv, scratch dir, checkpoint).  Every one must
# exit 2 with exactly one "repro <command>:" stderr line, no traceback.
_N_WAY_KEYS = ["--key", "R=name,cuisine", "--key", "S=name,speciality"]
INPUT_ERRORS = {
    "identify-missing-csv": lambda r, s, d, ck: [
        "identify", str(d / "missing.csv"), s, *IDENTIFY_ARGS,
        "--extended-key", "name,cuisine"],
    "identify-missing-ilfds-csv": lambda r, s, d, ck: [
        "identify", r, s, *IDENTIFY_ARGS, "--extended-key", "name,cuisine",
        "--ilfds-csv", str(d / "missing.csv")],
    "identify-missing-mine": lambda r, s, d, ck: [
        "identify", r, s, *IDENTIFY_ARGS, "--extended-key", "name,cuisine",
        "--mine", str(d / "missing.csv")],
    "identify-bad-ilfd": lambda r, s, d, ck: [
        "identify", r, s, *IDENTIFY_ARGS, "--extended-key", "name,cuisine",
        "--ilfd", "garbage"],
    "checkpoint-bad-ilfd": lambda r, s, d, ck: [
        "checkpoint", r, s, str(d / "new.sqlite"), *IDENTIFY_ARGS,
        "--extended-key", "name,cuisine", "--ilfd", "garbage"],
    "resume-bad-ilfd": lambda r, s, d, ck: [
        "resume", ck, "--ilfd", "garbage"],
    "identify-unknown-key": lambda r, s, d, ck: [
        "identify", r, s, "--r-key", "name,nosuch", "--s-key",
        "name,speciality", "--extended-key", "name,cuisine"],
    "identify-source-unknown-key": lambda r, s, d, ck: [
        "identify", "--source", f"R={r}", "--source", f"S={s}",
        "--key", "R=name,nosuch", "--key", "S=name,speciality",
        "--extended-key", "name,cuisine"],
    "identify-unwritable-out": lambda r, s, d, ck: [
        "identify", r, s, *IDENTIFY_ARGS, "--extended-key", "name,cuisine",
        "--out", str(d / "nonexistent" / "x.csv")],
    "identify-source-unwritable-out": lambda r, s, d, ck: [
        "identify", "--source", f"R={r}", "--source", f"S={s}",
        *_N_WAY_KEYS, "--extended-key", "name,cuisine",
        "--out", str(d / "nonexistent" / "x.csv")],
    "checkpoint-missing-csv": lambda r, s, d, ck: [
        "checkpoint", r, str(d / "missing.csv"), str(d / "new.sqlite"),
        *IDENTIFY_ARGS, "--extended-key", "name,cuisine"],
    "resume-missing-insert": lambda r, s, d, ck: [
        "resume", ck, "--insert-r", str(d / "missing.csv")],
    "chaos-negative-entities": lambda r, s, d, ck: [
        "chaos", "--entities-count", "-1"],
    "identify-empty-extended-key": lambda r, s, d, ck: [
        "identify", r, s, *IDENTIFY_ARGS, "--extended-key", ""],
    "identify-source-empty-extended-key": lambda r, s, d, ck: [
        "identify", "--source", f"R={r}", "--source", f"S={s}",
        *_N_WAY_KEYS, "--extended-key", ""],
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_is_one_line_exit_two(
    case, csvs, checkpoint, tmp_path, capsys
):
    r_path, s_path = csvs
    argv = INPUT_ERRORS[case](str(r_path), str(s_path), tmp_path, str(checkpoint))
    capsys.readouterr()
    status = main(argv)
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith(f"repro {argv[0]}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
