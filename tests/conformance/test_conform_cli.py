"""The ``repro conform`` subcommand."""

import json

import pytest

from repro.cli import build_conform_parser, conform_main, main


class TestArguments:
    def test_parser_defaults(self):
        args = build_conform_parser().parse_args([])
        assert args.workloads == []
        assert args.entities == 12
        assert args.matrix == "full"
        assert not args.update_golden

    def test_unknown_workload_is_fatal(self, capsys):
        assert conform_main(["klingons", "--matrix", "none"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_update_golden_requires_golden_dir(self, capsys):
        assert conform_main(["--update-golden"]) == 2
        assert "--golden" in capsys.readouterr().err

    def test_too_few_entities_is_fatal(self, capsys):
        assert conform_main(["--entities", "1"]) == 2
        assert "--entities" in capsys.readouterr().err

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            conform_main(["--no-such-flag"])
        assert excinfo.value.code == 2


class TestConformRuns:
    def test_oracles_and_metamorphic_only(self, capsys):
        status = conform_main(
            ["restaurants", "--entities", "8", "--matrix", "none"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "oracles [restaurants]" in out
        assert "metamorphic [restaurants]" in out
        assert "all green" in out

    def test_strict_matrix_run(self, capsys):
        status = conform_main(
            [
                "restaurants",
                "--entities", "8",
                "--matrix", "strict",
                "--no-metamorphic",
                "--no-oracles",
                "--no-prototype",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "differential matrix [restaurants]" in out
        assert "0 mismatch(es)" in out

    def test_json_output_shape(self, capsys):
        status = conform_main(
            ["restaurants", "--entities", "8", "--matrix", "none", "--json"]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        entry = payload["workloads"]["restaurants"]
        assert entry["oracles"]["ok"] is True
        assert {r["oracle"] for r in entry["oracles"]["reports"]} == {
            "soundness",
            "completeness",
            "uniqueness",
            "consistency",
        }
        assert entry["metamorphic"]["ok"] is True
        assert len(entry["metamorphic"]["cases"]) == 4

    def test_json_differential_shape(self, capsys):
        status = conform_main(
            [
                "restaurants",
                "--entities", "6",
                "--matrix", "strict",
                "--no-metamorphic",
                "--no-oracles",
                "--no-prototype",
                "--json",
            ]
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        diff = payload["workloads"]["restaurants"]["differential"]
        assert diff["green"] is True
        assert diff["cells"] == 10
        assert len(diff["mt_fingerprint"]) == 64
        assert diff["mismatches"] == []

    def test_quiet_suppresses_output(self, capsys):
        status = conform_main(
            ["restaurants", "--entities", "6", "--matrix", "none", "--quiet"]
        )
        assert status == 0
        assert capsys.readouterr().out == ""

    def test_dispatch_through_main(self, capsys):
        status = main(
            [
                "conform",
                "restaurants",
                "--entities", "6",
                "--matrix", "none",
                "--no-metamorphic",
                "--quiet",
            ]
        )
        assert status == 0

    def test_metrics_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "conform.jsonl"
        status = conform_main(
            [
                "restaurants",
                "--entities", "6",
                "--matrix", "none",
                "--no-metamorphic",
                "--metrics",
                "--trace", str(trace_path),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "conformance.oracle_checks" in out
        assert trace_path.exists()


class TestGoldenFlow:
    def test_update_then_check(self, tmp_path, capsys):
        golden_dir = tmp_path / "golden"
        status = conform_main(
            [
                "--matrix", "none",
                "--no-oracles",
                "--no-metamorphic",
                "--golden", str(golden_dir),
                "--golden-workload", "example3",
                "--update-golden",
            ]
        )
        assert status == 0
        assert "re-frozen" in capsys.readouterr().out
        status = conform_main(
            [
                "--matrix", "none",
                "--no-oracles",
                "--no-metamorphic",
                "--golden", str(golden_dir),
                "--golden-workload", "example3",
            ]
        )
        assert status == 0
        assert "no drift" in capsys.readouterr().out

    def test_drift_degrades_exit_status(self, tmp_path, capsys):
        golden_dir = tmp_path / "golden"
        conform_main(
            [
                "--matrix", "none", "--no-oracles", "--no-metamorphic",
                "--golden", str(golden_dir),
                "--golden-workload", "example3",
                "--update-golden", "--quiet",
            ]
        )
        tampered = golden_dir / "example3.json"
        data = json.loads(tampered.read_text())
        data["mt_fingerprint"] = "f" * 64
        tampered.write_text(json.dumps(data))
        status = conform_main(
            [
                "--matrix", "none", "--no-oracles", "--no-metamorphic",
                "--golden", str(golden_dir),
                "--golden-workload", "example3",
                "--json",
            ]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert "example3" in payload["golden"]["drift"]

    def test_unknown_golden_workload_is_fatal(self, tmp_path, capsys):
        status = conform_main(
            [
                "--matrix", "none", "--no-oracles", "--no-metamorphic",
                "--golden", str(tmp_path),
                "--golden-workload", "klingons",
                "--update-golden",
            ]
        )
        assert status == 2
        assert "unknown golden workload" in capsys.readouterr().err

    @pytest.mark.slow
    def test_full_corpus_update_then_check(self, tmp_path):
        golden_dir = tmp_path / "golden"
        assert conform_main(
            [
                "--matrix", "none", "--no-oracles", "--no-metamorphic",
                "--golden", str(golden_dir), "--update-golden", "--quiet",
            ]
        ) == 0
        assert conform_main(
            [
                "--matrix", "none", "--no-oracles", "--no-metamorphic",
                "--golden", str(golden_dir), "--quiet",
            ]
        ) == 0

    def test_missing_golden_dir_is_fatal(self, tmp_path, capsys):
        status = conform_main(
            [
                "--matrix", "none", "--no-oracles", "--no-metamorphic",
                "--golden", str(tmp_path / "nowhere"),
            ]
        )
        assert status == 2
        assert "golden" in capsys.readouterr().err
