"""CLI surface: N-way identify routing and the ``repro entities`` commands."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def three_csvs(tmp_path):
    r = tmp_path / "R.csv"
    r.write_text(
        "name,speciality,street\n"
        "TwinCities,Hunan,Wash.Ave.\n"
        "Anjuman,Mughalai,LeSalleAve.\n"
    )
    s = tmp_path / "S.csv"
    s.write_text(
        "name,speciality,county\n"
        "TwinCities,Hunan,Mpls.\n"
        "Anjuman,Mughalai,Mpls.\n"
        "ItsGreek,Greek,Mpls.\n"
    )
    t = tmp_path / "T.csv"
    t.write_text(
        "name,speciality,phone\n"
        "TwinCities,Hunan,555-0101\n"
        "Anjuman,Mughalai,555-0202\n"
    )
    return r, s, t


def source_args(three_csvs):
    r, s, t = three_csvs
    return [
        "--source", f"R={r}",
        "--source", f"S={s}",
        "--source", f"T={t}",
        "--key", "R=name,speciality",
        "--key", "S=name,speciality",
        "--key", "T=name,speciality",
        "--extended-key", "name,speciality",
    ]


class TestIdentifyMultiwayRouting:
    def test_three_sources_route_to_multiway(self, three_csvs, capsys):
        status = main(["identify"] + source_args(three_csvs))
        assert status == 0
        out = capsys.readouterr().out
        assert "3 source" in out or "clusters" in out.lower()
        assert "TwinCities" in out

    def test_integrated_output_written(self, three_csvs, tmp_path, capsys):
        out_path = tmp_path / "integrated.csv"
        status = main(
            ["identify"] + source_args(three_csvs) + ["--out", str(out_path)]
        )
        assert status == 0
        text = out_path.read_text()
        assert "sources" in text.splitlines()[0]
        assert "R,S,T" in text

    def test_mixing_positionals_with_sources_rejected(self, three_csvs, capsys):
        r, s, _ = three_csvs
        status = main(
            ["identify", str(r), str(s)] + source_args(three_csvs)
        )
        assert status == 2

    def test_store_not_supported_multiway(self, three_csvs, tmp_path, capsys):
        status = main(
            ["identify"]
            + source_args(three_csvs)
            + ["--store", str(tmp_path / "x.sqlite")]
        )
        assert status == 2

    def test_two_source_form_still_needs_keys(self, three_csvs, capsys):
        r, s, _ = three_csvs
        status = main(
            ["identify", str(r), str(s), "--extended-key", "name,speciality"]
        )
        assert status == 2

    def test_unsound_key_names_each_violation(self, three_csvs, tmp_path, capsys):
        twice = tmp_path / "B.csv"
        twice.write_text("name,speciality,note\nAnjuman,Mughalai,a\nAnjuman,Mughalai,b\n")
        r, _, _ = three_csvs
        status = main(
            [
                "identify", "--source", f"R={r}", "--source", f"B={twice}",
                "--key", "R=name,speciality", "--key", "B=name,speciality,note",
                "--extended-key", "name,speciality",
            ]
        )
        assert status == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "uniqueness VIOLATED: B models ('Anjuman', 'Mughalai') 2 times"
        )

    def test_matched_pair_declared_distinct_is_fatal(self, tmp_path, capsys):
        # The same input 'entities build' refuses: the match fires the
        # speciality=Hunan -> cuisine=Chinese dual.
        args = ["identify"]
        for name in ("A", "B"):
            path = tmp_path / f"{name}.csv"
            path.write_text("name,speciality,cuisine\nTwinCities,Hunan,Thai\n")
            args += ["--source", f"{name}={path}", "--key", f"{name}=name,speciality"]
        args += [
            "--extended-key", "name,cuisine,speciality",
            "--ilfd", "speciality=Hunan -> cuisine=Chinese",
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("repro identify: ") and "TwinCities" in line
        assert captured.out == ""

    def test_unusable_extended_key_is_fatal(self, three_csvs, capsys):
        args = source_args(three_csvs)
        args[args.index("--extended-key") + 1] = "name,nope"
        assert main(["identify"] + args) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("repro identify: ") and "nope" in line
        assert captured.out == ""


class TestEntitiesBuild:
    def test_build_show_export_round_trip(self, three_csvs, tmp_path, capsys):
        store_path = tmp_path / "e.sqlite"
        status = main(
            ["entities", "build", str(store_path)] + source_args(three_csvs)
        )
        assert status == 0
        build_out = capsys.readouterr().out
        assert "canonical entit" in build_out

        assert main(["entities", "show", str(store_path)]) == 0
        show_out = capsys.readouterr().out
        assert "ent-" in show_out

        entity_id = next(
            token
            for line in show_out.splitlines()
            for token in line.split()
            if token.startswith("ent-")
        )
        assert main(
            ["entities", "show", str(store_path), "--entity", entity_id]
        ) == 0
        detail = capsys.readouterr().out
        assert entity_id in detail
        assert "golden" in detail.lower()

        out_csv = tmp_path / "golden.csv"
        assert main(
            ["entities", "export", str(store_path), "--out", str(out_csv)]
        ) == 0
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("entity_id,")
        assert header.endswith(",sources")

    def test_build_json_report(self, three_csvs, tmp_path, capsys):
        store_path = tmp_path / "e.sqlite"
        status = main(
            ["entities", "build", str(store_path)]
            + source_args(three_csvs)
            + ["--json", "--quiet"]
        )
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entities"] == 2  # TwinCities and Anjuman span >=2 sources
        assert report["sound"] is True
        assert report["fingerprint"]

    def test_survivorship_spec_applied(self, three_csvs, tmp_path, capsys):
        store_path = tmp_path / "e.sqlite"
        status = main(
            ["entities", "build", str(store_path)]
            + source_args(three_csvs)
            + ["--survivorship", "source_priority:T>S>R"]
        )
        assert status == 0

    def test_bad_survivorship_spec_is_usage_error(
        self, three_csvs, tmp_path, capsys
    ):
        status = main(
            ["entities", "build", str(tmp_path / "e.sqlite")]
            + source_args(three_csvs)
            + ["--survivorship", "coin_flip"]
        )
        assert status == 2

    def test_bad_source_spec_is_usage_error(self, tmp_path, capsys):
        status = main(
            [
                "entities", "build", str(tmp_path / "e.sqlite"),
                "--source", "not-a-name-eq-path",
                "--extended-key", "name",
            ]
        )
        assert status == 2

    def test_matched_pair_declared_distinct_is_fatal(self, tmp_path, capsys):
        # Both sources store cuisine=Thai for a Hunan restaurant, which
        # the speciality=Hunan -> cuisine=Chinese ILFD's dual contradicts.
        args = ["entities", "build", str(tmp_path / "e.sqlite")]
        for name in ("A", "B"):
            path = tmp_path / f"{name}.csv"
            path.write_text("name,speciality,cuisine\nTwinCities,Hunan,Thai\n")
            args += ["--source", f"{name}={path}", "--key", f"{name}=name,speciality"]
        args += [
            "--extended-key", "name,cuisine,speciality",
            "--ilfd", "speciality=Hunan -> cuisine=Chinese",
        ]
        assert main(args) == 2
        assert "TwinCities" in capsys.readouterr().err

    def test_show_without_build_is_fatal(self, tmp_path, capsys):
        from repro.store import SqliteStore

        path = tmp_path / "empty.sqlite"
        SqliteStore(path).close()
        assert main(["entities", "show", str(path)]) == 2
