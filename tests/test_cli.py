"""Tests for the repro-identify CLI."""

from pathlib import Path

import pytest

from repro.cli import main, parse_ilfd
from repro.ilfd.ilfd import ILFD
from repro.relational.csvio import read_csv

DATA = Path(__file__).resolve().parent.parent / "examples" / "data"


@pytest.fixture
def example2_csvs(tmp_path):
    r_path = tmp_path / "R.csv"
    r_path.write_text(
        "name,cuisine,street\n"
        "TwinCities,Chinese,Wash.Ave.\n"
        "TwinCities,Indian,Univ.Ave.\n"
    )
    s_path = tmp_path / "S.csv"
    s_path.write_text(
        "name,speciality,city\nTwinCities,Mughalai,St.Paul\n"
    )
    return r_path, s_path


class TestParseIlfd:
    def test_single_condition(self):
        assert parse_ilfd("speciality=Mughalai -> cuisine=Indian") == ILFD(
            {"speciality": "Mughalai"}, {"cuisine": "Indian"}
        )

    def test_conjunction(self):
        ilfd = parse_ilfd("a=1 & b=2 -> c=3")
        assert ilfd == ILFD({"a": "1", "b": "2"}, {"c": "3"})

    def test_missing_arrow_rejected(self):
        with pytest.raises(ValueError):
            parse_ilfd("a=1, b=2")


class TestMain:
    def test_sound_run(self, example2_csvs, tmp_path, capsys):
        r_path, s_path = example2_csvs
        out_path = tmp_path / "out.csv"
        status = main(
            [
                str(r_path),
                str(s_path),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name,cuisine",
                "--ilfd", "speciality=Mughalai -> cuisine=Indian",
                "--out", str(out_path),
            ]
        )
        assert status == 0
        captured = capsys.readouterr().out
        assert "matching table" in captured
        assert "verified" in captured
        merged = read_csv(out_path, enforce_keys=False)
        assert len(merged) == 2  # 1 match + 1 unmatched R tuple

    def test_unsound_exit_status(self, example2_csvs, capsys):
        r_path, s_path = example2_csvs
        status = main(
            [
                str(r_path),
                str(s_path),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name",
                "--quiet",
            ]
        )
        assert status == 1  # degraded: the key is unsound

    def test_shipped_demo_data(self, capsys):
        """The README's exact command line, on the shipped data files."""
        status = main(
            [
                str(DATA / "restaurants_r.csv"),
                str(DATA / "restaurants_s.csv"),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name,cuisine,speciality",
                "--ilfds-csv", str(DATA / "speciality_cuisine.csv"),
                "--ilfds-file", str(DATA / "restaurant_knowledge.ilfd"),
                "--report",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "matching pairs:           3" in out
        assert "The extended key is verified." in out

    def test_report_mode(self, example2_csvs, capsys):
        r_path, s_path = example2_csvs
        status = main(
            [
                str(r_path),
                str(s_path),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name,cuisine",
                "--ilfd", "speciality=Mughalai -> cuisine=Indian",
                "--report",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "entity identification report" in out
        assert "matching pairs:" in out
        assert "The extended key is verified." in out

    def test_suggest_keys_mode(self, example2_csvs, capsys):
        r_path, s_path = example2_csvs
        status = main(
            [
                str(r_path),
                str(s_path),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name,cuisine",
                "--ilfd", "speciality=Mughalai -> cuisine=Indian",
                "--suggest-keys",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "sound" in out

    def test_mine_mode(self, example2_csvs, tmp_path, capsys):
        r_path, s_path = example2_csvs
        menu = tmp_path / "menu.csv"
        menu.write_text(
            "id,speciality,cuisine\n"
            "1,Mughalai,Indian\n"
            "2,Mughalai,Indian\n"
            "3,Gyros,Greek\n"
            "4,Gyros,Greek\n"
        )
        status = main(
            [
                str(r_path),
                str(s_path),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name,cuisine",
                "--mine", str(menu),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "mined" in out
        assert "TwinCities" in out  # the match found via mined knowledge

    def test_ilfds_csv(self, example2_csvs, tmp_path, capsys):
        r_path, s_path = example2_csvs
        table_path = tmp_path / "im.csv"
        table_path.write_text("speciality,cuisine\nMughalai,Indian\n")
        status = main(
            [
                str(r_path),
                str(s_path),
                "--r-key", "name,cuisine",
                "--s-key", "name,speciality",
                "--extended-key", "name,cuisine",
                "--ilfds-csv", str(table_path),
            ]
        )
        assert status == 0
        assert "TwinCities" in capsys.readouterr().out


def test_nway_member_keys_print_independent_of_hash_seed(tmp_path):
    """N-way `identify --source` renders each member key in the source's
    declared attribute order, so stdout is the same under every hash seed."""
    import os
    import subprocess
    import sys

    hr = tmp_path / "hr.csv"
    hr.write_text("name,dept,title\nAnn,Sales,Lead\nBob,Ops,Clerk\n")
    payroll = tmp_path / "payroll.csv"
    payroll.write_text("name,dept,rating\nAnn,Sales,A\nBob,Ops,B\n")
    argv = [
        sys.executable, "-m", "repro.cli", "identify",
        "--source", f"hr={hr}", "--source", f"payroll={payroll}",
        "--key", "hr=name,dept", "--key", "payroll=name,dept",
        "--extended-key", "name,dept",
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("1", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert "hr:('Ann', 'Sales')" in outputs[0]


def test_nway_conflict_metric_counts_each_disagreement_once(tmp_path, capsys):
    """`identify --source ... --out F --metrics` lists conflicts and then
    integrates; the counter still reads one per disagreement."""
    r = tmp_path / "r.csv"
    r.write_text("name,street\nAnn,Elm\nBob,Oak\n")
    t = tmp_path / "t.csv"
    t.write_text("name,street\nAnn,Main\nBob,Oak\n")
    status = main(
        [
            "identify",
            "--source", f"R={r}", "--source", f"T={t}",
            "--key", "R=name", "--key", "T=name",
            "--extended-key", "name",
            "--out", str(tmp_path / "out.csv"),
            "--metrics",
        ]
    )
    assert status == 0
    lines = capsys.readouterr().out.splitlines()
    assert "1 attribute conflict(s) between matched sources" in lines
    assert ["entities.conflicts", "1"] in [line.split() for line in lines]
