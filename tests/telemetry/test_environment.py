"""Tests for repro.telemetry.environment (the shared env header)."""

import platform

from repro.telemetry import (
    capture_environment,
    environment_fingerprint,
    git_sha,
)


class TestCaptureEnvironment:
    def test_has_the_header_fields(self):
        env = capture_environment()
        assert set(env) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "cpu_count",
            "git_sha",
            "timestamp",
        }

    def test_python_version_matches_interpreter(self):
        assert capture_environment()["python"] == platform.python_version()

    def test_cpu_count_is_positive(self):
        assert capture_environment()["cpu_count"] >= 1

    def test_timestamp_is_utc_iso(self):
        stamp = capture_environment()["timestamp"]
        assert stamp.endswith("Z")
        assert "T" in stamp

    def test_json_plain(self):
        import json

        json.dumps(capture_environment())


class TestGitSha:
    def test_resolves_in_this_repo(self, tmp_path, monkeypatch):
        # With no argument, git_sha() walks up from the current directory
        # to the nearest .git — built here, so the test needs no clone.
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("d" * 40 + "\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        monkeypatch.chdir(nested)
        assert git_sha() == "d" * 40

    def test_outside_any_repo_is_empty(self, tmp_path):
        assert git_sha(str(tmp_path)) == ""

    def test_loose_ref(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
        assert git_sha(str(tmp_path)) == "a" * 40

    def test_packed_ref(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            + "b" * 40
            + " refs/heads/main\n"
        )
        assert git_sha(str(tmp_path)) == "b" * 40

    def test_detached_head(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("c" * 40 + "\n")
        assert git_sha(str(tmp_path)) == "c" * 40


class TestFingerprint:
    def test_shape(self):
        env = {"python": "3.11.7", "machine": "x86_64", "cpu_count": 2}
        assert environment_fingerprint(env) == "py3.11-x86_64-cpu2"

    def test_stable_across_patch_versions(self):
        a = {"python": "3.11.7", "machine": "arm64", "cpu_count": 8}
        b = {"python": "3.11.9", "machine": "arm64", "cpu_count": 8}
        assert environment_fingerprint(a) == environment_fingerprint(b)

    def test_empty_env(self):
        assert environment_fingerprint({})  # never raises, still a string
