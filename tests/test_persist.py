"""Tests for repro.utils.persist: the atomic write-then-rename helpers
that back every durable artifact on the orchestration path (journals,
ledgers, bench pins, sweep outputs)."""

import json
import os

import pytest

from repro.utils.persist import atomic_write_text, save_json


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text(encoding="utf-8") == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text(encoding="utf-8") == "new"

    def test_no_tmp_file_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_leaves_previous_content_and_no_tmp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "durable")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "torn")
        assert target.read_text(encoding="utf-8") == "durable"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_tmp_is_a_sibling(self, tmp_path, monkeypatch):
        # The tmp file must live next to the target (same filesystem),
        # or os.replace would degrade to a non-atomic copy.
        seen = {}
        real_replace = os.replace

        def spy(src, dst):
            seen["src"] = str(src)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        target = tmp_path / "deep" / "out.txt"
        target.parent.mkdir()
        atomic_write_text(target, "x")
        assert os.path.dirname(seen["src"]) == str(target.parent)


class TestSaveJson:
    def test_round_trip_with_trailing_newline(self, tmp_path):
        target = tmp_path / "payload.json"
        save_json(target, {"b": 2, "a": [1, 2]})
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == {"b": 2, "a": [1, 2]}

    def test_matches_previous_bare_write_format(self, tmp_path):
        # Byte-for-byte what obs.benchsuite wrote before it adopted the
        # atomic helper, so pinned artifacts do not churn.
        payload = {"schema": 1, "entries": []}
        target = tmp_path / "pin.json"
        save_json(target, payload)
        assert target.read_text(encoding="utf-8") == (
            json.dumps(payload, indent=2) + "\n"
        )
