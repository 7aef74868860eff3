"""Tests for repro.utils.persist: the atomic write-then-rename helpers
and the append-only JSONL primitive that back every durable artifact on
the orchestration path (journals, ledgers, bench pins, sweep outputs)."""

import json
import os

import pytest

from repro.errors import LedgerCorruptError
from repro.utils.persist import (
    append_jsonl,
    atomic_write_text,
    read_jsonl,
    save_json,
)


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


class TestAppendJsonl:
    def test_appends_one_line_per_record(self, tmp_path):
        target = tmp_path / "log.jsonl"
        append_jsonl(target, {"a": 1})
        append_jsonl(target, {"b": [2, 3]})
        assert target.read_text(encoding="utf-8") == (
            json.dumps({"a": 1}) + "\n" + json.dumps({"b": [2, 3]}) + "\n"
        )

    def test_torn_tail_is_truncated_before_the_append(self, tmp_path):
        target = tmp_path / "log.jsonl"
        append_jsonl(target, {"a": 1})
        with open(target, "ab") as fh:
            fh.write(b'{"b": "torn')
        append_jsonl(target, {"c": 3})
        assert target.read_text(encoding="utf-8") == '{"a": 1}\n{"c": 3}\n'

    def test_fragment_longer_than_a_scan_chunk(self, tmp_path):
        target = tmp_path / "log.jsonl"
        append_jsonl(target, {"a": 1})
        with open(target, "ab") as fh:
            fh.write(b'{"b": "' + b"x" * 10_000)
        append_jsonl(target, {"c": 3})
        assert target.read_text(encoding="utf-8") == '{"a": 1}\n{"c": 3}\n'

    def test_file_holding_only_a_fragment(self, tmp_path):
        target = tmp_path / "log.jsonl"
        target.write_bytes(b'{"torn')
        append_jsonl(target, {"c": 3})
        assert target.read_text(encoding="utf-8") == '{"c": 3}\n'


class TestReadJsonl:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "log.jsonl"
        append_jsonl(target, {"a": 1})
        append_jsonl(target, {"b": 2})
        assert read_jsonl(target, LedgerCorruptError) == (
            [{"a": 1}, {"b": 2}],
            False,
        )

    @pytest.mark.parametrize("tail", ['{"b": 2', "[1, 2]\n"])
    def test_bad_final_line_is_dropped_and_reported(self, tmp_path, tail):
        target = tmp_path / "log.jsonl"
        target.write_text('{"a": 1}\n' + tail, encoding="utf-8")
        assert read_jsonl(target, LedgerCorruptError) == ([{"a": 1}], True)

    @pytest.mark.parametrize("bad", ["not json", "[1, 2]"])
    def test_bad_earlier_line_raises_the_callers_error(self, tmp_path, bad):
        target = tmp_path / "log.jsonl"
        target.write_text(bad + '\n{"a": 1}\n', encoding="utf-8")
        with pytest.raises(LedgerCorruptError, match="line 1"):
            read_jsonl(target, LedgerCorruptError)

    def test_blank_lines_are_skipped(self, tmp_path):
        target = tmp_path / "log.jsonl"
        target.write_text('{"a": 1}\n\n{"b": 2}\n', encoding="utf-8")
        assert read_jsonl(target, LedgerCorruptError)[0] == [{"a": 1}, {"b": 2}]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(tmp_path / "absent.jsonl", LedgerCorruptError)
