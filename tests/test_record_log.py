"""Tests for the record logs built on ``append_jsonl``/``read_jsonl``: the
sweep journal and the run ledger.

Two properties matter beyond the single-writer round trips in
``test_resilience``/``test_obs``:

- concurrent appenders from separate processes lose nothing;
- files written before the logs shared one primitive still load to the
  same contents, re-serialize to the same bytes, and still resume.

The ``tests/data/legacy_*`` fixtures were written by the previous
journal and ledger code: a serial sweep of hmmer under three schemes
(tiny config, seed 1, ``max_events=2000``) whose RRM cell raised; a
two-worker fabric sweep of hmmer and mcf under Static-7 and RRM with a
crash and an error fault on first attempts, whose last result line was
then cut in half as a crash mid-append would leave it; and that fabric
sweep's merged ledger. ``legacy_records_expected.json`` holds what the
previous loaders returned for each file; the journal loader now ignores
the fabric journal's ``claim``/``release`` lease records, so those two
entries are left out of the comparison. The journals' meta records
carry the tiny config's fingerprint, so a change to ``SystemConfig``'s
fields makes the resume tests refuse them, as resume should.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
from pathlib import Path

from repro.obs.ledger import LedgerEntry, RunLedger
from repro.resilience import ResultJournal
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme

DATA = Path(__file__).parent / "data"
EXPECTED = json.loads(
    (DATA / "legacy_records_expected.json").read_text(encoding="utf-8")
)

#: Appends per process in the concurrency tests.
APPENDS = 200


#: Lease entries of the expectations file; the loader ignores leases.
LEASES = ("claims", "releases")


def _journal_view(contents) -> dict:
    """A JournalContents as the JSON shape the expectations file holds,
    lease entries aside."""

    def pairs(mapping):
        return [[w, s, v] for (w, s), v in mapping.items()]

    return {
        "meta": contents.meta,
        "results": pairs(contents.results),
        "failures": pairs(contents.failures),
        "truncated": contents.truncated,
    }


def _expected_journal(name) -> dict:
    return {k: v for k, v in EXPECTED[name].items() if k not in LEASES}


# ----------------------------------------------------------------------
# Module-level appenders (picklable for multiprocessing)
# ----------------------------------------------------------------------
def _append_ledger_entries(path, tag: str) -> None:
    ledger = RunLedger(path)
    for i in range(APPENDS):
        ledger.append(
            LedgerEntry(
                kind="sweep",
                name=f"{tag}/{i}",
                metrics={f"m{k}": float(i * k) for k in range(40)},
                recorded_unix_s=1.0 + i,
            )
        )


def _append_journal_results(path, tag: str) -> None:
    journal = ResultJournal(path)
    for i in range(APPENDS):
        journal.append_result(
            f"{tag}{i}", "rrm", {f"m{k}": i * k for k in range(40)}
        )


def _run_two(target, path) -> None:
    procs = [
        multiprocessing.Process(target=target, args=(path, tag))
        for tag in ("a", "b")
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(120)
        assert proc.exitcode == 0


class TestConcurrentAppends:
    def test_two_processes_append_to_one_ledger(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _run_two(_append_ledger_entries, path)
        names = [entry.name for entry in RunLedger.load(path)]
        assert len(names) == 2 * APPENDS
        assert set(names) == {
            f"{tag}/{i}" for tag in ("a", "b") for i in range(APPENDS)
        }

    def test_two_processes_append_to_one_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ResultJournal(path).start({"seed": 1})
        _run_two(_append_journal_results, path)
        contents = ResultJournal.load(path)
        assert not contents.truncated
        assert contents.meta["seed"] == 1
        assert set(contents.results) == {
            (f"{tag}{i}", "rrm") for tag in ("a", "b") for i in range(APPENDS)
        }


# ----------------------------------------------------------------------
# Legacy files
# ----------------------------------------------------------------------
class TestLegacyRecords:
    def test_serial_journal_loads_as_before(self):
        name = "legacy_serial_journal.jsonl"
        contents = ResultJournal.load(DATA / name)
        assert _journal_view(contents) == _expected_journal(name)
        assert len(contents.results) == 2 and len(contents.failures) == 1

    def test_fabric_journal_loads_as_before(self):
        name = "legacy_fabric_journal.jsonl"
        contents = ResultJournal.load(DATA / name)
        assert _journal_view(contents) == _expected_journal(name)
        assert contents.truncated
        # The file does hold lease lines; the loader accepted them.
        raw = (DATA / name).read_text(encoding="utf-8")
        assert '"type": "claim"' in raw and '"type": "release"' in raw

    def test_ledger_loads_as_before(self):
        name = "legacy_ledger.jsonl"
        entries = RunLedger.load(DATA / name)
        assert [e.to_json_dict() for e in entries] == EXPECTED[name]

    def test_journal_writers_reproduce_every_line(self, tmp_path):
        """Replaying each complete legacy line through the matching
        writer gives back the same bytes, torn tail excepted."""
        for name in ("legacy_serial_journal.jsonl", "legacy_fabric_journal.jsonl"):
            lines = (DATA / name).read_bytes().split(b"\n")
            complete = [json.loads(line) for line in lines[:-1]]
            journal = ResultJournal(tmp_path / name)
            meta = dict(complete[0])
            del meta["type"], meta["version"]
            journal.start(meta)
            for record in complete[1:]:
                kind = record["type"]
                key = (record.get("workload"), record.get("scheme"))
                if "worker" in record or kind not in ("result", "failure"):
                    # Leases and worker-stamped outcomes of the old
                    # work-queue executor, which no writer makes now.
                    journal.append(record)
                elif kind == "result":
                    journal.append_result(*key, record["result"])
                else:
                    journal.append_failure(*key, record["failure"])
            expected = b"".join(line + b"\n" for line in lines[:-1])
            assert (tmp_path / name).read_bytes() == expected

    def test_ledger_writer_reproduces_every_line(self, tmp_path):
        legacy = (DATA / "legacy_ledger.jsonl").read_bytes()
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        for line in legacy.splitlines():
            ledger.append(LedgerEntry.from_json_dict(json.loads(line)))
        assert path.read_bytes() == legacy

    def _resume(self, tmp_path, name, workloads, schemes):
        journal = tmp_path / name
        shutil.copyfile(DATA / name, journal)
        runner = ExperimentRunner(
            SystemConfig.tiny(1), workloads, schemes, max_events=2000
        )
        reran = []
        runner.resume(journal, progress=lambda w, s, r: reran.append((w, s)))
        assert len(runner.results) == len(workloads) * len(schemes)
        assert not runner.failures
        contents = ResultJournal.load(journal)
        assert len(contents.results) == len(runner.results)
        assert not (contents.failures or contents.truncated)
        assert '"type": "claim"' not in journal.read_text(encoding="utf-8")
        return reran

    def test_serial_journal_resumes_only_the_failed_cell(self, tmp_path):
        reran = self._resume(
            tmp_path,
            "legacy_serial_journal.jsonl",
            ["hmmer"],
            [Scheme.STATIC_7, Scheme.STATIC_3, Scheme.RRM],
        )
        assert reran == [("hmmer", Scheme.RRM)]

    def test_fabric_journal_resumes_only_the_torn_cell(self, tmp_path):
        reran = self._resume(
            tmp_path,
            "legacy_fabric_journal.jsonl",
            ["hmmer", "mcf"],
            [Scheme.STATIC_7, Scheme.RRM],
        )
        assert reran == [("hmmer", Scheme.STATIC_7)]
