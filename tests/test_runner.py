"""Tests for the experiment runner."""

import json

import pytest

from repro.errors import ConfigError
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme
from repro.utils.mathx import geomean


@pytest.fixture(scope="module")
def runner():
    r = ExperimentRunner(
        SystemConfig.tiny(),
        workloads=["hmmer", "GemsFDTD"],
        schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
    )
    r.run_all()
    return r


class TestSweep:
    def test_all_pairs_present(self, runner):
        assert len(runner.results) == 4
        for workload in ("hmmer", "GemsFDTD"):
            for scheme in (Scheme.STATIC_7, Scheme.STATIC_3):
                assert runner.result(workload, scheme).ipc > 0

    def test_missing_result_raises(self, runner):
        with pytest.raises(ConfigError):
            runner.result("hmmer", Scheme.RRM)

    def test_run_all_is_idempotent(self, runner):
        before = dict(runner.results)
        runner.run_all()
        assert runner.results == before

    def test_progress_callback(self):
        calls = []
        r = ExperimentRunner(
            SystemConfig.tiny(), workloads=["hmmer"], schemes=[Scheme.STATIC_7]
        )
        r.run_all(progress=lambda w, s, res: calls.append((w, s.value)))
        assert calls == [("hmmer", "Static-7-SETs")]

    def test_default_workloads_are_all_eleven(self):
        r = ExperimentRunner(SystemConfig.scaled())
        assert len(r.workloads) == 11
        assert len(r.schemes) == 6

    def test_default_workloads_fit_the_core_count(self):
        # The 4-core mixes cannot run on tiny's 2 cores, so the default
        # list leaves them out; naming one still raises.
        r = ExperimentRunner(SystemConfig.tiny())
        assert len(r.workloads) == 9
        assert not set(r.workloads) & {"MIX_1", "MIX_2"}
        with pytest.raises(ConfigError, match="MIX_1"):
            ExperimentRunner(SystemConfig.tiny(), workloads=["MIX_1"])


class TestAggregation:
    def test_ipc_series_order(self, runner):
        series = runner.ipc_series(Scheme.STATIC_3)
        assert series[0] == runner.result("hmmer", Scheme.STATIC_3).ipc
        assert series[1] == runner.result("GemsFDTD", Scheme.STATIC_3).ipc

    def test_normalized_ipc_baseline_is_one(self, runner):
        normalized = runner.normalized_ipc(Scheme.STATIC_7, Scheme.STATIC_7)
        assert normalized == [pytest.approx(1.0)] * 2

    def test_geomean_matches_manual(self, runner):
        manual = geomean(runner.ipc_series(Scheme.STATIC_3))
        assert runner.geomean_ipc(Scheme.STATIC_3) == pytest.approx(manual)

    def test_geomean_speedup_consistent(self, runner):
        speedup = runner.geomean_speedup(Scheme.STATIC_3, Scheme.STATIC_7)
        manual = geomean(runner.normalized_ipc(Scheme.STATIC_3, Scheme.STATIC_7))
        assert speedup == pytest.approx(manual)
        assert speedup > 1.0

    def test_lifetime_aggregation(self, runner):
        assert runner.geomean_lifetime(Scheme.STATIC_7) > (
            runner.geomean_lifetime(Scheme.STATIC_3)
        )


class TestPersistence:
    def test_save_json(self, runner, tmp_path):
        path = tmp_path / "results.json"
        runner.save_json(path)
        records = json.loads(path.read_text())
        assert len(records) == 4
        assert {r["scheme"] for r in records} == {"Static-7-SETs", "Static-3-SETs"}
        for record in records:
            assert "ipc" in record and "lifetime_years" in record
