"""Tests for the paper-style text reports."""

import pytest

from repro.analysis.report import (
    energy_report,
    format_table,
    lifetime_report,
    performance_report,
    wear_report,
)
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme


@pytest.fixture(scope="module")
def runner():
    r = ExperimentRunner(
        SystemConfig.tiny(),
        workloads=["hmmer"],
        schemes=[Scheme.STATIC_7, Scheme.STATIC_3, Scheme.RRM],
    )
    r.run_all()
    return r


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["name", "x"], [["a", 1.0], ["bb", 22.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "-" in lines[2]
        assert len(lines) == 5

    def test_float_formatting(self):
        text = format_table(["n", "v"], [["a", 0.123456]])
        assert "0.123" in text

    def test_large_numbers_get_thousands_separator(self):
        text = format_table(["n", "v"], [["a", 123456.0]])
        assert "123,456" in text


class TestReports:
    def test_performance_report_has_geomean_row(self, runner):
        text = performance_report(runner)
        assert "geomean" in text
        assert "hmmer" in text
        assert "RRM" in text

    def test_performance_normalised_to_baseline(self, runner):
        text = performance_report(runner, baseline=Scheme.STATIC_7)
        # The baseline column is 1.000 for every workload row.
        row = [l for l in text.splitlines() if l.startswith("hmmer")][0]
        assert "1.000" in row

    def test_lifetime_report_units(self, runner):
        text = lifetime_report(runner)
        assert "years" in text

    def test_wear_report_normalised(self, runner):
        text = wear_report(runner)
        assert "rrm_refresh" in text and "global_refresh" in text
        # The Static-7 baseline row totals 1.0.
        row = [l for l in text.splitlines() if l.startswith("Static-7")][0]
        assert "1.000" in row

    def test_energy_report_sections(self, runner):
        text = energy_report(runner)
        for column in ("write", "read", "rrm_refresh", "global_refresh", "total"):
            assert column in text

    def test_reports_without_normalisation(self, runner):
        assert wear_report(runner, normalize_to=None)
        assert energy_report(runner, normalize_to=None)
