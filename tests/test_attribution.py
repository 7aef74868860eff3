"""Latency anatomy (repro.attribution): conservation, bit-identity,
blame aggregation, CLI surfaces, ledger/dashboard wiring.

The two tests that define the subsystem:

- **conservation**: for every completed request, the named cause
  components sum *exactly* to the measured end-to-end latency, across
  randomised tiny configurations (seed, workload, scheme, duration);
- **bit-identity**: a run with attribution enabled reports the same
  simulation statistics as one without (mirroring the telemetry
  guarantee in test_obs.py) — the observer never perturbs the observed.
"""

import json
import random

import pytest

from repro.attribution import (
    BLOCKER_SCHEDULER,
    CLASS_READ,
    CLASS_RRM_FAST_REFRESH,
    CLASS_RRM_SLOW_REFRESH,
    CLASS_WRITE_FAST,
    CLASS_WRITE_OTHER,
    CLASS_WRITE_SLOW,
    BlameMatrix,
    RequestAnatomy,
    classify_request,
    format_report,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.memctrl.request import MemRequest, RequestType
from repro.obs.dashboard import render_dashboard
from repro.obs.ledger import LedgerEntry
from repro.sim.config import SystemConfig
from repro.sim.runner import run_workload
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.telemetry import TelemetryConfig, flatten_args, summarize_trace
from repro.workloads.spec2006 import BENCHMARKS


def _attributed_system(config, workload, scheme):
    system = System(
        config,
        workload,
        scheme,
        telemetry=TelemetryConfig(attribution=True, trace=False),
    )
    result = system.run()
    return result, system.attribution_report()


@pytest.fixture(scope="module")
def plain_result():
    return run_workload(SystemConfig.tiny(seed=1), "hmmer", Scheme.RRM)


@pytest.fixture(scope="module")
def rrm_attr():
    return _attributed_system(SystemConfig.tiny(seed=1), "hmmer", Scheme.RRM)


@pytest.fixture(scope="module")
def s7_attr():
    return _attributed_system(
        SystemConfig.tiny(seed=1), "hmmer", Scheme.STATIC_7
    )


# ======================================================================
# The conservation invariant
# ======================================================================
class TestConservation:
    def test_every_component_sums_exactly_randomised(self):
        """Property-style: across random tiny configs, every completed
        request's components sum to its measured latency with zero
        floating-point error (the collector re-checks per request
        in-sim; here we assert the run-level maximum)."""
        rng = random.Random(2026)
        workloads = sorted(BENCHMARKS)  # mixes need 4 cores; tiny has 2
        for _ in range(6):
            config = SystemConfig.tiny(seed=rng.randrange(1, 1000))
            config = config.with_duration(rng.uniform(0.001, 0.003))
            workload = rng.choice(workloads)
            scheme = rng.choice([Scheme.RRM, Scheme.STATIC_7])
            _, report = _attributed_system(config, workload, scheme)
            assert report.requests > 0
            assert report.conservation_checks == report.requests
            assert report.max_conservation_error_ns == 0.0, (
                f"conservation broke: {workload}/{scheme.value} "
                f"err={report.max_conservation_error_ns}"
            )

    def test_full_tiny_run_conserves(self, rrm_attr):
        _, report = rrm_attr
        assert report.requests > 1000
        assert report.max_conservation_error_ns == 0.0

    def test_anatomy_conservation_arithmetic(self):
        anatomy = RequestAnatomy(
            req_id=1,
            victim=CLASS_READ,
            block=7,
            bank_index=0,
            channel=0,
            issue_ns=100.0,
            start_ns=160.0,
            finish_ns=302.5,
            blocked_ns={CLASS_WRITE_FAST: 40.0, CLASS_RRM_FAST_REFRESH: 15.0},
            sched_wait_ns=5.0,
            service_base_ns=22.5,
            row_miss_penalty_ns=120.0,
        )
        assert anatomy.total_ns == 202.5
        assert anatomy.wait_ns == 60.0
        assert anatomy.components_sum_ns() == pytest.approx(202.5)
        assert anatomy.conservation_error_ns() == 0.0
        assert anatomy.refresh_blamed_ns == 15.0
        # trace args keep only the non-zero causes
        args = anatomy.trace_args()
        assert "pause_preempt" not in args
        assert args["wait_rrm_fast_refresh"] == 15.0


# ======================================================================
# Bit-identity: the observer never perturbs the observed
# ======================================================================
class TestBitIdentity:
    def test_attributed_run_matches_plain_run(self, plain_result, rrm_attr):
        attributed_result, _ = rrm_attr
        assert attributed_result.as_dict() == plain_result.as_dict()

    def test_plain_run_has_no_attribution(self, plain_result):
        assert plain_result.attribution is None

    def test_attribution_report_requires_enablement(self):
        system = System(SystemConfig.tiny(seed=1), "hmmer", Scheme.RRM)
        with pytest.raises(ConfigError):
            system.attribution_report()


# ======================================================================
# Taxonomy + blame matrix
# ======================================================================
class TestModel:
    def test_classify_request(self):
        fast, slow = 3, 7
        cases = [
            (RequestType.READ, None, CLASS_READ),
            (RequestType.RRM_REFRESH, 3, CLASS_RRM_FAST_REFRESH),
            (RequestType.RRM_SLOW_REFRESH, 7, CLASS_RRM_SLOW_REFRESH),
            (RequestType.WRITE, 3, CLASS_WRITE_FAST),
            (RequestType.WRITE, 7, CLASS_WRITE_SLOW),
            (RequestType.WRITE, 5, CLASS_WRITE_OTHER),
        ]
        for rtype, n_sets, expected in cases:
            request = MemRequest(rtype, block=0, n_sets=n_sets)
            assert classify_request(request, fast, slow) == expected

    def test_blame_matrix_totals_and_merge(self):
        a = BlameMatrix()
        a.add(CLASS_READ, CLASS_WRITE_SLOW, 100.0)
        a.add(CLASS_READ, BLOCKER_SCHEDULER, 10.0)
        a.add_victim(CLASS_READ, 250.0)
        b = BlameMatrix()
        b.add(CLASS_READ, CLASS_WRITE_SLOW, 50.0)
        b.add_victim(CLASS_READ, 80.0)
        a.merge(b)
        assert a.get(CLASS_READ, CLASS_WRITE_SLOW) == 150.0
        assert a.victim_total(CLASS_READ) == 160.0
        assert a.blocker_total(CLASS_WRITE_SLOW) == 150.0
        assert a.victim_counts[CLASS_READ] == 2
        assert a.total_blamed_ns == 160.0
        # zero adds never create cells
        a.add(CLASS_READ, CLASS_WRITE_FAST, 0.0)
        assert CLASS_WRITE_FAST not in a.blockers()


# ======================================================================
# Interference accounting: the paper's tradeoff is visible causally
# ======================================================================
class TestInterference:
    def test_rrm_refresh_share_exceeds_static7(self, rrm_attr, s7_attr):
        """The acceptance criterion: RRM shows nonzero refresh
        interference on reads; Static-7 (no selective refresh) shows
        exactly none."""
        _, rrm_report = rrm_attr
        _, s7_report = s7_attr
        assert rrm_report.read_refresh_share > 0.0
        assert rrm_report.read_refresh_blame_ns > 0.0
        assert s7_report.read_refresh_share == 0.0
        assert s7_report.read_refresh_blame_ns == 0.0

    def test_report_renders_all_sections(self, rrm_attr):
        _, report = rrm_attr
        text = format_report(report, top=3, header="hmmer / RRM")
        assert "conservation" in text
        assert "max error 0 ns" in text
        assert "read refresh share" in text
        assert "victim \\ blocker" in text
        assert "per-bank read interference" in text
        assert "slowest 3 requests" in text

    def test_report_round_trips_to_json(self, rrm_attr):
        _, report = rrm_attr
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["requests"] == report.requests
        assert payload["max_conservation_error_ns"] == 0.0
        assert len(payload["slowest"]) > 0
        for anatomy in payload["slowest"]:
            total = sum(anatomy["components_ns"].values())
            assert total == pytest.approx(anatomy["total_ns"])


# ======================================================================
# Ledger / dashboard wiring
# ======================================================================
class TestObservabilityWiring:
    def test_ledger_entry_merges_attr_metrics(self, rrm_attr):
        result, _ = rrm_attr
        entry = LedgerEntry.from_result(result)
        assert entry.metrics["attr_read_refresh_share"] > 0.0
        assert entry.metrics["attr_max_conservation_error_ns"] == 0.0
        assert any(k.startswith("attr_bank") for k in entry.metrics)
        # plain simulation metrics are still present and unchanged
        assert entry.metrics["ipc"] == result.ipc

    def test_dashboard_renders_attribution_section(self, rrm_attr):
        result, _ = rrm_attr
        entry = LedgerEntry.from_result(result, name="core/hmmer/RRM")
        html_text = render_dashboard([entry])
        assert "Latency attribution" in html_text
        assert "rrm_fast_refresh" in html_text  # legend pairs color + word
        assert "<svg" in html_text
        assert "http" not in html_text  # still self-contained

    def test_dashboard_without_attribution_omits_section(self):
        entry = LedgerEntry(kind="run", name="n", metrics={"ipc": 1.0})
        assert "Latency attribution" not in render_dashboard([entry])


# ======================================================================
# Trace integration: anatomies ride on span args and summarise
# ======================================================================
class TestTraceIntegration:
    def test_flatten_args_nested_and_non_numeric(self):
        flat = flatten_args(
            {"anatomy": {"wait_read": 2.0, "deep": {"x": 1}}, "label": "s",
             "hit": True}
        )
        assert flat == {
            "anatomy.wait_read": 2.0,
            "anatomy.deep.x": 1.0,
            "hit": 1.0,
        }

    def test_summary_aggregates_span_args(self):
        events = [
            {"ph": "X", "name": "read", "cat": "memctrl", "ts": 0.0,
             "dur": 1.0, "args": {"anatomy": {"wait_read": 10.0}}},
            {"ph": "X", "name": "read", "cat": "memctrl", "ts": 2.0,
             "dur": 1.0, "args": {"anatomy": {"wait_read": 30.0}}},
            {"ph": "X", "name": "bare", "cat": "memctrl", "ts": 4.0,
             "dur": 1.0},
        ]
        summary = summarize_trace(events)
        count, total = summary.span_args["read"]["anatomy.wait_read"]
        assert (count, total) == (2, 40.0)
        assert "bare" not in summary.span_args
        digest = summary.to_json_dict()
        assert digest["span_args"]["read"]["anatomy.wait_read"] == {
            "count": 2,
            "total": 40.0,
        }

    def test_traced_attributed_run_annotates_spans(self, tmp_path):
        config = SystemConfig.tiny(seed=1).with_duration(0.001)
        system = System(
            config,
            "hmmer",
            Scheme.RRM,
            telemetry=TelemetryConfig(attribution=True),
        )
        system.run()
        trace_path = tmp_path / "trace.json"
        system.telemetry.tracer.export(trace_path)
        from repro.telemetry import load_trace

        summary = summarize_trace(load_trace(trace_path))
        assert any(
            key.startswith("anatomy.")
            for key in summary.span_args.get("read", {})
        )


# ======================================================================
# CLI: explain + trace --json
# ======================================================================
class TestCLI:
    def test_explain_reports_and_exports(self, capsys, tmp_path):
        out_json = tmp_path / "anatomy.json"
        code = main(
            ["explain", "--config", "tiny", "--duration", "0.002",
             "--workload", "hmmer", "--scheme", "rrm",
             "--top", "2", "--json", str(out_json)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "max error 0 ns" in out
        assert "slowest 2 requests" in out
        payload = json.loads(out_json.read_text())
        assert payload["max_conservation_error_ns"] == 0.0

    def test_explain_bad_scheme_exits_2(self, capsys):
        code = main(
            ["explain", "--config", "tiny", "--duration", "0.001",
             "--scheme", "nonsense"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_json_export(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        trace_path.write_text(
            json.dumps(
                {"traceEvents": [
                    {"ph": "X", "name": "read", "cat": "m", "ts": 0.0,
                     "dur": 5.0, "args": {"anatomy": {"wait_read": 1.0}}},
                ]}
            )
        )
        out_json = tmp_path / "summary.json"
        code = main(["trace", str(trace_path), "--json", str(out_json)])
        assert code == 0
        assert "span args" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["span_args"]["read"]["anatomy.wait_read"]["count"] == 1

    def test_trace_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "absent.json")]) == 2

    def test_run_attribution_flag_stays_bit_identical(
        self, capsys, plain_result
    ):
        code = main(
            ["run", "--config", "tiny", "--workload", "hmmer",
             "--scheme", "rrm", "--attribution"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "attribution:" in captured.err
        # the printed summary line is identical to an unattributed run's
        assert plain_result.summary() in captured.out
