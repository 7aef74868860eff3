"""Paper Figure 8: RRM lifetime vs. every static scheme.

Shape targets from the paper: RRM achieves a lifetime vastly better than
Static-3/Static-4 (6.4 years vs 0.3 for Static-3) while giving up some
lifetime against Static-7 (10.6 years) — mostly because RRM's higher IPC
issues more demand writes in the same wall time, not because of its own
selective refreshes.
"""

from benchmarks.common import workloads_under_test, write_report
from repro.analysis.report import lifetime_report
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme, all_schemes


def bench_fig08_rrm_lifetime(sweep, benchmark):
    workloads = workloads_under_test()
    schemes = all_schemes()
    benchmark.pedantic(
        lambda: sweep.ensure(workloads, schemes), rounds=1, iterations=1
    )

    runner = ExperimentRunner(sweep.base, workloads=workloads, schemes=schemes)
    runner.results = {
        (w, s): sweep.get(w, s) for w in workloads for s in schemes
    }

    rrm = runner.geomean_lifetime(Scheme.RRM)
    s7 = runner.geomean_lifetime(Scheme.STATIC_7)
    s3 = runner.geomean_lifetime(Scheme.STATIC_3)
    s4 = runner.geomean_lifetime(Scheme.STATIC_4)

    text = lifetime_report(
        runner, schemes,
        title="Figure 8: memory lifetime in years (with RRM)",
    )
    text += (
        f"\n\ngeomean lifetimes: Static-7 {s7:.2f}y, RRM {rrm:.2f}y, "
        f"Static-4 {s4:.2f}y, Static-3 {s3:.2f}y"
        f"\n[paper: Static-7 10.6y, RRM 6.4y, Static-3 0.3y]"
    )
    write_report("fig08_rrm_lifetime", text)

    # Retention integrity: no RRM fast refresh finishes past its deadline.
    violations = {
        w: sweep.get(w, Scheme.RRM).retention_violations for w in workloads
    }
    assert all(v == 0 for v in violations.values()), violations

    # Shape: RRM lifetime sits between Static-7 and the fast statics, and
    # is at least several times Static-3's.
    assert s3 < s4 < rrm <= s7
    assert rrm > 5 * s3
