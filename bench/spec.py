"""Names, units and bounds of the benchmark's workloads and metrics.

``BENCHMARK.json`` at the repository root mirrors this module;
``selftest.py`` checks that the two agree.  Stdlib only: the runner
imports it before the package is on the path.
"""

# (name, why)
WORKLOADS = (
    ("scan-sweep",
     "fit and MoM saturation sweep over four s values, one worker: the MoM and model layers dominate"),
    ("dhd-sweep",
     "DHD sweep of cheap trials that bypasses fit, MoM and model: the control where a MoM change should show nothing"),
    ("track",
     "scan-by-scan warm-started MoM with covariance, so the single-scan path and the discrete Fisher bound run"),
    ("file-roundtrip",
     "CLI simulate then estimate on scan, DHD and trace files: io, cli and trace synthesis dominate"),
)

# (name, unit, better, bound), measured with tracing off and scaled to
# the reference host speed (run.py, CAL_REF_S).  Scaled, ten runs spread
# by at most 0.049 of their median for throughput, 0.075 for setup_s and,
# but for one set of 0.135 on file-roundtrip, 0.049 for latency_p50_ms;
# setup_s, a median of a few short probes, has the largest bound.  run.py also prints latency_p99_ms and error_rate,
# which are not gated: the tail's ten-run spread reached 0.27 on
# file-roundtrip before scaling, and error_rate is 0.
END_TO_END = (
    ("throughput_per_s", "items/s", "higher", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

FLAGS = ("degenerate", "nonphysical", "singular-prior", "no-convergence",
         "seed-fallback", "singular-information")

# (name, unit, better), from the traced run
PER_LAYER = (
    ("model.eval_variance.calls", "count", "lower"),
    ("model.eval_variance.self_ms", "ms", "lower"),
    ("model.variance_partials.calls", "count", "lower"),
    ("model.variance_partials.self_ms", "ms", "lower"),
    ("estimators.mom_estimate.calls", "count", "lower"),
    ("estimators.mom_estimate.self_ms", "ms", "lower"),
    ("estimators.mom.iterations_total", "count", "lower"),
    ("estimators.mom.converged_ratio", "ratio", "higher"),
    *((f"estimators.flag.{flag}.count", "count", "lower") for flag in FLAGS),
    ("estimators.fit_estimate.calls", "count", "lower"),
    ("estimators.fit_estimate.self_ms", "ms", "lower"),
    ("estimators.dhd_estimate.calls", "count", "lower"),
    ("estimators.dhd_estimate.self_ms", "ms", "lower"),
    ("simulate.sample_homodyne_scan.calls", "count", "lower"),
    ("simulate.sample_homodyne_scan.self_ms", "ms", "lower"),
    ("simulate.keyed_generator.calls", "count", "lower"),
    ("simulate.sample_dhd.self_ms", "ms", "lower"),
    ("simulate.synthesize_trace.self_ms", "ms", "lower"),
    ("simulate.scan_from_trace.self_ms", "ms", "lower"),
    ("simulate.simulate_phase_drift.self_ms", "ms", "lower"),
    ("bounds.fisher_homodyne_discrete.calls", "count", "lower"),
    ("bounds.fisher_homodyne_discrete.self_ms", "ms", "lower"),
    ("bounds.self_ms", "ms", "lower"),
    ("montecarlo.collect_estimates.ms", "ms", "lower"),
    ("montecarlo.aggregate_estimates.self_ms", "ms", "lower"),
    ("montecarlo.track_angle.self_ms", "ms", "lower"),
    ("io.read.self_ms", "ms", "lower"),
    ("io.write.self_ms", "ms", "lower"),
    ("io.report.self_ms", "ms", "lower"),
    ("io.bytes_read", "bytes", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.resolve_config.self_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
)

RUN_SECONDS = 20

# Used only to confirm a claimed gain after the change is written; no
# change may be tuned or tried on it while it is being written.
HELD_OUT_SEED = 7919
