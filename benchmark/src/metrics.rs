//! The metric tables: every name this benchmark reports, with its unit and
//! direction. `BENCHMARK.json` is generated from these tables
//! (`hembench manifest`) and a test keeps the committed file equal to them.

use crate::stats::Better::{self, Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// comparison calls it a regression. One bound per metric, wide
    /// enough for the noisiest workload on a host whose speed drifts by
    /// several percent over tens of seconds (see the README's
    /// calibration); 0.25 is the most the benchmark contract allows.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of `hemprof` sees. `fail_frac` is not listed: it is 0 on
/// every workload by construction (a metric that is always 0 has no
/// relative bound), so failures are carried by the `attempted`/`failed`
/// counts of every result instead.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("cpu_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The outside-in layer split, in pipeline order. Counts are exact and
/// repeat run to run; times come from spans around the calls into each
/// layer. The README says which end-to-end metric each should move, on
/// which workload.
pub const PER_LAYER: [PerLayer; 75] = [
    // hem-ir, hem-analysis, runtime construction
    layer("ir.build_s", "s", Lower),
    layer("analysis.analyze_s", "s", Lower),
    layer("core.runtime_new_s", "s", Lower),
    // hem-apps input generation, hem-core object graph
    layer("apps.generate_s", "s", Lower),
    layer("core.setup_s", "s", Lower),
    // hem-core interpreters + protocol
    layer("core.run_s", "s", Lower),
    layer("core.run_notrace_s", "s", Lower),
    layer("core.trace_s", "s", Lower),
    layer("core.ns_per_instr", "ns", Lower),
    layer("core.us_per_event", "us", Lower),
    layer("core.instructions", "count", Lower),
    layer("core.stack_invokes", "count", Lower),
    layer("core.par_invokes", "count", Lower),
    layer("core.ctx_alloc", "count", Lower),
    layer("core.fallbacks", "count", Lower),
    layer("core.suspends", "count", Lower),
    layer("core.msgs_sent", "count", Lower),
    layer("core.msgs_handled", "count", Lower),
    layer("core.wrapper_runs", "count", Lower),
    layer("core.lock_conflicts", "count", Lower),
    layer("core.retransmits", "count", Lower),
    layer("core.acks_sent", "count", Lower),
    layer("core.dups_suppressed", "count", Lower),
    layer("core.coll_legs_sent", "count", Lower),
    layer("core.trace_records", "count", Lower),
    layer("core.stack_frac", "ratio", Higher),
    layer("core.fallback_frac", "ratio", Lower),
    // hem-core dispatch + executors
    layer("sched.events_dispatched", "count", Lower),
    layer("sched.heap_pushes", "count", Lower),
    layer("sched.stale_pops", "count", Lower),
    layer("sched.max_heap_depth", "count", Lower),
    layer("sched.windows", "count", Lower),
    layer("sched.serial_steps", "count", Lower),
    layer("sched.runtime_moves", "count", Lower),
    layer("sched.coord_roundtrips", "count", Lower),
    layer("sched.pool_reuses", "count", Higher),
    layer("spec.windows", "count", Lower),
    layer("spec.rollbacks", "count", Lower),
    layer("spec.anti_messages", "count", Lower),
    layer("spec.ckpt_nodes", "count", Lower),
    layer("spec.max_window", "count", Higher),
    layer("sched.stale_pop_frac", "ratio", Lower),
    layer("sched.events_per_window", "ratio", Higher),
    layer("spec.rollback_frac", "ratio", Lower),
    layer("sched.exec_overhead_s", "s", Lower),
    layer("sched.cpu_over_wall", "ratio", Lower),
    // hem-machine
    layer("machine.net_sent", "count", Lower),
    layer("machine.net_delivered", "count", Lower),
    layer("machine.net_words", "count", Lower),
    layer("machine.net_ack_words", "count", Lower),
    layer("machine.net_retx_words", "count", Lower),
    layer("machine.faults_dropped", "count", Lower),
    layer("machine.faults_duplicated", "count", Lower),
    layer("machine.net_ns_per_msg", "ns", Lower),
    layer("machine.net_est_s", "s", Lower),
    layer("machine.arrival_ns_per_req", "ns", Lower),
    // hem-obs
    layer("obs.rollup_s", "s", Lower),
    layer("obs.blame_s", "s", Lower),
    layer("obs.series_s", "s", Lower),
    layer("obs.timeline_s", "s", Lower),
    layer("obs.critpath_s", "s", Lower),
    layer("obs.perfetto_s", "s", Lower),
    layer("obs.report_s", "s", Lower),
    layer("obs.ns_per_record", "ns", Lower),
    layer("obs.perfetto_bytes", "bytes", Lower),
    layer("obs.report_bytes", "bytes", Lower),
    layer("obs.inline_observer_s", "s", Lower),
    // the hemprof binary around the layers
    layer("hemprof.write_s", "s", Lower),
    layer("hemprof.drop_s", "s", Lower),
    layer("hemprof.out_bytes", "bytes", Lower),
    layer("hemprof.staged_total_s", "s", Lower),
    layer("hemprof.child_wall_s", "s", Lower),
    layer("hemprof.unattributed_s", "s", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.passes", "count", Higher),
];
