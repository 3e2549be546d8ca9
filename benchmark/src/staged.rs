//! The traced run: the child's pipeline re-staged in this process through
//! the layers' public functions, with a span around each call.
//!
//! The staged pipeline must print the child's report byte for byte; that
//! identity is what licenses reading its split as the child's split.
//! Spans live in this file only — spans inside product code are a later,
//! product-side change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use hem_analysis::{Analysis, InterfaceSet};
use hem_apps::md::Layout;
use hem_apps::service::{self, ServeOutcome, ServeParams};
use hem_apps::{callintensive, em3d, md, sor};
use hem_bench::profile::{Kernel, ProfileConfig};
use hem_bench::serve::ServeConfig;
use hem_core::{Observer, Runtime, SchedImpl};
use hem_ir::{Program, Value};
use hem_machine::arrival::OpenLoop;
use hem_machine::net::Network;
use hem_machine::stats::MachineStats;
use hem_machine::topology::ProcGrid;
use hem_machine::NodeId;
use hem_obs::{
    critpath, perfetto, Blame, Fanout, Report, Rollup, SchedSummary, Series, SpecSummary, Timeline,
};

use crate::child::self_cpu_s;
use crate::e2e::{invoke, Env};
use crate::golden::{Golden, MachineCounts};
use crate::metrics::PER_LAYER;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{series_window, Plan, Workload};

/// One pass's per-layer metrics, by name.
pub type Sample = BTreeMap<&'static str, f64>;

/// Which trace consumers a staged run arms, as `hemprof` does before it
/// starts the kernel.
#[derive(Clone, Copy)]
struct Arm {
    /// Buffer the trace (`enable_trace`).
    trace: bool,
    /// Attach the workload's observers (`hemprof` always does).
    observe: bool,
}

/// A finished staged run.
struct World {
    rt: Runtime,
    /// The service driver's raw result (serve workloads).
    outcome: Option<ServeOutcome>,
    /// CPU time of this process, all threads, over the `core.run` span.
    run_cpu_s: f64,
}

/// The observers `hemprof` attaches for this plan.
fn observers(plan: &Plan) -> Box<dyn Observer> {
    match plan {
        Plan::Kernel(_) => Box::new(Rollup::new()),
        Plan::Serve(cfg) => Box::new(
            Fanout::new()
                .with(Box::new(Rollup::new()))
                .with(Box::new(Blame::new()))
                .with(Box::new(Series::new(series_window(cfg)))),
        ),
    }
}

/// `Program` → analysed `Runtime`, armed: the three construction spans
/// every plan shares.
fn construct(program: &Program, plan: &Plan, arm: Arm, tr: &mut Tracer) -> Runtime {
    let (p, cost, mode, threads, speculative) = match plan {
        Plan::Kernel(c) => (c.p, c.cost.clone(), c.mode, c.threads, c.speculative),
        Plan::Serve(c) => (c.p, c.cost.clone(), c.mode, c.threads, c.speculative),
    };
    // `Runtime::new` repeats the analysis internally; timing it alone
    // first shows its share of `core.runtime_new`.
    tr.time("analysis.analyze", || {
        black_box(Analysis::analyze(program).schemas(InterfaceSet::Full));
    });
    let mut rt = tr.time("core.runtime_new", || {
        hem_apps::make_runtime(program.clone(), p, cost, mode, InterfaceSet::Full)
    });
    if threads > 1 {
        rt.sched_impl = if speculative {
            SchedImpl::Speculative { threads }
        } else {
            SchedImpl::Sharded { threads }
        };
    }
    if arm.trace {
        rt.enable_trace();
    }
    if let Plan::Serve(ServeConfig {
        fault: Some(fault), ..
    }) = plan
    {
        rt.set_fault_plan(fault.clone());
    }
    if arm.observe {
        rt.attach_observer(observers(plan));
    }
    rt
}

/// Time the run phase, wall and CPU.
fn timed_run(rt: &mut Runtime, tr: &mut Tracer, run: impl FnOnce(&mut Runtime)) -> f64 {
    let cpu = self_cpu_s();
    tr.time("core.run", || run(rt));
    self_cpu_s() - cpu
}

/// build → make_runtime → setup → run, one span per call, exactly the
/// calls `ProfileConfig::run` / `ServeConfig::run_with_observer` make.
fn stage_run(plan: &Plan, arm: Arm, tr: &mut Tracer) -> World {
    let mut outcome = None;
    let (rt, run_cpu_s) = match plan {
        Plan::Kernel(cfg) => stage_kernel(cfg, plan, arm, tr),
        Plan::Serve(cfg) => {
            let ids = tr.time("ir.build", service::build);
            let mut rt = construct(&ids.program, plan, arm, tr);
            let inst = tr.time("core.setup", || service::setup(&mut rt, &ids, cfg.backends));
            let params = ServeParams {
                horizon: cfg.horizon,
                dist: cfg.dist,
                clients: cfg.clients,
                seed: cfg.seed,
                deadline: cfg.deadline,
                max_queue: cfg.max_queue,
            };
            let cpu = timed_run(&mut rt, tr, |rt| {
                outcome = Some(service::run_service(rt, &inst, &params).expect("service run"));
            });
            (rt, cpu)
        }
    };
    World {
        rt,
        outcome,
        run_cpu_s,
    }
}

fn stage_kernel(cfg: &ProfileConfig, plan: &Plan, arm: Arm, tr: &mut Tracer) -> (Runtime, f64) {
    match cfg.kernel {
        Kernel::Fib => {
            let suite = tr.time("ir.build", callintensive::build);
            let mut rt = construct(&suite.program, plan, arm, tr);
            let math = tr.time("core.setup", || rt.alloc_object_by_name("Math", NodeId(0)));
            let cpu = timed_run(&mut rt, tr, |rt| {
                rt.call(math, suite.fib, &[Value::Int(cfg.size as i64)])
                    .expect("fib run");
            });
            (rt, cpu)
        }
        Kernel::Sor => {
            let ids = tr.time("ir.build", sor::build);
            let mut rt = construct(&ids.program, plan, arm, tr);
            let params = sor::SorParams {
                n: cfg.size,
                block: 4,
                procs: ProcGrid::square(cfg.p),
            };
            let inst = tr.time("core.setup", || sor::setup(&mut rt, &ids, params));
            let cpu = timed_run(&mut rt, tr, |rt| {
                sor::run(rt, &inst, cfg.iters).expect("sor run")
            });
            (rt, cpu)
        }
        Kernel::Md => {
            let ids = tr.time("ir.build", md::build);
            let layout = if cfg.high_locality {
                Layout::Spatial
            } else {
                Layout::Random
            };
            let sys = tr.time("apps.generate", || {
                md::generate(cfg.size, 1.1, cfg.p, layout, cfg.seed)
            });
            let mut rt = construct(&ids.program, plan, arm, tr);
            let inst = tr.time("core.setup", || md::setup(&mut rt, &ids, &sys));
            let cpu = timed_run(&mut rt, tr, |rt| {
                for _ in 0..cfg.iters {
                    md::run_iteration(rt, &inst).expect("md iteration");
                }
            });
            (rt, cpu)
        }
        Kernel::Em3d => {
            let ids = tr.time("ir.build", || em3d::build(4));
            let p_local = if cfg.high_locality { 0.9 } else { 0.2 };
            let graph = tr.time("apps.generate", || {
                em3d::generate(cfg.size, 4, cfg.p, p_local, cfg.seed)
            });
            let mut rt = construct(&ids.program, plan, arm, tr);
            let inst = tr.time("core.setup", || em3d::setup(&mut rt, &ids, &graph));
            let cpu = timed_run(&mut rt, tr, |rt| {
                em3d::run(rt, &inst, cfg.style, cfg.iters).expect("em3d run")
            });
            (rt, cpu)
        }
    }
}

/// The speculation diagnostics `hemprof` adds to a `--speculative` report.
fn spec_summary(rt: &Runtime, plan: &Plan) -> Option<SpecSummary> {
    let Plan::Kernel(cfg) = plan else {
        return None;
    };
    if !cfg.speculative || cfg.threads <= 1 {
        return None;
    }
    let s = rt.spec_stats();
    Some(SpecSummary {
        threads: cfg.threads,
        windows: s.windows,
        serial_steps: s.serial_steps,
        rollbacks: s.rollbacks,
        anti_messages: s.anti_messages,
        ckpt_nodes: s.ckpt_nodes,
        max_window: s.max_window,
    })
}

/// The simulated machine's counts for a workload, from an untraced
/// in-process run: what `sim_minstr_per_s` divides when no golden applies,
/// and what `golden --update` records.
pub fn machine_counts(workload: &Workload) -> MachineCounts {
    let arm = Arm {
        trace: false,
        observe: false,
    };
    let stats = stage_run(&workload.plan, arm, &mut Tracer::new())
        .rt
        .stats();
    counts_of(&stats)
}

fn counts_of(stats: &MachineStats) -> MachineCounts {
    MachineCounts {
        instructions: stats.totals().instructions,
        net_sent: stats.net.sent,
        net_words: stats.net.words,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64 step: the probes' seeded endpoint stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bare `Network<u64>` send + pop with the workload's latency, fault plan
/// and message count, uniform seeded endpoints: nanoseconds per message of
/// the interconnect model alone. 0 when the workload sends nothing.
fn probe_net(plan: &Plan, stats: &MachineStats, tr: &mut Tracer) -> f64 {
    const CAP: u64 = 2_000_000;
    let msgs = stats.net.sent.min(CAP);
    if msgs == 0 {
        return 0.0;
    }
    let (p, latency, fault, seed) = match plan {
        Plan::Kernel(c) => (c.p, c.cost.min_wire_latency(), None, c.seed),
        Plan::Serve(c) => (c.p, c.cost.min_wire_latency(), c.fault.clone(), c.seed),
    };
    let words = (stats.net.words / stats.net.sent).max(1);
    let mut net: Network<u64> = Network::new();
    net.set_plan(fault);
    let mut state = seed;
    let span = tr.begin("probe.net");
    for i in 0..msgs {
        let r = splitmix(&mut state);
        let (src, dest) = (r as u32 % p, (r >> 32) as u32 % p);
        net.send(NodeId(src), NodeId(dest), i * 8 + latency, words, i);
        // Keep the heap at the depth a P-node machine holds.
        while net.in_flight() > p as usize {
            black_box(net.pop());
        }
    }
    while let Some(m) = net.pop() {
        black_box(m);
    }
    tr.end(span) * 1e9 / msgs as f64
}

/// `OpenLoop` alone: nanoseconds per generated arrival. 0 for closed
/// kernels, which have no arrival process.
fn probe_arrival(plan: &Plan, tr: &mut Tracer) -> f64 {
    const ARRIVALS: usize = 200_000;
    let Plan::Serve(cfg) = plan else {
        return 0.0;
    };
    let span = tr.begin("probe.arrival");
    let last = OpenLoop::new(cfg.dist, cfg.clients, cfg.seed)
        .take(ARRIVALS)
        .fold(0, |_, a| a.at);
    black_box(last);
    tr.end(span) * 1e9 / ARRIVALS as f64
}

/// What one traced pass found.
pub struct Pass {
    pub sample: Sample,
    /// Checks made (the child's output, the staged report's identity,
    /// the machine counts) and the ones that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// One traced pass over a workload: the child once (for its report and
/// its wall time), the staged pipeline, the variant runs that isolate
/// trace, observer and executor cost, and the machine probes.
pub fn pass(
    env: &Env,
    workload: &Workload,
    scratch: &Path,
    golden: Option<&Golden>,
    tr: &mut Tracer,
) -> Pass {
    let mut failures = Vec::new();
    let plan = &workload.plan;
    let whole = tr.begin("pass");

    let child = tr.begin("child");
    let invocation = invoke(env, workload, scratch, golden);
    tr.end(child);
    let (child_wall_s, child_report) = match invocation {
        Ok(inv) => (inv.exit.wall_s, Some(inv.report)),
        Err(e) => {
            failures.push(format!("child: {e}"));
            (0.0, None)
        }
    };

    // The child's pipeline, staged.
    let staged = tr.begin("staged");
    let traced = Arm {
        trace: true,
        observe: false,
    };
    let mut world = stage_run(plan, traced, tr);
    let stats = world.rt.stats();
    let spec = spec_summary(&world.rt, plan);
    let records = tr.time("core.take_trace", || world.rt.take_trace());
    let rollup = tr.time("obs.rollup", || Rollup::from_records(&records));
    let mut series = None;
    let title = match plan {
        Plan::Kernel(cfg) => cfg.title(),
        Plan::Serve(cfg) => cfg.title(),
    };
    let report = {
        let mut report = Report::new(
            &title,
            &rollup,
            &stats,
            world.rt.program(),
            world.rt.schemas(),
        )
        .with_sched(SchedSummary::from_stats(&stats.sched));
        if let Plan::Serve(cfg) = plan {
            let outcome = world.outcome.as_ref().expect("serve outcome");
            let blame = tr.time("obs.blame", || {
                Blame::from_records(&records).summary(0.99, 10)
            });
            let summary = tr.time("obs.series", || {
                Series::from_records(series_window(cfg), &records).summary()
            });
            report = report
                .with_service(cfg.summary(outcome))
                .with_blame(blame)
                .with_series(summary.clone());
            series = Some(summary);
        }
        if let Some(spec) = &spec {
            report = report.with_speculative(spec.clone());
        }
        report
    };
    let report_json = tr.time("obs.report", || report.json());
    let mut out_bytes = report_json.len() + 1;
    tr.time("hemprof.write", || {
        std::fs::write(
            scratch.join("staged_report.json"),
            format!("{report_json}\n"),
        )
        .expect("write staged report");
    });
    let mut perfetto_bytes = 0;
    let mut timeline = None;
    if workload.export {
        let tl = tr.time("obs.timeline", || {
            Timeline::build(&records, stats.per_node.len())
        });
        let json = tr.time("obs.perfetto", || {
            perfetto::to_json_full(
                &records,
                &tl,
                world.rt.program(),
                spec.as_ref(),
                series.as_ref(),
            )
        });
        perfetto_bytes = json.len();
        out_bytes += json.len();
        tr.time("hemprof.write", || {
            std::fs::write(scratch.join("staged_perfetto.json"), &json)
                .expect("write staged perfetto");
        });
        tr.time("obs.critpath", || {
            black_box((critpath::critical_path(&tl), critpath::node_breakdowns(&tl)));
        });
        timeline = Some((tl, json));
    }
    let trace_records = records.len();
    let run_cpu_s = world.run_cpu_s;
    tr.time("hemprof.drop", || {
        drop((world, records, rollup, report, series, timeline))
    });
    let staged_total_s = tr.end(staged);

    match &child_report {
        Some(line) if *line != report_json => {
            failures.push("staged report differs from the child's".into())
        }
        _ => {}
    }
    let counts = counts_of(&stats);
    if let Some(golden) = golden {
        let diff = golden.diff_counts(&counts);
        if !diff.is_empty() {
            failures.push(format!("golden mismatch: {}", diff.join("; ")));
        }
    }

    // Variants: the same pipeline without the trace, with the workload's
    // observers inline, and (threaded workloads) on the serial executor.
    let variant = |tr: &mut Tracer, name: &'static str, plan: &Plan, arm: Arm| -> f64 {
        let group = tr.begin(name);
        let world = stage_run(plan, arm, tr);
        drop(world);
        tr.end(group);
        tr.total_under(group, "core.run")
    };
    let notrace = Arm {
        trace: false,
        observe: false,
    };
    let observed = Arm {
        trace: true,
        observe: true,
    };
    let run_s = tr.total_under(staged, "core.run");
    let run_notrace_s = variant(tr, "variant.notrace", plan, notrace);
    let run_observed_s = variant(tr, "variant.observed", plan, observed);
    let exec_overhead_s = match workload.serial_baseline() {
        Some(base) => run_s - variant(tr, "variant.serial", &Plan::Kernel(base), traced),
        None => 0.0,
    };

    let probes = tr.begin("probes");
    let net_ns_per_msg = probe_net(plan, &stats, tr);
    let arrival_ns_per_req = probe_arrival(plan, tr);
    tr.end(probes);
    tr.end(whole);

    let t = stats.totals();
    let sched = &stats.sched;
    let spec = spec.unwrap_or_default();
    let stack = t.stack_nb + t.stack_mb + t.stack_cp + t.inlined;
    let of = |name: &str| tr.total_under(staged, name);
    let rollup_s = of("obs.rollup");
    let sample: Sample = [
        ("ir.build_s", of("ir.build")),
        ("analysis.analyze_s", of("analysis.analyze")),
        ("core.runtime_new_s", of("core.runtime_new")),
        ("apps.generate_s", of("apps.generate")),
        ("core.setup_s", of("core.setup")),
        ("core.run_s", run_s),
        ("core.run_notrace_s", run_notrace_s),
        ("core.trace_s", run_s - run_notrace_s),
        (
            "core.ns_per_instr",
            ratio(run_s * 1e9, t.instructions as f64),
        ),
        (
            "core.us_per_event",
            ratio(run_s * 1e6, sched.events_dispatched as f64),
        ),
        ("core.instructions", t.instructions as f64),
        ("core.stack_invokes", stack as f64),
        ("core.par_invokes", t.par_invokes as f64),
        ("core.ctx_alloc", t.ctx_alloc as f64),
        ("core.fallbacks", t.fallbacks as f64),
        ("core.suspends", t.suspends as f64),
        ("core.msgs_sent", t.msgs_sent as f64),
        ("core.msgs_handled", t.msgs_handled as f64),
        ("core.wrapper_runs", t.wrapper_runs as f64),
        ("core.lock_conflicts", t.lock_conflicts as f64),
        ("core.retransmits", t.retransmits as f64),
        ("core.acks_sent", t.acks_sent as f64),
        ("core.dups_suppressed", t.dups_suppressed as f64),
        ("core.coll_legs_sent", t.coll_legs_sent as f64),
        ("core.trace_records", trace_records as f64),
        (
            "core.stack_frac",
            ratio(stack as f64, t.total_invokes() as f64),
        ),
        (
            "core.fallback_frac",
            ratio(
                t.fallbacks as f64,
                (t.stack_mb + t.stack_cp + t.fallbacks) as f64,
            ),
        ),
        ("sched.events_dispatched", sched.events_dispatched as f64),
        ("sched.heap_pushes", sched.heap_pushes as f64),
        ("sched.stale_pops", sched.stale_pops as f64),
        ("sched.max_heap_depth", sched.max_heap_depth as f64),
        ("sched.windows", sched.windows as f64),
        ("sched.serial_steps", sched.serial_steps as f64),
        ("sched.runtime_moves", sched.runtime_moves as f64),
        ("sched.coord_roundtrips", sched.coord_roundtrips as f64),
        ("sched.pool_reuses", sched.pool_reuses as f64),
        ("spec.windows", spec.windows as f64),
        ("spec.rollbacks", spec.rollbacks as f64),
        ("spec.anti_messages", spec.anti_messages as f64),
        ("spec.ckpt_nodes", spec.ckpt_nodes as f64),
        ("spec.max_window", spec.max_window as f64),
        (
            "sched.stale_pop_frac",
            ratio(
                sched.stale_pops as f64,
                (sched.stale_pops + sched.events_dispatched) as f64,
            ),
        ),
        (
            "sched.events_per_window",
            ratio(sched.window_events as f64, sched.windows as f64),
        ),
        ("spec.rollback_frac", spec.rollback_rate()),
        ("sched.exec_overhead_s", exec_overhead_s),
        ("sched.cpu_over_wall", ratio(run_cpu_s, run_s)),
        ("machine.net_sent", stats.net.sent as f64),
        ("machine.net_delivered", stats.net.delivered as f64),
        ("machine.net_words", stats.net.words as f64),
        ("machine.net_ack_words", stats.net.ack_words as f64),
        ("machine.net_retx_words", stats.net.retx_words as f64),
        ("machine.faults_dropped", stats.net.faults.dropped as f64),
        (
            "machine.faults_duplicated",
            stats.net.faults.duplicated as f64,
        ),
        ("machine.net_ns_per_msg", net_ns_per_msg),
        (
            "machine.net_est_s",
            net_ns_per_msg * 1e-9 * stats.net.sent as f64,
        ),
        ("machine.arrival_ns_per_req", arrival_ns_per_req),
        ("obs.rollup_s", rollup_s),
        ("obs.blame_s", of("obs.blame")),
        ("obs.series_s", of("obs.series")),
        ("obs.timeline_s", of("obs.timeline")),
        ("obs.critpath_s", of("obs.critpath")),
        ("obs.perfetto_s", of("obs.perfetto")),
        ("obs.report_s", of("obs.report")),
        (
            "obs.ns_per_record",
            ratio(rollup_s * 1e9, trace_records as f64),
        ),
        ("obs.perfetto_bytes", perfetto_bytes as f64),
        ("obs.report_bytes", report_json.len() as f64),
        ("obs.inline_observer_s", run_observed_s - run_s),
        ("hemprof.write_s", of("hemprof.write")),
        ("hemprof.drop_s", of("hemprof.drop")),
        ("hemprof.out_bytes", out_bytes as f64),
        ("hemprof.staged_total_s", staged_total_s),
        ("hemprof.child_wall_s", child_wall_s),
        ("hemprof.unattributed_s", child_wall_s - staged_total_s),
        (
            "trace.overhead_frac",
            ratio(staged_total_s, child_wall_s) - 1.0,
        ),
        ("trace.passes", 1.0),
    ]
    .into_iter()
    .collect();
    Pass {
        sample,
        attempted: 2 + u64::from(golden.is_some()),
        failures,
    }
}

/// Fold several passes into one sample: the median of each time and
/// ratio; counts must agree across passes (they are deterministic).
pub fn fold(passes: &[Sample]) -> Result<Sample, String> {
    let mut folded = Sample::new();
    for metric in &PER_LAYER {
        let values: Vec<f64> = passes
            .iter()
            .map(|s| *s.get(metric.name).expect("every pass reports every metric"))
            .collect();
        let value = if metric.name == "trace.passes" {
            values.iter().sum()
        } else if metric.unit == "count" || metric.unit == "bytes" {
            if values.iter().any(|v| *v != values[0]) {
                return Err(format!(
                    "{} differs between passes: {values:?}",
                    metric.name
                ));
            }
            values[0]
        } else {
            median(&values)
        };
        folded.insert(metric.name, value);
    }
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, DEFAULT_SEED};

    fn flat(value: f64) -> Sample {
        PER_LAYER.iter().map(|m| (m.name, value)).collect()
    }

    #[test]
    fn fold_takes_medians_and_demands_equal_counts() {
        let mut passes = vec![flat(1.0), flat(1.0), flat(1.0)];
        passes[0].insert("core.run_s", 3.0);
        passes[1].insert("core.run_s", 5.0);
        passes[2].insert("core.run_s", 4.0);
        let folded = fold(&passes).expect("fold");
        assert_eq!(folded["core.run_s"], 4.0);
        assert_eq!(folded["core.instructions"], 1.0);
        assert_eq!(folded["trace.passes"], 3.0);
        assert_eq!(folded.len(), PER_LAYER.len());

        passes[1].insert("core.instructions", 2.0);
        assert!(fold(&passes).unwrap_err().contains("core.instructions"));
    }

    #[test]
    fn untraced_counts_repeat_exactly() {
        let quick = workloads::all(DEFAULT_SEED, true);
        let sor = &quick[1];
        let first = machine_counts(sor);
        assert_eq!(first, machine_counts(sor));
        assert!(first.instructions > 0 && first.net_sent > 0);
        let fib = machine_counts(&quick[0]);
        assert_eq!((fib.net_sent, fib.net_words), (0, 0));
    }
}
