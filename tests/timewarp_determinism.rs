//! Optimistic (Time-Warp) executor determinism.
//!
//! `SchedImpl::Speculative` runs windows *past* the conservative
//! lookahead bound, detecting cross-shard stragglers after the fact and
//! rolling back to window-edge checkpoints (see `hem_core::timewarp`).
//! Its contract is the sharded executor's, strengthened: speculation —
//! including every rollback, anti-message, and re-drawn window — is
//! *invisible*. The run is the same pure function of (program,
//! placement, cost model, mode, fault plan) at every thread count, even
//! in the zero-lookahead regime where the conservative executor
//! degrades to serial coordinator steps.
//!
//! The matrix pins that down against the single-threaded event index on
//! all four app kernels × three pinned seeds × threads {2, 4}, with and
//! without a fault plan:
//!
//! * bit-identical makespans, per-node clocks, per-node counters, and
//!   network/fault statistics (fault fates survive rollback re-sends:
//!   per-sender wire sequence counters rewind with the node snapshots);
//! * bit-identical full trace sequences (first divergence reported);
//! * bit-identical observer streams — the rendered rollup *report text*
//!   matches byte for byte;
//! * degenerate cases: P=1, threads > P, threads ∈ {0, 1}, and a
//!   zero-latency cost model — the case the optimistic executor exists
//!   for, asserted to actually speculate rather than fall back.
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the CI
//! timewarp-determinism job pins three), else a built-in trio.

mod common;

use common::{assert_same_trace, seeds};
use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::TraceRecord;
use hem::core::{ExecMode, Runtime, SchedImpl, SpecStats};
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::obs::{Report, Rollup};

/// Everything observable about one run, including the rendered rollup
/// report fed by an *online* observer (not the trace buffer), plus the
/// speculation diagnostics (compared against nothing — they are
/// thread-count-dependent by design — but asserted non-trivial where
/// the test's point is that speculation happened).
struct Outcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
    report: String,
    spec: SpecStats,
}

/// Run `kernel` at P=16 with tracing and a rollup observer on; `seed`
/// drives graph/layout generation (MD, EM3D) and the fault plan. `cost`
/// overrides the kernel's native cost model when set (the zero-lookahead
/// cases use `CostModel::unit()`).
fn run_kernel(
    kernel: &str,
    seed: u64,
    sched: SchedImpl,
    plan: Option<&FaultPlan>,
    cost: Option<CostModel>,
) -> Outcome {
    let arm = |rt: &mut Runtime| {
        rt.sched_impl = sched;
        rt.enable_trace();
        rt.attach_observer(Box::new(Rollup::new()));
        if let Some(p) = plan {
            rt.set_fault_plan(p.clone());
        }
    };
    let pick = |native: CostModel| cost.clone().unwrap_or(native);
    let mut rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                pick(CostModel::cm5()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = sor::setup(
                &mut rt,
                &ids,
                sor::SorParams {
                    n: 20,
                    block: 2,
                    procs: ProcGrid::square(16),
                },
            );
            sor::run(&mut rt, &inst, 2).unwrap();
            rt
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(40, 4, 16, 0.4, seed);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                pick(CostModel::t3d()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).unwrap();
            rt
        }
        "md" => {
            let ids = md::build();
            let sys = md::generate(120, 1.2, 16, md::Layout::Spatial, seed);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                pick(CostModel::cm5()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        "sync" => {
            let ids = sync::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                pick(CostModel::cm5()),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = sync::setup(&mut rt, &ids, 16);
            rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
            rt.call(inst.drivers[0], ids.scatter, &[]).unwrap();
            rt.call(inst.drivers[1], ids.sum_all, &[]).unwrap();
            rt.call(inst.drivers[2], ids.quiesce, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new(kernel, &rollup, &stats, rt.program(), rt.schemas()).text();
    Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
        spec: rt.spec_stats(),
    }
}

const KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// Thread counts the matrix diffs against the single-threaded baseline.
const THREADS: [usize; 2] = [2, 4];

fn assert_bit_identical(label: &str, base: &Outcome, spec: &Outcome) {
    assert_eq!(base.makespan, spec.makespan, "{label}: makespan");
    assert_eq!(
        base.stats.node_time, spec.stats.node_time,
        "{label}: per-node clocks"
    );
    assert_eq!(
        base.stats.per_node, spec.stats.per_node,
        "{label}: per-node counters"
    );
    assert_eq!(base.stats.net, spec.stats.net, "{label}: net/fault stats");
    assert_same_trace(label, &base.trace, &spec.trace);
    assert_eq!(
        base.stats.sched.events_dispatched, spec.stats.sched.events_dispatched,
        "{label}: events dispatched"
    );
    assert_eq!(base.report, spec.report, "{label}: rollup report text");
}

/// Fault-free matrix: every kernel × every pinned seed, speculative at 2
/// and 4 threads vs the single-threaded event index.
#[test]
fn speculative_matches_event_index_on_all_kernels() {
    for kernel in KERNELS {
        for seed in seeds() {
            let base = run_kernel(kernel, seed, SchedImpl::EventIndex, None, None);
            for threads in THREADS {
                let sp = run_kernel(kernel, seed, SchedImpl::Speculative { threads }, None, None);
                assert_bit_identical(&format!("{kernel}/seed{seed}/threads{threads}"), &base, &sp);
            }
        }
    }
}

/// Faulty matrix: the same diff with a seeded fault plan installed
/// (loss, duplication, jitter; reliable transport engaged). This is
/// where rollback correctness earns its keep: a rolled-back window's
/// re-sent packets must re-draw *identical* fault fates, which holds
/// only because the per-sender wire sequence counters rewind with the
/// node snapshots.
#[test]
fn speculative_matches_event_index_under_faults() {
    for kernel in KERNELS {
        for seed in seeds() {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop_permille = 20;
            plan.dup_permille = 20;
            plan.jitter_max = 80;
            let base = run_kernel(kernel, seed, SchedImpl::EventIndex, Some(&plan), None);
            for threads in THREADS {
                let sp = run_kernel(
                    kernel,
                    seed,
                    SchedImpl::Speculative { threads },
                    Some(&plan),
                    None,
                );
                assert_bit_identical(
                    &format!("{kernel}/seed{seed}/faulty/threads{threads}"),
                    &base,
                    &sp,
                );
            }
        }
    }
}

/// The zero-lookahead regime — the case this executor exists for. Under
/// `CostModel::unit()` the minimum wire latency is zero, so the
/// conservative sharded executor degrades to serial coordinator steps;
/// the speculative executor must keep windowing (asserted via its
/// diagnostics) and still reproduce the event index bit for bit.
#[test]
fn speculative_wins_the_zero_lookahead_regime_bit_identically() {
    let unit = Some(CostModel::unit());
    for kernel in ["sor", "sync"] {
        let base = run_kernel(kernel, 1, SchedImpl::EventIndex, None, unit.clone());
        // The conservative executor serializes here: every event becomes
        // a coordinator serial step, so it must still match…
        let sh = run_kernel(
            kernel,
            1,
            SchedImpl::Sharded { threads: 4 },
            None,
            unit.clone(),
        );
        assert_bit_identical(&format!("{kernel}/unit/sharded4"), &base, &sh);
        // …while the speculative executor genuinely windows.
        for threads in THREADS {
            let sp = run_kernel(
                kernel,
                1,
                SchedImpl::Speculative { threads },
                None,
                unit.clone(),
            );
            assert_bit_identical(&format!("{kernel}/unit/threads{threads}"), &base, &sp);
            assert!(
                sp.spec.windows > 0,
                "{kernel}/unit/threads{threads}: zero lookahead must speculate, not serialize \
                 (diagnostics: {:?})",
                sp.spec
            );
        }
    }
}

/// Degenerate thread counts fall back to the event index outright
/// (threads ∈ {0, 1}, with zeroed speculation diagnostics), and thread
/// counts above the node count clamp and still reproduce the baseline.
#[test]
fn degenerate_thread_counts_match() {
    let base = run_kernel("sor", 1, SchedImpl::EventIndex, None, None);
    for threads in [0usize, 1, 16, 64] {
        let sp = run_kernel("sor", 1, SchedImpl::Speculative { threads }, None, None);
        assert_bit_identical(&format!("sor/degenerate/threads{threads}"), &base, &sp);
        if threads <= 1 {
            assert_eq!(
                sp.spec,
                SpecStats::default(),
                "threads={threads}: fallback must not speculate"
            );
        }
    }
}

/// P=1: a single-node machine leaves nothing to shard — every thread
/// count clamps to one worker and falls back to the event index.
#[test]
fn single_node_machine_matches() {
    let run = |sched: SchedImpl| {
        let ids = sync::build();
        let mut rt = Runtime::new(
            ids.program.clone(),
            1,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.sched_impl = sched;
        rt.enable_trace();
        let inst = sync::setup(&mut rt, &ids, 1);
        rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
        sync::run_rendezvous(&mut rt, &inst).unwrap();
        (rt.makespan(), rt.take_trace(), rt.stats(), rt.spec_stats())
    };
    let (mk, tr, st, _) = run(SchedImpl::EventIndex);
    for threads in [2usize, 4] {
        let (mk2, tr2, st2, spec) = run(SchedImpl::Speculative { threads });
        assert_eq!(mk, mk2, "P=1 threads={threads}: makespan");
        assert_same_trace(&format!("P=1 threads={threads}: trace"), &tr, &tr2);
        assert_eq!(st.per_node, st2.per_node, "P=1 threads={threads}: counters");
        assert_eq!(spec, SpecStats::default(), "P=1 cannot speculate");
    }
}
