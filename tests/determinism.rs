//! Scheduler determinism and event-index equivalence.
//!
//! The dispatch loop's contract is a total order on events —
//! `(virtual time, message-before-compute, node id, message seq)` — so a
//! run is a pure function of (program, placement, cost model, mode). These
//! tests pin that down two ways:
//!
//! 1. **Repeatability**: every kernel run twice produces bit-identical
//!    makespans, per-node clocks, per-node counters, and full trace event
//!    sequences.
//! 2. **Implementation equivalence**: the O(log P) event-index dispatcher
//!    and the O(P) reference loop (a linear scan over every node per
//!    event) select exactly the same events in exactly the same order —
//!    the scan is the executable specification the heap is checked
//!    against, trace record by trace record.

mod common;

use common::{assert_same_trace, Exec};
use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::TraceRecord;
use hem::core::{ExecMode, Runtime, SchedImpl};
use hem::machine::cost::CostModel;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;

/// One full run of a kernel at P=16 with tracing on: the complete
/// observable outcome.
struct RunOutcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
}

fn run_kernel(kernel: &str, mode: ExecMode, exec: impl Into<Exec>) -> RunOutcome {
    let exec = exec.into();
    let mut rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            exec.arm(&mut rt);
            rt.enable_trace();
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
            let g = em3d::generate(40, 4, 16, 0.4, 3);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::t3d(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            exec.arm(&mut rt);
            rt.enable_trace();
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).unwrap();
            rt
        }
        "md" => {
            let ids = md::build();
            let sys = md::generate(120, 1.2, 16, md::Layout::Spatial, 5);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            exec.arm(&mut rt);
            rt.enable_trace();
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        "sync" => {
            let ids = sync::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            exec.arm(&mut rt);
            rt.enable_trace();
            let inst = sync::setup(&mut rt, &ids, 16);
            rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    RunOutcome {
        makespan: rt.makespan(),
        stats: rt.stats(),
        trace: rt.take_trace(),
    }
}

const KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// Identical runs are bit-identical: makespan, per-node clocks, per-node
/// counters, and the full trace sequence.
#[test]
fn kernels_repeat_bit_identically() {
    for kernel in KERNELS {
        for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
            let a = run_kernel(kernel, mode, SchedImpl::EventIndex);
            let b = run_kernel(kernel, mode, SchedImpl::EventIndex);
            assert_eq!(a.makespan, b.makespan, "{kernel}/{mode}: makespan");
            assert_eq!(
                a.stats.node_time, b.stats.node_time,
                "{kernel}/{mode}: per-node clocks"
            );
            assert_eq!(
                a.stats.per_node, b.stats.per_node,
                "{kernel}/{mode}: per-node counters"
            );
            assert_same_trace(&format!("{kernel}/{mode}: repeat"), &a.trace, &b.trace);
        }
    }
}

/// The event index and the linear scan are the same scheduler: identical
/// traces, clocks, and counters on every kernel in both execution modes.
#[test]
fn event_index_matches_linear_scan() {
    for kernel in KERNELS {
        for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
            let heap = run_kernel(kernel, mode, SchedImpl::EventIndex);
            let scan = run_kernel(kernel, mode, Exec::Reference);
            assert_eq!(heap.makespan, scan.makespan, "{kernel}/{mode}: makespan");
            assert_eq!(
                heap.stats.node_time, scan.stats.node_time,
                "{kernel}/{mode}: per-node clocks"
            );
            assert_eq!(
                heap.stats.per_node, scan.stats.per_node,
                "{kernel}/{mode}: per-node counters"
            );
            assert_same_trace(
                &format!("{kernel}/{mode}: event-index vs reference"),
                &heap.trace,
                &scan.trace,
            );
        }
    }
}

/// The scheduler counters are live under the event index and quiet under
/// the scan, and dispatch at least one event per message handled.
#[test]
fn sched_stats_reflect_dispatch() {
    let heap = run_kernel("sor", ExecMode::Hybrid, SchedImpl::EventIndex);
    let scan = run_kernel("sor", ExecMode::Hybrid, Exec::Reference);
    assert_eq!(
        heap.stats.sched.events_dispatched, scan.stats.sched.events_dispatched,
        "both implementations dispatch the same event count"
    );
    assert!(heap.stats.sched.events_dispatched > 0);
    assert!(heap.stats.sched.heap_pushes >= heap.stats.sched.events_dispatched);
    assert!(heap.stats.sched.max_heap_depth > 0);
    assert_eq!(
        scan.stats.sched.heap_pushes, 0,
        "scan never touches the heap"
    );
    assert_eq!(scan.stats.sched.max_heap_depth, 0);
}

/// The online sanitizer is semantically free: at P = 64 a SOR run's trace
/// and makespan are bit-identical with it armed or not (its hooks never
/// charge virtual time or emit events). Every other suite arms it
/// unconditionally, so only this case compares the two.
#[test]
fn sanitizer_on_and_off_are_bit_identical() {
    let run = |sanitize: bool| {
        let ids = sor::build();
        let mut rt = Runtime::new(
            ids.program.clone(),
            64,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.enable_trace();
        if sanitize {
            rt.enable_sanitizer();
        }
        let params = sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(64),
        };
        let inst = sor::setup(&mut rt, &ids, params);
        sor::run(&mut rt, &inst, 1).unwrap();
        let violations = rt.sanitizer_violations();
        assert!(violations.is_empty(), "clean run flagged: {violations:?}");
        (rt.makespan(), rt.take_trace())
    };
    let (mk_off, trace_off) = run(false);
    let (mk_on, trace_on) = run(true);
    assert_eq!(mk_off, mk_on, "sanitizer changed the makespan");
    assert_same_trace("sanitizer off vs on", &trace_off, &trace_on);
}
