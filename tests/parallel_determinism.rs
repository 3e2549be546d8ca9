//! Host-parallel sharded-executor determinism.
//!
//! `SchedImpl::Sharded` spreads the event index across host worker
//! threads under a conservative virtual-time window protocol; its
//! contract is that host parallelism is *invisible* — the run is the same
//! pure function of (program, placement, cost model, mode, fault plan) at
//! every thread count. These tests pin that down against the
//! single-threaded event index on all four app kernels × three pinned
//! seeds, with and without a fault plan:
//!
//! * bit-identical makespans, per-node clocks, per-node counters, and
//!   network/fault statistics;
//! * bit-identical full trace sequences (first divergence reported);
//! * bit-identical observer streams — an attached `hem_obs::Rollup` sees
//!   the merged shard captures in exactly the single-threaded emission
//!   order, so the rendered rollup *report text* matches byte for byte.
//!
//! The heap diagnostics (`heap_pushes`, `stale_pops`, `max_heap_depth`)
//! are per-worker implementation details and read 0 under the sharded
//! executor (the reference loop sets the precedent); they are deliberately
//! excluded from the comparison, as are the reports (which never show
//! them).
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the CI
//! parallel-determinism job pins three), else a built-in trio.

mod common;

use common::{assert_same_trace, seeds};
use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::TraceRecord;
use hem::core::{ExecMode, Runtime, SchedImpl};
use hem::ir::{BinOp, ProgramBuilder, Value};
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::obs::{Report, Rollup};
use hem::NodeId;

/// Everything observable about one run, including the rendered rollup
/// report fed by an *online* observer (not the trace buffer).
struct Outcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
    report: String,
}

/// Run `kernel` at P=16 with tracing and a rollup observer on; `seed`
/// drives graph/layout generation (MD, EM3D) and the fault plan.
fn run_kernel(kernel: &str, seed: u64, sched: SchedImpl, plan: Option<&FaultPlan>) -> Outcome {
    let arm = |rt: &mut Runtime| {
        rt.sched_impl = sched;
        rt.enable_trace();
        rt.attach_observer(Box::new(Rollup::new()));
        if let Some(p) = plan {
            rt.set_fault_plan(p.clone());
        }
    };
    let rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
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
                CostModel::t3d(),
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
                CostModel::cm5(),
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
                CostModel::cm5(),
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
    outcome(kernel, rt)
}

/// The observables of a finished run whose `Rollup` observer is attached.
fn outcome(kernel: &str, mut rt: Runtime) -> Outcome {
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new(kernel, &rollup, &stats, rt.program(), rt.schemas()).text();
    Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
    }
}

const KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// Thread counts the matrix diffs against the single-threaded baseline.
const THREADS: [usize; 2] = [2, 4];

fn assert_bit_identical(label: &str, base: &Outcome, sharded: &Outcome) {
    assert_eq!(base.makespan, sharded.makespan, "{label}: makespan");
    assert_eq!(
        base.stats.node_time, sharded.stats.node_time,
        "{label}: per-node clocks"
    );
    assert_eq!(
        base.stats.per_node, sharded.stats.per_node,
        "{label}: per-node counters"
    );
    assert_eq!(
        base.stats.net, sharded.stats.net,
        "{label}: net/fault stats"
    );
    assert_same_trace(label, &base.trace, &sharded.trace);
    assert_eq!(
        base.stats.sched.events_dispatched, sharded.stats.sched.events_dispatched,
        "{label}: events dispatched"
    );
    assert_eq!(base.report, sharded.report, "{label}: rollup report text");
}

/// Fault-free matrix: every kernel × every pinned seed, sharded at 2 and
/// 4 threads vs the single-threaded event index.
#[test]
fn sharded_matches_event_index_on_all_kernels() {
    for kernel in KERNELS {
        for seed in seeds() {
            let base = run_kernel(kernel, seed, SchedImpl::EventIndex, None);
            for threads in THREADS {
                let sh = run_kernel(kernel, seed, SchedImpl::Sharded { threads }, None);
                assert_bit_identical(&format!("{kernel}/seed{seed}/threads{threads}"), &base, &sh);
            }
        }
    }
}

/// Faulty matrix: the same diff with a seeded fault plan installed
/// (loss, duplication, jitter; reliable transport engaged) — the window
/// protocol must stay conservative when retransmission timers and
/// fault-perturbed delivery times are in play.
#[test]
fn sharded_matches_event_index_under_faults() {
    for kernel in KERNELS {
        for seed in seeds() {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop_permille = 20;
            plan.dup_permille = 20;
            plan.jitter_max = 80;
            let base = run_kernel(kernel, seed, SchedImpl::EventIndex, Some(&plan));
            for threads in THREADS {
                let sh = run_kernel(kernel, seed, SchedImpl::Sharded { threads }, Some(&plan));
                assert_bit_identical(
                    &format!("{kernel}/seed{seed}/faulty/threads{threads}"),
                    &base,
                    &sh,
                );
            }
        }
    }
}

/// Degenerate thread counts fall back to the event index outright:
/// `threads` ∈ {0, 1} and thread counts above the node count (clamped)
/// all reproduce the baseline.
#[test]
fn degenerate_thread_counts_match() {
    let base = run_kernel("sor", 1, SchedImpl::EventIndex, None);
    for threads in [0usize, 1, 16, 64] {
        let sh = run_kernel("sor", 1, SchedImpl::Sharded { threads }, None);
        assert_bit_identical(&format!("sor/degenerate/threads{threads}"), &base, &sh);
    }
}

/// A knob changed between two chunks reaches every shard worker: SOR
/// 20×20 at P=16 runs one iteration, the knob changes, a second iteration
/// runs — on both threaded executors bit-identical to the event index
/// under the same change. (A pool kept from the first chunk used to run
/// the second with the old cost model, mode and inlining switch.)
#[test]
fn knob_changes_between_chunks_reach_the_workers() {
    type Change = fn(&mut Runtime);
    let changes: [(&str, Change); 4] = [
        ("cost.op x3", |rt| {
            let mut cost = rt.cost().clone();
            cost.op *= 3;
            rt.set_cost(cost);
        }),
        ("parallel-only", |rt| rt.set_mode(ExecMode::ParallelOnly)),
        ("no inlining", |rt| rt.set_inlining(false)),
        ("deeper stack", |rt| rt.set_max_seq_depth(4000)),
    ];
    let ids = sor::build();
    let run = |sched: SchedImpl, change: Change| {
        let mut rt = Runtime::new(
            ids.program.clone(),
            16,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.sched_impl = sched;
        rt.enable_trace();
        rt.attach_observer(Box::new(Rollup::new()));
        let procs = ProcGrid::square(16);
        let inst = sor::setup(
            &mut rt,
            &ids,
            sor::SorParams {
                n: 20,
                block: 2,
                procs,
            },
        );
        sor::run(&mut rt, &inst, 1).unwrap();
        change(&mut rt);
        sor::run(&mut rt, &inst, 1).unwrap();
        outcome("sor", rt)
    };
    for (what, change) in changes {
        let base = run(SchedImpl::EventIndex, change);
        for sched in [
            SchedImpl::Sharded { threads: 2 },
            SchedImpl::Speculative { threads: 2 },
        ] {
            let got = run(sched, change);
            assert_bit_identical(&format!("{what}/{sched:?}"), &base, &got);
        }
    }
}

/// A sequential call chain as deep as `max_seq_depth` allows, on a node
/// owned by shard 1: the worker thread's host stack must hold it under
/// both threaded executors. (The 2 MiB spawn default did not — `hemprof
/// sor --p 64 --size 512 --threads 2` aborted with a stack overflow while
/// the serial run passed on the 8 MiB main stack.) Then, on the same
/// runtime, the limit is doubled and a chain that deep runs: the workers'
/// depth guard and stacks must follow the knob, not keep the pool's.
#[test]
fn deep_local_chain_fits_the_worker_stack() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let peer = pb.field(c, "peer");
    let down = pb.declare(c, "down", 1);
    pb.define(down, |mb| {
        let k = mb.arg(0);
        let done = mb.binl(BinOp::Le, k, 0);
        mb.if_else(
            done,
            |mb| mb.reply(0i64),
            |mb| {
                let me = mb.self_ref();
                let k1 = mb.binl(BinOp::Sub, k, 1);
                let s = mb.invoke_into(me, down, &[k1.into()]);
                let v = mb.touch_get(s);
                let r = mb.binl(BinOp::Add, v, 1);
                mb.reply(r);
            },
        );
    });
    // The root invocation runs on the calling thread, so reach node 1
    // through a message: its handler runs in a window, on worker 1.
    let relay = pb.declare(c, "relay", 1);
    pb.define(relay, |mb| {
        let pr = mb.get_field(peer);
        let s = mb.invoke_into(pr, down, &[mb.arg(0).into()]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let program = pb.finish();
    let run = move |sched: SchedImpl| {
        let mut rt = Runtime::new(
            program.clone(),
            2,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .expect("valid program");
        rt.sched_impl = sched;
        rt.enable_trace();
        let root = rt.alloc_object_by_name("C", NodeId(0));
        let far = rt.alloc_object_by_name("C", NodeId(1));
        rt.set_field(root, peer, Value::Obj(far));
        for limit in [rt.max_seq_depth(), 2 * rt.max_seq_depth()] {
            rt.set_max_seq_depth(limit);
            let depth = limit as i64 - 8;
            let result = rt.call(root, relay, &[Value::Int(depth)]).expect("runs");
            assert_eq!(result, Some(Value::Int(depth)));
        }
        let stats = rt.stats();
        assert_eq!(stats.per_node[1].fallbacks, 0, "chain stayed on the stack");
        (rt.makespan(), rt.take_trace(), stats)
    };
    // The serial reference recurses on the calling thread, and test
    // threads get the 2 MiB default too: give it a main-thread-class
    // stack of its own.
    let base = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn({
            let run = run.clone();
            move || run(SchedImpl::EventIndex)
        })
        .expect("spawn reference thread")
        .join()
        .expect("reference run");
    for sched in [
        SchedImpl::Sharded { threads: 2 },
        SchedImpl::Speculative { threads: 2 },
    ] {
        let got = run(sched);
        assert_eq!(got.0, base.0, "{sched:?}: makespan");
        assert_same_trace(&format!("{sched:?}: trace"), &base.1, &got.1);
        assert_eq!(got.2.per_node, base.2.per_node, "{sched:?}: counters");
        assert_eq!(got.2.net, base.2.net, "{sched:?}: net stats");
    }
}
