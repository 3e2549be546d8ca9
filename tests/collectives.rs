//! Cross-executor conformance for the modeled collectives
//! (multicast / reduce / barrier).
//!
//! Collectives are priced on a virtual binary fan-out tree (see
//! `hem_machine::net`): every down leg originates at the initiator but is
//! delivered `depth` wire hops later, and contributions fold up the same
//! tree in slot order. Their observable behaviour must be a pure function
//! of (program, placement, cost model, fault plan) on *every* scheduler
//! implementation. This suite pins that down three ways:
//!
//! * **Executor matrix** — the collectives-heavy kernels (sync's full
//!   cast/reduce/barrier mix, EM3D, SOR) run bit-identically on the
//!   linear scan, the sharded executor and the optimistic (Time-Warp)
//!   executor at 2 and 4 threads, against the event-index baseline, over
//!   three pinned seeds, with and without a seeded fault plan.
//! * **Degenerate groups** — empty groups, size-1 groups, groups covering
//!   every node, and a root that is itself a member (self-leg) all
//!   resolve with the right values and the same bit-identity.
//! * **Hop pricing** — an explicit assertion on the delivery schedule:
//!   deeper tree legs land exactly `Δdepth × msg_latency` later than
//!   shallow ones. A uniform mispricing (every leg charged one hop) is
//!   invisible to cross-executor diffing — every executor reproduces the
//!   wrong schedule bit-identically — so only this direct check catches
//!   the seeded `collective-skips-hop-cost` mutant.
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the CI collectives job
//! pins them), else a built-in trio.

mod common;

use common::{assert_same_trace, seeds, Exec};
use hem::analysis::InterfaceSet;
use hem::apps::{em3d, sor, sync};
use hem::core::trace::{MsgCause, TraceEvent, TraceRecord};
use hem::core::{ExecMode, Runtime, SchedImpl};
use hem::ir::Value;
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::machine::NodeId;
use hem::obs::{Report, Rollup};

/// Everything observable about one run, including the rendered rollup
/// report fed by an *online* observer (not the trace buffer).
struct Outcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
    report: String,
    results: Vec<Option<Value>>,
}

/// Every non-baseline executor the matrix diffs against
/// `SchedImpl::EventIndex`.
fn executors() -> Vec<(&'static str, Exec)> {
    vec![
        ("linear-scan", Exec::Reference),
        ("sharded-2", SchedImpl::Sharded { threads: 2 }.into()),
        ("sharded-4", SchedImpl::Sharded { threads: 4 }.into()),
        (
            "speculative-2",
            SchedImpl::Speculative { threads: 2 }.into(),
        ),
        (
            "speculative-4",
            SchedImpl::Speculative { threads: 4 }.into(),
        ),
    ]
}

fn arm(rt: &mut Runtime, exec: Exec, plan: Option<&FaultPlan>) {
    exec.arm(rt);
    rt.enable_trace();
    rt.attach_observer(Box::new(Rollup::new()));
    if let Some(p) = plan {
        rt.set_fault_plan(p.clone());
    }
}

fn finish(kernel: &str, mut rt: Runtime, results: Vec<Option<Value>>) -> Outcome {
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new(kernel, &rollup, &stats, rt.program(), rt.schemas()).text();
    Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
        results,
    }
}

/// Run one collectives-exercising kernel at P=16. `seed` drives graph
/// generation (EM3D) and the fault plan.
fn run_kernel(kernel: &str, seed: u64, exec: impl Into<Exec>, plan: Option<&FaultPlan>) -> Outcome {
    let sched = exec.into();
    match kernel {
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
            arm(&mut rt, sched, plan);
            let inst = sor::setup(
                &mut rt,
                &ids,
                sor::SorParams {
                    n: 12,
                    block: 2,
                    procs: ProcGrid::square(16),
                },
            );
            sor::run(&mut rt, &inst, 1).unwrap();
            finish(kernel, rt, Vec::new())
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(30, 4, 16, 0.4, seed);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::t3d(),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt, sched, plan);
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 1).unwrap();
            finish(kernel, rt, Vec::new())
        }
        "sync" => {
            // The full structure mix: acked multicast, fire-and-forget
            // multicast, modeled reduce, modeled barrier.
            let ids = sync::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt, sched, plan);
            let inst = sync::setup(&mut rt, &ids, 16);
            let results = vec![
                rt.call(inst.drivers[0], ids.fan, &[]).unwrap(),
                rt.call(inst.drivers[0], ids.scatter, &[]).unwrap(),
                rt.call(inst.drivers[1], ids.sum_all, &[]).unwrap(),
                rt.call(inst.drivers[2], ids.quiesce, &[]).unwrap(),
            ];
            finish(kernel, rt, results)
        }
        other => panic!("unknown kernel {other}"),
    }
}

const KERNELS: [&str; 3] = ["sync", "em3d", "sor"];

fn assert_bit_identical(label: &str, base: &Outcome, other: &Outcome) {
    assert_eq!(base.results, other.results, "{label}: call results");
    assert_eq!(base.makespan, other.makespan, "{label}: makespan");
    assert_eq!(
        base.stats.node_time, other.stats.node_time,
        "{label}: per-node clocks"
    );
    assert_eq!(
        base.stats.per_node, other.stats.per_node,
        "{label}: per-node counters"
    );
    assert_eq!(base.stats.net, other.stats.net, "{label}: net/fault stats");
    assert_same_trace(label, &base.trace, &other.trace);
    assert_eq!(
        base.stats.sched.events_dispatched, other.stats.sched.events_dispatched,
        "{label}: events dispatched"
    );
    assert_eq!(base.report, other.report, "{label}: rollup report text");
}

/// Sanity floor for the matrix: every kernel actually issues collectives
/// (otherwise the suite silently stops testing them).
fn assert_uses_collectives(label: &str, out: &Outcome) {
    let t = out.stats.totals();
    assert!(
        t.coll_initiated > 0,
        "{label}: kernel issued no collectives"
    );
    assert!(t.coll_legs_sent > 0, "{label}: no collective legs sent");
}

/// Fault-free matrix: every collectives kernel × pinned seed × executor
/// against the event-index baseline.
#[test]
fn collectives_bit_identical_across_executors() {
    for kernel in KERNELS {
        for seed in seeds() {
            let base = run_kernel(kernel, seed, SchedImpl::EventIndex, None);
            assert_uses_collectives(&format!("{kernel}/seed{seed}"), &base);
            for (name, sched) in executors() {
                let other = run_kernel(kernel, seed, sched, None);
                assert_bit_identical(&format!("{kernel}/seed{seed}/{name}"), &base, &other);
            }
        }
    }
}

/// Faulty matrix: the same diff with a seeded fault plan (loss,
/// duplication, jitter; reliable transport engaged) — collective legs
/// take the same transport path as point-to-point sends, so their fault
/// fates and retransmissions must replay identically everywhere,
/// including through Time-Warp rollbacks.
#[test]
fn collectives_bit_identical_under_faults() {
    for kernel in KERNELS {
        for seed in seeds() {
            let mut plan = FaultPlan::seeded(seed);
            plan.drop_permille = 20;
            plan.dup_permille = 20;
            plan.jitter_max = 80;
            let base = run_kernel(kernel, seed, SchedImpl::EventIndex, Some(&plan));
            assert_uses_collectives(&format!("{kernel}/seed{seed}/faulty"), &base);
            for (name, sched) in executors() {
                let other = run_kernel(kernel, seed, sched, Some(&plan));
                assert_bit_identical(&format!("{kernel}/seed{seed}/faulty/{name}"), &base, &other);
            }
        }
    }
}

/// Run the sync structures over a `n_cells`-member group at P=4 and
/// return (outcome, reduce result, barrier result).
fn run_degenerate(n_cells: u32, exec: impl Into<Exec>) -> Outcome {
    let ids = sync::build();
    let mut rt = Runtime::new(
        ids.program.clone(),
        4,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    arm(&mut rt, exec.into(), None);
    let inst = sync::setup(&mut rt, &ids, n_cells);
    // Drivers live on every node; cells fill nodes round-robin from node
    // 0 — so driver 0's collectives include a self-leg (root == member
    // node) whenever n_cells > 0, and driver 1's never do for n_cells=1.
    let results = vec![
        rt.call(inst.drivers[1], ids.fan, &[]).unwrap(),
        rt.call(inst.drivers[0], ids.sum_all, &[]).unwrap(),
        rt.call(inst.drivers[0], ids.quiesce, &[]).unwrap(),
    ];
    finish("sync-degenerate", rt, results)
}

/// Degenerate group shapes: empty, singleton, and a group spanning every
/// node (so the initiator is also a member's host) — correct values on
/// the baseline and bit-identity on every executor.
#[test]
fn degenerate_groups_resolve_and_stay_identical() {
    // (n_cells, expected sum_all result). fan bumps every cell by 1
    // first, so the reduce over n cells folds n ones; an empty group
    // resolves to Nil immediately.
    let cases = [
        (0u32, Value::Nil),
        (1, Value::Int(1)),
        (4, Value::Int(4)), // one cell per node: group size == P
    ];
    for (n_cells, want_sum) in cases {
        let base = run_degenerate(n_cells, SchedImpl::EventIndex);
        assert_eq!(
            base.results,
            vec![Some(Value::Nil), Some(want_sum), Some(Value::Nil)],
            "degenerate/{n_cells}: fan / sum_all / quiesce results"
        );
        let t = base.stats.totals();
        assert_eq!(
            t.coll_initiated, 3,
            "degenerate/{n_cells}: collectives issued"
        );
        assert_eq!(
            t.coll_legs_sent % 2,
            0,
            "degenerate/{n_cells}: reduce+barrier up legs mirror down legs \
             (fan is acked, so every kind pairs its legs)"
        );
        for (name, sched) in executors() {
            let other = run_degenerate(n_cells, sched);
            assert_bit_identical(&format!("degenerate/{n_cells}/{name}"), &base, &other);
        }
    }
}

/// The explicit hop-cost check that kills `collective-skips-hop-cost`.
///
/// One fire-and-forget multicast from node 0 to seven members on nodes
/// 1..=7 (rank r on node r+1, so tree position r+1): every leg originates
/// at the initiator, whose clock advances by `msg_word × words` per
/// injected leg, and a leg at tree depth d is delivered d wire hops
/// later. Each member node is otherwise idle and receives exactly one
/// message, so the first `Multicast` handled on node k reads
///
/// ```text
/// h(rank) = T0 + (rank+1)·msg_word·words + depth(rank+1)·msg_latency + k
/// ```
///
/// for a constant k — and pairwise differences expose the per-hop term
/// exactly. The mutant prices every leg at one hop; every executor
/// reproduces that wrong schedule bit-identically, so this direct
/// assertion is the only line of defense.
#[test]
fn multicast_legs_pay_per_hop_latency() {
    let ids = sync::build();
    let cm = CostModel::cm5();
    let mut rt = Runtime::new(
        ids.program.clone(),
        8,
        cm.clone(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    rt.enable_trace();
    // Hand placement: the driver on node 0, cell rank r on node r+1.
    let cells: Vec<_> = (0..7u32)
        .map(|r| {
            let c = rt.alloc_object_by_name("Cell", NodeId(r + 1));
            rt.set_field(c, ids.value, Value::Int(0));
            c
        })
        .collect();
    let driver = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_array(
        driver,
        ids.cells,
        cells.iter().map(|c| Value::Obj(*c)).collect(),
    );
    rt.call(driver, ids.scatter, &[]).unwrap();
    for c in &cells {
        assert_eq!(
            rt.get_field(*c, ids.value),
            Value::Int(10),
            "down-sweep ran"
        );
    }

    let trace = rt.take_trace();
    // First Multicast handled on each member node, with its payload size.
    let handled = |node: u32| -> (u64, u64) {
        trace
            .iter()
            .find_map(|r| match r.event {
                TraceEvent::MsgHandled {
                    node: n,
                    words,
                    cause: MsgCause::Multicast,
                    ..
                } if n.0 == node => Some((r.at, words)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no multicast leg handled on node {node}"))
    };
    let (h1, words) = handled(1); // rank 0, pos 1, depth 1
    let (h3, _) = handled(3); // rank 2, pos 3, depth 2
    let (h7, _) = handled(7); // rank 6, pos 7, depth 3
    let per_leg = cm.msg_word * words; // initiator's injection time per leg
    let hop = cm.msg_latency;
    assert_eq!(
        h3 - h1,
        2 * per_leg + hop,
        "a depth-2 leg must land one extra wire hop after a depth-1 leg"
    );
    assert_eq!(
        h7 - h1,
        6 * per_leg + 2 * hop,
        "a depth-3 leg must land two extra wire hops after a depth-1 leg"
    );
}
