//! Fault-matrix harness: the execution model's semantics must be invariant
//! under interconnect faults.
//!
//! Every application kernel is run under a grid of deterministic fault
//! schedules — random loss (0‰/10‰/50‰), wire duplication, delivery
//! jitter, directed link-partition windows, and node stall windows — with
//! the reliable transport engaged, and the harness asserts:
//!
//! 1. **Scheduler equivalence under faults**: the O(log P) event-index
//!    dispatcher and the linear-scan reference loop produce bit-identical
//!    traces, clocks, counters, and final object state for the same fault
//!    schedule, in both execution modes.
//! 2. **Repeatability**: the same `(kernel, mode, plan)` run twice is
//!    bit-identical — fault injection is a pure function of the plan.
//! 3. **Semantic transparency**: the final object state equals the
//!    fault-free run's, in both Hybrid and ParallelOnly modes — loss,
//!    duplication, reordering, and partitions change timing, never
//!    answers.
//! 4. **Transport conservation**: exactly-once delivery
//!    (`msgs_sent + replies_sent == msgs_handled`), every received data
//!    copy acked (`acks_sent == msgs_handled + dups_suppressed`), and no
//!    context leaks.
//! 5. **Every message record names its wire copy**: each handled or
//!    suppressed copy names an earlier `MsgSent`, no copy is consumed
//!    more often than the wire delivered it, and every flow the timeline
//!    draws is at least one wire latency long — on every plan and every
//!    executor.
//!
//! Seeds come from `HYBRID_TEST_SEED` when set (the CI fault-soak job
//! pins three), else a built-in trio.

mod common;

use common::{assert_same_trace, seeds, Exec};
use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::{TraceEvent, TraceRecord};
use hem::core::{ExecMode, NodeObjectState, Runtime, SchedImpl};
use hem::ir::Value;
use hem::machine::cost::CostModel;
use hem::machine::fault::{FaultPlan, LinkWindow, NodeWindow};
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::obs::Timeline;
use hem::NodeId;
use proptest::prelude::*;
use std::collections::HashMap;

/// Everything observable about one run.
struct Outcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
    objects: Vec<NodeObjectState>,
}

/// Run `kernel` at P=16 with tracing on and `plan` installed (which also
/// engages the reliable transport); `None` runs the legacy raw framing.
fn run_kernel(
    kernel: &str,
    mode: ExecMode,
    exec: impl Into<Exec>,
    plan: Option<&FaultPlan>,
) -> Outcome {
    let exec = exec.into();
    let arm = |rt: &mut Runtime| {
        exec.arm(rt);
        rt.enable_trace();
        match plan {
            Some(p) => rt.set_fault_plan(p.clone()),
            // Transport on even fault-free, so object state is compared
            // across plans under one protocol.
            None => rt.enable_reliable_transport(),
        }
    };
    let rt = match kernel {
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
            let g = em3d::generate(40, 4, 16, 0.4, 3);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::t3d(),
                mode,
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
            let sys = md::generate(120, 1.2, 16, md::Layout::Spatial, 5);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
                mode,
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
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            arm(&mut rt);
            let inst = sync::setup(&mut rt, &ids, 16);
            // The full structure mix: acked multicast (fan), fire-and-
            // forget multicast (scatter), modeled reduce and barrier, and
            // the continuation-stored rendezvous — so every collective
            // leg kind meets every fault fate.
            rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
            rt.call(inst.drivers[0], ids.scatter, &[]).unwrap();
            rt.call(inst.drivers[1], ids.sum_all, &[]).unwrap();
            rt.call(inst.drivers[2], ids.quiesce, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    assert!(
        rt.is_quiescent(),
        "{kernel}/{mode}: not quiescent after run"
    );
    assert_eq!(rt.live_contexts(), 0, "{kernel}/{mode}: context leak");
    let mut rt = rt;
    Outcome {
        makespan: rt.makespan(),
        stats: rt.stats(),
        trace: rt.take_trace(),
        objects: rt.object_state(),
    }
}

const KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// The fault grid for one seed: loss ∈ {0‰, 10‰, 50‰} crossed with
/// duplication and jitter, plus a partition schedule and a stall schedule.
fn fault_grid(seed: u64) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    for (drop_permille, dup_permille, jitter_max) in [
        (0, 0, 0),
        (10, 0, 0),
        (50, 0, 0),
        (0, 30, 120),
        (50, 20, 60),
    ] {
        let mut p = FaultPlan::seeded(seed);
        p.drop_permille = drop_permille;
        p.dup_permille = dup_permille;
        p.jitter_max = jitter_max;
        plans.push(p);
    }
    // Directed link partitions: node 1 cannot reach node 0 for a while
    // (requests get through, replies and acks do not), and later nothing
    // reaches node 3.
    let mut p = FaultPlan::seeded(seed);
    p.drop_permille = 10;
    p.partitions = vec![
        LinkWindow {
            src: Some(NodeId(1)),
            dest: Some(NodeId(0)),
            from: 2_000,
            until: 12_000,
        },
        LinkWindow {
            src: None,
            dest: Some(NodeId(3)),
            from: 5_000,
            until: 9_000,
        },
    ];
    plans.push(p);
    // A node stall: deliveries into node 2 are deferred past the window.
    let mut p = FaultPlan::seeded(seed);
    p.dup_permille = 10;
    p.stalls = vec![NodeWindow {
        node: NodeId(2),
        from: 1_000,
        until: 20_000,
    }];
    plans.push(p);
    plans
}

/// Value equality up to floating-point accumulation order: different
/// event orders (across modes, or across fault plans) re-associate float
/// sums, so floats compare within a tolerance; everything else exactly.
fn value_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x - y).abs() <= 1e-6_f64.max(1e-9 * x.abs().max(y.abs()))
        }
        _ => a == b,
    }
}

type ObjectState = [Vec<(u32, Vec<Value>, Vec<Vec<Value>>)>];

/// Structural object-state equality with [`value_close`] on the payload.
fn assert_state_close(label: &str, a: &ObjectState, b: &ObjectState) {
    assert_eq!(a.len(), b.len(), "{label}: node count");
    for (ni, (na, nb)) in a.iter().zip(b).enumerate() {
        assert_eq!(na.len(), nb.len(), "{label}: node {ni} object count");
        for (oi, (oa, ob)) in na.iter().zip(nb).enumerate() {
            assert_eq!(oa.0, ob.0, "{label}: node {ni} obj {oi} class");
            let scal =
                oa.1.len() == ob.1.len() && oa.1.iter().zip(&ob.1).all(|(x, y)| value_close(x, y));
            let arr = oa.2.len() == ob.2.len()
                && oa.2.iter().zip(&ob.2).all(|(xs, ys)| {
                    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| value_close(x, y))
                });
            assert!(
                scal && arr,
                "{label}: node {ni} obj {oi} state differs:\n  a: {oa:?}\n  b: {ob:?}"
            );
        }
    }
}

fn assert_bit_identical(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.stats.node_time, b.stats.node_time, "{label}: clocks");
    assert_eq!(a.stats.per_node, b.stats.per_node, "{label}: counters");
    assert_eq!(a.stats.net, b.stats.net, "{label}: net/fault stats");
    assert_same_trace(label, &a.trace, &b.trace);
    assert_eq!(a.objects, b.objects, "{label}: object state");
}

fn assert_conservation(label: &str, o: &Outcome) {
    let t = o.stats.totals();
    assert_eq!(
        t.msgs_sent + t.replies_sent,
        t.msgs_handled,
        "{label}: exactly-once delivery"
    );
    assert_eq!(
        t.acks_sent,
        t.msgs_handled + t.dups_suppressed,
        "{label}: every received data copy acked"
    );
    assert_eq!(t.ctx_alloc, t.ctx_free, "{label}: context conservation");
    // Wire duplication can deliver (and so handle) one ack twice; beyond
    // that, acks cannot be conjured.
    assert!(
        t.acks_handled <= t.acks_sent + o.stats.net.faults.duplicated,
        "{label}: acks cannot be conjured"
    );
}

/// The wire-number contract of one run's trace (property 5).
fn assert_wire_contract(label: &str, kernel: &str, o: &Outcome) {
    // What the wire did with each copy: when it was sent, how many
    // deliveries it allows (0 lost, 2 duplicated, else 1), how many
    // handled or suppressed records consumed it.
    struct Copy {
        at: u64,
        allowed: u32,
        consumed: u32,
    }
    let mut copies: HashMap<u64, Copy> = HashMap::new();
    for r in &o.trace {
        let consumed = match r.event {
            TraceEvent::MsgSent { wire, .. } => {
                let copy = Copy {
                    at: r.at,
                    allowed: 1,
                    consumed: 0,
                };
                assert!(
                    copies.insert(wire, copy).is_none(),
                    "{label}: wire number {wire:#x} injected twice"
                );
                continue;
            }
            TraceEvent::MsgDropped { wire, .. } => {
                copies.get_mut(&wire).expect("a lost copy was sent").allowed = 0;
                continue;
            }
            TraceEvent::MsgDuplicated { wire, .. } => {
                copies.get_mut(&wire).expect("a duplicate was sent").allowed = 2;
                continue;
            }
            TraceEvent::MsgHandled { wire, .. } | TraceEvent::DupSuppressed { wire, .. } => wire,
            _ => continue,
        };
        let copy = copies.get_mut(&consumed).unwrap_or_else(|| {
            panic!(
                "{label}: {:?} at {} names no earlier MsgSent",
                r.event, r.at
            )
        });
        assert!(copy.at <= r.at, "{label}: {:?} before its send", r.event);
        copy.consumed += 1;
        assert!(
            copy.consumed <= copy.allowed,
            "{label}: wire copy {consumed:#x} consumed {} times, the wire delivered {}",
            copy.consumed,
            copy.allowed
        );
    }
    let cost = if kernel == "em3d" {
        CostModel::t3d()
    } else {
        CostModel::cm5()
    };
    let tl = Timeline::build(&o.trace, 16);
    assert!(tl.flows().next().is_some(), "{label}: no flows");
    for f in tl.flows() {
        assert!(
            f.handled_at >= f.sent_at + cost.min_wire_latency(),
            "{label}: flow {f:?} is shorter than the wire"
        );
    }
}

/// Property 5 on every kernel × fault plan × executor, with the
/// fault-free transport run as plan "clean".
#[test]
fn message_records_name_their_wire_copy() {
    let execs: [(&str, Exec); 4] = [
        ("index", SchedImpl::EventIndex.into()),
        ("reference", Exec::Reference),
        ("sharded2", SchedImpl::Sharded { threads: 2 }.into()),
        ("spec2", SchedImpl::Speculative { threads: 2 }.into()),
    ];
    let seed = seeds()[0];
    let mut plans: Vec<(String, Option<FaultPlan>)> = vec![("clean".into(), None)];
    for (pi, plan) in fault_grid(seed).into_iter().enumerate() {
        plans.push((format!("plan{pi}"), Some(plan)));
    }
    for kernel in KERNELS {
        for (name, plan) in &plans {
            for (exec_name, exec) in execs {
                let o = run_kernel(kernel, ExecMode::Hybrid, exec, plan.as_ref());
                let label = format!("{kernel}/seed{seed}/{name}/{exec_name}");
                assert_wire_contract(&label, kernel, &o);
            }
        }
    }
}

/// The full matrix: every kernel × every fault plan × every seed, checked
/// for scheduler equivalence, repeatability, conservation, and
/// fault-transparency of the final object state.
#[test]
fn fault_matrix_semantics_invariant() {
    for kernel in KERNELS {
        // Fault-free references (transport on), one per mode.
        let clean_h = run_kernel(kernel, ExecMode::Hybrid, SchedImpl::EventIndex, None);
        let clean_p = run_kernel(kernel, ExecMode::ParallelOnly, SchedImpl::EventIndex, None);
        assert_conservation(&format!("{kernel}/clean/hybrid"), &clean_h);
        assert_state_close(
            &format!("{kernel}: hybrid vs parallel-only final state (fault-free)"),
            &clean_h.objects,
            &clean_p.objects,
        );
        for seed in seeds() {
            for (pi, plan) in fault_grid(seed).iter().enumerate() {
                let label = format!("{kernel}/seed{seed}/plan{pi}");
                let h_heap =
                    run_kernel(kernel, ExecMode::Hybrid, SchedImpl::EventIndex, Some(plan));
                let h_scan = run_kernel(kernel, ExecMode::Hybrid, Exec::Reference, Some(plan));
                assert_bit_identical(&format!("{label}/hybrid heap-vs-scan"), &h_heap, &h_scan);
                let h_again =
                    run_kernel(kernel, ExecMode::Hybrid, SchedImpl::EventIndex, Some(plan));
                assert_bit_identical(&format!("{label}/hybrid repeat"), &h_heap, &h_again);
                let p_heap = run_kernel(
                    kernel,
                    ExecMode::ParallelOnly,
                    SchedImpl::EventIndex,
                    Some(plan),
                );
                let p_scan =
                    run_kernel(kernel, ExecMode::ParallelOnly, Exec::Reference, Some(plan));
                assert_bit_identical(&format!("{label}/par heap-vs-scan"), &p_heap, &p_scan);
                assert_conservation(&format!("{label}/hybrid"), &h_heap);
                assert_conservation(&format!("{label}/par"), &p_heap);
                // Faults perturb timing, never answers: final object state
                // matches the fault-free run in both modes.
                assert_state_close(
                    &format!("{label}: hybrid state under faults"),
                    &h_heap.objects,
                    &clean_h.objects,
                );
                assert_state_close(
                    &format!("{label}: parallel-only state under faults"),
                    &p_heap.objects,
                    &clean_p.objects,
                );
                // The injector actually did something on lossy plans.
                if plan.drop_permille >= 50 || !plan.partitions.is_empty() {
                    let t = h_heap.stats.totals();
                    assert!(
                        h_heap.stats.net.faults.lost() > 0,
                        "{label}: lossy plan lost nothing"
                    );
                    assert!(t.retransmits > 0, "{label}: losses but no retransmits");
                }
                if plan.dup_permille >= 10 {
                    assert!(
                        h_heap.stats.net.faults.duplicated > 0,
                        "{label}: duplicating plan duplicated nothing"
                    );
                }
            }
        }
    }
}

/// Regression: a wire-duplicated copy of a frame addressed to a stalled
/// node must be deferred through `stalled_until` exactly like the
/// original. The stall window opens at time 0, so *every* delivery into
/// node 2 — original or duplicate — is deferred to at or past the
/// window's end, and node 2 cannot handle any message before it: a
/// handling earlier than `until` can only come from a copy that bypassed
/// the stall fixpoint.
#[test]
fn duplicates_respect_stall_windows() {
    use hem::core::trace::TraceEvent;
    const UNTIL: u64 = 20_000;
    for seed in seeds() {
        let mut plan = FaultPlan::seeded(seed);
        plan.dup_permille = 150;
        plan.stalls = vec![NodeWindow {
            node: NodeId(2),
            from: 0,
            until: UNTIL,
        }];
        let o = run_kernel("sor", ExecMode::Hybrid, SchedImpl::EventIndex, Some(&plan));
        let label = format!("dup-stall/seed{seed}");
        // The plan must actually exercise both fault mechanisms.
        assert!(
            o.stats.net.faults.duplicated > 0,
            "{label}: plan duplicated nothing"
        );
        assert!(
            o.stats.net.faults.stall_defers > 0,
            "{label}: plan deferred nothing"
        );
        for rec in &o.trace {
            if let TraceEvent::MsgHandled { node, from, .. } = rec.event {
                assert!(
                    node != NodeId(2) || rec.at >= UNTIL,
                    "{label}: message from {from:?} handled at stalled node 2 \
                     at {} — inside the stall window [0, {UNTIL})",
                    rec.at
                );
            }
        }
        assert_conservation(&label, &o);
    }
}

/// Sharded fault soak: the windowed multi-thread executor against the
/// single-threaded event index under the grid's two nastiest plans (mixed
/// loss + duplication + jitter; duplication + a long node stall) — every
/// kernel, every pinned seed, threads ∈ {2, 4}, bit-identical
/// everything. This is the fault-plan half of the `threads`-invariance
/// contract (the fault-free half lives in `parallel_determinism.rs`).
#[test]
fn sharded_matches_event_index_under_fault_grid() {
    for kernel in KERNELS {
        for seed in seeds() {
            let grid = fault_grid(seed);
            for (pi, plan) in [(4, &grid[4]), (6, &grid[6])] {
                let label = format!("{kernel}/seed{seed}/plan{pi}/sharded");
                let base = run_kernel(kernel, ExecMode::Hybrid, SchedImpl::EventIndex, Some(plan));
                for threads in [2usize, 4] {
                    let sharded = run_kernel(
                        kernel,
                        ExecMode::Hybrid,
                        SchedImpl::Sharded { threads },
                        Some(plan),
                    );
                    assert_bit_identical(&format!("{label}/threads{threads}"), &base, &sharded);
                }
                assert_conservation(&label, &base);
            }
        }
    }
}

/// Zero-fault transport sanity: with the transport on but an all-zero
/// plan, nothing is lost, nothing retransmits, and the object state
/// matches the raw (transport-off) framing.
#[test]
fn zero_fault_transport_is_transparent() {
    for kernel in KERNELS {
        let raw = run_kernel_raw(kernel);
        let clean = run_kernel(kernel, ExecMode::Hybrid, SchedImpl::EventIndex, None);
        let t = clean.stats.totals();
        assert_eq!(t.retransmits, 0, "{kernel}: retransmits on a clean wire");
        assert_eq!(t.dups_suppressed, 0, "{kernel}: duplicates on a clean wire");
        assert_eq!(
            t.acks_sent, t.msgs_handled,
            "{kernel}: one ack per data frame"
        );
        assert_eq!(clean.stats.net.faults.lost(), 0);
        assert_state_close(
            &format!("{kernel}: transport changed the answer"),
            &raw.objects,
            &clean.objects,
        );
    }
}

/// Legacy framing run (no transport, no plan) for the transparency check.
fn run_kernel_raw(kernel: &str) -> Outcome {
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
            Outcome {
                makespan: rt.makespan(),
                stats: rt.stats(),
                trace: Vec::new(),
                objects: rt.object_state(),
            }
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(40, 4, 16, 0.4, 3);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::t3d(),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).unwrap();
            Outcome {
                makespan: rt.makespan(),
                stats: rt.stats(),
                trace: Vec::new(),
                objects: rt.object_state(),
            }
        }
        "md" => {
            let ids = md::build();
            let sys = md::generate(120, 1.2, 16, md::Layout::Spatial, 5);
            let mut rt = Runtime::new(
                ids.program.clone(),
                16,
                CostModel::cm5(),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
            .unwrap();
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            Outcome {
                makespan: rt.makespan(),
                stats: rt.stats(),
                trace: Vec::new(),
                objects: rt.object_state(),
            }
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
            let inst = sync::setup(&mut rt, &ids, 16);
            rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
            rt.call(inst.drivers[0], ids.scatter, &[]).unwrap();
            rt.call(inst.drivers[1], ids.sum_all, &[]).unwrap();
            rt.call(inst.drivers[2], ids.quiesce, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            Outcome {
                makespan: rt.makespan(),
                stats: rt.stats(),
                trace: Vec::new(),
                objects: rt.object_state(),
            }
        }
        other => panic!("unknown kernel {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized corner of the matrix: arbitrary loss/duplication/jitter
    /// rates and seeds on the cheapest kernel, checking the same three
    /// properties as the grid.
    #[test]
    fn random_fault_plans_preserve_semantics(
        seed in any::<u64>(),
        drop_permille in 0u16..=60,
        dup_permille in 0u16..=40,
        jitter_max in 0u64..=100,
    ) {
        let mut plan = FaultPlan::seeded(seed);
        plan.drop_permille = drop_permille;
        plan.dup_permille = dup_permille;
        plan.jitter_max = jitter_max;
        let clean = run_kernel("sync", ExecMode::Hybrid, SchedImpl::EventIndex, None);
        let heap = run_kernel("sync", ExecMode::Hybrid, SchedImpl::EventIndex, Some(&plan));
        let scan = run_kernel("sync", ExecMode::Hybrid, Exec::Reference, Some(&plan));
        assert_bit_identical("random/heap-vs-scan", &heap, &scan);
        assert_conservation("random", &heap);
        assert_state_close("random: state under faults", &heap.objects, &clean.objects);
        let par = run_kernel("sync", ExecMode::ParallelOnly, SchedImpl::EventIndex, Some(&plan));
        assert_conservation("random/par", &par);
        assert_state_close("random: parallel-only state", &par.objects, &clean.objects);
    }
}
