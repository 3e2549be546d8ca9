//! Shared helpers for the integration suites: the executor rows and the
//! first-divergence trace assertion of the bit-identity suites, and the
//! schedule-exploration conformance harness — micro kernels built for
//! specific protocol invariants, reduced-size app-kernel runners with the
//! sanitizer armed, and the state-comparison assertions (mirroring the
//! fault-matrix conventions).

#![allow(dead_code)] // each integration test uses a subset

use hem::analysis::InterfaceSet;
use hem::apps::{em3d, md, sor, sync};
use hem::core::trace::{TraceEvent, TraceRecord};
use hem::core::{ExecMode, NodeObjectState, Runtime, SchedImpl, TieBreak, TieChoice};
use hem::ir::{BinOp, LocalityHint, MethodId, Program, ProgramBuilder, Value};
use hem::machine::cost::CostModel;
use hem::machine::stats::MachineStats;
use hem::machine::topology::ProcGrid;
use hem::NodeId;

/// The four application kernels, at conformance (reduced) sizes.
pub const APP_KERNELS: [&str; 4] = ["sor", "em3d", "md", "sync"];

/// Everything the conformance assertions look at from one run.
pub struct Outcome {
    /// Root-call reply (micro kernels; `None` where the kernel drives
    /// itself through multiple calls).
    pub result: Option<Value>,
    /// Final per-node object state.
    pub objects: Vec<NodeObjectState>,
    /// The tie-break decisions the run took (replay vector).
    pub tie_choices: Vec<u32>,
    /// The full decision log (choice + arity), for the explorer's DFS.
    pub tie_log: Vec<TieChoice>,
    /// Sanitizer violations (empty on a clean run).
    pub violations: Vec<String>,
    /// Final virtual time.
    pub makespan: u64,
    /// Machine counters.
    pub stats: MachineStats,
}

/// How to replay a failing schedule, for panic messages.
pub fn replay_help(kernel: &str, choices: &[u32]) -> String {
    format!(
        "kernel {kernel}: failing tie-break sequence {choices:?} — replay with \
         rt.set_tie_break(TieBreak::Replay(vec!{choices:?}))"
    )
}

/// Seeds: `HYBRID_TEST_SEED` (one seed) when set — the CI conformance job
/// pins three — else a built-in trio, matching the fault-matrix harness.
pub fn seeds() -> Vec<u64> {
    match std::env::var("HYBRID_TEST_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("HYBRID_TEST_SEED must be an unsigned integer")],
        Err(_) => vec![1, 0xDEAD_BEEF, 3_141_592_653],
    }
}

/// SplitMix64 step (the same generator the proptest shim and the seeded
/// tie-break policy use), for deriving per-sample seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ================= executors =================

/// One executor row of a bit-identity suite: a production [`SchedImpl`], or
/// the reference loop that specifies it (`Runtime::arm_reference_loop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `rt.sched_impl = ..`.
    Impl(SchedImpl),
    /// The O(P)-per-event reference loop in canonical tie order.
    Reference,
}

impl From<SchedImpl> for Exec {
    fn from(s: SchedImpl) -> Exec {
        Exec::Impl(s)
    }
}

impl Exec {
    /// Hand `rt`'s next `run_until` chunk (and all later ones) to this
    /// executor.
    pub fn arm(self, rt: &mut Runtime) {
        match self {
            Exec::Impl(s) => {
                rt.set_tie_break(TieBreak::Det);
                rt.sched_impl = s;
            }
            Exec::Reference => rt.arm_reference_loop(),
        }
    }
}

// ================= comparison =================

/// Panic at the first record `a` and `b` differ in, with its index, both
/// records, and the `(time, kind, node)` key of the event `a` was
/// dispatching there.
pub fn assert_same_trace(label: &str, a: &[TraceRecord], b: &[TraceRecord]) {
    let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) else {
        return;
    };
    let event = a[..a.len().min(i + 1)]
        .iter()
        .rev()
        .find_map(|r| match r.event {
            TraceEvent::EventStart { node, kind, .. } => Some((r.at, kind, node.0)),
            _ => None,
        });
    panic!(
        "{label}: traces diverge at record {i} of {}/{} (in event {event:?}):\n  a: {:?}\n  b: {:?}",
        a.len(),
        b.len(),
        a.get(i),
        b.get(i)
    );
}

/// Value equality up to floating-point accumulation order: different
/// schedules and modes re-associate float sums, so floats compare within
/// a tolerance; everything else exactly.
pub fn value_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x - y).abs() <= 1e-6_f64.max(1e-9 * x.abs().max(y.abs()))
        }
        _ => a == b,
    }
}

type ObjectState = [Vec<(u32, Vec<Value>, Vec<Vec<Value>>)>];

/// Structural object-state equality with [`value_close`] on the payload.
pub fn assert_state_close(label: &str, a: &ObjectState, b: &ObjectState) {
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

/// A conformant run recorded no sanitizer violations; the panic message
/// carries the schedule's replay vector.
pub fn assert_clean(label: &str, o: &Outcome) {
    assert!(
        o.violations.is_empty(),
        "{label}: sanitizer violations {:?}\n{}",
        o.violations,
        replay_help(label, &o.tie_choices)
    );
}

// ================= micro kernels =================

/// Peer allocation + root-argument production for a micro kernel.
pub type MakeArgs = Box<dyn Fn(&mut Runtime) -> Vec<Value>>;

/// A self-contained micro program exercising one slice of the protocol.
pub struct MicroKernel {
    /// Name, for labels.
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// Root entry method (on an object of `entry_class`, node 0).
    pub entry: MethodId,
    /// Class the root object is allocated from.
    pub entry_class: &'static str,
    /// Node count.
    pub nodes: u32,
    /// Lowered `max_seq_depth`, when the kernel targets the §4.1 guard.
    pub max_seq_depth: Option<u32>,
    /// Allocate peers and produce the root-call arguments.
    pub make_args: MakeArgs,
}

/// Future fan-out: two remote `bump`s touched together. Exercises the
/// multi-future touch (a wake is sound only when *every* touched slot is
/// satisfied) and the one-reply-per-call root invariant.
pub fn micro_fan2() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let value = pb.field(cls, "value");
    let bump = pb.method(cls, "bump", 1, |mb| {
        let x = mb.arg(0);
        let v = mb.get_field(value);
        let nv = mb.binl(BinOp::Add, v, x);
        mb.set_field(value, nv);
        mb.reply(nv);
    });
    let entry = pb.method(cls, "fan", 2, |mb| {
        let s1 = mb.invoke_into(mb.arg(0), bump, &[Value::Int(10).into()]);
        let s2 = mb.invoke_into(mb.arg(1), bump, &[Value::Int(20).into()]);
        mb.touch(&[s1, s2]);
        let a = mb.get_slot(s1);
        let b = mb.get_slot(s2);
        let r = mb.binl(BinOp::Add, a, b);
        mb.reply(r);
    });
    MicroKernel {
        name: "fan2",
        program: pb.finish(),
        entry,
        entry_class: "Micro",
        nodes: 4,
        max_seq_depth: None,
        make_args: Box::new(move |rt| {
            let p1 = rt.alloc_object_by_name("Micro", NodeId(1));
            let p2 = rt.alloc_object_by_name("Micro", NodeId(2));
            rt.set_field(p1, value, Value::Int(0));
            rt.set_field(p2, value, Value::Int(0));
            vec![Value::Obj(p1), Value::Obj(p2)]
        }),
    }
}

/// Join fan-out: two remote `bump`s replying into one join counter.
/// Exercises join-decrement delivery through the remote reply path.
pub fn micro_jfan() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let value = pb.field(cls, "value");
    let bump = pb.method(cls, "bump", 1, |mb| {
        let x = mb.arg(0);
        let v = mb.get_field(value);
        let nv = mb.binl(BinOp::Add, v, x);
        mb.set_field(value, nv);
        mb.reply(nv);
    });
    let entry = pb.method(cls, "jfan", 2, |mb| {
        let j = mb.slot();
        mb.join_init(j, 2i64);
        mb.invoke(
            Some(j),
            mb.arg(0),
            bump,
            &[Value::Int(5).into()],
            LocalityHint::Unknown,
        );
        mb.invoke(
            Some(j),
            mb.arg(1),
            bump,
            &[Value::Int(7).into()],
            LocalityHint::Unknown,
        );
        mb.touch(&[j]);
        mb.reply(1i64);
    });
    MicroKernel {
        name: "jfan",
        program: pb.finish(),
        entry,
        entry_class: "Micro",
        nodes: 4,
        max_seq_depth: None,
        make_args: Box::new(move |rt| {
            let p1 = rt.alloc_object_by_name("Micro", NodeId(1));
            let p2 = rt.alloc_object_by_name("Micro", NodeId(2));
            rt.set_field(p1, value, Value::Int(0));
            rt.set_field(p2, value, Value::Int(0));
            vec![Value::Obj(p1), Value::Obj(p2)]
        }),
    }
}

/// Continuation-passing callee whose caller's return slot is *not* slot
/// 0: `park` stores its continuation in a field and halts; a separate
/// `release` (joined at slot 0, forcing the CP future to slot 1) sends
/// through it later. Exercises lazy shell creation (§3.2.3) at a nonzero
/// continuation-slot offset, adoption, and first-class sends.
pub fn micro_cpfan() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let parked = pb.field(cls, "parked");
    let value = pb.field(cls, "value");
    let park = pb.method(cls, "park", 1, |mb| {
        mb.set_field(value, mb.arg(0));
        mb.store_cont(parked);
        mb.halt();
    });
    let release = pb.method(cls, "release", 0, |mb| {
        let k = mb.get_field(parked);
        let v = mb.get_field(value);
        let nv = mb.binl(BinOp::Mul, v, 3);
        mb.send_to_cont(k, nv);
        mb.set_field(parked, Value::Nil);
        mb.reply_nil();
    });
    let entry = pb.method(cls, "cpfan", 1, |mb| {
        // Slot 0 is a join the CP call does not use, so the CP callee's
        // continuation lands at slot offset 1 — the shell invariant must
        // hold away from offset 0.
        let j = mb.slot();
        mb.join_init(j, 1i64);
        let s = mb.invoke_into(mb.arg(0), park, &[Value::Int(4).into()]);
        mb.invoke(Some(j), mb.arg(0), release, &[], LocalityHint::Unknown);
        let v = mb.touch_get(s);
        mb.touch(&[j]);
        mb.reply(v);
    });
    MicroKernel {
        name: "cpfan",
        program: pb.finish(),
        entry,
        entry_class: "Micro",
        nodes: 2,
        max_seq_depth: None,
        make_args: Box::new(move |rt| {
            // The peer must be on the caller's node: only a *local*
            // sequential invoke of a CP callee takes the lazy-shell path.
            let p = rt.alloc_object_by_name("Micro", NodeId(0));
            rt.set_field(p, parked, Value::Nil);
            rt.set_field(p, value, Value::Int(0));
            vec![Value::Obj(p)]
        }),
    }
}

/// Deep all-local MayBlock recursion, run with `max_seq_depth` lowered to
/// 16: the §4.1 revert-to-parallel guard must divert the chain through
/// heap contexts instead of recursing on the host stack.
pub fn micro_deep_chain() -> MicroKernel {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("Micro", false);
    let down = pb.declare(cls, "down", 1);
    pb.define(down, |mb| {
        let k = mb.arg(0);
        let done = mb.binl(BinOp::Le, k, 0);
        mb.if_else(
            done,
            |mb| mb.reply(0i64),
            |mb| {
                let me = mb.self_ref();
                let k1 = mb.binl(BinOp::Sub, k, 1);
                // Unknown locality keeps `down` MayBlock (flow rule 1), so
                // the §4.1 depth guard diverts through a heap context
                // instead of trapping — local self-recursion would be
                // classified NonBlocking and a deep NB chain is a genuine
                // stack overflow.
                let s = mb.invoke_into(me, down, &[k1.into()]);
                let v = mb.touch_get(s);
                let r = mb.binl(BinOp::Add, v, 1);
                mb.reply(r);
            },
        );
    });
    MicroKernel {
        name: "deep-chain",
        program: pb.finish(),
        entry: down,
        entry_class: "Micro",
        nodes: 1,
        max_seq_depth: Some(16),
        make_args: Box::new(|_| vec![Value::Int(64)]),
    }
}

/// All protocol micro kernels.
pub fn micro_kernels() -> Vec<MicroKernel> {
    vec![
        micro_fan2(),
        micro_jfan(),
        micro_cpfan(),
        micro_deep_chain(),
    ]
}

/// Run a micro kernel once under `(mode, tie)` with the sanitizer armed.
pub fn run_micro(m: &MicroKernel, mode: ExecMode, tie: TieBreak) -> Outcome {
    run_micro_sched(m, mode, tie, SchedImpl::EventIndex)
}

/// [`run_micro`] with an explicit scheduler implementation (the sharded
/// executor only engages under `TieBreak::Det`; any other tie-break
/// routes to the single-threaded exploring loop).
pub fn run_micro_sched(
    m: &MicroKernel,
    mode: ExecMode,
    tie: TieBreak,
    sched: SchedImpl,
) -> Outcome {
    let mut rt = Runtime::new(
        m.program.clone(),
        m.nodes,
        CostModel::cm5(),
        mode,
        InterfaceSet::Full,
    )
    .unwrap();
    if let Some(d) = m.max_seq_depth {
        rt.set_max_seq_depth(d);
    }
    rt.enable_sanitizer();
    rt.set_tie_break(tie);
    rt.sched_impl = sched;
    let root = rt.alloc_object_by_name(m.entry_class, NodeId(0));
    let args = (m.make_args)(&mut rt);
    let result = rt.call(root, m.entry, &args).unwrap();
    finish(rt, result)
}

// ================= app kernels (reduced sizes) =================

/// Run an app kernel at conformance size under `(mode, set, tie)` with
/// the sanitizer armed.
pub fn run_app(kernel: &str, mode: ExecMode, set: InterfaceSet, tie: TieBreak) -> Outcome {
    run_app_sched(kernel, mode, set, tie, SchedImpl::EventIndex)
}

/// [`run_app`] with an explicit scheduler implementation.
pub fn run_app_sched(
    kernel: &str,
    mode: ExecMode,
    set: InterfaceSet,
    tie: TieBreak,
    sched: SchedImpl,
) -> Outcome {
    let arm = |rt: &mut Runtime| {
        rt.enable_sanitizer();
        rt.set_tie_break(tie.clone());
        rt.sched_impl = sched;
    };
    let rt = match kernel {
        "sor" => {
            let ids = sor::build();
            let mut rt = Runtime::new(ids.program.clone(), 4, CostModel::cm5(), mode, set).unwrap();
            arm(&mut rt);
            let inst = sor::setup(
                &mut rt,
                &ids,
                sor::SorParams {
                    n: 8,
                    block: 2,
                    procs: ProcGrid::square(4),
                },
            );
            sor::run(&mut rt, &inst, 2).unwrap();
            rt
        }
        "em3d" => {
            let ids = em3d::build(4);
            let g = em3d::generate(24, 4, 8, 0.4, 3);
            let mut rt = Runtime::new(ids.program.clone(), 8, CostModel::t3d(), mode, set).unwrap();
            arm(&mut rt);
            let inst = em3d::setup(&mut rt, &ids, &g);
            em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).unwrap();
            rt
        }
        "md" => {
            let ids = md::build();
            let sys = md::generate(60, 1.2, 8, md::Layout::Spatial, 5);
            let mut rt = Runtime::new(ids.program.clone(), 8, CostModel::cm5(), mode, set).unwrap();
            arm(&mut rt);
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        "sync" => {
            let ids = sync::build();
            let mut rt = Runtime::new(ids.program.clone(), 8, CostModel::cm5(), mode, set).unwrap();
            arm(&mut rt);
            let inst = sync::setup(&mut rt, &ids, 8);
            rt.call(inst.drivers[0], ids.fan, &[]).unwrap();
            sync::run_rendezvous(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown kernel {other}"),
    };
    finish(rt, None)
}

fn finish(mut rt: Runtime, result: Option<Value>) -> Outcome {
    rt.sanitizer_check_quiescent();
    Outcome {
        result,
        objects: rt.object_state(),
        tie_choices: rt.tie_choices(),
        tie_log: rt.tie_log().to_vec(),
        violations: rt.take_sanitizer_violations(),
        makespan: rt.makespan(),
        stats: rt.stats(),
    }
}
