//! The one ring fixture of the executor unit tests (`sched`, `shard`,
//! `timewarp`): a machine where every hop is cross-node traffic, the full
//! observable outcome of a run on it, and the bit-identity assertion that
//! names the first trace record two runs differ in.

use crate::explore::TieBreak;
use crate::rt::Runtime;
use crate::sched::{EventKey, SchedImpl};
use crate::timewarp::SpecStats;
use crate::trace::{Observer, TraceEvent, TraceRecord};
use crate::{ExecMode, InterfaceSet};
use hem_ir::{BinOp, MethodId, ObjRef, ProgramBuilder, Value};
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::stats::MachineStats;
use hem_machine::{Cycles, NodeId};

/// One executor row of a bit-identity test: a production [`SchedImpl`], or
/// the reference loop it is specified by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exec {
    Impl(SchedImpl),
    Reference,
}

impl From<SchedImpl> for Exec {
    fn from(s: SchedImpl) -> Exec {
        Exec::Impl(s)
    }
}

impl Exec {
    /// Hand the next `run_until` chunk of `rt` to this executor.
    pub(crate) fn arm(self, rt: &mut Runtime) {
        match self {
            Exec::Impl(s) => {
                rt.set_tie_break(TieBreak::Det);
                rt.sched_impl = s;
            }
            Exec::Reference => rt.arm_reference_loop(),
        }
    }
}

/// A ring of P objects, one per node; `bounce(n)` hops to the next peer
/// `n` times, summing the countdown on the way back — every hop is
/// cross-node traffic, so windows, outboxes, the merge, speculation,
/// stragglers and rollbacks all see work.
pub(crate) fn ring_runtime(p: u32, cost: CostModel) -> (Runtime, ObjRef, MethodId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let peer = pb.field(c, "peer");
    let bounce = pb.declare(c, "bounce", 1);
    pb.define(bounce, |mb| {
        let n = mb.arg(0);
        let done = mb.binl(BinOp::Lt, n, 1);
        mb.if_else(
            done,
            |mb| mb.reply(n),
            |mb| {
                let pr = mb.get_field(peer);
                let n1 = mb.binl(BinOp::Sub, n, 1);
                let s = mb.invoke_into(pr, bounce, &[n1.into()]);
                let v = mb.touch_get(s);
                let r = mb.binl(BinOp::Add, v, n);
                mb.reply(r);
            },
        );
    });
    let mut rt = Runtime::new(pb.finish(), p, cost, ExecMode::Hybrid, InterfaceSet::Full)
        .expect("valid ring program");
    let objs: Vec<ObjRef> = (0..p)
        .map(|i| rt.alloc_object_by_name("C", NodeId(i)))
        .collect();
    for (i, &o) in objs.iter().enumerate() {
        rt.set_field(o, peer, Value::Obj(objs[(i + 1) % objs.len()]));
    }
    (rt, objs[0], bounce)
}

struct Collect(Vec<TraceRecord>);
impl Observer for Collect {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.0.push(*rec);
    }
}

/// A 4-node ring with `bounce(25)` started at its root under `exec`,
/// traced and observed, ready to be driven through `run_until` chunks.
pub(crate) fn start_ring(
    exec: impl Into<Exec>,
    cost: CostModel,
    faults: Option<FaultPlan>,
) -> Runtime {
    let (mut rt, root, method) = ring_runtime(4, cost);
    exec.into().arm(&mut rt);
    rt.enable_trace();
    rt.attach_observer(Box::new(Collect(Vec::new())));
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    crate::wrapper::run_invocation(
        &mut rt,
        root.node.idx(),
        root.index,
        method,
        vec![Value::Int(25)],
        crate::cont::Continuation::Root,
        false,
    )
    .expect("root invocation");
    rt
}

/// Everything observable about one ring run.
pub(crate) struct Outcome {
    pub(crate) result: Option<Value>,
    pub(crate) makespan: Cycles,
    pub(crate) trace: Vec<TraceRecord>,
    pub(crate) observed: Vec<TraceRecord>,
    pub(crate) stats: MachineStats,
    pub(crate) spec: SpecStats,
}

impl Outcome {
    /// Drain a finished [`start_ring`] run.
    pub(crate) fn of(mut rt: Runtime) -> Outcome {
        let obs = rt.take_observer().expect("observer attached");
        let observed = (obs as Box<dyn std::any::Any>)
            .downcast::<Collect>()
            .expect("collect observer")
            .0;
        Outcome {
            result: rt.result.take(),
            makespan: rt.makespan(),
            trace: rt.take_trace(),
            observed,
            stats: rt.stats(),
            spec: rt.spec_stats(),
        }
    }
}

/// The ring run to quiescence under one executor.
pub(crate) fn run_ring(
    exec: impl Into<Exec>,
    cost: CostModel,
    faults: Option<FaultPlan>,
) -> Outcome {
    let mut rt = start_ring(exec, cost, faults);
    rt.run_to_quiescence().expect("ring runs");
    Outcome::of(rt)
}

/// Panic at the first record `a` and `b` differ in, with its index, both
/// records, and the key of the event `a` was dispatching there.
pub(crate) fn assert_same_trace(a: &[TraceRecord], b: &[TraceRecord], what: &str) {
    let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) else {
        return;
    };
    let event: Option<EventKey> =
        a[..a.len().min(i + 1)]
            .iter()
            .rev()
            .find_map(|r| match r.event {
                TraceEvent::EventStart { node, kind, .. } => Some((r.at, kind, node.0)),
                _ => None,
            });
    panic!(
        "{what}: traces diverge at record {i} of {}/{} (in event {event:?}):\n  a: {:?}\n  b: {:?}",
        a.len(),
        b.len(),
        a.get(i),
        b.get(i)
    );
}

/// Every executor-invariant observable of two ring runs agrees.
pub(crate) fn assert_bit_identical(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.result, b.result, "{what}: result");
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_same_trace(&a.trace, &b.trace, &format!("{what}: trace"));
    assert_same_trace(
        &a.observed,
        &b.observed,
        &format!("{what}: observer stream"),
    );
    assert_eq!(a.stats.node_time, b.stats.node_time, "{what}: clocks");
    assert_eq!(a.stats.per_node, b.stats.per_node, "{what}: counters");
    assert_eq!(a.stats.net, b.stats.net, "{what}: net stats");
    assert_eq!(
        a.stats.sched.events_dispatched, b.stats.sched.events_dispatched,
        "{what}: dispatch count"
    );
}
