//! Open-system service mix: a front-end/back-end request-serving world
//! driven by a seeded arrival process instead of a closed harness loop.
//!
//! One `Frontend` per node fields three request kinds — a remote `lookup`
//! (RPC to one backend), a `fanout` (join over every backend), and a
//! local `compute` loop — against a population of locked `Backend`
//! objects. [`run_service`] plays a [`hem_machine::arrival`] stream
//! against the machine with [`hem_core::Runtime::run_until`], applying
//! driver-side admission control (queue-depth cap, deadline-infeasibility
//! shedding), and returns the raw per-request dispositions. Everything —
//! target choice, request kind, admission — is a pure function of
//! `(seed, client, k)` and the machine's deterministic state, so the same
//! parameters reproduce the same trace on every executor.

use hem_core::{Observer, Runtime, TraceEvent, TraceRecord, Trap};
use hem_ir::{BinOp, FieldId, MethodId, ObjRef, Program, ProgramBuilder, Value};
use hem_machine::arrival::{ArrivalDist, OpenLoop};
use hem_machine::{Cycles, NodeId};
use std::any::Any;

/// Program + handles for the service mix.
#[derive(Debug, Clone)]
pub struct ServiceProgram {
    /// The program.
    pub program: Program,
    /// `Frontend.lookup(i)`: RPC `get` to backend `i mod len`.
    pub lookup: MethodId,
    /// `Frontend.fanout()`: acked multicast of `bump(1)` to every backend.
    pub fanout: MethodId,
    /// `Frontend.compute(n)`: `n` iterations of local field arithmetic.
    pub compute: MethodId,
    /// `Backend.get`.
    pub get: MethodId,
    /// `Backend.bump`.
    pub bump: MethodId,
    /// `Backend.total` field.
    pub total: FieldId,
    /// `Frontend.backends` array field.
    pub backends: FieldId,
    /// `Frontend.scratch` field.
    pub scratch: FieldId,
}

/// Build the program.
pub fn build() -> ServiceProgram {
    let mut pb = ProgramBuilder::new();

    // Backends are locked: concurrent bumps from fanouts serialize, so
    // an overloaded backend shows up as lock deferrals + queueing delay.
    let backend = pb.class("Backend", true);
    let total = pb.field(backend, "total");
    let get = pb.method(backend, "get", 0, |mb| {
        mb.inlinable();
        let v = mb.get_field(total);
        mb.reply(v);
    });
    let bump = pb.method(backend, "bump", 1, |mb| {
        let v = mb.get_field(total);
        let nv = mb.binl(BinOp::Add, v, mb.arg(0));
        mb.set_field(total, nv);
        mb.reply(nv);
    });

    let frontend = pb.class("Frontend", false);
    let backends = pb.array_field(frontend, "backends");
    let scratch = pb.field(frontend, "scratch");

    // RPC kind: one remote read, blocking on the reply.
    let lookup = pb.method(frontend, "lookup", 1, |mb| {
        let n = mb.arr_len(backends);
        let i = mb.binl(BinOp::Rem, mb.arg(0), n);
        let b = mb.get_elem(backends, i);
        let s = mb.invoke_into(b, get, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });

    // Data-parallel kind: bump every backend with one acked multicast.
    let fanout = pb.method(frontend, "fanout", 0, |mb| {
        let s = mb.multicast_into(backends, bump, &[1i64.into()]);
        mb.touch(&[s]);
        mb.reply_nil();
    });

    // Local kind: pure on-node work, no messaging.
    let compute = pb.method(frontend, "compute", 1, |mb| {
        mb.for_range(0i64, mb.arg(0), |mb, _| {
            let v = mb.get_field(scratch);
            let nv = mb.binl(BinOp::Add, v, 1);
            mb.set_field(scratch, nv);
        });
        let v = mb.get_field(scratch);
        mb.reply(v);
    });

    ServiceProgram {
        program: pb.finish(),
        lookup,
        fanout,
        compute,
        get,
        bump,
        total,
        backends,
        scratch,
    }
}

/// A placed service world: one frontend per node, backends round-robin.
pub struct ServiceInstance {
    /// Program handles.
    pub ids: ServiceProgram,
    /// Per-node frontends.
    pub frontends: Vec<ObjRef>,
    /// All backends.
    pub backend_refs: Vec<ObjRef>,
}

/// Place `n_backends` backends round-robin over all nodes plus one
/// frontend per node holding the full backend array.
pub fn setup(rt: &mut Runtime, ids: &ServiceProgram, n_backends: u32) -> ServiceInstance {
    let nodes = rt.n_nodes() as u32;
    let backend_refs: Vec<ObjRef> = (0..n_backends)
        .map(|i| {
            let r = rt.alloc_object_by_name("Backend", NodeId(i % nodes));
            rt.set_field(r, ids.total, Value::Int(0));
            r
        })
        .collect();
    let frontends: Vec<ObjRef> = (0..nodes)
        .map(|n| {
            let f = rt.alloc_object_by_name("Frontend", NodeId(n));
            rt.set_array(
                f,
                ids.backends,
                backend_refs.iter().map(|b| Value::Obj(*b)).collect(),
            );
            rt.set_field(f, ids.scratch, Value::Int(0));
            f
        })
        .collect();
    ServiceInstance {
        ids: ids.clone(),
        frontends,
        backend_refs,
    }
}

/// Open-loop driver parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeParams {
    /// Run until this virtual time (exclusive).
    pub horizon: Cycles,
    /// Arrival process.
    pub dist: ArrivalDist,
    /// Independent arrival streams.
    pub clients: u32,
    /// Arrival-process seed.
    pub seed: u64,
    /// Shed a request whose target's clock already trails its arrival by
    /// more than this (0 = no deadline).
    pub deadline: Cycles,
    /// Shed a request whose target node holds at least this much queued
    /// work (0 = unbounded queue).
    pub max_queue: usize,
}

/// What became of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Reply delivered at [`ReqRecord::done`].
    Completed,
    /// Still in flight when the horizon hit.
    Pending,
    /// Refused: target queue over `max_queue`.
    ShedQueue,
    /// Refused: target clock made the deadline infeasible at arrival.
    ShedDeadline,
}

/// One request's record: arrival, target, kind, outcome. The request's
/// id is its index in [`ServeOutcome::records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqRecord {
    /// Arrival time.
    pub arrived: Cycles,
    /// Reply delivery time; meaningful only when `disposition` is
    /// [`Disposition::Completed`].
    pub done: Cycles,
    /// Target node.
    pub node: NodeId,
    /// Request kind: 0 = lookup, 1 = compute, 2 = fanout.
    pub kind: u8,
    /// Outcome.
    pub disposition: Disposition,
}

// A service run keeps one record per offered request for its whole
// horizon; keep it at three words.
const _: () = assert!(std::mem::size_of::<ReqRecord>() == 24);

/// The driver's raw result. Aggregation (histograms, quantiles, warm-up
/// trimming) belongs to the observability layer; this crate only reports
/// what happened.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// One record per offered request, in arrival (= id) order.
    pub records: Vec<ReqRecord>,
}

impl ServeOutcome {
    /// Count of records matching a predicate.
    pub fn count(&self, f: impl Fn(&ReqRecord) -> bool) -> u64 {
        self.records.iter().filter(|r| f(r)).count() as u64
    }

    /// Sojourn times (arrival → reply) of completed requests, in arrival
    /// order.
    pub fn latencies(&self) -> Vec<(Cycles, Cycles)> {
        self.records
            .iter()
            .filter(|r| r.disposition == Disposition::Completed)
            .map(|r| (r.arrived, r.done.saturating_sub(r.arrived)))
            .collect()
    }
}

/// Play a seeded arrival stream against the machine up to
/// `params.horizon`, applying admission control at each arrival.
///
/// The request mix is keyed off each arrival's decision key: 60%
/// `lookup`, 30% `compute`, 10% `fanout`, targeting the frontend
/// `key mod nodes`. Shedding happens *before* injection and is itself
/// deterministic: both tests (queue depth, deadline feasibility) read
/// machine state that is bit-identical across executors at the arrival's
/// `run_until` boundary. Completions land through an observer wrapped
/// around the caller's, which is re-attached on return, trap or not.
pub fn run_service(
    rt: &mut Runtime,
    inst: &ServiceInstance,
    params: &ServeParams,
) -> Result<ServeOutcome, Trap> {
    let inner = rt.take_observer();
    rt.attach_observer(Box::new(Landing(Vec::new(), inner)));
    let run = drive(rt, inst, params);
    let any: Box<dyn Any> = rt.take_observer().expect("landing observer attached");
    let Landing(records, inner) = *any.downcast().expect("a Landing");
    if let Some(o) = inner {
        rt.attach_observer(o);
    }
    run.map(|()| ServeOutcome { records })
}

/// [`run_service`]'s arrival loop, under a [`Landing`].
fn drive(rt: &mut Runtime, inst: &ServiceInstance, params: &ServeParams) -> Result<(), Trap> {
    for (req, a) in (0u64..).zip(OpenLoop::new(params.dist, params.clients, params.seed)) {
        if a.at >= params.horizon {
            break;
        }
        rt.run_until(a.at)?;
        let fe = inst.frontends[(a.key % inst.frontends.len() as u64) as usize];
        let pick = (a.key >> 32) % 100;
        let (kind, method, args): (u8, MethodId, &[Value]) = if pick < 60 {
            let i = (a.key >> 16) as i64 & 0xFFFF;
            (0, inst.ids.lookup, &[Value::Int(i)])
        } else if pick < 90 {
            let n = 4 + ((a.key >> 24) as i64 & 0x7);
            (1, inst.ids.compute, &[Value::Int(n)])
        } else {
            (2, inst.ids.fanout, &[])
        };
        let mut rec = ReqRecord {
            arrived: a.at,
            done: 0,
            node: fe.node,
            kind,
            disposition: Disposition::Pending,
        };
        if params.max_queue > 0 && rt.queue_depth(fe.node) >= params.max_queue {
            rec.disposition = Disposition::ShedQueue;
            rt.note_request_shed(a.at, fe.node, req);
        } else if params.deadline > 0 && rt.node_time(fe.node) > a.at + params.deadline {
            rec.disposition = Disposition::ShedDeadline;
            rt.note_request_shed(a.at, fe.node, req);
        } else {
            rt.inject_request(a.at, req, fe, method, args);
        }
        let any: &mut dyn Any = rt.observer_mut().expect("landing observer attached");
        let landing = any.downcast_mut::<Landing>().expect("a Landing");
        landing.0.push(rec);
    }
    rt.run_until(params.horizon)
}

/// The driver's observer, holding the run's request records and the
/// caller's observer: lands each `RequestDone` in its request's record
/// and forwards every record to the caller's. Observers see only
/// committed records, so a rolled-back completion never lands.
struct Landing(Vec<ReqRecord>, Option<Box<dyn Observer>>);

impl Observer for Landing {
    fn on_record(&mut self, rec: &TraceRecord) {
        if let TraceEvent::RequestDone { req, .. } = rec.event {
            let r = &mut self.0[req as usize];
            debug_assert_eq!(
                r.disposition,
                Disposition::Pending,
                "request {req} completes once, and only if it was admitted"
            );
            r.disposition = Disposition::Completed;
            r.done = rec.at;
        }
        self.1.iter_mut().for_each(|o| o.on_record(rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_analysis::InterfaceSet;
    use hem_core::{ExecMode, SchedImpl};
    use hem_machine::cost::CostModel;

    fn world(nodes: u32) -> (Runtime, ServiceInstance) {
        let ids = build();
        let mut rt = crate::make_runtime(
            ids.program.clone(),
            nodes,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        );
        let inst = setup(&mut rt, &ids, 8);
        (rt, inst)
    }

    fn params(horizon: Cycles) -> ServeParams {
        ServeParams {
            horizon,
            dist: ArrivalDist::Poisson { mean_gap: 400.0 },
            clients: 3,
            seed: 42,
            deadline: 0,
            max_queue: 0,
        }
    }

    #[test]
    fn requests_complete_and_latencies_are_positive() {
        let (mut rt, inst) = world(4);
        let out = run_service(&mut rt, &inst, &params(60_000)).unwrap();
        assert!(!rt.observer_attached(), "the driver's observer is gone");
        assert!(out.records.len() > 50, "offered {}", out.records.len());
        let completed = out.count(|r| r.disposition == Disposition::Completed);
        assert!(completed > 0, "some requests complete");
        for (arrived, lat) in out.latencies() {
            assert!(arrived < 60_000);
            assert!(lat > 0, "reply strictly after arrival");
        }
        // All three kinds appear in a decent-sized sample.
        for kind in 0..3u8 {
            assert!(out.count(|r| r.kind == kind) > 0, "kind {kind} offered");
        }
    }

    #[test]
    fn driver_is_deterministic() {
        let run = || {
            let (mut rt, inst) = world(4);
            let out = run_service(&mut rt, &inst, &params(40_000)).unwrap();
            (
                out.records
                    .iter()
                    .map(|r| (r.arrived, r.node.0, r.kind))
                    .collect::<Vec<_>>(),
                out.latencies(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A caller's observer: counts the records it is fed.
    struct Seen(u64);

    impl Observer for Seen {
        fn on_record(&mut self, _: &TraceRecord) {
            self.0 += 1;
        }
    }

    #[test]
    fn a_trap_leaves_the_callers_observer_attached() {
        for sched in [
            SchedImpl::EventIndex,
            SchedImpl::Sharded { threads: 2 },
            SchedImpl::Speculative { threads: 2 },
        ] {
            let (mut rt, inst) = world(4);
            rt.sched_impl = sched;
            // No stack frame at all: the first non-blocking call traps.
            rt.set_max_seq_depth(0);
            rt.attach_observer(Box::new(Seen(0)));
            let run = run_service(&mut rt, &inst, &params(40_000));
            assert!(run.is_err(), "{sched:?}: the run traps");
            assert!(rt.observer_attached(), "{sched:?}: observer attached");
            let any: Box<dyn Any> = rt.take_observer().unwrap();
            let seen = any.downcast::<Seen>().expect("the caller's observer");
            assert!(seen.0 > 0, "{sched:?}: it saw the run's records");
        }
    }

    #[test]
    fn queue_cap_sheds_under_overload() {
        let (mut rt, inst) = world(2);
        let p = ServeParams {
            horizon: 40_000,
            dist: ArrivalDist::Poisson { mean_gap: 30.0 },
            clients: 4,
            seed: 7,
            deadline: 0,
            max_queue: 2,
        };
        let out = run_service(&mut rt, &inst, &p).unwrap();
        assert!(
            out.count(|r| r.disposition == Disposition::ShedQueue) > 0,
            "overload with a tiny queue cap must shed"
        );
    }

    #[test]
    fn deadline_sheds_when_the_target_lags() {
        let (mut rt, inst) = world(2);
        let p = ServeParams {
            horizon: 40_000,
            dist: ArrivalDist::Poisson { mean_gap: 30.0 },
            clients: 4,
            seed: 7,
            deadline: 50,
            max_queue: 0,
        };
        let out = run_service(&mut rt, &inst, &p).unwrap();
        assert!(
            out.count(|r| r.disposition == Disposition::ShedDeadline) > 0,
            "an overloaded node's clock outruns tight deadlines"
        );
    }
}
