//! The threaded executors under a skewed placement.
//!
//! Both threaded executors cut the node space into contiguous equal
//! slices. A placement whose hot objects all sit in one slice lands every
//! busy node in one shard. These tests pin that such a run is still
//! **observationally invisible** — traces, makespan, `MachineStats` and
//! the rendered rollup report stay bit-identical to the single-threaded
//! event index at threads {2, 4}, under both window policies, with and
//! without a fault plan — and that the persistent pool survives
//! `run_until` chunks (serve mode) with zero `Runtime` moves and zero
//! coordinator round-trips.

mod common;

use common::assert_same_trace;
use hem::analysis::InterfaceSet;
use hem::core::trace::TraceRecord;
use hem::core::{ExecMode, Runtime, SchedImpl};
use hem::ir::{BinOp, MethodId, ObjRef, ProgramBuilder, Value};
use hem::machine::cost::CostModel;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::machine::NodeId;
use hem::obs::{Report, Rollup};
use hem_bench::serve::ServeConfig;

const P: u32 = 8;
/// The hot contiguous slice: the first two nodes host all the heavy
/// objects, so the equal slices at 2 threads put every hot node in
/// shard 0.
const HOT: u32 = 2;

/// Build the skewed world: a pair of heavy objects bouncing on nodes
/// {0, 1} and a cold ring over nodes {2..P} that barely ticks.
fn skewed_runtime() -> (Runtime, SkewedIds) {
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
    let mut rt = Runtime::new(
        pb.finish(),
        P,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .expect("valid skewed program");
    // Hot pair on the contiguous slice [0, HOT).
    let hot: Vec<ObjRef> = (0..HOT)
        .map(|i| rt.alloc_object_by_name("C", NodeId(i)))
        .collect();
    for (i, &o) in hot.iter().enumerate() {
        rt.set_field(o, peer, Value::Obj(hot[(i + 1) % hot.len()]));
    }
    // Cold ring over the remaining nodes.
    let cold: Vec<ObjRef> = (HOT..P)
        .map(|i| rt.alloc_object_by_name("C", NodeId(i)))
        .collect();
    for (i, &o) in cold.iter().enumerate() {
        rt.set_field(o, peer, Value::Obj(cold[(i + 1) % cold.len()]));
    }
    (
        rt,
        SkewedIds {
            bounce,
            hot_root: hot[0],
            cold_root: cold[0],
        },
    )
}

struct SkewedIds {
    bounce: MethodId,
    hot_root: ObjRef,
    cold_root: ObjRef,
}

struct Outcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
    report: String,
}

/// Run the skewed kernel: a token lap around the cold ring, then the
/// heavy hot-pair exchange (two executor entries, so the pool also sees
/// a reuse).
fn run_skewed(sched: SchedImpl, plan: Option<&FaultPlan>) -> Outcome {
    let (mut rt, ids) = skewed_runtime();
    rt.sched_impl = sched;
    rt.enable_trace();
    rt.attach_observer(Box::new(Rollup::new()));
    if let Some(p) = plan {
        rt.set_fault_plan(p.clone());
    }
    rt.call(ids.cold_root, ids.bounce, &[Value::Int(6)])
        .expect("cold lap");
    rt.call(ids.hot_root, ids.bounce, &[Value::Int(120)])
        .expect("hot exchange");
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new("skewed", &rollup, &stats, rt.program(), rt.schemas()).text();
    Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
    }
}

fn assert_bit_identical(label: &str, base: &Outcome, other: &Outcome) {
    assert_eq!(base.makespan, other.makespan, "{label}: makespan");
    assert_eq!(
        base.stats.node_time, other.stats.node_time,
        "{label}: per-node clocks"
    );
    assert_eq!(
        base.stats.per_node, other.stats.per_node,
        "{label}: per-node counters"
    );
    assert_eq!(base.stats.net, other.stats.net, "{label}: net stats");
    assert_same_trace(label, &base.trace, &other.trace);
    assert_eq!(
        base.stats.sched.events_dispatched, other.stats.sched.events_dispatched,
        "{label}: events dispatched"
    );
    assert_eq!(base.report, other.report, "{label}: rollup report text");
}

/// (a) Bit-identity on the skewed placement, with and without a fault
/// plan.
#[test]
fn skewed_placement_stays_bit_identical() {
    let plans = [None, Some(FaultPlan::seeded(0xC0FFEE))];
    for plan in &plans {
        let base = run_skewed(SchedImpl::EventIndex, plan.as_ref());
        for threads in [2usize, 4] {
            // Both window policies run on the one pool and take the same
            // partition.
            for (name, sched) in [
                ("sharded", SchedImpl::Sharded { threads }),
                ("speculative", SchedImpl::Speculative { threads }),
            ] {
                let label = format!(
                    "skewed/{name}/threads{threads}{}",
                    if plan.is_some() { "/faulty" } else { "" }
                );
                assert_bit_identical(&label, &base, &run_skewed(sched, plan.as_ref()));
            }
        }
    }
}

/// (b) Serve mode: one pool serves every `run_until` chunk of the
/// arrival-driven loop — zero `Runtime` moves, zero coordinator
/// round-trips, and a pool reuse per subsequent chunk.
#[test]
fn serve_mode_reuses_one_pool_across_chunks() {
    for speculative in [false, true] {
        serve_reuses_one_pool(speculative);
    }
}

fn serve_reuses_one_pool(speculative: bool) {
    let mut cfg = ServeConfig::new();
    cfg.p = 8;
    cfg.backends = 8;
    cfg.horizon = 30_000;
    cfg.warmup = 2_000;
    cfg.threads = 2;
    cfg.speculative = speculative;
    let (rt, out) = cfg.run().expect("service run");
    let completed = out.count(|r| r.disposition == hem::apps::service::Disposition::Completed);
    assert!(completed > 1, "service did work ({completed} completions)");
    let st = rt.stats();
    assert!(st.sched.windows > 0, "windowed path exercised");
    assert_eq!(st.sched.runtime_moves, 0, "zero Runtime moves");
    assert_eq!(
        st.sched.coord_roundtrips, 0,
        "zero coordinator channel round-trips"
    );
    assert!(
        st.sched.pool_reuses > 0,
        "later chunks reused the pinned pool (got {} reuses over {} windows)",
        st.sched.pool_reuses,
        st.sched.windows
    );
}
