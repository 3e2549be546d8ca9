//! Profile-guided shard maps under skewed placements.
//!
//! The sharded executor's default partition is a contiguous equal slice
//! of the node space. A placement whose hot objects all sit in one
//! contiguous slice then lands every busy node in one shard and idles
//! the rest of the pool. The profile-guided map
//! (`Runtime::set_shard_weights` fed by `Rollup::node_busy_weights`)
//! re-cuts the boundaries by cumulative busy time. These tests pin both
//! halves of that contract on a deliberately skewed kernel:
//!
//! * the weighted map is **observationally invisible** — traces,
//!   makespan, `MachineStats`, and the rendered rollup report stay
//!   bit-identical to the single-threaded event index at threads {2, 4},
//!   under both threaded executors, with and without weights, with and
//!   without a fault plan;
//! * the weighted map actually **splits the hot slice** — the hottest
//!   shard's busy share drops strictly below the equal-slice map's, and
//!   the hot nodes no longer share one shard;
//! * the persistent pool survives `run_until` chunks (serve mode) with
//!   zero `Runtime` moves and zero coordinator round-trips;
//! * all of it under both window policies — `Sharded` and `Speculative`
//!   run on the one pool and take the same partition.

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
/// objects, so the equal-slice map at 2 threads puts every hot node in
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
fn run_skewed(
    sched: SchedImpl,
    weights: Option<Vec<u64>>,
    plan: Option<&FaultPlan>,
) -> (Outcome, Runtime) {
    let (mut rt, ids) = skewed_runtime();
    rt.sched_impl = sched;
    rt.enable_trace();
    rt.attach_observer(Box::new(Rollup::new()));
    if let Some(p) = plan {
        rt.set_fault_plan(p.clone());
    }
    rt.set_shard_weights(weights);
    rt.call(ids.cold_root, ids.bounce, &[Value::Int(6)])
        .expect("cold lap");
    rt.call(ids.hot_root, ids.bounce, &[Value::Int(120)])
        .expect("hot exchange");
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new("skewed", &rollup, &stats, rt.program(), rt.schemas()).text();
    let out = Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
    };
    (out, rt)
}

/// The single-threaded busy-time profile of the skewed kernel.
fn pilot_weights() -> Vec<u64> {
    let (mut rt, ids) = skewed_runtime();
    // No trace buffer: the rollup is the stream's only consumer.
    rt.attach_observer(Box::new(Rollup::new()));
    rt.call(ids.cold_root, ids.bounce, &[Value::Int(6)])
        .expect("cold lap");
    rt.call(ids.hot_root, ids.bounce, &[Value::Int(120)])
        .expect("hot exchange");
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    rollup.node_busy_weights(P)
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

/// (a) Bit-identity on the skewed placement, equal-slice and
/// profile-guided maps alike, with and without a fault plan.
#[test]
fn skewed_placement_stays_bit_identical() {
    let weights = pilot_weights();
    let plans = [None, Some(FaultPlan::seeded(0xC0FFEE))];
    for plan in &plans {
        let (base, _) = run_skewed(SchedImpl::EventIndex, None, plan.as_ref());
        for threads in [2usize, 4] {
            let label = |map: &str| {
                format!(
                    "skewed/{map}/threads{threads}{}",
                    if plan.is_some() { "/faulty" } else { "" }
                )
            };
            // Both window policies run on the one pool and take the same
            // partition, so both get the full even/profile matrix.
            for (name, sched) in [
                ("sharded", SchedImpl::Sharded { threads }),
                ("speculative", SchedImpl::Speculative { threads }),
            ] {
                let (even, _) = run_skewed(sched, None, plan.as_ref());
                assert_bit_identical(&label(&format!("{name}/even")), &base, &even);
                let (prof, _) = run_skewed(sched, Some(weights.clone()), plan.as_ref());
                assert_bit_identical(&label(&format!("{name}/profile")), &base, &prof);
            }
        }
    }
}

/// (b) The profile-guided map splits the hot slice: the equal-slice map
/// concentrates the whole busy profile in one shard, the weighted cut
/// strictly lowers the hottest shard's busy share.
#[test]
fn profile_guided_map_splits_the_hot_slice() {
    let weights = pilot_weights();
    let total: u64 = weights.iter().sum();
    let hot: u64 = weights[..HOT as usize].iter().sum();
    assert!(
        hot * 10 > total * 9,
        "skew premise: hot slice carries >90% of busy time ({hot}/{total})"
    );

    let shard_busy = |owner: &[usize], threads: usize| -> Vec<u64> {
        let mut busy = vec![0u64; threads];
        for (i, &s) in owner.iter().enumerate() {
            busy[s] += weights[i];
        }
        busy
    };

    let (_, rt_even) = run_skewed(SchedImpl::Sharded { threads: 2 }, None, None);
    let even = rt_even.shard_plan(2);
    assert_eq!(
        even[0], even[1],
        "equal slices put the whole hot pair in one shard"
    );
    let even_peak = *shard_busy(&even, 2).iter().max().unwrap();

    let (_, rt_prof) = run_skewed(
        SchedImpl::Sharded { threads: 2 },
        Some(weights.clone()),
        None,
    );
    let prof = rt_prof.shard_plan(2);
    assert!(
        prof.windows(2).all(|ab| ab[0] <= ab[1]),
        "weighted map stays contiguous: {prof:?}"
    );
    for s in 0..2 {
        assert!(prof.contains(&s), "shard {s} nonempty: {prof:?}");
    }
    assert_ne!(
        prof[0], prof[1],
        "profile-guided cut splits the hot slice: {prof:?}"
    );
    let prof_peak = *shard_busy(&prof, 2).iter().max().unwrap();
    assert!(
        prof_peak < even_peak,
        "hottest shard's busy time drops: {prof_peak} !< {even_peak}"
    );
    // Spread bound: with the hot pair split, no shard carries more than
    // ~¾ of the busy total (the two hot nodes are near-equal halves).
    assert!(
        prof_peak * 4 <= total * 3,
        "per-shard busy spread bound: {prof_peak} > 3/4 of {total}"
    );

    // The optimistic policy partitions by the same map (it used to
    // hard-code equal slices): with the hot pair split across shards the
    // hot exchange crosses a shard boundary on every hop, which shows up
    // as stragglers the equal-slice run never sees.
    let spec = SchedImpl::Speculative { threads: 2 };
    let (_, rt_even) = run_skewed(spec, None, None);
    let (_, rt_prof) = run_skewed(spec, Some(weights.clone()), None);
    assert_eq!(rt_prof.shard_plan(2), prof);
    assert!(
        rt_prof.spec_stats().rollbacks > rt_even.spec_stats().rollbacks,
        "weighted map in use under Speculative: {:?} vs even {:?}",
        rt_prof.spec_stats(),
        rt_even.spec_stats()
    );
}

/// (c) Serve mode: one pool serves every `run_until` chunk of the
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
    let completed =
        out.count(|r| matches!(r.disposition, hem::apps::service::Disposition::Completed(_)));
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
