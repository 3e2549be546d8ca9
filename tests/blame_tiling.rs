//! Blame-segment tiling and cross-executor identity of the
//! observability sections (ISSUE 9 acceptance).
//!
//! Two invariants over the open-system service mix:
//!
//! * **Exact tiling** — for every completed request, on every executor,
//!   the blame segments (queue/exec/wire/lock/retx) sum to exactly
//!   `done.at − arrived.at`, with and without a fault plan. This is the
//!   hard invariant the frontier-cursor decomposition guarantees by
//!   construction; the suite pins it against regressions in either the
//!   decomposition or the tag plumbing.
//! * **Bit-identity** — the blame summary JSON and the series summary
//!   JSON are pure functions of the (executor-invariant) record stream,
//!   so they must be byte-identical across the event-index, linear-scan,
//!   sharded, and speculative executors at threads {1, 2, 4}.
//!
//! A property test drives the same invariants over generated
//! `(seed, drop, dup, jitter)` fault plans.

mod common;

use common::Exec;
use hem::apps::service::{self, ServeParams};
use hem::core::{Runtime, SchedImpl};
use hem::machine::arrival::ArrivalDist;
use hem::machine::fault::FaultPlan;
use hem::obs::{Blame, BlameSummary, Fanout, RequestBlame, Series, SeriesSummary};
use hem::{CostModel, ExecMode, InterfaceSet};
use proptest::prelude::*;

const THREADS: [usize; 2] = [2, 4];

fn seeds() -> Vec<u64> {
    match std::env::var("HYBRID_TEST_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("HYBRID_TEST_SEED must be an unsigned integer")],
        Err(_) => vec![7, 0xC0FFEE],
    }
}

/// Every executor the runtime offers, with the thread counts under test.
fn executors() -> Vec<(String, Exec)> {
    let mut v = vec![
        ("event-index".into(), SchedImpl::EventIndex.into()),
        ("linear-scan".into(), Exec::Reference),
    ];
    for t in THREADS {
        v.push((
            format!("sharded-{t}"),
            SchedImpl::Sharded { threads: t }.into(),
        ));
        v.push((
            format!("speculative-{t}"),
            SchedImpl::Speculative { threads: t }.into(),
        ));
    }
    v
}

struct Observed {
    finished: Vec<RequestBlame>,
    blame: BlameSummary,
    series: SeriesSummary,
}

/// Run the service mix at P=8 with a blame tracker and a series
/// collector teed behind the rollup, streaming — no drained trace.
fn run_observed(seed: u64, exec: impl Into<Exec>, plan: Option<&FaultPlan>) -> Observed {
    let ids = service::build();
    let mut rt = Runtime::new(
        ids.program.clone(),
        8,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    exec.into().arm(&mut rt);
    rt.enable_trace();
    if let Some(p) = plan {
        rt.set_fault_plan(p.clone());
    }
    rt.attach_observer(Box::new(
        Fanout::new()
            .with(Box::new(Blame::new()))
            .with(Box::new(Series::new(1_000))),
    ));
    let inst = service::setup(&mut rt, &ids, 16);
    let params = ServeParams {
        horizon: 30_000,
        dist: ArrivalDist::Poisson { mean_gap: 150.0 },
        clients: 4,
        seed,
        deadline: 6_000,
        max_queue: 24,
    };
    service::run_service(&mut rt, &inst, &params).unwrap();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("fanout attached");
    let fan = any.downcast::<Fanout>().expect("a Fanout");
    let mut parts = fan.into_parts().into_iter();
    let blame: Box<dyn std::any::Any> = parts.next().unwrap();
    let blame = blame.downcast::<Blame>().expect("a Blame");
    let series: Box<dyn std::any::Any> = parts.next().unwrap();
    let series = series.downcast::<Series>().expect("a Series");
    Observed {
        finished: blame.finished().to_vec(),
        blame: blame.summary(0.99, 8),
        series: series.summary(),
    }
}

fn assert_tiling(label: &str, obs: &Observed) {
    assert!(
        !obs.finished.is_empty(),
        "{label}: the mix completed no requests — the invariant would be vacuous"
    );
    for r in &obs.finished {
        let sum: u64 = r.segs.iter().map(|s| s.1).sum();
        assert_eq!(
            sum,
            r.done - r.arrived,
            "{label}: req {} segments {:?} do not tile [{}, {}]",
            r.req,
            r.segs,
            r.arrived,
            r.done
        );
        for &(_, d) in &r.segs {
            assert!(d > 0, "{label}: req {} carries a zero-width segment", r.req);
        }
    }
}

fn fault_plan(seed: u64) -> FaultPlan {
    let mut p = FaultPlan::seeded(seed);
    p.drop_permille = 60;
    p.dup_permille = 20;
    p.jitter_max = 40;
    p
}

#[test]
fn blame_segments_tile_the_sojourn_on_every_executor() {
    for seed in seeds() {
        let plans = [None, Some(fault_plan(seed))];
        for plan in &plans {
            for (name, sched) in executors() {
                let label = format!(
                    "seed{seed}/{name}{}",
                    if plan.is_some() { "/faults" } else { "" }
                );
                let obs = run_observed(seed, sched, plan.as_ref());
                assert_tiling(&label, &obs);
            }
        }
    }
}

#[test]
fn blame_and_series_json_bit_identical_across_executors() {
    for seed in seeds() {
        let plans = [None, Some(fault_plan(seed))];
        for plan in &plans {
            let base = run_observed(seed, SchedImpl::EventIndex, plan.as_ref());
            let (bj, sj) = (base.blame.json(), base.series.json());
            assert!(base.blame.completed > 0, "seed{seed}: empty blame summary");
            assert!(!base.series.buckets.is_empty(), "seed{seed}: empty series");
            for (name, sched) in executors() {
                let label = format!(
                    "seed{seed}/{name}{}",
                    if plan.is_some() { "/faults" } else { "" }
                );
                let other = run_observed(seed, sched, plan.as_ref());
                assert_eq!(bj, other.blame.json(), "{label}: blame JSON");
                assert_eq!(sj, other.series.json(), "{label}: series JSON");
            }
        }
    }
}

#[test]
fn retransmit_penalty_appears_under_heavy_drops() {
    // With a 12% drop rate some completed request's critical chain loses
    // a frame, so the aggregate retx blame must be non-zero — guards the
    // tag plumbing through the reliable transport's retransmit path.
    let mut plan = FaultPlan::seeded(9);
    plan.drop_permille = 120;
    let obs = run_observed(9, SchedImpl::EventIndex, Some(&plan));
    assert_tiling("heavy-drops", &obs);
    assert!(
        obs.blame.totals[4] > 0,
        "no retx blame despite 12% drops: {:?}",
        obs.blame.totals
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tiling holds for arbitrary fault plans on both parallel executors.
    #[test]
    fn tiling_holds_for_generated_fault_plans(
        seed in 0u64..1_000_000,
        drop in 0u16..150,
        dup in 0u16..80,
        jitter in 0u64..60,
        threads_idx in 0usize..THREADS.len(),
        speculative in any::<bool>(),
    ) {
        let threads = THREADS[threads_idx];
        let mut plan = FaultPlan::seeded(seed);
        plan.drop_permille = drop;
        plan.dup_permille = dup;
        plan.jitter_max = jitter;
        let sched = if speculative {
            SchedImpl::Speculative { threads }
        } else {
            SchedImpl::Sharded { threads }
        };
        let obs = run_observed(seed, sched, Some(&plan));
        assert_tiling(&format!("prop/seed{seed}"), &obs);
    }
}
