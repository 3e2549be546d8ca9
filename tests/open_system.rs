//! Open-system service mode: determinism, resumability, and
//! latency-quantile correctness.
//!
//! The open-system contract extends the closed-system one: for the same
//! `(seed, rate, horizon)` the run — arrival times, admission decisions,
//! injected requests, traces, machine stats, rollup report with its
//! service section — is a pure function of the configuration, identical
//! across the event-index, linear-scan, sharded, and speculative
//! (Time-Warp) executors at every thread count, with or without a fault
//! plan. On top of that:
//!
//! * `run_until` is resumable: stepping to a horizon in many chunks is
//!   bit-identical to reaching it in one call;
//! * the reported p50/p95/p99 agree with a brute-force sorted-sample
//!   nearest-rank computation over the raw per-request latencies (same
//!   log2 bucket by construction; exact at the top sample).
//!
//! Seeds come from `HYBRID_TEST_SEED` when set, else a pinned trio.

mod common;

use common::{assert_same_trace, seeds, Exec};
use hem::apps::service::{self, Disposition, ServeParams};
use hem::core::trace::TraceRecord;
use hem::core::{Runtime, SchedImpl};
use hem::machine::arrival::ArrivalDist;
use hem::machine::fault::FaultPlan;
use hem::machine::stats::MachineStats;
use hem::obs::{Report, Rollup};
use hem::{CostModel, ExecMode, InterfaceSet, Value};
use hem_bench::serve::ServeConfig;

struct Outcome {
    makespan: u64,
    stats: MachineStats,
    trace: Vec<TraceRecord>,
    report: String,
    dispositions: Vec<(u64, u64, u32, u8, service::Disposition)>,
}

const THREADS: [usize; 2] = [2, 4];

/// Run the service mix at P=8 to a 30k-cycle horizon with admission
/// control engaged (so shed paths are exercised too).
fn run_service_mix(seed: u64, exec: impl Into<Exec>, plan: Option<&FaultPlan>) -> Outcome {
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
    rt.attach_observer(Box::new(Rollup::new()));
    if let Some(p) = plan {
        rt.set_fault_plan(p.clone());
    }
    let inst = service::setup(&mut rt, &ids, 16);
    let params = ServeParams {
        horizon: 30_000,
        dist: ArrivalDist::Poisson { mean_gap: 150.0 },
        clients: 4,
        seed,
        deadline: 6_000,
        max_queue: 24,
    };
    let out = service::run_service(&mut rt, &inst, &params).unwrap();
    let stats = rt.stats();
    let any: Box<dyn std::any::Any> = rt.take_observer().expect("rollup attached");
    let rollup = any.downcast::<Rollup>().expect("a Rollup");
    let report = Report::new("service-mix", &rollup, &stats, rt.program(), rt.schemas()).text();
    Outcome {
        makespan: rt.makespan(),
        stats,
        trace: rt.take_trace(),
        report,
        dispositions: out
            .records
            .iter()
            .map(|r| (r.req, r.arrived, r.node.0, r.kind, r.disposition))
            .collect(),
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
    assert_eq!(base.stats.net, other.stats.net, "{label}: net/fault stats");
    assert_same_trace(label, &base.trace, &other.trace);
    assert_eq!(
        base.dispositions, other.dispositions,
        "{label}: request dispositions"
    );
    assert_eq!(base.report, other.report, "{label}: rollup report text");
}

/// Fault-free matrix: linear scan and sharded (2, 4 threads) against the
/// event index, every pinned seed.
#[test]
fn open_system_is_bit_identical_across_executors() {
    for seed in seeds() {
        let base = run_service_mix(seed, SchedImpl::EventIndex, None);
        assert!(
            base.dispositions
                .iter()
                .any(|d| matches!(d.4, Disposition::Completed(_))),
            "seed {seed}: some requests complete"
        );
        let lin = run_service_mix(seed, Exec::Reference, None);
        assert_bit_identical(&format!("seed{seed}/linear"), &base, &lin);
        for threads in THREADS {
            let sh = run_service_mix(seed, SchedImpl::Sharded { threads }, None);
            assert_bit_identical(&format!("seed{seed}/threads{threads}"), &base, &sh);
            let sp = run_service_mix(seed, SchedImpl::Speculative { threads }, None);
            assert_bit_identical(&format!("seed{seed}/speculative{threads}"), &base, &sp);
        }
    }
}

/// The same matrix with a seeded fault plan (loss, duplication, jitter):
/// retransmissions shift completions, but identically everywhere.
#[test]
fn open_system_is_bit_identical_under_faults() {
    for seed in seeds() {
        let mut plan = FaultPlan::seeded(seed);
        plan.drop_permille = 20;
        plan.dup_permille = 20;
        plan.jitter_max = 80;
        let base = run_service_mix(seed, SchedImpl::EventIndex, Some(&plan));
        let lin = run_service_mix(seed, Exec::Reference, Some(&plan));
        assert_bit_identical(&format!("seed{seed}/faulty/linear"), &base, &lin);
        for threads in THREADS {
            let sh = run_service_mix(seed, SchedImpl::Sharded { threads }, Some(&plan));
            assert_bit_identical(&format!("seed{seed}/faulty/threads{threads}"), &base, &sh);
            let sp = run_service_mix(seed, SchedImpl::Speculative { threads }, Some(&plan));
            assert_bit_identical(
                &format!("seed{seed}/faulty/speculative{threads}"),
                &base,
                &sp,
            );
        }
    }
}

/// `run_until` is resumable: many small horizons compose to the same
/// state as one big one, on every executor — and across executors, with
/// a different one taking over at every chunk.
#[test]
fn run_until_composes_across_chunked_horizons() {
    // Open-loop drive: run to each arrival, inject it, carry on; `chunks`
    // adds `(executor, horizon)` stops in between.
    let drive = |chunks: &[(Exec, u64)]| {
        let ids = service::build();
        let mut rt = Runtime::new(
            ids.program.clone(),
            4,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.enable_trace();
        let inst = service::setup(&mut rt, &ids, 8);
        let mut arrivals = [100u64, 230, 360, 520].into_iter().enumerate().peekable();
        for &(exec, horizon) in chunks {
            exec.arm(&mut rt);
            while let Some((i, at)) = arrivals.next_if(|&(_, at)| at <= horizon) {
                rt.run_until(at).unwrap();
                let fe = inst.frontends[i % inst.frontends.len()];
                rt.inject_request(at, i as u64, fe, inst.ids.lookup, &[Value::Int(i as i64)]);
            }
            rt.run_until(horizon).unwrap();
        }
        let completions = rt.take_completed_requests();
        (rt.stats(), rt.take_trace(), completions)
    };
    type Run = (MachineStats, Vec<TraceRecord>, Vec<(u64, u64)>);
    let same = |label: &str, whole: &Run, got: &Run| {
        assert_eq!(whole.0.node_time, got.0.node_time, "{label}: clocks");
        assert_eq!(whole.0.per_node, got.0.per_node, "{label}: counters");
        assert_same_trace(&format!("{label}: traces"), &whole.1, &got.1);
        assert_eq!(whole.2, got.2, "{label}: completions");
    };
    let execs = [
        SchedImpl::EventIndex.into(),
        Exec::Reference,
        SchedImpl::Sharded { threads: 2 }.into(),
        SchedImpl::Speculative { threads: 2 }.into(),
    ];
    let whole = drive(&[(execs[0], 20_000)]);
    assert_eq!(whole.2.len(), 4, "all four requests completed");
    for exec in execs {
        let stops = [150, 151, 400, 2_000, 2_001, 20_000].map(|h| (exec, h));
        same(&format!("{exec:?}"), &whole, &drive(&stops));
    }
    // Random horizons, a random executor per chunk: the index, the pool
    // and the injected arrivals are handed over mid-run every time.
    for seed in seeds() {
        let mut rng = seed;
        for round in 0..6 {
            let mut stops = Vec::new();
            let mut horizon = 0;
            while horizon < 3_000 {
                horizon += 1 + common::splitmix64(&mut rng) % 400;
                let exec = execs[(common::splitmix64(&mut rng) % 4) as usize];
                stops.push((exec, horizon));
            }
            stops.push((execs[(common::splitmix64(&mut rng) % 4) as usize], 20_000));
            same(
                &format!("seed {seed} round {round}: {stops:?}"),
                &whole,
                &drive(&stops),
            );
        }
    }
}

/// A bounded run is an exact event-set prefix of the unbounded run: the
/// horizon trace is a prefix of the quiescence trace, and resuming from
/// the horizon reaches the quiescent state bit-identically.
#[test]
fn horizon_trace_is_a_prefix_of_quiescence() {
    let build = || {
        let ids = service::build();
        let mut rt = Runtime::new(
            ids.program.clone(),
            4,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.enable_trace();
        let inst = service::setup(&mut rt, &ids, 8);
        for (i, at) in [100u64, 230, 360, 520].iter().enumerate() {
            let fe = inst.frontends[i % inst.frontends.len()];
            rt.inject_request(*at, i as u64, fe, inst.ids.fanout, &[]);
        }
        rt
    };
    let mut unbounded = build();
    unbounded.run_to_quiescence().unwrap();
    let full = unbounded.take_trace();

    let mut bounded = build();
    bounded.run_until(700).unwrap();
    let prefix = bounded.take_trace();
    assert!(!prefix.is_empty() && prefix.len() < full.len());
    assert_eq!(
        &full[..prefix.len()],
        &prefix[..],
        "horizon run is a prefix"
    );

    bounded.run_to_quiescence().unwrap();
    let rest = bounded.take_trace();
    assert_eq!(&full[prefix.len()..], &rest[..], "resume completes the run");
    assert_eq!(unbounded.makespan(), bounded.makespan());
}

/// Brute-force nearest-rank quantile over raw samples.
fn brute_quantile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len() as u64;
    let r = ((p * n as f64).ceil() as u64).clamp(1, n);
    sorted[(r - 1) as usize]
}

fn log2_bucket(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// The served JSON report's p50/p95/p99 agree with a brute-force
/// computation over the raw per-request latencies: the same nearest-rank
/// sample is selected, so both land in the same log2 bucket (and the
/// top-rank quantile is exact).
#[test]
fn serve_quantiles_match_brute_force() {
    for seed in seeds() {
        let mut cfg = ServeConfig::new();
        cfg.p = 8;
        cfg.backends = 16;
        cfg.horizon = 50_000;
        cfg.warmup = 5_000;
        cfg.dist = ArrivalDist::Poisson { mean_gap: 250.0 };
        cfg.clients = 3;
        cfg.seed = seed;
        let (_rt, out) = cfg.run().expect("service run");
        let summary = cfg.summary(&out);

        let mut samples: Vec<u64> = out
            .latencies()
            .iter()
            .filter(|(arrived, _)| *arrived >= cfg.warmup)
            .map(|(_, lat)| *lat)
            .collect();
        samples.sort_unstable();
        assert!(
            samples.len() > 30,
            "seed {seed}: want a real sample ({} kept)",
            samples.len()
        );
        assert_eq!(summary.latency.count(), samples.len() as u64);
        assert_eq!(summary.latency.max(), *samples.last().unwrap());

        for p in [0.50, 0.95, 0.99] {
            let hist_q = summary.latency.quantile(p);
            let brute_q = brute_quantile(&samples, p);
            assert_eq!(
                log2_bucket(hist_q),
                log2_bucket(brute_q),
                "seed {seed} p{p}: hist {hist_q} vs brute {brute_q}"
            );
        }
        assert_eq!(
            summary.latency.quantile(1.0),
            *samples.last().unwrap(),
            "p100 is exact"
        );
    }
}

/// The arrival process itself is executor-independent: two ServeConfig
/// runs at different thread counts produce byte-identical JSON reports,
/// including the service section.
#[test]
fn serve_reports_are_identical_across_thread_counts() {
    let render = |threads: usize| {
        let mut cfg = ServeConfig::new();
        cfg.p = 8;
        cfg.horizon = 30_000;
        cfg.warmup = 3_000;
        cfg.dist = ArrivalDist::Bursty {
            mean_gap: 300.0,
            burst_len: 8,
        };
        cfg.seed = 271_828;
        cfg.deadline = 8_000;
        cfg.threads = threads;
        let (mut rt, out) = cfg.run().expect("service run");
        let stats = rt.stats();
        let any: Box<dyn std::any::Any> = rt.take_observer().unwrap();
        let rollup = any.downcast::<Rollup>().unwrap();
        Report::new(&cfg.title(), &rollup, &stats, rt.program(), rt.schemas())
            .with_service(cfg.summary(&out))
            .json()
    };
    let base = render(1);
    for threads in THREADS {
        assert_eq!(base, render(threads), "threads={threads}");
    }
}

/// Admission shedding emits `RequestShed` and never perturbs the machine:
/// a shed-heavy run still matches across executors, and the rollup's
/// counters reconcile with the driver's dispositions.
#[test]
fn shedding_reconciles_with_the_rollup() {
    let ids = service::build();
    let mut rt = Runtime::new(
        ids.program.clone(),
        4,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    rt.enable_trace();
    rt.attach_observer(Box::new(Rollup::new()));
    let inst = service::setup(&mut rt, &ids, 8);
    let params = ServeParams {
        horizon: 20_000,
        dist: ArrivalDist::Poisson { mean_gap: 25.0 },
        clients: 4,
        seed: 9,
        deadline: 0,
        max_queue: 3,
    };
    let out = service::run_service(&mut rt, &inst, &params).unwrap();
    let shed = out
        .records
        .iter()
        .filter(|r| r.disposition == Disposition::ShedQueue)
        .count() as u64;
    let completed = out
        .records
        .iter()
        .filter(|r| matches!(r.disposition, Disposition::Completed(_)))
        .count() as u64;
    assert!(shed > 0, "overload must shed");
    let any: Box<dyn std::any::Any> = rt.take_observer().unwrap();
    let rollup = any.downcast::<Rollup>().unwrap();
    assert_eq!(rollup.requests_shed, shed);
    assert_eq!(rollup.requests_completed, completed);
    assert_eq!(
        rollup.requests_arrived,
        out.records.len() as u64 - shed,
        "arrived counts only admitted requests"
    );
    assert_eq!(
        rollup.requests_in_flight() as u64,
        rollup.requests_arrived - completed
    );
}
