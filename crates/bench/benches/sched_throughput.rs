//! Scheduler throughput: events dispatched per second of host time, event
//! index vs the linear-scan reference loop, as the machine grows.
//!
//! The dispatch loop selects the next actionable `(time, kind, node)`
//! event; the reference loop (`Runtime::arm_reference_loop`) re-scans
//! every node per event, O(P), where the event index pays O(log P). Both
//! run the same kernels bit-identically (the determinism
//! tests prove it), so the throughput ratio isolates pure scheduler
//! overhead. Expect parity at P = 1 and a widening gap from P = 64 up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hem_analysis::InterfaceSet;
use hem_apps::{em3d, sor};
use hem_core::{ExecMode, Runtime, SchedImpl};
use hem_machine::cost::CostModel;
use hem_machine::topology::ProcGrid;

const PROCS: [u32; 4] = [1, 16, 64, 256];
/// What a bench row does to a fresh runtime before the kernel runs.
type Arm = fn(&mut Runtime);
/// The two loops under comparison.
const LOOPS: [(&str, Arm); 2] = [
    ("event-index", |_| {}),
    ("linear-scan", Runtime::arm_reference_loop),
];

/// One SOR run (64x64 grid, 4x4 blocks = 256 block objects) on `p` nodes.
fn run_sor_armed<A: Fn(&mut Runtime)>(p: u32, arm: A) -> Runtime {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    arm(&mut rt);
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    rt
}

fn run_sor(p: u32, sched: SchedImpl) -> Runtime {
    run_sor_armed(p, |rt| rt.sched_impl = sched)
}

/// One EM3D run (graph scaled with the machine: 4 nodes' worth of E/H
/// objects per processor) on `p` nodes.
fn run_em3d(p: u32, arm: Arm) -> Runtime {
    let ids = em3d::build(4);
    let graph = em3d::generate(4 * p, 4, p, 0.5, 7);
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    arm(&mut rt);
    let inst = em3d::setup(&mut rt, &ids, &graph);
    em3d::run(&mut rt, &inst, em3d::Style::Pull, 1).unwrap();
    rt
}

fn bench_kernel(c: &mut Criterion, name: &str, run: fn(u32, Arm) -> Runtime) {
    let mut g = c.benchmark_group(format!("sched_throughput/{name}"));
    g.sample_size(10);
    for p in PROCS {
        for (label, arm) in LOOPS {
            // The event count is a property of the (deterministic) run, not
            // of the scheduler implementation; report events/sec.
            let events = run(p, arm).stats().sched.events_dispatched;
            g.throughput(Throughput::Elements(events));
            g.bench_with_input(BenchmarkId::new(label, format!("P{p}")), &p, |b, &p| {
                b.iter(|| run(p, arm).makespan())
            });
        }
    }
    g.finish();
}

fn bench_sor_sched(c: &mut Criterion) {
    bench_kernel(c, "sor64", run_sor_armed::<Arm>);
}

fn bench_em3d_sched(c: &mut Criterion) {
    bench_kernel(c, "em3d_4xP", run_em3d);
}

/// One SOR run with the reliable transport armed on a fault-free wire:
/// every remote message gains a sequence-number word, an ack frame, and a
/// retransmit timer that is always cancelled in time.
fn run_sor_reliable(p: u32, sched: SchedImpl) -> Runtime {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    rt.enable_reliable_transport();
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    rt
}

/// Ack-protocol overhead: the same SOR run with the transport off (raw
/// frames) vs on (data/ack envelope, zero faults). The on/off host-time
/// ratio is the protocol's dispatch cost; the makespan delta (printed by
/// the experiment script, see EXPERIMENTS.md) is its simulated cost. The
/// budget is ≤2% at P = 256.
fn bench_ack_protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("ack_protocol/sor64");
    g.sample_size(10);
    for p in PROCS {
        for (label, run) in [
            ("raw", run_sor as fn(u32, SchedImpl) -> Runtime),
            ("reliable", run_sor_reliable),
        ] {
            let events = run(p, SchedImpl::EventIndex)
                .stats()
                .sched
                .events_dispatched;
            g.throughput(Throughput::Elements(events));
            g.bench_with_input(BenchmarkId::new(label, format!("P{p}")), &p, |b, &p| {
                b.iter(|| run(p, SchedImpl::EventIndex).makespan())
            });
        }
    }
    g.finish();
}

/// One SOR run with tracing on and the sanitizer optionally armed,
/// returning the full trace and makespan.
fn run_sor_traced(p: u32, sanitize: bool) -> (Vec<hem_core::trace::TraceRecord>, u64) {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.enable_trace();
    if sanitize {
        rt.enable_sanitizer();
    }
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    assert!(
        rt.sanitizer_violations().is_empty(),
        "sanitizer violations on a correct run: {:?}",
        rt.sanitizer_violations()
    );
    let mk = rt.makespan();
    (rt.take_trace(), mk)
}

/// One plain SOR run with the sanitizer armed (no tracing), for the
/// host-time overhead comparison.
fn run_sor_sanitized(p: u32, sched: SchedImpl) -> Runtime {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    rt.enable_sanitizer();
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    rt
}

/// Sanitizer cost: the online invariant sanitizer must be *semantically*
/// free — at P = 256 the trace and makespan are bit-identical with the
/// sanitizer on or off (its hooks never charge virtual time or emit
/// events; this guard runs before the benchmark and fails it loudly) —
/// and its host-time overhead is what the off/on ratio reports.
fn bench_sanitizer(c: &mut Criterion) {
    let (trace_off, mk_off) = run_sor_traced(256, false);
    let (trace_on, mk_on) = run_sor_traced(256, true);
    assert_eq!(
        mk_off, mk_on,
        "sanitizer changed the makespan at P=256 ({mk_off} vs {mk_on})"
    );
    assert_eq!(
        trace_off.len(),
        trace_on.len(),
        "sanitizer changed the trace length at P=256"
    );
    assert!(
        trace_off == trace_on,
        "sanitizer changed the trace contents at P=256"
    );

    let mut g = c.benchmark_group("sanitizer/sor64");
    g.sample_size(10);
    for p in PROCS {
        for (label, run) in [
            ("off", run_sor as fn(u32, SchedImpl) -> Runtime),
            ("on", run_sor_sanitized),
        ] {
            let events = run(p, SchedImpl::EventIndex)
                .stats()
                .sched
                .events_dispatched;
            g.throughput(Throughput::Elements(events));
            g.bench_with_input(BenchmarkId::new(label, format!("P{p}")), &p, |b, &p| {
                b.iter(|| run(p, SchedImpl::EventIndex).makespan())
            });
        }
    }
    g.finish();
}

/// One SOR run with tracing on and a [`hem_obs::Rollup`] observer
/// optionally attached, returning the full trace and makespan.
fn run_sor_observed(p: u32, observe: bool) -> (Vec<hem_core::trace::TraceRecord>, u64) {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.enable_trace();
    if observe {
        rt.attach_observer(Box::new(hem_obs::Rollup::new()));
    }
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    let mk = rt.makespan();
    (rt.take_trace(), mk)
}

/// One plain SOR run (no trace buffer) with the rollup observer attached,
/// for the host-time overhead comparison — the observation-on
/// configuration `hemprof`-style profiling of machine-sized runs uses.
fn run_sor_rollup(p: u32, sched: SchedImpl) -> Runtime {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    rt.attach_observer(Box::new(hem_obs::Rollup::new()));
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    rt
}

/// Observer cost: attaching the metrics rollup must be *semantically*
/// free — at P = 256 the trace and makespan are bit-identical with
/// observation on or off (the hook sees each record as it is generated
/// but can never charge virtual time or alter the stream; this guard runs
/// before the benchmark and fails it loudly) — and its host-time overhead
/// is what the off/on ratio reports. The hook itself (a no-op observer)
/// costs ≤1%; the full rollup lands around 8–10% at P = 256 — see the
/// "Observer overhead" section of EXPERIMENTS.md for the decomposition
/// and the `obs_timing` probe in `crates/bench/tests/` for a quick
/// interleaved re-measurement.
fn bench_observer(c: &mut Criterion) {
    let (trace_off, mk_off) = run_sor_observed(256, false);
    let (trace_on, mk_on) = run_sor_observed(256, true);
    assert_eq!(
        mk_off, mk_on,
        "observer changed the makespan at P=256 ({mk_off} vs {mk_on})"
    );
    assert!(
        trace_off == trace_on,
        "observer changed the trace contents at P=256"
    );

    let mut g = c.benchmark_group("observer/sor64");
    g.sample_size(10);
    for p in PROCS {
        for (label, run) in [
            ("off", run_sor as fn(u32, SchedImpl) -> Runtime),
            ("on", run_sor_rollup),
        ] {
            let events = run(p, SchedImpl::EventIndex)
                .stats()
                .sched
                .events_dispatched;
            g.throughput(Throughput::Elements(events));
            g.bench_with_input(BenchmarkId::new(label, format!("P{p}")), &p, |b, &p| {
                b.iter(|| run(p, SchedImpl::EventIndex).makespan())
            });
        }
    }
    g.finish();
}

/// One SOR run with tracing on under an arbitrary scheduler, returning
/// the full trace and makespan.
fn run_sor_traced_sched(p: u32, sched: SchedImpl) -> (Vec<hem_core::trace::TraceRecord>, u64) {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    rt.enable_trace();
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    let mk = rt.makespan();
    (rt.take_trace(), mk)
}

/// Host-parallel speedup: the sharded executor must be *semantically*
/// free — at P = 256 the trace and makespan are bit-identical at every
/// thread count (this guard runs before the benchmark and fails it
/// loudly) — and its host wall-clock win is what the threads-1/threads-N
/// ratio reports. `threads1` falls back to the plain event index, so it
/// doubles as the baseline. EXPERIMENTS.md records the P = 256 table;
/// the budget there is ≥1.3× with 4 threads.
fn bench_sharded(c: &mut Criterion) {
    let (trace_one, mk_one) = run_sor_traced_sched(256, SchedImpl::EventIndex);
    for threads in [2usize, 4] {
        let (trace_n, mk_n) = run_sor_traced_sched(256, SchedImpl::Sharded { threads });
        assert_eq!(
            mk_one, mk_n,
            "sharded ({threads} threads) changed the makespan at P=256"
        );
        assert!(
            trace_one == trace_n,
            "sharded ({threads} threads) changed the trace contents at P=256"
        );
    }

    let mut g = c.benchmark_group("sharded/sor64");
    g.sample_size(10);
    for p in [64u32, 256] {
        for threads in [1usize, 2, 4] {
            let sched = SchedImpl::Sharded { threads };
            let events = run_sor(p, sched).stats().sched.events_dispatched;
            g.throughput(Throughput::Elements(events));
            g.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), format!("P{p}")),
                &(p, sched),
                |b, &(p, sched)| b.iter(|| run_sor(p, sched).makespan()),
            );
        }
    }
    g.finish();
}

/// One SOR run under an arbitrary scheduler *and* cost model — the
/// zero-lookahead comparison needs [`CostModel::unit`].
fn run_sor_cost(p: u32, sched: SchedImpl, cost: CostModel) -> Runtime {
    let ids = sor::build();
    let mut rt = hem_apps::make_runtime(
        ids.program.clone(),
        p,
        cost,
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    rt.sched_impl = sched;
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 64,
            block: 4,
            procs: ProcGrid::square(p),
        },
    );
    sor::run(&mut rt, &inst, 1).unwrap();
    rt
}

/// Optimistic (Time-Warp) executor: like [`bench_sharded`], the
/// speculative executor must be *semantically* free — at P = 256 the
/// trace and makespan are bit-identical to the event index at every
/// thread count (guarded loudly before the benchmark) — and its host
/// wall-clock ratio against `threads1` (the event-index fallback) is the
/// payoff net of checkpointing and rollbacks. The second group runs the
/// zero-lookahead regime ([`CostModel::unit`]): there the conservative
/// window executor degenerates to one event per window while the
/// optimistic one still forms multi-event windows, which is the regime
/// speculation exists for (see DESIGN.md §5.17 and EXPERIMENTS.md).
fn bench_speculative(c: &mut Criterion) {
    let (trace_one, mk_one) = run_sor_traced_sched(256, SchedImpl::EventIndex);
    for threads in [2usize, 4] {
        let (trace_n, mk_n) = run_sor_traced_sched(256, SchedImpl::Speculative { threads });
        assert_eq!(
            mk_one, mk_n,
            "speculative ({threads} threads) changed the makespan at P=256"
        );
        assert!(
            trace_one == trace_n,
            "speculative ({threads} threads) changed the trace contents at P=256"
        );
    }

    let mut g = c.benchmark_group("speculative/sor64");
    g.sample_size(10);
    for p in [64u32, 256] {
        for threads in [1usize, 2, 4] {
            let sched = SchedImpl::Speculative { threads };
            let events = run_sor(p, sched).stats().sched.events_dispatched;
            g.throughput(Throughput::Elements(events));
            g.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), format!("P{p}")),
                &(p, sched),
                |b, &(p, sched)| b.iter(|| run_sor(p, sched).makespan()),
            );
        }
    }
    g.finish();

    // Zero lookahead: conservative windows hold one event each, so the
    // sharded executor serializes (plus barrier overhead); the optimistic
    // executor is the only parallel option. Same run, bit-identical
    // results — the interesting number is the host-time ordering.
    let mut g = c.benchmark_group("speculative_zero_lookahead/sor64");
    g.sample_size(10);
    let p = 64u32;
    for (label, sched) in [
        ("event-index", SchedImpl::EventIndex),
        ("sharded4", SchedImpl::Sharded { threads: 4 }),
        ("speculative4", SchedImpl::Speculative { threads: 4 }),
    ] {
        let events = run_sor_cost(p, sched, CostModel::unit())
            .stats()
            .sched
            .events_dispatched;
        g.throughput(Throughput::Elements(events));
        g.bench_with_input(
            BenchmarkId::new(label, format!("P{p}")),
            &sched,
            |b, &sched| b.iter(|| run_sor_cost(p, sched, CostModel::unit()).makespan()),
        );
    }
    g.finish();
}

/// Persistent-pool serve mode: the open-system driver calls `run_until`
/// once per arrival chunk, so this is the workload the persistent pool
/// exists for. Guards (loud, before the benchmark), under both threaded
/// executors — they share the one pool: the steady state moves zero
/// worker `Runtime`s, performs zero coordinator rendezvous, reuses one
/// pool across all chunks, and the request dispositions are bit-identical
/// to the single-threaded run. The benchmark then reports host time per
/// offered request across thread counts — on a single-CPU container
/// expect overhead, not speedup (EXPERIMENTS.md records the honest
/// numbers).
fn bench_pool_chunks(c: &mut Criterion) {
    let serve_cfg = |threads: usize, speculative: bool| {
        let mut cfg = hem_bench::serve::ServeConfig::new();
        cfg.p = 16;
        cfg.backends = 16;
        cfg.horizon = 40_000;
        cfg.warmup = 4_000;
        cfg.threads = threads;
        cfg.speculative = speculative;
        cfg
    };
    let outcome = |threads: usize, speculative: bool| {
        let (rt, out) = serve_cfg(threads, speculative).run().expect("service run");
        (rt.stats(), out.records.len(), rt.makespan())
    };
    let (_, base_reqs, base_mk) = outcome(1, false);
    for (threads, speculative) in [(2usize, false), (4, false), (2, true), (4, true)] {
        let what = format!("serve({threads}, speculative={speculative})");
        let (st, reqs, mk) = outcome(threads, speculative);
        assert_eq!(base_reqs, reqs, "{what} changed the offered load");
        assert_eq!(base_mk, mk, "{what} changed the makespan");
        assert!(st.sched.windows > 0, "{what} never windowed");
        assert_eq!(st.sched.runtime_moves, 0, "{what} moved a worker Runtime");
        assert_eq!(
            st.sched.coord_roundtrips, 0,
            "{what} paid a coordinator rendezvous"
        );
        assert!(
            st.sched.pool_reuses > 0,
            "{what} rebuilt the pool between run_until chunks"
        );
    }

    let mut g = c.benchmark_group("sharded_pool/serve");
    g.sample_size(10);
    g.throughput(Throughput::Elements(base_reqs as u64));
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new(format!("threads{threads}"), "P16"),
            &threads,
            |b, &threads| b.iter(|| outcome(threads, false).1),
        );
    }
    g.finish();
}

criterion_group!(
    sched,
    bench_sor_sched,
    bench_em3d_sched,
    bench_sharded,
    bench_pool_chunks,
    bench_speculative,
    bench_ack_protocol,
    bench_sanitizer,
    bench_observer
);
criterion_main!(sched);
