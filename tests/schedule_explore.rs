//! Schedule-exploration conformance harness.
//!
//! The dispatch loop's default tie-break rule picks one schedule out of
//! the many legal ones: every candidate tied at the minimum virtual time
//! is causally enabled, so any of them may legally run first. This
//! harness checks the paper's semantic-transparency claim *across* that
//! schedule space:
//!
//! * **Bounded-exhaustive** (micro kernels + tiny app instances): every
//!   reachable tie-break decision vector is enumerated with
//!   [`Explorer`]; each schedule must end sanitizer-clean with final
//!   object state equivalent to the deterministic ParallelOnly
//!   reference.
//! * **Seeded sampling** (all four app kernels at conformance sizes):
//!   ≥200 seeded random schedules per kernel, same assertions.
//! * **Replay**: a failing schedule is reported as its tie-break choice
//!   vector; `TieBreak::Replay` reproduces it bit-identically.
//!
//! The harness's teeth are proved by the seeded mutants in
//! `hem_core::explore::Mutant` (compiled under `--features mutants`):
//! `HEM_MUTANT=<name> cargo test --release --features mutants --test
//! schedule_explore` must fail for every mutant name — the CI
//! conformance job enforces exactly that.

mod common;

use common::*;
use hem::analysis::InterfaceSet;
use hem::apps::{md, sor};
use hem::core::explore::Explorer;
use hem::core::{ExecMode, Runtime, SchedImpl, TieBreak};
use hem::ir::Value;
use hem::machine::cost::CostModel;
use hem::machine::topology::ProcGrid;

/// Tiny app instances for the exhaustive pass (their full tie trees are
/// a few hundred schedules).
fn run_tiny(kernel: &str, mode: ExecMode, tie: TieBreak) -> Outcome {
    let rt = match kernel {
        "sor4" => {
            let ids = sor::build();
            let mut rt = Runtime::new(
                ids.program.clone(),
                4,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            rt.enable_sanitizer();
            rt.set_tie_break(tie);
            let inst = sor::setup(
                &mut rt,
                &ids,
                sor::SorParams {
                    n: 4,
                    block: 2,
                    procs: ProcGrid::square(4),
                },
            );
            sor::run(&mut rt, &inst, 1).unwrap();
            rt
        }
        "md4" => {
            let ids = md::build();
            let sys = md::generate(16, 1.2, 4, md::Layout::Spatial, 5);
            let mut rt = Runtime::new(
                ids.program.clone(),
                4,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            rt.enable_sanitizer();
            rt.set_tie_break(tie);
            let inst = md::setup(&mut rt, &ids, &sys);
            md::run_iteration(&mut rt, &inst).unwrap();
            rt
        }
        other => panic!("unknown tiny kernel {other}"),
    };
    let mut rt = rt;
    rt.sanitizer_check_quiescent();
    Outcome {
        result: None,
        objects: rt.object_state(),
        tie_choices: rt.tie_choices(),
        tie_log: rt.tie_log().to_vec(),
        violations: rt.take_sanitizer_violations(),
        makespan: rt.makespan(),
        stats: rt.stats(),
    }
}

/// Every protocol micro kernel, both modes, full tie tree: schedules are
/// tie-free or tiny, so the DFS trivially completes — their value is the
/// per-invariant sanitizer coverage (wake masks, shells at nonzero
/// offsets, join delivery, the §4.1 guard) on every explored schedule.
#[test]
fn micro_kernels_conform_on_every_schedule() {
    for m in micro_kernels() {
        let reference = run_micro(&m, ExecMode::ParallelOnly, TieBreak::Det);
        assert_clean(&format!("{}/reference", m.name), &reference);
        for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
            let label = format!("{}/{}", m.name, mode);
            let mut ex = Explorer::new(500);
            while let Some(plan) = ex.next_plan() {
                let o = run_micro(&m, mode, TieBreak::Replay(plan));
                assert_clean(&label, &o);
                assert!(
                    match (&o.result, &reference.result) {
                        (Some(a), Some(b)) => value_close(a, b),
                        (a, b) => a == b,
                    },
                    "{label}: result {:?} != reference {:?}\n{}",
                    o.result,
                    reference.result,
                    replay_help(&label, &o.tie_choices)
                );
                assert_state_close(
                    &format!("{label} [{}]", replay_help(&label, &o.tie_choices)),
                    &o.objects,
                    &reference.objects,
                );
                ex.record(&o.tie_log);
            }
            assert!(
                ex.complete(),
                "{label}: tie tree not exhausted in {} schedules",
                ex.schedules_run()
            );
        }
    }
}

/// Tiny app instances, both modes, full tie tree (a few to a few hundred
/// schedules each — measured: sor4 ≈ 11/4, md4 ≈ 216/8 Hybrid/Par): all
/// schedules sanitizer-clean and equivalent to the ParallelOnly
/// reference.
#[test]
fn tiny_apps_exhaustive_tie_breaks() {
    for kernel in ["sor4", "md4"] {
        let reference = run_tiny(kernel, ExecMode::ParallelOnly, TieBreak::Det);
        assert_clean(&format!("{kernel}/reference"), &reference);
        for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
            let label = format!("{kernel}/{mode}");
            let mut ex = Explorer::new(2000);
            while let Some(plan) = ex.next_plan() {
                let o = run_tiny(kernel, mode, TieBreak::Replay(plan));
                assert_clean(&label, &o);
                assert_state_close(
                    &format!("{label} [{}]", replay_help(&label, &o.tie_choices)),
                    &o.objects,
                    &reference.objects,
                );
                ex.record(&o.tie_log);
            }
            assert!(
                ex.complete(),
                "{label}: tie tree not exhausted in {} schedules",
                ex.schedules_run()
            );
            assert!(ex.schedules_run() >= 1);
        }
    }
}

/// ≥200 seeded random schedules per app kernel (conformance sizes): every
/// sampled Hybrid schedule ends sanitizer-clean with object state
/// equivalent to the deterministic ParallelOnly reference.
#[test]
fn sampled_schedules_per_app_kernel() {
    // Fold the pinned seeds into one sampling stream so the CI matrix
    // (one HYBRID_TEST_SEED per job) samples disjoint schedule sets.
    let mut base = 0xC0FF_EE00_D15E_A5E5u64;
    for s in seeds() {
        base ^= s;
        splitmix64(&mut base);
    }
    const SAMPLES: usize = 200;
    for kernel in APP_KERNELS {
        let reference = run_app(
            kernel,
            ExecMode::ParallelOnly,
            InterfaceSet::Full,
            TieBreak::Det,
        );
        assert_clean(&format!("{kernel}/reference"), &reference);
        let mut tie_points = 0usize;
        for i in 0..SAMPLES {
            let seed = splitmix64(&mut base) ^ i as u64;
            let o = run_app(
                kernel,
                ExecMode::Hybrid,
                InterfaceSet::Full,
                TieBreak::Seeded(seed),
            );
            let label = format!("{kernel}/seeded({seed})");
            assert_clean(&label, &o);
            assert_state_close(
                &format!("{label} [{}]", replay_help(&label, &o.tie_choices)),
                &o.objects,
                &reference.objects,
            );
            tie_points += o.tie_choices.len();
        }
        // The sampler must actually be exploring: across 200 schedules of
        // a kernel with any parallelism there are tie decisions (sync at
        // this size is the near-tieless corner, so allow zero only there).
        if kernel != "sync" {
            assert!(
                tie_points > 0,
                "{kernel}: 200 sampled schedules hit no tie points — sampler inert"
            );
        }
    }
}

/// A recorded tie-break vector replays bit-identically, and the empty
/// vector reproduces the deterministic schedule.
#[test]
fn replay_reproduces_a_sampled_schedule() {
    let det = run_app("sor", ExecMode::Hybrid, InterfaceSet::Full, TieBreak::Det);
    let empty = run_app(
        "sor",
        ExecMode::Hybrid,
        InterfaceSet::Full,
        TieBreak::Replay(Vec::new()),
    );
    assert_eq!(det.makespan, empty.makespan, "empty replay != Det schedule");
    assert_eq!(det.objects, empty.objects, "empty replay != Det state");

    let sampled = run_app(
        "sor",
        ExecMode::Hybrid,
        InterfaceSet::Full,
        TieBreak::Seeded(0xBADC_0FFE),
    );
    assert_clean("sor/seeded(0xBADC0FFE)", &sampled);
    let replayed = run_app(
        "sor",
        ExecMode::Hybrid,
        InterfaceSet::Full,
        TieBreak::Replay(sampled.tie_choices.clone()),
    );
    assert_eq!(
        sampled.makespan, replayed.makespan,
        "replay diverged from the sampled schedule (makespan)"
    );
    assert_eq!(
        sampled.objects, replayed.objects,
        "replay diverged from the sampled schedule (state)"
    );
    assert_eq!(
        sampled.tie_choices, replayed.tie_choices,
        "replay took different decisions"
    );
}

/// The sharded executor under the deterministic tie-break: every micro
/// kernel and app kernel run with `SchedImpl::Sharded` must be
/// sanitizer-clean, bit-identical to the single-threaded event index
/// (makespan, replay vector), and state-equivalent to the ParallelOnly
/// reference. The shard workers carry their own sanitizer state (merged
/// at the end) and their own copy of any seeded protocol mutant, so
/// every mutant the single-threaded conformance run catches is caught
/// here too — the mutant-kill CI job runs this binary under
/// `--features mutants`.
#[test]
fn sharded_config_conforms() {
    for m in micro_kernels() {
        let base = run_micro_sched(&m, ExecMode::Hybrid, TieBreak::Det, SchedImpl::EventIndex);
        assert_clean(&format!("{}/sharded-base", m.name), &base);
        for threads in [2usize, 4] {
            let label = format!("{}/sharded{threads}", m.name);
            let o = run_micro_sched(
                &m,
                ExecMode::Hybrid,
                TieBreak::Det,
                SchedImpl::Sharded { threads },
            );
            assert_clean(&label, &o);
            assert_eq!(o.result, base.result, "{label}: result");
            assert_eq!(o.makespan, base.makespan, "{label}: makespan");
            assert_state_close(&label, &o.objects, &base.objects);
            // The §4.1 guard must engage under the sharded executor too.
            if m.name == "deep-chain" {
                assert!(
                    o.stats.totals().ctx_alloc > 0,
                    "{label}: deep chain never diverted through a heap context"
                );
            }
        }
    }
    for kernel in APP_KERNELS {
        let reference = run_app(
            kernel,
            ExecMode::ParallelOnly,
            InterfaceSet::Full,
            TieBreak::Det,
        );
        let base = run_app(kernel, ExecMode::Hybrid, InterfaceSet::Full, TieBreak::Det);
        for threads in [2usize, 4] {
            let label = format!("{kernel}/sharded{threads}");
            let o = run_app_sched(
                kernel,
                ExecMode::Hybrid,
                InterfaceSet::Full,
                TieBreak::Det,
                SchedImpl::Sharded { threads },
            );
            assert_clean(&label, &o);
            assert_eq!(o.makespan, base.makespan, "{label}: makespan");
            assert_eq!(o.objects, base.objects, "{label}: object state");
            assert_state_close(&label, &o.objects, &reference.objects);
        }
    }
}

/// Exploration precedence: a non-deterministic tie-break routes to the
/// single-threaded exploring loop *before* the scheduler implementation
/// is consulted, so sampled schedules and recorded replay vectors behave
/// identically whether the runtime is configured `EventIndex` or
/// `Sharded` — a choice vector recorded under one config replays
/// bit-identically under the other.
#[test]
fn replay_is_sched_impl_invariant() {
    let sampled = run_app(
        "sor",
        ExecMode::Hybrid,
        InterfaceSet::Full,
        TieBreak::Seeded(0x5EED_5041_11E1),
    );
    assert_clean("sor/seeded-for-sharded-replay", &sampled);
    for threads in [2usize, 4] {
        let label = format!("sor/replay-under-sharded{threads}");
        let replayed = run_app_sched(
            "sor",
            ExecMode::Hybrid,
            InterfaceSet::Full,
            TieBreak::Replay(sampled.tie_choices.clone()),
            SchedImpl::Sharded { threads },
        );
        assert_eq!(sampled.makespan, replayed.makespan, "{label}: makespan");
        assert_eq!(sampled.objects, replayed.objects, "{label}: state");
        assert_eq!(
            sampled.tie_choices, replayed.tie_choices,
            "{label}: decisions"
        );
    }
}

/// The §4.1 depth guard engages on the deep chain: the run completes by
/// diverting through heap contexts (fallback-free would mean the guard
/// never fired) and stays sanitizer-clean.
#[test]
fn deep_chain_reverts_to_parallel() {
    let m = micro_deep_chain();
    let o = run_micro(&m, ExecMode::Hybrid, TieBreak::Det);
    assert_clean("deep-chain", &o);
    assert_eq!(o.result, Some(Value::Int(64)), "deep chain result");
    let t = o.stats.totals();
    assert!(
        t.ctx_alloc > 0,
        "deep chain never diverted through a heap context"
    );
}

/// The speculative (Time-Warp) executor under the deterministic
/// tie-break: `sharded_config_conforms`, with optimism. Every micro and
/// app kernel run with `SchedImpl::Speculative` must be sanitizer-clean
/// (the online sanitizer state is checkpointed and rolled back with the
/// nodes, so a cancelled window's provisional violations vanish),
/// bit-identical to the single-threaded event index, and
/// state-equivalent to the ParallelOnly reference. The workers carry
/// their own copy of any seeded protocol mutant, so every mutant the
/// single-threaded conformance run catches is caught through the
/// speculative path too.
#[test]
fn speculative_config_conforms() {
    for m in micro_kernels() {
        let base = run_micro_sched(&m, ExecMode::Hybrid, TieBreak::Det, SchedImpl::EventIndex);
        assert_clean(&format!("{}/speculative-base", m.name), &base);
        for threads in [2usize, 4] {
            let label = format!("{}/speculative{threads}", m.name);
            let o = run_micro_sched(
                &m,
                ExecMode::Hybrid,
                TieBreak::Det,
                SchedImpl::Speculative { threads },
            );
            assert_clean(&label, &o);
            assert_eq!(o.result, base.result, "{label}: result");
            assert_eq!(o.makespan, base.makespan, "{label}: makespan");
            assert_state_close(&label, &o.objects, &base.objects);
            if m.name == "deep-chain" {
                assert!(
                    o.stats.totals().ctx_alloc > 0,
                    "{label}: deep chain never diverted through a heap context"
                );
            }
        }
    }
    for kernel in APP_KERNELS {
        let reference = run_app(
            kernel,
            ExecMode::ParallelOnly,
            InterfaceSet::Full,
            TieBreak::Det,
        );
        let base = run_app(kernel, ExecMode::Hybrid, InterfaceSet::Full, TieBreak::Det);
        for threads in [2usize, 4] {
            let label = format!("{kernel}/speculative{threads}");
            let o = run_app_sched(
                kernel,
                ExecMode::Hybrid,
                InterfaceSet::Full,
                TieBreak::Det,
                SchedImpl::Speculative { threads },
            );
            assert_clean(&label, &o);
            assert_eq!(o.makespan, base.makespan, "{label}: makespan");
            assert_eq!(o.objects, base.objects, "{label}: object state");
            assert_state_close(&label, &o.objects, &reference.objects);
        }
    }
}

/// Rollback bookkeeping under fire: a zero-lookahead ring with a seeded
/// fault plan forces the speculative executor through straggler
/// rollbacks (asserted via its diagnostics) while every cancelled
/// window's re-sent packets must re-draw *identical* fault fates — which
/// holds only because rollback restores the per-sender wire sequence
/// counters along with the node snapshots. The sixth seeded mutant
/// (`skip-wire-seq-restore`) keeps the speculatively advanced counters
/// across rollback instead; its re-sends then draw fresh sequence
/// numbers, the fault plan re-rolls their fates, and this test's trace /
/// stats diff catches the divergence.
#[test]
fn speculative_rollbacks_preserve_fault_fates() {
    use hem::ir::{BinOp, ProgramBuilder};
    use hem::machine::fault::FaultPlan;
    use hem::machine::NodeId;

    let build = || {
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
        (pb.finish(), peer, bounce)
    };
    let run = |sched: SchedImpl, seed: u64| {
        let (program, peer, bounce) = build();
        // Unit cost model: zero wire latency, zero lookahead — the
        // regime where speculation (and hence rollback) actually runs.
        let mut rt = Runtime::new(
            program,
            4,
            CostModel::unit(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.sched_impl = sched;
        rt.enable_trace();
        let mut plan = FaultPlan::seeded(seed);
        plan.drop_permille = 20;
        plan.dup_permille = 20;
        plan.jitter_max = 80;
        rt.set_fault_plan(plan);
        let objs: Vec<_> = (0..4)
            .map(|i| rt.alloc_object_by_name("C", NodeId(i)))
            .collect();
        for (i, &o) in objs.iter().enumerate() {
            rt.set_field(o, peer, Value::Obj(objs[(i + 1) % objs.len()]));
        }
        let result = rt.call(objs[0], bounce, &[Value::Int(25)]).expect("runs");
        (
            result,
            rt.makespan(),
            rt.take_trace(),
            rt.stats(),
            rt.spec_stats(),
        )
    };
    for seed in seeds() {
        let (res, mk, trace, stats, _) = run(SchedImpl::EventIndex, seed);
        assert_eq!(res, Some(Value::Int(325)), "seed {seed}: 25+24+...+1");
        let label = format!("faulty-ring/seed{seed}/speculative2");
        let (res2, mk2, trace2, stats2, spec) = run(SchedImpl::Speculative { threads: 2 }, seed);
        assert!(
            spec.rollbacks > 0,
            "{label}: no rollback happened — the test exercises nothing \
             (diagnostics: {spec:?})"
        );
        assert_eq!(res, res2, "{label}: result");
        assert_eq!(mk, mk2, "{label}: makespan");
        assert_same_trace(&label, &trace, &trace2);
        assert_eq!(stats.net, stats2.net, "{label}: net/fault stats");
        assert_eq!(
            stats.per_node, stats2.per_node,
            "{label}: per-node counters"
        );
    }
}
