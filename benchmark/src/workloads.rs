//! The eight workloads: one configuration per workload, from which both
//! the child's `hemprof` arguments and the in-process staged pipeline are
//! derived, so the two cannot drift apart.

use std::path::Path;

use hem_apps::em3d::Style;
use hem_bench::profile::{Kernel, ProfileConfig};
use hem_bench::serve::ServeConfig;
use hem_machine::arrival::ArrivalDist;
use hem_machine::fault::FaultPlan;
use hem_machine::Cycles;

/// The seed the committed goldens were generated with.
pub const DEFAULT_SEED: u64 = 20260806;

/// Mean inter-arrival gap of the serve workloads, in cycles: a rate the
/// 32-node machine sustains, so the backlog does not grow with the
/// horizon.
const SERVE_RATE: f64 = 200.0;

/// What `hemprof` runs for a workload.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A closed kernel run to quiescence (`hemprof <kernel>`).
    Kernel(ProfileConfig),
    /// The open-system service mix with the blame tracker and the series
    /// collector attached (`hemprof blame --series`).
    Serve(ServeConfig),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    pub plan: Plan,
    /// `--perfetto FILE --critical-path`: the post-run export layers run.
    pub export: bool,
    /// The workload that runs this one's input on the serial executor
    /// (threaded workloads): outside `sched`/`speculative` the two must
    /// print the same report.
    pub serial: Option<&'static str>,
    /// The benchmark seed changes this workload's input. SOR and fib
    /// inputs are seed-independent by construction, so their goldens
    /// hold under every seed.
    pub seeded: bool,
}

struct Sizes {
    fib: u32,
    sor: (u32, u32),
    em3d: u32,
    md: u32,
    serve_until: Cycles,
    faulty_until: Cycles,
    warmup: Cycles,
}

/// Full sizes keep one `hemprof` invocation under about a second on a
/// 2-core host, which is what lets a 10 s run hold ten repetitions of
/// the slowest workload. Quick sizes are roughly an eighth of the work,
/// for a smoke run.
fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            fib: 25,
            sor: (64, 2),
            em3d: 2_500,
            md: 1_500,
            serve_until: 625_000,
            faulty_until: 312_500,
            warmup: 62_500,
        }
    } else {
        Sizes {
            fib: 30,
            sor: (128, 4),
            em3d: 20_000,
            md: 5_000,
            serve_until: 5_000_000,
            faulty_until: 2_500_000,
            warmup: 500_000,
        }
    }
}

/// All eight workloads for a seed, in reporting order.
pub fn all(seed: u64, quick: bool) -> Vec<Workload> {
    let sz = sizes(quick);

    let mut fib = ProfileConfig::new(Kernel::Fib);
    fib.p = 1;
    fib.size = sz.fib;

    let mut sor = ProfileConfig::new(Kernel::Sor);
    sor.p = 64;
    (sor.size, sor.iters) = sz.sor;
    let mut sor_sharded = sor.clone();
    sor_sharded.threads = 2;
    let mut sor_spec = sor_sharded.clone();
    sor_spec.speculative = true;

    let mut em3d = ProfileConfig::new(Kernel::Em3d);
    em3d.p = 64;
    em3d.size = sz.em3d;
    em3d.iters = 2;
    em3d.high_locality = false;
    em3d.style = Style::Pull;
    em3d.seed = seed;

    let mut md = ProfileConfig::new(Kernel::Md);
    md.p = 64;
    md.size = sz.md;
    md.high_locality = false;
    md.seed = seed;

    let mut serve = ServeConfig::new();
    serve.p = 32;
    serve.backends = 32;
    serve.clients = 4;
    serve.dist = ArrivalDist::Poisson {
        mean_gap: SERVE_RATE,
    };
    serve.horizon = sz.serve_until;
    serve.warmup = sz.warmup;
    serve.seed = seed;

    let mut faulty = serve.clone();
    faulty.horizon = sz.faulty_until;
    let mut plan = FaultPlan::seeded(seed);
    plan.drop_permille = 20;
    plan.dup_permille = 5;
    plan.jitter_max = 50;
    faulty.fault = Some(plan);

    let kernel = |name, why, cfg: ProfileConfig, export, seeded| Workload {
        name,
        why,
        // SOR is the only kernel this table also runs threaded.
        serial: (cfg.threads > 1).then_some("sor_p64"),
        plan: Plan::Kernel(cfg),
        export,
        seeded,
    };
    let service = |name, why, cfg| Workload {
        name,
        why,
        plan: Plan::Serve(cfg),
        serial: None,
        export: false,
        seeded: true,
    };
    vec![
        kernel(
            "fib_p1",
            "Table-3 style: stack interpreter and NB schema only, zero messages; network, executor and observer work must show no change here",
            fib,
            false,
            false,
        ),
        kernel(
            "sor_p64",
            "Table-4 style regular nearest-neighbour traffic on the serial event index; baseline row for the two threaded SOR workloads",
            sor,
            false,
            false,
        ),
        kernel(
            "sor_p64_sharded2",
            "sor_p64's input on the conservative sharded executor, 2 threads: the marginal time is window edges, trace merge and pool hand-off",
            sor_sharded,
            false,
            false,
        ),
        kernel(
            "sor_p64_spec2",
            "sor_p64's input on the Time-Warp executor, 2 threads: checkpoint, rollback and the second worker transport",
            sor_spec,
            false,
            false,
        ),
        kernel(
            "em3d_p64",
            "Table-6 style irregular, mostly-remote graph: input generation and object-graph setup are a double-digit share",
            em3d,
            false,
            true,
        ),
        kernel(
            "md_p64_export",
            "Table-5 input with --perfetto --critical-path: trace, timeline, critical path and Perfetto JSON do most of the work",
            md,
            true,
            true,
        ),
        service(
            "serve_p32",
            "Open-system path (run_until chunks, request injection) with rollup, blame and series teed through Fanout, at a sustainable rate",
            serve,
        ),
        service(
            "serve_p32_faulty",
            "serve_p32 under drop/dup/jitter: fault decisions, seq/ack reliable transport, retransmit timers, duplicate suppression",
            faulty,
        ),
    ]
}

/// Width of the series windows `hemprof --series` picks by default.
pub fn series_window(cfg: &ServeConfig) -> Cycles {
    (cfg.horizon / 50).max(1)
}

impl Workload {
    /// The `hemprof` arguments of this workload. `perfetto` is where an
    /// exporting workload writes its timeline.
    pub fn argv(&self, perfetto: &Path) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        let mut push =
            |parts: &[&dyn ToString]| args.extend(parts.iter().map(|part| part.to_string()));
        let (threads, speculative) = match &self.plan {
            Plan::Kernel(cfg) => {
                push(&[&cfg.kernel.name(), &"--p", &cfg.p]);
                push(&[&"--size", &cfg.size, &"--iters", &cfg.iters]);
                if self.seeded {
                    let layout = match (cfg.kernel, cfg.high_locality) {
                        (Kernel::Md, true) => "spatial",
                        (Kernel::Md, false) => "random",
                        (_, true) => "high",
                        (_, false) => "low",
                    };
                    push(&[&"--layout", &layout, &"--style", &cfg.style]);
                    push(&[&"--seed", &cfg.seed]);
                }
                (cfg.threads, cfg.speculative)
            }
            Plan::Serve(cfg) => {
                push(&[&"blame", &"--series", &"--p", &cfg.p]);
                push(&[&"--backends", &cfg.backends, &"--clients", &cfg.clients]);
                push(&[&"--arrival", &"poisson", &"--rate", &SERVE_RATE]);
                push(&[&"--until", &cfg.horizon, &"--warmup", &cfg.warmup]);
                push(&[&"--seed", &cfg.seed]);
                if let Some(plan) = &cfg.fault {
                    push(&[&"--drop", &plan.drop_permille, &"--dup", &plan.dup_permille]);
                    push(&[&"--jitter", &plan.jitter_max, &"--fault-seed", &plan.seed]);
                }
                (cfg.threads, cfg.speculative)
            }
        };
        if threads > 1 {
            push(&[&"--threads", &threads]);
        }
        if speculative {
            push(&[&"--speculative"]);
        }
        push(&[&"--report", &"json"]);
        if self.export {
            push(&[&"--perfetto", &perfetto.display(), &"--critical-path"]);
        }
        args
    }

    /// The same input on the serial event index, for a threaded kernel
    /// workload: the baseline `sched.exec_overhead_s` is measured against.
    pub fn serial_baseline(&self) -> Option<ProfileConfig> {
        match &self.plan {
            Plan::Kernel(cfg) if cfg.threads > 1 => {
                let mut base = cfg.clone();
                base.threads = 1;
                base.speculative = false;
                Some(base)
            }
            _ => None,
        }
    }

    /// Does the committed golden describe this workload under `seed`?
    pub fn golden_applies(&self, seed: u64) -> bool {
        !self.seeded || seed == DEFAULT_SEED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(name: &str, seed: u64) -> String {
        let w = all(seed, false)
            .into_iter()
            .find(|w| w.name == name)
            .expect("workload");
        w.argv(Path::new("OUT")).join(" ")
    }

    #[test]
    fn argv_spells_the_documented_invocations() {
        assert_eq!(
            argv("fib_p1", 7),
            "fib --p 1 --size 30 --iters 1 --report json"
        );
        assert_eq!(
            argv("sor_p64_spec2", 7),
            "sor --p 64 --size 128 --iters 4 --threads 2 --speculative --report json"
        );
        assert_eq!(
            argv("em3d_p64", 7),
            "em3d --p 64 --size 20000 --iters 2 --layout low --style pull --seed 7 --report json"
        );
        assert_eq!(
            argv("md_p64_export", 7),
            "md --p 64 --size 5000 --iters 1 --layout random --style pull --seed 7 --report json \
             --perfetto OUT --critical-path"
        );
        assert_eq!(
            argv("serve_p32_faulty", 7),
            "blame --series --p 32 --backends 32 --clients 4 --arrival poisson --rate 200 \
             --until 2500000 --warmup 500000 --seed 7 --drop 20 --dup 5 --jitter 50 \
             --fault-seed 7 --report json"
        );
    }

    #[test]
    fn names_are_the_normative_eight() {
        let names: Vec<_> = all(DEFAULT_SEED, true).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "fib_p1",
                "sor_p64",
                "sor_p64_sharded2",
                "sor_p64_spec2",
                "em3d_p64",
                "md_p64_export",
                "serve_p32",
                "serve_p32_faulty"
            ]
        );
    }

    #[test]
    fn only_generated_inputs_depend_on_the_seed() {
        for w in all(1, false) {
            let fixed = matches!(
                w.name,
                "fib_p1" | "sor_p64" | "sor_p64_sharded2" | "sor_p64_spec2"
            );
            assert_eq!(w.golden_applies(1), fixed, "{}", w.name);
            assert!(w.golden_applies(DEFAULT_SEED));
        }
    }
}
