//! Shared kernel runner for the `hemprof` profiler and the observability
//! integration tests: builds one of the four app kernels at a given
//! machine size / layout / seed, runs it with its trace consumers armed
//! (an observer, a [`TraceBuffer`], or both), and hands back the runtime
//! for analysis. Keeping this in the library (rather than in the
//! `hemprof` binary) means the CLI and the tests profile *the same* runs.

use hem_analysis::InterfaceSet;
use hem_apps::md::Layout;
use hem_apps::{em3d, md, sor};
use hem_core::{ExecMode, Runtime};
use hem_machine::cost::CostModel;

/// Which kernel to profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Red-black successive over-relaxation (Table 4).
    Sor,
    /// MD-Force pair interactions (Table 5).
    Md,
    /// EM3D bipartite graph relaxation (Table 6).
    Em3d,
    /// Call-intensive `fib` (Table 3).
    Fib,
}

impl Kernel {
    /// All four, in paper order.
    pub const ALL: [Kernel; 4] = [Kernel::Fib, Kernel::Sor, Kernel::Md, Kernel::Em3d];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Sor => "sor",
            Kernel::Md => "md",
            Kernel::Em3d => "em3d",
            Kernel::Fib => "fib",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Kernel> {
        match s {
            "sor" => Some(Kernel::Sor),
            "md" => Some(Kernel::Md),
            "em3d" => Some(Kernel::Em3d),
            "fib" => Some(Kernel::Fib),
            _ => None,
        }
    }

    /// Default problem size (SOR grid side / MD atoms / EM3D nodes per
    /// side / fib argument) — small enough to profile quickly, large
    /// enough that every node does work at the default machine size.
    pub fn default_size(self) -> u32 {
        match self {
            Kernel::Sor => 16,
            Kernel::Md => 96,
            Kernel::Em3d => 48,
            Kernel::Fib => 14,
        }
    }
}

/// Where a run keeps its raw [`hem_core::TraceRecord`]s — one more
/// consumer of the record stream, beside whatever observer is attached.
/// Observers never read it: they are fed every record whichever way this
/// is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceBuffer {
    /// Every record, for `Runtime::take_trace` after the run. Memory
    /// grows with the run: 48 bytes a record.
    #[default]
    Unbounded,
    /// The most recent `n` records; evictions are counted in
    /// `MachineStats.sched.dropped_events`.
    Ring(usize),
    /// Nowhere: records exist only while the observer looks at them, and
    /// `take_trace` returns nothing.
    Off,
}

impl TraceBuffer {
    /// Arm the runtime's trace buffer accordingly.
    pub fn arm(self, rt: &mut Runtime) {
        match self {
            TraceBuffer::Unbounded => rt.enable_trace(),
            TraceBuffer::Ring(cap) => rt.enable_trace_ring(cap),
            TraceBuffer::Off => {}
        }
    }
}

/// A profiling run's configuration.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// The kernel.
    pub kernel: Kernel,
    /// Machine size.
    pub p: u32,
    /// Problem size ([`Kernel::default_size`] when unset).
    pub size: u32,
    /// Iterations (SOR sweeps / MD iterations / EM3D relaxation steps).
    pub iters: u32,
    /// Layout/generation seed (MD clusters, EM3D graph).
    pub seed: u64,
    /// High locality (spatial MD layout, mostly-local EM3D edges) vs low
    /// (random layout, mostly-remote edges).
    pub high_locality: bool,
    /// EM3D communication style.
    pub style: em3d::Style,
    /// Execution mode.
    pub mode: ExecMode,
    /// Machine cost model.
    pub cost: CostModel,
    /// Where the raw records go (default: kept, all of them).
    pub buffer: TraceBuffer,
    /// Host worker threads for the sharded executor; `1` (the default)
    /// runs the single-threaded event index. Every thread count yields a
    /// bit-identical trace and report.
    pub threads: usize,
    /// Use the optimistic (Time-Warp) executor instead of the
    /// conservative sharded one when `threads > 1` — checkpoints,
    /// speculative windows past the lookahead bound, rollback on
    /// stragglers. Still bit-identical; the speculation diagnostics land
    /// in the report's speculative section.
    pub speculative: bool,
    /// Per-node busy-time weights steering the sharded executor's
    /// contiguous partition (`Runtime::set_shard_weights`); `None` keeps
    /// the equal-slice map. Host-time tuning only — every weighting
    /// yields a bit-identical trace and report. Typically filled from a
    /// pilot run's `Rollup::node_busy_weights`.
    pub shard_weights: Option<Vec<u64>>,
}

impl ProfileConfig {
    /// Defaults: hybrid mode, CM-5 costs, high locality, 16 nodes.
    pub fn new(kernel: Kernel) -> ProfileConfig {
        ProfileConfig {
            kernel,
            p: 16,
            size: kernel.default_size(),
            iters: 1,
            seed: 20260806,
            high_locality: true,
            style: em3d::Style::Pull,
            mode: ExecMode::Hybrid,
            cost: CostModel::cm5(),
            buffer: TraceBuffer::default(),
            threads: 1,
            speculative: false,
            shard_weights: None,
        }
    }

    /// One-line caption for reports.
    pub fn title(&self) -> String {
        format!(
            "{} p={} size={} iters={} seed={} {} {}",
            self.kernel.name(),
            self.p,
            self.size,
            self.iters,
            self.seed,
            if self.high_locality {
                "high-loc"
            } else {
                "low-loc"
            },
            self.mode,
        )
    }

    /// Build the kernel, arm [`ProfileConfig::buffer`], run it, and return
    /// the runtime (whatever was buffered still inside). Panics on a trap
    /// — the profiled kernels are deadlock-free by construction.
    pub fn run(&self) -> Runtime {
        self.run_impl(None)
    }

    /// Same as [`ProfileConfig::run`], with a zero-virtual-time observer
    /// attached before the kernel starts, so it sees the full stream.
    pub fn run_with_observer(&self, obs: Box<dyn hem_core::Observer>) -> Runtime {
        self.run_impl(Some(obs))
    }

    fn run_impl(&self, obs: Option<Box<dyn hem_core::Observer>>) -> Runtime {
        match self.kernel {
            Kernel::Sor => {
                let ids = sor::build();
                let mut rt = crate::rt(
                    ids.program.clone(),
                    self.p,
                    self.cost.clone(),
                    self.mode,
                    InterfaceSet::Full,
                );
                self.arm(&mut rt, obs);
                let params = sor::SorParams {
                    n: self.size,
                    block: 4,
                    procs: hem_machine::topology::ProcGrid::square(self.p),
                };
                let inst = sor::setup(&mut rt, &ids, params);
                sor::run(&mut rt, &inst, self.iters).expect("sor run");
                rt
            }
            Kernel::Md => {
                let ids = md::build();
                let layout = if self.high_locality {
                    Layout::Spatial
                } else {
                    Layout::Random
                };
                let sys = md::generate(self.size, 1.1, self.p, layout, self.seed);
                let mut rt = crate::rt(
                    ids.program.clone(),
                    self.p,
                    self.cost.clone(),
                    self.mode,
                    InterfaceSet::Full,
                );
                self.arm(&mut rt, obs);
                let inst = md::setup(&mut rt, &ids, &sys);
                for _ in 0..self.iters {
                    md::run_iteration(&mut rt, &inst).expect("md iteration");
                }
                rt
            }
            Kernel::Em3d => {
                let ids = em3d::build(4);
                let p_local = if self.high_locality { 0.9 } else { 0.2 };
                let g = em3d::generate(self.size, 4, self.p, p_local, self.seed);
                let mut rt = crate::rt(
                    ids.program.clone(),
                    self.p,
                    self.cost.clone(),
                    self.mode,
                    InterfaceSet::Full,
                );
                self.arm(&mut rt, obs);
                let inst = em3d::setup(&mut rt, &ids, &g);
                em3d::run(&mut rt, &inst, self.style, self.iters).expect("em3d run");
                rt
            }
            Kernel::Fib => {
                let suite = hem_apps::callintensive::build();
                let mut rt = crate::rt(
                    suite.program.clone(),
                    self.p,
                    self.cost.clone(),
                    self.mode,
                    InterfaceSet::Full,
                );
                self.arm(&mut rt, obs);
                let o = rt.alloc_object_by_name("Math", hem_machine::NodeId(0));
                rt.call(o, suite.fib, &[hem_ir::Value::Int(self.size as i64)])
                    .expect("fib run");
                rt
            }
        }
    }

    fn arm(&self, rt: &mut Runtime, obs: Option<Box<dyn hem_core::Observer>>) {
        if self.shard_weights.is_some() {
            rt.set_shard_weights(self.shard_weights.clone());
        }
        if self.threads > 1 {
            rt.sched_impl = if self.speculative {
                hem_core::SchedImpl::Speculative {
                    threads: self.threads,
                }
            } else {
                hem_core::SchedImpl::Sharded {
                    threads: self.threads,
                }
            };
        }
        self.buffer.arm(rt);
        if let Some(o) = obs {
            rt.attach_observer(o);
        }
    }
}
