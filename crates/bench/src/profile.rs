//! Shared kernel runner for the `hemprof` profiler and the observability
//! integration tests: builds one of the four app kernels at a given
//! machine size / layout / seed, runs it with its trace consumers armed
//! (an observer, a [`TraceBuffer`], or both), and hands back the runtime
//! for analysis. Keeping this in the library (rather than in the
//! `hemprof` binary) means the CLI and the tests profile *the same* runs.

use hem_analysis::InterfaceSet;
use hem_apps::md::Layout;
use hem_apps::{em3d, md, sor};
use hem_core::{ExecMode, Runtime, Trap};
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

    /// The rules that span several fields, each broken one as the line
    /// `hemprof` prints for it: SOR and MD need an input (`size` ≥ 1), SOR
    /// lays its grid over a square processor grid, and MD's spatial layout
    /// bisects down to a power-of-two node count. The runs below panic on
    /// a configuration this rejects, or on `p == 0`.
    pub fn check(&self) -> Result<(), String> {
        let side = (self.p as f64).sqrt().round() as u64;
        let broken = |rule: &str| Err(format!("{}: {rule}", self.kernel.name()));
        match self.kernel {
            Kernel::Sor | Kernel::Md if self.size == 0 => broken("--size must be at least 1"),
            Kernel::Sor if side * side != self.p as u64 => broken("--p must be a perfect square"),
            Kernel::Md if self.high_locality && !self.p.is_power_of_two() => {
                broken("--p must be a power of two under the spatial layout")
            }
            _ => Ok(()),
        }
    }

    /// Build the kernel, arm [`ProfileConfig::buffer`], run it, and return
    /// the runtime (whatever was buffered still inside) or the trap that
    /// ended the run: a deep enough `fib` passes the sequential depth
    /// limit.
    pub fn run(&self) -> Result<Runtime, Trap> {
        self.run_impl(None)
    }

    /// Same as [`ProfileConfig::run`], with a zero-virtual-time observer
    /// attached before the kernel starts, so it sees the full stream.
    pub fn run_with_observer(&self, obs: Box<dyn hem_core::Observer>) -> Result<Runtime, Trap> {
        self.run_impl(Some(obs))
    }

    fn run_impl(&self, obs: Option<Box<dyn hem_core::Observer>>) -> Result<Runtime, Trap> {
        // The kernel's runtime, with everything armed before its setup runs.
        let runtime = |program: &hem_ir::Program| {
            let mut rt = hem_apps::make_runtime(
                program.clone(),
                self.p,
                self.cost.clone(),
                self.mode,
                InterfaceSet::Full,
            );
            arm(&mut rt, self.threads, self.speculative, self.buffer);
            if let Some(o) = obs {
                rt.attach_observer(o);
            }
            rt
        };
        match self.kernel {
            Kernel::Sor => {
                let ids = sor::build();
                let mut rt = runtime(&ids.program);
                let params = sor::SorParams {
                    n: self.size,
                    block: 4,
                    procs: hem_machine::topology::ProcGrid::square(self.p),
                };
                let inst = sor::setup(&mut rt, &ids, params);
                sor::run(&mut rt, &inst, self.iters)?;
                Ok(rt)
            }
            Kernel::Md => {
                let ids = md::build();
                let layout = if self.high_locality {
                    Layout::Spatial
                } else {
                    Layout::Random
                };
                let sys = md::generate(self.size, 1.1, self.p, layout, self.seed);
                let mut rt = runtime(&ids.program);
                let inst = md::setup(&mut rt, &ids, &sys);
                for _ in 0..self.iters {
                    md::run_iteration(&mut rt, &inst)?;
                }
                Ok(rt)
            }
            Kernel::Em3d => {
                let ids = em3d::build(4);
                let p_local = if self.high_locality { 0.9 } else { 0.2 };
                let g = em3d::generate(self.size, 4, self.p, p_local, self.seed);
                let mut rt = runtime(&ids.program);
                let inst = em3d::setup(&mut rt, &ids, &g);
                // The objects now hold the graph: free the generated copy
                // before the run grows the heap.
                drop(g);
                em3d::run(&mut rt, &inst, self.style, self.iters)?;
                Ok(rt)
            }
            Kernel::Fib => {
                let suite = hem_apps::callintensive::build();
                let mut rt = runtime(&suite.program);
                let o = rt.alloc_object_by_name("Math", hem_machine::NodeId(0));
                rt.call(o, suite.fib, &[hem_ir::Value::Int(self.size as i64)])?;
                Ok(rt)
            }
        }
    }
}

/// Arm what [`ProfileConfig`] and [`crate::serve::ServeConfig`] share: the
/// executor `threads` and `speculative` pick, and the trace `buffer`.
pub(crate) fn arm(rt: &mut Runtime, threads: usize, speculative: bool, buffer: TraceBuffer) {
    if threads > 1 {
        rt.sched_impl = if speculative {
            hem_core::SchedImpl::Speculative { threads }
        } else {
            hem_core::SchedImpl::Sharded { threads }
        };
    }
    buffer.arm(rt);
}
