//! Shared open-system runner for `hemprof serve` and the open-system
//! integration tests: builds the [`hem_apps::service`] front-end/back-end
//! world, plays a seeded arrival stream against it up to a virtual-time
//! horizon, and aggregates the per-request dispositions into the
//! steady-state [`ServiceSummary`] the reports print. Living in the
//! library (like [`crate::profile`]) means the CLI and the tests measure
//! *the same* runs.

use hem_analysis::InterfaceSet;
use hem_apps::service::{self, Disposition, ServeOutcome, ServeParams};
use hem_core::{ExecMode, Runtime, Trap};
use hem_machine::arrival::ArrivalDist;
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::Cycles;
use hem_obs::{Log2Hist, ServiceSummary};

use crate::profile::TraceBuffer;

/// An open-system run's configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Machine size.
    pub p: u32,
    /// Backend population.
    pub backends: u32,
    /// Virtual-time horizon (exclusive).
    pub horizon: Cycles,
    /// Warm-up cutoff: completions of requests arriving before it are
    /// excluded from the steady-state latency histogram.
    pub warmup: Cycles,
    /// Arrival process.
    pub dist: ArrivalDist,
    /// Independent arrival streams.
    pub clients: u32,
    /// Admission deadline (0 = none).
    pub deadline: Cycles,
    /// Admission queue cap (0 = unbounded).
    pub max_queue: usize,
    /// Arrival-process seed.
    pub seed: u64,
    /// Execution mode.
    pub mode: ExecMode,
    /// Machine cost model.
    pub cost: CostModel,
    /// Host worker threads (sharded executor above 1); every thread count
    /// yields a bit-identical trace and summary.
    pub threads: usize,
    /// Use the optimistic (Time-Warp) executor instead of the
    /// conservative sharded one when `threads > 1`; still bit-identical.
    pub speculative: bool,
    /// Where the raw records go (default: kept, all of them). The
    /// rollup-backed report does not depend on it — it streams through
    /// the observer hook.
    pub buffer: TraceBuffer,
    /// Deterministic interconnect fault schedule; installing one engages
    /// the reliable transport (retransmission keeps lost work alive, and
    /// the recovered time shows up in the blame report's `retx` bucket).
    pub fault: Option<FaultPlan>,
}

impl ServeConfig {
    /// Defaults: 16 nodes, 32 backends, Poisson arrivals at one request
    /// per 500 cycles over 4 clients, 100k-cycle horizon with a 10k
    /// warm-up, no admission limits, hybrid mode on CM-5 costs.
    pub fn new() -> ServeConfig {
        ServeConfig {
            p: 16,
            backends: 32,
            horizon: 100_000,
            warmup: 10_000,
            dist: ArrivalDist::Poisson { mean_gap: 500.0 },
            clients: 4,
            deadline: 0,
            max_queue: 0,
            seed: 20260806,
            mode: ExecMode::Hybrid,
            cost: CostModel::cm5(),
            threads: 1,
            speculative: false,
            buffer: TraceBuffer::default(),
            fault: None,
        }
    }

    /// One-line caption for reports.
    pub fn title(&self) -> String {
        let fault = match &self.fault {
            Some(f) => format!(
                " fault[drop={} dup={} jitter={} seed={}]",
                f.drop_permille, f.dup_permille, f.jitter_max, f.seed
            ),
            None => String::new(),
        };
        format!(
            "serve p={} horizon={} warmup={} {:?} clients={} seed={} {}{}",
            self.p, self.horizon, self.warmup, self.dist, self.clients, self.seed, self.mode, fault,
        )
    }

    /// The rule that spans two fields, as the line `hemprof` prints when
    /// it is broken: the warm-up cutoff lies inside the horizon.
    pub fn check(&self) -> Result<(), String> {
        if self.warmup >= self.horizon {
            return Err("--warmup must be below --until".into());
        }
        Ok(())
    }

    /// Build the service world, arm [`ServeConfig::buffer`] plus a
    /// streaming rollup observer, and play the arrival stream. Returns the
    /// runtime (whatever was buffered still inside, observer still
    /// attached) and the raw outcome, or the trap that ended the run: an
    /// overloaded configuration can drive a non-blocking call chain past
    /// the sequential depth limit.
    pub fn run(&self) -> Result<(Runtime, ServeOutcome), Trap> {
        self.run_with_observer(Box::new(hem_obs::Rollup::new()))
    }

    /// [`ServeConfig::run`] with a caller-supplied observer in place of
    /// the plain rollup — e.g. a [`hem_obs::Fanout`] teeing a rollup, a
    /// blame tracker, and a series collector over the same stream.
    pub fn run_with_observer(
        &self,
        obs: Box<dyn hem_core::Observer>,
    ) -> Result<(Runtime, ServeOutcome), Trap> {
        let ids = service::build();
        let mut rt = hem_apps::make_runtime(
            ids.program.clone(),
            self.p,
            self.cost.clone(),
            self.mode,
            InterfaceSet::Full,
        );
        crate::profile::arm(&mut rt, self.threads, self.speculative, self.buffer);
        if let Some(plan) = &self.fault {
            rt.set_fault_plan(plan.clone());
        }
        rt.attach_observer(obs);
        let inst = service::setup(&mut rt, &ids, self.backends);
        let params = ServeParams {
            horizon: self.horizon,
            dist: self.dist,
            clients: self.clients,
            seed: self.seed,
            deadline: self.deadline,
            max_queue: self.max_queue,
        };
        let out = service::run_service(&mut rt, &inst, &params)?;
        Ok((rt, out))
    }

    /// Aggregate the raw outcome into the report's steady-state summary:
    /// counters over the whole horizon, latency histogram over
    /// completions whose *arrival* fell at or after the warm-up cutoff.
    pub fn summary(&self, out: &ServeOutcome) -> ServiceSummary {
        let mut s = ServiceSummary {
            horizon: self.horizon,
            warmup: self.warmup,
            offered: out.records.len() as u64,
            ..ServiceSummary::default()
        };
        let mut latency = Log2Hist::default();
        for r in &out.records {
            match r.disposition {
                Disposition::ShedQueue => s.shed_queue += 1,
                Disposition::ShedDeadline => s.shed_deadline += 1,
                Disposition::Pending => {
                    s.admitted += 1;
                    s.pending += 1;
                }
                Disposition::Completed => {
                    s.admitted += 1;
                    s.completed += 1;
                    let sojourn = r.done.saturating_sub(r.arrived);
                    if self.deadline > 0 && sojourn > self.deadline {
                        s.missed_deadline += 1;
                    }
                    if r.arrived < self.warmup {
                        s.trimmed += 1;
                    } else {
                        latency.add(sojourn);
                    }
                }
            }
        }
        s.latency = latency;
        s
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}
