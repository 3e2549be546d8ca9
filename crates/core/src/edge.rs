//! The window edge: how the coordinator hands a window to the shard
//! workers and takes their cells back ([`crate::shard`] runs the window).
//!
//! Each shard's state is a cell, a `Mutex` taken only with `try_lock`:
//! ownership alternates with the protocol, so a failed `try_lock` is a
//! protocol slip, and it panics naming the shard and the party. The
//! coordinator publishes a window (end, "arm a checkpoint" bit, epoch bump
//! with Release) and unparks the workers. A worker observes the bump
//! (Acquire), takes its cell, runs the window, releases the cell, acks the
//! epoch (Release) and unparks the coordinator, which runs shard 0 inline
//! and takes the cells back once every ack is in (Acquire). A worker that
//! panics marks the edge dead, so that wait panics instead of hanging;
//! shutdown publishes a last epoch that every worker exits on. Each step
//! is non-blocking, and the waits are the one [`graded_wait`] around them,
//! so `tests` can drive the same steps through [`crate::explore::Explorer`]
//! over every interleaving of a coordinator and two workers.

use crate::explore::Mutant;
use hem_machine::Cycles;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

/// Full spin budget before yielding on a cross-thread wait. Windows are
/// short (microseconds of host time), so the other side usually responds
/// within the spin budget; parking is the slow path.
const SPIN: u32 = 20_000;

/// Iterations of the `yield_now` tier between spinning and parking: long
/// enough to cover a descheduled peer's timeslice on a busy host, short
/// enough that an idle pool parks almost immediately.
const YIELDS: u32 = 64;

fn host_cores() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Graded wait budget for a pool of `threads` workers (coordinator
/// included). Three tiers: spin (`spin_loop` hint), `yield_now`, park.
///
/// The spin budget is graded by oversubscription: with `threads` at or
/// under the host's `available_parallelism` every waiter may burn the
/// full [`SPIN`] budget (the peer is genuinely running on another core),
/// but with more workers than cores the surplus waiters would only spin
/// *against* the threads they are waiting for — so the budget shrinks
/// proportionally (`SPIN · cores / threads`) and collapses to zero on a
/// single-core host, where the yield tier hands the timeslice straight
/// to the producer.
pub(crate) struct SpinTiers {
    pub spin: u32,
    pub yields: u32,
}

pub(crate) fn spin_tiers(threads: usize) -> SpinTiers {
    let cores = host_cores();
    if cores <= 1 {
        return SpinTiers {
            spin: 0,
            yields: YIELDS / 2,
        };
    }
    let spin = if threads <= cores {
        SPIN
    } else {
        ((SPIN as u64 * cores as u64) / threads as u64) as u32
    };
    SpinTiers {
        spin,
        yields: YIELDS,
    }
}

/// The one graded wait (see [`spin_tiers`]): spin, then `yield_now`, then
/// park until `ready` holds; returns whether it had to park. Whoever
/// makes `ready` hold unparks the waiter afterwards; park tokens
/// saturate, so an unpark that races a not-yet-parked waiter is not lost.
pub(crate) fn graded_wait(tiers: &SpinTiers, mut ready: impl FnMut() -> bool) -> bool {
    let (mut spins, mut yields, mut parked) = (0u32, 0u32, false);
    while !ready() {
        if spins < tiers.spin {
            spins += 1;
            std::hint::spin_loop();
        } else if yields < tiers.yields {
            yields += 1;
            std::thread::yield_now();
        } else {
            parked = true;
            std::thread::park();
        }
    }
    parked
}

/// How a parked party is woken: its host thread (a saturating park
/// token), or the model's token in `tests`.
pub(crate) trait Wake {
    fn wake(&self);
}

impl Wake for Thread {
    fn wake(&self) {
        self.unpark();
    }
}

/// What a worker's look at the edge finds.
pub(crate) enum Turn {
    /// Nothing past the epoch it last ran.
    Wait,
    /// Window `[_, end)` of a new epoch to run on its cell.
    Run { epoch: u64, end: Cycles, arm: bool },
    /// The pool shut down.
    Exit,
}

/// The epoch a shut-down edge publishes.
const SHUTDOWN: u64 = u64::MAX;

/// The edge between a coordinator (party 0, which also owns shard 0) and
/// one worker per other shard (party `s` owns shard `s`).
pub(crate) struct Edge<C, W = Thread> {
    /// Window-publication epoch: strictly monotone, bumped only while the
    /// coordinator holds every ack; [`SHUTDOWN`] at the end.
    epoch: AtomicU64,
    /// Window end for the current epoch (stored before the bump).
    end: AtomicU64,
    /// Arm a checkpoint in the current epoch's window? (Stored like `end`.)
    arm: AtomicBool,
    /// The last epoch each worker finished. Slot 0 is unused.
    acks: Vec<AtomicU64>,
    cells: Vec<Mutex<C>>,
    /// Who to wake, per party. The coordinator's slot is re-registered
    /// at every chunk entry: its thread may change between chunks.
    wakers: Vec<Mutex<Option<W>>>,
    /// A worker panicked; waits on acks fail instead of hanging.
    died: AtomicBool,
    /// The seeded mutant under test, if any ([`Mutant::from_env`]).
    mutant: Option<Mutant>,
}

impl<C, W: Wake> Edge<C, W> {
    /// An edge over one cell per shard, with no window published yet.
    pub fn new(cells: Vec<C>) -> Self {
        let n = cells.len();
        Edge {
            epoch: AtomicU64::new(0),
            end: AtomicU64::new(0),
            arm: AtomicBool::new(false),
            acks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cells: cells.into_iter().map(Mutex::new).collect(),
            wakers: (0..n).map(|_| Mutex::new(None)).collect(),
            died: AtomicBool::new(false),
            mutant: Mutant::from_env(),
        }
    }

    /// Parties (and shards) on this edge.
    pub fn parties(&self) -> usize {
        self.cells.len()
    }

    /// Wake `party` through `waker` from now on.
    pub fn register(&self, party: usize, waker: W) {
        *self.wakers[party]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(waker);
    }

    /// The coordinator publishes window `[_, end)` and wakes every worker.
    /// It must hold no cell and have every ack of the previous epoch.
    pub fn publish(&self, end: Cycles, arm: bool) {
        self.end.store(end, Ordering::Relaxed);
        self.arm.store(arm, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        // Mutation site (`drop-unpark`): a worker that already parked
        // sleeps through the window.
        if self.mutant != Some(Mutant::DropUnpark) {
            (1..self.parties()).for_each(|s| self.unpark(s));
        }
    }

    /// A worker that last ran epoch `seen` looks at the edge.
    pub fn observe(&self, seen: u64) -> Turn {
        match self.epoch.load(Ordering::Acquire) {
            e if e == seen => Turn::Wait,
            SHUTDOWN => Turn::Exit,
            epoch => Turn::Run {
                epoch,
                end: self.end.load(Ordering::Relaxed),
                arm: self.arm.load(Ordering::Relaxed),
            },
        }
    }

    /// `party` takes shard `s`'s cell; panics if anyone holds it.
    pub fn take(&self, s: usize, party: usize) -> MutexGuard<'_, C> {
        let cell = self.cells[s].try_lock().unwrap_or_else(|e| {
            let who = if party == 0 {
                "the coordinator".into()
            } else {
                format!("worker {party}")
            };
            panic!("window edge: {who} could not take shard {s}'s cell: {e}")
        });
        // Mutation site (`ack-before-release`): the worker acks as soon
        // as it holds its cell, so the coordinator may take it back while
        // the window still runs on it.
        if party != 0 && self.mutant == Some(Mutant::AckBeforeRelease) {
            let e = self.epoch.load(Ordering::Relaxed);
            self.acks[s].store(e, Ordering::Release);
        }
        cell
    }

    /// Every cell, for the coordinator between windows.
    pub fn cells(&self) -> impl Iterator<Item = MutexGuard<'_, C>> {
        (0..self.parties()).map(|s| self.take(s, 0))
    }

    /// Worker `s` is done with epoch `e`: it releases its cell, then acks.
    /// Taking the guard makes that the only order.
    pub fn ack(&self, s: usize, e: u64, cell: MutexGuard<'_, C>) {
        drop(cell);
        self.acks[s].store(e, Ordering::Release);
    }

    /// Has worker `s` acked the current epoch? `None` once any worker
    /// died (see [`Edge::die`]): that ack may never come.
    pub fn acked(&self, s: usize) -> Option<bool> {
        if self.acks[s].load(Ordering::Acquire) == self.epoch.load(Ordering::Relaxed) {
            Some(true)
        } else {
            (!self.died.load(Ordering::Relaxed)).then_some(false)
        }
    }

    /// Wake `party` (a saturating token: an unpark before the park is kept).
    pub fn unpark(&self, party: usize) {
        let waker = self.wakers[party]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = waker.as_ref() {
            w.wake();
        }
    }

    /// A worker panicked: fail the coordinator's waits and wake it.
    pub fn die(&self) {
        self.died.store(true, Ordering::SeqCst);
        self.unpark(0);
    }

    /// Publish the last epoch: every worker exits at its next look.
    pub fn shutdown(&self) {
        self.epoch.store(SHUTDOWN, Ordering::Release);
        (1..self.parties()).for_each(|s| self.unpark(s));
    }
}

#[cfg(test)]
mod tests {
    //! A bounded-exhaustive check of the edge: one coordinator and two
    //! workers over two windows, every interleaving of the steps above,
    //! each party running them in the order [`crate::shard`] does. Park
    //! tokens are modelled as saturating flags, so an unpark may land
    //! before its waiter parks. Each run replays a decision vector from
    //! [`Explorer`]; a state some earlier run already reached past its
    //! plan ends the run, since the DFS explores that state's successors
    //! from its first visit.
    use super::*;
    use crate::explore::{Explorer, TieChoice};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    const WINDOWS: u64 = 2;
    const WORKERS: usize = 2;

    /// A saturating park token.
    #[derive(Default)]
    struct Token(AtomicBool);

    impl Wake for Arc<Token> {
        fn wake(&self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// The coordinator's next step (the loop in `ShardPool::run_attempt`,
    /// the commit after it, and the pool's `Drop`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Coord {
        /// Publish the next window and run shard 0 inline, or shut down
        /// after the last one.
        Publish,
        /// Look at worker `s`'s ack.
        Acked(usize),
        /// The look failed: park.
        Park(usize),
        /// Take every cell back, check it, release it.
        Commit,
        /// A worker died: the panic unwinds into the pool's `Drop`.
        Shutdown,
        Done,
    }

    /// A worker's next step (`worker_loop` in `crate::shard`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Worker {
        Observe,
        Park,
        /// Take the cell and run the window of epoch `e` on it.
        Take(u64),
        /// Holding the cell: release it and ack `e`.
        Ack(u64),
        /// Holding the cell: panic (the cell is dropped, the edge marked dead).
        Die,
        Unpark,
        Exited,
    }

    /// All a run's future depends on: each party's next step, the windows
    /// published and committed, the workers' last epochs, the tokens, and
    /// the edge's epoch, acks and died flag.
    type Key = (
        Coord,
        u64,
        u64,
        [Worker; WORKERS],
        [u64; WORKERS],
        [bool; 3],
        u64,
        [u64; 3],
        bool,
    );

    /// One run's state. Each cell counts the windows run on it.
    struct Model<'e> {
        edge: &'e Edge<u64, Arc<Token>>,
        tokens: [Arc<Token>; 3],
        coord: Coord,
        published: u64,
        commits: u64,
        workers: [Worker; WORKERS],
        seen: [u64; WORKERS],
        held: [Option<MutexGuard<'e, u64>>; WORKERS],
        /// `(worker, epoch)`: that worker dies holding its cell.
        dies: Option<(usize, u64)>,
        /// Failed looks whose party's token was already set: the unpark
        /// landed before its waiter parked.
        early_unparks: u64,
    }

    /// What the enumeration saw.
    #[derive(Debug, Default)]
    struct Coverage {
        runs: usize,
        early_unparks: u64,
        died_seen: bool,
    }

    /// Run a step that may panic; a panic is the violation it reports.
    fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "panic".into())
        })
    }

    impl<'e> Model<'e> {
        fn token(&self, party: usize) -> bool {
            self.tokens[party].0.load(Ordering::Relaxed)
        }

        /// `party`'s look failed: it goes to park.
        fn look_failed(&mut self, party: usize) {
            self.early_unparks += self.token(party) as u64;
        }

        /// Consume `party`'s token, if it has one.
        fn park(&mut self, party: usize) -> bool {
            self.tokens[party].0.swap(false, Ordering::Relaxed)
        }

        fn enabled(&self, party: usize) -> bool {
            match party {
                0 => match self.coord {
                    Coord::Park(_) => self.token(0),
                    Coord::Done => false,
                    _ => true,
                },
                p => match self.workers[p - 1] {
                    Worker::Park => self.token(p),
                    Worker::Exited => false,
                    _ => true,
                },
            }
        }

        fn step(&mut self, party: usize, cov: &mut Coverage) -> Result<(), String> {
            let edge = self.edge;
            if party == 0 {
                self.coord = match self.coord {
                    Coord::Publish if self.published == WINDOWS => {
                        edge.shutdown();
                        Coord::Done
                    }
                    Coord::Publish => {
                        self.published += 1;
                        edge.publish(self.published * 100, self.published.is_multiple_of(2));
                        *guarded(|| edge.take(0, 0))? += 1;
                        Coord::Acked(1)
                    }
                    Coord::Acked(s) => match edge.acked(s) {
                        Some(true) if s == WORKERS => Coord::Commit,
                        Some(true) => Coord::Acked(s + 1),
                        Some(false) => {
                            self.look_failed(0);
                            Coord::Park(s)
                        }
                        None => {
                            cov.died_seen = true;
                            Coord::Shutdown
                        }
                    },
                    Coord::Park(s) => {
                        assert!(self.park(0), "only enabled with a token");
                        Coord::Acked(s)
                    }
                    Coord::Commit => {
                        let cells: Vec<_> = guarded(|| edge.cells().collect())?;
                        if let Some(s) = cells.iter().position(|c| **c != self.published) {
                            return Err(format!(
                                "window {} committed with shard {s} at {}",
                                self.published, *cells[s]
                            ));
                        }
                        self.commits += 1;
                        Coord::Publish
                    }
                    Coord::Shutdown => {
                        edge.shutdown();
                        Coord::Done
                    }
                    Coord::Done => unreachable!("never enabled"),
                };
                return Ok(());
            }
            let w = party - 1;
            self.workers[w] = match self.workers[w] {
                Worker::Observe => match edge.observe(self.seen[w]) {
                    Turn::Wait => {
                        self.look_failed(party);
                        Worker::Park
                    }
                    Turn::Run { epoch, end, arm } => {
                        assert_eq!(end, epoch * 100, "end travels with its epoch");
                        assert_eq!(arm, epoch.is_multiple_of(2), "arm travels with its epoch");
                        self.seen[w] = epoch;
                        Worker::Take(epoch)
                    }
                    Turn::Exit => Worker::Exited,
                },
                Worker::Park => {
                    assert!(self.park(party), "only enabled with a token");
                    Worker::Observe
                }
                Worker::Take(e) => {
                    let mut cell = guarded(|| edge.take(party, party))?;
                    *cell += 1;
                    self.held[w] = Some(cell);
                    if self.dies == Some((party, e)) {
                        Worker::Die
                    } else {
                        Worker::Ack(e)
                    }
                }
                Worker::Ack(e) => {
                    edge.ack(party, e, self.held[w].take().expect("held"));
                    Worker::Unpark
                }
                Worker::Unpark => {
                    edge.unpark(0);
                    Worker::Observe
                }
                Worker::Die => {
                    self.held[w] = None;
                    edge.die();
                    Worker::Exited
                }
                Worker::Exited => unreachable!("never enabled"),
            };
            Ok(())
        }

        /// No step is enabled: every party must be finished, and every
        /// window must have ended.
        fn finished(&self) -> Result<(), String> {
            if self.coord != Coord::Done || self.workers.contains(&Worker::Park) {
                return Err(format!(
                    "stuck: coordinator {:?}, workers {:?}, epoch {}, tokens {:?}",
                    self.coord,
                    self.workers,
                    self.edge.epoch.load(Ordering::Relaxed),
                    [0, 1, 2].map(|p| self.token(p)),
                ));
            }
            if self.dies.is_none() && self.commits != WINDOWS {
                return Err(format!("{} of {WINDOWS} windows committed", self.commits));
            }
            Ok(())
        }

        fn key(&self) -> Key {
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            (
                self.coord,
                self.published,
                self.commits,
                self.workers,
                self.seen,
                [0, 1, 2].map(|p| self.token(p)),
                load(&self.edge.epoch),
                [0, 1, 2].map(|s| load(&self.edge.acks[s])),
                self.edge.died.load(Ordering::Relaxed),
            )
        }
    }

    /// One run under `plan`: its decision log, and the first violation.
    fn run(
        plan: &[u32],
        mutant: Option<Mutant>,
        dies: Option<(usize, u64)>,
        visited: &mut HashSet<Key>,
        cov: &mut Coverage,
    ) -> (Vec<TieChoice>, Result<(), String>) {
        let tokens: [Arc<Token>; 3] = Default::default();
        let mut edge = Edge::new(vec![0u64; 1 + WORKERS]);
        edge.mutant = mutant;
        for (p, t) in tokens.iter().enumerate() {
            edge.register(p, Arc::clone(t));
        }
        let mut m = Model {
            edge: &edge,
            tokens,
            coord: Coord::Publish,
            published: 0,
            commits: 0,
            workers: [Worker::Observe; WORKERS],
            seen: [0; WORKERS],
            held: [None, None],
            dies,
            early_unparks: 0,
        };
        let mut log = Vec::new();
        let verdict = loop {
            let enabled: Vec<usize> = (0..=WORKERS).filter(|&p| m.enabled(p)).collect();
            let pick = match enabled.len() as u32 {
                0 => break m.finished(),
                1 => 0,
                arity => {
                    let choice = plan.get(log.len()).map_or(0, |&c| c.min(arity - 1));
                    log.push(TieChoice { choice, arity });
                    choice
                }
            };
            if let Err(v) = m.step(enabled[pick as usize], cov) {
                break Err(v);
            }
            if log.len() >= plan.len() && !visited.insert(m.key()) {
                break Ok(());
            }
        };
        cov.early_unparks += m.early_unparks;
        (log, verdict)
    }

    /// Enumerate every interleaving; the first violation, if any.
    fn explore(mutant: Option<Mutant>, dies: Option<(usize, u64)>) -> Result<Coverage, String> {
        let mut ex = Explorer::new(1 << 20);
        let mut visited = HashSet::new();
        let mut cov = Coverage::default();
        while let Some(plan) = ex.next_plan() {
            let (log, verdict) = run(&plan, mutant, dies, &mut visited, &mut cov);
            ex.record(&log);
            verdict.map_err(|v| {
                format!(
                    "{v} (schedule {:?})",
                    log.iter().map(|t| t.choice).collect::<Vec<_>>()
                )
            })?;
        }
        assert!(ex.complete(), "the enumeration must finish");
        cov.runs = ex.schedules_run();
        Ok(cov)
    }

    #[test]
    fn every_interleaving_keeps_the_cells_apart_and_ends_every_window() {
        let cov = explore(None, None).unwrap_or_else(|v| panic!("{v}"));
        assert!(cov.runs > 100, "a real tree: {cov:?}");
        assert!(
            cov.early_unparks > 0,
            "an unpark landed before its park: {cov:?}"
        );
    }

    #[test]
    fn a_worker_that_dies_mid_window_ends_the_wait() {
        for worker in 1..=WORKERS {
            for epoch in 1..=WINDOWS {
                let cov = explore(None, Some((worker, epoch))).unwrap_or_else(|v| panic!("{v}"));
                assert!(cov.died_seen, "worker {worker}, window {epoch}: {cov:?}");
            }
        }
    }

    #[test]
    fn the_dfs_kills_both_edge_mutants() {
        let v = explore(Some(Mutant::AckBeforeRelease), None).expect_err("ack-before-release");
        assert!(v.contains("could not take shard"), "{v}");
        let v = explore(Some(Mutant::DropUnpark), None).expect_err("drop-unpark");
        assert!(v.starts_with("stuck"), "{v}");
    }

    #[test]
    fn spin_tiers_shrink_under_oversubscription() {
        let cores = host_cores();
        let matched = spin_tiers(cores.max(2));
        let oversub = spin_tiers(cores.max(2) * 8);
        assert!(oversub.spin <= matched.spin, "budget never grows");
        if cores > 1 {
            assert_eq!(matched.spin, SPIN, "at-or-under cores spins fully");
            assert!(oversub.spin < SPIN, "oversubscribed budget shrinks");
        } else {
            assert_eq!(matched.spin, 0, "single-core hosts never spin");
        }
        assert!(oversub.yields > 0, "yield tier precedes parking");
    }
}
