//! Host-parallel windowed execution with bit-identical observables: one
//! window engine, two window policies.
//!
//! The engine partitions the simulated nodes into contiguous shards, one
//! OS worker thread per shard, and advances each shard with its own
//! `(time, kind, node)` event index inside virtual-time windows — by the
//! same dispatch loop the single-threaded executor runs
//! (`Runtime::run_index` in [`crate::sched`]), stopped at the window end
//! instead of the caller's horizon. A
//! [`WindowPolicy`], derived from the [`crate::SchedImpl`], decides how far a
//! window reaches and whether its outcome has to be checked:
//! [`crate::SchedImpl::Sharded`] runs **conservative** windows (below), whose
//! validation cannot fail; [`crate::SchedImpl::Speculative`] runs **optimistic**
//! ones, which checkpoint, validate at the barrier and roll back on a
//! straggler (see [`crate::timewarp`] for that policy and its proofs).
//! Everything else — pool, partition, window edge, barrier fold, outbox
//! routing, commit merge, serial steps — is this module's, once.
//!
//! Conservative windows are the classical conservative-PDES discipline,
//! specialized to this machine's structure:
//!
//! - **Lookahead** `L` is the minimum latency any packet can spend on the
//!   wire: `CostModel::min_wire_latency()`, capped by the retransmission
//!   timeout base when the reliable transport is engaged (an in-window
//!   send may arm a timer no earlier than `now + retx_base`), and never
//!   *reduced* by an installed [`hem_machine::fault::FaultPlan`] — fault
//!   plans only delay delivery (`FaultPlan::min_extra_latency` is the
//!   hook that records this).
//! - Each **window** is `[W, E)` where `W` is the global minimum
//!   candidate time and `E = min(W + L, TB)`, with `TB` the earliest
//!   retransmission-timer candidate anywhere. Every message sent at or
//!   after `W` is delivered at or after `W + L ≥ E`, and every timer due
//!   before `E` would contradict `E ≤ TB` — so inside a window the
//!   shards are causally independent: each may dispatch every candidate
//!   with key `< E` in its local key order, and the union is exactly the
//!   set of events a single-threaded run dispatches in `[W, E)`.
//! - When the window is empty (`E ≤ W`, i.e. a retransmission timer *is*
//!   the next event), the coordinator pulls every node back and runs one
//!   **serial step** with exact single-threaded semantics — retransmit
//!   logic may inspect remote inboxes (`frame_in_flight`), which the
//!   windowed workers never do.
//!
//! **Coordinator-free steady state.** Worker state is *persistent*: a
//! [`ShardPool`] pins each shard's worker runtime (and the nodes it
//! owns) to one OS thread for the lifetime of the pool — across windows
//! and across `run_until` chunks. The window edge is a seqlock-style
//! **epoch publication**, not a channel rendezvous: the coordinator
//! writes the window end and bumps an atomic epoch (Release); each
//! worker observes the bump (Acquire), reseeds its index from its own
//! nodes, runs the window, publishes its post-window minimum candidate
//! key and earliest timer into its cell, and stores the epoch into its
//! ack slot (Release). Cell ownership alternates with the protocol:
//! worker `s` owns `cells[s]` while `acks[s] < epoch`, the coordinator
//! owns it while `acks[s] == epoch`. On the steady-state path **no
//! worker `Runtime` ever moves and no coordinator channel round-trip
//! happens** — `SchedStats::{runtime_moves, coord_roundtrips}` assert
//! exactly that, and `SchedStats::pool_reuses` counts chunks served by
//! one pool. Each wait is graded (spin → `yield_now` → park, see
//! [`spin_tiers`]) so oversubscribed hosts degrade to parking instead of
//! burning full spin budgets against each other.
//!
//! The per-shard published minima replace the coordinator's O(P) scan:
//! the next window base is the min over `T` published keys, adjusted
//! during outbox routing (delivering a packet into node `d` can only add
//! the candidate `(max(node time, deliver), 0, d)`, which the
//! coordinator mins into the destination shard's slot as it routes).
//!
//! **Profile-guided shard maps.** The partition is contiguous but not
//! necessarily equal-sized: [`Runtime::set_shard_weights`] installs
//! per-node busy weights (exported by `hem_obs::Rollup`) and
//! [`shard_partition`] cuts shard boundaries by cumulative weight, so a
//! placement whose hot nodes sit in one contiguous slice no longer idles
//! most workers. The merge rule below is partition-independent, so any
//! weighting is observationally invisible.
//!
//! **Determinism.** Worker shards log every dispatched event's `(time,
//! kind, node)` key in dispatch order and capture every trace record
//! under it. At each window barrier the coordinator **heads-merges** the
//! shard logs — repeatedly committing, among the shards' next
//! undispatched events, the one with the minimum key (equal keys across
//! shards are impossible: the node id is part of the key and nodes are
//! partitioned) — and replays each event's records through the
//! coordinator's trace buffer and observer, reconstructing the exact
//! single-threaded emission order, including bounded-ring truncation
//! counts. A conservative shard dispatches in non-decreasing key order,
//! where the merge is an ordinary sorted merge; an optimistic
//! zero-lookahead window need not (a dispatched event can create a
//! smaller-key candidate via a zero-latency send), which is why the merge
//! follows the dispatch logs instead of sorting. Cross-shard packets are
//! parked in per-shard outboxes and routed into destination inboxes at
//! the barrier (inbox order is a deterministic function of
//! `(delivery time, wire seq)`, so routing order is irrelevant). Wire
//! sequence numbers are per-sender (see `Node::wire_seq`), so fault
//! fates and same-cycle tie-breaks are identical at every thread count.
//! The result: traces, makespan, `MachineStats`, and observer rollups
//! are bit-identical between `threads = 1` and any other thread count —
//! with the single documented exception of the scheduler heap
//! diagnostics, which read 0 under `Sharded` (as under the reference loop).
//!
//! **Traps.** If any shard traps, the merge stops at the first trapping
//! event it reaches (the trap a single-threaded run would hit first),
//! having replayed exactly the records emitted up to and during it, and
//! the coordinator returns that error.
//! Machine *state* past the trapping event (work other shards completed
//! inside the same window) is not rolled back; only the error and the
//! trace are normative after a trap.

use crate::error::Trap;
use crate::rt::Runtime;
use crate::sched::EventKey;
use crate::timewarp::Delta;
use crate::trace::TraceRecord;
use crate::transport::InboxEntry;
use hem_machine::net::Network;
use hem_machine::stats::NetStats;
use hem_machine::Cycles;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

/// Shard-worker state hung off a worker [`Runtime`] (absent on every
/// user-constructed runtime). Holds the node-ownership map, the trace
/// capture for the deterministic merge, and the cross-shard outbox.
pub(crate) struct ShardCtx {
    /// `owns[i]` — does this shard own global node `i`?
    pub owns: Vec<bool>,
    /// Records emitted this window, each under its dispatching event's
    /// key and shard-local dispatch ordinal, appended in dispatch order.
    pub capture: Vec<(EventKey, u32, TraceRecord)>,
    /// Packets addressed to nodes of other shards, parked for the
    /// coordinator to route at the window barrier.
    pub outbox: Vec<(u32, InboxEntry)>,
    /// Key of the event currently being dispatched (capture tag; also
    /// identifies the trapping event when a dispatch returns an error).
    pub cur: EventKey,
    /// Shard-local dispatch ordinal of the current event (monotone per
    /// worker; distinguishes back-to-back events that share a key).
    pub ord: u32,
    /// Capture records at all? Mirrors "trace buffer enabled or observer
    /// attached" on the coordinator.
    pub record: bool,
    /// Copy-on-dirty window checkpoint with its standing snapshot
    /// buffers, armed only for optimistic windows (see
    /// [`crate::timewarp`]); disarmed inside conservative ones, where
    /// `Runtime::tw_save` is a no-op.
    pub ckpt: crate::timewarp::TwCkpt,
    /// Event keys of this window in shard-local dispatch order: the
    /// commit merge's master order (available even when tracing is off,
    /// unlike `capture`).
    pub dispatched: Vec<EventKey>,
    /// Earliest retransmission-timer deadline armed during the current
    /// speculative window (`Cycles::MAX` when none). Conservative
    /// windows cannot outrun `retx_base`, so a mid-window timer is never
    /// due in-window there; optimistic windows can, and workers never
    /// fire timers — validation treats a deadline below the window edge
    /// exactly like a straggler.
    pub min_timer: Cycles,
}

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
fn graded_wait(tiers: &SpinTiers, mut ready: impl FnMut() -> bool) -> bool {
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

/// Contiguous node→shard partition. With `weights == None`, shard `s`
/// owns the equal slice `[s·p/T, (s+1)·p/T)`. With weights, shard
/// boundaries cut by cumulative weight (each node weighs at least 1, so
/// all-zero or short weight vectors degrade to near-equal slices), and
/// every shard is guaranteed at least one node when `p ≥ threads`.
///
/// The partition only shapes host-time balance: the window protocol and
/// the capture merge are partition-independent, so observables are
/// bit-identical under every return value of this function.
pub(crate) fn shard_partition(p: usize, threads: usize, weights: Option<&[u64]>) -> Vec<usize> {
    let threads = threads.clamp(1, p.max(1));
    let mut owner = vec![0usize; p];
    let Some(w) = weights else {
        for s in 0..threads {
            for o in &mut owner[s * p / threads..(s + 1) * p / threads] {
                *o = s;
            }
        }
        return owner;
    };
    let weight = |i: usize| -> u128 { w.get(i).copied().unwrap_or(0).max(1) as u128 };
    let total: u128 = (0..p).map(weight).sum();
    let mut s = 0usize;
    let mut acc: u128 = 0;
    for (i, o) in owner.iter_mut().enumerate() {
        *o = s;
        acc += weight(i);
        if s + 1 >= threads || i + 1 >= p {
            continue;
        }
        // Nearest-boundary cut: advance when the next node's weight
        // midpoint lies at or past shard s's quota — i.e. keeping node
        // i+1 here would land us farther from the ideal boundary than
        // cutting now. (The plain "quota met" rule cuts one node late
        // whenever a boundary falls mid-node, e.g. two near-equal hot
        // nodes would both land in shard 0.)
        let over_quota = (2 * acc + weight(i + 1)) * threads as u128 >= 2 * (s as u128 + 1) * total;
        let must_cut = p - i - 1 == threads - s - 1; // one node per remaining shard
        if over_quota || must_cut {
            s += 1;
        }
    }
    owner
}

/// One shard's slot in the pool: the pinned worker runtime plus the
/// results it publishes at each window edge. Ownership alternates with
/// the epoch protocol (see [`PoolShared`]).
struct WorkerCell {
    rt: Runtime,
    /// Global indices of the nodes this shard owns (the dense form of
    /// `ShardCtx::owns`; workers reseed and scan only these).
    owned: Vec<u32>,
    /// Minimum post-window candidate key over owned nodes.
    min_key: Option<EventKey>,
    /// Earliest retransmission-timer candidate over owned nodes.
    min_timer: Cycles,
    /// The window's trap, if any (the trapping event is the last entry
    /// of the shard's dispatch log).
    trap: Option<Trap>,
}

/// State shared between the coordinator and the pinned worker threads.
///
/// # Safety protocol
///
/// `cells[s]` (for `s ≥ 1`) is owned by worker `s` from the moment the
/// coordinator publishes an epoch `e > acks[s]` until the worker stores
/// `acks[s] = e`; at every other time the coordinator owns it.
/// `cells[0]` is only ever touched by the coordinator (shard 0 runs
/// inline on the coordinating thread). All cell writes are published by
/// the Release store that transfers ownership (`epoch` coordinator →
/// worker, `acks[s]` worker → coordinator) and read after the matching
/// Acquire load — hence the manual `Sync`. A window is in flight only
/// inside [`ShardPool::run_attempt`], which returns once every ack is in:
/// everywhere else on the coordinating thread, the coordinator owns every
/// cell.
struct PoolShared {
    /// Window-publication epoch: the seqlock edge. Strictly monotone;
    /// bumped only while the coordinator owns every cell.
    epoch: AtomicU64,
    /// Window end `E` for the current epoch (written before the bump).
    end: AtomicU64,
    /// Arm a checkpoint for the current epoch's window? (Optimistic
    /// policy; written before the bump, like `end`.)
    arm: AtomicBool,
    /// Per-worker ack: the last epoch worker `s` finished. Slot 0 is
    /// unused (shard 0 is inline).
    acks: Vec<AtomicU64>,
    cells: Vec<UnsafeCell<WorkerCell>>,
    /// Coordinator thread to unpark after an ack. Rewritten at every
    /// chunk entry — a `Runtime` may migrate between user threads.
    coord: Mutex<Option<Thread>>,
    /// A worker panicked; waits panic instead of hanging.
    died: AtomicBool,
    /// Tear the pool down (set by `Drop`, observed after an epoch bump).
    shutdown: AtomicBool,
}

// Safety: see the protocol above — every cell access is serialized by
// the epoch/ack handoff, and all other fields are atomics or a Mutex.
unsafe impl Sync for PoolShared {}

impl PoolShared {
    /// Safety: the caller must own every cell under the epoch/ack
    /// protocol (the coordinator, with no window in flight) and must not
    /// hold two of these views at once.
    unsafe fn all_cells(&self) -> impl Iterator<Item = &mut WorkerCell> {
        self.cells.iter().map(|c| &mut *c.get())
    }
}

fn unpark_coord(shared: &PoolShared) {
    let guard = shared.coord.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(t) = guard.as_ref() {
        t.unpark();
    }
}

/// Recompute a cell's published minima from its owned nodes (O(P/T)).
fn publish_minima(cell: &mut WorkerCell) {
    let mut mk: Option<EventKey> = None;
    let mut mt = Cycles::MAX;
    for &i in &cell.owned {
        let i = i as usize;
        if let Some((t, k)) = cell.rt.node_candidate(i) {
            let key = (t, k, i as u32);
            if mk.is_none_or(|b| key < b) {
                mk = Some(key);
            }
        }
        if let Some(t2) = cell.rt.node_timer_candidate(i) {
            mt = mt.min(t2);
        }
    }
    cell.min_key = mk;
    cell.min_timer = mt;
}

/// Run one window on a shard cell: arm the checkpoint when the policy
/// asks for one, reseed the index from owned candidates below `end`,
/// dispatch, then publish the post-window minima and any trap. Shared
/// verbatim by the pinned workers and the inline shard 0.
fn run_shard_window(cell: &mut WorkerCell, end: Cycles, arm: bool) {
    let rt = &mut cell.rt;
    if arm {
        rt.tw_arm();
    }
    rt.reseed(cell.owned.iter().map(|&i| i as usize), end);
    cell.trap = rt.run_index(end).err();
    publish_minima(cell);
}

/// The pinned worker's whole life: wait for an epoch bump, run the
/// published window on the owned cell, ack, repeat — no channels, no
/// runtime moves.
fn worker_loop(shared: &PoolShared, s: usize, threads: usize) {
    let tiers = spin_tiers(threads);
    let mut seen = 0u64;
    let mut parked = false;
    loop {
        // Parks between windows and across chunk gaps; the coordinator
        // unparks unconditionally at publication. A wait that ended in a
        // park predicts the next one will too — the coordinator's serial
        // section after a wide optimistic window (validate, commit
        // hundreds of events) outlasts any spin budget — so it skips the
        // spin tier instead of burning a core through it.
        let tiers = SpinTiers {
            spin: if parked { 0 } else { tiers.spin },
            yields: tiers.yields,
        };
        let mut e = seen;
        parked = graded_wait(&tiers, || {
            e = shared.epoch.load(Ordering::Acquire);
            e != seen
        });
        seen = e;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let end = shared.end.load(Ordering::Relaxed);
        let arm = shared.arm.load(Ordering::Relaxed);
        // Safety: `acks[s] < epoch` here, so this worker owns its cell.
        let cell = unsafe { &mut *shared.cells[s].get() };
        run_shard_window(cell, end, arm);
        shared.acks[s].store(e, Ordering::Release);
        unpark_coord(shared);
    }
}

/// Host stack reserved per nested sequential activation on a worker
/// thread. The interpreter recurses on the host stack up to
/// `Runtime::max_seq_depth` activations deep; a plain call chain measures
/// ~5 KiB per activation in release builds and ~12 KiB unoptimized, and
/// the rest is headroom for nested poll handling. The reservation is
/// virtual: it costs nothing until a chain actually goes that deep.
const SEQ_FRAME_BYTES: usize = 32 << 10;

/// How far a window reaches and whether its outcome has to be checked:
/// the only thing the two host-parallel executors differ in.
pub(crate) enum WindowPolicy {
    /// `end = W + lookahead`: nothing sent inside the window can come due
    /// inside it, so no checkpoint is taken and validation is vacuous.
    Conservative(Cycles),
    /// `end = W + δ`, past the lookahead: workers checkpoint, the
    /// coordinator validates at the barrier and rolls a straggler's
    /// window back (see [`crate::timewarp`]).
    Optimistic(Delta),
}

/// Pool identity: a pool is reusable by a later chunk only if nothing a
/// worker runtime snapshots at build time has changed. The window policy
/// is not part of it — it travels with each epoch publication, so
/// conservative and optimistic chunks share one pool.
#[derive(PartialEq, Eq, Clone, Copy)]
struct PoolKey {
    threads: usize,
    p: usize,
    record: bool,
    san: bool,
    /// `Runtime::pool_gen` at build time: bumped by every
    /// pool-invalidating mutation (fault plan, transport, shard weights).
    gen: u64,
}

/// The persistent worker pool: pinned worker threads, the node→shard
/// map, and the epoch state. Lives on the coordinator [`Runtime`] and
/// survives across `run_until` chunks; dropped (joining its threads)
/// when invalidated or when the runtime is dropped. Between chunks every
/// cell holds only node husks — the real nodes are swapped back into the
/// coordinator so the public API (`inject_request`, `stats`,
/// `queue_depth`, …) keeps working unchanged.
pub(crate) struct ShardPool {
    threads: usize,
    owner: Vec<usize>,
    shared: Arc<PoolShared>,
    /// Park/unpark handles for workers `1..threads` (index 0 is a
    /// placeholder for the inline shard).
    worker_threads: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
    /// The coordinator's view of the published epoch.
    epoch: u64,
    key: PoolKey,
}

impl ShardPool {
    /// Every cell, for the coordinator between windows (see the
    /// [`PoolShared`] protocol; `&mut self` keeps two views from
    /// coexisting).
    fn cells(&mut self) -> impl Iterator<Item = &mut WorkerCell> {
        // Safety: no window is in flight outside `run_attempt`.
        unsafe { self.shared.all_cells() }
    }

    /// Swap every owned node between the coordinator and its shard cell.
    /// An involution: called once at chunk entry (nodes → cells) and
    /// once at chunk exit (nodes → coordinator); also brackets serial
    /// steps, which need full-machine visibility.
    fn swap_nodes(&mut self, rt: &mut Runtime) {
        for cell in self.cells() {
            for &i in &cell.owned {
                std::mem::swap(&mut rt.nodes[i as usize], &mut cell.rt.nodes[i as usize]);
            }
        }
    }

    /// Recompute every cell's published minima from its nodes: at chunk
    /// entry and after anything but a window changed them (a serial
    /// step, a rollback).
    fn republish_minima(&mut self) {
        self.cells().for_each(publish_minima);
    }

    /// The next window base `W` (the minimum candidate key anywhere) and
    /// the earliest timer candidate, from the per-shard published minima
    /// — O(T), not a scan over nodes. `None` when the machine is
    /// quiescent.
    fn minima(&mut self) -> Option<(EventKey, Cycles)> {
        let wkey = self.cells().filter_map(|c| c.min_key).min()?;
        let timer = self.cells().map(|c| c.min_timer).min();
        Some((wkey, timer.unwrap_or(Cycles::MAX)))
    }

    /// Run one attempt at window `[_, end)` on every shard: publish it
    /// to the pinned workers (the seqlock edge — the Release bump
    /// transfers cell ownership to them, and the unconditional unparks
    /// cover parked ones), run shard 0 inline, then wait until every
    /// worker has acked, which transfers all cells back to the
    /// coordinator.
    fn run_attempt(&mut self, end: Cycles, arm: bool) {
        self.shared.end.store(end, Ordering::Relaxed);
        self.shared.arm.store(arm, Ordering::Relaxed);
        self.epoch += 1;
        self.shared.epoch.store(self.epoch, Ordering::Release);
        for t in &self.worker_threads[1..] {
            t.unpark();
        }
        // Safety: cell 0 is always coordinator-owned.
        run_shard_window(unsafe { &mut *self.shared.cells[0].get() }, end, arm);
        let tiers = spin_tiers(self.threads);
        for ack in &self.shared.acks[1..] {
            graded_wait(&tiers, || {
                if ack.load(Ordering::Acquire) == self.epoch {
                    return true;
                }
                if self.shared.died.load(Ordering::Relaxed) {
                    panic!("shard worker thread died");
                }
                false
            });
        }
    }

    /// Optimistic validation: the earliest straggler of the attempt that
    /// just ran to `end`, over all shards (`None`: the window is clean).
    fn first_straggler(&mut self, end: Cycles) -> Option<Cycles> {
        self.cells().filter_map(|c| c.rt.tw_straggler(end)).min()
    }

    /// Cancel the attempt that just ran: roll every shard back to the
    /// window edge, in the cells, and republish their minima. Traps the
    /// cancelled attempt found are speculative state — if real, the
    /// retry re-encounters them (its run is a prefix of the cancelled
    /// one). Returns the number of anti-messages.
    fn rollback(&mut self) -> u64 {
        let mut anti = 0;
        for cell in self.cells() {
            anti += cell.rt.tw_rollback();
            cell.trap = None;
            publish_minima(cell);
        }
        anti
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for t in &self.worker_threads[1..] {
            t.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Runtime {
    /// The conservative lookahead `L`: the minimum latency any packet can
    /// spend on the wire, capped by the retransmission timeout base when
    /// the reliable transport is engaged. Fault plans may only *delay*
    /// delivery, so any plan-derived slack is additive (today always
    /// zero; the call records the dependency).
    pub(crate) fn lookahead(&self) -> Cycles {
        let wire = self.cost.min_wire_latency();
        let base = if self.reliable {
            wire.min(self.retx_base)
        } else {
            wire
        };
        base.saturating_add(self.net.plan().map_or(0, |plan| plan.min_extra_latency()))
    }

    /// Drive the machine until every candidate is at or past `horizon`
    /// (`Cycles::MAX` = quiescence) with conservative windows. Falls
    /// back to the plain event index when fewer than two shards are
    /// possible or the cost model has zero wire latency (no lookahead —
    /// every window would be empty).
    pub(crate) fn run_sharded(&mut self, threads: usize, horizon: Cycles) -> Result<(), Trap> {
        let threads = threads.min(self.nodes.len());
        let lookahead = self.lookahead();
        if threads <= 1 || lookahead == 0 {
            return self.run_sharded_fallback(horizon);
        }
        self.run_windows(threads, WindowPolicy::Conservative(lookahead), horizon)
    }

    /// Zero-lookahead / single-shard path: the plain index loop over a
    /// freshly seeded index, taken down again afterwards — so the heap
    /// diagnostics read 0, as the windowed path reports at higher thread
    /// counts, and repeated horizon-bounded calls compose.
    pub(crate) fn run_sharded_fallback(&mut self, horizon: Cycles) -> Result<(), Trap> {
        self.reseed(0..self.nodes.len(), horizon);
        let r = self.run_index(horizon);
        self.drop_index();
        r
    }

    /// Build the worker runtime for shard `s`: a full machine husk (every
    /// node present so global indexing works, but only owned nodes ever
    /// hold state during a window) sharing the program and fault plan,
    /// with tracing redirected into the shard capture.
    pub(crate) fn make_worker(&self, s: usize, owner: &[usize], record: bool) -> Runtime {
        let mut net = Network::new();
        net.set_plan(self.net.plan().cloned());
        Runtime {
            net,
            // Namespaced so worker-created task tokens (lock-holder
            // identities, live only within one dispatched event) never
            // collide with the coordinator's or another shard's.
            next_task: (s as u64 + 1) << 48,
            max_seq_depth: self.max_seq_depth,
            enable_inlining: self.enable_inlining,
            sanitizer: self.sanitizer.as_ref().map(|_| Box::default()),
            #[cfg(any(test, feature = "mutants"))]
            mutant: self.mutant,
            reliable: self.reliable,
            retx_base: self.retx_base,
            retx_cap: self.retx_cap,
            shard: Some(Box::new(ShardCtx {
                owns: owner.iter().map(|&o| o == s).collect(),
                capture: Vec::new(),
                outbox: Vec::new(),
                cur: (0, 0, 0),
                ord: 0,
                record,
                ckpt: crate::timewarp::TwCkpt::new(owner.len()),
                dispatched: Vec::new(),
                min_timer: Cycles::MAX,
            })),
            ..Runtime::assemble(
                Arc::clone(&self.program),
                self.layouts.clone(),
                self.schemas.clone(),
                self.cost.clone(),
                self.mode,
                owner.len() as u32,
            )
        }
    }

    /// Reuse the persistent pool when its build-time snapshot still
    /// matches, else (re)build it: partition the nodes (honoring any
    /// installed shard weights), construct one pinned worker runtime per
    /// shard, and spawn the worker threads for shards `1..threads`
    /// (shard 0 runs inline on the coordinating thread).
    fn ensure_pool(&mut self, threads: usize, record: bool) {
        let key = PoolKey {
            threads,
            p: self.nodes.len(),
            record,
            san: self.sanitizer.is_some(),
            gen: self.pool_gen,
        };
        if self.pool.as_ref().is_some_and(|pool| pool.key == key) {
            self.sched_stats.pool_reuses += 1;
            return;
        }
        self.pool = None; // joins any stale pool's workers first
        let p = self.nodes.len();
        let owner = shard_partition(p, threads, self.shard_weights.as_deref());
        let cells: Vec<UnsafeCell<WorkerCell>> = (0..threads)
            .map(|s| {
                UnsafeCell::new(WorkerCell {
                    rt: self.make_worker(s, &owner, record),
                    owned: owner
                        .iter()
                        .enumerate()
                        .filter(|&(_, &o)| o == s)
                        .map(|(i, _)| i as u32)
                        .collect(),
                    min_key: None,
                    min_timer: Cycles::MAX,
                    trap: None,
                })
            })
            .collect();
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            end: AtomicU64::new(0),
            arm: AtomicBool::new(false),
            acks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            cells,
            coord: Mutex::new(None),
            died: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let mut worker_threads = vec![std::thread::current(); 1]; // slot 0: inline shard
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for s in 1..threads {
            let shared = Arc::clone(&shared);
            let h = std::thread::Builder::new()
                .name(format!("hem-shard-{s}"))
                .stack_size(self.max_seq_depth as usize * SEQ_FRAME_BYTES)
                .spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&shared, s, threads)
                    }));
                    if r.is_err() {
                        shared.died.store(true, Ordering::SeqCst);
                        unpark_coord(&shared);
                    }
                })
                .expect("spawn shard worker");
            worker_threads.push(h.thread().clone());
            handles.push(h);
        }
        self.pool = Some(ShardPool {
            threads,
            owner,
            shared,
            worker_threads,
            handles,
            epoch: 0,
            key,
        });
    }

    /// The one windowed coordinator loop (see the [module docs](self)):
    /// pick `W` from the published minima, size the window by `policy`,
    /// run it on every shard, and — once it stands — commit it at the
    /// barrier. Whole chunks share one pool; node state only crosses a
    /// thread boundary by `mem::swap` at chunk edges and serial steps.
    pub(crate) fn run_windows(
        &mut self,
        threads: usize,
        mut policy: WindowPolicy,
        horizon: Cycles,
    ) -> Result<(), Trap> {
        // The coordinator dispatches nothing but serial steps: its index
        // stays down, and only the workers' indices are live.
        self.drop_index();
        let record = self.trace_buf.enabled() || self.observer.is_some();
        self.ensure_pool(threads, record);
        let mut pool = self.pool.take().expect("pool just ensured");
        *pool.shared.coord.lock().unwrap_or_else(|e| e.into_inner()) = Some(std::thread::current());
        // Chunk entry: pin the nodes into their shard cells.
        pool.swap_nodes(self);
        pool.republish_minima();

        let arm = matches!(policy, WindowPolicy::Optimistic(_));
        let mut outcome = Ok(());
        while let Some((wkey, timer_bound)) = pool.minima() {
            if wkey.0 >= horizon {
                break; // every candidate is at or past the horizon
            }
            let width = match &policy {
                WindowPolicy::Conservative(lookahead) => *lookahead,
                WindowPolicy::Optimistic(delta) => delta.width(),
            };
            // Never window past a retransmission timer — its handler
            // inspects remote inboxes, which no windowed worker may do.
            // Capping at the horizon keeps horizon-bounded runs an exact
            // event-set prefix of unbounded ones.
            let mut end = wkey.0.saturating_add(width).min(timer_bound).min(horizon);
            // Attempts at [W, end). A conservative window stands as run;
            // an optimistic one is validated, and on a straggler rolled
            // back and retried shrunk to the straggler's due time — a
            // retry that is provably clean (see `crate::timewarp`), so
            // this loops at most twice.
            while end > wkey.0 {
                pool.run_attempt(end, arm);
                let WindowPolicy::Optimistic(delta) = &mut policy else {
                    break;
                };
                let Some(d_min) = pool.first_straggler(end) else {
                    break;
                };
                delta.rolled_back();
                self.spec.rollbacks += 1;
                self.spec.anti_messages += pool.rollback();
                end = d_min;
            }
            let r = if end <= wkey.0 {
                // Serial step: the next event is (or ties with) a
                // retransmission timer, or a straggler lands exactly on
                // the window base (the rollback put the machine back at
                // the window edge, so `wkey` is still the minimum). Run
                // it with full-machine visibility and exact
                // single-threaded semantics.
                pool.swap_nodes(self); // every node home
                self.sched_stats.serial_steps += 1;
                self.spec.serial_steps += arm as u64;
                let r = self.dispatch_event(wkey.0, wkey.1, wkey.2 as usize);
                pool.swap_nodes(self); // and back out
                pool.republish_minima();
                r
            } else {
                if let WindowPolicy::Optimistic(delta) = &mut policy {
                    delta.committed();
                    self.spec.windows += 1;
                    self.spec.max_window = self.spec.max_window.max(end - wkey.0);
                }
                self.commit_window(&mut pool)
            };
            if let Err(trap) = r {
                outcome = Err(trap);
                break;
            }
        }

        // Chunk exit: unpin the nodes (the involution swaps them home)
        // and fold worker-side global state into the coordinator,
        // draining it so the next chunk's fold doesn't double-count. The
        // pool itself — threads, shard map, worker husks — stays put.
        pool.swap_nodes(self);
        for cell in pool.cells() {
            let wk = &mut cell.rt;
            self.net.absorb_counters(&wk.net);
            wk.net.restore_counters(&NetStats::default());
            self.spec.ckpt_nodes += std::mem::take(&mut wk.spec.ckpt_nodes);
            if let (Some(main_s), Some(wk_s)) =
                (self.sanitizer.as_deref_mut(), wk.sanitizer.as_deref_mut())
            {
                main_s.absorb(wk_s); // drains the worker-side tallies
            }
        }
        self.pool = Some(pool);
        outcome
    }

    /// The window barrier, once the window stands: fold the shards'
    /// results into the coordinator, route cross-shard packets into their
    /// destination cells, and replay the captures in serial order,
    /// returning the serial-first trap if any shard trapped.
    fn commit_window(&mut self, pool: &mut ShardPool) -> Result<(), Trap> {
        let owner = &pool.owner;
        // Safety: the window's acks are all in, so the coordinator owns
        // every cell, and this is the only view of them.
        let mut cells: Vec<&mut WorkerCell> = unsafe { pool.shared.all_cells() }.collect();
        let mut wevents = 0u64;
        for cell in &mut cells {
            let wk = &mut cell.rt;
            wevents += std::mem::take(&mut wk.sched_stats.events_dispatched);
            if wk.result.is_some() {
                self.result = wk.result.take();
            }
            // Request ids are unique, so folding worker logs into the
            // id-ordered coordinator map is insertion-order independent.
            self.completions.append(&mut wk.completions);
            wk.shard.as_mut().expect("shard ctx").ckpt.disarm();
        }
        self.sched_stats.events_dispatched += wevents;
        self.sched_stats.windows += 1;
        self.sched_stats.window_events += wevents;
        self.sched_stats.max_window_events = self.sched_stats.max_window_events.max(wevents);
        // Every shard's published minimum is in hand, so lowering a
        // destination shard's minimum while routing is sound whichever
        // way the shard indices are ordered. A shard never outboxes to
        // itself.
        for s in 0..cells.len() {
            let mut out =
                std::mem::take(&mut cells[s].rt.shard.as_mut().expect("shard ctx").outbox);
            for (d, entry) in out.drain(..) {
                let dcell = &mut *cells[owner[d as usize]];
                let node = &mut dcell.rt.nodes[d as usize];
                let key = (node.time.max(entry.deliver), 0u8, d);
                node.inbox.push(entry);
                if dcell.min_key.is_none_or(|b| key < b) {
                    dcell.min_key = Some(key);
                }
            }
            // Hand the drained buffer back so its capacity is reused.
            cells[s].rt.shard.as_mut().expect("shard ctx").outbox = out;
        }
        let trap = self.replay_in_serial_order(&mut cells);
        for cell in &mut cells {
            let sh = cell.rt.shard.as_mut().expect("shard ctx");
            sh.capture.clear();
            sh.dispatched.clear();
            cell.trap = None;
        }
        trap.map_or(Ok(()), Err)
    }

    /// The heads-merge (module docs): commit the window's events in
    /// serial order — always the minimum key among the shards'
    /// next-undispatched events — flushing each event's records as it
    /// commits, and stop at the serial-first trap, which is returned.
    fn replay_in_serial_order(&mut self, cells: &mut [&mut WorkerCell]) -> Option<Trap> {
        // The order only matters to records and traps: with tracing off
        // and nothing trapped there is nothing to replay.
        if cells
            .iter()
            .all(|c| c.trap.is_none() && c.rt.shard.as_ref().expect("shard ctx").capture.is_empty())
        {
            return None;
        }
        let mut cursors = vec![(0usize, 0usize); cells.len()]; // (event, record) per shard
        loop {
            let (key, s) = cells
                .iter()
                .zip(&cursors)
                .enumerate()
                .filter_map(|(s, (cell, &(ev, _)))| {
                    let sh = cell.rt.shard.as_ref().expect("shard ctx");
                    sh.dispatched.get(ev).map(|&k| (k, s))
                })
                .min()?;
            let sh = cells[s].rt.shard.as_ref().expect("shard ctx");
            let (ev, rec) = &mut cursors[s];
            *ev += 1;
            // This event's records sit at the shard's record cursor,
            // under its key and one ordinal (the ordinal splits
            // back-to-back events that share a key).
            if let Some(&(k0, o0, _)) = sh.capture.get(*rec).filter(|r| r.0 == key) {
                while let Some(&(k, o, record)) = sh.capture.get(*rec) {
                    if (k, o) != (k0, o0) {
                        break;
                    }
                    self.flush_record(record);
                    *rec += 1;
                }
            }
            // A trapping dispatch ends its shard's log: nothing a
            // single-threaded run would have emitted lies past it.
            if *ev == sh.dispatched.len() && cells[s].trap.is_some() {
                return cells[s].trap.take();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{assert_bit_identical, ring_runtime, run_ring, start_ring, Outcome};
    use crate::rt::Node;
    use crate::sched::SchedImpl;
    use crate::{ExecMode, InterfaceSet};
    use hem_ir::{ProgramBuilder, Value};
    use hem_machine::cost::CostModel;
    use hem_machine::fault::FaultPlan;
    use hem_machine::NodeId;

    /// Both window policies at one thread count.
    fn windowed(threads: usize) -> [SchedImpl; 2] {
        [
            SchedImpl::Sharded { threads },
            SchedImpl::Speculative { threads },
        ]
    }

    #[test]
    fn windowed_executors_match_event_index_on_a_ring() {
        for plan in [None, Some(FaultPlan::seeded(7))] {
            let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), plan.clone());
            assert_eq!(base.result, Some(Value::Int(325)), "25+24+...+1");
            for sched in [2, 3, 4, 7].into_iter().flat_map(windowed) {
                let out = run_ring(sched, CostModel::cm5(), plan.clone());
                let what = format!("{sched:?}, faults: {}", plan.is_some());
                assert_bit_identical(&base, &out, &what);
                let st = &out.stats.sched;
                assert_eq!((st.heap_pushes, st.max_heap_depth), (0, 0), "{what}: heap");
                assert!(
                    st.windows + st.serial_steps > 0,
                    "{what}: the windowed path actually ran"
                );
            }
        }
    }

    #[test]
    fn degenerate_configs_fall_back_and_only_speculation_survives_zero_lookahead() {
        // `threads <= 1` runs the plain index loop under either policy
        // (and still reports zeroed heap diagnostics).
        for cost in [CostModel::cm5(), CostModel::unit()] {
            let base = run_ring(SchedImpl::EventIndex, cost.clone(), None);
            for sched in [0, 1].into_iter().flat_map(windowed) {
                let out = run_ring(sched, cost.clone(), None);
                assert_bit_identical(&base, &out, &format!("{sched:?}"));
                assert_eq!(out.stats.sched.heap_pushes, 0, "{sched:?}");
                assert_eq!(out.stats.sched.windows, 0, "{sched:?}: no windows");
                assert_eq!(out.spec, Default::default(), "{sched:?}: no speculation");
            }
        }
        // The unit cost model has zero wire latency, hence no lookahead:
        // conservative windows cannot form and `Sharded` falls back too;
        // `Speculative` keeps windowing — that regime is its point.
        let base = run_ring(SchedImpl::EventIndex, CostModel::unit(), None);
        for [sharded, spec] in [2, 4].map(windowed) {
            let out = run_ring(sharded, CostModel::unit(), None);
            assert_bit_identical(&base, &out, &format!("unit-cost {sharded:?}"));
            assert_eq!(out.stats.sched.heap_pushes, 0);
            assert_eq!(out.stats.sched.windows, 0, "{sharded:?}: fell back");
            let out = run_ring(spec, CostModel::unit(), None);
            assert_bit_identical(&base, &out, &format!("unit-cost {spec:?}"));
            assert!(out.spec.windows > 0, "{spec:?}: must not fall back");
        }
        // More threads than nodes clamps to the node count and still
        // runs windowed.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        for sched in windowed(64) {
            let out = run_ring(sched, CostModel::cm5(), None);
            assert_bit_identical(&base, &out, &format!("{sched:?} > p=4"));
        }
    }

    #[test]
    fn ring_truncation_counts_survive_the_merge() {
        // Bounded trace ring: eviction counts must match the serial run's.
        let run = |sched: SchedImpl| {
            let (mut rt, root, method) = ring_runtime(4, CostModel::cm5());
            rt.sched_impl = sched;
            rt.enable_trace_ring(16);
            rt.call(root, method, &[Value::Int(25)]).expect("ring runs");
            (rt.trace_dropped_total(), rt.take_trace())
        };
        let (base_dropped, base_tail) = run(SchedImpl::EventIndex);
        assert!(base_dropped > 0, "ring must truncate for the test to bite");
        for sched in [2, 4].into_iter().flat_map(windowed) {
            let (dropped, tail) = run(sched);
            assert_eq!(dropped, base_dropped, "{sched:?}: evictions");
            assert_eq!(tail, base_tail, "{sched:?}: ring tail");
        }
    }

    #[test]
    fn pool_persists_across_chunks_with_zero_moves() {
        // Two root calls = two executor chunks. The second must reuse
        // the pinned worker pool, and the steady-state window protocol
        // must never ship a runtime through a channel or rendezvous with
        // a coordinator channel pair.
        let (mut rt, root, method) = ring_runtime(4, CostModel::cm5());
        rt.sched_impl = SchedImpl::Sharded { threads: 2 };
        let a = rt.call(root, method, &[Value::Int(25)]).expect("chunk 1");
        let b = rt.call(root, method, &[Value::Int(25)]).expect("chunk 2");
        assert_eq!(a, b, "bounce is pure; both chunks agree");
        let st = rt.stats();
        assert!(st.sched.windows > 0, "windowed path exercised");
        assert_eq!(st.sched.runtime_moves, 0, "zero Runtime moves");
        assert_eq!(st.sched.coord_roundtrips, 0, "zero channel round-trips");
        assert!(st.sched.pool_reuses >= 1, "second chunk reused the pool");
    }

    #[test]
    fn rollback_republishes_the_window_edge_minima() {
        // Unit cost = zero lookahead: a wide optimistic window is sure to
        // find a straggler. After the rollback the cells must publish the
        // minima of the restored state — the window-edge ones — not what
        // the cancelled attempt left behind.
        let mut rt = start_ring(SchedImpl::EventIndex, CostModel::unit(), None);
        rt.ensure_pool(2, true);
        let mut pool = rt.pool.take().expect("pool");
        *pool.shared.coord.lock().unwrap() = Some(std::thread::current());
        pool.swap_nodes(&mut rt);
        pool.republish_minima();
        let published = |pool: &mut ShardPool| -> Vec<(Option<EventKey>, Cycles)> {
            pool.cells().map(|c| (c.min_key, c.min_timer)).collect()
        };
        let edge = published(&mut pool);
        let (wkey, _) = pool.minima().expect("work pending");
        let end = wkey.0 + 1_000;
        pool.run_attempt(end, true);
        assert_ne!(published(&mut pool), edge, "the attempt moved the minima");
        assert!(pool.first_straggler(end).is_some(), "straggler expected");
        assert!(pool.rollback() > 0, "anti-messages expected");
        let rolled_back = published(&mut pool);
        pool.republish_minima();
        assert_eq!(rolled_back, published(&mut pool), "fresh publish_minima");
        assert_eq!(rolled_back, edge, "window-edge minima");
        // The machine is back at the window edge: finish the run.
        pool.swap_nodes(&mut rt);
        rt.pool = Some(pool);
        rt.sched_impl = SchedImpl::Speculative { threads: 2 };
        rt.run_to_quiescence().expect("drain");
        assert_eq!(rt.result, Some(Value::Int(325)));
    }

    #[test]
    fn standing_buffers_serve_rollback_commit_rollback_windows() {
        // One pool, one set of snapshot buffers, driven by hand through
        // consecutive windows that alternate fates: a wide attempt is
        // cancelled on its straggler (buffers swapped in), the shrunken
        // retry stands (buffers left holding the edge state), the next
        // wide attempt checkpoints over that and is cancelled again.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        let mut rt = start_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        rt.ensure_pool(2, true);
        let mut pool = rt.pool.take().expect("pool");
        *pool.shared.coord.lock().unwrap() = Some(std::thread::current());
        pool.swap_nodes(&mut rt);
        pool.republish_minima();
        // Where the buffer table and each node's two field arenas (live
        // and snapshot; a rollback trades them) sit in memory.
        let storage = |pool: &mut ShardPool| -> Vec<(usize, Vec<[usize; 2]>)> {
            pool.cells()
                .map(|c| {
                    let bufs = c.rt.shard.as_ref().expect("shard ctx").ckpt.bufs();
                    let arenas = c
                        .owned
                        .iter()
                        .map(|&i| {
                            let at = |n: &Node| n.scalars(0).as_ptr() as usize;
                            let mut pair = [at(&c.rt.nodes[i as usize]), at(&bufs[i as usize])];
                            pair.sort();
                            pair
                        })
                        .collect();
                    (bufs.as_ptr() as usize, arenas)
                })
                .collect()
        };
        let (mut rollbacks, mut commits, mut warm) = (0, 0, None);
        while rollbacks < 4 {
            let (wkey, _) = pool.minima().expect("the ring is still bouncing");
            let mut end = wkey.0 + 1_000;
            pool.run_attempt(end, true);
            if let Some(d_min) = pool.first_straggler(end) {
                assert!(pool.rollback() > 0, "anti-messages expected");
                rollbacks += 1;
                end = d_min;
                assert!(end > wkey.0, "cm5 has lookahead: the retry is non-empty");
                pool.run_attempt(end, true);
                assert_eq!(pool.first_straggler(end), None, "the retry is clean");
            }
            rt.commit_window(&mut pool).expect("no trap");
            commits += 1;
            // Every node has been snapshotted once after two rounds.
            if commits == 2 {
                warm = Some(storage(&mut pool));
            }
        }
        assert!(commits >= 3, "several windows stood in between");
        assert_eq!(
            Some(storage(&mut pool)),
            warm,
            "later windows reused the same buffers and arenas"
        );
        // Back to the production loop, on the same pool.
        pool.swap_nodes(&mut rt);
        rt.pool = Some(pool);
        rt.sched_impl = SchedImpl::Speculative { threads: 2 };
        rt.run_to_quiescence().expect("drain");
        let out = Outcome::of(rt);
        assert_bit_identical(&base, &out, "hand-driven windows");
        assert_eq!(out.stats.sched.pool_reuses, 1, "one pool throughout");
    }

    #[test]
    fn rolled_back_arr_new_restores_the_arena() {
        // `ArrNew` at the same length rewrites its span in place; grown or
        // shrunk it bump-allocates. Inside a cancelled window all three
        // must vanish: arena length, span table and contents.
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C", false);
        let xs = pb.array_field(c, "xs");
        let resize = pb.method(c, "resize", 1, |mb| {
            let n = mb.arg(0);
            mb.arr_new(xs, n);
            mb.set_elem(xs, 0i64, n);
            mb.reply(n);
        });
        let mut rt = Runtime::new(
            pb.finish(),
            2,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .expect("valid program");
        let o = rt.alloc_object_by_name("C", NodeId(0));
        let neighbour = rt.alloc_object_by_name("C", NodeId(0));
        rt.set_array(o, xs, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        rt.set_array(neighbour, xs, vec![Value::Int(9)]);
        let mut wk = rt.make_worker(0, &[0, 1], false);
        std::mem::swap(&mut wk.nodes[0], &mut rt.nodes[0]);
        let state = |n: &Node| {
            (
                n.arena.len(),
                n.arena.spans().to_vec(),
                format!("{:?}", n.arena),
            )
        };
        for (what, len, bumps) in [
            ("same length", 3, false),
            ("grown", 7, true),
            ("shrunk", 1, true),
        ] {
            let edge = state(&wk.nodes[0]);
            wk.tw_arm();
            wk.tw_save(0);
            crate::wrapper::run_invocation(
                &mut wk,
                0,
                o.index,
                resize,
                vec![Value::Int(len)],
                crate::cont::Continuation::Discard,
                false,
            )
            .expect("resize runs");
            assert_eq!(
                wk.nodes[0].array(o.index, 0)[0],
                Value::Int(len),
                "{what}: ran"
            );
            assert_eq!(
                wk.nodes[0].arena.len() > edge.0,
                bumps,
                "{what}: arena growth"
            );
            wk.tw_rollback();
            assert_eq!(state(&wk.nodes[0]), edge, "{what}: restored");
        }
        assert_eq!(wk.spec.ckpt_nodes, 3, "one snapshot per window, one buffer");
    }

    #[test]
    fn pool_rebuilds_when_the_fault_plan_changes() {
        let (mut rt, root, method) = ring_runtime(4, CostModel::cm5());
        rt.sched_impl = SchedImpl::Sharded { threads: 2 };
        rt.call(root, method, &[Value::Int(5)]).expect("chunk 1");
        rt.set_fault_plan(FaultPlan::seeded(7));
        rt.call(root, method, &[Value::Int(5)]).expect("chunk 2");
        // The plan change invalidated the pool (worker networks hold a
        // plan copy), so the second chunk built a fresh one.
        assert_eq!(rt.stats().sched.pool_reuses, 0);
        rt.call(root, method, &[Value::Int(5)]).expect("chunk 3");
        assert_eq!(rt.stats().sched.pool_reuses, 1);
    }

    #[test]
    fn weighted_partition_defaults_to_equal_slices() {
        for (p, threads) in [(8, 2), (10, 4), (7, 3), (4, 4), (5, 1)] {
            let plain = shard_partition(p, threads, None);
            for s in 0..threads {
                for o in &plain[s * p / threads..(s + 1) * p / threads] {
                    assert_eq!(*o, s, "p={p} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn weighted_partition_splits_hot_slices_and_keeps_shards_nonempty() {
        // All the heat in the first quarter: the weighted cut must split
        // it instead of handing it to one shard.
        let mut w = vec![1u64; 16];
        for x in &mut w[0..4] {
            *x = 1000;
        }
        let owner = shard_partition(16, 4, Some(&w));
        assert!(owner.windows(2).all(|ab| ab[0] <= ab[1]), "contiguous");
        assert!(
            owner[0..4]
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "hot slice split across shards: {owner:?}"
        );
        for s in 0..4 {
            assert!(owner.contains(&s), "shard {s} nonempty: {owner:?}");
        }
        // Degenerate weights (zeros, short vectors) still partition.
        let owner = shard_partition(6, 3, Some(&[0, 0]));
        for s in 0..3 {
            assert!(owner.contains(&s), "shard {s} nonempty: {owner:?}");
        }
    }

    #[test]
    fn weighted_runs_stay_bit_identical() {
        // The shard map is host-time tuning: a wildly skewed weighting
        // must not change a single observable bit.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        for threads in [2, 4] {
            let mut rt = start_ring(SchedImpl::Sharded { threads }, CostModel::cm5(), None);
            rt.set_shard_weights(Some(vec![1_000_000, 1, 1, 1]));
            rt.run_to_quiescence().expect("ring runs");
            let skew = Outcome::of(rt);
            assert_bit_identical(&base, &skew, &format!("weighted threads={threads}"));
        }
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
