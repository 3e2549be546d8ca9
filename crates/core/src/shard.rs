//! Host-parallel windowed execution with bit-identical observables: one
//! window engine, two window policies.
//!
//! The engine partitions the simulated nodes into contiguous shards, one
//! OS worker thread per shard, and advances each shard inside virtual-time
//! windows with the single-threaded executor's own dispatch loop
//! (`Runtime::run_index` in [`crate::sched`]), stopped at the window end.
//! A `WindowPolicy`, derived from the [`crate::SchedImpl`], decides how
//! far a window reaches: [`crate::SchedImpl::Sharded`] runs
//! **conservative** windows, whose validation cannot fail;
//! [`crate::SchedImpl::Speculative`] runs **optimistic** ones, which
//! checkpoint, validate at the barrier and roll back on a straggler (see
//! [`crate::timewarp`]). Pool, partition, barrier fold, outbox routing,
//! commit merge and serial steps are this module's, once; the hand-off at
//! the window edge lives in `edge.rs`.
//!
//! - **Conservative windows.** The lookahead `L` is the minimum latency
//!   any packet can spend on the wire (`CostModel::min_wire_latency()`),
//!   capped by the retransmission timeout base when the reliable transport
//!   is engaged; fault plans only delay delivery. A window is `[W, E)`
//!   with `W` the global minimum candidate time and `E = min(W + L, TB)`,
//!   `TB` the earliest retransmission timer anywhere: a message sent at or
//!   after `W` arrives at or after `E`, so the shards are causally
//!   independent inside it. When `E ≤ W` (a timer is next) the coordinator
//!   pulls every node home and runs one exact **serial step**: retransmit
//!   logic inspects remote inboxes, which workers never do.
//! - **Persistent pool, one edge.** A `ShardPool` pins each shard's worker
//!   runtime and nodes to one OS thread across windows and `run_until`
//!   chunks, so no worker `Runtime` moves
//!   (`SchedStats::{runtime_moves, coord_roundtrips}` read 0, `pool_reuses`
//!   counts chunks served by one pool). `edge.rs` hands each window
//!   to the workers and their cells back: an epoch publication with
//!   per-worker acks over cells taken only with `try_lock`, checked by an
//!   exhaustive interleaving search. The next `W` is the minimum over the
//!   shards' published minima, lowered while packets are routed. Shard
//!   `s` of `T` owns the contiguous slice `[s·P/T, (s+1)·P/T)`; no
//!   observable depends on the partition.
//! - **Determinism.** Each shard logs every dispatched event's `(time,
//!   kind, node)` key with the offset of its first trace record in the
//!   shard's capture. At the barrier the coordinator **heads-merges** the
//!   logs, always committing the minimum key among the shards' next events
//!   (keys never tie across shards: the node is in the key), and replays
//!   each event's records through its own trace buffer and observer: the
//!   exact single-threaded emission order, ring truncation included. The
//!   merge follows the logs instead of sorting them because an optimistic
//!   zero-lookahead shard need not dispatch in key order. Cross-shard
//!   packets wait in outboxes until the barrier; inbox order and fault
//!   fates depend only on the delivery time and the per-sender wire
//!   sequence. Traces, makespan, `MachineStats` and rollups are
//!   bit-identical at every thread count; only the scheduler heap
//!   diagnostics read 0.
//! - **Traps.** The merge stops at the first trapping event it reaches
//!   (the one a single-threaded run would hit), having replayed exactly
//!   the records up to it, and returns that error. Machine state past it
//!   is not rolled back: only the error and the trace are normative.

use crate::edge::{graded_wait, spin_tiers, Edge, SpinTiers, Turn};
use crate::error::Trap;
use crate::rt::Runtime;
use crate::sched::EventKey;
use crate::timewarp::Delta;
use crate::trace::TraceRecord;
use crate::transport::InboxEntry;
use hem_machine::net::Network;
use hem_machine::stats::NetStats;
use hem_machine::Cycles;
use std::sync::{Arc, MutexGuard};
use std::thread::JoinHandle;

/// Shard-worker state hung off a worker [`Runtime`] (absent on every
/// user-constructed runtime). Holds the node-ownership map, the trace
/// capture for the deterministic merge, and the cross-shard outbox.
pub(crate) struct ShardCtx {
    /// `owns[i]` — does this shard own global node `i`?
    pub owns: Vec<bool>,
    /// Records emitted this window, in dispatch order; event `i`'s are
    /// `capture[dispatched[i].1..dispatched[i + 1].1]`.
    pub capture: Vec<TraceRecord>,
    /// Packets addressed to nodes of other shards, parked for the
    /// coordinator to route at the window barrier.
    pub outbox: Vec<(u32, InboxEntry)>,
    /// Capture records at all? Mirrors "trace buffer enabled or observer
    /// attached" on the coordinator.
    pub record: bool,
    /// Journaled window checkpoint with its standing snapshot buffers,
    /// armed only for optimistic windows (see
    /// [`crate::timewarp`]); disarmed inside conservative ones, where
    /// `Runtime::tw_save` is a no-op.
    pub ckpt: crate::timewarp::TwCkpt,
    /// This window's event keys in dispatch order, each with the offset of
    /// its first record in `capture`: the commit merge's master order,
    /// kept even when tracing is off. A trapping event is the last entry.
    pub dispatched: Vec<(EventKey, u32)>,
    /// Earliest retransmission-timer deadline armed during the current
    /// speculative window (`Cycles::MAX` when none). Conservative
    /// windows cannot outrun `retx_base`, so a mid-window timer is never
    /// due in-window there; optimistic windows can, and workers never
    /// fire timers — validation treats a deadline below the window edge
    /// exactly like a straggler.
    pub min_timer: Cycles,
}

/// Contiguous node→shard partition: shard `s` owns the equal slice
/// `[s·p/T, (s+1)·p/T)`, and every shard at least one node when
/// `p ≥ threads`. It shapes host-time balance only: no observable depends
/// on it.
pub(crate) fn shard_partition(p: usize, threads: usize) -> Vec<usize> {
    let threads = threads.clamp(1, p.max(1));
    let mut owner = vec![0usize; p];
    for s in 0..threads {
        for o in &mut owner[s * p / threads..(s + 1) * p / threads] {
            *o = s;
        }
    }
    owner
}

/// One shard's cell on the [`Edge`]: the pinned worker runtime plus the
/// results it publishes at each window edge.
struct WorkerCell {
    rt: Runtime,
    /// Global indices of the nodes this shard owns (the dense form of
    /// `ShardCtx::owns`; workers reseed and scan only these).
    owned: Vec<u32>,
    /// Minimum post-window candidate key over owned nodes.
    min_key: Option<EventKey>,
    /// Earliest retransmission-timer candidate over owned nodes.
    min_timer: Cycles,
    /// The window's trap, if any.
    trap: Option<Trap>,
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
/// published window on its cell, ack, repeat.
fn worker_loop(edge: &Edge<WorkerCell>, s: usize) {
    let tiers = spin_tiers(edge.parties());
    let (mut seen, mut parked) = (0, false);
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
        let mut turn = Turn::Wait;
        parked = graded_wait(&tiers, || {
            turn = edge.observe(seen);
            !matches!(turn, Turn::Wait)
        });
        let Turn::Run { epoch, end, arm } = turn else {
            return;
        };
        seen = epoch;
        let mut cell = edge.take(s, s);
        run_shard_window(&mut cell, end, arm);
        edge.ack(s, epoch, cell);
        edge.unpark(0);
    }
}

/// Host stack reserved per nested sequential activation on a worker
/// thread. The interpreter recurses on the host stack up to
/// `Runtime::max_seq_depth` activations deep. One level of a plain call
/// chain — `run_seq` with the instruction loop
/// (`exec::run`) and `call::invoke` inlined, then `call_seq_schema`
/// (inlined too in release builds) — measured as the distance between the
/// stack addresses of two consecutive activations on x86-64, takes 1 392 B
/// in release builds and 14 864 B unoptimized, where every arm of the loop
/// keeps its temporaries in the frame (registers and slots live in the
/// frame store's vectors, not on this stack). The rest is headroom for
/// nested poll handling, and for the unoptimized test builds that
/// `deep_local_chain_fits_the_worker_stack` runs. A worker reserves at
/// least 64 levels (2 MiB, a std thread's default): the dispatch path
/// below the first activation needs room at any depth limit. The
/// reservation is virtual: it costs nothing until a chain goes that deep.
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

/// The persistent worker pool: pinned worker threads, the node→shard
/// map, and the edge they share. Lives on the coordinator [`Runtime`] and
/// survives across `run_until` chunks; dropped (joining its threads)
/// when invalidated or when the runtime is dropped. Between chunks every
/// cell holds only node husks — the real nodes are swapped back into the
/// coordinator so the public API (`inject_request`, `stats`,
/// `queue_depth`, …) keeps working unchanged.
pub(crate) struct ShardPool {
    owner: Vec<usize>,
    edge: Arc<Edge<WorkerCell>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Swap every owned node between the coordinator and its shard cell.
    /// An involution: called once at chunk entry (nodes → cells) and
    /// once at chunk exit (nodes → coordinator); also brackets serial
    /// steps, which need full-machine visibility.
    fn swap_nodes(&mut self, rt: &mut Runtime) {
        for mut guard in self.edge.cells() {
            let cell = &mut *guard;
            for &i in &cell.owned {
                std::mem::swap(&mut rt.nodes[i as usize], &mut cell.rt.nodes[i as usize]);
            }
        }
    }

    /// Recompute every cell's published minima from its nodes: at chunk
    /// entry and after anything but a window changed them (a serial
    /// step, a rollback).
    fn republish_minima(&mut self) {
        self.edge.cells().for_each(|mut c| publish_minima(&mut c));
    }

    /// The next window base `W` (the minimum candidate key anywhere) and
    /// the earliest timer candidate, from the per-shard published minima
    /// — O(T), not a scan over nodes. `None` when the machine is
    /// quiescent.
    fn minima(&mut self) -> Option<(EventKey, Cycles)> {
        let wkey = self.edge.cells().filter_map(|c| c.min_key).min()?;
        let timer = self.edge.cells().map(|c| c.min_timer).min();
        Some((wkey, timer.unwrap_or(Cycles::MAX)))
    }

    /// Run one attempt at window `[_, end)` on every shard: publish it on
    /// the edge, run shard 0 inline, then wait until every worker has
    /// acked and released its cell.
    fn run_attempt(&mut self, end: Cycles, arm: bool) {
        self.edge.publish(end, arm);
        run_shard_window(&mut self.edge.take(0, 0), end, arm);
        let tiers = spin_tiers(self.edge.parties());
        for s in 1..self.edge.parties() {
            graded_wait(&tiers, || {
                self.edge.acked(s).expect("shard worker thread died")
            });
        }
    }

    /// Optimistic validation: the earliest straggler of the attempt that
    /// just ran to `end`, over all shards (`None`: the window is clean).
    fn first_straggler(&mut self, end: Cycles) -> Option<Cycles> {
        self.edge
            .cells()
            .filter_map(|c| c.rt.tw_straggler(end))
            .min()
    }

    /// Cancel the attempt that just ran: roll every shard back to the
    /// window edge, in the cells, and republish their minima. Traps the
    /// cancelled attempt found are speculative state — if real, the
    /// retry re-encounters them (its run is a prefix of the cancelled
    /// one). Returns the number of anti-messages.
    fn rollback(&mut self) -> u64 {
        let mut anti = 0;
        for mut cell in self.edge.cells() {
            anti += cell.rt.tw_rollback();
            cell.trap = None;
            publish_minima(&mut cell);
        }
        anti
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.edge.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Runtime {
    /// The conservative lookahead `L` (module docs). A fault plan's slack
    /// is additive (today always zero; the call records the dependency).
    pub(crate) fn lookahead(&self) -> Cycles {
        let wire = self.img.cost.min_wire_latency();
        let base = if self.img.reliable {
            wire.min(self.img.retx_base)
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
    /// hold state during a window) over the coordinator's image and a copy
    /// of its fault plan, with tracing redirected into the shard capture.
    pub(crate) fn make_worker(&self, s: usize, owner: &[usize], record: bool) -> Runtime {
        let mut net = Network::new();
        net.set_plan(self.net.plan().cloned());
        Runtime {
            net,
            // Namespaced so worker-created task tokens (lock-holder
            // identities, live only within one dispatched event) never
            // collide with the coordinator's or another shard's.
            next_task: (s as u64 + 1) << 48,
            sanitizer: self.sanitizer.as_ref().map(|_| Box::default()),
            #[cfg(any(test, feature = "mutants"))]
            mutant: self.mutant,
            shard: Some(Box::new(ShardCtx {
                owns: owner.iter().map(|&o| o == s).collect(),
                capture: Vec::new(),
                outbox: Vec::new(),
                record,
                ckpt: crate::timewarp::TwCkpt::new(owner.len()),
                dispatched: Vec::new(),
                min_timer: Cycles::MAX,
            })),
            ..Runtime::assemble(Arc::clone(&self.img), owner.len() as u32)
        }
    }

    /// Reuse the persistent pool when its workers were built from what
    /// [`Self::make_worker`] would build them from now — this image (the
    /// same `Arc`: a knob change copies it), fault plan, sanitizer hook,
    /// record mode and partition (which fixes the thread count); the window
    /// policy travels with each epoch. Else rebuild it: one worker runtime
    /// per shard, and a thread for each but shard 0, which runs inline.
    fn ensure_pool(&mut self, threads: usize, record: bool) {
        let p = self.nodes.len();
        let owner = shard_partition(p, threads);
        let reuse = self.pool.as_ref().is_some_and(|pool| {
            pool.owner == owner && {
                let cell0 = pool.edge.take(0, 0);
                let wk = &cell0.rt;
                Arc::ptr_eq(&wk.img, &self.img)
                    && wk.net.plan() == self.net.plan()
                    && wk.sanitizer.is_some() == self.sanitizer.is_some()
                    && wk.shard.as_ref().is_some_and(|sh| sh.record == record)
            }
        });
        if reuse {
            self.sched_stats.pool_reuses += 1;
            return;
        }
        self.pool = None; // joins any stale pool's workers first
        let cells = (0..threads).map(|s| WorkerCell {
            rt: self.make_worker(s, &owner, record),
            owned: (0..p as u32).filter(|&i| owner[i as usize] == s).collect(),
            min_key: None,
            min_timer: Cycles::MAX,
            trap: None,
        });
        let edge = Arc::new(Edge::new(cells.collect()));
        let handles = (1..threads)
            .map(|s| {
                let mine = Arc::clone(&edge);
                let h = std::thread::Builder::new()
                    .name(format!("hem-shard-{s}"))
                    .stack_size((self.img.max_seq_depth as usize).max(64) * SEQ_FRAME_BYTES)
                    .spawn(move || {
                        let run = std::panic::AssertUnwindSafe(|| worker_loop(&mine, s));
                        if std::panic::catch_unwind(run).is_err() {
                            mine.die();
                        }
                    })
                    .expect("spawn shard worker");
                edge.register(s, h.thread().clone());
                h
            })
            .collect();
        self.pool = Some(ShardPool {
            owner,
            edge,
            handles,
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
        pool.edge.register(0, std::thread::current());
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
        for mut cell in pool.edge.cells() {
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
        let mut cells: Vec<_> = pool.edge.cells().collect();
        let mut wevents = 0u64;
        for cell in &mut cells {
            let wk = &mut cell.rt;
            wevents += std::mem::take(&mut wk.sched_stats.events_dispatched);
            if wk.result.is_some() {
                self.result = wk.result.take();
            }
            wk.tw_commit();
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
    fn replay_in_serial_order(&mut self, cells: &mut [MutexGuard<'_, WorkerCell>]) -> Option<Trap> {
        // The order only matters to records and traps: with tracing off
        // and nothing trapped there is nothing to replay.
        if cells
            .iter()
            .all(|c| c.trap.is_none() && c.rt.shard.as_ref().expect("shard ctx").capture.is_empty())
        {
            return None;
        }
        let mut next = vec![0usize; cells.len()]; // each shard's next event
        loop {
            let (_, s) = cells
                .iter()
                .zip(&next)
                .enumerate()
                .filter_map(|(s, (cell, &ev))| {
                    let sh = cell.rt.shard.as_ref().expect("shard ctx");
                    sh.dispatched.get(ev).map(|&(k, _)| (k, s))
                })
                .min()?;
            let sh = cells[s].rt.shard.as_ref().expect("shard ctx");
            let ev = next[s];
            next[s] += 1;
            let start = sh.dispatched[ev].1 as usize;
            let stop = sh
                .dispatched
                .get(ev + 1)
                .map_or(sh.capture.len(), |d| d.1 as usize);
            for &record in &sh.capture[start..stop] {
                self.flush_record(record);
            }
            // A trapping dispatch ends its shard's log: nothing a
            // single-threaded run would have emitted lies past it.
            if next[s] == sh.dispatched.len() && cells[s].trap.is_some() {
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
        pool.edge.register(0, std::thread::current());
        pool.swap_nodes(&mut rt);
        pool.republish_minima();
        let published = |pool: &mut ShardPool| -> Vec<(Option<EventKey>, Cycles)> {
            pool.edge
                .cells()
                .map(|c| (c.min_key, c.min_timer))
                .collect()
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
        pool.edge.register(0, std::thread::current());
        pool.swap_nodes(&mut rt);
        pool.republish_minima();
        // Where the buffer table, each node's field arena (journaled in
        // place) and its two object tables (live and snapshot; a rollback
        // trades them) sit in memory.
        let storage = |pool: &mut ShardPool| -> Vec<(usize, Vec<[usize; 3]>)> {
            pool.edge
                .cells()
                .map(|c| {
                    let bufs = c.rt.shard.as_ref().expect("shard ctx").ckpt.bufs();
                    let nodes = c
                        .owned
                        .iter()
                        .map(|&i| {
                            let (live, buf) = (&c.rt.nodes[i as usize], &bufs[i as usize]);
                            let at = |n: &Node| n.objects.as_ptr() as usize;
                            let (lo, hi) = (at(live).min(at(buf)), at(live).max(at(buf)));
                            [live.scalars(0).as_ptr() as usize, lo, hi]
                        })
                        .collect();
                    (bufs.as_ptr() as usize, nodes)
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
            "later windows reused the same buffers, arenas and object tables"
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
    fn frame_store_needs_no_snapshot_across_rollbacks() {
        // Every ring hop runs on the stack: the arriving `bounce` builds
        // its frame in its worker's frame store, evaluates the next hop's
        // argument into it, and falls back at the touch. A rollback rewinds the
        // nodes only, never the store — so junk left in every parked
        // vector after each cancelled attempt and each committed window
        // must change nothing.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        assert!(base.stats.totals().stack_mb > 0, "hops run on the stack");
        let mut rt = start_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        rt.ensure_pool(2, true);
        let mut pool = rt.pool.take().expect("pool");
        pool.edge.register(0, std::thread::current());
        pool.swap_nodes(&mut rt);
        pool.republish_minima();
        let scribble = |pool: &mut ShardPool| -> usize {
            pool.edge.cells().map(|mut c| c.rt.frames.scribble()).sum()
        };
        let (mut rollbacks, mut levels) = (0, 0);
        while rollbacks < 4 {
            let (wkey, _) = pool.minima().expect("the ring is still bouncing");
            let mut end = wkey.0 + 1_000;
            pool.run_attempt(end, true);
            if let Some(d_min) = pool.first_straggler(end) {
                assert!(pool.rollback() > 0, "anti-messages expected");
                rollbacks += 1;
                levels += scribble(&mut pool);
                end = d_min;
                pool.run_attempt(end, true);
                assert_eq!(pool.first_straggler(end), None, "the retry is clean");
            }
            rt.commit_window(&mut pool).expect("no trap");
            levels += scribble(&mut pool);
        }
        assert!(levels > 0, "the workers ran stack activations");
        pool.swap_nodes(&mut rt);
        rt.pool = Some(pool);
        rt.sched_impl = SchedImpl::Speculative { threads: 2 };
        rt.run_to_quiescence().expect("drain");
        assert_bit_identical(&base, &Outcome::of(rt), "scribbled frame stores");
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
    fn pool_rebuilds_when_its_inputs_change() {
        let (mut rt, root, method) = ring_runtime(4, CostModel::cm5());
        rt.sched_impl = SchedImpl::Sharded { threads: 2 };
        // Every worker reads the coordinator's image, not a copy of it.
        let shared = |rt: &mut Runtime| {
            let img = Arc::clone(&rt.img);
            let mut cells = rt.pool.as_mut().expect("pool").edge.cells();
            cells.all(|c| Arc::ptr_eq(&c.rt.img, &img))
        };
        let changes: [fn(&mut Runtime); 3] = [
            // Worker networks hold a plan copy.
            |rt| rt.set_fault_plan(FaultPlan::seeded(7)),
            // Copies the image the workers share.
            |rt| rt.set_inlining(false),
            // A new thread count re-cuts the partition.
            |rt| rt.sched_impl = SchedImpl::Sharded { threads: 4 },
        ];
        rt.call(root, method, &[Value::Int(5)])
            .expect("first chunk");
        for (i, change) in changes.into_iter().enumerate() {
            assert!(shared(&mut rt), "change {i}: one image");
            change(&mut rt);
            rt.call(root, method, &[Value::Int(5)]).expect("rebuilt");
            assert_eq!(rt.stats().sched.pool_reuses, 0, "change {i}");
        }
        rt.call(root, method, &[Value::Int(5)]).expect("reused");
        assert_eq!(rt.stats().sched.pool_reuses, 1);
        assert!(shared(&mut rt), "one image after the rebuilds");
    }

    #[test]
    fn partition_is_equal_contiguous_slices() {
        for (p, threads) in [(8, 2), (10, 4), (7, 3), (4, 4), (5, 1)] {
            let owner = shard_partition(p, threads);
            for s in 0..threads {
                for o in &owner[s * p / threads..(s + 1) * p / threads] {
                    assert_eq!(*o, s, "p={p} threads={threads}");
                }
            }
        }
    }
}
