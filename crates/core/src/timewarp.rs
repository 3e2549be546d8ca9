//! Optimistic (Time-Warp) windows, for the zero-lookahead regime: the
//! second window policy of the one window engine in [`crate::shard`].
//!
//! [`crate::SchedImpl::Speculative`] runs on the sharded executor's engine —
//! the same pool, partition, epoch/ack window edge, barrier and commit
//! merge — and differs only in its `WindowPolicy`: it
//! drops the conservative premise that a window may only extend as far
//! as the lookahead guarantees no cross-shard message can land. (A
//! conservative window is an optimistic one whose validation cannot
//! fail.) This module holds what is speculation-specific: the checkpoint,
//! the validate and rollback routines the coordinator calls on each
//! worker runtime, the window-width adaptation, and the argument for
//! why it is all invisible. Each window *speculates*:
//!
//! 1. **Checkpoint.** The epoch publication tells every worker to arm a
//!    copy-on-dirty checkpoint for its owned nodes: the
//!    first time a window dispatch (or an intra-shard delivery) touches
//!    a node, the node is copied whole — objects and their field arena,
//!    contexts, inbox, transport maps, and the wire-sequence counter —
//!    into that node's standing snapshot buffer, which the worker keeps
//!    for the life of the pool (`Node`'s `clone_from`
//!    refills it in place: a handful of slice copies, no allocation once
//!    the buffer has grown to the node's size). Untouched nodes cost
//!    nothing.
//! 2. **Optimistic advance.** Shards run the ordinary index loop
//!    (`Runtime::run_index`, see [`crate::sched`]) to a window edge `end = W + δ`
//!    with `δ` well past the conservative lookahead (adaptively sized,
//!    see below), parking cross-shard sends in their outboxes exactly as
//!    the conservative executor does.
//! 3. **Validate.** At the barrier the coordinator (which owns every
//!    cell once the acks are in) scans every outbox: a
//!    packet due *inside* the window (`deliver < end`) is a
//!    **straggler** — its destination shard just ran the window without
//!    it, so the optimistic run is invalid.
//! 4. **Rollback + anti-messages.** On any straggler, *all* shards roll
//!    back, in their cells: checkpointed nodes are swapped with their
//!    snapshot buffers, parked outbox
//!    packets are discarded (each one an **anti-message** — the send
//!    never happened; the per-node wire-sequence counters rewind with
//!    the node snapshots, so a re-send re-draws the *same* sequence
//!    number and hence the same [`hem_machine::fault::FaultPlan`] fate,
//!    which is a pure function of `(seed, seq, src, dest)`), worker
//!    network counters are reset to their window-edge snapshot
//!    ([`hem_machine::net::Network::restore_counters`]), sanitizer state
//!    rewinds, the trace capture and dispatch log of the cancelled
//!    attempt are dropped, and the shards' minima are republished. The
//!    window re-runs with `end` shrunk to the earliest
//!    straggler's delivery time `d_min` — and that second attempt is
//!    provably clean (below). When `d_min == W` (a zero-latency message
//!    delivered exactly at the window base) the shrunken window would be
//!    empty, so the coordinator serially steps the global-minimum event
//!    and opens a fresh window.
//! 5. **Commit.** A validated window's shards were causally independent
//!    after the fact — exactly the conservative invariant, established
//!    by checking rather than by bounding — so the union of their runs
//!    is the serial run's event set for `[W, end)`, and per-shard state,
//!    counters, and captures fold into the coordinator through the same
//!    barrier code as under [`crate::SchedImpl::Sharded`].
//!
//! **Why the retry is clean.** Shard-local dispatch consumes no foreign
//! input inside a window (stragglers are precisely the foreign input
//! that *should* have arrived), so re-running a shard from its restored
//! checkpoint replays attempt 1 exactly, truncated at the smaller window
//! edge `d_min`. Its sends are therefore a subset of attempt 1's sends —
//! and every packet attempt 1 produced was due at or after `d_min`
//! (non-stragglers were due ≥ `end` > `d_min`; `d_min` is the minimum
//! over stragglers). A subset of packets all due ≥ `d_min` contains no
//! straggler for a window ending at `d_min`: attempt 2 validates.
//!
//! **Why the commit is the serial run.** Induction over the serial
//! schedule restricted to `[W, end)`: the serial run's next event always
//! belongs to some shard, its inputs are that shard's own state plus
//! messages validated to be due ≥ `end`, and shard-local dispatch uses
//! the identical selection rule — so each shard's in-window sequence *is*
//! the serial schedule's projection onto that shard, and makespan,
//! counters, final state, and fault fates are bit-identical to
//! [`crate::SchedImpl::EventIndex`].
//!
//! **Why the commit merge is a heads-merge, not a sort.** Under zero
//! lookahead a dispatched event can *create* a smaller-key candidate —
//! dispatching `(t, local-work, n)` may send a zero-latency message that
//! becomes `(t, message, n')` with `message < local-work` in the kind
//! order — so neither the serial dispatch order nor a shard's capture
//! buffer is key-sorted, and a global sort-by-key would interleave
//! records wrongly. The engine's merge therefore follows the shards'
//! dispatch logs (see [`crate::shard`]); in conservative windows
//! per-shard dispatch keys are non-decreasing and it degenerates to a
//! sorted merge.
//!
//! **Windows never cross timers.** `end` is capped at the earliest
//! retransmission-timer candidate, under either policy:
//! timer handlers inspect *remote* inboxes (`frame_in_flight`), which no
//! windowed worker may do. Timers are handled by coordinator serial
//! steps with full-machine visibility.
//!
//! **Adaptive window.** `δ` starts at 8× the conservative lookahead
//! (floored at 8 cycles when the lookahead is zero — the regime this
//! executor exists for), halves on every rollback (floor 1), and doubles
//! after four consecutive clean windows (capped at 64× the base). The
//! adaptation is driven only by rollback outcomes, which may differ
//! across thread counts — harmless, because *every* validated window
//! commits a serial-order prefix regardless of where its edges fall.
//!
//! **Diagnostics.** Rollback/anti-message/checkpoint counts accumulate
//! in [`SpecStats`] (see [`crate::Runtime::spec_stats`]), deliberately
//! outside `MachineStats`: like the event-index heap diagnostics, they
//! depend on the thread count, and `MachineStats` is bit-identical
//! across executors by contract.

use crate::error::Trap;
use crate::explore::Mutant;
use crate::rt::{Node, Runtime};
use crate::shard::WindowPolicy;
use hem_machine::stats::NetStats;
use hem_machine::{Cycles, NodeId};

/// A worker's window checkpoint, standing for the life of the pool:
/// copy-on-dirty node snapshots plus the window-edge values of the
/// worker-global state a rollback must rewind (network counters,
/// sanitizer state, task-token counter). Arming, saving, committing and
/// rolling back move no storage in or out — the snapshot buffers are
/// refilled in place ([`Node::clone_from`]) and swapped with the live
/// nodes on rollback — so steady-state windows do not allocate.
pub(crate) struct TwCkpt {
    /// Is a checkpoint armed for the window in flight? Conservative
    /// windows and everything between windows run disarmed, where
    /// [`Runtime::tw_save`] is a no-op.
    pub armed: bool,
    /// `bufs[i]` — the snapshot buffer of node `i` (global index, like
    /// the worker's `nodes`; only this worker's owned nodes are ever
    /// written, the rest stay empty husks). Meaningful only while
    /// `saved[i]`: otherwise it holds whatever an earlier window left.
    bufs: Vec<Node>,
    /// `saved[i]` — does `bufs[i]` hold node `i` as it stood at the
    /// current window's edge? Set by [`Runtime::tw_save`] the first time
    /// the window touches the node (which makes it the window's dirty
    /// mark).
    saved: Vec<bool>,
    /// The worker network's counter snapshot at the window edge.
    net: NetStats,
    /// The worker sanitizer's snapshot, when one is attached.
    san: Option<crate::sanitize::SanSnapshot>,
    /// Task-token counter at the window edge, so a re-run draws
    /// identical tokens.
    next_task: u64,
}

impl TwCkpt {
    /// A disarmed checkpoint with an (empty) buffer per node of a
    /// `p`-node machine.
    pub fn new(p: usize) -> TwCkpt {
        TwCkpt {
            armed: false,
            bufs: (0..p as u32).map(|i| Node::new(NodeId(i))).collect(),
            saved: vec![false; p],
            net: NetStats::default(),
            san: None,
            next_task: 0,
        }
    }

    /// The snapshot buffers, for tests that check they stay put.
    #[cfg(test)]
    pub fn bufs(&self) -> &[Node] {
        &self.bufs
    }

    /// The window stands (or was cancelled): forget its snapshots. The
    /// buffers keep their contents and capacity for the next window to
    /// overwrite; nothing is dropped.
    pub fn disarm(&mut self) {
        self.armed = false;
        self.saved.fill(false);
    }
}

/// Speculation diagnostics for [`crate::SchedImpl::Speculative`] runs;
/// all zero under every other scheduler (including the `threads <= 1`
/// fallback). Accumulates across `run_until` calls. Thread-count
/// *dependent* by nature — rollback patterns change with the partition —
/// which is why these live outside `MachineStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Speculative windows committed (validated clean).
    pub windows: u64,
    /// Events the coordinator stepped serially (timer due, or a
    /// straggler landing exactly on the window base).
    pub serial_steps: u64,
    /// Windows rolled back on straggler detection.
    pub rollbacks: u64,
    /// Speculatively sent cross-shard packets cancelled by rollbacks.
    pub anti_messages: u64,
    /// Copy-on-dirty node snapshots taken.
    pub ckpt_nodes: u64,
    /// Widest committed window, in cycles.
    pub max_window: Cycles,
}

/// The adaptive window width `δ` (module docs): a pure function of the
/// sequence of rollback outcomes.
pub(crate) struct Delta {
    width: Cycles,
    cap: Cycles,
    clean_streak: u32,
}

impl Delta {
    /// `base` is the conservative lookahead, floored at 1.
    pub fn new(base: Cycles) -> Delta {
        Delta {
            width: base.saturating_mul(8),
            cap: base.saturating_mul(64),
            clean_streak: 0,
        }
    }

    pub fn width(&self) -> Cycles {
        self.width
    }

    pub fn rolled_back(&mut self) {
        self.clean_streak = 0;
        self.width = (self.width / 2).max(1);
    }

    pub fn committed(&mut self) {
        self.clean_streak += 1;
        if self.clean_streak >= 4 {
            self.clean_streak = 0;
            self.width = self.width.saturating_mul(2).min(self.cap);
        }
    }
}

impl Runtime {
    /// Speculation diagnostics accumulated by
    /// [`crate::SchedImpl::Speculative`] runs on this runtime (zeros
    /// under every other scheduler). Unlike [`Self::stats`], these are
    /// *not* bit-identical across thread counts — they describe how much
    /// speculating the executor did, not what the machine computed.
    pub fn spec_stats(&self) -> SpecStats {
        self.spec
    }

    /// Drive the machine until every candidate is at or past `horizon`
    /// with optimistic windows. Falls back to the plain event index only
    /// for degenerate thread counts — a zero-lookahead cost model runs
    /// speculatively (that regime is the point; conservative windows
    /// cannot form there).
    pub(crate) fn run_speculative(&mut self, threads: usize, horizon: Cycles) -> Result<(), Trap> {
        let threads = threads.min(self.nodes.len());
        if threads <= 1 {
            return self.run_sharded_fallback(horizon);
        }
        // Base window scale: the conservative lookahead when there is
        // one, a small constant when there is none.
        let delta = Delta::new(self.lookahead().max(1));
        self.run_windows(threads, WindowPolicy::Optimistic(delta), horizon)
    }

    /// Worker side, at the window edge: arm the checkpoint.
    pub(crate) fn tw_arm(&mut self) {
        let sh = self.shard.as_mut().expect("shard ctx");
        let ck = &mut sh.ckpt;
        debug_assert!(
            !ck.saved.contains(&true),
            "previous window neither stood nor fell"
        );
        ck.armed = true;
        ck.net = self.net.stats();
        ck.san = self.sanitizer.as_deref().map(|s| s.snapshot());
        ck.next_task = self.next_task;
        sh.min_timer = Cycles::MAX;
    }

    /// Copy-on-dirty checkpoint hook: called before the first mutation
    /// of node `i` in a speculative window (at dispatch, and at
    /// intra-shard message delivery — cross-node state only ever changes
    /// through those two paths). No-op unless this runtime is a shard
    /// worker with an armed checkpoint.
    #[inline]
    pub(crate) fn tw_save(&mut self, i: usize) {
        let Some(sh) = self.shard.as_deref_mut() else {
            return;
        };
        let ck = &mut sh.ckpt;
        if ck.armed && !ck.saved[i] {
            ck.bufs[i].clone_from(&self.nodes[i]);
            ck.saved[i] = true;
            self.spec.ckpt_nodes += 1;
        }
    }

    /// Validate this worker's attempt at a window ending at `end`: a
    /// parked cross-shard packet due inside the window is a straggler,
    /// and so is a retransmission timer armed mid-window with a deadline
    /// inside it (workers never fire timers; the serial run would).
    /// Returns the earliest such due time.
    pub(crate) fn tw_straggler(&self, end: Cycles) -> Option<Cycles> {
        let sh = self.shard.as_ref().expect("shard ctx");
        sh.outbox
            .iter()
            .map(|(_, entry)| entry.deliver)
            .chain([sh.min_timer])
            .filter(|&due| due < end)
            .min()
    }

    /// Roll this worker back to the window edge and cancel its attempt:
    /// every dirty node trades places with its snapshot (the buffer is
    /// left holding the cancelled state, which the next save overwrites),
    /// parked packets are dropped (anti-messages; their count is
    /// returned), the capture and the dispatch log are discarded, and the
    /// worker-global state rewinds.
    pub(crate) fn tw_rollback(&mut self) -> u64 {
        let keep_wseq = self.mutant_is(Mutant::SkipWireSeqRestore);
        let sh = self.shard.as_mut().expect("shard ctx");
        let anti = sh.outbox.len() as u64;
        sh.outbox.clear();
        sh.capture.clear();
        sh.dispatched.clear();
        let ck = &mut sh.ckpt;
        debug_assert!(ck.armed, "rollback of an unarmed window");
        for (i, _) in ck.saved.iter().enumerate().filter(|(_, &saved)| saved) {
            let (node, buf) = (&mut self.nodes[i], &mut ck.bufs[i]);
            std::mem::swap(node, buf);
            if keep_wseq {
                // Mutation site (`skip-wire-seq-restore`): keep the
                // speculatively advanced counter, so re-sends draw
                // fresh sequence numbers and re-roll their fault
                // fates.
                node.wire_seq = buf.wire_seq;
            }
        }
        self.net.restore_counters(&ck.net);
        if let (Some(sn), Some(snap)) = (self.sanitizer.as_deref_mut(), ck.san.as_ref()) {
            sn.rollback(snap);
        }
        self.next_task = ck.next_task;
        ck.disarm();
        self.result = None;
        self.completions.clear();
        self.sched_stats.events_dispatched = 0;
        anti
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cont::Continuation;
    use crate::context::{ActFrame, WaitState};
    use crate::fixture::{assert_bit_identical, run_ring, start_ring, Exec, Outcome};
    use crate::msg::{Msg, Packet};
    use crate::object::DeferredInvoke;
    use crate::sched::SchedImpl;
    use crate::transport::InboxEntry;
    use crate::{ExecMode, InterfaceSet};
    use hem_ir::{MethodId, ObjRef, ProgramBuilder, Value};
    use hem_machine::cost::CostModel;
    use hem_machine::fault::FaultPlan;
    use hem_machine::net::{Network, WireClass};
    use hem_machine::NodeId;
    use proptest::prelude::*;

    #[test]
    fn speculative_chunks_share_the_pool_and_fold_stats_once() {
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        let mut rt = start_ring(
            SchedImpl::Speculative { threads: 2 },
            CostModel::cm5(),
            None,
        );
        for chunk in 1..=8 {
            let horizon = base.makespan * chunk / 8;
            rt.run_until(horizon).expect("chunk");
            // A chunk with nothing left below its horizon folds the
            // workers' tallies again: they must have been drained.
            let (spec, net) = (rt.spec_stats(), rt.stats().net);
            rt.run_until(horizon).expect("empty chunk");
            assert_eq!(rt.spec_stats(), spec, "chunk {chunk}: SpecStats re-folded");
            assert_eq!(rt.stats().net, net, "chunk {chunk}: net counters re-folded");
        }
        rt.run_to_quiescence().expect("drain");
        let out = Outcome::of(rt);
        assert_bit_identical(&base, &out, "chunked");
        let (st, spec) = (out.stats, out.spec);
        assert!(st.sched.pool_reuses > 0, "later chunks reused the pool");
        assert_eq!(st.sched.runtime_moves, 0, "zero Runtime moves");
        assert_eq!(st.sched.coord_roundtrips, 0, "zero channel round-trips");
        assert!(
            spec.windows > 0 && spec.ckpt_nodes > 0,
            "speculated: {spec:?}"
        );
        // Every attempt checkpoints each of the 4 nodes at most once.
        assert!(
            spec.ckpt_nodes <= 4 * (spec.windows + spec.rollbacks),
            "checkpoints double-counted across chunks: {spec:?}"
        );
    }

    #[test]
    fn policies_alternate_on_one_runtime_and_one_pool() {
        // The executor travels with each `run_until` chunk, not with the
        // runtime (and the window policy with each window, not with the
        // pool): any executor up to mid-run followed by any other is
        // still the event-index run, bit for bit.
        let base = run_ring(SchedImpl::EventIndex, CostModel::cm5(), None);
        let sharded = Exec::Impl(SchedImpl::Sharded { threads: 2 });
        let spec = Exec::Impl(SchedImpl::Speculative { threads: 2 });
        let all = [
            Exec::Impl(SchedImpl::EventIndex),
            sharded,
            spec,
            Exec::Reference,
        ];
        for first in all {
            for second in all {
                let what = format!("{first:?} then {second:?}");
                let mut rt = start_ring(first, CostModel::cm5(), None);
                rt.run_until(base.makespan / 2).expect("first chunk");
                assert!(!rt.is_quiescent(), "{what}: switched mid-run");
                second.arm(&mut rt);
                rt.run_to_quiescence().expect("second chunk");
                assert!(rt.is_quiescent(), "{what}: drained");
                let out = Outcome::of(rt);
                assert_bit_identical(&base, &out, &what);
                let windowed = |e: Exec| e == sharded || e == spec;
                if windowed(first) && windowed(second) {
                    assert_eq!(
                        out.stats.sched.pool_reuses, 1,
                        "{what}: one pool served both"
                    );
                }
                assert_eq!(
                    out.spec.windows > 0,
                    first == spec || second == spec,
                    "{what}: optimistic windows ran iff asked for"
                );
            }
        }
    }

    /// Everything a rollback must restore on a node, in comparable form:
    /// the `Debug` rendering of every field — object table and lock
    /// waiters, arena values and span table, context slab with
    /// generations and free list, `ready`/`granted`, the inbox in heap
    /// order, counters, clocks, transport and collective maps.
    fn fingerprint(n: &Node) -> String {
        format!("{n:#?}")
    }

    /// A two-node machine whose node 0 hosts two instances of a locked
    /// class with a scalar and an array field — every kind of per-node
    /// storage a snapshot has to carry.
    fn storage_runtime() -> Runtime {
        let mut pb = ProgramBuilder::new();
        let c = pb.class("C", true);
        pb.field(c, "a");
        pb.array_field(c, "xs");
        let m = pb.declare(c, "noop", 1);
        pb.define(m, |mb| mb.reply(mb.arg(0)));
        let mut rt = Runtime::new(
            pb.finish(),
            2,
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .expect("valid program");
        rt.alloc_object_by_name("C", NodeId(0));
        rt.alloc_object_by_name("C", NodeId(0));
        rt
    }

    /// One random mutation against node 0 — the kinds of writes a
    /// speculative window performs.
    fn apply_op(rt: &mut Runtime, op: (u8, u64)) {
        let (kind, x) = op;
        let n = &mut rt.nodes[0];
        let obj = (x % 2) as u32;
        let frame = |f: &mut ActFrame| {
            let o = ObjRef {
                node: NodeId(0),
                index: obj,
            };
            f.reset(MethodId(0), o, 3, 2, &[Value::Int(x as i64)]);
        };
        match kind % 10 {
            0 => n.scalars_mut(obj)[0] = Value::Int(x as i64),
            1 => n.inbox.push(InboxEntry {
                deliver: x % 1000,
                seq: x,
                src: NodeId(1),
                msg: Packet::Raw(Msg::Invoke {
                    obj,
                    method: MethodId(0),
                    args: vec![Value::Int(x as i64); (x % 3) as usize],
                    cont: Continuation::Discard,
                    forwarded: false,
                }),
                req: 0,
                retx: false,
            }),
            2 => {
                n.inbox.pop();
            }
            3 => {
                n.wire_seq = n.wire_seq.wrapping_add(1 + x % 3);
                n.time = n.time.max(x % 500);
            }
            // ArrNew: same length, grown, shrunk — then written.
            4 => {
                let len = match x % 3 {
                    0 => n.array(obj, 0).len(),
                    1 => n.array(obj, 0).len() + 1 + (x % 5) as usize,
                    _ => n.array(obj, 0).len() / 2,
                };
                if let Some(v) = n.arr_new(obj, 0, len).last_mut() {
                    *v = Value::Int(x as i64);
                }
            }
            5 => {
                let i = n.ctxs.alloc(Continuation::Root, WaitState::Ready, frame);
                n.ready.push_back(i);
            }
            6 => {
                if let Some(i) = n.ready.pop_front() {
                    n.ctxs.release(i);
                }
            }
            7 => {
                let d = DeferredInvoke {
                    method: MethodId(0),
                    args: vec![Value::Int(x as i64)],
                    cont: Continuation::Discard,
                    forwarded: false,
                    req: x,
                };
                let lock = n.objects[obj as usize].lock.as_mut().expect("locked class");
                if x % 2 == 0 {
                    lock.waiters.push_back(d);
                } else {
                    lock.waiters.pop_front();
                    n.granted.push_back((obj, d));
                }
            }
            8 => {
                n.granted.pop_front();
            }
            _ => {
                let class = n.objects[0].class;
                n.new_object(&rt.img.layouts[class.idx()], class);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// One standing buffer, several windows: each window checkpoints
        /// into whatever the buffer last held — nothing, an earlier
        /// committed state, or (after a rollback's swap) the *later*
        /// cancelled state — and `clone_from` must still equal a fresh
        /// `clone`; a rolled-back window's swap must restore the
        /// window-edge fingerprint exactly, arena length and span table
        /// included.
        #[test]
        fn standing_snapshot_buffer_round_trips(
            pre in proptest::collection::vec((0u8..10, 0u64..10_000), 0..24),
            windows in proptest::collection::vec(
                (proptest::collection::vec((0u8..10, 0u64..10_000), 1..24), 0u8..2),
                1..5,
            ),
        ) {
            let mut rt = storage_runtime();
            for op in pre {
                apply_op(&mut rt, op);
            }
            let mut buf = Node::new(NodeId(0));
            for (ops, rolls_back) in windows {
                let at_edge = fingerprint(&rt.nodes[0]);
                // Checkpoint exactly as tw_save does.
                buf.clone_from(&rt.nodes[0]);
                prop_assert_eq!(&fingerprint(&buf), &fingerprint(&rt.nodes[0].clone()));
                prop_assert_eq!(&fingerprint(&buf), &at_edge);
                for op in ops {
                    apply_op(&mut rt, op);
                }
                if rolls_back == 1 {
                    // Rollback exactly as the straggler path does.
                    std::mem::swap(&mut rt.nodes[0], &mut buf);
                    prop_assert_eq!(&fingerprint(&rt.nodes[0]), &at_edge);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Interleaved speculate/rollback cycles against the network: after
        /// each `restore_counters` the full `NetStats` word — data, ack,
        /// retx, faults — is exactly the window-edge snapshot, with and
        /// without a fault plan rolling fates.
        #[test]
        fn net_counter_rollback_is_exact(
            seed in 0u64..1_000,
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u64..1 << 20, 0u8..3, 1u64..64), 1..12),
                1..6,
            ),
        ) {
            let mut net: Network<Packet> = Network::new();
            if seed % 2 == 1 {
                net.set_plan(Some(FaultPlan::seeded(seed)));
            }
            let mut at = 0;
            for sends in rounds {
                let snap = net.stats();
                for (seq, class, words) in sends {
                    at += 1;
                    let class = match class {
                        0 => WireClass::Data,
                        1 => WireClass::Ack,
                        _ => WireClass::Retx,
                    };
                    net.send_tagged(
                        seq,
                        NodeId(0),
                        NodeId(1),
                        at,
                        words,
                        class,
                        Packet::Ack { seq },
                    );
                }
                // Anti-messages: the attempt is cancelled wholesale.
                net.restore_counters(&snap);
                prop_assert_eq!(net.stats(), snap);
            }
        }
    }
}
