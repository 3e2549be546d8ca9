//! The runtime: simulated machine state, the reliable transport, and the
//! low-level operations (slot filling, continuation delivery, locks,
//! context fallback) shared by the two interpreters. Which event runs
//! next is [`crate::sched`]'s business.

use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, CtxTable, SlotState, WaitState};
use crate::error::Trap;
use crate::explore::Mutant;
use crate::msg::{Msg, Packet};
use crate::object::{Arena, ClassLayout, DeferredInvoke, FieldKind, LockHolder, Object, Span};
use crate::sched::{SchedEntry, SchedImpl};
use crate::{ExecMode, InterfaceSet, SchemaMap};
use hem_analysis::Analysis;
use hem_ir::{ClassId, ContRef, FieldId, MethodId, ObjRef, Program, ValidationError, Value};
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::net::Network;
use hem_machine::stats::{Counters, MachineStats, SchedStats};
use hem_machine::{Cycles, NodeId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

/// A packet sitting in a node's inbox awaiting its delivery time.
#[derive(Debug, Clone)]
pub(crate) struct InboxEntry {
    pub deliver: Cycles,
    pub seq: u64,
    pub src: NodeId,
    pub msg: Packet,
    /// Blame tag of the step that injected the packet (request id + 1;
    /// 0 = untagged). Not part of the ordering key: delivery order is
    /// still exactly `(deliver, seq)`.
    pub req: u64,
    /// Whether this wire copy was a retransmission (blame attributes its
    /// transit to the retransmit penalty).
    pub retx: bool,
}

impl PartialEq for InboxEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.deliver, self.seq) == (other.deliver, other.seq)
    }
}
impl Eq for InboxEntry {}
impl PartialOrd for InboxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InboxEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (deliver, seq).
        (other.deliver, other.seq).cmp(&(self.deliver, self.seq))
    }
}

/// An unacknowledged data frame retained by its sender for retransmission
/// (reliable transport only).
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    /// The payload, re-framed verbatim on every retransmission.
    pub msg: Msg,
    /// Wire size charged per copy.
    pub words: u64,
    /// Wire latency of the original send (requests and replies differ).
    pub latency: Cycles,
    /// Sender-side compose cost re-charged per retransmission.
    pub send_cost: Cycles,
    /// Virtual time at which the frame times out (keys `tx_timers`).
    pub deadline: Cycles,
    /// Retransmissions so far (drives the exponential backoff).
    pub attempt: u32,
    /// Blame tag of the original send (request id + 1; 0 = untagged);
    /// retransmitted copies re-carry it.
    pub req: u64,
}

/// One simulated processor. `Clone::clone_from` is the speculative
/// executor's checkpoint primitive: it copies the complete per-node state
/// — objects and their field arena, contexts, inbox, transport maps, and
/// the wire sequence counter — into a standing buffer, reusing the
/// buffer's storage, so swapping the buffer back rewinds everything a
/// rolled-back window could have touched (see [`crate::timewarp`]).
#[derive(Debug)]
pub(crate) struct Node {
    pub id: NodeId,
    pub time: Cycles,
    pub objects: Vec<Object>,
    /// Field storage of every object in `objects`.
    pub arena: Arena,
    pub ctxs: CtxTable,
    pub ready: VecDeque<u32>,
    /// Lock grants awaiting execution (drained before `ready`).
    pub granted: VecDeque<(u32, DeferredInvoke)>,
    pub inbox: BinaryHeap<InboxEntry>,
    pub counters: Counters,
    /// Smallest `(time, kind)` key this node currently has in the event
    /// index, if any — pushes that would not improve it are suppressed, so
    /// a node keeps O(1) live entries however long its queues get.
    pub sched_noted: Option<(Cycles, u8)>,
    /// Transport sender state: next per-destination sequence number.
    pub tx_next: BTreeMap<u32, u64>,
    /// Transport sender state: unacked frames keyed by `(dest, seq)`.
    pub tx_pending: BTreeMap<(u32, u64), Pending>,
    /// Retransmit timer index over `tx_pending`: `(deadline, dest, seq)`,
    /// minimum first. BTree (not heap) so ack-time removal is exact.
    pub tx_timers: BTreeSet<(Cycles, u32, u64)>,
    /// Transport receiver state: per-source floor — every seq below it has
    /// been delivered to the application exactly once.
    pub rx_floor: BTreeMap<u32, u64>,
    /// Transport receiver state: out-of-order seqs at/above the floor.
    pub rx_seen: BTreeMap<u32, BTreeSet<u64>>,
    /// Next wire sequence counter for packets *sent* by this node. The
    /// injected sequence number is `(wire_seq << 20) | id`, a pure
    /// function of the sender's own execution history — so fault fates
    /// and same-cycle delivery order are identical across every
    /// [`SchedImpl`] and thread count, which a network-global counter
    /// (dependent on the global interleaving of sends) could not be.
    pub wire_seq: u64,
    /// In-flight modeled-collective fold state hosted on this node, keyed
    /// `(initiator node, initiator-local id, tree position)` — position 0
    /// is the initiator's root record, member rank r sits at r + 1.
    /// Multiple members of one collective can share a node (and the
    /// initiator can be a member of its own group), hence the position in
    /// the key. Lives in `Node` so the speculative executor's
    /// copy-on-dirty checkpoint rewinds it for free.
    pub coll: BTreeMap<(u32, u64, u32), CollState>,
    /// Contributions that beat their position's down leg here (jitter and
    /// retransmission reorder legs): stashed in arrival order, drained
    /// into the fold state the moment the down leg creates it.
    pub coll_early: BTreeMap<(u32, u64, u32), Vec<(u8, Value)>>,
    /// Next initiator-local collective id — per-node, so ids are a pure
    /// function of the initiating node's own execution history (the same
    /// argument as `wire_seq`).
    pub coll_next: u64,
}

/// Fold state for one tree position of one in-flight modeled collective
/// (see [`Runtime::issue_collective`]). `acc` slot 0 is the position's own
/// contribution, slots 1 and 2 its left and right tree children's folded
/// sub-trees; contributions arrive in any order but are always *folded* in
/// slot order, so reduction results are arrival-order independent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CollState {
    /// Which collective this record belongs to.
    pub kind: crate::msg::CollKind,
    /// Contributions received so far.
    pub acc: [Option<Value>; 3],
    /// Bitmask of `acc` slots that must fill before the fold completes.
    pub need: u8,
    /// Bitmask of `acc` slots filled so far.
    pub filled: u8,
    /// Node hosting the tree parent (up-leg destination; unused at pos 0).
    pub parent: NodeId,
    /// Tree position of the parent (unused at pos 0).
    pub parent_pos: u32,
    /// Fold slot this position fills at its parent (unused at pos 0).
    pub child_ix: u8,
    /// Root record only: where the folded result is delivered.
    pub cont: Option<Continuation>,
}

impl Clone for Node {
    fn clone(&self) -> Self {
        let mut n = Node::new(self.id);
        n.clone_from(self);
        n
    }

    /// Field-wise, so every vector, deque and heap refills its existing
    /// storage: once a buffer has held a node, snapshotting that node
    /// into it again allocates only if the node has grown past it. (The
    /// transport and collective maps re-clone; they are empty on a
    /// fault-free run.) The destructuring makes a forgotten field a
    /// compile error.
    fn clone_from(&mut self, src: &Self) {
        let Node {
            id,
            time,
            objects,
            arena,
            ctxs,
            ready,
            granted,
            inbox,
            counters,
            sched_noted,
            tx_next,
            tx_pending,
            tx_timers,
            rx_floor,
            rx_seen,
            wire_seq,
            coll,
            coll_early,
            coll_next,
        } = src;
        self.id = *id;
        self.time = *time;
        self.objects.clone_from(objects);
        self.arena.clone_from(arena);
        self.ctxs.clone_from(ctxs);
        self.ready.clone_from(ready);
        self.granted.clone_from(granted);
        self.inbox.clone_from(inbox);
        self.counters.clone_from(counters);
        self.sched_noted = *sched_noted;
        self.tx_next.clone_from(tx_next);
        self.tx_pending.clone_from(tx_pending);
        self.tx_timers.clone_from(tx_timers);
        self.rx_floor.clone_from(rx_floor);
        self.rx_seen.clone_from(rx_seen);
        self.wire_seq = *wire_seq;
        self.coll.clone_from(coll);
        self.coll_early.clone_from(coll_early);
        self.coll_next = *coll_next;
    }
}

impl Node {
    pub(crate) fn new(id: NodeId) -> Self {
        Node {
            id,
            time: 0,
            objects: Vec::new(),
            arena: Arena::default(),
            ctxs: CtxTable::default(),
            ready: VecDeque::new(),
            granted: VecDeque::new(),
            inbox: BinaryHeap::new(),
            counters: Counters::default(),
            sched_noted: None,
            tx_next: BTreeMap::new(),
            tx_pending: BTreeMap::new(),
            tx_timers: BTreeSet::new(),
            rx_floor: BTreeMap::new(),
            rx_seen: BTreeMap::new(),
            wire_seq: 0,
            coll: BTreeMap::new(),
            coll_early: BTreeMap::new(),
            coll_next: 0,
        }
    }

    pub(crate) fn has_local_work(&self) -> bool {
        !self.granted.is_empty() || !self.ready.is_empty()
    }

    /// Allocate a nil-initialized object of `class`; returns its index.
    pub(crate) fn new_object(&mut self, layout: &ClassLayout, class: ClassId) -> u32 {
        self.objects.push(self.arena.instantiate(layout, class));
        (self.objects.len() - 1) as u32
    }

    /// Scalar fields of object `obj`.
    #[inline]
    pub(crate) fn scalars(&self, obj: u32) -> &[Value] {
        self.arena.scalars(&self.objects[obj as usize])
    }

    #[inline]
    pub(crate) fn scalars_mut(&mut self, obj: u32) -> &mut [Value] {
        self.arena.scalars_mut(&self.objects[obj as usize])
    }

    /// Array field `a` of object `obj`.
    #[inline]
    pub(crate) fn array(&self, obj: u32, a: u16) -> &[Value] {
        self.arena.array(&self.objects[obj as usize], a)
    }

    #[inline]
    pub(crate) fn array_mut(&mut self, obj: u32, a: u16) -> &mut [Value] {
        self.arena.array_mut(&self.objects[obj as usize], a)
    }

    /// Re-create array field `a` of object `obj` as `len` nils.
    pub(crate) fn arr_new(&mut self, obj: u32, a: u16, len: usize) -> &mut [Value] {
        self.arena.arr_new(&self.objects[obj as usize], a, len)
    }

    /// Record receipt of transport seq `seq` from `src`; returns true when
    /// it was already delivered (i.e. this copy is a duplicate). The floor
    /// compacts the seen-set so memory stays proportional to reordering,
    /// not traffic.
    fn rx_mark(&mut self, src: u32, seq: u64) -> bool {
        let floor = self.rx_floor.entry(src).or_insert(0);
        if seq < *floor {
            return true;
        }
        let seen = self.rx_seen.entry(src).or_default();
        if !seen.insert(seq) {
            return true;
        }
        while seen.remove(floor) {
            *floor += 1;
        }
        false
    }
}

/// Buffered slot fills targeting the context currently being stepped (the
/// stepper holds its frame out of the table, so fills are applied when the
/// stepper next drains).
pub(crate) struct ActiveCtx {
    pub node: usize,
    pub id: u32,
    pub gen: u32,
    pub fills: Vec<(u16, Value)>,
}

/// One node's object snapshot — `(class, scalar fields, array fields)` in
/// allocation order; see [`Runtime::object_state`].
pub type NodeObjectState = Vec<(u32, Vec<Value>, Vec<Vec<Value>>)>;

/// The hybrid-execution-model runtime over a simulated multicomputer.
///
/// See the [crate docs](crate) for the model and an example.
pub struct Runtime {
    pub(crate) program: Arc<Program>,
    pub(crate) layouts: Vec<ClassLayout>,
    pub(crate) schemas: SchemaMap,
    /// The cost model in force.
    pub cost: CostModel,
    /// The execution mode in force.
    pub mode: ExecMode,
    pub(crate) nodes: Vec<Node>,
    pub(crate) net: Network<Packet>,
    pub(crate) next_task: u64,
    pub(crate) current_task: u64,
    /// Blame tag of the work currently executing (request id + 1; 0 =
    /// untagged). Step-transient like `current_task`: set when a
    /// dispatched event (or nested poll handling) begins, read when the
    /// step sends messages, defers on locks, or allocates contexts —
    /// never consulted across steps, so Time-Warp rollback needs no
    /// checkpointing for it (all durable tag state lives inside `Node`-
    /// contained structures, which node checkpoints already rewind).
    pub(crate) current_req: u64,
    pub(crate) result: Option<Value>,
    pub(crate) active: Option<ActiveCtx>,
    pub(crate) seq_depth: u32,
    /// Maximum sequential (host-stack) nesting before forcing a fallback
    /// (the analogue of a stack-overflow check; Olden and Stacklets do
    /// stack checks, the paper's C implementation relies on large stacks).
    pub max_seq_depth: u32,
    /// Speculative inlining of local, unlocked, non-blocking leaf calls
    /// (§4.2 includes it in all measurements; ablation benches turn it
    /// off).
    pub enable_inlining: bool,
    /// The executor [`Self::run_until`] drives the machine with. May be
    /// switched between `run_until` chunks: every executor resumes
    /// exactly where the previous one stopped.
    pub sched_impl: SchedImpl,
    /// Global event index (see [`crate::sched`]); `None` while an executor
    /// that does not maintain it — windows, the reference loop — has the
    /// machine, and on a window coordinator between its chunks.
    pub(crate) sched: Option<BinaryHeap<SchedEntry>>,
    pub(crate) sched_stats: SchedStats,
    pub(crate) trace_buf: crate::trace::Trace,
    /// Zero-virtual-time streaming trace consumer (see
    /// [`crate::trace::Observer`]); when attached, records are generated
    /// and forwarded even if the buffering trace is off.
    pub(crate) observer: Option<Box<dyn crate::trace::Observer>>,
    /// Online invariant sanitizer (see [`crate::sanitize`]); off by
    /// default, where every hook is one `Option` discriminant test.
    pub(crate) sanitizer: Option<Box<crate::sanitize::Sanitizer>>,
    /// The reference dispatch loop's state (see [`crate::explore`]):
    /// armed only by conformance tests, where it overrides
    /// [`Self::sched_impl`]; `None` on every production and worker
    /// runtime.
    pub(crate) explore: Option<Box<crate::explore::Explore>>,
    /// Seeded protocol mutant under test (`HEM_MUTANT`); see
    /// [`Mutant`]. Test/mutants builds only.
    #[cfg(any(test, feature = "mutants"))]
    pub(crate) mutant: Option<Mutant>,
    /// Reliable transport (seq/ack/retransmit framing) engaged? Off by
    /// default: the raw framing is bit-identical to the pre-transport
    /// runtime and correct on a fault-free wire.
    pub(crate) reliable: bool,
    /// Base retransmission timeout in virtual cycles (attempt 0 waits this
    /// long; each retry doubles it up to [`Self::retx_cap`]). Zero means
    /// "derive from the cost model" at [`Self::enable_reliable_transport`].
    pub retx_base: Cycles,
    /// Upper bound on the retransmission backoff.
    pub retx_cap: Cycles,
    /// Arrival cutoff for send-time network polls: the start time of the
    /// event currently being dispatched ([`Cycles::MAX`] outside the
    /// dispatch loop, e.g. during a root invocation). A poll services only
    /// messages that had arrived by the time the current event began —
    /// without the cutoff, a node whose clock ran ahead mid-event could
    /// observe a message sent *during the same scheduler step window*,
    /// making nested handling depend on host execution order and breaking
    /// the sharded executor's bit-identity (see [`crate::shard`]).
    pub(crate) poll_floor: Cycles,
    /// `(time, kind, node)` key of the event currently being dispatched,
    /// or [`Self::SAN_ROOT_STEP`] outside the dispatch loop (during a
    /// root invocation). The sanitizer's root-double-reply check uses it
    /// as the "same event step" identity: unlike a dispatch *count*, the
    /// key is invariant across scheduler implementations (shard workers
    /// count events per window, so counters collide across windows).
    pub(crate) san_step: (Cycles, u8, u32),
    /// Present iff this runtime is a shard worker inside
    /// windowed execution: trace capture, the cross-shard
    /// outbox, and the node-ownership map (see [`crate::shard`]). `None`
    /// on every user-constructed runtime, including the window
    /// coordinator itself.
    pub(crate) shard: Option<Box<crate::shard::ShardCtx>>,
    /// Sequence counter for externally injected requests (open-system
    /// service mode). External arrivals order *after* wire traffic at the
    /// same delivery cycle: their inbox sequence is `(1 << 63) | ext_seq`,
    /// above any wire sequence (`(wire_seq << 20) | node`, which stays
    /// below `2^63` until a single node sends `2^43` messages).
    pub(crate) ext_seq: u64,
    /// Completion log for [`Continuation::Request`] replies: request id →
    /// serving node's clock at reply delivery. A `BTreeMap` so iteration
    /// order is the id order, independent of completion order (and of
    /// which shard worker logged it).
    pub(crate) completions: std::collections::BTreeMap<u64, Cycles>,
    /// Speculation diagnostics for [`SchedImpl::Speculative`] runs
    /// (windows, rollbacks, anti-messages, checkpointed nodes); all zero
    /// under every other scheduler. Deliberately *not* part of
    /// [`MachineStats`]: the counts depend on the thread count, like the
    /// heap diagnostics. See [`crate::timewarp::SpecStats`].
    pub(crate) spec: crate::timewarp::SpecStats,
    /// Optional per-node busy-time weights for the sharded partition (see
    /// [`Self::set_shard_weights`]); `None` partitions into equal
    /// contiguous slices. Host-time tuning only — any contiguous
    /// partition yields bit-identical observables.
    pub(crate) shard_weights: Option<Vec<u64>>,
    /// Persistent shard pool, shared by both threaded executors: worker
    /// threads with nodes pinned to shards,
    /// kept alive across windows *and* across `run_until` chunks so the
    /// steady-state window edge is an atomic epoch publication with zero
    /// runtime moves and zero coordinator channel round-trips (see
    /// [`crate::shard`]). Built lazily on the first windowed run, rebuilt
    /// when [`Self::pool_gen`] or the pool key changes.
    pub(crate) pool: Option<crate::shard::ShardPool>,
    /// Generation counter for pool-invalidating configuration changes
    /// (fault plan, reliable-transport parameters, shard weights). Worker
    /// runtimes snapshot that configuration when the pool is built, so
    /// any later change must force a rebuild.
    pub(crate) pool_gen: u64,
}

impl Runtime {
    /// Build a runtime: validates the program, runs the schema-selection
    /// analysis under `interfaces`, and sets up `n_nodes` empty nodes.
    pub fn new(
        program: Program,
        n_nodes: u32,
        cost: CostModel,
        mode: ExecMode,
        interfaces: InterfaceSet,
    ) -> Result<Runtime, Vec<ValidationError>> {
        program.validate()?;
        // Wire sequence numbers pack the sender id into their low 20 bits
        // (see `Node::wire_seq`).
        assert!(
            n_nodes < (1 << 20),
            "node count {n_nodes} exceeds the 2^20 wire-sequence id space"
        );
        for (i, m) in program.methods.iter().enumerate() {
            if m.slots > 64 {
                return Err(vec![ValidationError {
                    method: Some(MethodId(i as u32)),
                    at: None,
                    what: format!("{} slots exceed the 64-slot touch mask", m.slots),
                }]);
            }
        }
        let analysis = Analysis::analyze(&program);
        let schemas = analysis.schemas(interfaces);
        let layouts = program.classes.iter().map(ClassLayout::of).collect();
        let program = Arc::new(program);
        Ok(Self::assemble(
            program, layouts, schemas, cost, mode, n_nodes,
        ))
    }

    /// An idle `n_nodes` machine over an already-analysed program, every
    /// field at its initial value ([`Self::new`], and the shard pool's
    /// worker runtimes, which share the coordinator's program).
    pub(crate) fn assemble(
        program: Arc<Program>,
        layouts: Vec<ClassLayout>,
        schemas: SchemaMap,
        cost: CostModel,
        mode: ExecMode,
        n_nodes: u32,
    ) -> Runtime {
        Runtime {
            program,
            layouts,
            schemas,
            cost,
            mode,
            nodes: (0..n_nodes).map(|i| Node::new(NodeId(i))).collect(),
            net: Network::new(),
            next_task: 0,
            current_task: 0,
            current_req: 0,
            result: None,
            active: None,
            seq_depth: 0,
            max_seq_depth: 1200,
            enable_inlining: true,
            sched_impl: SchedImpl::default(),
            sched: Some(BinaryHeap::new()),
            sched_stats: SchedStats::default(),
            trace_buf: crate::trace::Trace::default(),
            observer: None,
            sanitizer: None,
            explore: None,
            #[cfg(any(test, feature = "mutants"))]
            mutant: Mutant::from_env(),
            reliable: false,
            retx_base: 0,
            retx_cap: 0,
            poll_floor: Cycles::MAX,
            san_step: Self::SAN_ROOT_STEP,
            shard: None,
            ext_seq: 0,
            completions: std::collections::BTreeMap::new(),
            spec: crate::timewarp::SpecStats::default(),
            shard_weights: None,
            pool: None,
            pool_gen: 0,
        }
    }

    /// Sentinel [`Self::san_step`] for "not inside a dispatched event"
    /// (the root-invocation phase of [`Self::call`]). No real event can
    /// carry this key.
    pub(crate) const SAN_ROOT_STEP: (Cycles, u8, u32) = (Cycles::MAX, u8::MAX, u32::MAX);

    /// Engage the reliable transport: every request and reply travels as a
    /// sequenced data frame, is acknowledged by the receiver, retransmitted
    /// on a capped exponential backoff (in virtual time) until acked, and
    /// duplicate-suppressed at the receiver. Call before the first `call`;
    /// idempotent. Unless already set, the timeout base is derived as 4×
    /// the cost model's round trip and capped at 64× that.
    pub fn enable_reliable_transport(&mut self) {
        if !self.reliable {
            // Worker runtimes in a live shard pool snapshot the transport
            // configuration; force a rebuild on the next windowed run.
            self.pool_gen += 1;
        }
        self.reliable = true;
        if self.retx_base == 0 {
            let rtt = self.cost.msg_latency
                + self.cost.handler
                + self.cost.ack_overhead
                + self.cost.reply_latency
                + self.cost.msg_send;
            self.retx_base = 4 * rtt.max(1);
            self.retx_cap = 64 * self.retx_base;
        }
    }

    /// Install a deterministic fault schedule on the interconnect and
    /// engage the reliable transport (a lossy wire without retransmission
    /// would wedge the machine or silently corrupt the run).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_plan(Some(plan));
        self.pool_gen += 1; // worker networks hold a plan copy
        self.enable_reliable_transport();
    }

    /// Install (or clear, with `None`) per-node busy-time weights for the
    /// threaded executors' partition. The partition stays contiguous but
    /// cuts shard boundaries by cumulative weight instead of node count,
    /// so a placement whose hot nodes sit in one contiguous slice no
    /// longer idles most workers. Feed this from a profile —
    /// `hem_obs::Rollup::node_busy_weights` exports exactly this vector.
    ///
    /// Host-time tuning only: the window protocol and the merge-by-key
    /// rule are partition-independent, so traces, makespan, stats, and
    /// rollups stay bit-identical under any weighting.
    pub fn set_shard_weights(&mut self, weights: Option<Vec<u64>>) {
        self.shard_weights = weights;
        self.pool_gen += 1; // the pool pins the node→shard map
    }

    /// The contiguous node→shard map the threaded executors use at
    /// this thread count, honoring any installed
    /// [`Self::set_shard_weights`]. Diagnostic: lets callers and tests
    /// inspect how a profile-guided weighting splits the machine.
    pub fn shard_plan(&self, threads: usize) -> Vec<usize> {
        crate::shard::shard_partition(self.nodes.len(), threads, self.shard_weights.as_deref())
    }

    /// Is the reliable transport engaged?
    pub fn reliable_transport(&self) -> bool {
        self.reliable
    }

    /// Is the named protocol mutant active? Always false outside
    /// test/mutants builds — the optimizer removes the mutation sites.
    #[inline]
    pub(crate) fn mutant_is(&self, m: Mutant) -> bool {
        #[cfg(any(test, feature = "mutants"))]
        {
            self.mutant == Some(m)
        }
        #[cfg(not(any(test, feature = "mutants")))]
        {
            let _ = m;
            false
        }
    }

    // ================= setup / inspection API =================

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The selected sequential schemas.
    pub fn schemas(&self) -> &SchemaMap {
        &self.schemas
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a method id by class and method name.
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        self.program.find_method(class, name)
    }

    /// Allocate an object of `class` on `node` (harness-side placement —
    /// data layout is an input to the execution model).
    pub fn alloc_object(&mut self, class: ClassId, node: NodeId) -> ObjRef {
        let index = self.nodes[node.idx()].new_object(&self.layouts[class.idx()], class);
        ObjRef { node, index }
    }

    /// Allocate by class name; panics on unknown class (harness error).
    pub fn alloc_object_by_name(&mut self, class: &str, node: NodeId) -> ObjRef {
        let cid = self
            .program
            .classes
            .iter()
            .position(|c| c.name == class)
            .unwrap_or_else(|| panic!("unknown class {class}"));
        self.alloc_object(ClassId(cid as u32), node)
    }

    /// Follow forwarding addresses to an object's current location
    /// (harness-side: free, global view).
    pub fn resolve_ref(&self, mut o: ObjRef) -> ObjRef {
        let mut hops = 0;
        while let Some(n) = self.nodes[o.node.idx()].objects[o.index as usize].moved_to {
            o = n;
            hops += 1;
            assert!(hops < 1_000_000, "forwarding cycle");
        }
        o
    }

    /// Runtime-side name translation: chase forwarding addresses while the
    /// stale location is on the executing node (each hop costs one name
    /// translation). A hop to a remote old location stops here — the
    /// message goes there and that node's wrapper continues the chase.
    pub(crate) fn resolve_local(&mut self, node: usize, mut o: ObjRef) -> ObjRef {
        while o.node.idx() == node {
            match self.nodes[node].objects[o.index as usize].moved_to {
                Some(n) => {
                    self.charge(node, self.cost.locality_check);
                    o = n;
                }
                None => break,
            }
        }
        o
    }

    /// Migrate an object to `dest`, leaving a forwarding address behind
    /// (the paper's future-work direction: data migration under the same
    /// adaptive execution model). Existing references keep working: an
    /// invocation through a stale reference is forwarded during name
    /// translation. Returns the object's new reference.
    ///
    /// # Panics
    /// If the machine is not quiescent, or the object's lock is held
    /// (migration is a between-phases operation, like placement).
    pub fn migrate_object(&mut self, obj: ObjRef, dest: NodeId) -> ObjRef {
        assert!(self.is_quiescent(), "migration requires quiescence");
        let src = self.resolve_ref(obj);
        if src.node == dest {
            return src;
        }
        // Most specific guard first: queued invocations name the waiters
        // that would be stranded, a held lock names the object busy.
        if let Some(l) = &self.nodes[src.node.idx()].objects[src.index as usize].lock {
            assert!(
                l.waiters.is_empty(),
                "cannot migrate with queued invocations"
            );
            assert!(l.holder.is_none(), "cannot migrate a locked object");
        }
        // A suspended activation's `self` must not move out from under it.
        for n in &self.nodes {
            for i in n.ctxs.live_indices() {
                assert!(
                    n.ctxs.get(i).frame.obj != src,
                    "cannot migrate an object with live activations"
                );
            }
        }
        // Field values are copied across arenas; the source keeps only a
        // forwarding stub (its old storage is abandoned, not reclaimed).
        let [from, to] = self
            .nodes
            .get_disjoint_mut([src.node.idx(), dest.idx()])
            .expect("distinct nodes");
        let stub = &mut from.objects[src.index as usize];
        to.objects.push(to.arena.adopt(&from.arena, stub));
        let new_ref = ObjRef {
            node: dest,
            index: (to.objects.len() - 1) as u32,
        };
        (stub.scalars, stub.arrays) = (Span::default(), Span::default());
        stub.moved_to = Some(new_ref);
        new_ref
    }

    fn field_slot(&self, obj: ObjRef, field: FieldId) -> FieldKind {
        let obj = self.resolve_ref(obj);
        let o = &self.nodes[obj.node.idx()].objects[obj.index as usize];
        self.layouts[o.class.idx()].kinds[field.idx()]
    }

    /// Harness-side scalar field write (follows forwarding addresses).
    pub fn set_field(&mut self, obj: ObjRef, field: FieldId, v: Value) {
        let obj = self.resolve_ref(obj);
        match self.field_slot(obj, field) {
            FieldKind::Scalar(i) => {
                self.nodes[obj.node.idx()].scalars_mut(obj.index)[i as usize] = v;
            }
            FieldKind::Array(_) => panic!("set_field on array field"),
        }
    }

    /// Harness-side scalar field read (follows forwarding addresses).
    pub fn get_field(&self, obj: ObjRef, field: FieldId) -> Value {
        let obj = self.resolve_ref(obj);
        match self.field_slot(obj, field) {
            FieldKind::Scalar(i) => self.nodes[obj.node.idx()].scalars(obj.index)[i as usize],
            FieldKind::Array(_) => panic!("get_field on array field"),
        }
    }

    /// Harness-side array field write (follows forwarding addresses).
    pub fn set_array(&mut self, obj: ObjRef, field: FieldId, vs: Vec<Value>) {
        let obj = self.resolve_ref(obj);
        match self.field_slot(obj, field) {
            FieldKind::Array(i) => self.nodes[obj.node.idx()]
                .arr_new(obj.index, i, vs.len())
                .copy_from_slice(&vs),
            FieldKind::Scalar(_) => panic!("set_array on scalar field"),
        }
    }

    /// Harness-side array field read (follows forwarding addresses).
    pub fn get_array(&self, obj: ObjRef, field: FieldId) -> &[Value] {
        let obj = self.resolve_ref(obj);
        match self.field_slot(obj, field) {
            FieldKind::Array(i) => self.nodes[obj.node.idx()].array(obj.index, i),
            FieldKind::Scalar(_) => panic!("get_array on scalar field"),
        }
    }

    /// Current virtual time of a node.
    pub fn node_time(&self, node: NodeId) -> Cycles {
        self.nodes[node.idx()].time
    }

    /// Makespan: the latest node time.
    pub fn makespan(&self) -> Cycles {
        self.nodes.iter().map(|n| n.time).max().unwrap_or(0)
    }

    /// Snapshot the per-node counters and times.
    pub fn stats(&self) -> MachineStats {
        let mut sched = self.sched_stats.clone();
        sched.dropped_events = self.trace_buf.dropped_total();
        MachineStats {
            per_node: self.nodes.iter().map(|n| n.counters.clone()).collect(),
            node_time: self.nodes.iter().map(|n| n.time).collect(),
            sched,
            net: self.net.stats(),
        }
    }

    /// Snapshot of every object's contents — `(class, scalars, arrays)`,
    /// node by node, in allocation order — for final-state equivalence
    /// checks across execution modes, scheduler implementations, and fault
    /// schedules.
    pub fn object_state(&self) -> Vec<NodeObjectState> {
        self.nodes
            .iter()
            .map(|n| {
                n.objects
                    .iter()
                    .map(|o| {
                        let arrays = n.arena.arrays(o).map(<[Value]>::to_vec).collect();
                        (o.class.0, n.arena.scalars(o).to_vec(), arrays)
                    })
                    .collect()
            })
            .collect()
    }

    /// Zero all event counters (virtual clocks keep running). Lets a
    /// harness measure one phase in isolation (Table 2 deltas).
    pub fn reset_counters(&mut self) {
        for n in &mut self.nodes {
            n.counters = Counters::default();
        }
    }

    /// Number of live (allocated) heap contexts across the machine.
    pub fn live_contexts(&self) -> u64 {
        self.nodes.iter().map(|n| n.ctxs.live).sum()
    }

    /// Contexts still alive after quiescence — a non-empty result means the
    /// program is stuck (deadlock) or intentionally reactive.
    pub fn stuck_contexts(&self) -> Vec<(NodeId, u32)> {
        let mut v = Vec::new();
        for n in &self.nodes {
            for i in n.ctxs.live_indices() {
                v.push((n.id, i));
            }
        }
        v
    }

    /// True when no runnable work, grants, messages, or unacknowledged
    /// transport frames remain anywhere (a pending frame means a
    /// retransmission timer will fire).
    pub fn is_quiescent(&self) -> bool {
        self.net.is_empty()
            && self
                .nodes
                .iter()
                .all(|n| !n.has_local_work() && n.inbox.is_empty() && n.tx_pending.is_empty())
    }

    // ================= cost & counter helpers =================

    #[inline]
    pub(crate) fn charge(&mut self, node: usize, c: Cycles) {
        let n = &mut self.nodes[node];
        n.time += c;
        n.counters.instructions += c;
    }

    #[inline]
    pub(crate) fn ctr(&mut self, node: usize) -> &mut Counters {
        &mut self.nodes[node].counters
    }

    /// Allocate a fresh task token (lock-holder identity for one top-level
    /// execution unit).
    pub(crate) fn new_task(&mut self) -> u64 {
        self.next_task += 1;
        self.current_task = self.next_task;
        self.current_task
    }

    // ================= messaging =================

    /// Inject a packet into the interconnect and drain it straight into
    /// the destination inbox. The wire is drained once per injection — the
    /// `Network` heap assigns the global sequence number, applies the fault
    /// plan, and keeps traffic stats, but packets never sit in it across
    /// scheduler iterations, so the dispatch loop does not need to re-drain
    /// it per event.
    fn inject(
        &mut self,
        from: usize,
        dest: NodeId,
        deliver: Cycles,
        words: u64,
        class: hem_machine::net::WireClass,
        pkt: Packet,
    ) {
        let src = self.nodes[from].id;
        // Per-source wire sequence (see `Node::wire_seq`): deterministic
        // under any scheduler implementation, unlike the network-global
        // counter, so fault fates and same-cycle tie-breaks never depend
        // on how sends from different nodes interleave.
        let wseq = self.nodes[from].wire_seq;
        self.nodes[from].wire_seq += 1;
        let seq = (wseq << 20) | src.0 as u64;
        let fate = self
            .net
            .send_tagged(seq, src, dest, deliver, words, class, pkt);
        if fate.dropped {
            self.emit(
                from,
                crate::trace::TraceEvent::MsgDropped {
                    from: src,
                    to: dest,
                    partitioned: fate.partitioned,
                },
            );
        } else if fate.duplicated {
            self.emit(
                from,
                crate::trace::TraceEvent::MsgDuplicated {
                    from: src,
                    to: dest,
                },
            );
        }
        // The wire is drained synchronously within this injection, so the
        // sending step's blame tag is still current — stamp it (and the
        // retransmission class) onto each inbox entry so the receiving
        // step can pick the tag up without widening the wire format.
        let retx = class == hem_machine::net::WireClass::Retx;
        while let Some(m) = self.net.pop() {
            let d = m.dest.idx();
            let entry = InboxEntry {
                deliver: m.deliver_at,
                seq: m.seq,
                src: m.src,
                msg: m.msg,
                req: self.current_req,
                retx,
            };
            // In a shard worker, a packet for a node another shard owns is
            // parked in the outbox; the coordinator routes it at the next
            // window barrier. The window protocol guarantees it cannot be
            // due before the barrier (its delivery time is at least the
            // window end; see `crate::shard`).
            if let Some(sh) = &mut self.shard {
                if !sh.owns[d] {
                    sh.outbox.push((d as u32, entry));
                    continue;
                }
            }
            // Intra-shard delivery mutates a node other than the one being
            // dispatched: checkpoint it first (cross-node state only ever
            // changes through messages, so this hook plus the
            // dispatch-time one cover every mutation a rollback undoes).
            self.tw_save(d);
            self.nodes[d].inbox.push(entry);
            let at = self.nodes[d].time.max(m.deliver_at);
            self.sched_note(at, 0, d);
        }
    }

    /// Frame `msg` for the wire and inject it: raw when the reliable
    /// transport is off (bit-identical to the pre-transport runtime), else
    /// as a sequenced data frame retained for retransmission until acked.
    /// `latency` and `send_cost` are recorded so a retransmission re-prices
    /// exactly like the original.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        from: usize,
        dest: NodeId,
        deliver: Cycles,
        words: u64,
        latency: Cycles,
        send_cost: Cycles,
        class: hem_machine::net::WireClass,
        msg: Msg,
    ) {
        if !self.reliable {
            self.inject(from, dest, deliver, words, class, Packet::Raw(msg));
            return;
        }
        let d = dest.0;
        let deadline = self.nodes[from].time + self.retx_base;
        if let Some(sh) = &mut self.shard {
            if sh.ckpt.armed {
                // Speculative window: a timer armed mid-window may come
                // due *before* the window edge (conservative windows
                // cannot outrun `retx_base`, optimistic ones can), and
                // workers never fire timers. Record the earliest such
                // deadline so validation can shrink the window below it.
                sh.min_timer = sh.min_timer.min(deadline);
            }
        }
        let n = &mut self.nodes[from];
        let seq_ref = n.tx_next.entry(d).or_insert(0);
        let seq = *seq_ref;
        *seq_ref += 1;
        n.tx_pending.insert(
            (d, seq),
            Pending {
                msg: msg.clone(),
                words,
                latency,
                send_cost,
                deadline,
                attempt: 0,
                req: self.current_req,
            },
        );
        n.tx_timers.insert((deadline, d, seq));
        self.sched_note(deadline, 2, from);
        self.inject(from, dest, deliver, words, class, Packet::Data { seq, msg });
    }

    /// Send a request message, charging sender-side costs and wire latency.
    /// Sending also polls the network (below); a trap raised by a handler
    /// that runs during that poll propagates promptly to the sender's
    /// execution rather than being parked for the next scheduler iteration.
    pub(crate) fn send_invoke(&mut self, from: usize, dest: NodeId, msg: Msg) -> Result<(), Trap> {
        // The transport's sequence number rides in the active-message
        // header word the wire format already reserves, so reliable mode
        // adds no payload words to data frames.
        let words = msg.words();
        let c = self.cost.msg_send + self.cost.msg_word * words;
        self.charge(from, c);
        let ctr = self.ctr(from);
        ctr.msgs_sent += 1;
        ctr.req_words_sent += words;
        self.emit(
            from,
            crate::trace::TraceEvent::MsgSent {
                from: self.nodes[from].id,
                to: dest,
                words,
                cause: crate::trace::MsgCause::Request,
                req: self.current_req,
            },
        );
        let deliver = self.nodes[from].time + self.cost.msg_latency;
        self.transmit(
            from,
            dest,
            deliver,
            words,
            self.cost.msg_latency,
            c,
            hem_machine::net::WireClass::Data,
            msg,
        );
        self.poll_network(from)
    }

    /// Send a reply message. Trap propagation as for [`Self::send_invoke`].
    pub(crate) fn send_reply(
        &mut self,
        from: usize,
        dest: NodeId,
        cont: ContRef,
        value: Value,
    ) -> Result<(), Trap> {
        let msg = Msg::Reply { cont, value };
        let words = msg.words();
        let c = self.cost.reply_send + self.cost.reply_word * words;
        self.charge(from, c);
        let ctr = self.ctr(from);
        ctr.replies_sent += 1;
        ctr.reply_words_sent += words;
        self.emit(
            from,
            crate::trace::TraceEvent::MsgSent {
                from: self.nodes[from].id,
                to: dest,
                words,
                cause: crate::trace::MsgCause::Reply,
                req: self.current_req,
            },
        );
        let deliver = self.nodes[from].time + self.cost.reply_latency;
        self.transmit(
            from,
            dest,
            deliver,
            words,
            self.cost.reply_latency,
            c,
            hem_machine::net::WireClass::Data,
            msg,
        );
        self.poll_network(from)
    }

    /// Poll the network from code running on `node` — the Concert/CM-5
    /// active-message discipline: every communication operation services
    /// arrived messages, so a long stack sweep cannot starve incoming
    /// requests (which would serialize the machine and hide exactly the
    /// latency-tolerance the hybrid model is supposed to show). Handled
    /// invocations run as nested tasks; the current task's lock identity
    /// is restored afterwards. (Arrived messages already sit in per-node
    /// inboxes — injection drains the wire — so only this node's due
    /// entries are examined.) A poll services only messages that had
    /// arrived by the current event's start (`poll_floor`): a message
    /// delivered later — even if the node's clock ran ahead of its
    /// delivery time mid-event — waits for its own scheduler step, so
    /// nested handling is independent of host execution order and of the
    /// sharded executor's node partition.
    pub(crate) fn poll_network(&mut self, node: usize) -> Result<(), Trap> {
        loop {
            let due = self.nodes[node].inbox.peek().is_some_and(|e| {
                e.deliver <= self.nodes[node].time && e.deliver <= self.poll_floor
            });
            if !due {
                return Ok(());
            }
            let e = self.nodes[node].inbox.pop().expect("peeked entry");
            let saved = self.current_task;
            let saved_req = self.current_req;
            let r = self.handle_packet(node, e.src, e.msg, e.req, e.deliver, e.retx);
            self.current_task = saved;
            self.current_req = saved_req;
            r?;
        }
    }

    /// Transport-level receive processing on `node` for a packet from
    /// `src`: charges handler entry, acknowledges and duplicate-suppresses
    /// data frames, retires pending state on acks, and runs any payload
    /// through [`Self::handle_msg`]. Raw packets take the legacy path
    /// unchanged. `req`/`deliver`/`retx` come from the consumed
    /// [`InboxEntry`]: the originating request's blame tag (which becomes
    /// the current tag for all work this handling triggers), the wire
    /// delivery time, and whether the consumed copy was a retransmission.
    pub(crate) fn handle_packet(
        &mut self,
        node: usize,
        src: NodeId,
        pkt: Packet,
        req: u64,
        deliver: Cycles,
        retx: bool,
    ) -> Result<(), Trap> {
        self.current_req = req;
        match pkt {
            Packet::Raw(msg) => {
                self.charge(node, self.cost.handler);
                self.ctr(node).msgs_handled += 1;
                self.emit_handled(node, src, &msg, req, deliver, retx);
                self.handle_msg(node, msg)
            }
            Packet::Data { seq, msg } => {
                self.charge(node, self.cost.handler);
                // Ack every copy, duplicate or not: acks confirm *receipt*,
                // and a duplicate often means the original's ack was lost.
                self.charge(node, self.cost.ack_overhead);
                self.ctr(node).acks_sent += 1;
                self.emit(
                    node,
                    crate::trace::TraceEvent::MsgSent {
                        from: NodeId(node as u32),
                        to: src,
                        words: 1,
                        cause: crate::trace::MsgCause::Ack,
                        req,
                    },
                );
                let deliver_ack = self.nodes[node].time + self.cost.reply_latency;
                self.inject(
                    node,
                    src,
                    deliver_ack,
                    1,
                    hem_machine::net::WireClass::Ack,
                    Packet::Ack { seq },
                );
                if self.nodes[node].rx_mark(src.0, seq) {
                    self.ctr(node).dups_suppressed += 1;
                    self.emit(
                        node,
                        crate::trace::TraceEvent::DupSuppressed {
                            node: NodeId(node as u32),
                            from: src,
                        },
                    );
                    return Ok(());
                }
                self.ctr(node).msgs_handled += 1;
                self.emit_handled(node, src, &msg, req, deliver, retx);
                self.handle_msg(node, msg)
            }
            Packet::Ack { seq } => {
                self.charge(node, self.cost.ack_overhead);
                self.ctr(node).acks_handled += 1;
                self.emit(
                    node,
                    crate::trace::TraceEvent::MsgHandled {
                        node: NodeId(node as u32),
                        from: src,
                        words: 1,
                        cause: crate::trace::MsgCause::Ack,
                        req,
                        deliver,
                        retx,
                    },
                );
                let n = &mut self.nodes[node];
                // A stale ack (retransmit raced the first ack) finds no
                // pending entry; that is fine.
                if let Some(p) = n.tx_pending.remove(&(src.0, seq)) {
                    n.tx_timers.remove(&(p.deadline, src.0, seq));
                }
                Ok(())
            }
        }
    }

    /// Emit the [`crate::trace::TraceEvent::MsgHandled`] record for a
    /// delivered application payload.
    #[inline]
    fn emit_handled(
        &mut self,
        node: usize,
        src: NodeId,
        msg: &Msg,
        req: u64,
        deliver: Cycles,
        retx: bool,
    ) {
        if !self.tracing_active() {
            return;
        }
        self.emit(
            node,
            crate::trace::TraceEvent::MsgHandled {
                node: NodeId(node as u32),
                from: src,
                words: msg.words(),
                cause: msg.cause(),
                req,
                deliver,
                retx,
            },
        );
    }

    /// Is a copy of frame `(node → dest, seq)` still in flight — the data
    /// frame queued in `dest`'s inbox, or its ack queued in `node`'s? While
    /// one is, a timeout is premature: the simulator's retransmission timer
    /// is clairvoyant where a real sender would run an adaptive RTO
    /// estimator, so the zero-fault path never retransmits into a merely
    /// slow receiver. Losses leave no copy anywhere and do time out.
    fn frame_in_flight(&self, node: usize, dest: usize, seq: u64) -> bool {
        let me = self.nodes[node].id;
        let data_queued = self.nodes[dest]
            .inbox
            .iter()
            .any(|e| e.src == me && matches!(e.msg, Packet::Data { seq: s, .. } if s == seq));
        data_queued
            || self.nodes[node].inbox.iter().any(|e| {
                e.src.0 == dest as u32 && matches!(e.msg, Packet::Ack { seq: s } if s == seq)
            })
    }

    /// Retransmit every pending frame on `node` whose deadline has arrived
    /// (the caller has advanced the node's clock to the selected event
    /// time), re-arming each with doubled, capped backoff. A frame with a
    /// copy still in flight (see [`Self::frame_in_flight`]) is re-armed
    /// silently — no charge, no injection. The retransmit is a fresh wire
    /// injection: it takes a new *global* sequence number, so the fault
    /// plan rolls a fresh fate and the frame eventually gets through with
    /// probability 1.
    pub(crate) fn run_retransmits(&mut self, node: usize) {
        loop {
            let now = self.nodes[node].time;
            let Some(&(dl, dest, seq)) = self.nodes[node].tx_timers.first() else {
                return;
            };
            if dl > now {
                return;
            }
            self.nodes[node].tx_timers.remove(&(dl, dest, seq));
            let live = self.frame_in_flight(node, dest as usize, seq);
            let (send_cost, words, latency, msg, attempt, req) = {
                let p = self.nodes[node]
                    .tx_pending
                    .get_mut(&(dest, seq))
                    .expect("timer without pending frame");
                p.attempt += 1;
                (
                    p.send_cost,
                    p.words,
                    p.latency,
                    p.msg.clone(),
                    p.attempt,
                    p.req,
                )
            };
            // Re-carry the original send's blame tag on the fresh copy
            // (the timer step itself is untagged work).
            self.current_req = req;
            if !live {
                self.charge(node, send_cost);
                self.ctr(node).retransmits += 1;
                self.emit(
                    node,
                    crate::trace::TraceEvent::Retransmit {
                        node: NodeId(node as u32),
                        to: NodeId(dest),
                        attempt,
                    },
                );
                // The wire-accounting record for the fresh copy (one
                // `MsgSent` per injection; the `Retransmit` event above is
                // the protocol-level record).
                self.emit(
                    node,
                    crate::trace::TraceEvent::MsgSent {
                        from: NodeId(node as u32),
                        to: NodeId(dest),
                        words,
                        cause: crate::trace::MsgCause::Retransmit,
                        req,
                    },
                );
            }
            let now = self.nodes[node].time;
            let backoff = self
                .retx_base
                .saturating_mul(1u64 << attempt.min(20))
                .min(self.retx_cap)
                .max(1);
            let deadline = now + backoff;
            let n = &mut self.nodes[node];
            let p = n
                .tx_pending
                .get_mut(&(dest, seq))
                .expect("pending frame vanished");
            p.deadline = deadline;
            n.tx_timers.insert((deadline, dest, seq));
            if !live {
                self.inject(
                    node,
                    NodeId(dest),
                    now + latency,
                    words,
                    hem_machine::net::WireClass::Retx,
                    Packet::Data { seq, msg },
                );
            }
        }
    }

    // ================= modeled collectives =================

    /// Issue a modeled collective (multicast / reduce / barrier) from code
    /// running on `node`, one invocation of `method(args)` per `members`
    /// entry, completion (or the folded reduction) delivered through
    /// `cont`.
    ///
    /// The interconnect models the group operation as a virtual binary
    /// fan-out tree over the member ranks (see
    /// [`hem_machine::net::Network::multicast`]): every down leg still
    /// *originates* at the initiator — so transport framing, fault fates,
    /// and per-sender wire sequencing apply to collectives exactly as to
    /// point-to-point sends — but a leg to tree depth `d` is delivered
    /// `d` wire hops later, and the initiator's clock is charged one
    /// message-compose plus per-word injection costs rather than P full
    /// sends (the tree's interior forwarding runs on the interconnect,
    /// not on any node's clock, like transport acks). Contributions fold
    /// up the same tree: each member combines its own result with its
    /// tree children's sub-trees *in slot order* — so reduction results
    /// are independent of arrival order — and sends one compact up leg to
    /// its parent.
    pub(crate) fn issue_collective(
        &mut self,
        node: usize,
        kind: crate::msg::CollKind,
        members: &[ObjRef],
        method: MethodId,
        args: Vec<Value>,
        cont: Continuation,
    ) -> Result<(), Trap> {
        use crate::msg::CollKind;
        let src = self.nodes[node].id;
        let dests: Vec<NodeId> = members.iter().map(|o| o.node).collect();
        let leg_words = match kind {
            CollKind::Barrier => 1,
            _ => 2 + args.len() as u64,
        };
        let plan = match kind {
            CollKind::Cast | CollKind::CastAcked => self.net.multicast(src, &dests, leg_words),
            CollKind::Reduce(_) => self.net.reduce(&dests, src, leg_words, self.cost.op),
            CollKind::Barrier => self.net.barrier(src, &dests),
        };
        self.ctr(node).coll_initiated += 1;
        if members.is_empty() {
            // Degenerate group: nothing to deliver, nothing to wait for.
            return self.deliver_cont(node, cont, Value::Nil);
        }
        let id = self.nodes[node].coll_next;
        self.nodes[node].coll_next += 1;
        if kind.has_up_phase() {
            // Root fold state: awaits the initiator's direct tree children
            // (positions 1 and, for groups of two or more, 2).
            let mut need = 1u8 << 1;
            if members.len() >= 2 {
                need |= 1 << 2;
            }
            self.nodes[node].coll.insert(
                (src.0, id, 0),
                CollState {
                    kind,
                    acc: [None, None, None],
                    need,
                    filled: 0,
                    parent: src,
                    parent_pos: 0,
                    child_ix: 0,
                    cont: Some(cont),
                },
            );
        }
        // One compose charge for the whole collective; each leg then
        // charges only word-injection cost.
        self.charge(node, self.cost.msg_send);
        // Mutant: price every leg at one hop, ignoring its tree depth.
        let skip_hops = self.mutant_is(Mutant::CollectiveSkipsHopCost);
        for leg in &plan.legs {
            let msg = Msg::CollDown {
                obj: members[leg.rank as usize].index,
                method,
                args: args.clone(),
                init: src,
                id,
                pos: leg.pos,
                parent: leg.parent,
                parent_pos: leg.parent_pos,
                child_ix: leg.child_ix,
                children: leg.children,
                kind,
            };
            let words = msg.words();
            let c = self.cost.msg_word * words;
            self.charge(node, c);
            let ctr = self.ctr(node);
            ctr.msgs_sent += 1;
            ctr.coll_legs_sent += 1;
            ctr.coll_words_sent += words;
            self.emit(
                node,
                crate::trace::TraceEvent::MsgSent {
                    from: src,
                    to: leg.dest,
                    words,
                    cause: kind.cause(),
                    req: self.current_req,
                },
            );
            let hops = if skip_hops { 1 } else { leg.depth } as Cycles;
            let latency = self.cost.msg_latency * hops;
            let deliver = self.nodes[node].time + latency;
            self.transmit(
                node,
                leg.dest,
                deliver,
                words,
                latency,
                c,
                hem_machine::net::WireClass::Coll,
                msg,
            );
        }
        self.poll_network(node)
    }

    /// Deposit a contribution into fold slot `ix` of the collective state
    /// `(init, id, pos)` hosted on `node`; when the state's last expected
    /// slot fills, fold in slot order and either deliver the result (root)
    /// or send the up leg to the tree parent.
    pub(crate) fn coll_fill(
        &mut self,
        node: usize,
        init: NodeId,
        id: u64,
        pos: u32,
        ix: u8,
        v: Value,
    ) -> Result<(), Trap> {
        let key = (init.0, id, pos);
        let Some(st) = self.nodes[node].coll.get_mut(&key) else {
            // The position's own down leg hasn't arrived yet (jitter or a
            // lost-and-retransmitted frame reordered the legs): stash the
            // contribution; the down-leg handler drains it into the fold
            // state it creates. Root state (pos 0) is created before any
            // leg is sent, so it can never be early.
            self.nodes[node]
                .coll_early
                .entry(key)
                .or_default()
                .push((ix, v));
            return Ok(());
        };
        if st.filled & (1 << ix) != 0 {
            return Err(Trap::new(format!(
                "double collective contribution (init {} id {id} pos {pos} slot {ix})",
                init.0
            )));
        }
        st.acc[ix as usize] = Some(v);
        st.filled |= 1 << ix;
        let done = st.filled == st.need;
        self.charge(node, self.cost.future_store);
        self.ctr(node).coll_contribs += 1;
        if !done {
            return Ok(());
        }
        let st = self.nodes[node]
            .coll
            .remove(&key)
            .expect("completed collective state vanished");
        let result = match st.kind {
            crate::msg::CollKind::Reduce(op) => {
                // Fold in slot order (own, left sub-tree, right sub-tree),
                // never in arrival order.
                let mut acc: Option<Value> = None;
                for slot in st.acc.iter() {
                    let Some(v) = slot else { continue };
                    acc = Some(match acc {
                        None => *v,
                        Some(a) => {
                            self.charge(node, self.cost.op);
                            hem_ir::value::bin_op(op, a, *v).map_err(|e| {
                                Trap::new(format!("collective reduce combine: {e:?}"))
                            })?
                        }
                    });
                }
                acc.unwrap_or(Value::Nil)
            }
            _ => Value::Nil,
        };
        if pos == 0 {
            let cont = st.cont.expect("root collective state without continuation");
            self.deliver_cont(node, cont, result)
        } else {
            self.send_coll_up(
                node,
                st.parent,
                Msg::CollUp {
                    init,
                    id,
                    parent_pos: st.parent_pos,
                    child_ix: st.child_ix,
                    value: result,
                    kind: st.kind,
                },
            )
        }
    }

    /// Send an up-tree collective leg. Priced like a reply (up legs are
    /// the collective's answer traffic) but classed and attributed as
    /// collective wire words.
    fn send_coll_up(&mut self, from: usize, dest: NodeId, msg: Msg) -> Result<(), Trap> {
        let words = msg.words();
        let cause = msg.cause();
        let c = self.cost.reply_send + self.cost.reply_word * words;
        self.charge(from, c);
        let ctr = self.ctr(from);
        ctr.msgs_sent += 1;
        ctr.coll_legs_sent += 1;
        ctr.coll_words_sent += words;
        self.emit(
            from,
            crate::trace::TraceEvent::MsgSent {
                from: self.nodes[from].id,
                to: dest,
                words,
                cause,
                req: self.current_req,
            },
        );
        let deliver = self.nodes[from].time + self.cost.reply_latency;
        self.transmit(
            from,
            dest,
            deliver,
            words,
            self.cost.reply_latency,
            c,
            hem_machine::net::WireClass::Coll,
            msg,
        );
        self.poll_network(from)
    }

    // ================= futures & continuations =================

    /// Apply a fill to a slot array. Returns whether the slot became
    /// satisfied, or an error message for protocol violations.
    pub(crate) fn apply_fill(slots: &mut [SlotState], slot: u16, v: Value) -> Result<bool, String> {
        let s = slots
            .get_mut(slot as usize)
            .ok_or_else(|| format!("fill of out-of-range slot {slot}"))?;
        let was = s.satisfied();
        match s {
            SlotState::Join(0) => return Err("reply to completed join".into()),
            SlotState::Join(k) => *k -= 1,
            SlotState::Full(_) => return Err("double reply to future".into()),
            SlotState::Empty | SlotState::Pending => *s = SlotState::Full(v),
        }
        Ok(!was && s.satisfied())
    }

    /// Determine the future at `slot` of context `ctx` on `tnode`,
    /// waking the context if this resolves its touch.
    pub(crate) fn fill_slot(
        &mut self,
        tnode: usize,
        ctx: u32,
        gen: u32,
        slot: u16,
        v: Value,
    ) -> Result<(), Trap> {
        // Route fills for the context currently being stepped through the
        // active buffer (its frame is out of the table).
        if let Some(a) = &mut self.active {
            if a.node == tnode && a.id == ctx {
                if a.gen != gen {
                    return Err(Trap::new("stale continuation (active context)"));
                }
                a.fills.push((slot, v));
                self.charge(tnode, self.cost.future_store);
                return Ok(());
            }
        }
        let cost_store = self.cost.future_store;
        let cost_enqueue = self.cost.enqueue;
        let eager_wake = self.mutant_is(Mutant::EagerWake);
        let drop_join = self.mutant_is(Mutant::DropJoinDecrement);
        let n = &mut self.nodes[tnode];
        let c = n.ctxs.get_mut(ctx);
        if c.gen != gen || c.wait == WaitState::Free {
            return Err(Trap::new(format!(
                "stale continuation: ctx {ctx} gen {gen} (now {})",
                c.gen
            )));
        }
        debug_assert_ne!(c.wait, WaitState::Shell, "fill into unpopulated shell");
        // Mutant: swallow this fill's join decrement (the join never
        // completes and its awaiter leaks).
        if drop_join
            && matches!(c.frame.slots.get(slot as usize), Some(SlotState::Join(k)) if *k >= 2)
        {
            n.time += cost_store;
            n.counters.instructions += cost_store;
            return Ok(());
        }
        let became = Self::apply_fill(&mut c.frame.slots, slot, v)
            .map_err(|e| Trap::at(c.frame.method, c.frame.pc, e))?;
        let mut wake = false;
        let mut wake_mask = 0u64;
        if became {
            if let WaitState::Waiting { mask, missing } = c.wait {
                if mask & (1u64 << slot) != 0 {
                    let missing = missing - 1;
                    // Mutant: wake one fill early, while a touched slot
                    // is still unresolved.
                    if missing == 0 || (eager_wake && missing == 1) {
                        c.wait = WaitState::Ready;
                        wake = true;
                        wake_mask = mask;
                    } else {
                        c.wait = WaitState::Waiting { mask, missing };
                    }
                }
            }
        }
        n.time += cost_store;
        n.counters.instructions += cost_store;
        if wake {
            n.ready.push_back(ctx);
            n.counters.resumes += 1;
            n.time += cost_enqueue;
            n.counters.instructions += cost_enqueue;
            self.san_wake_check(tnode, ctx, wake_mask);
            self.sched_note_local(tnode);
            self.emit(
                tnode,
                crate::trace::TraceEvent::Resume {
                    node: NodeId(tnode as u32),
                    ctx,
                },
            );
        }
        Ok(())
    }

    /// Deliver a value through a continuation, from code running on `node`.
    pub(crate) fn deliver_cont(
        &mut self,
        node: usize,
        cont: Continuation,
        v: Value,
    ) -> Result<(), Trap> {
        match cont {
            Continuation::Unset => Err(Trap::new("reply through unset continuation")),
            Continuation::Discard => Ok(()),
            Continuation::Root => {
                // Mutant: deliver the root reply twice; the overwrite is
                // value-identical, so only the one-shot check sees it.
                if self.mutant_is(Mutant::DoubleRootReply) {
                    self.san_root_delivered();
                    self.result = Some(v);
                }
                self.san_root_delivered();
                self.result = Some(v);
                Ok(())
            }
            Continuation::Into(cr) => {
                if cr.node.idx() == node {
                    self.fill_slot(node, cr.ctx, cr.gen, cr.slot, v)
                } else {
                    self.send_reply(node, cr.node, cr, v)
                }
            }
            Continuation::Coll {
                node: cn,
                init,
                id,
                pos,
                kind,
            } => {
                if cn.idx() == node {
                    // The member completed on its own node (the common
                    // case): the contribution lands in the local fold
                    // state for zero wire words.
                    self.coll_fill(node, init, id, pos, 0, v)
                } else {
                    // The member's method forwarded its continuation
                    // off-node: the contribution degrades to a wire leg
                    // aimed at the fold state's own-contribution slot.
                    self.send_coll_up(
                        node,
                        cn,
                        Msg::CollUp {
                            init,
                            id,
                            parent_pos: pos,
                            child_ix: 0,
                            value: v,
                            kind,
                        },
                    )
                }
            }
            Continuation::Request(req) => {
                // Open-system completion: log the serving node's clock
                // under the request id. The reply value itself is not
                // retained — service-mode experiments measure sojourn
                // time, not payloads.
                let done = self.nodes[node].time;
                self.completions.insert(req, done);
                self.emit(
                    node,
                    crate::trace::TraceEvent::RequestDone {
                        node: NodeId(node as u32),
                        req,
                    },
                );
                Ok(())
            }
        }
    }

    /// Lazily materialize a continuation from `caller_info` (paper §3.2.3's
    /// three cases). Returns the continuation and, when the caller's
    /// context had to be created, the shell context index.
    pub(crate) fn materialize_cont(
        &mut self,
        node: usize,
        info: CallerInfo,
    ) -> Result<(Continuation, Option<u32>), Trap> {
        self.charge(node, self.cost.cont_create);
        self.ctr(node).conts_created += 1;
        self.emit(
            node,
            crate::trace::TraceEvent::ContMaterialized {
                node: NodeId(node as u32),
            },
        );
        match info {
            CallerInfo::Proxy { cont } => Ok((cont, None)),
            CallerInfo::Created {
                node: cn,
                ctx,
                gen,
                ret_slot,
            } => Ok((
                Continuation::Into(ContRef {
                    node: cn,
                    ctx,
                    gen,
                    slot: ret_slot,
                }),
                None,
            )),
            CallerInfo::NotCreated {
                method,
                obj,
                ret_slot,
            } => {
                debug_assert_eq!(obj.node.idx(), node, "shell off-node");
                let m = self.program.method(method);
                let mut frame = ActFrame::new(method, obj, m.locals, m.slots, &[]);
                // Mutant: mark slot 0 instead of the caller's declared
                // return slot; adoption discards shell slots, so only the
                // structural offset check sees it.
                let mark = if self.mutant_is(Mutant::ShellSlotZero) {
                    0
                } else {
                    ret_slot as usize
                };
                frame.slots[mark] = SlotState::Pending;
                let id = self.new_ctx(node, frame, Continuation::Unset, WaitState::Shell, true);
                self.san_shell_check(node, id, ret_slot);
                let gen = self.nodes[node].ctxs.gen(id);
                Ok((
                    Continuation::Into(ContRef {
                        node: NodeId(node as u32),
                        ctx: id,
                        gen,
                        slot: ret_slot,
                    }),
                    Some(id),
                ))
            }
        }
    }

    // ================= contexts =================

    /// Allocate a heap context, charging allocation + state-save costs.
    /// `fallback` distinguishes lazy (stack-unwinding) creations from
    /// eager parallel invocations in the counters.
    pub(crate) fn new_ctx(
        &mut self,
        node: usize,
        frame: ActFrame,
        cont: Continuation,
        wait: WaitState,
        fallback: bool,
    ) -> u32 {
        let words = frame.words();
        let c = self.cost.ctx_alloc + self.cost.ctx_word * words;
        self.charge(node, c);
        let method = frame.method;
        let n = &mut self.nodes[node];
        n.counters.ctx_alloc += 1;
        if fallback {
            n.counters.fallbacks += 1;
        }
        let id = n.ctxs.alloc(frame, cont, wait);
        // The context inherits the creating step's blame tag, so a later
        // resume of it (a kind-1 ready dispatch) re-establishes the tag.
        n.ctxs.get_mut(id).req = self.current_req;
        self.san_ctx_alloc(node, id, fallback);
        self.emit(
            node,
            if fallback {
                crate::trace::TraceEvent::Fallback {
                    node: NodeId(node as u32),
                    method,
                    ctx: id,
                }
            } else {
                crate::trace::TraceEvent::ParInvoke {
                    node: NodeId(node as u32),
                    method,
                    ctx: id,
                }
            },
        );
        id
    }

    /// Put a context on its node's ready queue.
    pub(crate) fn enqueue_ready(&mut self, node: usize, ctx: u32) {
        self.charge(node, self.cost.enqueue);
        let n = &mut self.nodes[node];
        debug_assert_eq!(n.ctxs.get(ctx).wait, WaitState::Ready);
        n.ready.push_back(ctx);
        self.sched_note_local(node);
    }

    /// Finish a context: release its lock if held, free it.
    pub(crate) fn finish_ctx(&mut self, node: usize, ctx: u32) {
        let holds = self.nodes[node].ctxs.get(ctx).holds_lock;
        if holds {
            let obj = self.nodes[node].ctxs.get(ctx).frame.obj.index;
            self.lock_release(node, obj);
        }
        self.charge(node, self.cost.ctx_free);
        self.emit(
            node,
            crate::trace::TraceEvent::CtxFreed {
                node: NodeId(node as u32),
                ctx,
            },
        );
        let n = &mut self.nodes[node];
        n.counters.ctx_free += 1;
        n.ctxs.release(ctx);
        self.san_ctx_free();
    }

    /// Move a stack frame into a lazily allocated heap context: the
    /// mechanical core of the paper's fallback (Fig. 6). The frame is left
    /// empty; `next_pc` is where the parallel version resumes.
    pub(crate) fn fallback_ctx(
        &mut self,
        node: usize,
        fr: &mut ActFrame,
        next_pc: u32,
        wait: WaitState,
    ) -> u32 {
        let mut frame = std::mem::replace(
            fr,
            ActFrame {
                method: fr.method,
                obj: fr.obj,
                pc: 0,
                locals: Vec::new(),
                slots: Vec::new(),
            },
        );
        frame.pc = next_pc;
        let id = self.new_ctx(node, frame, Continuation::Unset, wait, true);
        if wait == WaitState::Ready {
            self.enqueue_ready(node, id);
        } else {
            self.charge(node, self.cost.suspend);
            self.ctr(node).suspends += 1;
        }
        id
    }

    /// Populate a shell context created on our behalf by a CP callee
    /// (paper §3.2.3: "passing the continuation's future's context back to
    /// its caller") and schedule it.
    pub(crate) fn adopt_shell(&mut self, node: usize, shell: u32, fr: &mut ActFrame, next_pc: u32) {
        let words = fr.words();
        self.charge(node, self.cost.ctx_word * words);
        self.ctr(node).fallbacks += 1;
        let n = &mut self.nodes[node];
        let c = n.ctxs.get_mut(shell);
        debug_assert_eq!(c.wait, WaitState::Shell);
        debug_assert_eq!(c.frame.method, fr.method);
        // Keep the shell's slot states where the callee marked the return
        // future pending; the stack frame has the same marking plus any
        // earlier resolved slots, so the stack frame's view wins.
        c.frame.locals = std::mem::take(&mut fr.locals);
        let shell_slots = std::mem::replace(&mut c.frame.slots, std::mem::take(&mut fr.slots));
        debug_assert_eq!(shell_slots.len(), c.frame.slots.len());
        c.frame.pc = next_pc;
        let method = c.frame.method;
        c.wait = WaitState::Ready;
        drop(shell_slots);
        self.emit(
            node,
            crate::trace::TraceEvent::ShellAdopted {
                node: NodeId(node as u32),
                method,
                ctx: shell,
            },
        );
        self.enqueue_ready(node, shell);
    }

    // ================= locks =================

    pub(crate) fn obj_locked_class(&self, node: usize, obj: u32) -> bool {
        self.nodes[node].objects[obj as usize].lock.is_some()
    }

    /// Try to acquire `obj`'s lock for `who`. Unlocked classes always
    /// succeed at no cost; the *check* cost is charged at the invoke site.
    pub(crate) fn lock_try(&mut self, node: usize, obj: u32, who: LockHolder) -> bool {
        let cost = self.cost.lock_acquire;
        let n = &mut self.nodes[node];
        match &mut n.objects[obj as usize].lock {
            None => true,
            Some(l) => {
                if l.acquire(who) {
                    n.time += cost;
                    n.counters.instructions += cost;
                    true
                } else {
                    n.counters.lock_conflicts += 1;
                    false
                }
            }
        }
    }

    /// Release one level of `obj`'s lock; if it becomes free and waiters
    /// exist, schedule a grant.
    pub(crate) fn lock_release(&mut self, node: usize, obj: u32) {
        let cost = self.cost.lock_release;
        let n = &mut self.nodes[node];
        let Some(l) = &mut n.objects[obj as usize].lock else {
            return;
        };
        n.time += cost;
        n.counters.instructions += cost;
        let mut granted = false;
        if l.release() {
            if let Some(d) = l.waiters.pop_front() {
                n.granted.push_back((obj, d));
                granted = true;
            }
        }
        if granted {
            self.sched_note_local(node);
        }
    }

    /// Defer an invocation on a held lock.
    pub(crate) fn lock_defer(&mut self, node: usize, obj: u32, mut d: DeferredInvoke) {
        self.charge(node, self.cost.lock_enqueue);
        self.emit(
            node,
            crate::trace::TraceEvent::LockDeferred {
                node: NodeId(node as u32),
                obj,
                req: self.current_req,
            },
        );
        // The deferred invocation carries the waiter's blame tag: when the
        // lock is granted, the kind-1 dispatch re-establishes it.
        d.req = self.current_req;
        let n = &mut self.nodes[node];
        let l = n.objects[obj as usize]
            .lock
            .as_mut()
            .expect("defer on unlocked class");
        l.waiters.push_back(d);
    }

    /// Transfer a lock held by the current stack task to a fallen-back
    /// context.
    pub(crate) fn lock_transfer(&mut self, node: usize, obj: u32, to: LockHolder) {
        if let Some(l) = &mut self.nodes[node].objects[obj as usize].lock {
            l.transfer(to);
        }
    }

    // ================= open-system service mode =================

    /// Inject an external client request: a root invocation of `method`
    /// on `obj` whose message arrives at the target node at virtual time
    /// `at`, delivering its reply into the completion log under `req`
    /// (drain with [`Self::take_completed_requests`]).
    ///
    /// External arrivals enter through the node's inbox like any other
    /// message — one `MsgHandled` and one handler charge each — but they
    /// bypass the interconnect and the fault plan: they model clients at
    /// the machine's front door, not inter-node traffic. At the same
    /// delivery cycle they order after all wire messages (their inbox
    /// sequence sits above the wire-sequence space) and among themselves
    /// in injection order, so the schedule stays a pure function of the
    /// arrival schedule regardless of scheduler implementation.
    ///
    /// Only call between runs (never from inside a dispatched event);
    /// the typical open-loop driver alternates `run_until(next_arrival)`
    /// with `inject_request(next_arrival, ..)`.
    pub fn inject_request(
        &mut self,
        at: Cycles,
        req: u64,
        obj: ObjRef,
        method: MethodId,
        args: &[Value],
    ) {
        debug_assert!(self.shard.is_none(), "inject_request inside a shard worker");
        self.flush_record(crate::trace::TraceRecord {
            at,
            event: crate::trace::TraceEvent::RequestArrived {
                node: obj.node,
                req,
            },
        });
        let seq = (1u64 << 63) | self.ext_seq;
        self.ext_seq += 1;
        let d = obj.node.idx();
        self.nodes[d].inbox.push(InboxEntry {
            deliver: at,
            seq,
            src: obj.node,
            msg: Packet::Raw(Msg::Invoke {
                obj: obj.index,
                method,
                args: args.to_vec(),
                cont: Continuation::Request(req),
                forwarded: false,
            }),
            // The blame tag is the request id shifted into the "+1, 0 =
            // untagged" encoding; everything this request causes inherits
            // it through the inbox/context/lock-waiter chain.
            req: req + 1,
            retx: false,
        });
        let t = self.nodes[d].time.max(at);
        self.sched_note(t, 0, d);
    }

    /// Record that the admission controller shed request `req` bound for
    /// `node` at time `at` (it never entered the machine). Trace-only:
    /// machine state is untouched.
    pub fn note_request_shed(&mut self, at: Cycles, node: NodeId, req: u64) {
        self.flush_record(crate::trace::TraceRecord {
            at,
            event: crate::trace::TraceEvent::RequestShed { node, req },
        });
    }

    /// The admission controller's congestion signal: everything queued on
    /// a node — undelivered inbox messages, ready contexts, and granted
    /// lock invocations.
    pub fn queue_depth(&self, node: NodeId) -> usize {
        let n = &self.nodes[node.idx()];
        n.inbox.len() + n.ready.len() + n.granted.len()
    }

    /// Drain the completion log: `(request id, completion time)` pairs in
    /// request-id order, where the completion time is the serving node's
    /// clock when the request's reply was delivered.
    pub fn take_completed_requests(&mut self) -> Vec<(u64, Cycles)> {
        std::mem::take(&mut self.completions).into_iter().collect()
    }

    // ================= root invocation & message handling =================

    /// Root invocation: run `method` on `obj` with `args` to quiescence and
    /// return the reply (if the program replied).
    pub fn call(
        &mut self,
        obj: ObjRef,
        method: MethodId,
        args: &[Value],
    ) -> Result<Option<Value>, Trap> {
        self.result = None;
        self.san_root_reset();
        self.poll_floor = Cycles::MAX;
        self.san_step = Self::SAN_ROOT_STEP;
        self.current_req = 0;
        crate::wrapper::run_invocation(
            self,
            obj.node.idx(),
            obj.index,
            method,
            args.to_vec(),
            Continuation::Root,
            false,
        )?;
        self.run_to_quiescence()?;
        Ok(self.result.take())
    }

    fn handle_msg(&mut self, node: usize, msg: Msg) -> Result<(), Trap> {
        match msg {
            Msg::Invoke {
                obj,
                method,
                args,
                cont,
                forwarded,
            } => {
                self.ctr(node).wrapper_runs += 1;
                crate::wrapper::run_invocation(self, node, obj, method, args, cont, forwarded)
            }
            Msg::Reply { cont, value } => {
                debug_assert_eq!(cont.node.idx(), node);
                self.fill_slot(node, cont.ctx, cont.gen, cont.slot, value)
            }
            Msg::CollDown {
                obj,
                method,
                args,
                init,
                id,
                pos,
                parent,
                parent_pos,
                child_ix,
                children,
                kind,
            } => {
                self.ctr(node).coll_legs_handled += 1;
                if kind == crate::msg::CollKind::Cast {
                    // Fire-and-forget: no fold state, nothing flows back.
                    self.ctr(node).wrapper_runs += 1;
                    return crate::wrapper::run_invocation(
                        self,
                        node,
                        obj,
                        method,
                        args,
                        Continuation::Discard,
                        false,
                    );
                }
                let mut need = 1u8;
                if children >= 1 {
                    need |= 1 << 1;
                }
                if children >= 2 {
                    need |= 1 << 2;
                }
                let prev = self.nodes[node].coll.insert(
                    (init.0, id, pos),
                    CollState {
                        kind,
                        acc: [None, None, None],
                        need,
                        filled: 0,
                        parent,
                        parent_pos,
                        child_ix,
                        cont: None,
                    },
                );
                if prev.is_some() {
                    return Err(Trap::new(format!(
                        "duplicate collective leg (init {} id {id} pos {pos})",
                        init.0
                    )));
                }
                // Child contributions that raced ahead of this leg were
                // stashed; fold them in now that the state exists.
                if let Some(early) = self.nodes[node].coll_early.remove(&(init.0, id, pos)) {
                    for (ix, v) in early {
                        self.coll_fill(node, init, id, pos, ix, v)?;
                    }
                }
                if kind == crate::msg::CollKind::Barrier {
                    // Arrival *is* the member's contribution; no method runs.
                    return self.coll_fill(node, init, id, pos, 0, Value::Nil);
                }
                self.ctr(node).wrapper_runs += 1;
                let cont = Continuation::Coll {
                    node: NodeId(node as u32),
                    init,
                    id,
                    pos,
                    kind,
                };
                crate::wrapper::run_invocation(self, node, obj, method, args, cont, false)
            }
            Msg::CollUp {
                init,
                id,
                parent_pos,
                child_ix,
                value,
                kind: _,
            } => {
                self.ctr(node).coll_legs_handled += 1;
                self.coll_fill(node, init, id, parent_pos, child_ix, value)
            }
        }
    }

    /// Run a lock grant: the lock was released with this invocation queued.
    /// The lock may have been re-taken in the meantime (a later stack task
    /// can sneak in); in that case the invocation goes back on the queue.
    pub(crate) fn run_granted(
        &mut self,
        node: usize,
        obj: u32,
        d: DeferredInvoke,
    ) -> Result<(), Trap> {
        let held = self.nodes[node].objects[obj as usize]
            .lock
            .as_ref()
            .is_some_and(|l| l.holder.is_some());
        if held {
            self.nodes[node].objects[obj as usize]
                .lock
                .as_mut()
                .expect("granted on unlocked class")
                .waiters
                .push_front(d);
            return Ok(());
        }
        crate::wrapper::run_invocation(self, node, obj, d.method, d.args, d.cont, d.forwarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_runtime(n_nodes: u32) -> Runtime {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        pb.method(c, "id", 1, |mb| mb.reply(mb.arg(0)));
        Runtime::new(
            pb.finish(),
            n_nodes,
            CostModel::unit(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap()
    }

    #[test]
    fn setup_and_field_access() {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        let x = pb.field(c, "x");
        let xs = pb.array_field(c, "xs");
        pb.method(c, "id", 0, |mb| mb.reply_nil());
        let mut rt = Runtime::new(
            pb.finish(),
            2,
            CostModel::unit(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        let o = rt.alloc_object_by_name("C", NodeId(1));
        assert_eq!(o.node, NodeId(1));
        rt.set_field(o, x, Value::Int(9));
        assert_eq!(rt.get_field(o, x), Value::Int(9));
        rt.set_array(o, xs, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(rt.get_array(o, xs).len(), 2);
    }

    #[test]
    fn apply_fill_state_machine() {
        let mut slots = vec![
            SlotState::Pending,
            SlotState::Join(2),
            SlotState::Full(Value::Nil),
        ];
        assert_eq!(Runtime::apply_fill(&mut slots, 0, Value::Int(1)), Ok(true));
        assert_eq!(slots[0], SlotState::Full(Value::Int(1)));
        assert_eq!(Runtime::apply_fill(&mut slots, 1, Value::Nil), Ok(false));
        assert_eq!(Runtime::apply_fill(&mut slots, 1, Value::Nil), Ok(true));
        assert_eq!(slots[1], SlotState::Join(0));
        assert!(Runtime::apply_fill(&mut slots, 1, Value::Nil).is_err());
        assert!(Runtime::apply_fill(&mut slots, 2, Value::Nil).is_err());
        assert!(Runtime::apply_fill(&mut slots, 9, Value::Nil).is_err());
    }

    #[test]
    fn quiescent_when_empty() {
        let rt = tiny_runtime(2);
        assert!(rt.is_quiescent());
        assert_eq!(rt.live_contexts(), 0);
        assert_eq!(rt.makespan(), 0);
    }

    #[test]
    fn slot_cap_enforced() {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        pb.method(c, "many", 0, |mb| {
            for _ in 0..70 {
                mb.slot();
            }
            mb.reply_nil();
        });
        let err = Runtime::new(
            pb.finish(),
            1,
            CostModel::unit(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .err()
        .expect("should reject >64 slots");
        assert!(err[0].what.contains("64-slot"));
    }
}
