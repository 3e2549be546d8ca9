//! The machine: per-node state (`Node`), the [`Runtime`] that owns the
//! nodes and the interconnect, its construction, the harness-side
//! setup/inspection API, root invocation ([`Runtime::call`]) and the
//! open-system entry points. The protocols that run on it live beside the
//! state they work on — contexts and futures in [`crate::context`],
//! continuations in [`crate::cont`], locks in [`crate::object`], the
//! message path in `transport.rs`, collectives in `coll.rs` — and which
//! event runs next is [`crate::sched`]'s business.

use crate::coll::CollTable;
use crate::cont::Continuation;
use crate::context::{CtxTable, FrameStore};
use crate::error::Trap;
use crate::explore::Mutant;
use crate::msg::{Msg, Packet};
use crate::object::{Arena, ClassLayout, DeferredInvoke, FieldKind, Object, Span};
use crate::sched::{SchedEntry, SchedImpl};
use crate::transport::{InboxEntry, Transport};
use crate::{ExecMode, InterfaceSet, SchemaMap};
use hem_analysis::Analysis;
use hem_ir::{ClassId, FieldId, MethodId, ObjRef, Program, ValidationError, Value};
use hem_machine::cost::CostModel;
use hem_machine::fault::FaultPlan;
use hem_machine::net::Network;
use hem_machine::stats::{Counters, MachineStats, SchedStats};
use hem_machine::{Cycles, NodeId};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// One simulated processor. A Time-Warp checkpoint of a node (see
/// [`crate::timewarp`]) is two undo journals — the context slab's
/// ([`CtxTable`]) and the field arena's ([`Arena`]), which save only the
/// entries and spans a window changes — plus a whole copy of everything
/// else, taken by [`Node::save_rest`] and put back by
/// [`Node::swap_rest`].
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
    /// Reliable-transport sender and receiver state.
    pub tx: Transport,
    /// Next wire sequence counter for packets *sent* by this node. The
    /// injected sequence number is `(wire_seq << 20) | id`, a pure
    /// function of the sender's own execution history — so fault fates
    /// and same-cycle delivery order are identical across every
    /// [`SchedImpl`] and thread count, which a network-global counter
    /// (dependent on the global interleaving of sends) could not be.
    pub wire_seq: u64,
    /// Fold state of the modeled collectives hosted on this node.
    pub coll: CollTable,
}

/// The whole node, journals left empty: the oracle the rollback tests
/// compare a restored node with.
#[cfg(test)]
impl Clone for Node {
    fn clone(&self) -> Self {
        let mut n = Node::new(self.id);
        self.save_rest(&mut n);
        n.arena = self.arena.clone();
        n.ctxs = self.ctxs.clone();
        n
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
            tx: Transport::default(),
            wire_seq: 0,
            coll: CollTable::default(),
        }
    }

    /// Copy every field but the journaled two — the arena and the
    /// context slab — into the snapshot buffer `buf`. Field-wise, so every
    /// vector, deque and heap refills its existing storage: once a buffer
    /// has held a node, snapshotting that node into it again allocates
    /// only if the node has grown past it. (The transport and collective
    /// maps re-clone; they are empty on a fault-free run.) The
    /// destructuring makes a forgotten field a compile error.
    pub(crate) fn save_rest(&self, buf: &mut Node) {
        let Node {
            id,
            time,
            objects,
            arena: _,
            ctxs: _,
            ready,
            granted,
            inbox,
            counters,
            sched_noted,
            tx,
            wire_seq,
            coll,
        } = self;
        buf.id = *id;
        buf.time = *time;
        buf.objects.clone_from(objects);
        buf.ready.clone_from(ready);
        buf.granted.clone_from(granted);
        buf.inbox.clone_from(inbox);
        buf.counters.clone_from(counters);
        buf.sched_noted = *sched_noted;
        buf.tx.clone_from(tx);
        buf.wire_seq = *wire_seq;
        buf.coll.clone_from(coll);
    }

    /// Trade every field [`Self::save_rest`] copies with the snapshot
    /// buffer `buf`: the node gets its window-edge state back, and the
    /// buffer keeps the cancelled one's storage for the next save.
    pub(crate) fn swap_rest(&mut self, buf: &mut Node) {
        let Node {
            id,
            time,
            objects,
            arena: _,
            ctxs: _,
            ready,
            granted,
            inbox,
            counters,
            sched_noted,
            tx,
            wire_seq,
            coll,
        } = self;
        debug_assert_eq!(*id, buf.id, "snapshot of another node");
        std::mem::swap(time, &mut buf.time);
        std::mem::swap(objects, &mut buf.objects);
        std::mem::swap(ready, &mut buf.ready);
        std::mem::swap(granted, &mut buf.granted);
        std::mem::swap(inbox, &mut buf.inbox);
        std::mem::swap(counters, &mut buf.counters);
        std::mem::swap(sched_noted, &mut buf.sched_noted);
        std::mem::swap(tx, &mut buf.tx);
        std::mem::swap(wire_seq, &mut buf.wire_seq);
        std::mem::swap(coll, &mut buf.coll);
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

/// The largest machine [`Runtime::new`] builds: a wire sequence number
/// packs the sender's node id into its low 20 bits.
pub const MAX_NODES: u32 = (1 << 20) - 1;

/// What is fixed while the machine runs (paper §1): the program, its class
/// layouts and the schema chosen for each method, and the run knobs. The
/// coordinator and every shard worker read one `Arc<Image>`; a knob
/// changes between runs, copy-on-write ([`Runtime::set_cost`] and
/// friends), so a pool built from another image is never reused.
#[derive(Clone)]
pub(crate) struct Image {
    pub program: Program,
    pub layouts: Vec<ClassLayout>,
    pub schemas: SchemaMap,
    pub cost: CostModel,
    pub mode: ExecMode,
    /// Speculative inlining of local, unlocked, non-blocking leaf calls
    /// (§4.2 includes it in all measurements; ablations turn it off).
    pub enable_inlining: bool,
    /// Maximum sequential (host-stack) nesting before forcing a fallback
    /// (the analogue of a stack-overflow check; Olden and Stacklets do
    /// stack checks, the paper's C implementation relies on large stacks).
    pub max_seq_depth: u32,
    /// Reliable transport (seq/ack/retransmit framing) engaged? Off by
    /// default: the raw framing is bit-identical to the pre-transport
    /// runtime and correct on a fault-free wire.
    pub reliable: bool,
    /// Base retransmission timeout in virtual cycles (attempt 0 waits this
    /// long; each retry doubles it up to `retx_cap`).
    pub retx_base: Cycles,
    pub retx_cap: Cycles,
}

/// The hybrid-execution-model runtime over a simulated multicomputer.
///
/// See the [crate docs](crate) for the model and an example.
pub struct Runtime {
    pub(crate) img: Arc<Image>,
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
    /// Sequential (host-stack) nesting of the activation running now; 0
    /// between events.
    pub(crate) seq_depth: u32,
    /// Storage of the stack activations, one level per `seq_depth` (see
    /// [`FrameStore`]). Empty of live state between events, so no
    /// checkpoint copies it.
    pub(crate) frames: FrameStore,
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
    /// Speculation diagnostics for [`SchedImpl::Speculative`] runs
    /// (windows, rollbacks, anti-messages, checkpointed nodes); all zero
    /// under every other scheduler. Deliberately *not* part of
    /// [`MachineStats`]: the counts depend on the thread count, like the
    /// heap diagnostics. See [`crate::timewarp::SpecStats`].
    pub(crate) spec: crate::timewarp::SpecStats,
    /// Persistent shard pool, shared by both threaded executors: worker
    /// threads with nodes pinned to shards,
    /// kept alive across windows *and* across `run_until` chunks so the
    /// steady-state window edge is an atomic epoch publication with zero
    /// runtime moves and zero coordinator channel round-trips (see
    /// [`crate::shard`]). Built lazily on the first windowed run, rebuilt
    /// when its workers were built from other inputs (`ensure_pool`).
    pub(crate) pool: Option<crate::shard::ShardPool>,
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
        let bad_count = match n_nodes {
            0 => Some("node count 0: a machine needs at least one node".to_string()),
            n if n > MAX_NODES => Some(format!(
                "node count {n} exceeds the 2^20 wire-sequence id space"
            )),
            _ => None,
        };
        if let Some(what) = bad_count {
            return Err(vec![ValidationError {
                method: None,
                at: None,
                what,
            }]);
        }
        for (i, m) in program.methods.iter().enumerate() {
            if m.slots > 64 {
                return Err(vec![ValidationError {
                    method: Some(MethodId(i as u32)),
                    at: None,
                    what: format!("{} slots exceed the 64-slot touch mask", m.slots),
                }]);
            }
        }
        let img = Image {
            schemas: Analysis::analyze(&program).schemas(interfaces),
            layouts: program.classes.iter().map(ClassLayout::of).collect(),
            program,
            cost,
            mode,
            enable_inlining: true,
            max_seq_depth: 1200,
            reliable: false,
            retx_base: 0,
            retx_cap: 0,
        };
        Ok(Self::assemble(Arc::new(img), n_nodes))
    }

    /// An idle `n_nodes` machine over `img`, every field at its initial
    /// value ([`Self::new`], and the shard pool's worker runtimes, which
    /// share the coordinator's image).
    pub(crate) fn assemble(img: Arc<Image>, n_nodes: u32) -> Runtime {
        Runtime {
            img,
            nodes: (0..n_nodes).map(|i| Node::new(NodeId(i))).collect(),
            net: Network::new(),
            next_task: 0,
            current_task: 0,
            current_req: 0,
            result: None,
            active: None,
            seq_depth: 0,
            frames: FrameStore::default(),
            sched_impl: SchedImpl::default(),
            sched: Some(BinaryHeap::new()),
            sched_stats: SchedStats::default(),
            trace_buf: crate::trace::Trace::default(),
            observer: None,
            sanitizer: None,
            explore: None,
            #[cfg(any(test, feature = "mutants"))]
            mutant: Mutant::from_env(),
            poll_floor: Cycles::MAX,
            san_step: Self::SAN_ROOT_STEP,
            shard: None,
            ext_seq: 0,
            spec: crate::timewarp::SpecStats::default(),
            pool: None,
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
    /// idempotent. The timeout base is 4× the cost model's round trip,
    /// capped at 64× that.
    pub fn enable_reliable_transport(&mut self) {
        if self.img.reliable {
            return;
        }
        let img = self.knobs();
        let c = &img.cost;
        let rtt = c.msg_latency + c.handler + c.ack_overhead + c.reply_latency + c.msg_send;
        img.reliable = true;
        img.retx_base = 4 * rtt.max(1);
        img.retx_cap = 64 * img.retx_base;
    }

    /// Install a deterministic fault schedule on the interconnect and
    /// engage the reliable transport (a lossy wire without retransmission
    /// would wedge the machine or silently corrupt the run).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_plan(Some(plan));
        self.enable_reliable_transport();
    }

    /// Is the reliable transport engaged?
    pub fn reliable_transport(&self) -> bool {
        self.img.reliable
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
        &self.img.program
    }

    /// The selected sequential schemas.
    pub fn schemas(&self) -> &SchemaMap {
        &self.img.schemas
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.img.cost
    }

    /// The sequential (host-stack) nesting past which an invocation falls
    /// back to the heap, and a non-blocking chain traps (default 1200).
    pub fn max_seq_depth(&self) -> u32 {
        self.img.max_seq_depth
    }

    /// The run knobs, for a setter: copied first if a shard pool still
    /// shares them, which then rebuilds on its next run.
    fn knobs(&mut self) -> &mut Image {
        Arc::make_mut(&mut self.img)
    }

    /// Set the cost model for the runs that follow.
    pub fn set_cost(&mut self, cost: CostModel) {
        self.knobs().cost = cost;
    }

    /// Set the execution mode for the runs that follow.
    pub fn set_mode(&mut self, mode: ExecMode) {
        self.knobs().mode = mode;
    }

    /// Turn speculative inlining of local non-blocking leaf calls on or off
    /// (on by default: §4.2 includes it in all measurements).
    pub fn set_inlining(&mut self, on: bool) {
        self.knobs().enable_inlining = on;
    }

    /// Set [`Self::max_seq_depth`] for the runs that follow.
    pub fn set_max_seq_depth(&mut self, depth: u32) {
        self.knobs().max_seq_depth = depth;
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a method id by class and method name.
    pub fn find_method(&self, class: &str, name: &str) -> Option<MethodId> {
        self.img.program.find_method(class, name)
    }

    /// Allocate an object of `class` on `node` (harness-side placement —
    /// data layout is an input to the execution model).
    pub fn alloc_object(&mut self, class: ClassId, node: NodeId) -> ObjRef {
        let index = self.nodes[node.idx()].new_object(&self.img.layouts[class.idx()], class);
        ObjRef { node, index }
    }

    /// Allocate by class name; panics on unknown class (harness error).
    pub fn alloc_object_by_name(&mut self, class: &str, node: NodeId) -> ObjRef {
        let cid = self
            .img
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
                    self.charge(node, self.cost().locality_check);
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
        self.img.layouts[o.class.idx()].kinds[field.idx()]
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
            && self.nodes.iter().all(|n| {
                !n.has_local_work() && n.inbox.is_empty() && n.tx.first_deadline().is_none()
            })
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

    // ================= open-system service mode =================

    /// Inject an external client request: a root invocation of `method`
    /// on `obj` whose message arrives at the target node at virtual time
    /// `at`, whose reply is recorded as
    /// [`crate::trace::TraceEvent::RequestDone`] under `req`.
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
    /// with `inject_request(next_arrival, ..)` and reads completions from
    /// an attached observer.
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

    // ================= root invocation =================

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
        let mut a = self.frames.take_args(self.seq_depth);
        a.extend_from_slice(args);
        crate::wrapper::run_invocation(
            self,
            obj.node.idx(),
            obj.index,
            method,
            a,
            Continuation::Root,
            false,
        )?;
        self.run_to_quiescence()?;
        Ok(self.result.take())
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

    #[test]
    fn node_count_cap_enforced() {
        let build = |n| {
            let mut pb = hem_ir::ProgramBuilder::new();
            let c = pb.class("C", false);
            pb.method(c, "id", 0, |mb| mb.reply_nil());
            Runtime::new(
                pb.finish(),
                n,
                CostModel::unit(),
                ExecMode::Hybrid,
                InterfaceSet::Full,
            )
        };
        let err = build(MAX_NODES + 1).err().expect("2^20 nodes rejected");
        assert_eq!(
            err[0].to_string(),
            "node count 1048576 exceeds the 2^20 wire-sequence id space"
        );
        let err = build(0).err().expect("0 nodes rejected");
        assert_eq!(
            err[0].to_string(),
            "node count 0: a machine needs at least one node"
        );
        assert!(build(1).is_ok());
        assert!(build(4).is_ok());
    }
}
