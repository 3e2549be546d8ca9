//! Heap activation frames (contexts) and the per-node context table.
//!
//! A context is the paper's heap-allocated activation record: program
//! counter, locals, and — crucially — the **future slots embedded in the
//! frame itself**. (StackThreads allocates futures separately and pays an
//! extra memory reference per touch; the paper calls this out as a design
//! difference, and the `ablation_futures` bench quantifies it.)
//!
//! Contexts are recycled through a free list with a generation counter;
//! every [`ContRef`](hem_ir::ContRef) carries the generation it was minted
//! against, so a stale continuation reaching a recycled context is caught
//! as a trap instead of corrupting an unrelated activation.

use crate::cont::Continuation;
use crate::error::Trap;
use crate::explore::Mutant;
use crate::rt::Runtime;
use crate::trace::TraceEvent;
use hem_ir::{MethodId, ObjRef, Value};
use hem_machine::NodeId;

/// The state of one future slot inside an activation frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotState {
    /// Untouched.
    Empty,
    /// An invocation will reply here.
    Pending,
    /// Resolved.
    Full(Value),
    /// A join counter awaiting `n` more completions; `Join(0)` is resolved.
    Join(u32),
}

impl SlotState {
    /// Is the slot resolved (a touch of it would not block)?
    pub fn satisfied(&self) -> bool {
        matches!(self, SlotState::Full(_) | SlotState::Join(0))
    }

    /// The value a `GetSlot` reads: the payload for `Full`, `Nil` for a
    /// completed join.
    pub fn value(&self) -> Option<Value> {
        match self {
            SlotState::Full(v) => Some(*v),
            SlotState::Join(0) => Some(Value::Nil),
            _ => None,
        }
    }
}

/// The mutable core of an activation: identical for stack frames (the
/// sequential interpreter builds one in the `FrameStore` level of its
/// call depth) and heap contexts (which wrap one in scheduling state).
/// Falling back from stack to heap is *copying* an `ActFrame` into a
/// [`Context`]'s retained vectors — the mechanical heart of the paper's
/// lazy context allocation.
#[derive(Debug, PartialEq)]
pub struct ActFrame {
    /// Executing method.
    pub method: MethodId,
    /// Receiver (`self`); always local to the executing node.
    pub obj: ObjRef,
    /// Next instruction index.
    pub pc: u32,
    /// Registers (`0..params` are the arguments).
    pub locals: Vec<Value>,
    /// Embedded future slots.
    pub slots: Vec<SlotState>,
}

/// `clone_from` refills the target's register and slot vectors in place:
/// a standing checkpoint buffer (see [`crate::timewarp`]) is re-used
/// window after window without touching the allocator.
impl Clone for ActFrame {
    fn clone(&self) -> Self {
        ActFrame {
            method: self.method,
            obj: self.obj,
            pc: self.pc,
            locals: self.locals.clone(),
            slots: self.slots.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let ActFrame {
            method,
            obj,
            pc,
            locals,
            slots,
        } = src;
        self.method = *method;
        self.obj = *obj;
        self.pc = *pc;
        self.locals.clone_from(locals);
        self.slots.clone_from(slots);
    }
}

impl ActFrame {
    /// A frame without storage: a placeholder until [`Self::reset`] or
    /// `clone_from` fills it.
    pub fn empty(method: MethodId, obj: ObjRef) -> Self {
        ActFrame {
            method,
            obj,
            pc: 0,
            locals: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Make this the fresh frame for invoking `method` on `obj` with
    /// `args`, refilling the existing vectors in place.
    #[inline]
    pub fn reset(
        &mut self,
        method: MethodId,
        obj: ObjRef,
        nlocals: u16,
        nslots: u16,
        args: &[Value],
    ) {
        debug_assert!(
            args.len() <= nlocals as usize,
            "more arguments than registers"
        );
        self.method = method;
        self.obj = obj;
        self.pc = 0;
        self.locals.clear();
        self.locals.extend_from_slice(args);
        self.locals.resize(nlocals as usize, Value::Nil);
        self.slots.clear();
        self.slots.resize(nslots as usize, SlotState::Empty);
    }

    /// Words of live state (locals + slots): the save/restore cost basis.
    pub fn words(&self) -> u64 {
        (self.locals.len() + self.slots.len()) as u64
    }
}

/// Scheduling status of a heap context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitState {
    /// On the ready queue (or about to be).
    Ready,
    /// Currently being stepped by the scheduler.
    Running,
    /// Suspended on a touch: `mask` bits are the awaited slots, `missing`
    /// of them are still unresolved.
    Waiting {
        /// Bitmask of awaited slot indices.
        mask: u64,
        /// Number of awaited slots still unresolved.
        missing: u16,
    },
    /// A lazily created shell awaiting population by its unwinding caller
    /// (paper §3.2.3 case 3).
    Shell,
    /// Free-list entry.
    Free,
}

/// A heap activation record: frame + scheduling metadata.
#[derive(Debug)]
pub struct Context {
    /// The activation state.
    pub frame: ActFrame,
    /// Reply capability (set at creation for parallel invocations, linked
    /// lazily on fallback for sequential ones — paper Fig. 6).
    pub cont: Continuation,
    /// Scheduling status.
    pub wait: WaitState,
    /// Generation (stale-continuation guard).
    pub gen: u32,
    /// Whether this context holds its receiver's lock.
    pub holds_lock: bool,
    /// True if this context's continuation has been consumed (forwarded or
    /// stored); a subsequent `Reply` is a trap.
    pub cont_consumed: bool,
    /// Blame tag (originating external request id + 1; 0 = untagged) of
    /// the step that created this context; dispatching the context later
    /// re-establishes the tag. Rides the node-checkpoint `Clone` so
    /// Time-Warp rollback rewinds it with the rest of the table.
    pub req: u64,
}

impl Clone for Context {
    fn clone(&self) -> Self {
        Context {
            frame: self.frame.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Context {
            frame,
            cont,
            wait,
            gen,
            holds_lock,
            cont_consumed,
            req,
        } = src;
        self.frame.clone_from(frame);
        self.cont = *cont;
        self.wait = *wait;
        self.gen = *gen;
        self.holds_lock = *holds_lock;
        self.cont_consumed = *cont_consumed;
        self.req = *req;
    }
}

/// Per-node context table: slab with free list and generations. `Clone`
/// (used by the speculative executor's node checkpoints) captures the
/// slab, free list, and generation counters exactly, so a restored table
/// re-allocates the same indices and generations on re-execution;
/// `clone_from` does so into the target's existing storage.
#[derive(Debug, Default)]
pub struct CtxTable {
    entries: Vec<Context>,
    free: Vec<u32>,
    /// Contexts currently allocated (for leak checks).
    pub live: u64,
    /// High-water mark of simultaneously live contexts.
    pub peak: u64,
}

impl Clone for CtxTable {
    fn clone(&self) -> Self {
        CtxTable {
            entries: self.entries.clone(),
            free: self.free.clone(),
            live: self.live,
            peak: self.peak,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let CtxTable {
            entries,
            free,
            live,
            peak,
        } = src;
        // Element-wise `Context::clone_from` over the common prefix.
        self.entries.clone_from(entries);
        self.free.clone_from(free);
        self.live = *live;
        self.peak = *peak;
    }
}

impl CtxTable {
    /// Allocate a context whose frame `init` fills — in the vectors a
    /// recycled entry retained, so a warm table allocates nothing. Returns
    /// its index.
    pub fn alloc(
        &mut self,
        cont: Continuation,
        wait: WaitState,
        init: impl FnOnce(&mut ActFrame),
    ) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        let i = match self.free.pop() {
            // gen was bumped at free time.
            Some(i) => i,
            None => {
                let none = ObjRef {
                    node: NodeId(0),
                    index: 0,
                };
                self.entries.push(Context {
                    frame: ActFrame::empty(MethodId(0), none),
                    cont,
                    wait: WaitState::Free,
                    gen: 0,
                    holds_lock: false,
                    cont_consumed: false,
                    req: 0,
                });
                (self.entries.len() - 1) as u32
            }
        };
        let e = &mut self.entries[i as usize];
        debug_assert_eq!(e.wait, WaitState::Free);
        init(&mut e.frame);
        e.cont = cont;
        e.wait = wait;
        e.holds_lock = false;
        e.cont_consumed = false;
        e.req = 0;
        i
    }

    /// Free a context, bumping its generation.
    pub fn release(&mut self, i: u32) {
        let e = &mut self.entries[i as usize];
        debug_assert_ne!(e.wait, WaitState::Free, "double free of context {i}");
        e.wait = WaitState::Free;
        e.gen = e.gen.wrapping_add(1);
        e.frame.locals.clear();
        e.frame.slots.clear();
        self.free.push(i);
        self.live -= 1;
    }

    /// Hand the frame vectors of a finished activation back to entry `i`.
    /// A running context's frame is out of the table, so when the
    /// activation releases itself the entry holds only an empty
    /// placeholder; returning the (emptied) vectors keeps one set of
    /// frame storage per slab entry whatever its state. That shape is
    /// what lets a Time-Warp snapshot buffer that traded places with the
    /// live node on rollback be refilled in place (see
    /// [`crate::timewarp`]). No-op if the entry is no longer free.
    pub fn retire(&mut self, i: u32, frame: ActFrame) {
        let e = &mut self.entries[i as usize];
        if e.wait == WaitState::Free {
            let ActFrame {
                mut locals,
                mut slots,
                ..
            } = frame;
            locals.clear();
            slots.clear();
            e.frame.locals = locals;
            e.frame.slots = slots;
        }
    }

    /// Borrow a context.
    pub fn get(&self, i: u32) -> &Context {
        &self.entries[i as usize]
    }

    /// Borrow a context mutably.
    pub fn get_mut(&mut self, i: u32) -> &mut Context {
        &mut self.entries[i as usize]
    }

    /// Current generation of slot `i` (for minting continuations).
    pub fn gen(&self, i: u32) -> u32 {
        self.entries[i as usize].gen
    }

    /// Indices of live (non-free) contexts — diagnostics for stuck runs.
    pub fn live_indices(&self) -> Vec<u32> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.wait != WaitState::Free)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Storage for stack activations: one LIFO level per sequential call
/// depth (`Runtime::seq_depth`). The activation at depth *d* builds its
/// frame in the locals and slots vectors parked at *d*; the caller at
/// depth *d* — a stack frame, or at depth 0 a heap context or an arrival —
/// evaluates an `Invoke` / `Forward`'s operands into the argument vector
/// parked at *d*, which the callee parks there again once it has copied
/// the values into its locals (a remote send carries the vector in its
/// message, and the receiving activation parks that one instead). After
/// warm-up a plain call therefore touches no allocator.
///
/// The store lives on the `Runtime`, not on a `Node`: between events no
/// level is in use (`seq_depth == 0`), so its vectors hold no live state
/// and the store never enters a checkpoint.
#[derive(Debug, Default)]
pub(crate) struct FrameStore {
    levels: Vec<Level>,
}

#[derive(Debug, Default)]
struct Level {
    locals: Vec<Value>,
    slots: Vec<SlotState>,
    args: Vec<Value>,
}

impl FrameStore {
    #[inline]
    fn level(&mut self, depth: u32) -> &mut Level {
        let d = depth as usize;
        if d >= self.levels.len() {
            self.levels.resize_with(d + 1, Level::default);
        }
        &mut self.levels[d]
    }

    /// The argument vector parked at `depth`, emptied, for the caller
    /// there to evaluate operands into.
    #[inline]
    pub(crate) fn take_args(&mut self, depth: u32) -> Vec<Value> {
        let mut args = std::mem::take(&mut self.level(depth).args);
        args.clear();
        args
    }

    /// Park an argument vector at `depth` once its values are copied out;
    /// of it and the vector already there, the larger stays.
    #[inline]
    pub(crate) fn park_args(&mut self, depth: u32, args: Vec<Value>) {
        let parked = &mut self.level(depth).args;
        if args.capacity() > parked.capacity() {
            *parked = args;
        }
    }

    /// The fresh frame of the activation of `method` on `obj` at `depth`,
    /// built in the vectors parked there.
    #[inline]
    pub(crate) fn frame(
        &mut self,
        depth: u32,
        method: MethodId,
        obj: ObjRef,
        nlocals: u16,
        nslots: u16,
        args: &[Value],
    ) -> ActFrame {
        let l = self.level(depth);
        let mut fr = ActFrame {
            locals: std::mem::take(&mut l.locals),
            slots: std::mem::take(&mut l.slots),
            ..ActFrame::empty(method, obj)
        };
        fr.reset(method, obj, nlocals, nslots, args);
        fr
    }

    /// Park a finished activation's vectors at `depth`, emptying its frame.
    #[inline]
    pub(crate) fn park_frame(&mut self, depth: u32, fr: &mut ActFrame) {
        let l = self.level(depth);
        l.locals = std::mem::take(&mut fr.locals);
        l.slots = std::mem::take(&mut fr.slots);
    }

    /// Overwrite every parked vector with junk — whatever an earlier or a
    /// cancelled event could have left there — and return how many levels
    /// there were.
    #[cfg(test)]
    pub(crate) fn scribble(&mut self) -> usize {
        for l in &mut self.levels {
            l.locals = vec![Value::Int(-1); 13];
            l.slots = vec![SlotState::Full(Value::Int(-1)); 13];
            l.args = vec![Value::Int(-1); 13];
        }
        self.levels.len()
    }
}

/// The context protocol: determining futures, waking their awaiters, and
/// moving activations between the stack and the heap.
impl Runtime {
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
                self.charge(tnode, self.cost().future_store);
                return Ok(());
            }
        }
        let cost_store = self.cost().future_store;
        let cost_enqueue = self.cost().enqueue;
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
                TraceEvent::Resume {
                    node: NodeId(tnode as u32),
                    ctx,
                },
            );
        }
        Ok(())
    }

    /// Allocate a heap context whose frame `init` fills, charging
    /// allocation + state-save costs. `fallback` distinguishes lazy
    /// (stack-unwinding) creations from eager parallel invocations in the
    /// counters.
    pub(crate) fn new_ctx(
        &mut self,
        node: usize,
        cont: Continuation,
        wait: WaitState,
        fallback: bool,
        init: impl FnOnce(&mut ActFrame),
    ) -> u32 {
        let n = &mut self.nodes[node];
        let id = n.ctxs.alloc(cont, wait, init);
        let c = n.ctxs.get_mut(id);
        // The context inherits the creating step's blame tag, so a later
        // resume of it (a kind-1 ready dispatch) re-establishes the tag.
        c.req = self.current_req;
        let (words, method) = (c.frame.words(), c.frame.method);
        n.counters.ctx_alloc += 1;
        if fallback {
            n.counters.fallbacks += 1;
        }
        self.charge(node, self.cost().ctx_alloc + self.cost().ctx_word * words);
        self.san_ctx_alloc(node, id, fallback);
        self.emit(
            node,
            if fallback {
                TraceEvent::Fallback {
                    node: NodeId(node as u32),
                    method,
                    ctx: id,
                }
            } else {
                TraceEvent::ParInvoke {
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
        self.charge(node, self.cost().enqueue);
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
        self.charge(node, self.cost().ctx_free);
        self.emit(
            node,
            TraceEvent::CtxFreed {
                node: NodeId(node as u32),
                ctx,
            },
        );
        let n = &mut self.nodes[node];
        n.counters.ctx_free += 1;
        n.ctxs.release(ctx);
        self.san_ctx_free();
    }

    /// Copy a stack frame into a lazily allocated heap context: the
    /// mechanical core of the paper's fallback (Fig. 6). The stack frame
    /// keeps its vectors (they go back to the frame store as it unwinds);
    /// `next_pc` is where the parallel version resumes.
    pub(crate) fn fallback_ctx(
        &mut self,
        node: usize,
        fr: &ActFrame,
        next_pc: u32,
        wait: WaitState,
    ) -> u32 {
        let id = self.new_ctx(node, Continuation::Unset, wait, true, |f| {
            f.clone_from(fr);
            f.pc = next_pc;
        });
        if wait == WaitState::Ready {
            self.enqueue_ready(node, id);
        } else {
            self.charge(node, self.cost().suspend);
            self.ctr(node).suspends += 1;
        }
        id
    }

    /// Populate a shell context created on our behalf by a CP callee
    /// (paper §3.2.3: "passing the continuation's future's context back to
    /// its caller") and schedule it.
    pub(crate) fn adopt_shell(&mut self, node: usize, shell: u32, fr: &ActFrame, next_pc: u32) {
        let words = fr.words();
        self.charge(node, self.cost().ctx_word * words);
        self.ctr(node).fallbacks += 1;
        let n = &mut self.nodes[node];
        let c = n.ctxs.get_mut(shell);
        debug_assert_eq!(c.wait, WaitState::Shell);
        debug_assert_eq!(c.frame.method, fr.method);
        debug_assert_eq!(c.frame.slots.len(), fr.slots.len());
        // The shell's slots carry only the callee's pending mark on the
        // return future; the stack frame has the same marking plus any
        // earlier resolved slots, so the stack frame's view wins.
        c.frame.clone_from(fr);
        c.frame.pc = next_pc;
        let method = c.frame.method;
        c.wait = WaitState::Ready;
        self.emit(
            node,
            TraceEvent::ShellAdopted {
                node: NodeId(node as u32),
                method,
                ctx: shell,
            },
        );
        self.enqueue_ready(node, shell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjRef = ObjRef {
        node: NodeId(0),
        index: 0,
    };

    fn init(f: &mut ActFrame) {
        f.reset(MethodId(0), OBJ, 4, 2, &[Value::Int(7)]);
    }

    fn frame() -> ActFrame {
        let mut f = ActFrame::empty(MethodId(0), OBJ);
        init(&mut f);
        f
    }

    #[test]
    fn frame_initialization() {
        let f = frame();
        assert_eq!(f.locals[0], Value::Int(7));
        assert_eq!(f.locals[1], Value::Nil);
        assert_eq!(f.slots, vec![SlotState::Empty; 2]);
        assert_eq!(f.words(), 6);
        assert_eq!(f.pc, 0);
    }

    #[test]
    fn slot_states() {
        assert!(!SlotState::Empty.satisfied());
        assert!(!SlotState::Pending.satisfied());
        assert!(SlotState::Full(Value::Nil).satisfied());
        assert!(SlotState::Join(0).satisfied());
        assert!(!SlotState::Join(3).satisfied());
        assert_eq!(SlotState::Full(Value::Int(1)).value(), Some(Value::Int(1)));
        assert_eq!(SlotState::Join(0).value(), Some(Value::Nil));
        assert_eq!(SlotState::Pending.value(), None);
    }

    #[test]
    fn table_allocates_and_recycles_with_generation() {
        let mut t = CtxTable::default();
        let a = t.alloc(Continuation::Unset, WaitState::Ready, init);
        assert_eq!(t.live, 1);
        assert_eq!(t.gen(a), 0);
        t.release(a);
        assert_eq!(t.live, 0);
        let b = t.alloc(Continuation::Root, WaitState::Shell, init);
        assert_eq!(b, a, "free list reuses the slot");
        assert_eq!(t.gen(b), 1, "generation bumped");
        assert_eq!(t.get(b).wait, WaitState::Shell);
        assert_eq!(t.peak, 1);
    }

    #[test]
    fn retire_returns_frame_storage_to_a_free_entry_only() {
        let mut t = CtxTable::default();
        let a = t.alloc(Continuation::Unset, WaitState::Running, init);
        // The stepper holds the frame out of the table; the activation
        // releases itself, then hands the vectors back.
        let out = std::mem::replace(&mut t.get_mut(a).frame, ActFrame::empty(MethodId(0), OBJ));
        t.release(a);
        t.retire(a, out);
        let f = &t.get(a).frame;
        assert!(f.locals.is_empty() && f.slots.is_empty(), "emptied");
        assert!(f.locals.capacity() >= 4 && f.slots.capacity() >= 2, "kept");
        // A reused entry is left alone.
        let b = t.alloc(Continuation::Unset, WaitState::Ready, init);
        assert_eq!(b, a);
        let mut big = ActFrame::empty(MethodId(0), OBJ);
        big.reset(MethodId(0), OBJ, 9, 9, &[]);
        t.retire(b, big);
        assert_eq!(t.get(b).frame, frame());
    }

    #[test]
    fn alloc_refills_a_recycled_entry_in_place() {
        let mut t = CtxTable::default();
        let a = t.alloc(Continuation::Unset, WaitState::Ready, init);
        let at = |t: &CtxTable| {
            let f = &t.get(a).frame;
            (f.locals.as_ptr(), f.slots.as_ptr())
        };
        let before = at(&t);
        t.release(a);
        let mut stack = frame();
        stack.locals[3] = Value::Int(9);
        stack.slots[1] = SlotState::Pending;
        let b = t.alloc(Continuation::Unset, WaitState::Ready, |f| {
            f.clone_from(&stack);
            f.pc = 5;
        });
        assert_eq!(b, a);
        assert_eq!(at(&t), before, "the retained vectors were refilled");
        assert_eq!(t.get(b).frame.locals, stack.locals);
        assert_eq!(t.get(b).frame.slots, stack.slots);
        assert_eq!(t.get(b).frame.pc, 5);
    }

    #[test]
    fn frame_store_levels_are_reused_lifo() {
        let mut fs = FrameStore::default();
        let mut args = fs.take_args(0);
        args.extend_from_slice(&[Value::Int(1), Value::Int(2)]);
        let parked = args.as_ptr();
        let mut fr = fs.frame(1, MethodId(3), OBJ, 4, 1, &args);
        fs.park_args(0, args);
        assert_eq!(
            fr.locals,
            [1, 2]
                .map(Value::Int)
                .into_iter()
                .chain([Value::Nil; 2])
                .collect::<Vec<_>>()
        );
        assert_eq!(fr.slots, [SlotState::Empty]);
        let locals = fr.locals.as_ptr();
        fs.park_frame(1, &mut fr);
        // The next call at the same depths reuses all three vectors.
        let args = fs.take_args(0);
        assert!(args.is_empty());
        assert_eq!(args.as_ptr(), parked);
        let mut fr = fs.frame(1, MethodId(4), OBJ, 2, 0, &[]);
        assert_eq!(fr.locals.as_ptr(), locals);
        assert_eq!((fr.method, fr.pc, fr.words()), (MethodId(4), 0, 2));
        // Whatever a level held, a frame built there is a fresh one.
        fs.park_frame(1, &mut fr);
        assert_eq!(fs.scribble(), 2);
        assert_eq!(
            fs.frame(1, MethodId(0), OBJ, 4, 2, &[Value::Int(7)]),
            frame()
        );
        assert!(fs.take_args(0).is_empty());
        // A smaller vector parked over a larger one is dropped.
        fs.park_args(0, args);
        fs.park_args(0, Vec::new());
        let kept = fs.take_args(0);
        assert_eq!(kept.as_ptr(), parked);
    }

    #[test]
    fn live_indices_reports_leaks() {
        let mut t = CtxTable::default();
        let a = t.alloc(Continuation::Unset, WaitState::Ready, init);
        let b = t.alloc(Continuation::Unset, WaitState::Ready, init);
        t.release(a);
        assert_eq!(t.live_indices(), vec![b]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_caught() {
        let mut t = CtxTable::default();
        let a = t.alloc(Continuation::Unset, WaitState::Ready, init);
        t.release(a);
        t.release(a);
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
}
