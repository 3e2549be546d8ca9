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
/// sequential interpreter keeps one on the host stack) and heap contexts
/// (which wrap one in scheduling state). Falling back from stack to heap
/// is *moving* an `ActFrame` into a [`Context`] — the mechanical heart of
/// the paper's lazy context allocation.
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
    /// Fresh frame for invoking `method` on `obj` with `args`.
    pub fn new(method: MethodId, obj: ObjRef, nlocals: u16, nslots: u16, args: &[Value]) -> Self {
        let mut locals = vec![Value::Nil; nlocals as usize];
        locals[..args.len()].copy_from_slice(args);
        ActFrame {
            method,
            obj,
            pc: 0,
            locals,
            slots: vec![SlotState::Empty; nslots as usize],
        }
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
    /// Allocate a context; returns its index.
    pub fn alloc(&mut self, frame: ActFrame, cont: Continuation, wait: WaitState) -> u32 {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(i) = self.free.pop() {
            let e = &mut self.entries[i as usize];
            debug_assert_eq!(e.wait, WaitState::Free);
            e.frame = frame;
            e.cont = cont;
            e.wait = wait;
            e.holds_lock = false;
            e.cont_consumed = false;
            e.req = 0;
            // gen was bumped at free time.
            i
        } else {
            self.entries.push(Context {
                frame,
                cont,
                wait,
                gen: 0,
                holds_lock: false,
                cont_consumed: false,
                req: 0,
            });
            (self.entries.len() - 1) as u32
        }
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
                TraceEvent::Resume {
                    node: NodeId(tnode as u32),
                    ctx,
                },
            );
        }
        Ok(())
    }

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
        let mut frame = std::mem::replace(fr, ActFrame::new(fr.method, fr.obj, 0, 0, &[]));
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

    fn frame() -> ActFrame {
        ActFrame::new(
            MethodId(0),
            ObjRef {
                node: NodeId(0),
                index: 0,
            },
            4,
            2,
            &[Value::Int(7)],
        )
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
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        assert_eq!(t.live, 1);
        assert_eq!(t.gen(a), 0);
        t.release(a);
        assert_eq!(t.live, 0);
        let b = t.alloc(frame(), Continuation::Root, WaitState::Shell);
        assert_eq!(b, a, "free list reuses the slot");
        assert_eq!(t.gen(b), 1, "generation bumped");
        assert_eq!(t.get(b).wait, WaitState::Shell);
        assert_eq!(t.peak, 1);
    }

    #[test]
    fn retire_returns_frame_storage_to_a_free_entry_only() {
        let mut t = CtxTable::default();
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Running);
        // The stepper holds the frame out of the table; the activation
        // releases itself, then hands the vectors back.
        let out = std::mem::replace(
            &mut t.get_mut(a).frame,
            ActFrame::new(MethodId(0), frame().obj, 0, 0, &[]),
        );
        t.release(a);
        t.retire(a, out);
        let f = &t.get(a).frame;
        assert!(f.locals.is_empty() && f.slots.is_empty(), "emptied");
        assert!(f.locals.capacity() >= 4 && f.slots.capacity() >= 2, "kept");
        // A reused entry is left alone.
        let b = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        assert_eq!(b, a);
        t.retire(b, ActFrame::new(MethodId(0), frame().obj, 9, 9, &[]));
        assert_eq!(t.get(b).frame, frame());
    }

    #[test]
    fn live_indices_reports_leaks() {
        let mut t = CtxTable::default();
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        let b = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
        t.release(a);
        assert_eq!(t.live_indices(), vec![b]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_caught() {
        let mut t = CtxTable::default();
        let a = t.alloc(frame(), Continuation::Unset, WaitState::Ready);
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
