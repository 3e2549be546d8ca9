//! Online invariant sanitizer: opt-in structural checking of the hybrid
//! execution model's protocol invariants, at every step of a run.
//!
//! The model's semantic-transparency argument (paper §3–4) rests on a
//! handful of structural invariants. Some are *always* enforced, because
//! violating them corrupts data the runtime itself needs — those trap
//! (`Err(Trap)`) unconditionally:
//!
//! * join counters never go negative and a future is never filled twice
//!   ([`crate::Runtime::apply_fill`]: "reply to completed join", "double
//!   reply to future");
//! * a future is read only when resolved (`GetSlot` traps on an
//!   unresolved slot) — a toucher that cannot proceed suspends instead;
//! * a consumed continuation is never replied through again
//!   ("reply after continuation consumed").
//!
//! Others are invisible to the trap machinery: breaking them yields a run
//! that still terminates with plausible-looking state. The sanitizer
//! checks exactly those, online, when enabled with
//! [`crate::Runtime::enable_sanitizer`]:
//!
//! * **Wake soundness** — a waiting context is woken only when every slot
//!   in its touch mask is satisfied (an early wake re-suspends and hides).
//! * **One reply to the root** — the harness-visible result is delivered
//!   at most once per [`crate::Runtime::call`].
//! * **Continuation slot offset** — a shell context built for a caller
//!   (§3.2.3) marks the caller's declared return slot pending, not some
//!   other offset (adoption overwrites the shell's slots, so a wrong
//!   offset is otherwise silent).
//! * **Revert-to-parallel honored (§4.1)** — no sequential entry runs at
//!   or past `max_seq_depth`, and a fallen-back activation is only
//!   created while unwinding a live stack (`seq_depth > 0`) — a
//!   fallen-back activation never re-unwinds.
//! * **Sequential-on-locked** — a sequential version entered on a locked
//!   object finds the lock held, and a locked method that suspends hands
//!   its lock to its own context (transfer, not release).
//! * **Owner computes** — a method is entered, and a context created, only
//!   on the node that holds its receiver's fields: never on the
//!   forwarding stub a migration leaves behind (a stale reference must go
//!   through name translation first; a callee without field accesses
//!   would otherwise run on the wrong node unnoticed).
//! * **Ready-only dispatch** — only `Ready` contexts are dispatched.
//! * **Context conservation** — at quiescence, every allocated context
//!   was retired ([`crate::Runtime::sanitizer_check_quiescent`], called
//!   by the harness when a program should have finished).
//!
//! Violations are *recorded*, not panicked: a schedule explorer needs the
//! run to finish so it can print the failing tie-break sequence for
//! replay. Costs: the sanitizer never charges virtual time or emits trace
//! events, so an enabled sanitizer leaves clocks, counters, and traces
//! bit-identical (`tests/determinism.rs` guards this); disabled,
//! every hook is one `Option` discriminant test.

use crate::context::{SlotState, WaitState};
use crate::object::LockHolder;
use crate::rt::Runtime;
use hem_ir::{MethodId, ObjRef};

/// Sanitizer state: recorded violations plus the shadow counters the
/// checks need. Owned by the runtime; see the [module docs](self).
#[derive(Debug, Default)]
pub struct Sanitizer {
    violations: Vec<String>,
    /// `(time, kind, node)` key of the dispatched event that last
    /// delivered to the root continuation in the current call. A reactive
    /// program may legally deliver several late root replies in one
    /// `call` (parked activations from earlier calls releasing), but each
    /// arrives in its own dispatched event — two root deliveries inside
    /// one event step is a double reply. The event *key* (not a dispatch
    /// count) is the step identity so the check is invariant across
    /// scheduler implementations: shard workers count events per window.
    last_root_event: Option<(hem_machine::Cycles, u8, u32)>,
    /// Contexts allocated / retired since the sanitizer was enabled.
    ctx_allocs: u64,
    ctx_frees: u64,
}

impl Sanitizer {
    fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// Fold a shard worker's sanitizer state into the coordinator's:
    /// violations are appended and the context-conservation counters
    /// summed, so `sanitizer_check_quiescent` on the coordinator sees the
    /// machine-wide balance. (`last_root_event` is per-dispatch state and
    /// does not cross the merge.)
    pub(crate) fn absorb(&mut self, other: &mut Sanitizer) {
        self.violations.append(&mut other.violations);
        self.ctx_allocs += other.ctx_allocs;
        self.ctx_frees += other.ctx_frees;
        other.ctx_allocs = 0;
        other.ctx_frees = 0;
    }

    /// Capture the rollback point the speculative executor restores to:
    /// violations recorded so far (as a length — the vector is
    /// append-only), the root-delivery step, and the conservation
    /// counters. A rolled-back window's checks are undone wholesale; the
    /// clean re-run re-records whatever still holds.
    pub(crate) fn snapshot(&self) -> SanSnapshot {
        SanSnapshot {
            violations_len: self.violations.len(),
            last_root_event: self.last_root_event,
            ctx_allocs: self.ctx_allocs,
            ctx_frees: self.ctx_frees,
        }
    }

    /// Rewind to a [`Self::snapshot`] taken on this sanitizer.
    pub(crate) fn rollback(&mut self, snap: &SanSnapshot) {
        self.violations.truncate(snap.violations_len);
        self.last_root_event = snap.last_root_event;
        self.ctx_allocs = snap.ctx_allocs;
        self.ctx_frees = snap.ctx_frees;
    }
}

/// A [`Sanitizer::snapshot`] — see there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SanSnapshot {
    violations_len: usize,
    last_root_event: Option<(hem_machine::Cycles, u8, u32)>,
    ctx_allocs: u64,
    ctx_frees: u64,
}

impl Runtime {
    /// Turn the online invariant sanitizer on (see the
    /// [module docs](self) for what is checked). Enable before running:
    /// context conservation counts from this point. Checking never
    /// charges virtual time, so traces, clocks, and counters are
    /// bit-identical with the sanitizer on or off.
    pub fn enable_sanitizer(&mut self) {
        if self.sanitizer.is_none() {
            self.sanitizer = Some(Box::default());
        }
    }

    /// Is the sanitizer on?
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Violations recorded so far (empty when the sanitizer is off or the
    /// run is clean).
    pub fn sanitizer_violations(&self) -> &[String] {
        self.sanitizer
            .as_deref()
            .map_or(&[], |s| s.violations.as_slice())
    }

    /// Drain the recorded violations.
    pub fn take_sanitizer_violations(&mut self) -> Vec<String> {
        self.sanitizer
            .as_deref_mut()
            .map_or_else(Vec::new, |s| std::mem::take(&mut s.violations))
    }

    /// End-of-program check, called by a harness when the program should
    /// have fully completed: the machine must be quiescent, no context
    /// may remain live, and every context allocated since the sanitizer
    /// was enabled must have been retired. (Do not call between phases of
    /// an intentionally reactive program — parked contexts are legal
    /// there.)
    pub fn sanitizer_check_quiescent(&mut self) {
        if self.sanitizer.is_none() {
            return;
        }
        let quiescent = self.is_quiescent();
        let live = self.live_contexts();
        let stuck = if live > 0 {
            format!("; stuck: {:?}", self.stuck_contexts())
        } else {
            String::new()
        };
        let s = self.sanitizer.as_deref_mut().expect("checked above");
        if !quiescent {
            s.violation("quiescence check while work remains".into());
        }
        if live != 0 {
            s.violation(format!("{live} contexts live at quiescence{stuck}"));
        }
        if s.ctx_allocs != s.ctx_frees {
            s.violation(format!(
                "context conservation: {} allocated, {} retired",
                s.ctx_allocs, s.ctx_frees
            ));
        }
    }

    // ================= internal hooks =================
    //
    // Every hook short-circuits on a disabled sanitizer and never touches
    // clocks, counters, or the trace.

    /// A waiting context is being woken: every slot in its awaited mask
    /// must be satisfied.
    #[inline]
    pub(crate) fn san_wake_check(&mut self, node: usize, ctx: u32, mask: u64) {
        if self.sanitizer.is_none() {
            return;
        }
        let slots = &self.nodes[node].ctxs.get(ctx).frame.slots;
        let mut bad = Vec::new();
        for i in 0..64u16 {
            if mask & (1u64 << i) != 0 && !slots.get(i as usize).is_some_and(SlotState::satisfied) {
                bad.push(i);
            }
        }
        if !bad.is_empty() {
            self.sanitizer.as_deref_mut().unwrap().violation(format!(
                "node {node} ctx {ctx}: woken with unsatisfied touch slots {bad:?}"
            ));
        }
    }

    /// A reply reached the root continuation. Legitimate root deliveries
    /// each arrive in their own dispatched event (an activation replies
    /// at most once); two inside one event step is a double reply.
    #[inline]
    pub(crate) fn san_root_delivered(&mut self) {
        let step = self.san_step;
        if let Some(s) = self.sanitizer.as_deref_mut() {
            if s.last_root_event == Some(step) {
                s.violation(format!(
                    "root continuation replied to twice within event step {step:?}"
                ));
            }
            s.last_root_event = Some(step);
        }
    }

    /// A new root call is starting; the root continuation is fresh.
    #[inline]
    pub(crate) fn san_root_reset(&mut self) {
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.last_root_event = None;
        }
    }

    /// A shell context was just built for a caller: its declared return
    /// slot — and only that slot — must be marked pending.
    #[inline]
    pub(crate) fn san_shell_check(&mut self, node: usize, shell: u32, ret_slot: u16) {
        if self.sanitizer.is_none() {
            return;
        }
        let slots = &self.nodes[node].ctxs.get(shell).frame.slots;
        let bad: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(i, s)| (**s == SlotState::Pending) != (*i == ret_slot as usize))
            .map(|(i, _)| i)
            .collect();
        if !bad.is_empty() {
            self.sanitizer.as_deref_mut().unwrap().violation(format!(
                "node {node} shell ctx {shell}: continuation slot not at its fixed \
                 offset (declared return slot {ret_slot}, mismarked slots {bad:?})"
            ));
        }
    }

    /// An activation of `method` is being given `target` as its receiver
    /// on `node`: the object must live there, not have migrated away.
    fn san_receiver_check(&mut self, node: usize, target: ObjRef, method: MethodId) {
        let here = target.node.idx() == node
            && self.nodes[node].objects[target.index as usize]
                .moved_to
                .is_none();
        if !here {
            self.sanitizer.as_deref_mut().unwrap().violation(format!(
                "method {method:?} entered on node {node} with receiver {target:?}, which \
                 does not live there: name translation bypassed"
            ));
        }
    }

    /// A sequential version is being entered on `target`: the §4.1 depth
    /// guard must have kept us under `max_seq_depth`, a locked receiver
    /// must actually be held, and the receiver must not be a forwarding
    /// stub.
    #[inline]
    pub(crate) fn san_seq_entry(&mut self, node: usize, target: ObjRef, callee: MethodId) {
        if self.sanitizer.is_none() {
            return;
        }
        self.san_receiver_check(node, target, callee);
        let depth_ok = self.seq_depth < self.max_seq_depth;
        let lock_ok = match &self.nodes[node].objects[target.index as usize].lock {
            Some(l) => l.holder.is_some(),
            None => true,
        };
        let (depth, max) = (self.seq_depth, self.max_seq_depth);
        let s = self.sanitizer.as_deref_mut().unwrap();
        if !depth_ok {
            s.violation(format!(
                "method {callee:?} entered sequentially at depth {depth} >= limit {max} \
                 (revert-to-parallel bypassed)"
            ));
        }
        if !lock_ok {
            s.violation(format!(
                "method {callee:?} running sequentially on locked object \
                 node {node} obj {} with no lock holder",
                target.index
            ));
        }
    }

    /// A context was allocated; `fallback` creations (stack unwinding,
    /// §3.2.2–3.2.3) are only legal while a sequential activation is
    /// live — a fallen-back activation never re-unwinds. Its receiver must
    /// not be a forwarding stub.
    #[inline]
    pub(crate) fn san_ctx_alloc(&mut self, node: usize, ctx: u32, fallback: bool) {
        if self.sanitizer.is_none() {
            return;
        }
        let fr = &self.nodes[node].ctxs.get(ctx).frame;
        self.san_receiver_check(node, fr.obj, fr.method);
        let depth = self.seq_depth;
        let s = self.sanitizer.as_deref_mut().unwrap();
        s.ctx_allocs += 1;
        if fallback && depth == 0 {
            s.violation(format!(
                "node {node} ctx {ctx}: fallback context created outside any \
                 sequential activation (re-unwind of a fallen-back activation?)"
            ));
        }
    }

    /// A context was retired.
    #[inline]
    pub(crate) fn san_ctx_free(&mut self) {
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.ctx_frees += 1;
        }
    }

    /// A context is about to be dispatched: it must be `Ready`.
    #[inline]
    pub(crate) fn san_dispatch_check(&mut self, node: usize, ctx: u32) {
        if self.sanitizer.is_none() {
            return;
        }
        let wait = self.nodes[node].ctxs.get(ctx).wait;
        if wait != WaitState::Ready {
            self.sanitizer.as_deref_mut().unwrap().violation(format!(
                "node {node} ctx {ctx}: dispatched in state {wait:?} (not Ready)"
            ));
        }
    }

    /// A locked method suspended: its lock must have been transferred to
    /// the fallen-back context, which must know it holds it.
    #[inline]
    pub(crate) fn san_settle_blocked(&mut self, node: usize, obj: u32, ctx: u32) {
        if self.sanitizer.is_none() {
            return;
        }
        let holder = self.nodes[node].objects[obj as usize]
            .lock
            .as_ref()
            .and_then(|l| l.holder);
        let holds = self.nodes[node].ctxs.get(ctx).holds_lock;
        if holder != Some(LockHolder::Ctx(ctx)) || !holds {
            self.sanitizer.as_deref_mut().unwrap().violation(format!(
                "node {node} obj {obj}: locked method suspended into ctx {ctx} but \
                 lock holder is {holder:?} (holds_lock = {holds}); lock must \
                 transfer, not release"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExecMode, InterfaceSet, Runtime};
    use hem_machine::cost::CostModel;
    use hem_machine::NodeId;

    #[test]
    fn entering_a_method_on_a_forwarding_stub_is_a_violation() {
        let mut pb = hem_ir::ProgramBuilder::new();
        let c = pb.class("C", false);
        let id = pb.method(c, "id", 1, |mb| mb.reply(mb.arg(0)));
        let mut rt = Runtime::new(
            pb.finish(),
            2,
            CostModel::unit(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        )
        .unwrap();
        rt.enable_sanitizer();
        let here = rt.alloc_object_by_name("C", NodeId(0));
        let stale = rt.alloc_object_by_name("C", NodeId(0));
        let moved = rt.migrate_object(stale, NodeId(1));
        rt.san_seq_entry(0, here, id);
        rt.san_seq_entry(1, moved, id);
        assert!(
            rt.sanitizer_violations().is_empty(),
            "both live where entered"
        );
        // `id` touches no field, so without the check it would run on the
        // stub and reply as if nothing were wrong.
        rt.san_seq_entry(0, stale, id);
        let v = rt.take_sanitizer_violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("name translation bypassed"), "{v:?}");
    }
}
