//! Objects with implicit per-object locks.
//!
//! Locking in the source model is dictated by class definitions: a method
//! invocation on a locked class holds the object for the method's entire
//! duration — including across suspensions — and invocations arriving at a
//! held object are deferred, not refused. The runtime's concurrency check
//! ("is the target unlocked?") is one of the two parallelization checks
//! whose cost Table 3's Seq-opt column removes.

use crate::cont::Continuation;
use crate::error::Trap;
use crate::rt::Runtime;
use crate::trace::TraceEvent;
use hem_ir::{ClassId, MethodId, Value};
use hem_machine::NodeId;
use std::collections::VecDeque;

/// Who holds an object lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockHolder {
    /// A stack task (one top-level scheduler dispatch). Reentrant within
    /// the same task, so local synchronous call chains through the same
    /// object do not self-deadlock.
    Task(u64),
    /// A heap context (a method that fell back while holding its lock).
    Ctx(u32),
}

/// An invocation deferred on a held lock.
#[derive(Debug, Clone)]
pub struct DeferredInvoke {
    /// Method to run once granted.
    pub method: MethodId,
    /// Arguments (already evaluated).
    pub args: Vec<Value>,
    /// Reply capability.
    pub cont: Continuation,
    /// Whether the continuation was forwarded to this invocation.
    pub forwarded: bool,
    /// Blame tag of the deferred invocation (request id + 1; 0 =
    /// untagged). `DeferredInvoke::new` leaves it 0; `Runtime::lock_defer` stamps
    /// the deferring step's tag before queueing the waiter.
    pub req: u64,
}

impl DeferredInvoke {
    /// An invocation about to be queued on a held lock (untagged).
    pub(crate) fn new(
        method: MethodId,
        args: Vec<Value>,
        cont: Continuation,
        forwarded: bool,
    ) -> Self {
        DeferredInvoke {
            method,
            args,
            cont,
            forwarded,
            req: 0,
        }
    }
}

/// Lock state for instances of locked classes.
#[derive(Debug, Clone, Default)]
pub struct LockState {
    /// Current holder, if held.
    pub holder: Option<LockHolder>,
    /// Reentrancy depth.
    pub depth: u32,
    /// FIFO of deferred invocations.
    pub waiters: VecDeque<DeferredInvoke>,
}

impl LockState {
    /// Try to acquire for `who`. Returns true on success (including
    /// reentrant re-acquisition by the same holder).
    pub fn acquire(&mut self, who: LockHolder) -> bool {
        match self.holder {
            None => {
                self.holder = Some(who);
                self.depth = 1;
                true
            }
            Some(h) if h == who => {
                self.depth += 1;
                true
            }
            Some(_) => false,
        }
    }

    /// Release one level; returns true when the lock became free.
    pub fn release(&mut self) -> bool {
        debug_assert!(self.holder.is_some(), "release of unheld lock");
        self.depth -= 1;
        if self.depth == 0 {
            self.holder = None;
            true
        } else {
            false
        }
    }

    /// Transfer ownership (stack task falling back into a heap context).
    pub fn transfer(&mut self, to: LockHolder) {
        debug_assert!(self.holder.is_some(), "transfer of unheld lock");
        self.holder = Some(to);
    }
}

/// A run of values in a node's [`Arena`] (or, for [`Object::arrays`], a
/// run of entries in its span table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// First index.
    pub off: u32,
    /// Length.
    pub len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.off as usize..self.off as usize + self.len as usize
    }
}

/// One node's object field storage: every scalar block and every array
/// of every object on the node lives in one value vector, addressed by
/// [`Span`]s. A bump allocator — storage is never returned (an array
/// re-created at a larger length leaves its old span behind).
///
/// It also keeps the Time-Warp undo journal of that storage (see
/// [`crate::timewarp`]): while armed, the first mutable access to a span
/// in a window ([`Self::scalars_mut`], [`Self::array_mut`],
/// [`Self::arr_new`]) copies the span's values out once, and an `ArrNew`
/// that moves an array records the span-table entry it overwrites. Bump
/// allocations need no entry: the value and span-table lengths at the
/// edge truncate them away on rollback.
#[derive(Default)]
pub struct Arena {
    values: Vec<Value>,
    /// Array-field spans: array `a` of object `o` is
    /// `spans[o.arrays.off + a]`.
    spans: Vec<Span>,
    journal: ArenaJournal,
}

/// The journal is not field storage: two arenas that differ only in it
/// print alike (rollback tests compare arenas by their `Debug` text).
impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("values", &self.values)
            .field("spans", &self.spans)
            .finish_non_exhaustive()
    }
}

/// The whole arena, journal left empty: the rollback tests' oracle.
#[cfg(test)]
impl Clone for Arena {
    fn clone(&self) -> Self {
        Arena {
            values: self.values.clone(),
            spans: self.spans.clone(),
            journal: ArenaJournal::default(),
        }
    }
}

/// An arena's undo journal for one speculative window. Its vectors are
/// standing buffers, cleared and refilled, so a steady-state window does
/// not allocate.
#[derive(Default)]
struct ArenaJournal {
    armed: bool,
    /// Value and span-table lengths at the edge: storage past them was
    /// bump-allocated in the window.
    values: usize,
    spans: usize,
    /// `saved[off]` — was the span starting at value `off` saved in this
    /// window? (Sized to the edge's value count; empty spans are never
    /// saved, so a non-empty span owns its offset.)
    saved: Vec<bool>,
    /// The saved spans in save order; their values, concatenated, are
    /// `old`.
    runs: Vec<Span>,
    old: Vec<Value>,
    /// `(index, entry)` of every span-table entry the window overwrote,
    /// in write order.
    moved: Vec<(u32, Span)>,
}

impl Arena {
    /// Arm the journal at a window edge.
    pub(crate) fn arm_journal(&mut self) {
        let j = &mut self.journal;
        debug_assert!(!j.armed && j.runs.is_empty(), "journal armed twice");
        j.armed = true;
        (j.values, j.spans) = (self.values.len(), self.spans.len());
        if j.saved.len() < j.values {
            j.saved.resize(j.values, false);
        }
    }

    /// The window stands: forget the saved spans.
    pub(crate) fn commit_journal(&mut self) {
        let j = &mut self.journal;
        for sp in &j.runs {
            j.saved[sp.off as usize] = false;
        }
        j.runs.clear();
        j.old.clear();
        j.moved.clear();
        j.armed = false;
    }

    /// The window falls: copy every saved span back, restore the
    /// span-table entries it overwrote, and truncate what it allocated.
    pub(crate) fn roll_back_journal(&mut self) {
        let j = &mut self.journal;
        debug_assert!(j.armed, "rollback of an unarmed journal");
        let mut end = j.old.len();
        for sp in j.runs.iter().rev() {
            let from = end - sp.len as usize;
            self.values[sp.range()].copy_from_slice(&j.old[from..end]);
            end = from;
        }
        for &(ix, sp) in j.moved.iter().rev() {
            self.spans[ix as usize] = sp;
        }
        self.values.truncate(j.values);
        self.spans.truncate(j.spans);
        self.commit_journal();
    }

    /// Save `sp`'s values unless the window already did, the span is
    /// new in it, or it is empty.
    #[inline]
    fn save(&mut self, sp: Span) {
        let j = &self.journal;
        if j.armed && (sp.off as usize) < j.values && sp.len > 0 && !j.saved[sp.off as usize] {
            self.save_span(sp);
        }
    }

    #[inline(never)]
    fn save_span(&mut self, sp: Span) {
        let j = &mut self.journal;
        j.saved[sp.off as usize] = true;
        j.runs.push(sp);
        j.old.extend_from_slice(&self.values[sp.range()]);
    }

    /// Bump-allocate `len` nil values.
    fn alloc(&mut self, len: usize) -> Span {
        let off = self.values.len();
        self.values.resize(off + len, Value::Nil);
        // Spans index with `u32`: storage safety depends on this check.
        assert!(
            self.values.len() <= u32::MAX as usize,
            "node arena exceeds 2^32 values"
        );
        Span {
            off: off as u32,
            len: len as u32,
        }
    }

    /// The run of the span table the next `len` pushed spans will occupy.
    fn next_spans(&self, len: u32) -> Span {
        Span {
            off: u32::try_from(self.spans.len()).expect("span table exceeds 2^32 entries"),
            len,
        }
    }

    /// Values allocated so far (live and abandoned).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Has nothing been allocated?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The array-field span table.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// An object's scalar fields, in class declaration order.
    #[inline]
    pub fn scalars(&self, o: &Object) -> &[Value] {
        &self.values[o.scalars.range()]
    }

    /// Mutable view of [`Self::scalars`].
    #[inline]
    pub fn scalars_mut(&mut self, o: &Object) -> &mut [Value] {
        self.save(o.scalars);
        &mut self.values[o.scalars.range()]
    }

    #[inline]
    fn array_span(&self, o: &Object, a: u16) -> usize {
        debug_assert!((a as u32) < o.arrays.len, "array field out of range");
        o.arrays.off as usize + a as usize
    }

    /// Contents of an object's array field `a` (index among its array
    /// fields, in class declaration order).
    #[inline]
    pub fn array(&self, o: &Object, a: u16) -> &[Value] {
        &self.values[self.spans[self.array_span(o, a)].range()]
    }

    /// Mutable view of [`Self::array`].
    #[inline]
    pub fn array_mut(&mut self, o: &Object, a: u16) -> &mut [Value] {
        let sp = self.spans[self.array_span(o, a)];
        self.save(sp);
        &mut self.values[sp.range()]
    }

    /// Re-create array field `a` as `len` nils: in place when the length
    /// is unchanged (the steady state of every kernel that re-initializes
    /// per phase), else by bump allocation.
    pub fn arr_new(&mut self, o: &Object, a: u16, len: usize) -> &mut [Value] {
        let ix = self.array_span(o, a);
        let sp = self.spans[ix];
        if sp.len as usize == len {
            self.save(sp);
            self.values[sp.range()].fill(Value::Nil);
        } else {
            let j = &mut self.journal;
            if j.armed && ix < j.spans {
                j.moved.push((ix as u32, sp));
            }
            self.spans[ix] = self.alloc(len);
        }
        &mut self.values[self.spans[ix].range()]
    }

    /// Every array field of an object, in declaration order.
    pub fn arrays<'a>(&'a self, o: &Object) -> impl Iterator<Item = &'a [Value]> {
        self.spans[o.arrays.range()]
            .iter()
            .map(|sp| &self.values[sp.range()])
    }

    /// Allocate the storage of a nil-initialized object of `class`.
    pub fn instantiate(&mut self, layout: &ClassLayout, class: ClassId) -> Object {
        let scalars = self.alloc(layout.n_scalars as usize);
        let arrays = self.next_spans(layout.n_arrays as u32);
        self.spans
            .resize(self.spans.len() + layout.n_arrays as usize, Span::default());
        Object {
            class,
            scalars,
            arrays,
            lock: layout.locked.then(Box::default),
            moved_to: None,
        }
    }

    /// Migration: copy `o`'s field values out of `from` into fresh storage
    /// here, returning the arrived object (lock state cloned, no
    /// forwarding address).
    pub fn adopt(&mut self, from: &Arena, o: &Object) -> Object {
        let scalars = self.alloc(o.scalars.len as usize);
        self.values[scalars.range()].copy_from_slice(from.scalars(o));
        let arrays = self.next_spans(o.arrays.len);
        for vs in from.arrays(o) {
            let sp = self.alloc(vs.len());
            self.values[sp.range()].copy_from_slice(vs);
            self.spans.push(sp);
        }
        Object {
            class: o.class,
            scalars,
            arrays,
            lock: o.lock.clone(),
            moved_to: None,
        }
    }
}

/// An object: class tag, where its fields live in the hosting node's
/// [`Arena`], optional lock.
///
/// Field storage is split by kind; the per-class [`ClassLayout`] maps
/// declared field ids to a scalar index or an array index.
#[derive(Debug)]
pub struct Object {
    /// The object's class.
    pub class: ClassId,
    /// Scalar field values, in class declaration order of scalar fields
    /// (a span of arena values; empty once the object has migrated away).
    pub scalars: Span,
    /// Array fields, in class declaration order of array fields (a span
    /// of the arena's span table; empty once the object has migrated
    /// away).
    pub arrays: Span,
    /// Lock (present iff the class is locked). Out of line: most classes
    /// are unlocked, and an inline lock would more than double every
    /// object.
    pub lock: Option<Box<LockState>>,
    /// Forwarding address left behind by migration: invocations (and
    /// harness field access) through a stale reference chase this chain
    /// during name translation.
    pub moved_to: Option<hem_ir::ObjRef>,
}

const _: () = assert!(std::mem::size_of::<Object>() == 40);

/// `clone_from` refills an existing lock box in place (`Option` and `Box`
/// both forward it), so a standing checkpoint buffer (see
/// [`crate::timewarp`]) allocates nothing unless a lock has queued
/// waiters.
impl Clone for Object {
    fn clone(&self) -> Self {
        Object {
            class: self.class,
            scalars: self.scalars,
            arrays: self.arrays,
            lock: self.lock.clone(),
            moved_to: self.moved_to,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Object {
            class,
            scalars,
            arrays,
            lock,
            moved_to,
        } = src;
        self.class = *class;
        self.scalars = *scalars;
        self.arrays = *arrays;
        self.lock.clone_from(lock);
        self.moved_to = *moved_to;
    }
}

/// Where a declared field lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Index into [`Arena::scalars`].
    Scalar(u16),
    /// Index for [`Arena::array`].
    Array(u16),
}

/// Precomputed per-class field mapping.
#[derive(Debug, Clone, Default)]
pub struct ClassLayout {
    /// Field id → storage location.
    pub kinds: Vec<FieldKind>,
    /// Number of scalar fields.
    pub n_scalars: u16,
    /// Number of array fields.
    pub n_arrays: u16,
    /// Whether instances carry a lock.
    pub locked: bool,
}

impl ClassLayout {
    /// Compute the layout of a class.
    pub fn of(class: &hem_ir::Class) -> Self {
        let mut kinds = Vec::with_capacity(class.fields.len());
        let (mut ns, mut na) = (0u16, 0u16);
        for f in &class.fields {
            if f.array {
                kinds.push(FieldKind::Array(na));
                na += 1;
            } else {
                kinds.push(FieldKind::Scalar(ns));
                ns += 1;
            }
        }
        ClassLayout {
            kinds,
            n_scalars: ns,
            n_arrays: na,
            locked: class.locked,
        }
    }
}

/// The per-object lock operations, charged to the executing node.
impl Runtime {
    pub(crate) fn obj_locked_class(&self, node: usize, obj: u32) -> bool {
        self.nodes[node].objects[obj as usize].lock.is_some()
    }

    /// Try to acquire `obj`'s lock for `who`. Unlocked classes always
    /// succeed at no cost; the *check* cost is charged at the invoke site.
    pub(crate) fn lock_try(&mut self, node: usize, obj: u32, who: LockHolder) -> bool {
        let cost = self.cost().lock_acquire;
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
        let cost = self.cost().lock_release;
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
        self.charge(node, self.cost().lock_enqueue);
        self.emit(
            node,
            TraceEvent::LockDeferred {
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

    /// Run a lock grant: the lock was released with this invocation queued.
    /// The lock may have been re-taken in the meantime (a later stack task
    /// can sneak in); in that case the invocation goes back on the queue.
    pub(crate) fn run_granted(
        &mut self,
        node: usize,
        obj: u32,
        d: DeferredInvoke,
    ) -> Result<(), Trap> {
        if let Some(l) = &mut self.nodes[node].objects[obj as usize].lock {
            if l.holder.is_some() {
                l.waiters.push_front(d);
                return Ok(());
            }
        }
        crate::wrapper::run_invocation(self, node, obj, d.method, d.args, d.cont, d.forwarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_ir::{Class, FieldDecl};

    fn layout(locked: bool) -> ClassLayout {
        ClassLayout::of(&Class {
            name: "C".into(),
            fields: vec![
                FieldDecl {
                    name: "a".into(),
                    array: false,
                },
                FieldDecl {
                    name: "xs".into(),
                    array: true,
                },
                FieldDecl {
                    name: "b".into(),
                    array: false,
                },
            ],
            locked,
        })
    }

    #[test]
    fn layout_maps_fields() {
        let l = layout(false);
        assert_eq!(
            l.kinds,
            vec![
                FieldKind::Scalar(0),
                FieldKind::Array(0),
                FieldKind::Scalar(1)
            ]
        );
        assert_eq!(l.n_scalars, 2);
        assert_eq!(l.n_arrays, 1);
        let mut arena = Arena::default();
        let o = arena.instantiate(&l, ClassId(0));
        assert_eq!(arena.scalars(&o), [Value::Nil; 2]);
        assert_eq!(arena.arrays(&o).count(), 1);
        assert!(arena.array(&o, 0).is_empty());
        assert!(o.lock.is_none());
    }

    #[test]
    fn locked_class_gets_lock() {
        let o = Arena::default().instantiate(&layout(true), ClassId(0));
        assert!(o.lock.is_some());
    }

    #[test]
    fn clone_from_refills_the_lock_box_in_place() {
        let mut o = Arena::default().instantiate(&layout(true), ClassId(0));
        let mut snap = o.clone();
        let boxed = |o: &Object| std::ptr::from_ref::<LockState>(o.lock.as_deref().unwrap());
        let before = boxed(&snap);
        assert!(o.lock.as_mut().unwrap().acquire(LockHolder::Task(3)));
        snap.clone_from(&o);
        assert_eq!(boxed(&snap), before, "the snapshot's lock box is reused");
        assert_eq!(
            snap.lock.as_ref().unwrap().holder,
            Some(LockHolder::Task(3))
        );
    }

    #[test]
    fn arr_new_reuses_a_same_length_span_and_bumps_otherwise() {
        let l = layout(false);
        let mut arena = Arena::default();
        let o = arena.instantiate(&l, ClassId(0));
        let p = arena.instantiate(&l, ClassId(0));
        arena.arr_new(&o, 0, 3).fill(Value::Int(7));
        arena.scalars_mut(&p)[1] = Value::Int(9);
        let (len, span) = (arena.len(), arena.spans()[0]);
        assert_eq!(arena.arr_new(&o, 0, 3), [Value::Nil; 3], "re-created");
        assert_eq!((arena.len(), arena.spans()[0]), (len, span), "in place");
        arena.arr_new(&o, 0, 5)[4] = Value::Int(1);
        assert_eq!(arena.len(), len + 5, "grown: bump-allocated");
        arena.arr_new(&o, 0, 2);
        assert_eq!(arena.len(), len + 7, "shrunk: bump-allocated");
        assert_eq!(arena.array(&o, 0), [Value::Nil; 2]);
        assert_eq!(arena.scalars(&p)[1], Value::Int(9), "neighbours untouched");
    }

    #[test]
    fn adopt_copies_values_across_arenas() {
        let l = layout(true);
        let (mut src, mut dst) = (Arena::default(), Arena::default());
        let o = src.instantiate(&l, ClassId(0));
        src.scalars_mut(&o)[0] = Value::Int(4);
        src.arr_new(&o, 0, 2)[1] = Value::Int(5);
        dst.instantiate(&l, ClassId(0)); // the arrival is not the first object
        let moved = dst.adopt(&src, &o);
        assert_eq!(dst.scalars(&moved), [Value::Int(4), Value::Nil]);
        assert_eq!(dst.array(&moved, 0), [Value::Nil, Value::Int(5)]);
        assert!(moved.lock.is_some() && moved.moved_to.is_none());
    }

    #[test]
    fn lock_reentrancy_and_conflict() {
        let mut l = LockState::default();
        assert!(l.acquire(LockHolder::Task(1)));
        assert!(l.acquire(LockHolder::Task(1)), "reentrant");
        assert!(!l.acquire(LockHolder::Task(2)), "conflict");
        assert!(!l.acquire(LockHolder::Ctx(0)), "conflict");
        assert!(!l.release(), "still held (depth)");
        assert!(l.release(), "now free");
        assert!(l.acquire(LockHolder::Task(2)));
    }

    #[test]
    fn lock_transfer() {
        let mut l = LockState::default();
        assert!(l.acquire(LockHolder::Task(1)));
        l.transfer(LockHolder::Ctx(9));
        assert!(!l.acquire(LockHolder::Task(1)), "task no longer owns");
        assert!(l.acquire(LockHolder::Ctx(9)), "context owns reentrantly");
    }
}
