//! An NB call is a plain call: a steady-state stack invocation, and a
//! fallback into a recycled heap context, do not touch the allocator.
//! Checked, not argued: this binary counts allocator calls.
//!
//! Two measurements:
//!
//! * `fib(25)` on one runtime that has already run it once — 242 785
//!   invocations, all on the stack, none of them blocking.
//! * SOR 64² at P = 16 on the event index, iterations 3–4 only: the
//!   difference between a 2- and a 4-iteration run on fresh runtimes
//!   (setup excluded), so first-use growth cancels. Those two iterations
//!   make 7 724 fallbacks, 38 472 stack invocations and 15 504 messages.
//!
//! Before the frame store — an `ActFrame::new` (locals and slots `Vec`s)
//! per activation, a collected argument `Vec` per call, and a fallback
//! that moved the stack frame's vectors into its context and dropped the
//! ones the recycled slab entry held — these read 728 355 (3 per
//! invocation) and 53 968. Now `fib` makes none: even the root call's
//! arguments go through the store. What remains in SOR is per collective,
//! not per call: each iteration's two acked multicasts collect their
//! member list (3 calls as it grows), their destination list and their
//! tree's leg plan — 5 calls each, 20 in all.
//!
//! One `#[test]` only: a second test thread would allocate into the same
//! counter.

use hem::analysis::InterfaceSet;
use hem::apps::{callintensive, sor};
use hem::core::{ExecMode, Runtime};
use hem::ir::Value;
use hem::machine::cost::CostModel;
use hem::machine::topology::ProcGrid;
use hem::machine::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound both measurements must meet: a handful of per-run calls, far
/// below one per invocation.
const BOUND: u64 = 64;

/// Allocator calls made by `fib(n)` on a runtime that has run it once.
fn fib_allocs(n: i64) -> (u64, u64) {
    let suite = callintensive::build();
    let mut rt = Runtime::new(
        suite.program,
        1,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .expect("valid program");
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    let args = [Value::Int(n)];
    rt.call(o, suite.fib, &args).expect("warm-up runs");
    rt.reset_counters();
    let before = ALLOCS.load(Ordering::Relaxed);
    let v = rt.call(o, suite.fib, &args).expect("fib runs");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(v, Some(Value::Int(75_025)));
    let t = rt.stats().totals();
    (allocs, t.stack_nb + t.stack_mb + t.stack_cp)
}

/// Allocator calls made by `iters` SOR iterations (setup excluded), and
/// the run's fallback, stack-invocation (completed on the stack, inlined
/// accessors included) and message counts.
fn sor_allocs(iters: u32) -> (u64, [u64; 3]) {
    let ids = sor::build();
    let mut rt = Runtime::new(
        ids.program.clone(),
        16,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .expect("valid program");
    let params = sor::SorParams {
        n: 64,
        block: 2,
        procs: ProcGrid::square(16),
    };
    let inst = sor::setup(&mut rt, &ids, params);
    let before = ALLOCS.load(Ordering::Relaxed);
    sor::run(&mut rt, &inst, iters).expect("sor runs");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let t = rt.stats().totals();
    let stack = t.stack_nb + t.stack_mb + t.stack_cp + t.inlined;
    (allocs, [t.fallbacks, stack, t.msgs_sent])
}

#[test]
fn stack_invocations_and_fallbacks_do_not_allocate() {
    let (fib, invocations) = fib_allocs(25);
    let (sor2, c2) = sor_allocs(2);
    let (sor4, c4) = sor_allocs(4);
    let sor = sor4 - sor2;
    let [fallbacks, stack, msgs] = [0, 1, 2].map(|i| c4[i] - c2[i]);
    eprintln!(
        "allocator calls: fib(25) {fib} over {invocations} stack invocations; \
         SOR iterations 3-4 {sor} over {fallbacks} fallbacks, {stack} stack \
         invocations, {msgs} messages"
    );
    assert!(
        fallbacks > 0 && stack > 0 && msgs > 0,
        "SOR exercised all three"
    );
    assert!(
        fib <= BOUND,
        "fib(25): {fib} allocator calls over {invocations} invocations"
    );
    assert!(
        sor <= BOUND,
        "SOR iterations 3-4: {sor} allocator calls over {fallbacks} fallbacks, \
         {stack} stack invocations and {msgs} messages"
    );
}
