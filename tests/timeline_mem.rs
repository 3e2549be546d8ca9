//! A timeline costs bytes, not structs: the steps, flows, spans and
//! instants of an MD export (`hemprof md --perfetto --critical-path` at a
//! small size) are held as varint logs, a few bytes an item. Checked, not
//! argued: this binary tracks live heap bytes.
//!
//! Kept as structs in doubling `Vec`s (a 56 B step, a 32 B flow, a 40 B
//! context span, a 24 B suspend span, a 24 B instant) the same timeline
//! took 4 719 880 B for its 81 654 items, 57 B an item with the spare
//! capacity; as logs it takes 764 480 B, about 9 B an item.
//!
//! One `#[test]` only: a second test thread would allocate into the same
//! counters.

use hem::obs::TimelineBuilder;
use hem_bench::profile::{Kernel, ProfileConfig, TraceBuffer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// What a finished timeline may hold, spare capacity included, per step,
/// flow, span and instant.
const BYTES_PER_ITEM: usize = 12;

#[test]
fn a_timeline_is_a_few_bytes_an_item() {
    let mut cfg = ProfileConfig::new(Kernel::Md);
    cfg.p = 16;
    cfg.size = 1000;
    cfg.seed = 7;
    cfg.high_locality = false;
    cfg.buffer = TraceBuffer::Off;
    // The random layout nests send-time polls deeper than a test thread's
    // 2 MiB stack holds unoptimized: run on a main-thread-class stack.
    let (tl, bytes) = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || {
            let base = LIVE.load(Ordering::Relaxed);
            let mut rt = cfg
                .run_with_observer(Box::new(TimelineBuilder::new(cfg.p as usize)))
                .expect("no trap");
            let any: Box<dyn std::any::Any> = rt.take_observer().expect("attached");
            drop(rt);
            let builder = any.downcast::<TimelineBuilder>().expect("the builder");
            let tl = builder.finish();
            let bytes = LIVE.load(Ordering::Relaxed) - base;
            (tl, bytes)
        })
        .expect("spawn the run")
        .join()
        .expect("the run");

    let nodes = 0..tl.n_nodes;
    let steps: usize = nodes.clone().map(|n| tl.steps(n).len()).sum();
    let suspends: usize = nodes.map(|n| tl.suspends(n).len()).sum();
    let (flows, ctx, instants) = (tl.flows().len(), tl.ctx_spans().len(), tl.instants().len());
    let items = steps + flows + ctx + suspends + tl.requests().len() + instants;
    eprintln!(
        "{bytes} B live for {items} items ({steps} steps, {flows} flows, {ctx} context \
         spans, {suspends} suspends, {instants} instants): {} B an item",
        bytes / items
    );
    assert!(
        steps > 10_000 && flows > 10_000 && ctx > 1_000,
        "a real export"
    );
    assert!(
        bytes <= BYTES_PER_ITEM * items,
        "{bytes} B for {items} items, above {BYTES_PER_ITEM} B an item"
    );
}
