//! Records are consumed, not stored: with no trace buffer armed, a
//! `hemprof blame --series`-shaped run holds a fraction of the memory of a
//! buffered one, and what it holds barely grows with the horizon.
//! Checked, not argued: this binary tracks live heap bytes.
//!
//! The buffer is 48 bytes a record in a power-of-two `VecDeque`; what an
//! unbuffered run keeps per request is the service driver's completion
//! log and the blame tracker's finished list, which the report is made of.
//!
//! One `#[test]` only: a second test thread would allocate into the same
//! counters.

use hem::machine::arrival::ArrivalDist;
use hem::obs::{Blame, Fanout, Rollup, Series};
use hem_bench::profile::TraceBuffer;
use hem_bench::serve::ServeConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// statistics and publish nothing.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
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
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Peak live heap bytes, above what was live at entry, of one service
/// run with `hemprof blame --series`'s observers — `serve_p32`'s
/// configuration at a shorter horizon.
fn peak_bytes(buffer: TraceBuffer, horizon: u64) -> usize {
    let mut cfg = ServeConfig::new();
    cfg.p = 32;
    cfg.dist = ArrivalDist::Poisson { mean_gap: 200.0 };
    cfg.horizon = horizon;
    cfg.warmup = horizon / 10;
    cfg.buffer = buffer;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let fan = Fanout::new()
        .with(Box::new(Rollup::new()))
        .with(Box::new(Blame::new()))
        .with(Box::new(Series::new(horizon / 50)));
    let (rt, out) = cfg.run_with_observer(Box::new(fan)).expect("no trap");
    assert!(out.records.len() > 100, "a real request stream");
    drop((rt, out));
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn an_unbuffered_run_keeps_no_records() {
    const H: u64 = 300_000;
    let off = peak_bytes(TraceBuffer::Off, H);
    let off2 = peak_bytes(TraceBuffer::Off, 2 * H);
    let kept = peak_bytes(TraceBuffer::Unbounded, H);
    let kept2 = peak_bytes(TraceBuffer::Unbounded, 2 * H);
    eprintln!(
        "peak live bytes: unbuffered {off} -> {off2} (+{}), buffered {kept} -> {kept2} (+{})",
        off2 - off,
        kept2 - kept
    );
    assert!(
        4 * off < kept,
        "unbuffered peak {off} is not below a quarter of the buffered {kept}"
    );
    assert!(
        5 * (off2 - off) < kept2 - kept,
        "doubling the horizon adds {} unbuffered, not below a fifth of the {} it adds buffered",
        off2 - off,
        kept2 - kept
    );
}
