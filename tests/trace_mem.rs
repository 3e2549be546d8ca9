//! Records are consumed, not stored: with no trace buffer armed, a
//! `hemprof blame --series`-shaped run holds a fraction of the memory of a
//! buffered one, and what it holds barely grows with the horizon.
//! Checked, not argued: this binary tracks live heap bytes.
//!
//! The buffer is 48 bytes a record in a power-of-two `VecDeque`. What an
//! unbuffered run keeps per request is the service driver's request
//! record: 24 B in a doubling `Vec`, so at most
//! [`BYTES_PER_REQUEST`] a request counting the spare capacity. The
//! runtime keeps no completion log: the driver's observer lands each
//! completion from its `RequestDone` record into the request's record.
//! The rollup and the series are fixed-size, and the blame tracker keeps
//! segments only for requests in flight and its few slowest completions:
//! attaching it adds at most [`BLAME_BYTES_PER_REQUEST`] a request.
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

/// What an unbuffered run without the blame tracker may grow by, per
/// offered request. Keeping 40 B records and the whole-run completion
/// log, with its end-of-run copy, took about 99 B.
const BYTES_PER_REQUEST: usize = 48;

/// What attaching the blame tracker may add to an unbuffered run's peak,
/// per offered request. Keeping every completion's segments took about
/// 280 B.
const BLAME_BYTES_PER_REQUEST: usize = 96;

/// Peak live heap bytes, above what was live at entry, of one service
/// run with `hemprof blame --series`'s observers (`blame: false` leaves
/// the blame tracker out) — `serve_p32`'s configuration at a shorter
/// horizon — and the number of requests it offered.
fn peak_bytes(buffer: TraceBuffer, horizon: u64, blame: bool) -> (usize, usize) {
    let mut cfg = ServeConfig::new();
    cfg.p = 32;
    cfg.dist = ArrivalDist::Poisson { mean_gap: 200.0 };
    cfg.horizon = horizon;
    cfg.warmup = horizon / 10;
    cfg.buffer = buffer;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut fan = Fanout::new().with(Box::new(Rollup::new()));
    if blame {
        fan = fan.with(Box::new(Blame::new()));
    }
    let fan = fan.with(Box::new(Series::new(horizon / 50)));
    let (rt, out) = cfg.run_with_observer(Box::new(fan)).expect("no trap");
    let offered = out.records.len();
    assert!(offered > 100, "a real request stream");
    drop((rt, out));
    (PEAK.load(Ordering::Relaxed) - base, offered)
}

#[test]
fn an_unbuffered_run_keeps_no_records() {
    const H: u64 = 300_000;
    let (off, _) = peak_bytes(TraceBuffer::Off, H, true);
    let (off2, _) = peak_bytes(TraceBuffer::Off, 2 * H, true);
    let (kept, _) = peak_bytes(TraceBuffer::Unbounded, H, true);
    let (kept2, _) = peak_bytes(TraceBuffer::Unbounded, 2 * H, true);
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
    let mut without = [(0, 0); 2];
    for (i, (h, with)) in [(H, off), (2 * H, off2)].into_iter().enumerate() {
        let (bytes, offered) = peak_bytes(TraceBuffer::Off, h, false);
        without[i] = (bytes, offered);
        let per_request = with.saturating_sub(bytes) / offered;
        eprintln!(
            "horizon {h}: blame adds {per_request} B per offered request ({offered} offered)"
        );
        assert!(
            per_request <= BLAME_BYTES_PER_REQUEST,
            "horizon {h}: the blame tracker adds {per_request} B per request, above {BLAME_BYTES_PER_REQUEST}"
        );
    }
    let [(bytes, offered), (bytes2, offered2)] = without;
    let per_request = bytes2.saturating_sub(bytes) / (offered2 - offered);
    eprintln!(
        "without blame: {bytes} -> {bytes2}, {per_request} B per offered request ({offered} -> {offered2} offered)"
    );
    assert!(
        per_request <= BYTES_PER_REQUEST,
        "horizon {H} -> {}: an unbuffered run grows {per_request} B per request, above {BYTES_PER_REQUEST}",
        2 * H
    );
}
