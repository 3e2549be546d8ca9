//! Where an em3d run's heap goes: after the input is generated, the
//! object-graph setup adds the node arenas' values, the object tables and
//! the array-span tables, and nothing else of size. Checked, not argued:
//! this binary tracks live heap bytes and bounds the setup's growth by the
//! sizes of the machine-state types (`Value`, `Object`, `Span`), so a
//! field that regrows one of them shows up here as well as in the
//! compile-time size pins beside each type.
//!
//! One `#[test]` only: a second test thread would allocate into the same
//! counters.

use hem::analysis::InterfaceSet;
use hem::apps::em3d;
use hem::core::object::{Object, Span};
use hem::ir::ObjRef;
use hem::{CostModel, ExecMode, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
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

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// `em3d_p64`'s configuration (P = 64, degree 4, low locality, pull) at
/// the benchmark's quick size.
#[test]
fn em3d_setup_is_its_arenas_and_object_tables() {
    const P: u32 = 64;
    const N_EACH: u32 = 2_500;
    const DEGREE: u32 = 4;
    let ids = em3d::build(DEGREE);
    let mut rt = hem::apps::make_runtime(
        ids.program.clone(),
        P,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    );
    // The instance keeps a copy of the program handles: measure one
    // alone, so the setup's own growth is what is left.
    let before = live();
    let copy = ids.clone();
    let ids_bytes = live() - before;
    drop(copy);

    let g = em3d::generate(N_EACH, DEGREE, P, 0.2, 20260806);
    let after_generate = live();
    let inst = em3d::setup(&mut rt, &ids, &g);
    let after_setup = live();
    PEAK.store(after_setup, Ordering::Relaxed);
    em3d::run(&mut rt, &inst, em3d::Style::Pull, 2).expect("no trap");
    let run_peak = PEAK.load(Ordering::Relaxed);

    // What setup stored, counted off the final object state (outside the
    // measured window): `values` arena values, `objects` objects and
    // `spans` array-span entries. Array fields are written once, or
    // rewritten at the same length (in place), so every arena value is
    // live and the count is exact.
    let state = rt.object_state();
    let objects: usize = state.iter().map(Vec::len).sum();
    let (mut values, mut spans) = (0usize, 0usize);
    for (_, scalars, arrays) in state.iter().flatten() {
        spans += arrays.len();
        values += scalars.len() + arrays.iter().map(Vec::len).sum::<usize>();
    }
    assert_eq!(objects, 2 * N_EACH as usize + P as usize + 1);
    let stored = values * size_of::<Value>() + objects * size_of::<Object>();
    let tables = stored + spans * size_of::<Span>();
    let refs = 2 * N_EACH as usize * size_of::<ObjRef>();
    // The bound. Each node keeps its values, objects and spans in one
    // vector each, grown by doubling: a vector of `len` elements holds at
    // most `max(2 len, 4)` of them. Summed over the nodes, that is at most
    // `2 tables + 4 (16 + 40 + 8) B` a node. Beside the tables, setup keeps
    // the instance: both kinds' reference lists, exactly sized, and its
    // copy of the program handles.
    let slack = P as usize * 4 * (size_of::<Value>() + size_of::<Object>() + size_of::<Span>());
    let bound = 2 * tables + slack + refs + ids_bytes;
    let setup = after_setup - after_generate;
    eprintln!(
        "live bytes: generate {after_generate}, setup +{setup} (values {values} x {} B, \
         objects {objects} x {} B, spans {spans} x {} B = {tables}; bound {bound}), \
         run peak +{}",
        size_of::<Value>(),
        size_of::<Object>(),
        size_of::<Span>(),
        run_peak - after_setup,
    );
    assert!(
        setup >= stored,
        "setup grew {setup} B, less than the {stored} B of values and objects it stored"
    );
    assert!(
        setup <= bound,
        "setup grew {setup} B, over the {bound} B its arenas and object tables account for"
    );
}
