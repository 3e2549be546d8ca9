//! Time-Warp checkpoints are standing buffers: a steady-state
//! speculative window takes its node snapshots without touching the
//! allocator. Checked, not argued: this binary counts allocator calls.
//!
//! The measurement is differential twice over. SOR at P = 16 on two
//! threads runs 2 and 4 iterations under `Speculative` and under
//! `Sharded`; the extra allocations of the two extra iterations cancel
//! the warm-up (first-use growth of the pool, the snapshot buffers, the
//! outboxes), and subtracting the sharded executor's extra cancels what
//! the kernel itself allocates (frames, message arguments, contexts).
//! What is left is what speculation costs per iteration: the re-executed
//! events of rolled-back windows, one map node per snapshot for the
//! in-flight collective state (`Node::coll`, a `BTreeMap`) — and, before
//! the standing buffers, a `Vec` per object field and per context of
//! every snapshotted node (measured at the parent commit: 1 142 calls per
//! snapshot on this input, against 12.5 now).
//!
//! One `#[test]` only: a second test thread would allocate into the
//! same counter.

use hem::analysis::InterfaceSet;
use hem::apps::sor;
use hem::core::{ExecMode, Runtime, SchedImpl, SpecStats};
use hem::machine::cost::CostModel;
use hem::machine::topology::ProcGrid;
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

const P: u32 = 16;
const N: u32 = 64;

/// Allocator calls made by `iters` SOR iterations (setup excluded), and
/// the run's speculation diagnostics.
fn run_allocs(sched: SchedImpl, iters: u32) -> (u64, SpecStats) {
    let ids = sor::build();
    let mut rt = Runtime::new(
        ids.program.clone(),
        P,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .expect("valid program");
    rt.sched_impl = sched;
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: N,
            block: 2,
            procs: ProcGrid::square(P),
        },
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    sor::run(&mut rt, &inst, iters).expect("sor runs");
    (ALLOCS.load(Ordering::Relaxed) - before, rt.spec_stats())
}

#[test]
fn steady_state_checkpoints_do_not_allocate() {
    let (spec, sharded) = (
        SchedImpl::Speculative { threads: 2 },
        SchedImpl::Sharded { threads: 2 },
    );
    let (spec2, stats2) = run_allocs(spec, 2);
    let (spec4, stats4) = run_allocs(spec, 4);
    let (sharded2, _) = run_allocs(sharded, 2);
    let (sharded4, _) = run_allocs(sharded, 4);

    let snapshots = stats4.ckpt_nodes - stats2.ckpt_nodes;
    assert!(
        snapshots >= 4 * P as u64 && stats4.rollbacks > stats2.rollbacks,
        "iterations 3 and 4 must checkpoint and roll back: {stats2:?} -> {stats4:?}"
    );
    let excess = (spec4 - spec2).saturating_sub(sharded4 - sharded2);
    eprintln!(
        "allocator calls: speculative {spec2} -> {spec4}, sharded {sharded2} -> {sharded4}; \
         excess {excess} over {snapshots} node snapshots"
    );
    // A node holds N*N/P = 256 points with three vectors each, which the
    // allocate-clone-drop checkpoint paid per snapshot. The bound is a
    // constant per snapshot, far below that: it leaves room for the
    // re-run events only.
    assert!(
        excess <= 16 * snapshots,
        "{excess} extra allocator calls over {snapshots} node snapshots \
         ({} objects per node): checkpoints are allocating",
        N * N / P
    );
}
