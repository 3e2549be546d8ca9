//! SOR on a simulated 64-node machine: sweep the block-cyclic block size
//! and watch the hybrid model adapt to data locality (the paper's Table 4
//! and Fig. 9 in miniature).
//!
//! Run with: `cargo run --release --example sor_locality`

use hem::apps::sor;
use hem::{CostModel, ExecMode, InterfaceSet};
use hem_machine::topology::ProcGrid;

fn main() {
    let n = 48u32; // grid side (paper: 512; scaled for a quick demo)
    let iters = 2u32;
    let procs = ProcGrid::square(64);

    println!("== SOR {n}x{n}, {iters} iterations, 64 nodes (CM-5 cost model) ==\n");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>9} {:>14}",
        "block", "local:remote", "par-only (ms)", "hybrid (ms)", "speedup", "heap ctxs"
    );

    for block in [1u32, 2, 3, 6] {
        let mut times = Vec::new();
        let mut ratio = 0.0;
        let mut ctxs = 0;
        for mode in [ExecMode::ParallelOnly, ExecMode::Hybrid] {
            let ids = sor::build();
            let mut rt = hem::apps::make_runtime(
                ids.program.clone(),
                procs.len(),
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            );
            let inst = sor::setup(&mut rt, &ids, sor::SorParams { n, block, procs });
            sor::run(&mut rt, &inst, iters).expect("sor");
            times.push(rt.cost().seconds(rt.makespan()) * 1e3);
            let t = rt.stats().totals();
            ratio = t.local_invokes as f64 / t.remote_invokes.max(1) as f64;
            if mode == ExecMode::Hybrid {
                ctxs = t.ctx_alloc;
            }
        }
        println!(
            "{:>6} {:>12.3} {:>14.2} {:>14.2} {:>8.2}x {:>14}",
            block,
            ratio,
            times[0],
            times[1],
            times[0] / times[1],
            ctxs
        );
    }
    println!(
        "\nLarger blocks => more interior points whose whole stencil runs on\n\
         the stack; heap contexts shrink toward the block perimeter (Fig. 9)\n\
         and the hybrid speedup grows with the local:remote ratio (Table 4)."
    );
}
