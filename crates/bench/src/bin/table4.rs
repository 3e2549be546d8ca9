//! Table 4 — SOR on 64-node configurations of the CM-5 and T3D cost
//! models: hybrid vs parallel-only across block-cyclic block sizes (i.e.
//! across data-locality levels).
//!
//! `cargo run --release -p hem-bench --bin table4 [--full] [--n N] [--iters I]`

use hem_analysis::InterfaceSet;
use hem_apps::sor;
use hem_bench::report::{secs, speedup, Table};
use hem_bench::{flag, Args, Kind::Int, ALL};
use hem_core::ExecMode;
use hem_machine::cost::CostModel;
use hem_machine::topology::ProcGrid;

hem_bench::flags! { FLAGS:
    FULL = hem_bench::FULL;
    // The sweep's two largest blocks are n/16 and n/8.
    N = flag("--n", Int(16, u32::MAX as u64), ALL, "grid side (default 192, 512 with --full)");
    ITERS = hem_bench::ITERS;
}

fn main() {
    let args = Args::capture(FLAGS);
    let full = args.has(&FULL);
    let n: u32 = args.get(&N).unwrap_or(if full { 512 } else { 192 });
    let iters: u32 = args.get(&ITERS).unwrap_or(if full { 100 } else { 2 });
    let procs = ProcGrid::square(64);
    // Block sizes from fully cyclic to pure block (n / 8 per processor).
    let mut blocks = vec![1u32, 2, 4, n / 16, n / 8];
    blocks.dedup();

    println!(
        "Table 4: SOR ({n}x{n} grid, {iters} iterations) on 64-node machines.\n\
         Block Size = block-cyclic distribution parameter; Local:Remote is the\n\
         measured method-invocation ratio for that layout.\n"
    );

    for cost in [CostModel::cm5(), CostModel::t3d()] {
        let mut t = Table::new(
            &format!("SOR on {} (64 nodes)", cost.name),
            &[
                "block",
                "local:remote",
                "local frac",
                "par-only",
                "hybrid",
                "speedup",
                "heap ctxs",
            ],
        );
        for &block in &blocks {
            let mut times = [0.0f64; 2];
            let mut ratio = 0.0;
            let mut frac = 0.0;
            let mut ctxs = 0;
            for (i, mode) in [ExecMode::ParallelOnly, ExecMode::Hybrid]
                .into_iter()
                .enumerate()
            {
                let ids = sor::build();
                let mut rt = hem_apps::make_runtime(
                    ids.program.clone(),
                    procs.len(),
                    cost.clone(),
                    mode,
                    InterfaceSet::Full,
                );
                let inst = sor::setup(&mut rt, &ids, sor::SorParams { n, block, procs });
                sor::run(&mut rt, &inst, iters).expect("sor");
                times[i] = rt.cost().seconds(rt.makespan());
                let tot = rt.stats().totals();
                ratio = tot.local_invokes as f64 / tot.remote_invokes.max(1) as f64;
                frac = tot.local_fraction();
                if mode == ExecMode::Hybrid {
                    ctxs = tot.ctx_alloc;
                }
            }
            t.row(vec![
                block.to_string(),
                format!("{ratio:.2}:1"),
                format!("{frac:.3}"),
                secs(times[0]),
                secs(times[1]),
                speedup(times[0], times[1]),
                ctxs.to_string(),
            ]);
        }
        t.print();
    }

    println!("expected shape (paper §4.3.1): hybrid speedup grows with the");
    println!("block size from ~1x (fully cyclic, locality ~0.08) toward ~2.3x");
    println!("(pure block, locality ~0.94); at very low locality on the CM-5");
    println!("the hybrid can dip slightly below 1x due to fallback volume.");
}
