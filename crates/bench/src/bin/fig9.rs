//! Fig. 9 — the reason SOR benefits from the hybrid mechanisms: heap
//! contexts are only created for grid points on the *perimeter* of each
//! processor's blocks, while all interior points execute on the stack.
//!
//! This harness counts, per block size, the interior points whose whole
//! 5-point stencil is node-local (analytically) and compares against the
//! heap contexts the hybrid run actually allocated.
//!
//! `cargo run --release -p hem-bench --bin fig9 [--n N]`

use hem_analysis::InterfaceSet;
use hem_apps::sor;
use hem_bench::report::Table;
use hem_bench::Args;
use hem_core::ExecMode;
use hem_machine::cost::CostModel;
use hem_machine::topology::{BlockCyclic, ProcGrid};

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("--n").unwrap_or(96);
    args.finish();
    let procs = ProcGrid::square(64);
    let iters = 1u32;

    println!(
        "Fig. 9: SOR {n}x{n} on 64 nodes, one iteration. 'perimeter' counts\n\
         interior grid points with at least one off-node stencil neighbour\n\
         (these must suspend awaiting a remote get and fall back to a heap\n\
         context); 'stack points' ran entirely on the stack.\n"
    );

    let mut t = Table::new(
        "heap contexts vs block perimeter (hybrid, CM-5)",
        &[
            "block",
            "interior pts",
            "perimeter pts",
            "stack pts",
            "heap ctxs",
            "ctxs/perim",
        ],
    );
    for block in [1u32, 2, 4, 6, 12] {
        // Analytic perimeter count for this layout.
        let bc = BlockCyclic { procs, block };
        let mut perim = 0u64;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let me = bc.owner(i, j);
                let remote = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
                    .into_iter()
                    .any(|(a, b)| bc.owner(a, b) != me);
                if remote {
                    perim += 1;
                }
            }
        }
        let interior = (n as u64 - 2) * (n as u64 - 2);

        let ids = sor::build();
        let mut rt = hem_bench::rt(
            ids.program.clone(),
            procs.len(),
            CostModel::cm5(),
            ExecMode::Hybrid,
            InterfaceSet::Full,
        );
        let inst = sor::setup(&mut rt, &ids, sor::SorParams { n, block, procs });
        sor::run(&mut rt, &inst, iters).expect("sor");
        let ctxs = rt.stats().totals().ctx_alloc;
        t.row(vec![
            block.to_string(),
            interior.to_string(),
            perim.to_string(),
            (interior - perim).to_string(),
            ctxs.to_string(),
            format!("{:.2}", ctxs as f64 / perim.max(1) as f64),
        ]);
    }
    t.print();

    println!("expected shape: heap contexts track the perimeter count (plus a");
    println!("small constant for the per-node workers and the driver), so the");
    println!("ratio stays near 1 while block size varies the perimeter by an");
    println!("order of magnitude — exactly the paper's picture of contexts");
    println!("only on the shaded block boundary.");
}
