//! Table 6 — EM3D in its three communication styles (pull / push /
//! forward) under low- and high-locality placements, on a 64-node CM-5
//! and a 16-node T3D (the paper's configurations).
//!
//! `cargo run --release -p hem-bench --bin table6 [--full] [--nodes-each N] [--iters I]`

use hem_analysis::InterfaceSet;
use hem_apps::em3d::{self, Style};
use hem_bench::report::{secs, speedup, Table};
use hem_bench::Args;
use hem_core::ExecMode;
use hem_machine::cost::CostModel;

fn main() {
    let args = Args::capture();
    let full = args.has("--full");
    // Paper: 8192 graph nodes of degree 16, 100 iterations.
    let n_each: u32 = args
        .get("--nodes-each")
        .unwrap_or(if full { 4096 } else { 512 });
    let degree = 16u32;
    let iters: u32 = args.get("--iters").unwrap_or(if full { 100 } else { 2 });
    args.finish();

    println!(
        "Table 6: EM3D ({} graph nodes of degree {degree}, {iters} iterations)\n\
         on a 64-node CM-5 and a 16-node T3D. Locality = probability an\n\
         in-neighbour is co-located (low = random placement, high = 99%).\n",
        2 * n_each
    );

    for (cost, machine_nodes) in [(CostModel::cm5(), 64u32), (CostModel::t3d(), 16u32)] {
        let mut t = Table::new(
            &format!("EM3D on {} ({} nodes)", cost.name, machine_nodes),
            &[
                "locality",
                "version",
                "local:remote",
                "par-only",
                "hybrid",
                "speedup",
            ],
        );
        for (lname, p_local) in [("low", 0.0f64), ("high", 0.99f64)] {
            for style in [Style::Pull, Style::Push, Style::Forward] {
                let mut times = [0.0f64; 2];
                let mut ratio = 0.0;
                for (i, mode) in [ExecMode::ParallelOnly, ExecMode::Hybrid]
                    .into_iter()
                    .enumerate()
                {
                    let ids = em3d::build(degree);
                    let g = em3d::generate(n_each, degree, machine_nodes, p_local, 424242);
                    let mut rt = hem_bench::rt(
                        ids.program.clone(),
                        machine_nodes,
                        cost.clone(),
                        mode,
                        InterfaceSet::Full,
                    );
                    let inst = em3d::setup(&mut rt, &ids, &g);
                    em3d::run(&mut rt, &inst, style, iters).expect("em3d");
                    times[i] = rt.cost.seconds(rt.makespan());
                    let tot = rt.stats().totals();
                    ratio = tot.local_invokes as f64 / tot.remote_invokes.max(1) as f64;
                }
                t.row(vec![
                    lname.into(),
                    style.to_string(),
                    format!("{ratio:.3}:1"),
                    secs(times[0]),
                    secs(times[1]),
                    speedup(times[0], times[1]),
                ]);
            }
        }
        t.print();
    }

    println!("expected shape (paper §4.3.3): hybrid speedups from ~1x to ~4x;");
    println!("pull gives the best absolute times (no intermediate storage);");
    println!("push beats forward on the CM-5 (cheap single-packet replies),");
    println!("forward beats push on the T3D at low locality (fewer messages");
    println!("despite carrying continuations); at high locality the hybrid");
    println!("mechanisms win by running local updates entirely on the stack.");
}
