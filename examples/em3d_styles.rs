//! EM3D under its three communication structures — pull, push and
//! forward — on CM-5- and T3D-flavoured machines (the paper's Table 6 in
//! miniature). Shows the reply-cost asymmetry that makes `forward` win on
//! the T3D at low locality.
//!
//! Run with: `cargo run --release --example em3d_styles`

use hem::apps::em3d::{self, Style};
use hem::{CostModel, ExecMode, InterfaceSet};

fn main() {
    let n_each = 256u32;
    let degree = 8u32;
    let nodes = 16u32;
    let iters = 2u32;

    for (mname, cost) in [("CM-5", CostModel::cm5()), ("T3D", CostModel::t3d())] {
        println!("== EM3D {n_each}x2 nodes, degree {degree}, {nodes} machine nodes, {mname} ==\n");
        println!(
            "{:>8} {:>9} {:>14} {:>14} {:>9} {:>9} {:>9}",
            "style", "locality", "par-only (ms)", "hybrid (ms)", "speedup", "msgs", "replies"
        );
        for p_local in [0.0, 0.95] {
            for style in [Style::Pull, Style::Push, Style::Forward] {
                let mut times = Vec::new();
                let mut msgs = 0;
                let mut replies = 0;
                for mode in [ExecMode::ParallelOnly, ExecMode::Hybrid] {
                    let ids = em3d::build(degree);
                    let g = em3d::generate(n_each, degree, nodes, p_local, 20260706);
                    let mut rt = hem::apps::make_runtime(
                        ids.program.clone(),
                        nodes,
                        cost.clone(),
                        mode,
                        InterfaceSet::Full,
                    );
                    let inst = em3d::setup(&mut rt, &ids, &g);
                    em3d::run(&mut rt, &inst, style, iters).expect("em3d");
                    times.push(rt.cost().seconds(rt.makespan()) * 1e3);
                    if mode == ExecMode::Hybrid {
                        let t = rt.stats().totals();
                        msgs = t.msgs_sent;
                        replies = t.replies_sent;
                    }
                }
                println!(
                    "{:>8} {:>9} {:>14.2} {:>14.2} {:>8.2}x {:>9} {:>9}",
                    style.to_string(),
                    if p_local == 0.0 { "low" } else { "high" },
                    times[0],
                    times[1],
                    times[0] / times[1],
                    msgs,
                    replies
                );
            }
        }
        println!();
    }
    println!(
        "forward trades longer (continuation-carrying) messages for fewer\n\
         replies — cheap replies favour push/pull on the CM-5, expensive\n\
         replies favour forward on the T3D (paper §4.3.3)."
    );
}
