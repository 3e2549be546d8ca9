//! Automatic data layout (the paper's future work, §6): take an EM3D
//! graph with real cluster structure, *hide* that structure by scrambling
//! the placement, and let the greedy edge-locality partitioner rediscover
//! it — then watch the hybrid runtime turn the recovered locality into
//! stack execution.
//!
//! Run with: `cargo run --release --example auto_layout`

use hem::apps::em3d::{self, Style};
use hem::apps::layout;
use hem::{CostModel, ExecMode, InterfaceSet, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run(g: &em3d::Em3dGraph, nodes: u32) -> (f64, f64) {
    let mut out = [0.0f64; 2];
    for (i, mode) in [ExecMode::ParallelOnly, ExecMode::Hybrid]
        .into_iter()
        .enumerate()
    {
        let ids = em3d::build(8);
        let mut rt = hem::apps::make_runtime(
            ids.program.clone(),
            nodes,
            CostModel::cm5(),
            mode,
            InterfaceSet::Full,
        );
        let inst = em3d::setup(&mut rt, &ids, g);
        em3d::run(&mut rt, &inst, Style::Pull, 2).expect("em3d");
        out[i] = rt.cost().seconds(rt.makespan()) * 1e3;
    }
    (out[0], out[1])
}

fn main() {
    let nodes = 16u32;
    println!("== EM3D pull, 256x2 graph nodes of degree 8, {nodes} machine nodes ==\n");
    println!(
        "{:>22} {:>14} {:>14} {:>14} {:>9}",
        "placement", "edge locality", "par-only (ms)", "hybrid (ms)", "speedup"
    );

    // A graph with genuine cluster structure (edges mostly within the
    // generating placement's communities).
    let g_tuned = em3d::generate(256, 8, nodes, 0.9, 1234);

    // The same graph with the structure hidden: placements scrambled.
    let mut g_scrambled = g_tuned.clone();
    let mut rng = SmallRng::seed_from_u64(99);
    for o in g_scrambled
        .e_owner
        .iter_mut()
        .chain(g_scrambled.h_owner.iter_mut())
    {
        *o = NodeId(rng.gen_range(0..nodes));
    }

    // Automatic recovery by the greedy partitioner.
    let mut g_auto = g_scrambled.clone();
    layout::auto_layout_em3d(&mut g_auto, nodes, 1.2);

    for (name, g) in [
        ("hand-tuned", &g_tuned),
        ("scrambled (random)", &g_scrambled),
        ("auto (recovered)", &g_auto),
    ] {
        let (par, hyb) = run(g, nodes);
        println!(
            "{:>22} {:>14.3} {:>14.2} {:>14.2} {:>8.2}x",
            name,
            layout::em3d_locality(g),
            par,
            hyb,
            par / hyb
        );
    }

    println!(
        "\nThe greedy layout rediscovers most of the community structure a\n\
         random placement hides, and the hybrid execution model converts\n\
         the recovered locality into stack execution automatically — the\n\
         division of labour the paper's future-work section proposes."
    );
}
