//! Ablation harness (plain binary under `cargo bench`, harness = false):
//! quantifies, in *simulated cycles*, the design decisions DESIGN.md
//! calls out.
//!
//! 1. **Futures inside contexts** vs StackThreads-style separate future
//!    allocation (an extra memory reference per touch and a per-future
//!    allocation) — paper §5 claims the embedded layout wins.
//! 2. **Speculative inlining** on vs off (§4.2 includes it everywhere).
//! 3. **Interface hierarchy**: all three sequential interfaces vs CP-only
//!    (Table 3's 1-interface column, on a parallel workload).
//! 4. **Poll-on-send**: what the tables would look like if long stack
//!    sweeps starved the network is shown indirectly by the heap-context
//!    ratio; here we report the hybrid/parallel instruction ratio as the
//!    latency-free bound.

use hem_analysis::InterfaceSet;
use hem_apps::{callintensive, sor};
use hem_core::{ExecMode, Runtime};
use hem_ir::Value;
use hem_machine::cost::CostModel;
use hem_machine::topology::ProcGrid;
use hem_machine::NodeId;

fn sor_cycles(cost: CostModel, mode: ExecMode, ifaces: InterfaceSet, inline: bool) -> u64 {
    let ids = sor::build();
    let procs = ProcGrid::square(16);
    let mut rt = hem_apps::make_runtime(ids.program.clone(), 16, cost, mode, ifaces);
    rt.set_inlining(inline);
    let inst = sor::setup(
        &mut rt,
        &ids,
        sor::SorParams {
            n: 48,
            block: 6,
            procs,
        },
    );
    sor::run(&mut rt, &inst, 2).unwrap();
    rt.makespan()
}

fn fib_cycles(cost: CostModel, ifaces: InterfaceSet, inline: bool) -> u64 {
    let suite = callintensive::build();
    let mut rt = Runtime::new(suite.program.clone(), 1, cost, ExecMode::Hybrid, ifaces).unwrap();
    rt.set_inlining(inline);
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    rt.call(o, suite.fib, &[Value::Int(20)]).unwrap();
    rt.makespan()
}

/// StackThreads-style cost model: futures allocated separately from the
/// context — an extra memory reference on every touch and store, plus a
/// per-invocation future allocation folded into the invoke fixed cost.
fn stackthreads_costs() -> CostModel {
    let mut c = CostModel::cm5();
    c.name = "stackthreads-style";
    c.future_touch += 2;
    c.future_store += 2;
    c.join_dec += 2;
    c.par_invoke_fixed += 10; // separate future allocation
    c
}

fn main() {
    println!("== ablations (simulated CM-5 cycles; lower is better) ==\n");

    // 1. futures embedded in contexts vs separate.
    let emb = sor_cycles(CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full, true);
    let sep = sor_cycles(
        stackthreads_costs(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
        true,
    );
    println!("futures-in-context (SOR 48x48/16n):");
    println!("  embedded  = {emb}");
    println!(
        "  separate  = {sep}  (+{:.1}%)\n",
        (sep as f64 / emb as f64 - 1.0) * 100.0
    );

    // 2. speculative inlining.
    let on = sor_cycles(CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full, true);
    let off = sor_cycles(
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
        false,
    );
    println!("speculative inlining (SOR 48x48/16n, hybrid):");
    println!("  on  = {on}");
    println!(
        "  off = {off}  (+{:.1}%)\n",
        (off as f64 / on as f64 - 1.0) * 100.0
    );

    // 3. interface hierarchy on a parallel workload.
    let full = sor_cycles(CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full, true);
    let cp = sor_cycles(
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::CpOnly,
        true,
    );
    println!("interface hierarchy (SOR 48x48/16n, hybrid):");
    println!("  NB+MB+CP = {full}");
    println!(
        "  CP only  = {cp}  (+{:.1}%)\n",
        (cp as f64 / full as f64 - 1.0) * 100.0
    );

    // ... and on the sequential suite (fib).
    let f_full = fib_cycles(CostModel::cm5(), InterfaceSet::Full, true);
    let f_cp = fib_cycles(CostModel::cm5(), InterfaceSet::CpOnly, true);
    println!("interface hierarchy (fib 20, 1 node):");
    println!("  NB+MB+CP = {f_full}");
    println!(
        "  CP only  = {f_cp}  (+{:.1}%)\n",
        (f_cp as f64 / f_full as f64 - 1.0) * 100.0
    );

    // 4. latency-free bound: instruction ratio vs makespan ratio.
    let ids = sor::build();
    let procs = ProcGrid::square(16);
    let mut ratios = Vec::new();
    for mode in [ExecMode::ParallelOnly, ExecMode::Hybrid] {
        let mut rt = hem_apps::make_runtime(
            ids.program.clone(),
            16,
            CostModel::cm5(),
            mode,
            InterfaceSet::Full,
        );
        let inst = sor::setup(
            &mut rt,
            &ids,
            sor::SorParams {
                n: 48,
                block: 6,
                procs,
            },
        );
        sor::run(&mut rt, &inst, 2).unwrap();
        ratios.push((rt.makespan(), rt.stats().totals().instructions));
    }
    println!("latency exposure (SOR 48x48/16n):");
    println!(
        "  makespan speedup     = {:.2}x",
        ratios[0].0 as f64 / ratios[1].0 as f64
    );
    println!(
        "  instruction speedup  = {:.2}x (latency-free bound)",
        ratios[0].1 as f64 / ratios[1].1 as f64
    );
}
