//! Table 2 — call and fallback overheads (dynamic instructions beyond a C
//! function call) for every caller-schema × callee-schema combination,
//! measured on the CM-5 cost model.
//!
//! `cargo run --release -p hem-bench --bin table2`

use hem_bench::micro::{self, CalleeKind, CallerKind};
use hem_bench::report::Table;
use hem_machine::cost::CostModel;

fn main() {
    hem_bench::Args::capture(&[]);
    let cost = CostModel::cm5();
    let suite = micro::build();

    println!("Table 2: overheads at the caller, in instructions beyond a basic");
    println!(
        "C function call (C call = {} on this machine).\n",
        cost.plain_call
    );

    let mut left = Table::new(
        "sequential invocation completes on the stack",
        &["caller \\ callee", "NB", "MB", "CP"],
    );
    for caller in CallerKind::ALL {
        let mut row = vec![caller.label().to_string()];
        for callee in CalleeKind::DONE {
            if caller == CallerKind::Nb && callee != CalleeKind::Nb {
                row.push("-".into());
                continue;
            }
            let cell = micro::measure(&suite, caller, callee, &cost);
            row.push(format!("{:.0}", cell.overhead()));
        }
        left.row(row);
    }
    left.print();

    let mut right = Table::new(
        "additional cost when the invocation falls back into the heap",
        &["caller \\ callee", "MB", "CP"],
    );
    for caller in CallerKind::ALL {
        if caller == CallerKind::Nb {
            continue; // NB callers cannot absorb a fallback.
        }
        let mut row = vec![caller.label().to_string()];
        for (blocked, done) in [
            (CalleeKind::MbBlock, CalleeKind::Mb),
            (CalleeKind::CpBlock, CalleeKind::Cp),
        ] {
            let b = micro::measure(&suite, caller, blocked, &cost).overhead();
            let d = micro::measure(&suite, caller, done, &cost).overhead();
            row.push(format!("{:.0}", b - d));
        }
        right.row(row);
    }
    right.print();

    let par = micro::parallel_invoke_cost(&cost);
    println!("heap-based (parallel) invocation for comparison: {par:.0} instructions");
    println!("(paper: ~130; sequential calls are an order of magnitude cheaper,");
    println!(" and the worst fallback is comparable to one heap invocation, so");
    println!(" speculative sequential execution wins unless a method blocks");
    println!(" repeatedly — hence: revert to the parallel version after the");
    println!(" first fallback.)");
    println!();
    println!("note: our fallback figures include the message handling the");
    println!("blocked callee's remote round trip performs on the caller node,");
    println!("which the paper's caller-side accounting excludes.");
}
