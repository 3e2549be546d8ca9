//! Quickstart: build a fine-grained concurrent program, let the analysis
//! pick invocation schemas, and watch the hybrid model collapse thousands
//! of conceptual threads onto the stack.
//!
//! Run with: `cargo run --release --example quickstart`

use hem::{CostModel, ExecMode, InterfaceSet, NodeId, ProgramBuilder, Runtime, Value};
use hem_ir::BinOp;

fn main() {
    // A program in the paper's model: every `invoke` is conceptually a new
    // thread whose result is an implicit future; `touch` synchronizes on a
    // set of futures at once.
    let mut pb = ProgramBuilder::new();
    let math = pb.class("Math", false);
    let fib = pb.declare(math, "fib", 1);
    pb.define(fib, |mb| {
        let n = mb.arg(0);
        let small = mb.binl(BinOp::Lt, n, 2);
        mb.if_else(
            small,
            |mb| mb.reply(n),
            |mb| {
                let me = mb.self_ref();
                let a = mb.binl(BinOp::Sub, n, 1);
                let b = mb.binl(BinOp::Sub, n, 2);
                let s1 = mb.invoke_local(me, fib, &[a.into()]);
                let s2 = mb.invoke_local(me, fib, &[b.into()]);
                mb.touch(&[s1, s2]);
                let x = mb.get_slot(s1);
                let y = mb.get_slot(s2);
                let r = mb.binl(BinOp::Add, x, y);
                mb.reply(r);
            },
        );
    });
    let program = pb.finish();

    println!("== fib(24) as 92 735 fine-grained threads ==\n");
    let n = 24i64;

    for (label, mode) in [
        (
            "parallel-only (heap context per invocation, paper §3.1)",
            ExecMode::ParallelOnly,
        ),
        (
            "hybrid (stack execution with lazy fallback, paper §3.2)",
            ExecMode::Hybrid,
        ),
    ] {
        let mut rt = Runtime::new(
            program.clone(),
            1,
            CostModel::cm5(),
            mode,
            InterfaceSet::Full,
        )
        .expect("valid program");
        let obj = rt.alloc_object_by_name("Math", NodeId(0));
        let result = rt.call(obj, fib, &[Value::Int(n)]).expect("no traps");
        let t = rt.stats().totals();
        println!("{label}");
        println!("  result                = {result:?}");
        println!(
            "  simulated time        = {:.1} ms ({} cycles)",
            rt.cost().seconds(rt.makespan()) * 1e3,
            rt.makespan()
        );
        println!("  heap contexts         = {}", t.ctx_alloc);
        println!(
            "  stack completions     = {}",
            t.stack_nb + t.stack_mb + t.stack_cp
        );
        println!("  fallbacks             = {}\n", t.fallbacks);
    }

    // The "equivalent C program" price for the same computation.
    let mut rt = Runtime::new(
        program,
        1,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    let obj = rt.alloc_object_by_name("Math", NodeId(0));
    let (v, cycles) = rt.call_c_baseline(obj, fib, &[Value::Int(n)]).unwrap();
    println!("equivalent C program");
    println!("  result                = {v:?}");
    println!(
        "  simulated time        = {:.1} ms ({} cycles)",
        rt.cost().seconds(cycles) * 1e3,
        cycles
    );
    println!();
    println!("The hybrid model's claim (paper Table 3): C-like sequential cost");
    println!("for a model where every call could have been a parallel thread.");
}
