//! Table 3 — sequential execution times of the function-call intensive
//! benchmarks under: parallel-only execution, the hybrid model restricted
//! to 1 / 2 / 3 interfaces, the Seq-opt variant (parallelization checks
//! compiled away), and the equivalent C program.
//!
//! `cargo run --release -p hem-bench --bin table3 [--full]`

use hem_analysis::InterfaceSet;
use hem_bench::report::{secs, Table};
use hem_bench::Args;
use hem_core::{ExecMode, Runtime};
use hem_ir::{MethodId, Value};
use hem_machine::cost::CostModel;
use hem_machine::NodeId;

struct Bench {
    name: &'static str,
    method: MethodId,
    args: Vec<Value>,
}

fn time_run(mode: ExecMode, ifaces: InterfaceSet, cost: CostModel, b: &Bench) -> f64 {
    let suite = hem_apps::callintensive::build();
    let mut rt = Runtime::new(suite.program.clone(), 1, cost, mode, ifaces).expect("valid");
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    rt.call(o, b.method, &b.args).expect("no trap");
    rt.cost.seconds(rt.makespan())
}

fn time_c(b: &Bench) -> f64 {
    let suite = hem_apps::callintensive::build();
    let cost = CostModel::cm5();
    let mut rt = Runtime::new(
        suite.program.clone(),
        1,
        cost.clone(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .expect("valid");
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    let (_, cycles) = rt.call_c_baseline(o, b.method, &b.args).expect("cref");
    cost.seconds(cycles)
}

fn main() {
    let args = Args::capture();
    let full = args.has("--full");
    args.finish();
    let suite = hem_apps::callintensive::build();
    let (fib_n, tak, nq, qs, nrev_n, ackmn) = if full {
        (
            28i64,
            (22i64, 16i64, 8i64),
            10i64,
            16384i64,
            120i64,
            (3i64, 5i64),
        )
    } else {
        (22, (18, 12, 6), 8, 2048, 60, (3, 3))
    };
    let benches = vec![
        Bench {
            name: "fib",
            method: suite.fib,
            args: vec![Value::Int(fib_n)],
        },
        Bench {
            name: "tak",
            method: suite.tak,
            args: vec![Value::Int(tak.0), Value::Int(tak.1), Value::Int(tak.2)],
        },
        Bench {
            name: "nqueens",
            method: suite.nqueens,
            args: vec![Value::Int(nq)],
        },
        Bench {
            name: "qsort",
            method: suite.qsort_run,
            args: vec![Value::Int(qs), Value::Int(12345)],
        },
        Bench {
            name: "nrev",
            method: suite.nrev_run,
            args: vec![Value::Int(nrev_n)],
        },
        Bench {
            name: "ack",
            method: suite.ack,
            args: vec![Value::Int(ackmn.0), Value::Int(ackmn.1)],
        },
    ];

    println!(
        "Table 3: sequential times (simulated CM-5 seconds), one node.\n\
         workloads: fib({fib_n}), tak{tak:?}, nqueens({nq}), qsort({qs}),\n\
         nrev({nrev_n}), ack{ackmn:?}\n"
    );

    let mut t = Table::new(
        "sequential performance of the hybrid mechanisms",
        &[
            "program",
            "par-only",
            "1 iface(CP)",
            "2 ifaces",
            "3 ifaces",
            "seq-opt",
            "C",
            "hybrid/C",
        ],
    );
    for b in &benches {
        let par = time_run(
            ExecMode::ParallelOnly,
            InterfaceSet::Full,
            CostModel::cm5(),
            b,
        );
        let h1 = time_run(ExecMode::Hybrid, InterfaceSet::CpOnly, CostModel::cm5(), b);
        let h2 = time_run(ExecMode::Hybrid, InterfaceSet::MbCp, CostModel::cm5(), b);
        let h3 = time_run(ExecMode::Hybrid, InterfaceSet::Full, CostModel::cm5(), b);
        let so = time_run(
            ExecMode::Hybrid,
            InterfaceSet::Full,
            CostModel::cm5().seq_opt(),
            b,
        );
        let c = time_c(b);
        t.row(vec![
            b.name.into(),
            secs(par),
            secs(h1),
            secs(h2),
            secs(h3),
            secs(so),
            secs(c),
            format!("{:.2}", h3 / c),
        ]);
    }
    t.print();

    println!("expected shape (paper §4.2): every hybrid column beats the");
    println!("parallel-only column by a large factor; 3 interfaces improves on");
    println!("CP-only by up to ~30%; Seq-opt removes the remaining");
    println!("parallelization-check overhead, closing most of the gap to C.");
}
