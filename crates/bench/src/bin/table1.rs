//! Table 1 — the invocation schema taxonomy, demonstrated by the schemas
//! the global flow analysis actually selects for every method of the
//! evaluation programs.
//!
//! `cargo run -p hem-bench --bin table1`

use hem_analysis::{Analysis, InterfaceSet};
use hem_bench::report::Table;
use hem_ir::Program;

fn dump(name: &str, program: &Program, t: &mut Table) {
    let a = Analysis::analyze(program);
    let schemas = a.schemas(InterfaceSet::Full);
    for (i, m) in program.methods.iter().enumerate() {
        let mid = hem_ir::MethodId(i as u32);
        t.row(vec![
            name.to_string(),
            format!("{}::{}", program.classes[m.class.idx()].name, m.name),
            schemas.of(mid).to_string(),
            if a.facts.blocks(mid) { "yes" } else { "no" }.into(),
            if a.facts.needs_cont(mid) { "yes" } else { "no" }.into(),
            if m.inlinable { "yes" } else { "" }.into(),
        ]);
    }
}

fn main() {
    hem_bench::Args::capture(&[]);
    println!("Table 1: invocation schemas (parallel version always exists;");
    println!("the sequential interface below is selected per method by the");
    println!("may-block / requires-continuation analyses)\n");
    println!("  schema | context    | continuation | reclamation");
    println!("  -------+------------+--------------+------------------");
    println!("  par    | heap       | eager        | on reply/forward");
    println!("  NB     | stack      | none         | C call return");
    println!("  MB     | stack,lazy | linked late  | return or heap");
    println!("  CP     | stack,lazy | lazy         | return or heap");
    println!();

    let mut t = Table::new(
        "schema selection over the evaluation programs",
        &[
            "program",
            "method",
            "schema",
            "may-block",
            "needs-cont",
            "inlinable",
        ],
    );
    dump(
        "call-intensive",
        &hem_apps::callintensive::build().program,
        &mut t,
    );
    dump("sor", &hem_apps::sor::build().program, &mut t);
    dump("md-force", &hem_apps::md::build().program, &mut t);
    dump("em3d", &hem_apps::em3d::build(16).program, &mut t);
    dump("sync-structures", &hem_apps::sync::build().program, &mut t);
    t.print();

    // Histogram summary.
    let mut h = Table::new("schema histogram", &["program", "NB", "MB", "CP"]);
    for (name, p) in [
        ("call-intensive", hem_apps::callintensive::build().program),
        ("sor", hem_apps::sor::build().program),
        ("md-force", hem_apps::md::build().program),
        ("em3d", hem_apps::em3d::build(16).program),
        ("sync-structures", hem_apps::sync::build().program),
    ] {
        let a = Analysis::analyze(&p);
        let (nb, mb, cp) = a.schemas(InterfaceSet::Full).histogram();
        h.row(vec![
            name.into(),
            nb.to_string(),
            mb.to_string(),
            cp.to_string(),
        ]);
    }
    h.print();
}
