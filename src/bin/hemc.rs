//! `hemc` — command-line driver for `.hem` programs in the canonical text
//! format (see `hem::ir::text`).
//!
//! ```text
//! hemc disasm  <file>                       # pretty listing
//! hemc schemas <file>                       # schema selection per method
//! hemc run     <file> Class::method [ints...]
//!              [--nodes N] [--mode hybrid|parallel] [--machine cm5|t3d]
//!              [--interfaces 1|2|3] [--stats] [--trace]
//! hemc emit-kernel <name>                   # print a built-in kernel as text
//! ```
//!
//! `run` allocates one object of the method's class on node 0 (plus, with
//! `--nodes`, one peer object of the same class per extra node if the
//! class has a scalar field named `peer`, wired as a ring), invokes the
//! method with integer arguments, and prints the reply, simulated time
//! and counters.

use hem::analysis::InterfaceSet;
use hem::ir::text::{parse_program, print_program};
use hem::ir::Program;
use hem::{CostModel, ExecMode, NodeId, Runtime, Value};

fn usage() -> ! {
    eprintln!(
        "usage:\n  hemc disasm <file>\n  hemc schemas <file>\n  hemc run <file> Class::method [ints...] \\\n       [--nodes N] [--mode hybrid|parallel] [--machine cm5|t3d] [--interfaces 1|2|3] [--stats] [--trace]\n  hemc emit-kernel <calls|sor|md|em3d|sync>"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Program {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("hemc: cannot read {path}: {e}");
        std::process::exit(1);
    });
    parse_program(&src).unwrap_or_else(|e| {
        eprintln!("hemc: {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("disasm") => {
            let p = load(argv.get(2).map(String::as_str).unwrap_or_else(|| usage()));
            print!("{}", p.disassemble());
        }
        Some("schemas") => {
            let p = load(argv.get(2).map(String::as_str).unwrap_or_else(|| usage()));
            let a = hem::analysis::Analysis::analyze(&p);
            let schemas = a.schemas(InterfaceSet::Full);
            for (i, m) in p.methods.iter().enumerate() {
                let mid = hem::ir::MethodId(i as u32);
                println!(
                    "{:<32} {}  may-block={} needs-cont={}{}",
                    format!("{}::{}", p.classes[m.class.idx()].name, m.name),
                    schemas.of(mid),
                    a.facts.blocks(mid),
                    a.facts.needs_cont(mid),
                    if m.inlinable { "  inline" } else { "" },
                );
            }
        }
        Some("emit-kernel") => {
            let p = match argv
                .get(3)
                .map(String::as_str)
                .or(argv.get(2).map(String::as_str))
            {
                Some("calls") => hem::apps::callintensive::build().program,
                Some("sor") => hem::apps::sor::build().program,
                Some("md") => hem::apps::md::build().program,
                Some("em3d") => hem::apps::em3d::build(16).program,
                Some("sync") => hem::apps::sync::build().program,
                _ => usage(),
            };
            print!("{}", print_program(&p));
        }
        Some("run") => {
            let file = argv.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let target = argv.get(3).map(String::as_str).unwrap_or_else(|| usage());
            let mut args_v = Vec::new();
            let mut nodes = 1u32;
            let mut mode = ExecMode::Hybrid;
            let mut cost = CostModel::cm5();
            let mut ifaces = InterfaceSet::Full;
            let mut show_stats = false;
            let mut show_trace = false;
            let mut it = argv[4..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--nodes" => {
                        nodes = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--mode" => {
                        mode = match it.next().map(String::as_str) {
                            Some("hybrid") => ExecMode::Hybrid,
                            Some("parallel") => ExecMode::ParallelOnly,
                            _ => usage(),
                        }
                    }
                    "--machine" => {
                        cost = match it.next().map(String::as_str) {
                            Some("cm5") => CostModel::cm5(),
                            Some("t3d") => CostModel::t3d(),
                            _ => usage(),
                        }
                    }
                    "--interfaces" => {
                        ifaces = match it.next().map(String::as_str) {
                            Some("1") => InterfaceSet::CpOnly,
                            Some("2") => InterfaceSet::MbCp,
                            Some("3") => InterfaceSet::Full,
                            _ => usage(),
                        }
                    }
                    "--stats" => show_stats = true,
                    "--trace" => show_trace = true,
                    v => match v.parse::<i64>() {
                        Ok(i) => args_v.push(Value::Int(i)),
                        Err(_) => usage(),
                    },
                }
            }
            let p = load(file);
            let (cname, mname) = target.split_once("::").unwrap_or_else(|| usage());
            let mut rt = match Runtime::new(p, nodes, cost, mode, ifaces) {
                Ok(rt) => rt,
                Err(errs) => {
                    for e in errs {
                        eprintln!("hemc: {e}");
                    }
                    std::process::exit(1);
                }
            };
            let method = rt.find_method(cname, mname).unwrap_or_else(|| {
                eprintln!("hemc: no method {target}");
                std::process::exit(1);
            });
            let root = rt.alloc_object_by_name(cname, NodeId(0));
            // Optional ring of peers for multi-node experiments.
            if let Some(peer_field) = rt
                .program()
                .classes
                .iter()
                .find(|c| c.name == cname)
                .and_then(|c| c.fields.iter().position(|f| f.name == "peer" && !f.array))
            {
                let f = hem::ir::FieldId(peer_field as u16);
                let mut ring = vec![root];
                for n in 1..nodes {
                    ring.push(rt.alloc_object_by_name(cname, NodeId(n)));
                }
                let len = ring.len();
                for (i, o) in ring.iter().enumerate() {
                    rt.set_field(*o, f, Value::Obj(ring[(i + 1) % len]));
                }
            }
            if show_trace {
                rt.enable_trace();
            }
            match rt.call(root, method, &args_v) {
                Ok(r) => {
                    println!("result    = {r:?}");
                    println!(
                        "time      = {:.3} ms ({} cycles, {} nodes, {mode}, {})",
                        rt.cost().seconds(rt.makespan()) * 1e3,
                        rt.makespan(),
                        nodes,
                        rt.cost().name
                    );
                    if show_stats {
                        let t = rt.stats().totals();
                        println!(
                            "stack     = nb {} / mb {} / cp {} (+{} inlined)",
                            t.stack_nb, t.stack_mb, t.stack_cp, t.inlined
                        );
                        println!(
                            "heap ctxs = {} ({} fallbacks, {} parallel)",
                            t.ctx_alloc, t.fallbacks, t.par_invokes
                        );
                        println!(
                            "messages  = {} requests, {} replies",
                            t.msgs_sent, t.replies_sent
                        );
                        println!("locality  = {:.3} local fraction", t.local_fraction());
                    }
                    if show_trace {
                        for rec in rt.take_trace() {
                            println!("{:>8}  {:?}", rec.at, rec.event);
                        }
                    }
                }
                Err(t) => {
                    eprintln!("hemc: {t}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
