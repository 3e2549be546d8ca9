//! The canonical text format must round-trip every kernel program in the
//! repository bit-exactly — the strongest coverage of the printer/parser
//! pair, since the kernels exercise the entire instruction set.

//!
//! The kernel corpus is complemented by *randomly generated* well-formed
//! programs (builder-constructed, so structurally valid by construction)
//! covering the operand/instruction surface the kernels don't stress in
//! odd combinations: finite float constants, locked classes, array
//! fields, joins, continuation stores/sends, forwards, nested control
//! flow. Seeded through the proptest shim, so `HYBRID_TEST_SEED` pins
//! the whole stream for reproduction.

use hem::ir::text::{parse_program, print_program};
use hem::ir::{BinOp, LocalityHint, Program, ProgramBuilder, UnOp, Value};
use proptest::prelude::*;

fn roundtrip(name: &str, p: &Program) {
    let text = print_program(p);
    let back = parse_program(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(&back, p, "{name}: round-trip mismatch");
    // And printing again is a fixpoint.
    assert_eq!(print_program(&back), text, "{name}: print not canonical");
}

#[test]
fn all_kernel_programs_roundtrip() {
    roundtrip("call-intensive", &hem::apps::callintensive::build().program);
    roundtrip("sor", &hem::apps::sor::build().program);
    roundtrip("md", &hem::apps::md::build().program);
    roundtrip("em3d-deg4", &hem::apps::em3d::build(4).program);
    roundtrip("em3d-deg16", &hem::apps::em3d::build(16).program);
    roundtrip("sync", &hem::apps::sync::build().program);
}

#[test]
fn parsed_kernel_still_executes() {
    use hem::{CostModel, ExecMode, InterfaceSet, NodeId, Runtime, Value};
    let suite = hem::apps::callintensive::build();
    let text = print_program(&suite.program);
    let parsed = parse_program(&text).unwrap();
    let mut rt = Runtime::new(
        parsed,
        1,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    let o = rt.alloc_object_by_name("Math", NodeId(0));
    let fib = rt.find_method("Math", "fib").unwrap();
    let r = rt.call(o, fib, &[Value::Int(15)]).unwrap();
    assert_eq!(r, Some(Value::Int(610)));
}

// ================= random program fuzzing =================

/// One instruction shape in a generated method body.
#[derive(Debug, Clone)]
enum OpDesc {
    /// Integer arithmetic: `acc = acc <op> k`.
    IntArith(u8, i64),
    /// Float arithmetic on finite constants (exercises float printing).
    FloatArith(u8, f64),
    /// Unary op on the accumulator.
    Unary(u8),
    /// Read/write one of the scalar fields.
    FieldGet(u8),
    FieldSet(u8),
    /// Array field: allocate, store, load, length.
    ArrayOps(i64),
    /// Invoke a later method into a slot; optionally touch-get it.
    InvokeInto {
        hop: u8,
        touch: bool,
    },
    /// Two joined invocations plus a touch of the join slot.
    JoinPair(u8),
    /// Conditional with arithmetic in both arms.
    IfElse(i64),
    /// Counted loop with a body op.
    ForRange(u8),
    /// Capture the continuation into a field.
    StoreCont(u8),
    /// First-class send through whatever the accumulator holds.
    SendCont,
    /// Modeled collective over the array field: fire-and-forget
    /// multicast, acked multicast, reduce (with a fuzzed fold op), or
    /// barrier — the `mcast`/`reduce`/`barrier` text forms.
    Collective {
        kind: u8,
        hop: u8,
    },
}

#[derive(Debug, Clone)]
struct FuzzMethodDesc {
    params: u16,
    ops: Vec<OpDesc>,
    /// 0 = reply acc, 1 = reply nil, 2 = halt, 3 = forward to a later method.
    terminal: u8,
}

fn op_desc() -> impl Strategy<Value = OpDesc> {
    (0u8..13, 0u8..6, any::<bool>(), -64i64..64, 0u32..1 << 20).prop_map(
        |(kind, sel, flag, k, fbits)| {
            // Finite float derived from small integer ratios: always
            // prints with full round-trip fidelity.
            let f = f64::from(fbits) / 1024.0 - 100.0;
            match kind {
                0 | 1 => OpDesc::IntArith(sel, k),
                2 => OpDesc::FloatArith(sel, f),
                3 => OpDesc::Unary(sel),
                4 => OpDesc::FieldGet(sel),
                5 => OpDesc::FieldSet(sel),
                6 => OpDesc::ArrayOps(k.rem_euclid(7) + 1),
                7 => OpDesc::InvokeInto {
                    hop: sel,
                    touch: flag,
                },
                8 => OpDesc::JoinPair(sel),
                9 => OpDesc::IfElse(k),
                10 => OpDesc::ForRange(sel),
                11 => OpDesc::Collective {
                    kind: k.rem_euclid(4) as u8,
                    hop: sel,
                },
                _ => {
                    if flag {
                        OpDesc::StoreCont(sel)
                    } else {
                        OpDesc::SendCont
                    }
                }
            }
        },
    )
}

fn fuzz_method_desc() -> impl Strategy<Value = FuzzMethodDesc> {
    (1u16..4, proptest::collection::vec(op_desc(), 0..8), 0u8..4).prop_map(
        |(params, ops, terminal)| FuzzMethodDesc {
            params,
            ops,
            terminal,
        },
    )
}

const INT_OPS: [BinOp; 10] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Lt,
    BinOp::Ge,
];
const UN_OPS: [UnOp; 6] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::IsNil,
    UnOp::ToFloat,
    UnOp::ToInt,
    UnOp::Sqrt,
];

/// Build a structurally valid program from descriptors: one unlocked and
/// one locked class, three scalar fields plus an array field, method `i`
/// invoking only methods `> i` (well-formedness needs no termination, but
/// acyclic call structure keeps the fuzz corpus executable in spirit).
fn build_fuzz_program(descs: &[FuzzMethodDesc], locked_split: usize) -> Program {
    let k = descs.len();
    let mut pb = ProgramBuilder::new();
    let open = pb.class("FuzzOpen", false);
    let locked = pb.class("FuzzLocked", true);
    // Field ids are class-scoped: each class gets its own parallel layout
    // so a method only ever names fields of its receiver class.
    let open_fields = [pb.field(open, "fa"), pb.field(open, "fb")];
    let open_arr = pb.array_field(open, "items");
    let locked_fields = [pb.field(locked, "fc"), pb.field(locked, "fd")];
    let locked_arr = pb.array_field(locked, "cells");
    let ids: Vec<_> = descs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let cls = if i < locked_split { open } else { locked };
            pb.declare(cls, &format!("fz{i}"), d.params)
        })
        .collect();
    let leaf = pb.method(open, "leaf", 1, |mb| {
        let r = mb.binl(BinOp::Add, mb.arg(0), 1);
        mb.reply(r);
    });

    for (i, d) in descs.iter().enumerate() {
        // Callee plus its arity, so every call site passes the declared
        // number of arguments (the builder validates arity).
        let callee_of = |hop: u8| {
            if i + 1 < k {
                let j = i + 1 + (hop as usize % (k - i - 1)).min(k - i - 2);
                (ids[j], descs[j].params)
            } else {
                (leaf, 1)
            }
        };
        let (fields, arr) = if i < locked_split {
            (open_fields, open_arr)
        } else {
            (locked_fields, locked_arr)
        };
        pb.define(ids[i], |mb| {
            let acc = mb.local();
            mb.mov(acc, mb.arg(0));
            for op in &d.ops {
                match *op {
                    OpDesc::IntArith(sel, kv) => {
                        mb.bin(acc, INT_OPS[sel as usize % INT_OPS.len()], acc, kv);
                    }
                    OpDesc::FloatArith(sel, f) => {
                        let t = mb.binl(
                            INT_OPS[sel as usize % 5],
                            Value::Float(f),
                            Value::Float(f / 3.0),
                        );
                        mb.bin(acc, BinOp::Add, acc, t);
                    }
                    OpDesc::Unary(sel) => {
                        let t = mb.unl(UN_OPS[sel as usize % UN_OPS.len()], acc);
                        mb.mov(acc, t);
                    }
                    OpDesc::FieldGet(sel) => {
                        let t = mb.get_field(fields[sel as usize % fields.len()]);
                        mb.mov(acc, t);
                    }
                    OpDesc::FieldSet(sel) => {
                        mb.set_field(fields[sel as usize % fields.len()], acc);
                    }
                    OpDesc::ArrayOps(len) => {
                        mb.arr_new(arr, len);
                        mb.set_elem(arr, 0i64, acc);
                        let t = mb.get_elem(arr, 0i64);
                        let l = mb.arr_len(arr);
                        mb.bin(acc, BinOp::Add, t, l);
                    }
                    OpDesc::InvokeInto { hop, touch } => {
                        let me = mb.self_ref();
                        let (callee, arity) = callee_of(hop);
                        let args = vec![acc.into(); arity as usize];
                        let s = mb.invoke_into(me, callee, &args);
                        if touch {
                            let t = mb.touch_get(s);
                            mb.mov(acc, t);
                        } else {
                            mb.touch(&[s]);
                        }
                    }
                    OpDesc::JoinPair(hop) => {
                        let me = mb.self_ref();
                        let j = mb.slot();
                        mb.join_init(j, 2i64);
                        let (callee, arity) = callee_of(hop);
                        let args: Vec<_> = vec![acc.into(); arity as usize];
                        mb.invoke(Some(j), me, callee, &args, LocalityHint::Unknown);
                        mb.invoke(Some(j), me, callee, &args, LocalityHint::AlwaysLocal);
                        mb.touch(&[j]);
                    }
                    OpDesc::IfElse(kv) => {
                        let c = mb.binl(BinOp::Lt, acc, kv);
                        mb.if_else(
                            c,
                            |mb| mb.bin(acc, BinOp::Add, acc, 1),
                            |mb| mb.bin(acc, BinOp::Sub, acc, 1),
                        );
                    }
                    OpDesc::ForRange(n) => {
                        mb.for_range(0i64, i64::from(n % 5), |mb, iv| {
                            mb.bin(acc, BinOp::Add, acc, iv);
                        });
                    }
                    OpDesc::StoreCont(sel) => {
                        mb.store_cont(fields[sel as usize % fields.len()]);
                    }
                    OpDesc::SendCont => {
                        mb.send_to_cont(acc, 7i64);
                    }
                    OpDesc::Collective { kind, hop } => {
                        let (callee, arity) = callee_of(hop);
                        let args = vec![acc.into(); arity as usize];
                        match kind % 4 {
                            0 => mb.multicast(None, arr, callee, &args),
                            1 => {
                                let s = mb.multicast_into(arr, callee, &args);
                                mb.touch(&[s]);
                            }
                            2 => {
                                let fold = INT_OPS[hop as usize % INT_OPS.len()];
                                let s = mb.reduce(arr, callee, &args, fold);
                                let t = mb.touch_get(s);
                                mb.mov(acc, t);
                            }
                            _ => {
                                let s = mb.barrier(arr);
                                mb.touch(&[s]);
                            }
                        }
                    }
                }
            }
            match d.terminal {
                0 => mb.reply(acc),
                1 => mb.reply_nil(),
                2 => mb.halt(),
                _ => {
                    let me = mb.self_ref();
                    let (callee, arity) = callee_of(0);
                    let args = vec![acc.into(); arity as usize];
                    mb.forward(me, callee, &args, LocalityHint::Unknown);
                }
            }
        });
    }
    pb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_roundtrip(
        descs in proptest::collection::vec(fuzz_method_desc(), 1..7),
        locked_split in 0usize..7,
    ) {
        let split = locked_split.min(descs.len());
        let p = build_fuzz_program(&descs, split);
        let text = print_program(&p);
        let back = parse_program(&text)
            .unwrap_or_else(|e| panic!("fuzz parse failed: {e}\n{text}"));
        prop_assert_eq!(&back, &p, "fuzz round-trip mismatch");
        prop_assert_eq!(print_program(&back), text, "fuzz print not canonical");
    }
}

/// `hemc run` on a kernel printed in the text format: a machine size the
/// runtime rejects is one `hemc: …` line and exit 1, not a panic.
#[test]
fn hemc_run_rejects_zero_nodes() {
    let path = std::env::temp_dir().join(format!("hemc_zero_nodes_{}.hem", std::process::id()));
    std::fs::write(
        &path,
        print_program(&hem::apps::callintensive::build().program),
    )
    .expect("write kernel text");
    let run = |nodes: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hemc"))
            .args([
                "run",
                path.to_str().unwrap(),
                "Math::fib",
                "10",
                "--nodes",
                nodes,
            ])
            .output()
            .expect("spawn hemc")
    };
    let out = run("0");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "hemc: node count 0: a machine needs at least one node\n"
    );
    assert!(out.stdout.is_empty());
    let out = run("1");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("result    = Some(Int(55))\n"));
    std::fs::remove_file(&path).ok();
}
