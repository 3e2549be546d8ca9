//! Function-call intensive benchmarks (Table 3).
//!
//! The paper evaluates sequential efficiency on small programs "written by
//! different authors with a variety of programming styles" and names fib
//! and tak in a footnote. We use four: **fib**, **tak**, **nqueens** and
//! **qsort**. All express their recursion as fine-grained concurrent
//! method invocations with implicit futures (two parallel calls + one
//! touch per level for fib/tak/qsort; a serial accumulation loop for
//! nqueens), so under a parallel-only execution every call costs a heap
//! context while the hybrid model collapses them onto the stack.

use hem_ir::{BinOp, MethodId, Program, ProgramBuilder};

/// Program + entry points for the Table 3 suite. All methods live on one
/// `Math` object (lock-free class — recursion must not self-deadlock).
#[derive(Debug, Clone)]
pub struct CallSuite {
    /// The program.
    pub program: Program,
    /// `fib(n)`.
    pub fib: MethodId,
    /// `tak(x, y, z)`.
    pub tak: MethodId,
    /// `nqueens(n)` — number of solutions.
    pub nqueens: MethodId,
    /// `qsort_run(n, seed)` — fills an array with an LCG sequence, sorts
    /// it, and replies with a checksum proving sortedness.
    pub qsort_run: MethodId,
    /// `nrev_run(n)` — builds an n-element cons list, naive-reverses it,
    /// and replies with the sum of the reversed list (the classic Lisp
    /// `nrev` benchmark; exercises dynamic allocation).
    pub nrev_run: MethodId,
    /// `ack(m, n)` — Ackermann's function.
    pub ack: MethodId,
}

/// Build the suite.
pub fn build() -> CallSuite {
    let mut pb = ProgramBuilder::new();
    let math = pb.class("Math", false);
    let data = pb.array_field(math, "data");

    // ---- fib ----
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

    // ---- tak ----
    let tak = pb.declare(math, "tak", 3);
    pb.define(tak, |mb| {
        let (x, y, z) = (mb.arg(0), mb.arg(1), mb.arg(2));
        let cond = mb.binl(BinOp::Lt, y, x);
        mb.if_else(
            cond,
            |mb| {
                let me = mb.self_ref();
                let x1 = mb.binl(BinOp::Sub, x, 1);
                let y1 = mb.binl(BinOp::Sub, y, 1);
                let z1 = mb.binl(BinOp::Sub, z, 1);
                let s1 = mb.invoke_local(me, tak, &[x1.into(), y.into(), z.into()]);
                let s2 = mb.invoke_local(me, tak, &[y1.into(), z.into(), x.into()]);
                let s3 = mb.invoke_local(me, tak, &[z1.into(), x.into(), y.into()]);
                mb.touch(&[s1, s2, s3]);
                let a = mb.get_slot(s1);
                let b = mb.get_slot(s2);
                let c = mb.get_slot(s3);
                let s4 = mb.invoke_local(me, tak, &[a.into(), b.into(), c.into()]);
                let r = mb.touch_get(s4);
                mb.reply(r);
            },
            |mb| mb.reply(z),
        );
    });

    // ---- nqueens (bitmask formulation) ----
    // nq(ld, cols, rd, all): count completions of the current partial
    // placement. Serial accumulation over candidate positions (Table 3 is
    // a sequential benchmark).
    let nq = pb.declare(math, "nq", 4);
    pb.define(nq, |mb| {
        let (ld, cols, rd, all) = (mb.arg(0), mb.arg(1), mb.arg(2), mb.arg(3));
        let full = mb.binl(BinOp::Eq, cols, all);
        mb.if_else(
            full,
            |mb| mb.reply(1i64),
            |mb| {
                let me = mb.self_ref();
                let acc = mb.local();
                mb.mov(acc, 0i64);
                let taken = mb.binl(BinOp::BitOr, ld, cols);
                let taken2 = mb.binl(BinOp::BitOr, taken, rd);
                let free0 = mb.binl(BinOp::BitXor, taken2, -1i64);
                let poss = mb.local();
                mb.bin(poss, BinOp::BitAnd, free0, all);
                let s = mb.slot();
                mb.while_(
                    |mb| mb.binl(BinOp::Ne, poss, 0).into(),
                    |mb| {
                        let negp = mb.binl(BinOp::Sub, 0, poss);
                        let bit = mb.binl(BinOp::BitAnd, poss, negp);
                        mb.bin(poss, BinOp::BitXor, poss, bit);
                        let ld2a = mb.binl(BinOp::BitOr, ld, bit);
                        let ld2b = mb.binl(BinOp::Shl, ld2a, 1);
                        let ld2 = mb.binl(BinOp::BitAnd, ld2b, all);
                        let cols2 = mb.binl(BinOp::BitOr, cols, bit);
                        let rd2a = mb.binl(BinOp::BitOr, rd, bit);
                        let rd2 = mb.binl(BinOp::Shr, rd2a, 1);
                        mb.invoke(
                            Some(s),
                            me,
                            nq,
                            &[ld2.into(), cols2.into(), rd2.into(), all.into()],
                            hem_ir::LocalityHint::AlwaysLocal,
                        );
                        mb.touch(&[s]);
                        let v = mb.get_slot(s);
                        mb.bin(acc, BinOp::Add, acc, v);
                    },
                );
                mb.reply(acc);
            },
        );
    });
    let nqueens = pb.declare(math, "nqueens", 1);
    pb.define(nqueens, |mb| {
        let n = mb.arg(0);
        let me = mb.self_ref();
        let one = mb.local();
        mb.mov(one, 1i64);
        let shifted = mb.binl(BinOp::Shl, one, n);
        let all = mb.binl(BinOp::Sub, shifted, 1);
        let s = mb.invoke_local(me, nq, &[0i64.into(), 0i64.into(), 0i64.into(), all.into()]);
        let r = mb.touch_get(s);
        mb.reply(r);
    });

    // ---- qsort over the object's `data` array field ----
    // Hoare-style partition; the two recursive sorts are issued as two
    // futures touched together (fine-grained concurrency, like fib).
    let qsort = pb.declare(math, "qsort", 2); // (lo, hi) inclusive
    pb.define(qsort, |mb| {
        let (lo, hi) = (mb.arg(0), mb.arg(1));
        let small = mb.binl(BinOp::Ge, lo, hi);
        mb.if_else(
            small,
            |mb| mb.reply_nil(),
            |mb| {
                let me = mb.self_ref();
                // Lomuto partition on data[lo..=hi] with pivot data[hi].
                let pivot = mb.get_elem(data, hi);
                let i = mb.local();
                mb.mov(i, lo);
                let j = mb.local();
                mb.mov(j, lo);
                mb.while_(
                    |mb| mb.binl(BinOp::Lt, j, hi).into(),
                    |mb| {
                        let dj = mb.get_elem(data, j);
                        let le = mb.binl(BinOp::Le, dj, pivot);
                        mb.if_(le, |mb| {
                            let di = mb.get_elem(data, i);
                            let djj = mb.get_elem(data, j);
                            mb.set_elem(data, i, djj);
                            mb.set_elem(data, j, di);
                            mb.bin(i, BinOp::Add, i, 1);
                        });
                        mb.bin(j, BinOp::Add, j, 1);
                    },
                );
                let di = mb.get_elem(data, i);
                let dh = mb.get_elem(data, hi);
                mb.set_elem(data, i, dh);
                mb.set_elem(data, hi, di);
                let i1 = mb.binl(BinOp::Sub, i, 1);
                let i2 = mb.binl(BinOp::Add, i, 1);
                let s1 = mb.invoke_local(me, qsort, &[lo.into(), i1.into()]);
                let s2 = mb.invoke_local(me, qsort, &[i2.into(), hi.into()]);
                mb.touch(&[s1, s2]);
                mb.reply_nil();
            },
        );
    });
    let qsort_run = pb.declare(math, "qsort_run", 2); // (n, seed)
    pb.define(qsort_run, |mb| {
        let (n, seed) = (mb.arg(0), mb.arg(1));
        let me = mb.self_ref();
        mb.arr_new(data, n);
        // Fill with a 31-bit LCG sequence.
        let x = mb.local();
        mb.mov(x, seed);
        mb.for_range(0i64, n, |mb, k| {
            let m1 = mb.binl(BinOp::Mul, x, 1103515245i64);
            let a1 = mb.binl(BinOp::Add, m1, 12345i64);
            mb.bin(x, BinOp::BitAnd, a1, 0x7fff_ffffi64);
            mb.set_elem(data, k, x);
        });
        let hi = mb.binl(BinOp::Sub, n, 1);
        let s = mb.invoke_local(me, qsort, &[0i64.into(), hi.into()]);
        mb.touch(&[s]);
        // Checksum: sum of element*index differences proves order later;
        // reply a simple sortedness indicator + sum.
        let sum = mb.local();
        mb.mov(sum, 0i64);
        let sorted = mb.local();
        mb.mov(sorted, 1i64);
        mb.for_range(0i64, n, |mb, k| {
            let v = mb.get_elem(data, k);
            mb.bin(sum, BinOp::Add, sum, v);
            let pos = mb.binl(BinOp::Gt, k, 0);
            mb.if_(pos, |mb| {
                let k1 = mb.binl(BinOp::Sub, k, 1);
                let prev = mb.get_elem(data, k1);
                let bad = mb.binl(BinOp::Gt, prev, v);
                mb.if_(bad, |mb| mb.mov(sorted, 0i64));
            });
        });
        let ok = mb.binl(BinOp::Eq, sorted, 1);
        mb.if_else(ok, |mb| mb.reply(sum), |mb| mb.reply(-1i64));
    });

    // ---- nrev over cons cells (dynamic allocation via NewLocal) ----
    let cons = pb.class("Cons", false);
    let head = pb.field(cons, "head");
    let tail = pb.field(cons, "tail");
    let c_init = pb.method(cons, "init", 2, |mb| {
        mb.inlinable();
        mb.set_field(head, mb.arg(0));
        mb.set_field(tail, mb.arg(1));
        let me = mb.self_ref();
        mb.reply(me);
    });
    let c_head = pb.method(cons, "head", 0, |mb| {
        mb.inlinable();
        let v = mb.get_field(head);
        mb.reply(v);
    });
    let c_tail = pb.method(cons, "tail", 0, |mb| {
        mb.inlinable();
        let v = mb.get_field(tail);
        mb.reply(v);
    });

    // Math.cons(h, t): allocate and initialize a cell.
    let mk_cons = pb.method(math, "cons", 2, |mb| {
        let cell = mb.new_local_obj(cons);
        let s = mb.invoke_local(cell, c_init, &[mb.arg(0).into(), mb.arg(1).into()]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let buildlist = pb.declare(math, "buildlist", 1);
    pb.define(buildlist, |mb| {
        let n = mb.arg(0);
        let z = mb.binl(BinOp::Le, n, 0);
        mb.if_else(
            z,
            |mb| mb.reply(hem_ir::Value::Nil),
            |mb| {
                let me = mb.self_ref();
                let n1 = mb.binl(BinOp::Sub, n, 1);
                let s = mb.invoke_local(me, buildlist, &[n1.into()]);
                let rest = mb.touch_get(s);
                let s2 = mb.invoke_local(me, mk_cons, &[n.into(), rest.into()]);
                let v = mb.touch_get(s2);
                mb.reply(v);
            },
        );
    });
    let append = pb.declare(math, "append", 2);
    pb.define(append, |mb| {
        let (a, b) = (mb.arg(0), mb.arg(1));
        let nil = mb.unl(hem_ir::UnOp::IsNil, a);
        mb.if_else(
            nil,
            |mb| mb.reply(b),
            |mb| {
                let me = mb.self_ref();
                let sh = mb.invoke_local(a, c_head, &[]);
                let st = mb.invoke_local(a, c_tail, &[]);
                mb.touch(&[sh, st]);
                let h = mb.get_slot(sh);
                let t = mb.get_slot(st);
                let sr = mb.invoke_local(me, append, &[t.into(), b.into()]);
                let rest = mb.touch_get(sr);
                let sc = mb.invoke_local(me, mk_cons, &[h.into(), rest.into()]);
                let v = mb.touch_get(sc);
                mb.reply(v);
            },
        );
    });
    let nrev = pb.declare(math, "nrev", 1);
    pb.define(nrev, |mb| {
        let l = mb.arg(0);
        let nil = mb.unl(hem_ir::UnOp::IsNil, l);
        mb.if_else(
            nil,
            |mb| mb.reply(hem_ir::Value::Nil),
            |mb| {
                let me = mb.self_ref();
                let sh = mb.invoke_local(l, c_head, &[]);
                let st = mb.invoke_local(l, c_tail, &[]);
                mb.touch(&[sh, st]);
                let h = mb.get_slot(sh);
                let t = mb.get_slot(st);
                let sr = mb.invoke_local(me, nrev, &[t.into()]);
                let r = mb.touch_get(sr);
                let sc = mb.invoke_local(me, mk_cons, &[h.into(), hem_ir::Value::Nil.into()]);
                let cell = mb.touch_get(sc);
                let sa = mb.invoke_local(me, append, &[r.into(), cell.into()]);
                let v = mb.touch_get(sa);
                mb.reply(v);
            },
        );
    });
    let list_sum = pb.declare(math, "list_sum", 1);
    pb.define(list_sum, |mb| {
        let l = mb.arg(0);
        let nil = mb.unl(hem_ir::UnOp::IsNil, l);
        mb.if_else(
            nil,
            |mb| mb.reply(0i64),
            |mb| {
                let me = mb.self_ref();
                let sh = mb.invoke_local(l, c_head, &[]);
                let st = mb.invoke_local(l, c_tail, &[]);
                mb.touch(&[sh, st]);
                let h = mb.get_slot(sh);
                let t = mb.get_slot(st);
                let sr = mb.invoke_local(me, list_sum, &[t.into()]);
                let rest = mb.touch_get(sr);
                let v = mb.binl(BinOp::Add, h, rest);
                mb.reply(v);
            },
        );
    });
    let nrev_run = pb.method(math, "nrev_run", 1, |mb| {
        let n = mb.arg(0);
        let me = mb.self_ref();
        let sb = mb.invoke_local(me, buildlist, &[n.into()]);
        let l = mb.touch_get(sb);
        let sn = mb.invoke_local(me, nrev, &[l.into()]);
        let r = mb.touch_get(sn);
        let ss = mb.invoke_local(me, list_sum, &[r.into()]);
        let v = mb.touch_get(ss);
        mb.reply(v);
    });

    // ---- Ackermann ----
    let ack = pb.declare(math, "ack", 2);
    pb.define(ack, |mb| {
        let (m, n) = (mb.arg(0), mb.arg(1));
        let mz = mb.binl(BinOp::Eq, m, 0);
        mb.if_else(
            mz,
            |mb| {
                let r = mb.binl(BinOp::Add, n, 1);
                mb.reply(r);
            },
            |mb| {
                let me = mb.self_ref();
                let m1 = mb.binl(BinOp::Sub, m, 1);
                let nz = mb.binl(BinOp::Eq, n, 0);
                mb.if_else(
                    nz,
                    |mb| {
                        let s = mb.invoke_local(me, ack, &[m1.into(), 1i64.into()]);
                        let v = mb.touch_get(s);
                        mb.reply(v);
                    },
                    |mb| {
                        let n1 = mb.binl(BinOp::Sub, n, 1);
                        let s1 = mb.invoke_local(me, ack, &[m.into(), n1.into()]);
                        let inner = mb.touch_get(s1);
                        let s2 = mb.invoke_local(me, ack, &[m1.into(), inner.into()]);
                        let v = mb.touch_get(s2);
                        mb.reply(v);
                    },
                );
            },
        );
    });

    CallSuite {
        program: pb.finish(),
        fib,
        tak,
        nqueens,
        qsort_run,
        nrev_run,
        ack,
    }
}

/// Reference nrev checksum: sum of 1..=n (reversal preserves elements).
pub fn nrev_native_sum(n: i64) -> i64 {
    n * (n + 1) / 2
}

/// Reference Ackermann.
pub fn ack_native(m: i64, n: i64) -> i64 {
    if m == 0 {
        n + 1
    } else if n == 0 {
        ack_native(m - 1, 1)
    } else {
        ack_native(m - 1, ack_native(m, n - 1))
    }
}

// ================= native Rust references =================

/// Reference fib.
pub fn fib_native(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_native(n - 1) + fib_native(n - 2)
    }
}

/// Reference tak.
pub fn tak_native(x: i64, y: i64, z: i64) -> i64 {
    if y < x {
        tak_native(
            tak_native(x - 1, y, z),
            tak_native(y - 1, z, x),
            tak_native(z - 1, x, y),
        )
    } else {
        z
    }
}

/// Reference nqueens solution count.
pub fn nqueens_native(n: u32) -> u64 {
    fn go(ld: u64, cols: u64, rd: u64, all: u64) -> u64 {
        if cols == all {
            return 1;
        }
        let mut poss = !(ld | cols | rd) & all;
        let mut acc = 0;
        while poss != 0 {
            let bit = poss & poss.wrapping_neg();
            poss ^= bit;
            acc += go((ld | bit) << 1 & all, cols | bit, (rd | bit) >> 1, all);
        }
        acc
    }
    go(0, 0, 0, (1u64 << n) - 1)
}

/// The LCG sequence `qsort_run` fills its array with.
pub fn lcg_sequence(n: usize, seed: i64) -> Vec<i64> {
    let mut v = Vec::with_capacity(n);
    let mut x = seed;
    for _ in 0..n {
        x = (x.wrapping_mul(1103515245).wrapping_add(12345)) & 0x7fff_ffff;
        v.push(x);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_analysis::{InterfaceSet, Schema};
    use hem_core::ExecMode;
    use hem_ir::Value;
    use hem_machine::cost::CostModel;
    use hem_machine::NodeId;

    fn rt(mode: ExecMode) -> (hem_core::Runtime, CallSuite, hem_ir::ObjRef) {
        let suite = build();
        let mut rt = crate::make_runtime(
            suite.program.clone(),
            1,
            CostModel::cm5(),
            mode,
            InterfaceSet::Full,
        );
        let o = rt.alloc_object_by_name("Math", NodeId(0));
        (rt, suite, o)
    }

    #[test]
    fn all_methods_are_nonblocking() {
        let (rt, suite, _) = rt(ExecMode::Hybrid);
        for m in [suite.fib, suite.tak, suite.nqueens, suite.qsort_run] {
            assert_eq!(rt.schemas().of(m), Schema::NonBlocking, "{m:?}");
        }
    }

    #[test]
    fn fib_matches_native() {
        let (mut rt, suite, o) = rt(ExecMode::Hybrid);
        for n in [0, 1, 2, 10, 18] {
            let r = rt.call(o, suite.fib, &[Value::Int(n)]).unwrap();
            assert_eq!(r, Some(Value::Int(fib_native(n as u64) as i64)));
        }
    }

    #[test]
    fn tak_matches_native() {
        let (mut rt, suite, o) = rt(ExecMode::Hybrid);
        let r = rt
            .call(
                o,
                suite.tak,
                &[Value::Int(12), Value::Int(8), Value::Int(4)],
            )
            .unwrap();
        assert_eq!(r, Some(Value::Int(tak_native(12, 8, 4))));
    }

    #[test]
    fn nqueens_matches_native() {
        let (mut rt, suite, o) = rt(ExecMode::Hybrid);
        for n in [4i64, 6, 7] {
            let r = rt.call(o, suite.nqueens, &[Value::Int(n)]).unwrap();
            assert_eq!(
                r,
                Some(Value::Int(nqueens_native(n as u32) as i64)),
                "n={n}"
            );
        }
    }

    #[test]
    fn qsort_sorts_and_checksums() {
        let (mut rt, suite, o) = rt(ExecMode::Hybrid);
        let n = 300usize;
        let r = rt
            .call(o, suite.qsort_run, &[Value::Int(n as i64), Value::Int(42)])
            .unwrap();
        let expect: i64 = lcg_sequence(n, 42).iter().sum();
        assert_eq!(r, Some(Value::Int(expect)), "sorted flag/checksum");
    }

    #[test]
    fn nrev_matches_reference() {
        let (mut rt, suite, o) = rt(ExecMode::Hybrid);
        for n in [0i64, 1, 5, 20] {
            let r = rt.call(o, suite.nrev_run, &[Value::Int(n)]).unwrap();
            assert_eq!(r, Some(Value::Int(nrev_native_sum(n))), "n={n}");
        }
    }

    #[test]
    fn ack_matches_native() {
        let (mut rt, suite, o) = rt(ExecMode::Hybrid);
        for (m, n) in [(0i64, 3i64), (1, 4), (2, 3), (3, 3)] {
            let r = rt
                .call(o, suite.ack, &[Value::Int(m), Value::Int(n)])
                .unwrap();
            assert_eq!(r, Some(Value::Int(ack_native(m, n))), "ack({m},{n})");
        }
    }

    #[test]
    fn parallel_only_agrees_with_hybrid() {
        let (mut h, suite, oh) = rt(ExecMode::Hybrid);
        let (mut p, _, op) = rt(ExecMode::ParallelOnly);
        for (m, args) in [
            (suite.fib, vec![Value::Int(12)]),
            (
                suite.tak,
                vec![Value::Int(10), Value::Int(5), Value::Int(2)],
            ),
            (suite.nqueens, vec![Value::Int(6)]),
            (suite.qsort_run, vec![Value::Int(128), Value::Int(7)]),
            (suite.nrev_run, vec![Value::Int(12)]),
            (suite.ack, vec![Value::Int(2), Value::Int(3)]),
        ] {
            let a = h.call(oh, m, &args).unwrap();
            let b = p.call(op, m, &args).unwrap();
            assert_eq!(a, b, "{m:?}");
        }
    }

    /// The C baseline's exact price: Table 3's golden rounds to 0.01 ms
    /// (~330 CM-5 cycles), so one mischarged `JoinInit` or touch per call
    /// would still pass it. Its cycles go to a side counter — the runtime's
    /// node clocks, counters and trace stay those of an untouched one.
    #[test]
    fn c_baseline_agrees() {
        let suite = build();
        let i = Value::Int;
        // (program, method, arguments, value, [CM-5 cycles, T3D cycles])
        let runs = [
            ("fib", suite.fib, vec![i(18)], 2584, [104_503, 225_726]),
            (
                "tak",
                suite.tak,
                vec![i(12), i(8), i(4)],
                5,
                [19_921, 43_306],
            ),
            ("nqueens", suite.nqueens, vec![i(6)], 4, [4_856, 10_018]),
            (
                "qsort",
                suite.qsort_run,
                vec![i(300), i(42)],
                335_799_348_878,
                [41_555, 83_872],
            ),
            ("nrev", suite.nrev_run, vec![i(20)], 210, [24_225, 41_636]),
            ("ack", suite.ack, vec![i(2), i(3)], 9, [611, 1_308]),
        ];
        for (name, method, args, value, cycles) in runs {
            for (cost, want) in [CostModel::cm5(), CostModel::t3d()].into_iter().zip(cycles) {
                let fresh = || {
                    let p = suite.program.clone();
                    let full = InterfaceSet::Full;
                    let mut rt = crate::make_runtime(p, 1, cost.clone(), ExecMode::Hybrid, full);
                    rt.enable_trace();
                    let o = rt.alloc_object_by_name("Math", NodeId(0));
                    (rt, o)
                };
                let at = format!("{name} on {}", cost.name);
                let (mut rt, o) = fresh();
                let got = rt.call_c_baseline(o, method, &args).unwrap();
                assert_eq!(got, (Some(Value::Int(value)), want), "{at}");
                let (mut untouched, _) = fresh();
                assert_eq!(rt.makespan(), untouched.makespan(), "{at}");
                let stats = |rt: &hem_core::Runtime| format!("{:?}", rt.stats());
                assert_eq!(stats(&rt), stats(&untouched), "{at}");
                let trace = rt.take_trace().len();
                assert_eq!(trace, untouched.take_trace().len(), "{at}");
            }
        }
    }
}
