//! Protocol edge cases: deep forwarding chains, trap paths, depth limits,
//! trace contents, lock grant re-queuing, and interface restrictions over
//! remote wrappers.

use hem_analysis::InterfaceSet;
use hem_core::{ExecMode, Runtime, TraceEvent};
use hem_ir::{BinOp, FieldId, LocalityHint, MethodId, Program, ProgramBuilder, Value};
use hem_machine::cost::CostModel;
use hem_machine::NodeId;

fn rt_for(p: Program, nodes: u32, mode: ExecMode, ifaces: InterfaceSet) -> Runtime {
    Runtime::new(p, nodes, CostModel::cm5(), mode, ifaces).expect("valid program")
}

/// A forwarding chain of length `k` across a ring of objects: each hop
/// forwards to the next object's `hop` method, the last replies.
fn chain_program() -> (Program, MethodId, MethodId, FieldId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("Ring", false);
    let next = pb.field(c, "next");
    let hop = pb.declare(c, "hop", 1);
    pb.define(hop, |mb| {
        let k = mb.arg(0);
        let done = mb.binl(BinOp::Le, k, 0);
        mb.if_else(
            done,
            |mb| mb.reply(999i64),
            |mb| {
                let n = mb.get_field(next);
                let k1 = mb.binl(BinOp::Sub, k, 1);
                mb.forward(n, hop, &[k1.into()], LocalityHint::Unknown);
            },
        );
    });
    let root = pb.method(c, "root", 1, |mb| {
        let n = mb.get_field(next);
        let s = mb.invoke_into(n, hop, &[mb.arg(0).into()]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    (pb.finish(), root, hop, next)
}

#[test]
fn long_forward_chain_across_ring_of_nodes() {
    // 12 hops around a 4-node ring: the continuation is forwarded through
    // many remote messages and the final responder replies straight to
    // the root caller's context.
    let (p, root, _hop, next) = chain_program();
    for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
        let mut rt = rt_for(p.clone(), 4, mode, InterfaceSet::Full);
        let objs: Vec<_> = (0..4)
            .map(|n| rt.alloc_object_by_name("Ring", NodeId(n)))
            .collect();
        for (i, o) in objs.iter().enumerate() {
            rt.set_field(*o, next, Value::Obj(objs[(i + 1) % 4]));
        }
        let r = rt.call(objs[0], root, &[Value::Int(12)]).unwrap();
        assert_eq!(r, Some(Value::Int(999)), "{mode}");
        assert_eq!(rt.live_contexts(), 0, "{mode}");
        if mode == ExecMode::Hybrid {
            let t = rt.stats().totals();
            // Every remote hop is one forwarded message; only one reply
            // crosses the wire at the end.
            assert_eq!(t.replies_sent, 1, "single terminal reply");
            assert!(t.msgs_sent >= 12, "one request per hop: {}", t.msgs_sent);
        }
    }
}

#[test]
fn long_local_forward_chain_stays_on_stack() {
    let (p, root, _hop, next) = chain_program();
    let mut rt = rt_for(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("Ring", NodeId(0));
    rt.set_field(a, next, Value::Obj(a)); // self-ring
    let r = rt.call(a, root, &[Value::Int(40)]).unwrap();
    assert_eq!(r, Some(Value::Int(999)));
    let t = rt.stats().totals();
    assert_eq!(t.ctx_alloc, 0, "whole 40-hop chain on the stack");
    assert_eq!(t.conts_created, 0);
    assert_eq!(t.stack_forwards, 40);
}

#[test]
fn nb_depth_overflow_traps_cleanly() {
    // A non-blocking chain deeper than the host-stack budget cannot be
    // diverted (a C stack would overflow too) — it must trap, not crash.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let down = pb.declare(c, "down", 1);
    pb.define(down, |mb| {
        let n = mb.arg(0);
        let z = mb.binl(BinOp::Le, n, 0);
        mb.if_else(
            z,
            |mb| mb.reply(0i64),
            |mb| {
                let me = mb.self_ref();
                let n1 = mb.binl(BinOp::Sub, n, 1);
                let s = mb.invoke_local(me, down, &[n1.into()]);
                let v = mb.touch_get(s);
                mb.reply(v);
            },
        );
    });
    let p = pb.finish();
    let mut rt = rt_for(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    rt.max_seq_depth = 64;
    let o = rt.alloc_object_by_name("C", NodeId(0));
    let e = rt.call(o, down, &[Value::Int(1000)]).unwrap_err();
    assert!(e.what.contains("depth limit"), "{e}");
    // The C baseline recurses on the host stack too, under the same limit.
    let c = rt
        .call_c_baseline(o, down, &[Value::Int(1000)])
        .unwrap_err();
    assert_eq!(c, e, "C baseline");
}

#[test]
fn trace_records_the_adaptation_story() {
    let (p, root, _hop, next) = chain_program();
    let mut rt = rt_for(p, 2, ExecMode::Hybrid, InterfaceSet::Full);
    let a = rt.alloc_object_by_name("Ring", NodeId(0));
    let b = rt.alloc_object_by_name("Ring", NodeId(1));
    rt.set_field(a, next, Value::Obj(b));
    rt.set_field(b, next, Value::Obj(a));
    rt.enable_trace();
    rt.call(a, root, &[Value::Int(4)]).unwrap();
    let trace = rt.take_trace();
    assert!(!trace.is_empty());
    let has = |f: &dyn Fn(&TraceEvent) -> bool| trace.iter().any(|r| f(&r.event));
    assert!(
        has(&|e| matches!(e, TraceEvent::Fallback { .. })),
        "root fell back"
    );
    assert!(has(&|e| matches!(
        e,
        TraceEvent::MsgSent {
            cause: hem_core::MsgCause::Request,
            ..
        }
    )));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::MsgSent {
            cause: hem_core::MsgCause::Reply,
            ..
        }
    )));
    assert!(
        has(&|e| matches!(
            e,
            TraceEvent::MsgHandled {
                cause: hem_core::MsgCause::Request,
                ..
            }
        )),
        "every consumed message leaves a MsgHandled record"
    );
    assert!(
        has(&|e| matches!(e, TraceEvent::ContMaterialized { .. })),
        "off-node forward materialized the continuation"
    );
    assert!(has(&|e| matches!(e, TraceEvent::Resume { .. })));
    // Times are monotone per node.
    for n in 0..2u32 {
        let times: Vec<u64> = trace
            .iter()
            .filter(|r| match r.event {
                TraceEvent::Fallback { node, .. }
                | TraceEvent::StackComplete { node, .. }
                | TraceEvent::Resume { node, .. }
                | TraceEvent::Suspend { node, .. } => node == NodeId(n),
                _ => false,
            })
            .map(|r| r.at)
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "node {n} times {times:?}"
        );
    }
}

#[test]
fn cp_only_interface_works_over_remote_wrappers() {
    // Under the CP-only restriction every wrapper invocation uses proxy
    // caller-info; results and conservation must be unaffected.
    let (p, root, _hop, next) = chain_program();
    let mut rt = rt_for(p, 3, ExecMode::Hybrid, InterfaceSet::CpOnly);
    let objs: Vec<_> = (0..3)
        .map(|n| rt.alloc_object_by_name("Ring", NodeId(n)))
        .collect();
    for (i, o) in objs.iter().enumerate() {
        rt.set_field(*o, next, Value::Obj(objs[(i + 1) % 3]));
    }
    let r = rt.call(objs[0], root, &[Value::Int(7)]).unwrap();
    assert_eq!(r, Some(Value::Int(999)));
    let t = rt.stats().totals();
    assert!(t.proxy_conts > 0, "CP wrappers used proxy contexts");
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
fn lock_grant_requeues_when_stolen() {
    // A locked cell with a long-held lock: grants that find the lock
    // re-taken go back on the queue; all bumps still apply exactly once.
    let mut pb = ProgramBuilder::new();
    let gate_c = pb.class("Gate", false);
    let zero = pb.method(gate_c, "zero", 0, |mb| mb.reply(0i64));
    let cell = pb.class("Cell", true);
    let n = pb.field(cell, "n");
    let peer = pb.field(cell, "peer");
    let slow_bump = pb.method(cell, "slow_bump", 0, |mb| {
        let g = mb.get_field(peer);
        let s = mb.invoke_into(g, zero, &[]);
        let v = mb.touch_get(s);
        let cur = mb.get_field(n);
        let one = mb.binl(BinOp::Add, cur, 1);
        let nv = mb.binl(BinOp::Add, one, v);
        mb.set_field(n, nv);
        mb.reply_nil();
    });
    let fast_bump = pb.method(cell, "fast_bump", 0, |mb| {
        let cur = mb.get_field(n);
        let nv = mb.binl(BinOp::Add, cur, 1);
        mb.set_field(n, nv);
        mb.reply_nil();
    });
    let m = pb.class("M", false);
    let cf = pb.field(m, "cell");
    let go = pb.method(m, "go", 0, |mb| {
        let c = mb.get_field(cf);
        let join = mb.slot();
        mb.join_init(join, 6i64);
        for i in 0..6 {
            let target = if i % 2 == 0 { slow_bump } else { fast_bump };
            mb.invoke(Some(join), c, target, &[], LocalityHint::Unknown);
        }
        mb.touch(&[join]);
        mb.reply_nil();
    });
    let p = pb.finish();
    for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
        let mut rt = rt_for(p.clone(), 3, mode, InterfaceSet::Full);
        let g = rt.alloc_object_by_name("Gate", NodeId(2));
        let c = rt.alloc_object_by_name("Cell", NodeId(1));
        rt.set_field(c, n, Value::Int(0));
        rt.set_field(c, peer, Value::Obj(g));
        let d = rt.alloc_object_by_name("M", NodeId(0));
        rt.set_field(d, cf, Value::Obj(c));
        rt.call(d, go, &[]).unwrap();
        assert_eq!(
            rt.get_field(c, n),
            Value::Int(6),
            "{mode}: exactly-once bumps"
        );
        assert_eq!(rt.live_contexts(), 0, "{mode}");
    }
}

#[test]
fn mixed_join_of_local_and_remote_members() {
    // A join whose members are a mix of synchronous stack completions and
    // remote replies must fire exactly when the last member lands.
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let one = pb.method(c, "one", 0, |mb| mb.reply(1i64));
    let others = pb.array_field(c, "others");
    let go = pb.method(c, "go", 0, |mb| {
        let join = mb.slot();
        let n = mb.arr_len(others);
        let me = mb.self_ref();
        let total = mb.binl(BinOp::Add, n, 3);
        mb.join_init(join, total);
        // 3 local members...
        for _ in 0..3 {
            mb.invoke(Some(join), me, one, &[], LocalityHint::AlwaysLocal);
        }
        // ...plus one per remote peer.
        mb.for_range(0i64, n, |mb, k| {
            let o = mb.get_elem(others, k);
            mb.invoke(Some(join), o, one, &[], LocalityHint::Unknown);
        });
        mb.touch(&[join]);
        mb.reply(7i64);
    });
    let p = pb.finish();
    let mut rt = rt_for(p, 4, ExecMode::Hybrid, InterfaceSet::Full);
    let root = rt.alloc_object_by_name("C", NodeId(0));
    let peers: Vec<Value> = (1..4)
        .map(|n| Value::Obj(rt.alloc_object_by_name("C", NodeId(n))))
        .collect();
    rt.set_array(root, others, peers);
    let r = rt.call(root, go, &[]).unwrap();
    assert_eq!(r, Some(Value::Int(7)));
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
fn store_root_continuation_traps() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let f = pb.field(c, "w");
    let park = pb.method(c, "park", 0, |mb| {
        mb.store_cont(f);
        mb.halt();
    });
    let p = pb.finish();
    let mut rt = rt_for(p, 1, ExecMode::Hybrid, InterfaceSet::Full);
    let o = rt.alloc_object_by_name("C", NodeId(0));
    // Calling a continuation-storing method directly from the harness
    // gives it the root continuation, which cannot live in a field.
    let e = rt.call(o, park, &[]).unwrap_err();
    assert!(e.what.contains("root/discard continuation"), "{e}");
}
