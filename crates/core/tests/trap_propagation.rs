//! Prompt trap propagation from send-time polls.
//!
//! Sending a message polls the sender's inbox (the active-message
//! discipline), and a handler that runs during that poll can trap. The
//! trap must abort the sender's execution at the send — it must not be
//! parked for the scheduler to notice later while the sender's method
//! keeps executing past the failed operation.
//!
//! A poll only services messages that had *arrived by the start of the
//! current event* (`poll_floor`): an event is an atomic action at its
//! dispatch time, and mid-event clock advance is cost accounting, not
//! observable time. A message delivered after the event began waits for
//! its own scheduler step — that rule is what makes nested handling a
//! pure function of simulated state, independent of host execution
//! order and of the sharded executor's node partition.

use hem_analysis::InterfaceSet;
use hem_core::{ExecMode, Runtime};
use hem_ir::{BinOp, LocalityHint, ProgramBuilder, Value};
use hem_machine::cost::CostModel;
use hem_machine::fault::{FaultPlan, LinkWindow, NodeWindow};
use hem_machine::NodeId;

/// Two messages are already due at node 0 when it dispatches: a `work`
/// invocation (inbox head) and, right behind it, an invocation of a
/// trapping method (array index out of range). The `work` handler marks
/// that it started, then sends — the send's poll handles the trapping
/// message, and the trap must surface from that send: the handler's
/// `marker` write after it must never execute.
#[test]
fn trap_in_send_poll_aborts_sender_promptly() {
    let mut pb = ProgramBuilder::new();

    let quiet = pb.class("Quiet", false);
    let noop = pb.method(quiet, "noop", 0, |mb| mb.reply_nil());

    let boom_c = pb.class("Boom", false);
    let cells = pb.array_field(boom_c, "cells");
    let boom = pb.method(boom_c, "boom", 0, |mb| {
        let v = mb.get_elem(cells, 99i64); // trap: cells has one element
        mb.reply(v);
    });

    let work_c = pb.class("Work", false);
    let wq = pb.field(work_c, "q");
    let started = pb.field(work_c, "started");
    let marker = pb.field(work_c, "marker");
    let work = pb.method(work_c, "work", 0, |mb| {
        mb.set_field(started, 1i64);
        // This send polls the inbox; the boom message behind this one is
        // already due (it arrived before this event began), so the poll
        // handles it and its trap surfaces here.
        let qv = mb.get_field(wq);
        mb.invoke(None, qv, noop, &[], LocalityHint::Unknown);
        // Must be unreachable: the trap aborts the context at the send.
        mb.set_field(marker, 1i64);
        mb.reply_nil();
    });

    let kick_c = pb.class("Kicker", false);
    let kw = pb.field(kick_c, "w");
    let kb = pb.field(kick_c, "b");
    let kick = pb.method(kick_c, "kick", 0, |mb| {
        let wv = mb.get_field(kw);
        let bv = mb.get_field(kb);
        mb.invoke(None, wv, work, &[], LocalityHint::Unknown);
        mb.invoke(None, bv, boom, &[], LocalityHint::Unknown);
        mb.reply_nil();
    });

    let driver = pb.class("Driver", false);
    let dk = pb.field(driver, "k");
    let go = pb.method(driver, "go", 0, |mb| {
        let kv = mb.get_field(dk);
        mb.invoke(None, kv, kick, &[], LocalityHint::Unknown);
        // Long local work: push node 0's clock far past both deliveries,
        // so when this root invocation finishes, the work and boom
        // messages are *both* due at node 0's next dispatch.
        let acc = mb.local();
        mb.mov(acc, 0i64);
        mb.for_range(0i64, 2_000i64, |mb, _| {
            let t = mb.binl(BinOp::Add, acc, 1i64);
            mb.mov(acc, t);
        });
        mb.reply_nil();
    });

    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    let qo = rt.alloc_object_by_name("Quiet", NodeId(1));
    let bo = rt.alloc_object_by_name("Boom", NodeId(0));
    rt.set_array(bo, cells, vec![Value::Int(0)]);
    let wo = rt.alloc_object_by_name("Work", NodeId(0));
    rt.set_field(wo, wq, Value::Obj(qo));
    rt.set_field(wo, started, Value::Int(0));
    rt.set_field(wo, marker, Value::Int(0));
    let ko = rt.alloc_object_by_name("Kicker", NodeId(1));
    rt.set_field(ko, kw, Value::Obj(wo));
    rt.set_field(ko, kb, Value::Obj(bo));
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, dk, Value::Obj(ko));

    let err = rt.call(d, go, &[]).expect_err("boom must trap the run");
    let msg = format!("{err}");
    assert!(
        msg.contains("array index 99"),
        "trap is the handler's, not a secondary failure: {msg}"
    );
    assert_eq!(
        rt.get_field(wo, started),
        Value::Int(1),
        "the work handler was dispatched before the boom message"
    );
    assert_eq!(
        rt.get_field(wo, marker),
        Value::Int(0),
        "work handler kept executing past the trapping send"
    );
}

/// A message that arrives *after* the current event began is not nested
/// into a later send's poll, even if the node's clock has run past its
/// delivery time: it waits for its own scheduler step. The driver's
/// method runs to completion past the send, and the trap surfaces from
/// the message's own dispatch. (Before `poll_floor`, the send would have
/// handled it nested — behavior that depended on host execution order
/// and broke the sharded executor's bit-identity.)
#[test]
fn late_arrival_waits_for_its_own_step() {
    let mut pb = ProgramBuilder::new();

    let quiet = pb.class("Quiet", false);
    let echo = pb.method(quiet, "echo", 1, |mb| mb.reply(mb.arg(0)));
    let noop = pb.method(quiet, "noop", 0, |mb| mb.reply_nil());

    let boom_c = pb.class("Boom", false);
    let cells = pb.array_field(boom_c, "cells");
    let boom = pb.method(boom_c, "boom", 0, |mb| {
        let v = mb.get_elem(cells, 99i64); // trap: cells has one element
        mb.reply(v);
    });

    let driver = pb.class("Driver", false);
    let q = pb.field(driver, "q");
    let tgt = pb.field(driver, "tgt");
    let marker = pb.field(driver, "marker");
    let go = pb.method(driver, "go", 0, |mb| {
        let qv = mb.get_field(q);
        let tv = mb.get_field(tgt);
        let s = mb.slot();
        mb.invoke(Some(s), qv, echo, &[7i64.into()], LocalityHint::Unknown);
        mb.invoke(None, tv, boom, &[], LocalityHint::Unknown);
        mb.touch(&[s]);
        let v = mb.get_slot(s);
        // Local work: advance this node's clock past the forwarded boom
        // message's delivery time without yielding to the scheduler.
        let acc = mb.local();
        mb.mov(acc, v);
        mb.for_range(0i64, 400i64, |mb, _| {
            let t = mb.binl(BinOp::Add, acc, 1i64);
            mb.mov(acc, t);
        });
        // The boom message arrived mid-event (after this resume step
        // began), so this send's poll must NOT handle it.
        mb.invoke(None, qv, noop, &[], LocalityHint::Unknown);
        mb.set_field(marker, 1i64);
        mb.reply_nil();
    });

    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    let qo = rt.alloc_object_by_name("Quiet", NodeId(1));
    let bo = rt.alloc_object_by_name("Boom", NodeId(1));
    rt.set_array(bo, cells, vec![Value::Int(0)]);
    // Move the boom target home to node 0; the driver keeps the stale
    // node-1 reference, so its request is forwarded back to node 0 and
    // arrives (delivery time past the driver's resume) while the driver is
    // deep in its local loop.
    rt.migrate_object(bo, NodeId(0));
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, q, Value::Obj(qo));
    rt.set_field(d, tgt, Value::Obj(bo));
    rt.set_field(d, marker, Value::Int(0));

    let err = rt.call(d, go, &[]).expect_err("boom must trap the run");
    let msg = format!("{err}");
    assert!(
        msg.contains("array index 99"),
        "trap is the handler's, not a secondary failure: {msg}"
    );
    assert_eq!(
        rt.get_field(d, marker),
        Value::Int(1),
        "the late arrival must wait for its own step, not abort the driver"
    );
}

/// Same shape, but the trapping handler runs from the scheduler's own
/// dispatch (no send in flight): the trap still surfaces from `call`.
#[test]
fn trap_in_scheduled_handler_propagates() {
    let mut pb = ProgramBuilder::new();
    let boom_c = pb.class("Boom", false);
    let cells = pb.array_field(boom_c, "cells");
    let boom = pb.method(boom_c, "boom", 0, |mb| {
        let v = mb.get_elem(cells, 99i64);
        mb.reply(v);
    });
    let driver = pb.class("Driver", false);
    let tgt = pb.field(driver, "tgt");
    let go = pb.method(driver, "go", 0, |mb| {
        let tv = mb.get_field(tgt);
        mb.invoke(None, tv, boom, &[], LocalityHint::Unknown);
        mb.reply_nil();
    });
    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    let bo = rt.alloc_object_by_name("Boom", NodeId(1));
    rt.set_array(bo, cells, vec![Value::Int(0)]);
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, tgt, Value::Obj(bo));
    let err = rt.call(d, go, &[]).expect_err("boom must trap the run");
    assert!(format!("{err}").contains("array index 99"));
}

/// A reply lost to a link partition must be recovered by the transport's
/// retransmission — it must not surface as a trap, a hang, or a parked
/// continuation. The driver invokes a remote echo and touches the result
/// while the 1→0 link is partitioned; the call still completes with the
/// echoed value once retransmits punch through the closed window.
#[test]
fn dropped_reply_is_retransmitted_not_trapped() {
    let mut pb = ProgramBuilder::new();
    let quiet = pb.class("Quiet", false);
    let echo = pb.method(quiet, "echo", 1, |mb| mb.reply(mb.arg(0)));
    let driver = pb.class("Driver", false);
    let q = pb.field(driver, "q");
    let out = pb.field(driver, "out");
    let go = pb.method(driver, "go", 0, |mb| {
        let qv = mb.get_field(q);
        let s = mb.slot();
        mb.invoke(Some(s), qv, echo, &[41i64.into()], LocalityHint::Unknown);
        mb.touch(&[s]);
        let v = mb.get_slot(s);
        let w = mb.binl(BinOp::Add, v, 1i64);
        mb.set_field(out, w);
        mb.reply_nil();
    });
    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    // Close the reply direction (1→0) for a window wide enough to swallow
    // the first reply and at least its first retransmission; request
    // traffic (0→1) is unaffected.
    let mut plan = FaultPlan::seeded(7);
    plan.partitions = vec![LinkWindow {
        src: Some(NodeId(1)),
        dest: Some(NodeId(0)),
        from: 0,
        until: 2_000,
    }];
    rt.set_fault_plan(plan);
    let qo = rt.alloc_object_by_name("Quiet", NodeId(1));
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, q, Value::Obj(qo));
    rt.set_field(d, out, Value::Int(0));

    rt.call(d, go, &[])
        .expect("partition loss must be recovered, not trapped");
    assert_eq!(
        rt.get_field(d, out),
        Value::Int(42),
        "echoed value survived the loss"
    );
    let stats = rt.stats();
    assert!(
        stats.net.faults.partition_drops > 0,
        "the window actually dropped frames"
    );
    assert!(
        stats.totals().retransmits > 0,
        "recovery came from retransmission"
    );
}

/// A node stalled well past the retransmission timeout still delivers its
/// deferred messages — and the stalled frame, being in flight the whole
/// time, is never redundantly retransmitted. The deferred invocation's
/// trap must surface exactly as it would on a healthy wire.
#[test]
fn stalled_node_delivers_deferred_trap() {
    let mut pb = ProgramBuilder::new();
    let boom_c = pb.class("Boom", false);
    let cells = pb.array_field(boom_c, "cells");
    let boom = pb.method(boom_c, "boom", 0, |mb| {
        let v = mb.get_elem(cells, 99i64);
        mb.reply(v);
    });
    let driver = pb.class("Driver", false);
    let tgt = pb.field(driver, "tgt");
    let go = pb.method(driver, "go", 0, |mb| {
        let tv = mb.get_field(tgt);
        mb.invoke(None, tv, boom, &[], LocalityHint::Unknown);
        mb.reply_nil();
    });
    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    // Stall node 1 far past the cm5 retransmission timeout (~1160 cycles):
    // the boom request sits deferred for 8000 cycles while the sender's
    // timer fires repeatedly.
    let mut plan = FaultPlan::seeded(11);
    plan.stalls = vec![NodeWindow {
        node: NodeId(1),
        from: 0,
        until: 8_000,
    }];
    rt.set_fault_plan(plan);
    let bo = rt.alloc_object_by_name("Boom", NodeId(1));
    rt.set_array(bo, cells, vec![Value::Int(0)]);
    let d = rt.alloc_object_by_name("Driver", NodeId(0));
    rt.set_field(d, tgt, Value::Obj(bo));

    let err = rt
        .call(d, go, &[])
        .expect_err("deferred boom must still trap");
    assert!(
        format!("{err}").contains("array index 99"),
        "the deferred handler's own trap surfaced: {err}"
    );
    let stats = rt.stats();
    assert!(
        stats.net.faults.stall_defers > 0,
        "the stall actually deferred frames"
    );
    assert_eq!(
        stats.totals().retransmits,
        0,
        "an in-flight (stalled) frame is never redundantly retransmitted"
    );
}

/// A bad operand traps — it never unwinds the host — and it traps at the
/// same method and pc whichever evaluator meets it: the hybrid runtime,
/// the parallel-only runtime, or the C baseline.
#[test]
fn bad_operands_trap_alike_in_all_three_evaluators() {
    let mut pb = ProgramBuilder::new();
    let bad = pb.class("Bad", false);
    let cells = pb.array_field(bad, "cells");
    let arr = pb.method(bad, "arr", 1, |mb| {
        mb.arr_new(cells, mb.arg(0));
        mb.reply_nil();
    });
    let join = pb.method(bad, "join", 1, |mb| {
        let s = mb.slot();
        mb.join_init(s, mb.arg(0));
        mb.reply_nil();
    });
    let elem = pb.method(bad, "elem", 1, |mb| {
        let v = mb.get_elem(cells, mb.arg(0));
        mb.reply(v);
    });
    let program = pb.finish();

    let rows = [
        ("ArrNew -1", arr, -1i64),
        // The node arena's spans are `u32`: one value is already there, so
        // `u32::MAX` more is the first length that cannot fit.
        ("ArrNew u32::MAX", arr, u32::MAX as i64),
        ("ArrNew 1<<32", arr, 1 << 32),
        ("ArrNew 1<<40", arr, 1 << 40),
        ("JoinInit -1", join, -1),
        ("JoinInit 1<<32", join, 1 << 32),
        ("GetElem out of range", elem, 99),
    ];
    for (what, method, operand) in rows {
        let run = |mode, c_baseline: bool| {
            let mut rt = Runtime::new(
                program.clone(),
                1,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            let o = rt.alloc_object_by_name("Bad", NodeId(0));
            rt.set_array(o, cells, vec![Value::Int(0)]);
            let args = [Value::Int(operand)];
            let r = if c_baseline {
                rt.call_c_baseline(o, method, &args).map(|(v, _)| v)
            } else {
                rt.call(o, method, &args)
            };
            r.expect_err(what)
        };
        let hybrid = run(ExecMode::Hybrid, false);
        let parallel = run(ExecMode::ParallelOnly, false);
        let c = run(ExecMode::Hybrid, true);
        assert_eq!(hybrid.method, Some(method), "{what}: located: {hybrid}");
        for (name, other) in [("parallel-only", parallel), ("C baseline", c)] {
            assert_eq!(
                (other.method, other.pc),
                (hybrid.method, hybrid.pc),
                "{what}: {name} traps elsewhere: {other} vs {hybrid}"
            );
        }
    }
}
