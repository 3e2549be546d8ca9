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
use hem_ir::{BinOp, LocalityHint, ProgramBuilder, UnOp, Value};
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

/// What the C baseline does with a row's instruction.
enum InC {
    /// Executes it and traps exactly like the interpreters.
    Same,
    /// Has no equivalent of it (continuation manipulation traps as such).
    Skip,
}

/// A bad operand traps — it never unwinds the host — and it traps with
/// the same method, pc and message whichever evaluator meets it: the
/// hybrid runtime (stack interpreter), the parallel-only runtime (heap
/// interpreter), and the C baseline wherever it executes the instruction.
/// The IR does not type receivers, so a method can also run on an object
/// of another class, whose field of the same number is of the other kind
/// or missing.
#[test]
fn bad_operands_trap_alike_in_all_three_evaluators() {
    let mut pb = ProgramBuilder::new();
    let scalars = pb.class("Scalars", false);
    let x = pb.field(scalars, "x");
    let get_x = pb.method(scalars, "get", 1, |mb| {
        let v = mb.get_field(x);
        mb.reply(v);
    });
    let set_x = pb.method(scalars, "set", 1, |mb| {
        mb.set_field(x, mb.arg(0));
        mb.reply_nil();
    });
    let pair = pb.class("Pair", false);
    pb.field(pair, "a");
    let b = pb.field(pair, "b");
    let get_b = pb.method(pair, "get_b", 1, |mb| {
        let v = mb.get_field(b);
        mb.reply(v);
    });
    let bad = pb.class("Bad", false);
    let cells = pb.array_field(bad, "cells");
    let cast = pb.method(bad, "cast", 1, |mb| {
        let s = mb.multicast_into(cells, get_x, &[mb.arg(0).into()]);
        mb.touch(&[s]);
        mb.reply_nil();
    });
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
    let set_elem = pb.method(bad, "set_elem", 1, |mb| {
        mb.set_elem(cells, mb.arg(0), 7i64);
        mb.reply_nil();
    });
    let add = pb.method(bad, "add", 1, |mb| {
        let v = mb.binl(BinOp::Add, mb.arg(0), 1i64);
        mb.reply(v);
    });
    let div = pb.method(bad, "div", 1, |mb| {
        let v = mb.binl(BinOp::Div, 1i64, mb.arg(0));
        mb.reply(v);
    });
    let neg = pb.method(bad, "neg", 1, |mb| {
        let v = mb.unl(UnOp::Neg, mb.arg(0));
        mb.reply(v);
    });
    let node_of = pb.method(bad, "node_of", 1, |mb| {
        let v = mb.node_of(mb.arg(0));
        mb.reply(v);
    });
    let br = pb.method(bad, "br", 1, |mb| {
        mb.if_(mb.arg(0), |mb| mb.halt());
        mb.reply_nil();
    });
    let get_slot = pb.method(bad, "get_slot", 1, |mb| {
        let s = mb.slot();
        let v = mb.get_slot(s);
        mb.reply(v);
    });
    let send = pb.method(bad, "send", 1, |mb| {
        mb.send_to_cont(mb.arg(0), 1i64);
        mb.reply_nil();
    });
    let program = pb.finish();

    let (int, yes) = (Value::Int, Value::Bool(true));
    let rows = [
        (
            "ArrNew -1",
            "Bad",
            arr,
            int(-1),
            "negative array length -1",
            InC::Same,
        ),
        // The node arena's spans are `u32`: one value is already there, so
        // `u32::MAX` more is the first length that cannot fit.
        (
            "ArrNew u32::MAX",
            "Bad",
            arr,
            int(u32::MAX as i64),
            "oversized array length 4294967295 (node arena holds 1 of 2^32 values)",
            InC::Same,
        ),
        (
            "ArrNew 1<<32",
            "Bad",
            arr,
            int(1 << 32),
            "oversized array length 4294967296 (node arena holds 1 of 2^32 values)",
            InC::Same,
        ),
        (
            "ArrNew 1<<40",
            "Bad",
            arr,
            int(1 << 40),
            "oversized array length 1099511627776 (node arena holds 1 of 2^32 values)",
            InC::Same,
        ),
        (
            "JoinInit -1",
            "Bad",
            join,
            int(-1),
            "negative join count -1",
            InC::Same,
        ),
        (
            "JoinInit 1<<32",
            "Bad",
            join,
            int(1 << 32),
            "oversized join count 4294967296",
            InC::Same,
        ),
        (
            "GetElem out of range",
            "Bad",
            elem,
            int(99),
            "array index 99 out of range (1)",
            InC::Same,
        ),
        (
            "GetElem non-int index",
            "Bad",
            elem,
            yes,
            "type error in as_int: got bool",
            InC::Same,
        ),
        (
            "SetElem out of range",
            "Bad",
            set_elem,
            int(99),
            "array index 99 out of range (1)",
            InC::Same,
        ),
        (
            "SetElem non-int index",
            "Bad",
            set_elem,
            yes,
            "type error in as_int: got bool",
            InC::Same,
        ),
        (
            "Bin type error",
            "Bad",
            add,
            yes,
            "type error in as_float: got bool",
            InC::Same,
        ),
        (
            "Bin division by zero",
            "Bad",
            div,
            int(0),
            "division by zero",
            InC::Same,
        ),
        (
            "Un type error",
            "Bad",
            neg,
            yes,
            "type error in neg: got bool",
            InC::Same,
        ),
        (
            "NodeOf non-object",
            "Bad",
            node_of,
            int(3),
            "type error in as_obj: got int",
            InC::Same,
        ),
        (
            "Br non-bool",
            "Bad",
            br,
            int(1),
            "type error in as_bool: got int",
            InC::Same,
        ),
        (
            "GetSlot unresolved",
            "Bad",
            get_slot,
            int(0),
            "get of unresolved slot 0 (Empty)",
            InC::Same,
        ),
        (
            "SendToCont non-continuation",
            "Bad",
            send,
            int(5),
            "type error in as_cont: got int",
            InC::Skip,
        ),
        (
            "GetField on a receiver whose field is an array",
            "Bad",
            get_x,
            int(0),
            "field Scalars::x on a receiver of class Bad: Bad::cells is an array",
            InC::Same,
        ),
        (
            "SetField on a receiver whose field is an array",
            "Bad",
            set_x,
            int(0),
            "field Scalars::x on a receiver of class Bad: Bad::cells is an array",
            InC::Same,
        ),
        (
            "GetField past the receiver's fields",
            "Scalars",
            get_b,
            int(0),
            "field Pair::b on a receiver of class Scalars: Scalars has no field #1",
            InC::Same,
        ),
        (
            "GetElem on a receiver whose field is a scalar",
            "Scalars",
            elem,
            int(0),
            "field Bad::cells on a receiver of class Scalars: Scalars::x is a scalar",
            InC::Same,
        ),
        (
            "SetElem on a receiver whose field is a scalar",
            "Scalars",
            set_elem,
            int(0),
            "field Bad::cells on a receiver of class Scalars: Scalars::x is a scalar",
            InC::Same,
        ),
        (
            "ArrNew on a receiver whose field is a scalar",
            "Scalars",
            arr,
            int(1),
            "field Bad::cells on a receiver of class Scalars: Scalars::x is a scalar",
            InC::Same,
        ),
        (
            "Multicast over a group member that is not an object",
            "Bad",
            cast,
            int(0),
            "type error in as_obj: got int",
            InC::Same,
        ),
        (
            "Multicast over a receiver whose field is a scalar",
            "Scalars",
            cast,
            int(0),
            "field Bad::cells on a receiver of class Scalars: Scalars::x is a scalar",
            InC::Same,
        ),
    ];
    for (label, recv, method, operand, want, in_c) in rows {
        let run = |mode, c_baseline: bool| {
            let mut rt = Runtime::new(
                program.clone(),
                1,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            let o = rt.alloc_object_by_name(recv, NodeId(0));
            if recv == "Bad" {
                rt.set_array(o, cells, vec![Value::Int(0)]);
            }
            let args = [operand];
            let r = if c_baseline {
                rt.call_c_baseline(o, method, &args).map(|(v, _)| v)
            } else {
                rt.call(o, method, &args)
            };
            r.expect_err(label)
        };
        let hybrid = run(ExecMode::Hybrid, false);
        assert_eq!(hybrid.method, Some(method), "{label}: located: {hybrid}");
        assert!(hybrid.pc.is_some(), "{label}: located: {hybrid}");
        assert_eq!(hybrid.what, want, "{label}: hybrid");
        let parallel = run(ExecMode::ParallelOnly, false);
        assert_eq!(parallel, hybrid, "{label}: parallel-only differs");
        if let InC::Skip = in_c {
            continue;
        }
        let c = run(ExecMode::Hybrid, true);
        assert_eq!(c, hybrid, "{label}: C baseline differs");
    }
}

/// A root call with the wrong number of arguments traps with one line
/// naming the method — it never indexes past the callee's registers — and
/// all three evaluators say the same.
#[test]
fn wrong_argument_count_traps_in_all_three_evaluators() {
    let mut pb = ProgramBuilder::new();
    let math = pb.class("Math", false);
    let fib = pb.method(math, "fib", 1, |mb| mb.reply(mb.arg(0)));
    let none = pb.method(math, "none", 0, |mb| mb.reply_nil());
    let program = pb.finish();
    let ten: Vec<Value> = (0..10).map(Value::Int).collect();
    let rows = [
        (fib, &ten[..], "Math::fib takes 1 argument, got 10"),
        (fib, &[][..], "Math::fib takes 1 argument, got 0"),
        (none, &ten[..1], "Math::none takes 0 arguments, got 1"),
    ];
    for (method, args, want) in rows {
        let run = |mode, c_baseline: bool| {
            let mut rt = Runtime::new(
                program.clone(),
                1,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .unwrap();
            let o = rt.alloc_object_by_name("Math", NodeId(0));
            let r = if c_baseline {
                rt.call_c_baseline(o, method, args).map(|(v, _)| v)
            } else {
                rt.call(o, method, args)
            };
            let err = r.expect_err(want);
            // The runtime is left usable: a well-formed call still runs.
            if !c_baseline {
                let ok: Vec<Value> = (0..rt.program().method(method).params as i64)
                    .map(Value::Int)
                    .collect();
                rt.call(o, method, &ok)
                    .expect("a correct call after the trap");
            }
            err
        };
        for (name, err) in [
            ("hybrid", run(ExecMode::Hybrid, false)),
            ("parallel-only", run(ExecMode::ParallelOnly, false)),
            ("C baseline", run(ExecMode::Hybrid, true)),
        ] {
            assert_eq!(err.to_string(), format!("trap: {want}"), "{name}");
        }
    }
}
