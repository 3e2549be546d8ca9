//! Object migration with forwarding addresses (the paper's future-work
//! direction): stale references keep working through name translation,
//! and moving an object toward its callers converts remote invocations
//! into stack execution.

use hem_analysis::InterfaceSet;
use hem_core::{ExecMode, Runtime};
use hem_ir::{BinOp, FieldId, MethodId, Program, ProgramBuilder, Value};
use hem_machine::cost::CostModel;
use hem_machine::NodeId;

/// Driver with a `peer` field; `poke(k)` calls the peer's `bump` k times.
fn program() -> (Program, MethodId, MethodId, FieldId, FieldId) {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let n = pb.field(c, "n");
    let peer = pb.field(c, "peer");
    let bump = pb.method(c, "bump", 0, |mb| {
        let cur = mb.get_field(n);
        let nv = mb.binl(BinOp::Add, cur, 1);
        mb.set_field(n, nv);
        mb.reply(nv);
    });
    let poke = pb.method(c, "poke", 1, |mb| {
        let p = mb.get_field(peer);
        let s = mb.slot();
        let last = mb.local();
        mb.mov(last, 0i64);
        mb.for_range(0i64, mb.arg(0), |mb, _| {
            mb.invoke(Some(s), p, bump, &[], hem_ir::LocalityHint::Unknown);
            mb.touch(&[s]);
            let v = mb.get_slot(s);
            mb.mov(last, v);
        });
        mb.reply(last);
    });
    (pb.finish(), bump, poke, n, peer)
}

fn world() -> (
    Runtime,
    hem_ir::ObjRef,
    hem_ir::ObjRef,
    MethodId,
    FieldId,
    FieldId,
) {
    let (p, _bump, poke, n, peer) = program();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).expect("valid");
    let driver = rt.alloc_object_by_name("C", NodeId(0));
    let cell = rt.alloc_object_by_name("C", NodeId(1));
    rt.set_field(cell, n, Value::Int(0));
    rt.set_field(driver, peer, Value::Obj(cell));
    (rt, driver, cell, poke, n, peer)
}

#[test]
fn stale_references_forward_and_results_are_unchanged() {
    let (mut rt, driver, cell, poke, n, _peer) = world();
    // Warm up remotely.
    let r = rt.call(driver, poke, &[Value::Int(3)]).unwrap();
    assert_eq!(r, Some(Value::Int(3)));

    // Move the cell to the driver's node; the driver's `peer` field still
    // holds the stale reference.
    let new_ref = rt.migrate_object(cell, NodeId(0));
    assert_eq!(new_ref.node, NodeId(0));

    let r = rt.call(driver, poke, &[Value::Int(3)]).unwrap();
    assert_eq!(r, Some(Value::Int(6)), "state moved with the object");
    // Old and new reference read the same object.
    assert_eq!(rt.get_field(cell, n), Value::Int(6));
    assert_eq!(rt.get_field(new_ref, n), Value::Int(6));
    assert_eq!(rt.resolve_ref(cell), new_ref);
    assert_eq!(rt.live_contexts(), 0);
}

/// A `Forward` executed on the stack translates its target's name like
/// every other call: through a stale *local* reference it follows the
/// forwarding address instead of entering the callee on the stub.
#[test]
fn stack_forward_through_a_stale_local_reference() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let n = pb.field(c, "n");
    let peer = pb.field(c, "peer");
    let bump = pb.method(c, "bump", 0, |mb| {
        let cur = mb.get_field(n);
        let nv = mb.binl(BinOp::Add, cur, 1);
        mb.set_field(n, nv);
        mb.reply(nv);
    });
    let relay = pb.method(c, "relay", 0, |mb| {
        let p = mb.get_field(peer);
        mb.forward(p, bump, &[], hem_ir::LocalityHint::Unknown);
    });
    let program = pb.finish();
    for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
        for migrated in [false, true] {
            let what = format!("{mode:?}, migrated: {migrated}");
            let mut rt = Runtime::new(
                program.clone(),
                2,
                CostModel::cm5(),
                mode,
                InterfaceSet::Full,
            )
            .expect("valid");
            rt.enable_sanitizer();
            let driver = rt.alloc_object_by_name("C", NodeId(0));
            let cell = rt.alloc_object_by_name("C", NodeId(0));
            rt.set_field(cell, n, Value::Int(41));
            rt.set_field(driver, peer, Value::Obj(cell));
            if migrated {
                rt.migrate_object(cell, NodeId(1));
            }
            let r = rt.call(driver, relay, &[]).expect("no trap");
            assert_eq!(r, Some(Value::Int(42)), "{what}");
            assert_eq!(
                rt.get_field(cell, n),
                Value::Int(42),
                "{what}: via stale ref"
            );
            assert_eq!(rt.live_contexts(), 0, "{what}");
            rt.sanitizer_check_quiescent();
            assert_eq!(rt.sanitizer_violations(), &[] as &[String], "{what}");
        }
    }
}

#[test]
fn migration_toward_caller_localizes_invocations() {
    let (mut rt, driver, cell, poke, _n, peer) = world();
    rt.call(driver, poke, &[Value::Int(5)]).unwrap();
    let before = rt.stats().totals();
    assert_eq!(before.remote_invokes, 5, "all pokes were remote");

    rt.migrate_object(cell, NodeId(0));
    rt.reset_counters();
    rt.call(driver, poke, &[Value::Int(5)]).unwrap();
    let after = rt.stats().totals();
    // The driver's field still holds the stale reference, so each call
    // pays the forwarding hop through the old home — but every bump now
    // *executes* on the caller's node (stack completions at the new home).
    assert!(
        after.stack_nb >= 5,
        "bumps completed on the stack at the new home: {}",
        after.stack_nb
    );
    assert!(after.msgs_sent > 0, "stale field keeps paying forwarding");

    // Snap the reference (what the paper's automated migration would do)
    // and the computation becomes fully local: no messages, no contexts.
    let fresh = rt.resolve_ref(cell);
    rt.set_field(driver, peer, Value::Obj(fresh));
    rt.reset_counters();
    rt.call(driver, poke, &[Value::Int(5)]).unwrap();
    let snapped = rt.stats().totals();
    assert_eq!(snapped.msgs_sent, 0, "fully local after snapping");
    assert_eq!(snapped.ctx_alloc, 0);
    assert_eq!(snapped.remote_invokes, 0);
}

#[test]
fn double_migration_chains_forwarding() {
    let (mut rt, driver, cell, poke, n, _peer) = world();
    let r1 = rt.migrate_object(cell, NodeId(0));
    let r2 = rt.migrate_object(cell, NodeId(1)); // via stale ref: resolves first
    assert_eq!(r2.node, NodeId(1));
    assert_ne!(r1, r2);
    assert_eq!(rt.resolve_ref(cell), r2);
    assert_eq!(rt.resolve_ref(r1), r2);
    let r = rt.call(driver, poke, &[Value::Int(2)]).unwrap();
    assert_eq!(r, Some(Value::Int(2)));
    assert_eq!(rt.get_field(cell, n), Value::Int(2));
}

#[test]
fn migrating_to_same_node_is_identity() {
    let (mut rt, _driver, cell, _poke, _n, _peer) = world();
    let r = rt.migrate_object(cell, NodeId(1));
    assert_eq!(r, cell, "already home");
    assert_eq!(rt.resolve_ref(cell), cell);
}

#[test]
fn remote_message_to_old_home_is_forwarded() {
    // The driver (node 0) holds a stale ref to an object whose old home is
    // node 1 but which now lives on node 0: the request goes to node 1,
    // discovers the forwarding address, and comes back — one extra
    // message round, correct result.
    let (mut rt, driver, cell, poke, _n, _peer) = world();
    rt.migrate_object(cell, NodeId(0));
    rt.reset_counters();
    let r = rt.call(driver, poke, &[Value::Int(1)]).unwrap();
    assert_eq!(r, Some(Value::Int(1)));
    let t = rt.stats().totals();
    // The invoke through the stale ref travels: node0 -> node1 (old home)
    // -> node0 (new home), then executes locally.
    assert!(
        t.msgs_sent >= 1,
        "at least the forwarded hop: {}",
        t.msgs_sent
    );
    assert_eq!(rt.live_contexts(), 0);
}

#[test]
#[should_panic(expected = "locked object")]
fn migration_refuses_held_locks() {
    // A locked cell whose method waits forever on a reactive callee: the
    // machine goes quiescent with the lock still held — migration must
    // refuse to move it out from under the suspended activation.
    let mut pb = ProgramBuilder::new();
    let quiet = pb.class("Quiet", false);
    let silent = pb.method(quiet, "silent", 0, |mb| mb.halt());
    let cell = pb.class("Cell", true);
    let peer = pb.field(cell, "peer");
    let stuck = pb.method(cell, "stuck", 0, |mb| {
        let p = mb.get_field(peer);
        let s = mb.invoke_into(p, silent, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    let q = rt.alloc_object_by_name("Quiet", NodeId(1));
    let c = rt.alloc_object_by_name("Cell", NodeId(0));
    rt.set_field(c, peer, Value::Obj(q));
    let r = rt.call(c, stuck, &[]).unwrap();
    assert_eq!(r, None, "parked forever");
    assert!(!rt.stuck_contexts().is_empty());
    let _ = rt.migrate_object(c, NodeId(1));
}

#[test]
#[should_panic(expected = "cannot migrate with queued invocations")]
fn migration_refuses_queued_lock_waiters() {
    // First invocation holds the cell's lock and parks forever; a second
    // invocation arrives while the lock is held and is queued on it. The
    // machine is quiescent (the waiter is parked on the lock, not on a run
    // queue), but moving the object would strand the queued invocation —
    // the guard diagnoses the waiters, not just the held lock.
    let mut pb = ProgramBuilder::new();
    let quiet = pb.class("Quiet", false);
    let silent = pb.method(quiet, "silent", 0, |mb| mb.halt());
    let cell = pb.class("Cell", true);
    let peer = pb.field(cell, "peer");
    let stuck = pb.method(cell, "stuck", 0, |mb| {
        let p = mb.get_field(peer);
        let s = mb.invoke_into(p, silent, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    let q = rt.alloc_object_by_name("Quiet", NodeId(1));
    let c = rt.alloc_object_by_name("Cell", NodeId(0));
    rt.set_field(c, peer, Value::Obj(q));
    let r = rt.call(c, stuck, &[]).unwrap();
    assert_eq!(r, None, "holder parked forever");
    // Second independent task: finds the lock held, defers on it.
    let r = rt.call(c, stuck, &[]).unwrap();
    assert_eq!(r, None, "second invocation queued behind the lock");
    assert!(rt.is_quiescent());
    let _ = rt.migrate_object(c, NodeId(1));
}

#[test]
#[should_panic(expected = "live activations")]
fn migration_refuses_live_activations() {
    // An unlocked object whose method is parked forever: moving it would
    // strand the suspended activation's `self`.
    let mut pb = ProgramBuilder::new();
    let quiet = pb.class("Quiet", false);
    let silent = pb.method(quiet, "silent", 0, |mb| mb.halt());
    let cell = pb.class("FreeCell", false);
    let peer = pb.field(cell, "peer");
    let stuck = pb.method(cell, "stuck", 0, |mb| {
        let p = mb.get_field(peer);
        let s = mb.invoke_into(p, silent, &[]);
        let v = mb.touch_get(s);
        mb.reply(v);
    });
    let p = pb.finish();
    let mut rt =
        Runtime::new(p, 2, CostModel::cm5(), ExecMode::Hybrid, InterfaceSet::Full).unwrap();
    let q = rt.alloc_object_by_name("Quiet", NodeId(1));
    let c = rt.alloc_object_by_name("FreeCell", NodeId(0));
    rt.set_field(c, peer, Value::Obj(q));
    let r = rt.call(c, stuck, &[]).unwrap();
    assert_eq!(r, None);
    let _ = rt.migrate_object(c, NodeId(1));
}
