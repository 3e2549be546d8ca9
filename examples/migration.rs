//! Object migration (the paper's future work, §6): move a heavily-used
//! object toward its callers between computation phases and watch the
//! hybrid runtime convert remote invocations into stack execution —
//! first through forwarding addresses (stale references keep working),
//! then fully local once references are snapped.
//!
//! Run with: `cargo run --release --example migration`

use hem::ir::BinOp;
use hem::{CostModel, ExecMode, InterfaceSet, NodeId, ProgramBuilder, Runtime, Value};

fn main() {
    let mut pb = ProgramBuilder::new();
    let c = pb.class("C", false);
    let n = pb.field(c, "n");
    let peer = pb.field(c, "peer");
    let bump = pb.method(c, "bump", 1, |mb| {
        let cur = mb.get_field(n);
        let nv = mb.binl(BinOp::Add, cur, mb.arg(0));
        mb.set_field(n, nv);
        mb.reply(nv);
    });
    let phase = pb.method(c, "phase", 1, |mb| {
        let p = mb.get_field(peer);
        let s = mb.slot();
        let last = mb.local();
        mb.mov(last, 0i64);
        mb.for_range(0i64, mb.arg(0), |mb, _| {
            mb.invoke(
                Some(s),
                p,
                bump,
                &[1i64.into()],
                hem::ir::LocalityHint::Unknown,
            );
            mb.touch(&[s]);
            let v = mb.get_slot(s);
            mb.mov(last, v);
        });
        mb.reply(last);
    });
    let program = pb.finish();

    let mut rt = Runtime::new(
        program,
        2,
        CostModel::cm5(),
        ExecMode::Hybrid,
        InterfaceSet::Full,
    )
    .unwrap();
    let driver = rt.alloc_object_by_name("C", NodeId(0));
    let hot = rt.alloc_object_by_name("C", NodeId(1));
    rt.set_field(hot, n, Value::Int(0));
    rt.set_field(driver, peer, Value::Obj(hot));

    let k = 200i64;
    let show = |rt: &mut Runtime, label: &str| {
        rt.reset_counters();
        let t0 = rt.makespan();
        rt.call(driver, phase, &[Value::Int(k)]).unwrap();
        let dt = rt.makespan() - t0;
        let t = rt.stats().totals();
        println!(
            "{label:<34} {:>9.3} ms   msgs={:<4} stack={:<4} ctxs={}",
            rt.cost().seconds(dt) * 1e3,
            t.msgs_sent,
            t.stack_nb + t.stack_mb + t.stack_cp,
            t.ctx_alloc
        );
    };

    println!("== {k} bumps of a hot object per phase, driver on node 0 ==\n");
    show(&mut rt, "phase 1: object remote (node 1)");

    let new_ref = rt.migrate_object(hot, NodeId(0));
    show(&mut rt, "phase 2: migrated, stale reference");

    rt.set_field(driver, peer, Value::Obj(new_ref));
    show(&mut rt, "phase 3: reference snapped");

    println!(
        "\nMigration leaves a forwarding address (phase 2 still pays the\n\
         round trip through the old home for name translation) and becomes\n\
         fully local once the reference is updated (phase 3) — the runtime\n\
         adapts its execution strategy at every step without program\n\
         changes, which is the division the paper's future work proposes."
    );
}
