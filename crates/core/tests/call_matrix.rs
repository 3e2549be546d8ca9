//! The call protocol, pinned cell by cell: every caller site × target
//! state × callee schema × execution mode runs once and prints one line of
//! virtual-time observables, compared byte for byte with
//! `tests/golden/call_matrix.txt`. The benchmark workloads never forward,
//! never use the CP convention and never contend a lock, so this file —
//! not `hembench` — is what holds those paths still while code moves. To
//! accept a deliberate change, replace the golden with the `.actual` file
//! a mismatch leaves in the target tmp dir and say why in the PR.
//!
//! Layout: node 0 is the *site* node (where the measured call is decided),
//! node 1 is "elsewhere", node 2 hosts the gate every blocking callee
//! waits on (so it is remote wherever the target lives) and the sender of
//! the message-arrival row. Schemas are forced with dead code, as in
//! `hem_bench::micro`: a never-taken unknown-locality `Invoke` makes a
//! method may-block, a never-taken `Forward` makes it
//! continuation-passing.
//!
//! Cells that cannot be constructed print `n/a`: a lock grant exists only
//! for a target whose lock was held (migration refuses queued waiters),
//! and its row is measured in isolation — the holder parks on a latch, a
//! root call queues behind it (the root-call row's "lock held" cell), and
//! only the release that grants it is counted. A cell that panics is
//! recorded as `PANIC`.

use hem_analysis::InterfaceSet;
use hem_core::{ExecMode, Runtime};
use hem_ir::{
    BinOp, ClassId, FieldId, LocalityHint, MethodId, ObjRef, Program, ProgramBuilder, Value,
};
use hem_machine::cost::CostModel;
use hem_machine::NodeId;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    StackSlot,
    StackNoSlot,
    StackForward,
    HeapInvoke,
    HeapForward,
    MsgArrival,
    LockGrant,
    RootCall,
}

impl Site {
    const ALL: [Site; 8] = [
        Site::StackSlot,
        Site::StackNoSlot,
        Site::StackForward,
        Site::HeapInvoke,
        Site::HeapForward,
        Site::MsgArrival,
        Site::LockGrant,
        Site::RootCall,
    ];
    /// The sites that are an instruction of a driver method.
    const DRIVEN: [Site; 5] = [
        Site::StackSlot,
        Site::StackNoSlot,
        Site::StackForward,
        Site::HeapInvoke,
        Site::HeapForward,
    ];

    fn label(self) -> &'static str {
        match self {
            Site::StackSlot => "stack-invoke+slot",
            Site::StackNoSlot => "stack-invoke-noslot",
            Site::StackForward => "stack-forward",
            Site::HeapInvoke => "heap-invoke",
            Site::HeapForward => "heap-forward",
            Site::MsgArrival => "msg-arrival",
            Site::LockGrant => "lock-grant",
            Site::RootCall => "root-call",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    LocalUnlocked,
    LocalLockedFree,
    LocalLockHeld,
    Remote,
    StaleLocal,
    StaleRemote,
}

impl Target {
    const ALL: [Target; 6] = [
        Target::LocalUnlocked,
        Target::LocalLockedFree,
        Target::LocalLockHeld,
        Target::Remote,
        Target::StaleLocal,
        Target::StaleRemote,
    ];

    fn label(self) -> &'static str {
        match self {
            Target::LocalUnlocked => "local-unlocked",
            Target::LocalLockedFree => "local-locked-free",
            Target::LocalLockHeld => "local-lock-held",
            Target::Remote => "remote",
            Target::StaleLocal => "stale-local(migrated-away)",
            Target::StaleRemote => "stale-remote(migrated-here)",
        }
    }

    fn locked(self) -> bool {
        matches!(self, Target::LocalLockedFree | Target::LocalLockHeld)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Callee {
    Nb,
    /// NB and marked inlinable: the speculative-inlining guard instead of
    /// the schema's call cost, and `ParallelOnly`'s one stack execution.
    NbInline,
    MbDone,
    MbBlock,
    CpReply,
    CpForward,
}

impl Callee {
    const ALL: [Callee; 6] = [
        Callee::Nb,
        Callee::NbInline,
        Callee::MbDone,
        Callee::MbBlock,
        Callee::CpReply,
        Callee::CpForward,
    ];

    fn label(self) -> &'static str {
        match self {
            Callee::Nb => "NB",
            Callee::NbInline => "NB-inline",
            Callee::MbDone => "MB-completes",
            Callee::MbBlock => "MB-blocks",
            Callee::CpReply => "CP-replies",
            Callee::CpForward => "CP-forwards",
        }
    }
}

/// One target class (the locked and the unlocked one have the same shape).
struct TargetClass {
    name: &'static str,
    gate: FieldId,
    latch: FieldId,
    bias: FieldId,
    callees: Vec<(Callee, MethodId)>,
    /// Holds the receiver across one round trip to the gate.
    hold: MethodId,
    /// Holds the receiver until the latch is released.
    hold_latch: MethodId,
}

impl TargetClass {
    fn callee(&self, k: Callee) -> MethodId {
        self.callees.iter().find(|(c, _)| *c == k).expect("built").1
    }
}

struct Suite {
    program: Program,
    unlocked: TargetClass,
    locked: TargetClass,
    peer: FieldId,
    gate: FieldId,
    release: MethodId,
    /// Driver methods by (site, target class locked?, callee).
    drivers: Vec<((Site, bool, Callee), MethodId)>,
}

impl Suite {
    fn class(&self, locked: bool) -> &TargetClass {
        if locked {
            &self.locked
        } else {
            &self.unlocked
        }
    }

    fn driver(&self, site: Site, locked: bool, k: Callee) -> MethodId {
        self.drivers
            .iter()
            .find(|(key, _)| *key == (site, locked, k))
            .expect("built")
            .1
    }
}

fn target_class(
    pb: &mut ProgramBuilder,
    name: &'static str,
    locked: bool,
    echo: MethodId,
    wait: MethodId,
) -> TargetClass {
    let c: ClassId = pb.class(name, locked);
    let gate = pb.field(c, "gate");
    let latch = pb.field(c, "latch");
    // Every callee reads a field of its receiver (`bias` = 1), so one that
    // is entered on a forwarding stub cannot pass for a correct run.
    let bias = pb.field(c, "bias");
    let nb = pb.method(c, "nb", 1, |mb| {
        let b = mb.get_field(bias);
        let r = mb.binl(BinOp::Add, mb.arg(0), b);
        mb.reply(r);
    });
    let nb_inline = pb.method(c, "nb_inline", 1, |mb| {
        mb.inlinable();
        let b = mb.get_field(bias);
        let r = mb.binl(BinOp::Add, mb.arg(0), b);
        mb.reply(r);
    });
    let mb_done = pb.method(c, "mb_done", 1, |mb| {
        let x = mb.arg(0);
        let dead = mb.binl(BinOp::Lt, x, -1_000_000i64);
        mb.if_(dead, |mb| {
            let me = mb.self_ref();
            let s = mb.invoke_into(me, nb, &[x.into()]);
            mb.touch(&[s]);
        });
        let b = mb.get_field(bias);
        let r = mb.binl(BinOp::Add, x, b);
        mb.reply(r);
    });
    let mb_block = pb.method(c, "mb_block", 1, |mb| {
        let g = mb.get_field(gate);
        let s = mb.invoke_into(g, echo, &[mb.arg(0).into()]);
        let v = mb.touch_get(s);
        let b = mb.get_field(bias);
        let r = mb.binl(BinOp::Add, v, b);
        mb.reply(r);
    });
    let cp_reply = pb.method(c, "cp_reply", 1, |mb| {
        let x = mb.arg(0);
        let dead = mb.binl(BinOp::Lt, x, -1_000_000i64);
        mb.if_(dead, |mb| {
            let me = mb.self_ref();
            mb.forward(me, nb, &[x.into()], LocalityHint::AlwaysLocal);
        });
        let b = mb.get_field(bias);
        let r = mb.binl(BinOp::Add, x, b);
        mb.reply(r);
    });
    let cp_forward = pb.method(c, "cp_forward", 1, |mb| {
        let g = mb.get_field(gate);
        mb.forward(g, echo, &[mb.arg(0).into()], LocalityHint::Unknown);
    });
    let hold = pb.method(c, "hold", 0, |mb| {
        let g = mb.get_field(gate);
        let s = mb.invoke_into(g, echo, &[Value::Int(0).into()]);
        mb.touch(&[s]);
        mb.reply_nil();
    });
    let hold_latch = pb.method(c, "hold_latch", 0, |mb| {
        let l = mb.get_field(latch);
        let s = mb.invoke_into(l, wait, &[]);
        mb.touch(&[s]);
        mb.halt();
    });
    TargetClass {
        name,
        gate,
        latch,
        bias,
        callees: vec![
            (Callee::Nb, nb),
            (Callee::NbInline, nb_inline),
            (Callee::MbDone, mb_done),
            (Callee::MbBlock, mb_block),
            (Callee::CpReply, cp_reply),
            (Callee::CpForward, cp_forward),
        ],
        hold,
        hold_latch,
    }
}

fn build() -> Suite {
    let mut pb = ProgramBuilder::new();
    let gate_c = pb.class("Gate", false);
    let echo = pb.method(gate_c, "echo", 1, |mb| {
        let r = mb.binl(BinOp::Add, mb.arg(0), 100);
        mb.reply(r);
    });
    let latch_c = pb.class("Latch", false);
    let k = pb.field(latch_c, "k");
    let wait = pb.method(latch_c, "wait", 0, |mb| {
        mb.store_cont(k);
        mb.halt();
    });
    let release = pb.method(latch_c, "release", 0, |mb| {
        let c = mb.get_field(k);
        mb.send_to_cont(c, 0i64);
        mb.halt();
    });
    let unlocked = target_class(&mut pb, "TU", false, echo, wait);
    let locked = target_class(&mut pb, "TL", true, echo, wait);

    // Drivers: `(x, hold)`; a true `hold` first parks a lock holder on the
    // target (locked class only), so the measured call finds it busy.
    let d = pb.class("D", false);
    let peer = pb.field(d, "peer");
    let gate = pb.field(d, "gate");
    let mut drivers = Vec::new();
    for tc in [&unlocked, &locked] {
        let is_locked = tc.name == "TL";
        for &(kind, callee) in &tc.callees {
            let hold = tc.hold;
            let take_lock =
                |mb: &mut hem_ir::MethodBuilder, p: hem_ir::Local, flag: hem_ir::Local| {
                    if is_locked {
                        mb.if_(flag, |mb| {
                            mb.invoke(None, p, hold, &[], LocalityHint::Unknown);
                        });
                    }
                };
            let go_heap = |mb: &mut hem_ir::MethodBuilder| {
                let g = mb.get_field(gate);
                let s0 = mb.invoke_into(g, echo, &[Value::Int(0).into()]);
                mb.touch(&[s0]);
            };
            let relay = pb.method(d, &format!("relay_{}_{kind:?}", tc.name), 2, |mb| {
                let (p, flag) = (mb.get_field(peer), mb.arg(1));
                take_lock(mb, p, flag);
                mb.forward(p, callee, &[mb.arg(0).into()], LocalityHint::Unknown);
            });
            for site in Site::DRIVEN {
                let name = format!("{}_{}_{kind:?}", site.label(), tc.name);
                let m = pb.method(d, &name, 2, |mb| {
                    let (x, flag) = (mb.arg(0), mb.arg(1));
                    if matches!(site, Site::HeapInvoke | Site::HeapForward) {
                        go_heap(mb);
                    }
                    if site == Site::StackForward {
                        // The forward is one stack level down, so its
                        // continuation is this frame's not-yet-created one.
                        let me = mb.self_ref();
                        let s = mb.invoke_into(me, relay, &[x.into(), flag.into()]);
                        let v = mb.touch_get(s);
                        mb.reply(v);
                        return;
                    }
                    let p = mb.get_field(peer);
                    take_lock(mb, p, flag);
                    match site {
                        Site::StackSlot | Site::HeapInvoke => {
                            let s = mb.invoke_into(p, callee, &[x.into()]);
                            let v = mb.touch_get(s);
                            mb.reply(v);
                        }
                        Site::StackNoSlot => {
                            mb.invoke(None, p, callee, &[x.into()], LocalityHint::Unknown);
                            mb.reply(7i64);
                        }
                        Site::HeapForward => {
                            mb.forward(p, callee, &[x.into()], LocalityHint::Unknown);
                        }
                        _ => unreachable!("driven sites only"),
                    }
                });
                drivers.push(((site, is_locked, kind), m));
            }
        }
    }
    Suite {
        program: pb.finish(),
        unlocked,
        locked,
        peer,
        gate,
        release,
        drivers,
    }
}

/// Run one cell; `None` when the combination cannot be constructed.
fn run_cell(
    suite: &Suite,
    site: Site,
    target: Target,
    callee: Callee,
    mode: ExecMode,
) -> Option<String> {
    if site == Site::LockGrant && target != Target::LocalLockHeld {
        return None;
    }
    let mut rt = Runtime::new(
        suite.program.clone(),
        3,
        CostModel::cm5(),
        mode,
        InterfaceSet::Full,
    )
    .expect("valid matrix program");
    rt.enable_sanitizer();
    let tc = suite.class(target.locked());
    let gate = rt.alloc_object_by_name("Gate", NodeId(2));
    let latch = rt.alloc_object_by_name("Latch", NodeId(0));
    let born = match target {
        Target::Remote | Target::StaleRemote => NodeId(1),
        _ => NodeId(0),
    };
    // The reference every caller uses is the one minted at birth: after a
    // migration it is the stale one.
    let t: ObjRef = rt.alloc_object_by_name(tc.name, born);
    rt.set_field(t, tc.gate, Value::Obj(gate));
    rt.set_field(t, tc.latch, Value::Obj(latch));
    rt.set_field(t, tc.bias, Value::Int(1));
    match target {
        Target::StaleLocal => {
            rt.migrate_object(t, NodeId(1));
        }
        Target::StaleRemote => {
            rt.migrate_object(t, NodeId(0));
        }
        _ => {}
    }
    let held = target == Target::LocalLockHeld;
    let x = Value::Int(41);

    let reply = match site {
        Site::RootCall | Site::LockGrant => {
            if held {
                let parked = rt.call(t, tc.hold_latch, &[]).expect("holder parks");
                assert_eq!(parked, None);
            }
            if site == Site::LockGrant {
                let queued = rt.call(t, tc.callee(callee), &[x]).expect("queues");
                assert_eq!(queued, None, "deferred behind the holder");
                rt.reset_counters();
                rt.call(latch, suite.release, &[])
            } else {
                rt.reset_counters();
                rt.call(t, tc.callee(callee), &[x])
            }
        }
        _ => {
            let (home, method) = match site {
                Site::MsgArrival => (NodeId(2), Site::StackSlot),
                s => (NodeId(0), s),
            };
            let d = rt.alloc_object_by_name("D", home);
            rt.set_field(d, suite.peer, Value::Obj(t));
            rt.set_field(d, suite.gate, Value::Obj(gate));
            let m = suite.driver(method, target.locked(), callee);
            rt.call(d, m, &[x, Value::Bool(held)])
        }
    };

    let reply = match reply {
        Ok(v) => format!("{v:?}"),
        Err(t) => format!("TRAP({t})"),
    };
    let stats = rt.stats();
    let (site_node, all) = (&stats.per_node[0], stats.totals());
    Some(format!(
        "reply={reply} instr@0={} instr={} ctx={} conts={} msgs={} sfwd={} proxy={} lockc={} \
         stack={}/{}/{} inl={} par={} fb={} loc={} rem={} live={} san={} makespan={}",
        site_node.instructions,
        all.instructions,
        all.ctx_alloc,
        all.conts_created,
        all.msgs_sent,
        all.stack_forwards,
        all.proxy_conts,
        all.lock_conflicts,
        all.stack_nb,
        all.stack_mb,
        all.stack_cp,
        all.inlined,
        all.par_invokes,
        all.fallbacks,
        all.local_invokes,
        all.remote_invokes,
        rt.live_contexts(),
        rt.sanitizer_violations().len(),
        rt.makespan(),
    ))
}

#[test]
fn call_matrix_matches_its_golden() {
    let suite = build();
    let mut actual = String::new();
    for site in Site::ALL {
        for target in Target::ALL {
            for callee in Callee::ALL {
                for mode in [ExecMode::Hybrid, ExecMode::ParallelOnly] {
                    let cell = catch_unwind(AssertUnwindSafe(|| {
                        run_cell(&suite, site, target, callee, mode)
                    }));
                    let cell = match cell {
                        Ok(Some(line)) => line,
                        Ok(None) => "n/a".into(),
                        Err(_) => "PANIC".into(),
                    };
                    writeln!(
                        actual,
                        "{} | {} | {} | {mode:?} : {cell}",
                        site.label(),
                        target.label(),
                        callee.label()
                    )
                    .expect("write to string");
                }
            }
        }
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/call_matrix.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual == expected {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("call_matrix.actual");
    std::fs::write(&path, &actual).expect("write .actual");
    let (a, e): (Vec<_>, Vec<_>) = (actual.lines().collect(), expected.lines().collect());
    let line = (0..a.len().max(e.len()))
        .find(|&i| a.get(i) != e.get(i))
        .unwrap_or(a.len());
    panic!(
        "call matrix differs from {} at line {}\n  golden: {:?}\n  actual: {:?}\nfull output: {}",
        golden.display(),
        line + 1,
        e.get(line),
        a.get(line),
        path.display()
    );
}
