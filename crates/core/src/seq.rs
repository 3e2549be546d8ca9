//! The sequential (stack) interpreter: NB / MB / CP calling conventions,
//! lazy context allocation, lazy continuation creation, and fallback.
//!
//! A sequential invocation runs as a host-Rust call (`run_seq` recursion) —
//! the analogue of the paper's generated C functions running on the C
//! stack. Three things can interrupt stack execution, and each maps to a
//! paper mechanism:
//!
//! * an invocation that must go **remote** (or hit a held lock) — the
//!   caller lazily creates *its own* heap context so the reply has a
//!   landing site, sends the request, and unwinds (§3.2.2);
//! * a **blocked callee** — the callee returns its freshly created
//!   context, the caller links a continuation for the callee's return
//!   value into it, creates its own context, and unwinds (Fig. 6);
//! * a **consumed continuation** — a CP callee forwarded or stored the
//!   caller's (not-yet-created) continuation; materializing it may create
//!   a *shell* context for the caller, which is passed back up the
//!   unwinding stack for the caller to populate and adopt (§3.2.3).
//!
//! The unwinding protocol is the `SeqOutcome` enum; the invariants are
//! documented on its variants.

use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, SlotState, WaitState};
use crate::error::Trap;
use crate::exec::{self, Next};
use crate::object::{DeferredInvoke, LockHolder};
use crate::rt::Runtime;
use hem_analysis::Schema;
use hem_ir::{ContRef, Instr, MethodId, ObjRef, Slot, Value};
use hem_machine::NodeId;

/// How a sequential execution ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SeqOutcome {
    /// Ran to completion on the stack; the reply value is carried directly
    /// (the paper's `return_val` passed through memory).
    Value(Value),
    /// Ran to completion without replying (reactive methods). The caller's
    /// future, if any, stays pending.
    Halted,
    /// The method fell back into heap context `ctx`.
    ///
    /// * `cont_needed = true`: the context's continuation is still unset;
    ///   the caller must link the reply capability into it (Fig. 6).
    /// * `shell`: if the method had already consumed its caller's
    ///   continuation and a shell context was created for the caller, it
    ///   is passed back here for the caller to adopt.
    Blocked {
        /// The callee's (fallen-back) context.
        ctx: u32,
        /// Shell context created for the *caller*, if any.
        shell: Option<u32>,
        /// Whether the caller must still link a continuation into `ctx`.
        cont_needed: bool,
    },
    /// CP only: the method consumed its continuation (forwarded it or
    /// stored it) and finished its stack execution. `shell` as above.
    Consumed {
        /// Shell context created for the *caller*, if any.
        shell: Option<u32>,
    },
}

/// Calling convention of a sequential execution (paper Fig. 5).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Conv {
    /// Non-blocking: plain call; any fallback attempt is a trap.
    Nb,
    /// May-block: may return `Blocked`.
    Mb,
    /// Continuation-passing: carries the caller descriptor.
    Cp(CallerInfo),
}

/// Interpreter-local state threaded through one sequential activation.
struct SeqState {
    fr: ActFrame,
    /// `Some(shell)` once this activation's continuation has been
    /// consumed (by `StoreCont`); `Reply`/`Forward` afterwards is a trap.
    consumed: Option<Option<u32>>,
    conv: Conv,
}

/// Run `method` on local object `obj` sequentially under `conv`.
pub(crate) fn run_seq(
    rt: &mut Runtime,
    node: usize,
    obj: ObjRef,
    method: MethodId,
    args: Vec<Value>,
    conv: Conv,
) -> Result<SeqOutcome, Trap> {
    rt.seq_depth += 1;
    let r = run_inner(rt, node, obj, method, args, conv);
    rt.seq_depth -= 1;
    r
}

fn run_inner(
    rt: &mut Runtime,
    node: usize,
    obj: ObjRef,
    method: MethodId,
    args: Vec<Value>,
    conv: Conv,
) -> Result<SeqOutcome, Trap> {
    let prog = rt.program.clone();
    let m = prog.method(method);
    let mut st = SeqState {
        fr: ActFrame::new(method, obj, m.locals, m.slots, &args),
        consumed: None,
        conv,
    };
    loop {
        let ins = m
            .body
            .get(st.fr.pc as usize)
            .ok_or_else(|| Trap::at(method, st.fr.pc, "pc past end of body"))?;
        rt.charge(node, rt.cost.op);
        match ins {
            Instr::Invoke {
                slot,
                target,
                method: callee,
                args,
                hint: _,
            } => {
                let tv = exec::read(&st.fr, target);
                let a = exec::read_args(&st.fr, args);
                if let Some(out) = seq_invoke(rt, node, &mut st, *slot, tv, *callee, a)? {
                    return Ok(out);
                }
                st.fr.pc += 1;
            }
            Instr::Touch { slots } => {
                rt.ctr(node).touches += 1;
                rt.charge(node, rt.cost.future_touch * slots.len() as u64);
                let (mask, missing) = unsatisfied(&st.fr, slots);
                if missing == 0 {
                    st.fr.pc += 1;
                } else {
                    rt.ctr(node).touch_misses += 1;
                    let pc = st.fr.pc;
                    let out =
                        do_fallback(rt, node, &mut st, pc, WaitState::Waiting { mask, missing })?;
                    return Ok(out);
                }
            }
            Instr::Multicast {
                slot,
                group,
                method: callee,
                args,
            } => {
                let members = exec::read_group(rt, &st.fr, node, *group)?;
                let a = exec::read_args(&st.fr, args);
                match slot {
                    None => {
                        // Fire-and-forget: nothing flows back, the stack
                        // execution continues.
                        rt.issue_collective(
                            node,
                            crate::msg::CollKind::Cast,
                            &members,
                            *callee,
                            a,
                            Continuation::Discard,
                        )?;
                        st.fr.pc += 1;
                    }
                    Some(s) => {
                        if let Some(out) = seq_collective(
                            rt,
                            node,
                            &mut st,
                            *s,
                            crate::msg::CollKind::CastAcked,
                            &members,
                            *callee,
                            a,
                        )? {
                            return Ok(out);
                        }
                    }
                }
            }
            Instr::Reduce {
                slot,
                group,
                method: callee,
                args,
                op,
            } => {
                let members = exec::read_group(rt, &st.fr, node, *group)?;
                let a = exec::read_args(&st.fr, args);
                if let Some(out) = seq_collective(
                    rt,
                    node,
                    &mut st,
                    *slot,
                    crate::msg::CollKind::Reduce(*op),
                    &members,
                    *callee,
                    a,
                )? {
                    return Ok(out);
                }
            }
            Instr::Barrier { slot, group } => {
                let members = exec::read_group(rt, &st.fr, node, *group)?;
                if let Some(out) = seq_collective(
                    rt,
                    node,
                    &mut st,
                    *slot,
                    crate::msg::CollKind::Barrier,
                    &members,
                    MethodId(0),
                    Vec::new(),
                )? {
                    return Ok(out);
                }
            }
            Instr::Reply { src } => {
                if st.consumed.is_some() {
                    return Err(Trap::at(
                        method,
                        st.fr.pc,
                        "reply after continuation consumed",
                    ));
                }
                return Ok(SeqOutcome::Value(exec::read(&st.fr, src)));
            }
            Instr::Halt => {
                return Ok(match st.consumed.take() {
                    Some(shell) => SeqOutcome::Consumed { shell },
                    None => SeqOutcome::Halted,
                });
            }
            Instr::Forward {
                target,
                method: callee,
                args,
                hint: _,
            } => {
                let Conv::Cp(info) = st.conv else {
                    return Err(Trap::at(method, st.fr.pc, "forward outside CP convention"));
                };
                if st.consumed.is_some() {
                    return Err(Trap::at(
                        method,
                        st.fr.pc,
                        "forward after continuation consumed",
                    ));
                }
                let tv = exec::read(&st.fr, target);
                let a = exec::read_args(&st.fr, args);
                return seq_forward(rt, node, tv, *callee, a, info, method, st.fr.pc);
            }
            Instr::StoreCont { field, idx } => {
                let Conv::Cp(info) = st.conv else {
                    return Err(Trap::at(
                        method,
                        st.fr.pc,
                        "store-cont outside CP convention",
                    ));
                };
                if st.consumed.is_some() {
                    return Err(Trap::at(method, st.fr.pc, "continuation already consumed"));
                }
                let (cont, shell) = rt.materialize_cont(node, info)?;
                store_cont_value(rt, node, &mut st.fr, *field, idx.as_ref(), cont)?;
                st.consumed = Some(shell);
                st.fr.pc += 1;
            }
            simple => match exec::exec_simple(rt, node, &mut st.fr, simple)? {
                Next::Advance => st.fr.pc += 1,
                Next::Goto(t) => st.fr.pc = t,
            },
        }
    }
}

/// Compute the awaited-slot mask of a touch against a frame.
pub(crate) fn unsatisfied(fr: &ActFrame, slots: &[Slot]) -> (u64, u16) {
    let mut mask = 0u64;
    let mut missing = 0u16;
    for s in slots {
        if !fr.slots[s.idx()].satisfied() && mask & (1u64 << s.0) == 0 {
            mask |= 1u64 << s.0;
            missing += 1;
        }
    }
    (mask, missing)
}

/// Store a materialized continuation into a field of `self`.
fn store_cont_value(
    rt: &mut Runtime,
    node: usize,
    fr: &mut ActFrame,
    field: hem_ir::FieldId,
    idx: Option<&hem_ir::Operand>,
    cont: Continuation,
) -> Result<(), Trap> {
    let Continuation::Into(cr) = cont else {
        return Err(Trap::at(
            fr.method,
            fr.pc,
            "cannot store a root/discard continuation into a data structure",
        ));
    };
    let v = Value::Cont(cr);
    match idx {
        None => {
            // Reuse the shared field machinery via a synthetic SetField.
            let ins = Instr::SetField {
                field,
                src: hem_ir::Operand::K(v),
            };
            exec::exec_simple(rt, node, fr, &ins)?;
        }
        Some(i) => {
            let ins = Instr::SetElem {
                field,
                idx: *i,
                src: hem_ir::Operand::K(v),
            };
            exec::exec_simple(rt, node, fr, &ins)?;
        }
    }
    Ok(())
}

/// Fall back: move the stack frame into a lazily created heap context and
/// produce the unwinding outcome. A fallback from a non-blocking method is
/// a broken compiler promise (e.g. an `AlwaysLocal` hint on a remote
/// object) and traps loudly.
fn do_fallback(
    rt: &mut Runtime,
    node: usize,
    st: &mut SeqState,
    next_pc: u32,
    wait: WaitState,
) -> Result<SeqOutcome, Trap> {
    if matches!(st.conv, Conv::Nb) {
        return Err(Trap::at(
            st.fr.method,
            st.fr.pc,
            "non-blocking method attempted to block (locality hint violated?)",
        ));
    }
    let ctx = rt.fallback_ctx(node, &mut st.fr, next_pc, wait);
    Ok(finish_block_outcome(rt, node, st, ctx))
}

/// Adopt a shell context created on our behalf and produce the outcome.
fn do_adopt(
    rt: &mut Runtime,
    node: usize,
    st: &mut SeqState,
    shell: u32,
    next_pc: u32,
) -> SeqOutcome {
    rt.adopt_shell(node, shell, &mut st.fr, next_pc);
    finish_block_outcome(rt, node, st, shell)
}

fn finish_block_outcome(rt: &mut Runtime, node: usize, st: &mut SeqState, ctx: u32) -> SeqOutcome {
    match st.consumed.take() {
        Some(shell) => {
            rt.nodes[node].ctxs.get_mut(ctx).cont_consumed = true;
            SeqOutcome::Blocked {
                ctx,
                shell,
                cont_needed: false,
            }
        }
        None => SeqOutcome::Blocked {
            ctx,
            shell: None,
            cont_needed: true,
        },
    }
}

/// Handle one `Invoke` from a stack frame. Returns `Some(outcome)` when
/// the frame fell back (the interpreter must unwind), `None` to continue.
fn seq_invoke(
    rt: &mut Runtime,
    node: usize,
    st: &mut SeqState,
    slot: Option<Slot>,
    target: Value,
    callee: MethodId,
    args: Vec<Value>,
) -> Result<Option<SeqOutcome>, Trap> {
    let pc = st.fr.pc;
    let tobj = target
        .as_obj()
        .map_err(|e| Trap::from_value(st.fr.method, pc, e))?;
    let tobj = rt.resolve_local(node, tobj);
    rt.charge(node, rt.cost.locality_check);
    // Mark the reply future pending (join counters keep their count).
    if let Some(s) = slot {
        if !matches!(st.fr.slots[s.idx()], SlotState::Join(_)) {
            st.fr.slots[s.idx()] = SlotState::Pending;
        }
    }

    if tobj.node.idx() != node {
        // Remote: lazy creation of our own context so the reply can land.
        rt.ctr(node).remote_invokes += 1;
        return match slot {
            None => {
                rt.send_invoke(node, tobj, callee, args, Continuation::Discard, false)?;
                Ok(None)
            }
            Some(s) => {
                let out = do_fallback(rt, node, st, pc + 1, WaitState::Ready)?;
                let SeqOutcome::Blocked { ctx, .. } = out else {
                    unreachable!()
                };
                let gen = rt.nodes[node].ctxs.gen(ctx);
                let cont = Continuation::Into(ContRef {
                    node: NodeId(node as u32),
                    ctx,
                    gen,
                    slot: s.0,
                });
                rt.send_invoke(node, tobj, callee, args, cont, false)?;
                Ok(Some(out))
            }
        };
    }

    rt.ctr(node).local_invokes += 1;
    rt.charge(node, rt.cost.concurrency_check);
    let locked = rt.obj_locked_class(node, tobj.index);
    if locked && !rt.lock_try(node, tobj.index, LockHolder::Task(rt.current_task)) {
        // Target busy: defer the invocation on the lock.
        return match slot {
            None => {
                rt.lock_defer(
                    node,
                    tobj.index,
                    DeferredInvoke {
                        method: callee,
                        args,
                        cont: Continuation::Discard,
                        forwarded: false,
                        req: 0,
                    },
                );
                Ok(None)
            }
            Some(s) => {
                let out = do_fallback(rt, node, st, pc + 1, WaitState::Ready)?;
                let SeqOutcome::Blocked { ctx, .. } = out else {
                    unreachable!()
                };
                let gen = rt.nodes[node].ctxs.gen(ctx);
                let cont = Continuation::Into(ContRef {
                    node: NodeId(node as u32),
                    ctx,
                    gen,
                    slot: s.0,
                });
                rt.charge(node, rt.cost.cont_create);
                rt.lock_defer(
                    node,
                    tobj.index,
                    DeferredInvoke {
                        method: callee,
                        args,
                        cont,
                        forwarded: false,
                        req: 0,
                    },
                );
                Ok(Some(out))
            }
        };
    }

    // Local and lock held (or lock-free): run the sequential version.
    let cp_info = match slot {
        Some(s) => CallerInfo::NotCreated {
            method: st.fr.method,
            obj: st.fr.obj,
            ret_slot: s.0,
        },
        None => CallerInfo::Proxy {
            cont: Continuation::Discard,
        },
    };
    let out = call_seq_schema(rt, node, tobj, callee, args, cp_info)?;
    settle_lock(rt, node, tobj.index, locked, &out);
    match out {
        SeqOutcome::Value(v) => {
            if let Some(s) = slot {
                // No future_store charge here: a synchronous completion
                // returns through memory, which the schema's call-extra
                // already prices (paper §4.1).
                Runtime::apply_fill(&mut st.fr.slots, s.0, v)
                    .map_err(|e| Trap::at(st.fr.method, pc, e))?;
            }
            Ok(None)
        }
        SeqOutcome::Halted => Ok(None),
        SeqOutcome::Consumed { shell: None } => Ok(None),
        SeqOutcome::Consumed { shell: Some(sh) } => Ok(Some(do_adopt(rt, node, st, sh, pc + 1))),
        SeqOutcome::Blocked {
            ctx: child,
            shell,
            cont_needed,
        } => match slot {
            None => {
                debug_assert!(shell.is_none());
                if cont_needed {
                    rt.charge(node, rt.cost.cont_link);
                    rt.nodes[node].ctxs.get_mut(child).cont = Continuation::Discard;
                }
                Ok(None)
            }
            Some(s) => {
                let out = if let Some(sh) = shell {
                    do_adopt(rt, node, st, sh, pc + 1)
                } else {
                    do_fallback(rt, node, st, pc + 1, WaitState::Ready)?
                };
                if cont_needed {
                    let SeqOutcome::Blocked { ctx: mine, .. } = out else {
                        unreachable!()
                    };
                    let gen = rt.nodes[node].ctxs.gen(mine);
                    rt.charge(node, rt.cost.cont_create + rt.cost.cont_link);
                    rt.nodes[node].ctxs.get_mut(child).cont = Continuation::Into(ContRef {
                        node: NodeId(node as u32),
                        ctx: mine,
                        gen,
                        slot: s.0,
                    });
                }
                Ok(Some(out))
            }
        },
    }
}

/// Handle a slot-bearing collective from a stack frame. The completion
/// arrives over the wire (up-tree legs), never synchronously, so the frame
/// always falls back first — exactly like a remote `Invoke` with a slot —
/// and the collective's root continuation points into the fallen-back
/// context.
#[allow(clippy::too_many_arguments)]
fn seq_collective(
    rt: &mut Runtime,
    node: usize,
    st: &mut SeqState,
    slot: Slot,
    kind: crate::msg::CollKind,
    members: &[ObjRef],
    callee: MethodId,
    args: Vec<Value>,
) -> Result<Option<SeqOutcome>, Trap> {
    let pc = st.fr.pc;
    if !matches!(st.fr.slots[slot.idx()], SlotState::Join(_)) {
        st.fr.slots[slot.idx()] = SlotState::Pending;
    }
    let out = do_fallback(rt, node, st, pc + 1, WaitState::Ready)?;
    let SeqOutcome::Blocked { ctx, .. } = out else {
        unreachable!()
    };
    let gen = rt.nodes[node].ctxs.gen(ctx);
    let cont = Continuation::Into(ContRef {
        node: NodeId(node as u32),
        ctx,
        gen,
        slot: slot.0,
    });
    rt.issue_collective(node, kind, members, callee, args, cont)?;
    Ok(Some(out))
}

/// Handle a `Forward` from a stack frame (paper Fig. 7): pass our
/// continuation — still implicit in `info` — to the next method, executing
/// the whole chain on the stack when everything stays local.
#[allow(clippy::too_many_arguments)]
fn seq_forward(
    rt: &mut Runtime,
    node: usize,
    target: Value,
    callee: MethodId,
    args: Vec<Value>,
    info: CallerInfo,
    method: MethodId,
    pc: u32,
) -> Result<SeqOutcome, Trap> {
    let tobj = target
        .as_obj()
        .map_err(|e| Trap::from_value(method, pc, e))?;
    rt.charge(node, rt.cost.locality_check);

    if tobj.node.idx() != node {
        // Off-node forward: the continuation must become real now.
        rt.ctr(node).remote_invokes += 1;
        let (cont, shell) = rt.materialize_cont(node, info)?;
        rt.send_invoke(node, tobj, callee, args, cont, true)?;
        return Ok(SeqOutcome::Consumed { shell });
    }

    rt.ctr(node).local_invokes += 1;
    rt.charge(node, rt.cost.concurrency_check);
    let locked = rt.obj_locked_class(node, tobj.index);
    if locked && !rt.lock_try(node, tobj.index, LockHolder::Task(rt.current_task)) {
        let (cont, shell) = rt.materialize_cont(node, info)?;
        rt.lock_defer(
            node,
            tobj.index,
            DeferredInvoke {
                method: callee,
                args,
                cont,
                forwarded: true,
                req: 0,
            },
        );
        return Ok(SeqOutcome::Consumed { shell });
    }

    // Local forwarding: pass caller_info along unchanged — the chain
    // executes on the stack and the final value returns through return_val.
    rt.ctr(node).stack_forwards += 1;
    let out = call_seq_schema(rt, node, tobj, callee, args, info)?;
    settle_lock(rt, node, tobj.index, locked, &out);
    match out {
        SeqOutcome::Value(v) => Ok(SeqOutcome::Value(v)),
        SeqOutcome::Halted => Ok(SeqOutcome::Halted),
        SeqOutcome::Consumed { shell } => Ok(SeqOutcome::Consumed { shell }),
        SeqOutcome::Blocked {
            ctx: child,
            shell,
            cont_needed,
        } => {
            if cont_needed {
                // The target suspended without consuming: it inherits our
                // (now materialized) continuation.
                debug_assert!(shell.is_none());
                let (cont, shell2) = rt.materialize_cont(node, info)?;
                rt.charge(node, rt.cost.cont_link);
                rt.nodes[node].ctxs.get_mut(child).cont = cont;
                Ok(SeqOutcome::Consumed { shell: shell2 })
            } else {
                Ok(SeqOutcome::Consumed { shell })
            }
        }
    }
}

/// Release or transfer a target's lock according to how its sequential
/// execution ended.
pub(crate) fn settle_lock(rt: &mut Runtime, node: usize, obj: u32, locked: bool, out: &SeqOutcome) {
    if !locked {
        return;
    }
    match out {
        SeqOutcome::Blocked { ctx, .. } => {
            // The method still holds its receiver across the suspension.
            rt.lock_transfer(node, obj, LockHolder::Ctx(*ctx));
            rt.nodes[node].ctxs.get_mut(*ctx).holds_lock = true;
            rt.san_settle_blocked(node, obj, *ctx);
        }
        _ => rt.lock_release(node, obj),
    }
}

/// Run a local callee through its selected sequential schema, charging the
/// schema's call cost (or the speculative-inlining guard) and counting the
/// completion. This is the single entry used by stack callers, heap-context
/// callers, wrappers and lock grants.
pub(crate) fn call_seq_schema(
    rt: &mut Runtime,
    node: usize,
    target: ObjRef,
    callee: MethodId,
    args: Vec<Value>,
    cp_info: CallerInfo,
) -> Result<SeqOutcome, Trap> {
    let schema = rt.schemas.of(callee);

    // Host-stack depth guard: deep MB/CP chains divert through the heap
    // (the moral equivalent of a stack-limit check); a deep NB chain is a
    // genuine stack overflow, as it would be for the generated C.
    // Mutant: bypass the guard; deep chains keep recursing sequentially.
    if rt.seq_depth >= rt.max_seq_depth && !rt.mutant_is(crate::explore::Mutant::SkipDepthGuard) {
        if schema == Schema::NonBlocking {
            return Err(Trap::new(format!(
                "sequential depth limit {} exceeded in non-blocking chain",
                rt.max_seq_depth
            )));
        }
        let m = rt.program.method(callee);
        let (l, s) = (m.locals, m.slots);
        let frame = ActFrame::new(callee, target, l, s, &args);
        rt.charge(node, rt.cost.par_invoke_fixed);
        let id = rt.new_ctx(node, frame, Continuation::Unset, WaitState::Ready, false);
        rt.ctr(node).par_invokes += 1;
        rt.enqueue_ready(node, id);
        return Ok(SeqOutcome::Blocked {
            ctx: id,
            shell: None,
            cont_needed: true,
        });
    }

    rt.san_seq_entry(node, target, callee);
    let inlinable = rt.program.method(callee).inlinable && rt.enable_inlining;
    let inlined = inlinable && schema == Schema::NonBlocking;
    if inlined {
        rt.charge(node, rt.cost.inline_guard);
        rt.ctr(node).inlined += 1;
        rt.emit(
            node,
            crate::trace::TraceEvent::Inlined {
                node: NodeId(node as u32),
                method: callee,
            },
        );
    } else {
        let extra = match schema {
            Schema::NonBlocking => rt.cost.nb_call_extra,
            Schema::MayBlock => rt.cost.mb_call_extra,
            Schema::ContPassing => rt.cost.cp_call_extra,
        };
        rt.charge(node, rt.cost.plain_call + extra);
    }

    let conv = match schema {
        Schema::NonBlocking => Conv::Nb,
        Schema::MayBlock => Conv::Mb,
        Schema::ContPassing => Conv::Cp(cp_info),
    };
    let out = run_seq(rt, node, target, callee, args, conv)?;

    if !inlined && !matches!(out, SeqOutcome::Blocked { .. }) {
        // Completed on the stack: count it under its schema.
        let c = rt.ctr(node);
        match schema {
            Schema::NonBlocking => c.stack_nb += 1,
            Schema::MayBlock => c.stack_mb += 1,
            Schema::ContPassing => c.stack_cp += 1,
        }
        rt.emit(
            node,
            crate::trace::TraceEvent::StackComplete {
                node: NodeId(node as u32),
                method: callee,
                schema,
            },
        );
    }
    Ok(out)
}
