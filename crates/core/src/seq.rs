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
//! *When* each of these happens is decided by the call protocol
//! (`call.rs`), which every `Invoke` and `Forward` here goes through; this
//! file owns what the stack side contributes to it: the calling
//! conventions and their selection (`Conv`, `call_seq_schema`, with the
//! §4.1 depth guard), and unwinding — the `SeqOutcome` enum, whose
//! invariants are documented on its variants, and the frame's fallback and
//! shell adoption (`SeqState`).

use crate::call::{self, Caller};
use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, WaitState};
use crate::error::Trap;
use crate::exec::{self, Next};
use crate::rt::Runtime;
use hem_analysis::Schema;
use hem_ir::{Instr, MethodId, ObjRef, Slot, Value};
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
pub(crate) struct SeqState {
    pub(crate) fr: ActFrame,
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
                let (tobj, a) = exec::read_call(&st.fr, target, args)?;
                let caller = Caller::StackInvoke {
                    st: &mut st,
                    slot: *slot,
                };
                if let Some(out) = call::invoke(rt, node, caller, tobj, *callee, a)? {
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
                    let wait = WaitState::Waiting { mask, missing };
                    return Ok(st.fall_back(rt, node, pc, wait)?.1);
                }
            }
            Instr::Multicast { .. } | Instr::Reduce { .. } | Instr::Barrier { .. } => {
                let op = exec::read_collective(rt, &st.fr, node, ins)?;
                let caller = Caller::StackInvoke {
                    slot: op.slot,
                    st: &mut st,
                };
                if let Some(out) = call::collective(rt, node, caller, op)? {
                    return Ok(out);
                }
                st.fr.pc += 1;
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
                // Fig. 7: our continuation — still implicit in `info` — goes
                // to the next method.
                let (tobj, a) = exec::read_call(&st.fr, target, args)?;
                let out = call::invoke(rt, node, Caller::StackForward { info }, tobj, *callee, a)?;
                return Ok(out.expect("a forward ends its frame"));
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
                exec::store_cont(rt, node, &st.fr, *field, idx.as_ref(), cont)?;
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

impl SeqState {
    /// Fall back: move the stack frame into a lazily created heap context
    /// and produce the unwinding outcome (with the context's index). A
    /// fallback from a non-blocking method is a broken compiler promise
    /// (e.g. an `AlwaysLocal` hint on a remote object) and traps loudly.
    pub(crate) fn fall_back(
        &mut self,
        rt: &mut Runtime,
        node: usize,
        next_pc: u32,
        wait: WaitState,
    ) -> Result<(u32, SeqOutcome), Trap> {
        if matches!(self.conv, Conv::Nb) {
            return Err(Trap::at(
                self.fr.method,
                self.fr.pc,
                "non-blocking method attempted to block (locality hint violated?)",
            ));
        }
        let ctx = rt.fallback_ctx(node, &mut self.fr, next_pc, wait);
        Ok((ctx, self.blocked(rt, node, ctx)))
    }

    /// Adopt a shell context created on our behalf and produce the outcome.
    pub(crate) fn adopt(
        &mut self,
        rt: &mut Runtime,
        node: usize,
        shell: u32,
        next_pc: u32,
    ) -> SeqOutcome {
        rt.adopt_shell(node, shell, &mut self.fr, next_pc);
        self.blocked(rt, node, shell)
    }

    fn blocked(&mut self, rt: &mut Runtime, node: usize, ctx: u32) -> SeqOutcome {
        match self.consumed.take() {
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
}

/// Run a local callee through its selected sequential schema, charging the
/// schema's call cost (or the speculative-inlining guard) and counting the
/// completion. Its one caller is the call protocol ([`crate::call::invoke`]),
/// which stack callers, heap-context callers, wrappers and lock grants share.
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
