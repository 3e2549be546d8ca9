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
//! shell adoption (`SeqState`, a stack frame's `exec::Activation`).

use crate::call::{self, Caller};
use crate::cont::{CallerInfo, Continuation};
use crate::context::{ActFrame, WaitState};
use crate::error::Trap;
use crate::exec::{self, Activation, CollOp};
use crate::rt::Runtime;
use hem_analysis::Schema;
use hem_ir::{MethodId, ObjRef, Operand, Program, Slot, Value};
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

/// Run `method` on local object `obj` sequentially under `conv`: a plain
/// call on the frame store (`exec::run_nested`).
pub(crate) fn run_seq(
    rt: &mut Runtime,
    prog: &Program,
    node: usize,
    obj: ObjRef,
    method: MethodId,
    args: Vec<Value>,
    conv: Conv,
) -> Result<SeqOutcome, Trap> {
    let st = |fr| SeqState {
        fr,
        consumed: None,
        conv,
    };
    exec::run_nested(rt, prog, node, obj, method, args, st)
}

impl Activation for SeqState {
    type End = SeqOutcome;

    fn fr(&mut self) -> &mut ActFrame {
        &mut self.fr
    }

    #[inline(always)]
    fn invoke(
        &mut self,
        rt: &mut Runtime,
        prog: &Program,
        node: usize,
        slot: Option<Slot>,
        callee: MethodId,
        (target, args): (ObjRef, Vec<Value>),
    ) -> Result<Option<SeqOutcome>, Trap> {
        let caller = Caller::StackInvoke { st: self, slot };
        call::invoke(rt, prog, node, caller, target, callee, args)
    }

    fn collective(
        &mut self,
        rt: &mut Runtime,
        _: &Program,
        node: usize,
        slot: Option<Slot>,
        op: CollOp,
    ) -> Result<Option<SeqOutcome>, Trap> {
        call::collective(rt, node, Caller::StackInvoke { st: self, slot }, op)
    }

    fn forward(
        &mut self,
        rt: &mut Runtime,
        prog: &Program,
        node: usize,
        target: &Operand,
        callee: MethodId,
        args: &[Operand],
    ) -> Result<SeqOutcome, Trap> {
        let (method, pc) = (self.fr.method, self.fr.pc);
        let Conv::Cp(info) = self.conv else {
            return Err(Trap::at(method, pc, "forward outside CP convention"));
        };
        if self.consumed.is_some() {
            return Err(Trap::at(method, pc, "forward after continuation consumed"));
        }
        // Fig. 7: our continuation — still implicit in `info` — goes to the
        // next method.
        let (tobj, a) = exec::read_call(rt, &self.fr, target, args)?;
        let caller = Caller::StackForward { info };
        let out = call::invoke(rt, prog, node, caller, tobj, callee, a)?;
        Ok(out.expect("a forward ends its frame"))
    }

    fn suspend(
        &mut self,
        rt: &mut Runtime,
        node: usize,
        wait: WaitState,
    ) -> Result<SeqOutcome, Trap> {
        Ok(self.fall_back(rt, node, self.fr.pc, wait)?.1)
    }

    fn reply(&mut self, _: &mut Runtime, _: usize, v: Value) -> Result<SeqOutcome, Trap> {
        if self.consumed.is_some() {
            let (method, pc) = (self.fr.method, self.fr.pc);
            return Err(Trap::at(method, pc, "reply after continuation consumed"));
        }
        Ok(SeqOutcome::Value(v))
    }

    fn halt(&mut self, _: &mut Runtime, _: usize) -> SeqOutcome {
        match self.consumed.take() {
            Some(shell) => SeqOutcome::Consumed { shell },
            None => SeqOutcome::Halted,
        }
    }

    fn store_cont(&mut self, rt: &mut Runtime, node: usize) -> Result<Continuation, Trap> {
        let (method, pc) = (self.fr.method, self.fr.pc);
        let Conv::Cp(info) = self.conv else {
            return Err(Trap::at(method, pc, "store-cont outside CP convention"));
        };
        if self.consumed.is_some() {
            return Err(Trap::at(method, pc, "continuation already consumed"));
        }
        let (cont, shell) = rt.materialize_cont(node, info)?;
        self.consumed = Some(shell);
        Ok(cont)
    }
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
        let ctx = rt.fallback_ctx(node, &self.fr, next_pc, wait);
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
        rt.adopt_shell(node, shell, &self.fr, next_pc);
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
///
/// Inlined into `invoke`'s call sites like `invoke` itself: out of line,
/// `hemprof fib --p 1 --size 30` reads 10 % slower. Not in debug builds,
/// which are unoptimized and keep every inlined copy's locals apart: there
/// it grows the frame of `wrapper::run_invocation`, which sits once on
/// the stack per nested send-time poll — and `tests/ckpt_alloc.rs` nests
/// 255 arrivals deep (each request's reply polls in the next), which then
/// outgrows a test thread's 2 MiB.
#[cfg_attr(not(debug_assertions), inline(always))]
pub(crate) fn call_seq_schema(
    rt: &mut Runtime,
    prog: &Program,
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
            return Err(depth_limit(rt));
        }
        let m = prog.method(callee);
        rt.charge(node, rt.cost.par_invoke_fixed);
        let id = rt.new_ctx(node, Continuation::Unset, WaitState::Ready, false, |f| {
            f.reset(callee, target, m.locals, m.slots, &args)
        });
        rt.frames.park_args(rt.seq_depth, args);
        rt.ctr(node).par_invokes += 1;
        rt.enqueue_ready(node, id);
        return Ok(SeqOutcome::Blocked {
            ctx: id,
            shell: None,
            cont_needed: true,
        });
    }

    rt.san_seq_entry(node, target, callee);
    let inlinable = prog.method(callee).inlinable && rt.enable_inlining;
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
    let out = run_seq(rt, prog, node, target, callee, args, conv)?;

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

/// The trap of a stack chain past `max_seq_depth` that cannot divert
/// through the heap: a non-blocking chain, or the C baseline's. Inlined on
/// purpose: as a `#[cold]` call it moves `call_seq_schema`'s code, and
/// `hemprof fib` reads ~11 % slower.
#[inline(always)]
pub(crate) fn depth_limit(rt: &Runtime) -> Trap {
    let max = rt.max_seq_depth;
    Trap::new(format!(
        "sequential depth limit {max} exceeded in non-blocking chain"
    ))
}
