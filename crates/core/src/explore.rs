//! The reference dispatch loop — the executable specification of the
//! scheduler — with seeded tie-breaking and a bounded-exhaustive explorer
//! over tie-break decisions.
//!
//! The selection rule is one sentence: dispatch the minimum `(virtual
//! time, kind, node)` candidate. [`Runtime::run_reference`] implements
//! that sentence literally — re-scan every node per event, keep the
//! candidates at the minimum time, sort them by `(kind, node)`, take the
//! first — at O(P) per event, and the production loop
//! ([`crate::sched`]) is checked against it trace record by trace record.
//! It runs only when a test arms it ([`Runtime::arm_reference_loop`], or
//! [`Runtime::set_tie_break`] with a non-default policy), through one
//! `Option` test in `run_until`.
//!
//! The rule is deterministic, but candidates **tied on
//! virtual time** are causally independent — each is enabled *now*, on a
//! different `(node, kind)`, and dispatching any one of them first is a
//! legal execution of the simulated machine (messages still deliver no
//! earlier than their send time, and a node's own clock only moves when
//! its event runs). The default rule is therefore one schedule out of
//! many; order-dependent bugs in unwinding, continuation forwarding, or
//! the §4.1 revert-to-parallel policy can hide behind it.
//!
//! [`TieBreak`] makes the tie rule a policy: keep the canonical order
//! ([`TieBreak::Det`]), pick uniformly from the tied set with a seeded
//! RNG ([`TieBreak::Seeded`]), or replay a recorded decision vector
//! ([`TieBreak::Replay`]). Every non-forced decision is logged as a
//! [`TieChoice`], so a failing schedule is reproducible: print the
//! choice vector, rerun under `Replay`.
//!
//! [`Explorer`] drives depth-first bounded-exhaustive enumeration of the
//! decision tree (the stateless-model-checking loop): run under a prefix,
//! read back the full decision log, advance the rightmost decision that
//! still has unexplored siblings.

use crate::error::Trap;
use crate::rt::Runtime;
use crate::sched::EventKey;
use hem_machine::Cycles;

/// How the event loop breaks ties among candidates with equal virtual
/// time. Set via [`crate::Runtime::set_tie_break`]; the default
/// ([`TieBreak::Det`]) leaves the executor selected by
/// [`crate::Runtime::sched_impl`] in charge and costs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Canonical order: minimum `(kind, node)` among the tied set — the
    /// schedule every production executor produces.
    #[default]
    Det,
    /// Uniform choice from the tied set, from a SplitMix64 stream over
    /// the given seed.
    Seeded(u64),
    /// Replay a recorded decision vector: the i-th *non-forced* decision
    /// (tie arity > 1) picks `v[i]` (clamped to the arity; exhausted
    /// vectors pick 0, i.e. fall back to canonical order).
    Replay(Vec<u32>),
}

/// One logged tie-break decision: which of the `arity` tied candidates
/// (in canonical `(kind, node)` order) was dispatched. Forced decisions
/// (arity 1) are not logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TieChoice {
    /// Index picked, `0 <= choice < arity`.
    pub choice: u32,
    /// Number of candidates tied at the minimum time.
    pub arity: u32,
}

/// State of an armed reference loop: the tie policy and the log of
/// non-forced decisions taken under it.
#[derive(Debug, Default)]
pub(crate) struct Explore {
    /// A [`TieBreak::Seeded`] payload doubles as the SplitMix64 state.
    policy: TieBreak,
    log: Vec<TieChoice>,
}

impl Explore {
    /// Which of `arity > 1` tied candidates (in canonical order) to
    /// dispatch; logs the decision.
    fn pick(&mut self, arity: u32) -> u32 {
        let choice = match &mut self.policy {
            TieBreak::Det => 0,
            TieBreak::Seeded(state) => (splitmix64(state) % arity as u64) as u32,
            // The i-th non-forced decision is the i-th log entry.
            TieBreak::Replay(v) => v.get(self.log.len()).map_or(0, |&c| c.min(arity - 1)),
        };
        self.log.push(TieChoice { choice, arity });
        choice
    }
}

impl Runtime {
    /// Select how same-timestamp ties are broken. [`TieBreak::Det`] (the
    /// default) means "production schedule": it disarms the reference
    /// loop and hands [`Self::run_until`] back to [`Self::sched_impl`].
    /// Any other policy arms the reference loop with it, a fresh decision
    /// log and (for [`TieBreak::Seeded`]) a fresh RNG stream.
    pub fn set_tie_break(&mut self, policy: TieBreak) {
        self.explore = (policy != TieBreak::Det).then(|| {
            Box::new(Explore {
                policy,
                log: Vec::new(),
            })
        });
    }

    /// Route [`Self::run_until`] through the reference loop in canonical
    /// order — the executable specification the bit-identity suites diff
    /// every [`crate::SchedImpl`] against. Overrides `sched_impl` until
    /// [`Self::set_tie_break`]`(TieBreak::Det)` disarms it.
    pub fn arm_reference_loop(&mut self) {
        self.explore = Some(Box::default());
    }

    /// The non-forced tie decisions the reference loop has taken since it
    /// was armed, in order (empty while it is not).
    pub fn tie_log(&self) -> &[TieChoice] {
        self.explore.as_ref().map_or(&[], |ex| &ex.log)
    }

    /// The decision vector alone — feed to [`TieBreak::Replay`] to rerun
    /// this exact schedule.
    pub fn tie_choices(&self) -> Vec<u32> {
        self.tie_log().iter().map(|t| t.choice).collect()
    }

    /// The reference dispatch loop (module docs): collect *every*
    /// candidate tied at the minimum time — all of them causally enabled
    /// now — and let the armed [`TieBreak`] policy pick which to dispatch,
    /// logging each non-forced decision. Choice 0 in canonical `(kind,
    /// node)` order is the deterministic selection, so [`TieBreak::Det`]
    /// and an empty replay vector both reproduce the production schedule.
    pub(crate) fn run_reference(&mut self, horizon: Cycles) -> Result<(), Trap> {
        self.drop_index();
        let mut cands: Vec<EventKey> = Vec::new();
        loop {
            cands.clear();
            for (i, n) in self.nodes.iter().enumerate() {
                if let Some(e) = n.inbox.peek() {
                    cands.push((n.time.max(e.deliver), 0, i as u32));
                }
                if n.has_local_work() {
                    cands.push((n.time, 1, i as u32));
                }
                if let Some(dl) = n.tx.first_deadline() {
                    cands.push((n.time.max(dl), 2, i as u32));
                }
            }
            let Some(min_t) = cands.iter().map(|c| c.0).min() else {
                return Ok(());
            };
            if min_t >= horizon {
                return Ok(());
            }
            cands.retain(|c| c.0 == min_t);
            cands.sort_unstable_by_key(|c| (c.1, c.2));
            let pick = match cands.len() as u32 {
                1 => 0,
                arity => self.explore.as_mut().expect("armed").pick(arity),
            };
            let (t, kind, node) = cands[pick as usize];
            self.dispatch_event(t, kind, node as usize)?;
        }
    }
}

/// Advance a SplitMix64 stream (same generator the test shims use).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Depth-first bounded-exhaustive enumeration over tie-break decision
/// vectors.
///
/// ```text
/// let mut ex = Explorer::new(max_schedules);
/// while let Some(plan) = ex.next_plan() {
///     // fresh runtime; rt.set_tie_break(TieBreak::Replay(plan));
///     // run the kernel; assert whatever must hold on every schedule
///     ex.record(rt.tie_log());
/// }
/// assert!(ex.complete());
/// ```
///
/// `record` scans the *actual* decision log of the run (which extends the
/// plan with canonical-order choices wherever the plan ran out) for the
/// rightmost decision with an unexplored sibling and makes that the next
/// plan — the standard DFS over a tree whose branching is only discovered
/// by running.
#[derive(Debug)]
pub struct Explorer {
    prefix: Vec<u32>,
    runs: usize,
    max_runs: usize,
    done: bool,
    exhausted: bool,
    awaiting_record: bool,
}

impl Explorer {
    /// Explore at most `max_runs` schedules (the bound of
    /// "bounded-exhaustive").
    pub fn new(max_runs: usize) -> Explorer {
        Explorer {
            prefix: Vec::new(),
            runs: 0,
            max_runs,
            done: false,
            exhausted: false,
            awaiting_record: false,
        }
    }

    /// The next decision vector to run under, or `None` when the tree is
    /// exhausted or the bound is hit. Each returned plan must be followed
    /// by exactly one [`Explorer::record`] call.
    pub fn next_plan(&mut self) -> Option<Vec<u32>> {
        assert!(!self.awaiting_record, "next_plan before record");
        if self.done || self.runs >= self.max_runs {
            return None;
        }
        self.runs += 1;
        self.awaiting_record = true;
        Some(self.prefix.clone())
    }

    /// Feed back the full decision log of the run started by the last
    /// [`Explorer::next_plan`]; computes the next unexplored prefix.
    pub fn record(&mut self, log: &[TieChoice]) {
        assert!(self.awaiting_record, "record without next_plan");
        self.awaiting_record = false;
        for p in (0..log.len()).rev() {
            if log[p].choice + 1 < log[p].arity {
                self.prefix.clear();
                self.prefix.extend(log[..p].iter().map(|t| t.choice));
                self.prefix.push(log[p].choice + 1);
                return;
            }
        }
        self.done = true;
        self.exhausted = true;
    }

    /// Schedules run so far.
    pub fn schedules_run(&self) -> usize {
        self.runs
    }

    /// True when the whole decision tree was enumerated (the run bound
    /// did not truncate the search).
    pub fn complete(&self) -> bool {
        self.exhausted
    }
}

/// Seeded single-point mutants of the runtime's protocol code, for
/// proving the conformance harness has teeth. Compiled only under
/// `cfg(test)` or the `mutants` cargo feature, and selected at
/// [`crate::Runtime::new`] time from the `HEM_MUTANT` environment
/// variable — so `HEM_MUTANT=<name> cargo test --features mutants` runs
/// the *entire* suite against the mutated runtime.
///
/// Each mutant is chosen to be silent along the default deterministic
/// schedule (same final state, or a divergence only a structural check
/// can see) so that catching it requires the sanitizer or the schedule
/// explorer; see `tests/schedule_explore.rs` for the per-mutant kill
/// assertions and DESIGN.md §5.13 for the rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// Wake a waiting context when its touch still has one unresolved
    /// slot. The early-woken context re-suspends, so the final state is
    /// unchanged — only the sanitizer's wake check sees it.
    EagerWake,
    /// Deliver a root reply twice. The second delivery overwrites the
    /// result with the same value — only the sanitizer's one-shot reply
    /// check sees it.
    DoubleRootReply,
    /// Mark slot 0, instead of the caller's return slot, pending when
    /// building a shell context (§3.2.3). Adoption discards the shell's
    /// slot states, so behavior is unchanged — the continuation-slot
    /// offset invariant is purely structural.
    ShellSlotZero,
    /// Drop the join-counter decrement for queue-delivered fills into
    /// joins with 2+ outstanding replies: the join never completes and
    /// its awaiter leaks.
    DropJoinDecrement,
    /// Skip the §4.1 revert-to-parallel depth guard: deep sequential
    /// chains keep recursing on the host stack past `max_seq_depth`
    /// instead of diverting through a heap context.
    SkipDepthGuard,
    /// Keep a node's speculatively advanced wire-sequence counter across a
    /// Time-Warp rollback instead of restoring the checkpointed value
    /// (rollback bookkeeping bug, see `crate::timewarp`). Re-sent
    /// messages then carry fresh sequence numbers, so fault fates and
    /// same-cycle delivery tie-breaks are re-drawn differently from the
    /// cancelled attempt — invisible under every non-speculative
    /// scheduler (no rollbacks happen), caught only by diffing the
    /// speculative path against `SchedImpl::EventIndex`.
    SkipWireSeqRestore,
    /// Price every modeled-collective down leg at one wire hop instead of
    /// its fan-out-tree depth (see `Runtime::issue_collective`). A pure,
    /// uniform timing change: traces stay internally consistent and every
    /// scheduler implementation reproduces it bit-identically, so
    /// cross-executor diffing can *not* see it — it is caught only by an
    /// explicit assertion on the collective delivery schedule
    /// (`tests/collectives.rs`).
    CollectiveSkipsHopCost,
}

impl Mutant {
    /// Every mutant, for smoke-check loops.
    pub const ALL: [Mutant; 7] = [
        Mutant::EagerWake,
        Mutant::DoubleRootReply,
        Mutant::ShellSlotZero,
        Mutant::DropJoinDecrement,
        Mutant::SkipDepthGuard,
        Mutant::SkipWireSeqRestore,
        Mutant::CollectiveSkipsHopCost,
    ];

    /// The `HEM_MUTANT` spelling of this mutant.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::EagerWake => "eager-wake",
            Mutant::DoubleRootReply => "double-root-reply",
            Mutant::ShellSlotZero => "shell-slot-zero",
            Mutant::DropJoinDecrement => "drop-join-decrement",
            Mutant::SkipDepthGuard => "skip-depth-guard",
            Mutant::SkipWireSeqRestore => "skip-wire-seq-restore",
            Mutant::CollectiveSkipsHopCost => "collective-skips-hop-cost",
        }
    }

    /// Read `HEM_MUTANT`; unset means no mutation, an unknown name is a
    /// loud error (a typo must never silently run the unmutated runtime).
    #[cfg(any(test, feature = "mutants"))]
    pub fn from_env() -> Option<Mutant> {
        let v = std::env::var("HEM_MUTANT").ok()?;
        let v = v.trim();
        if v.is_empty() {
            return None;
        }
        Some(
            Mutant::ALL
                .into_iter()
                .find(|m| m.name() == v)
                .unwrap_or_else(|| panic!("unknown HEM_MUTANT {v:?}")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn choices(v: &[(u32, u32)]) -> Vec<TieChoice> {
        v.iter()
            .map(|&(choice, arity)| TieChoice { choice, arity })
            .collect()
    }

    /// Drive the explorer against a fixed synthetic tree: every schedule
    /// has two decision points of arity 2 except the (1, _) subtree which
    /// has one extra point. The DFS must visit all 6 leaves exactly once.
    #[test]
    fn dfs_enumerates_a_small_tree() {
        let mut seen = Vec::new();
        let mut ex = Explorer::new(100);
        while let Some(plan) = ex.next_plan() {
            // Simulate the run: extend the plan with zeros to the tree's
            // depth for this branch.
            let a = plan.first().copied().unwrap_or(0);
            let b = plan.get(1).copied().unwrap_or(0);
            let log = if a == 1 {
                let c = plan.get(2).copied().unwrap_or(0);
                seen.push(vec![a, b, c]);
                choices(&[(a, 2), (b, 2), (c, 2)])
            } else {
                seen.push(vec![a, b]);
                choices(&[(a, 2), (b, 2)])
            };
            ex.record(&log);
        }
        assert!(ex.complete());
        assert_eq!(ex.schedules_run(), 6);
        let expect: Vec<Vec<u32>> = vec![
            vec![0, 0],
            vec![0, 1],
            vec![1, 0, 0],
            vec![1, 0, 1],
            vec![1, 1, 0],
            vec![1, 1, 1],
        ];
        assert_eq!(seen, expect);
    }

    #[test]
    fn dfs_respects_the_bound() {
        let mut ex = Explorer::new(3);
        let mut n = 0;
        while let Some(plan) = ex.next_plan() {
            let a = plan.first().copied().unwrap_or(0);
            let b = plan.get(1).copied().unwrap_or(0);
            ex.record(&choices(&[(a, 4), (b, 4)]));
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(!ex.complete(), "bound must report truncation");
    }

    #[test]
    fn tieless_run_is_complete_after_one_schedule() {
        let mut ex = Explorer::new(10);
        let plan = ex.next_plan().unwrap();
        assert!(plan.is_empty());
        ex.record(&[]);
        assert!(ex.next_plan().is_none());
        assert!(ex.complete());
        assert_eq!(ex.schedules_run(), 1);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn mutant_names_round_trip() {
        for m in Mutant::ALL {
            assert!(Mutant::ALL.iter().any(|x| x.name() == m.name() && *x == m));
        }
    }
}
