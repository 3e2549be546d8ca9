//! Instrumentation counters.
//!
//! Every table and figure in the paper's evaluation is derived from these:
//! Table 2 from instruction deltas, Table 4–6 from per-mode cycle totals and
//! local/remote invocation ratios, Figure 9 from `ctx_alloc` counts.

use crate::Cycles;

/// Per-node event counters. All counts are cumulative over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions (cost units) executed on this node.
    pub instructions: Cycles,
    /// Invocations that ran to completion on the stack, by schema.
    pub stack_nb: u64,
    /// May-block schema stack completions.
    pub stack_mb: u64,
    /// Continuation-passing schema stack completions.
    pub stack_cp: u64,
    /// Invocations speculatively inlined (local, unlocked, non-blocking).
    pub inlined: u64,
    /// Heap-based (parallel-version) invocations started.
    pub par_invokes: u64,
    /// Heap contexts allocated (Fig. 9 counts these).
    pub ctx_alloc: u64,
    /// Heap contexts freed.
    pub ctx_free: u64,
    /// Stack→heap fallbacks (lazy context creations caused by unwinding).
    pub fallbacks: u64,
    /// Context suspensions (touch misses, lock waits).
    pub suspends: u64,
    /// Context resumptions.
    pub resumes: u64,
    /// Request messages sent from this node.
    pub msgs_sent: u64,
    /// Reply messages sent from this node.
    pub replies_sent: u64,
    /// Payload words sent from this node in request messages.
    pub req_words_sent: u64,
    /// Payload words sent from this node in reply messages.
    pub reply_words_sent: u64,
    /// Messages handled on this node.
    pub msgs_handled: u64,
    /// Invocations whose target was local at the time of the check.
    pub local_invokes: u64,
    /// Invocations whose target was remote at the time of the check.
    pub remote_invokes: u64,
    /// Touch operations executed.
    pub touches: u64,
    /// Touches that found at least one unresolved future.
    pub touch_misses: u64,
    /// Lock acquisitions that found the lock held.
    pub lock_conflicts: u64,
    /// Continuations materialized lazily (CP schema, §3.2.3).
    pub conts_created: u64,
    /// Forwarded invocations executed entirely on the stack.
    pub stack_forwards: u64,
    /// Invocations executed directly from a message handler (wrappers).
    pub wrapper_runs: u64,
    /// Proxy continuations synthesized for handler-side CP execution.
    pub proxy_conts: u64,
    /// Data messages retransmitted after an ack timeout (reliable
    /// transport only).
    pub retransmits: u64,
    /// Transport acknowledgements sent from this node.
    pub acks_sent: u64,
    /// Transport acknowledgements handled on this node.
    pub acks_handled: u64,
    /// Received data messages discarded as duplicates (wire duplication or
    /// a retransmit racing its original).
    pub dups_suppressed: u64,
    /// Collectives (multicast/reduce/barrier) initiated on this node.
    pub coll_initiated: u64,
    /// Collective legs injected from this node (down-legs at the
    /// initiator, up-legs at members).
    pub coll_legs_sent: u64,
    /// Collective legs handled on this node.
    pub coll_legs_handled: u64,
    /// Reduction contributions folded on this node (own values and child
    /// up-legs).
    pub coll_contribs: u64,
    /// Payload words sent from this node in collective legs.
    pub coll_words_sent: u64,
}

impl Counters {
    /// Add another counter set into this one (for machine-wide totals).
    pub fn merge(&mut self, other: &Counters) {
        self.instructions += other.instructions;
        self.stack_nb += other.stack_nb;
        self.stack_mb += other.stack_mb;
        self.stack_cp += other.stack_cp;
        self.inlined += other.inlined;
        self.par_invokes += other.par_invokes;
        self.ctx_alloc += other.ctx_alloc;
        self.ctx_free += other.ctx_free;
        self.fallbacks += other.fallbacks;
        self.suspends += other.suspends;
        self.resumes += other.resumes;
        self.msgs_sent += other.msgs_sent;
        self.replies_sent += other.replies_sent;
        self.req_words_sent += other.req_words_sent;
        self.reply_words_sent += other.reply_words_sent;
        self.msgs_handled += other.msgs_handled;
        self.local_invokes += other.local_invokes;
        self.remote_invokes += other.remote_invokes;
        self.touches += other.touches;
        self.touch_misses += other.touch_misses;
        self.lock_conflicts += other.lock_conflicts;
        self.conts_created += other.conts_created;
        self.stack_forwards += other.stack_forwards;
        self.wrapper_runs += other.wrapper_runs;
        self.proxy_conts += other.proxy_conts;
        self.retransmits += other.retransmits;
        self.acks_sent += other.acks_sent;
        self.acks_handled += other.acks_handled;
        self.dups_suppressed += other.dups_suppressed;
        self.coll_initiated += other.coll_initiated;
        self.coll_legs_sent += other.coll_legs_sent;
        self.coll_legs_handled += other.coll_legs_handled;
        self.coll_contribs += other.coll_contribs;
        self.coll_words_sent += other.coll_words_sent;
    }

    /// Total method invocations observed (stack completions + heap starts +
    /// speculative inlines).
    pub fn total_invokes(&self) -> u64 {
        self.stack_nb + self.stack_mb + self.stack_cp + self.inlined + self.par_invokes
    }

    /// Ratio of local to remote invocations, the paper's data-locality
    /// metric (Tables 4 and 6). Returns `f64::INFINITY` when no remote
    /// invocations occurred.
    pub fn local_remote_ratio(&self) -> f64 {
        if self.remote_invokes == 0 {
            f64::INFINITY
        } else {
            self.local_invokes as f64 / self.remote_invokes as f64
        }
    }

    /// Fraction of invocations that were local: `local / (local + remote)`.
    pub fn local_fraction(&self) -> f64 {
        let total = self.local_invokes + self.remote_invokes;
        if total == 0 {
            1.0
        } else {
            self.local_invokes as f64 / total as f64
        }
    }
}

/// Machine-global scheduler counters for the event-index dispatch loop.
///
/// The runtime's `run_to_quiescence` selects the next actionable
/// `(time, kind, node)` event from a binary heap with lazy invalidation;
/// these counters expose how hard that index is working so the O(log P)
/// claim can be measured rather than asserted (see the `sched_throughput`
/// bench).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events actually dispatched (messages handled + contexts/grants run).
    pub events_dispatched: u64,
    /// Candidate entries pushed onto the event index.
    pub heap_pushes: u64,
    /// Popped entries that were stale (superseded or consumed) and were
    /// discarded or re-keyed instead of dispatched.
    pub stale_pops: u64,
    /// High-water mark of the event index depth.
    pub max_heap_depth: u64,
    /// Trace records evicted from a bounded trace ring over the whole run
    /// (cumulative — unlike the ring's own drain-relative counter). A
    /// non-zero value means any report derived from the trace was computed
    /// from a *truncated* event stream.
    pub dropped_events: u64,
    /// Parallel virtual-time windows executed (sharded and speculative
    /// executors; 0 under the single-threaded dispatchers, like the heap
    /// diagnostics above).
    pub windows: u64,
    /// Events the window coordinator stepped serially (timers, or window
    /// bases no window could cover).
    pub serial_steps: u64,
    /// Events dispatched inside parallel windows (occupancy numerator:
    /// `window_events / windows` is the mean events per window).
    pub window_events: u64,
    /// Most events dispatched in any single parallel window.
    pub max_window_events: u64,
    /// Whole worker runtimes shipped through an OS channel to reach or
    /// leave a worker thread. 0 under every executor: the one window
    /// engine pins worker state to its thread and never moves a runtime.
    /// Kept so reports and benchmark baselines stay comparable.
    pub runtime_moves: u64,
    /// Coordinator channel rendezvous (a job send paired with a result
    /// receive). 0 under every executor: window edges advance by an
    /// atomic epoch publication instead.
    pub coord_roundtrips: u64,
    /// Times a later `run_until` chunk reused the persistent shard pool
    /// (worker threads, shard map, and pinned worker runtimes) instead of
    /// rebuilding it. Open-system serve mode calls `run_until` once per
    /// arrival, so this counts `chunks - 1` on the steady-state path.
    pub pool_reuses: u64,
}

/// Machine-global interconnect traffic and fault-injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages injected into the interconnect (including lost ones).
    pub sent: u64,
    /// Message copies delivered (duplicates count individually).
    pub delivered: u64,
    /// Payload words that actually crossed the wire.
    pub words: u64,
    /// Words carried by first-copy application payloads (requests and
    /// replies). `words == data_words + ack_words + retx_words`.
    pub data_words: u64,
    /// Words carried by transport acknowledgement frames.
    pub ack_words: u64,
    /// Words carried by retransmitted data-frame copies.
    pub retx_words: u64,
    /// Words carried by first-copy collective legs.
    /// `words == data_words + ack_words + retx_words + coll_words`.
    pub coll_words: u64,
    /// Multicasts planned.
    pub multicasts: u64,
    /// Reductions planned.
    pub reduces: u64,
    /// Barriers planned.
    pub barriers: u64,
    /// Collective down-legs planned.
    pub coll_legs: u64,
    /// Fault-injection counters (all zero with no fault plan installed).
    pub faults: crate::fault::FaultStats,
}

impl NetStats {
    /// Field-wise sum of another snapshot into this one. Every field is an
    /// order-independent total, so folding per-shard network stats together
    /// in any order reproduces the counters a single shared network would
    /// have accumulated.
    pub fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.words += other.words;
        self.data_words += other.data_words;
        self.ack_words += other.ack_words;
        self.retx_words += other.retx_words;
        self.coll_words += other.coll_words;
        self.multicasts += other.multicasts;
        self.reduces += other.reduces;
        self.barriers += other.barriers;
        self.coll_legs += other.coll_legs;
        self.faults.absorb(&other.faults);
    }
}

/// Machine-wide view of a finished (or in-progress) run.
#[derive(Debug, Clone, Default)]
pub struct MachineStats {
    /// One counter set per node.
    pub per_node: Vec<Counters>,
    /// Per-node finishing times (cycles).
    pub node_time: Vec<Cycles>,
    /// Scheduler (event-index) counters, machine-global.
    pub sched: SchedStats,
    /// Interconnect traffic and fault counters, machine-global.
    pub net: NetStats,
}

impl MachineStats {
    /// Create stats for an `n`-node machine.
    pub fn new(n: usize) -> Self {
        MachineStats {
            per_node: vec![Counters::default(); n],
            node_time: vec![0; n],
            sched: SchedStats::default(),
            net: NetStats::default(),
        }
    }

    /// Aggregate counters over all nodes.
    pub fn totals(&self) -> Counters {
        let mut t = Counters::default();
        for c in &self.per_node {
            t.merge(c);
        }
        t
    }

    /// Makespan: the time at which the last node finished.
    pub fn makespan(&self) -> Cycles {
        self.node_time.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = Counters {
            instructions: 10,
            ctx_alloc: 2,
            ..Default::default()
        };
        let b = Counters {
            instructions: 5,
            ctx_alloc: 1,
            fallbacks: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.ctx_alloc, 3);
        assert_eq!(a.fallbacks, 7);
    }

    #[test]
    fn ratios() {
        let c = Counters {
            local_invokes: 90,
            remote_invokes: 10,
            ..Default::default()
        };
        assert!((c.local_remote_ratio() - 9.0).abs() < 1e-12);
        assert!((c.local_fraction() - 0.9).abs() < 1e-12);

        let none = Counters::default();
        assert!(none.local_remote_ratio().is_infinite());
        assert_eq!(none.local_fraction(), 1.0);
    }

    #[test]
    fn makespan_is_max() {
        let mut s = MachineStats::new(3);
        s.node_time = vec![5, 42, 7];
        assert_eq!(s.makespan(), 42);
        assert_eq!(s.totals(), Counters::default());
    }

    #[test]
    fn totals_sum_across_nodes() {
        // Machine-wide totals are the field-wise sum of the per-node sets:
        // no field is dropped, none is double-counted.
        let mut s = MachineStats::new(3);
        for (i, c) in s.per_node.iter_mut().enumerate() {
            let k = (i + 1) as u64;
            c.msgs_sent = k;
            c.replies_sent = 10 * k;
            c.req_words_sent = 100 * k;
            c.reply_words_sent = 1000 * k;
            c.stack_nb = k;
            c.par_invokes = 2 * k;
            c.inlined = 3 * k;
            c.ctx_alloc = 4 * k;
            c.ctx_free = 4 * k;
        }
        let t = s.totals();
        assert_eq!(t.msgs_sent, 1 + 2 + 3);
        assert_eq!(t.replies_sent, 60);
        assert_eq!(t.req_words_sent, 600);
        assert_eq!(t.reply_words_sent, 6000);
        assert_eq!(t.total_invokes(), (1 + 2 + 3) * 6);
        assert_eq!(t.ctx_alloc, t.ctx_free);
    }

    #[test]
    fn merge_is_associative_on_word_counters() {
        let mk = |a: u64, b: u64| Counters {
            req_words_sent: a,
            reply_words_sent: b,
            acks_sent: a + b,
            ..Default::default()
        };
        let (x, y, z) = (mk(1, 2), mk(3, 4), mk(5, 6));
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        assert_eq!(left, right);
    }

    #[test]
    fn total_invokes_counts_all_paths() {
        let c = Counters {
            stack_nb: 1,
            stack_mb: 2,
            stack_cp: 3,
            inlined: 4,
            par_invokes: 5,
            ..Default::default()
        };
        assert_eq!(c.total_invokes(), 15);
    }
}
