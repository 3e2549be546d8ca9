//! Streaming metrics aggregation over the trace stream.
//!
//! A [`Rollup`] is fed records one at a time — online, as a
//! [`hem_core::Observer`] attached to the runtime, or offline via
//! [`Rollup::from_records`] on a drained trace — and maintains the
//! aggregates the paper's tables are made of: per-method × per-node
//! invocation-path counts, per-link traffic split by cause, and log₂
//! histograms of context residency and touch latency.
//!
//! The per-record path is hot (an attached observer pays it on every
//! event of a machine-sized run — the `observer` group in
//! `sched_throughput` tracks the overhead, and EXPERIMENTS.md records
//! the measured numbers), so the internal storage is dense and flat: method/node/context ids are small dense indices,
//! so cells and open-span stamps live in single stride-indexed vectors
//! (one load, no per-row pointer chase), and links in a small
//! open-addressed table with a last-slot cache (sends are bursty per
//! link). The ordered map views reports consume are derived on demand.

use std::collections::BTreeMap;

use hem_core::{MsgCause, Observer, TraceEvent, TraceRecord};
use hem_machine::Cycles;

use crate::hist::Log2Hist;

/// Per-(method, node) invocation-path counts. Stack completions are split
/// by schema; `par_invokes` counts eager heap contexts; `fallbacks` counts
/// lazy stack→heap unwinds; `shells_adopted` counts CP shell adoptions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodCell {
    /// Non-blocking schema stack completions.
    pub stack_nb: u64,
    /// May-block schema stack completions.
    pub stack_mb: u64,
    /// Continuation-passing schema stack completions.
    pub stack_cp: u64,
    /// Speculative inlines.
    pub inlined: u64,
    /// Eager heap-context invocations.
    pub par_invokes: u64,
    /// Stack→heap fallbacks.
    pub fallbacks: u64,
    /// Shell contexts adopted by their caller.
    pub shells_adopted: u64,
}

impl MethodCell {
    /// All invocations that finished on the stack (including inlines).
    pub fn stack_total(&self) -> u64 {
        self.stack_nb + self.stack_mb + self.stack_cp + self.inlined
    }

    /// All invocations that took (or grew) a heap context.
    pub fn heap_total(&self) -> u64 {
        self.par_invokes + self.fallbacks
    }

    /// Total invocations through any path.
    pub fn total(&self) -> u64 {
        self.stack_total() + self.heap_total()
    }

    /// Fraction of invocations completing on the stack (1.0 when empty).
    pub fn stack_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            1.0
        } else {
            self.stack_total() as f64 / t as f64
        }
    }

    /// Fallbacks per stack *attempt* (stack completions + fallbacks): how
    /// often speculation failed.
    pub fn fallback_rate(&self) -> f64 {
        let attempts = self.stack_nb + self.stack_mb + self.stack_cp + self.fallbacks;
        if attempts == 0 {
            0.0
        } else {
            self.fallbacks as f64 / attempts as f64
        }
    }

    fn is_empty(&self) -> bool {
        *self == MethodCell::default()
    }

    fn merge(&mut self, o: &MethodCell) {
        self.stack_nb += o.stack_nb;
        self.stack_mb += o.stack_mb;
        self.stack_cp += o.stack_cp;
        self.inlined += o.inlined;
        self.par_invokes += o.par_invokes;
        self.fallbacks += o.fallbacks;
        self.shells_adopted += o.shells_adopted;
    }
}

/// Per-directed-link traffic, indexed by [`MsgCause`] (`Request`, `Reply`,
/// `Ack`, `Retransmit`, `Multicast`, `Reduce`, `Barrier` in that order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCell {
    /// Messages injected, by cause.
    pub msgs: [u64; 7],
    /// Payload words injected, by cause.
    pub words: [u64; 7],
}

/// Index of a cause in [`LinkCell`] arrays.
pub fn cause_idx(c: MsgCause) -> usize {
    match c {
        MsgCause::Request => 0,
        MsgCause::Reply => 1,
        MsgCause::Ack => 2,
        MsgCause::Retransmit => 3,
        MsgCause::Multicast => 4,
        MsgCause::Reduce => 5,
        MsgCause::Barrier => 6,
    }
}

impl LinkCell {
    /// Total messages over the link.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total words over the link.
    pub fn total_words(&self) -> u64 {
        self.words.iter().sum()
    }
}

/// Open-addressed `(from, to) → LinkCell` table. `std::collections::HashMap`
/// pays a SipHash per message record; active link sets are tiny (a few
/// hundred entries even at P = 256), so a Fibonacci-hashed linear-probe
/// table keeps the per-record cost at a few nanoseconds. A one-slot cache
/// short-circuits the probe entirely for back-to-back sends on the same
/// link (boundary exchanges are bursty).
#[derive(Debug, Clone)]
struct LinkTable {
    /// Packed `(from << 32) | to` keys; [`LinkTable::EMPTY`] marks a free
    /// slot (no node id is `u32::MAX` — machines are far smaller).
    keys: Vec<u64>,
    vals: Vec<LinkCell>,
    len: usize,
    /// Slot hit by the previous `entry` call.
    last: usize,
}

impl Default for LinkTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkTable {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Self {
        LinkTable {
            keys: vec![Self::EMPTY; 64],
            vals: vec![LinkCell::default(); 64],
            len: 0,
            last: 0,
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing; capacity is always a power of two.
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == key || k == Self::EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn entry(&mut self, from: u32, to: u32) -> &mut LinkCell {
        let key = ((from as u64) << 32) | to as u64;
        if self.keys[self.last] == key {
            return &mut self.vals[self.last];
        }
        let mut i = self.slot_of(key);
        if self.keys[i] == Self::EMPTY {
            if (self.len + 1) * 4 > self.keys.len() * 3 {
                self.grow();
                i = self.slot_of(key);
            }
            self.keys[i] = key;
            self.len += 1;
        }
        self.last = i;
        &mut self.vals[i]
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        self.keys = vec![Self::EMPTY; old_keys.len() * 2];
        self.vals = vec![LinkCell::default(); old_keys.len() * 2];
        self.last = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != Self::EMPTY {
                let i = self.slot_of(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = ((u32, u32), &LinkCell)> {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(k, _)| **k != Self::EMPTY)
            .map(|(k, v)| (((k >> 32) as u32, *k as u32), v))
    }
}

/// Marker for "no open span" in the per-`(node, ctx)` span stores.
const NO_SPAN: Cycles = Cycles::MAX;

/// A flat `[node][idx] → Cycles` stamp store (row stride grows by
/// re-layout, which is rare — context slab indices are dense and reused).
#[derive(Debug, Clone, Default)]
struct SpanStore {
    at: Vec<Cycles>,
    stride: usize,
    rows: usize,
}

impl SpanStore {
    #[inline]
    fn slot(&mut self, node: u32, idx: u32) -> &mut Cycles {
        let n = node as usize;
        let i = idx as usize;
        if n >= self.rows || i >= self.stride {
            self.grow(n, i);
        }
        &mut self.at[n * self.stride + i]
    }

    #[cold]
    fn grow(&mut self, n: usize, i: usize) {
        let rows = self.rows.max(n + 1).next_power_of_two();
        let stride = self.stride.max(i + 1).next_power_of_two().max(8);
        let mut at = vec![NO_SPAN; rows * stride];
        for r in 0..self.rows {
            at[r * stride..r * stride + self.stride]
                .copy_from_slice(&self.at[r * self.stride..(r + 1) * self.stride]);
        }
        self.at = at;
        self.stride = stride;
        self.rows = rows;
    }

    fn open(&self) -> usize {
        self.at.iter().filter(|&&a| a != NO_SPAN).count()
    }
}

/// The aggregates. Iteration-facing views ([`Rollup::per_link`],
/// [`Rollup::methods`]) are ordered, so every report built from a rollup
/// is deterministic.
#[derive(Debug, Default)]
pub struct Rollup {
    /// Invocation-path cells, flat `[node * stride + method]`. Node-major:
    /// the event loop brackets each scheduler step with
    /// `EventStart`/`EventEnd`, so consecutive records overwhelmingly hit
    /// one node's row — a few hundred bytes that stay cache-hot — where
    /// method-major scatters every step's writes across a P-sized column.
    cells: Vec<MethodCell>,
    /// Methods per row of `cells`.
    cell_stride: usize,
    /// Rows in `cells`.
    cell_rows: usize,
    /// Traffic per directed link.
    links: LinkTable,
    /// Messages *handled* per node, by cause index — receiver-side counts.
    handled: Vec<[u64; 7]>,
    /// Continuations lazily materialized, per node.
    conts_created: Vec<u64>,
    /// Context residency (allocation → free), in virtual cycles.
    pub residency: Log2Hist,
    /// Touch latency (suspend → resume), in virtual cycles.
    pub touch_latency: Log2Hist,
    /// Suspensions seen.
    pub suspends: u64,
    /// Lock-deferred invocations seen.
    pub lock_deferrals: u64,
    /// Retransmission timeouts seen.
    pub retransmits: u64,
    /// Duplicate frames suppressed.
    pub dups_suppressed: u64,
    /// Packets the fault plan lost.
    pub msgs_dropped: u64,
    /// Total records observed.
    pub records: u64,
    /// Virtual time of the last record observed (max over nodes' stamps).
    pub last_at: Cycles,
    /// External requests offered (open-system mode): `RequestArrived`
    /// records, i.e. arrivals that passed admission.
    pub requests_arrived: u64,
    /// External requests completed (reply reached the completion log).
    pub requests_completed: u64,
    /// External requests refused by admission control.
    pub requests_shed: u64,
    /// Allocation time of each open context (contexts are slab indices,
    /// dense and reused per node).
    open_ctx: SpanStore,
    /// Suspension time of each suspended context.
    suspended_at: SpanStore,
}

impl Rollup {
    /// Empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate an already-drained trace.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> Self {
        let mut r = Self::new();
        for rec in records {
            r.observe(rec);
        }
        r
    }

    /// Feed one record.
    pub fn observe(&mut self, rec: &TraceRecord) {
        self.records += 1;
        self.last_at = self.last_at.max(rec.at);
        match rec.event {
            TraceEvent::StackComplete {
                node,
                method,
                schema,
            } => {
                let c = self.cell(method.0, node.0);
                match schema {
                    hem_analysis::Schema::NonBlocking => c.stack_nb += 1,
                    hem_analysis::Schema::MayBlock => c.stack_mb += 1,
                    hem_analysis::Schema::ContPassing => c.stack_cp += 1,
                }
            }
            TraceEvent::Inlined { node, method } => self.cell(method.0, node.0).inlined += 1,
            TraceEvent::ParInvoke { node, method, ctx } => {
                self.cell(method.0, node.0).par_invokes += 1;
                *self.open_ctx.slot(node.0, ctx) = rec.at;
            }
            TraceEvent::Fallback { node, method, ctx } => {
                self.cell(method.0, node.0).fallbacks += 1;
                *self.open_ctx.slot(node.0, ctx) = rec.at;
            }
            TraceEvent::ShellAdopted { node, method, .. } => {
                self.cell(method.0, node.0).shells_adopted += 1
            }
            TraceEvent::ContMaterialized { node } => {
                let n = node.0 as usize;
                if self.conts_created.len() <= n {
                    self.conts_created.resize(n + 1, 0);
                }
                self.conts_created[n] += 1;
            }
            TraceEvent::MsgSent {
                from,
                to,
                words,
                cause,
                ..
            } => {
                let link = self.links.entry(from.0, to.0);
                link.msgs[cause_idx(cause)] += 1;
                link.words[cause_idx(cause)] += words;
            }
            TraceEvent::MsgHandled { node, cause, .. } => {
                let n = node.0 as usize;
                if self.handled.len() <= n {
                    self.handled.resize(n + 1, [0; 7]);
                }
                self.handled[n][cause_idx(cause)] += 1;
            }
            TraceEvent::Suspend { node, ctx } => {
                self.suspends += 1;
                *self.suspended_at.slot(node.0, ctx) = rec.at;
            }
            TraceEvent::Resume { node, ctx } => {
                let slot = self.suspended_at.slot(node.0, ctx);
                if *slot != NO_SPAN {
                    self.touch_latency.add(rec.at.saturating_sub(*slot));
                    *slot = NO_SPAN;
                }
            }
            TraceEvent::CtxFreed { node, ctx } => {
                let slot = self.open_ctx.slot(node.0, ctx);
                if *slot != NO_SPAN {
                    self.residency.add(rec.at.saturating_sub(*slot));
                    *slot = NO_SPAN;
                }
            }
            TraceEvent::LockDeferred { .. } => self.lock_deferrals += 1,
            TraceEvent::Retransmit { .. } => self.retransmits += 1,
            TraceEvent::DupSuppressed { .. } => self.dups_suppressed += 1,
            TraceEvent::MsgDropped { .. } => self.msgs_dropped += 1,
            TraceEvent::RequestArrived { .. } => self.requests_arrived += 1,
            TraceEvent::RequestDone { .. } => self.requests_completed += 1,
            TraceEvent::RequestShed { .. } => self.requests_shed += 1,
            TraceEvent::EventStart { .. }
            | TraceEvent::EventEnd { .. }
            | TraceEvent::MsgDuplicated { .. } => {}
        }
    }

    #[inline]
    fn cell(&mut self, method: u32, node: u32) -> &mut MethodCell {
        let m = method as usize;
        let n = node as usize;
        if n >= self.cell_rows || m >= self.cell_stride {
            self.grow_cells(m, n);
        }
        &mut self.cells[n * self.cell_stride + m]
    }

    #[cold]
    fn grow_cells(&mut self, m: usize, n: usize) {
        let rows = self.cell_rows.max(n + 1).next_power_of_two();
        let stride = self.cell_stride.max(m + 1).next_power_of_two().max(8);
        let mut cells = vec![MethodCell::default(); rows * stride];
        for r in 0..self.cell_rows {
            cells[r * stride..r * stride + self.cell_stride]
                .copy_from_slice(&self.cells[r * self.cell_stride..(r + 1) * self.cell_stride]);
        }
        self.cells = cells;
        self.cell_stride = stride;
        self.cell_rows = rows;
    }

    /// Counts for one method summed over all nodes.
    pub fn method_totals(&self, method: u32) -> MethodCell {
        let mut t = MethodCell::default();
        let m = method as usize;
        if m < self.cell_stride {
            for r in 0..self.cell_rows {
                t.merge(&self.cells[r * self.cell_stride + m]);
            }
        }
        t
    }

    /// Every method id that appears in the rollup, ascending.
    pub fn methods(&self) -> Vec<u32> {
        (0..self.cell_stride as u32)
            .filter(|&m| !self.method_totals(m).is_empty())
            .collect()
    }

    /// Grand total over all methods and nodes.
    pub fn grand_total(&self) -> MethodCell {
        let mut t = MethodCell::default();
        for c in &self.cells {
            t.merge(c);
        }
        t
    }

    /// Traffic per directed link `(from, to)`, in link order.
    pub fn per_link(&self) -> BTreeMap<(u32, u32), LinkCell> {
        self.links.iter().map(|(k, v)| (k, *v)).collect()
    }

    /// Messages sent from `node`, by cause index.
    pub fn sent_by_node(&self, node: u32) -> [u64; 7] {
        let mut out = [0u64; 7];
        for ((f, _), l) in self.links.iter() {
            if f == node {
                for (o, m) in out.iter_mut().zip(l.msgs) {
                    *o += m;
                }
            }
        }
        out
    }

    /// Total messages injected (all links, all causes) — equals the
    /// network's `sent` statistic, since every wire injection emits exactly
    /// one `MsgSent`.
    pub fn total_sent(&self) -> u64 {
        self.links.iter().map(|(_, l)| l.total_msgs()).sum()
    }

    /// Messages handled machine-wide, by cause index (receiver side).
    pub fn handled_by_cause(&self) -> [u64; 7] {
        let mut out = [0u64; 7];
        for h in &self.handled {
            for i in 0..7 {
                out[i] += h[i];
            }
        }
        out
    }

    /// Total payload words injected, split `(data, ack, retx, coll)` to
    /// line up with `NetStats` (collective legs of all three kinds share
    /// one wire class).
    pub fn words_by_class(&self) -> (u64, u64, u64, u64) {
        let mut data = 0;
        let mut ack = 0;
        let mut retx = 0;
        let mut coll = 0;
        for (_, l) in self.links.iter() {
            data += l.words[0] + l.words[1];
            ack += l.words[2];
            retx += l.words[3];
            coll += l.words[4] + l.words[5] + l.words[6];
        }
        (data, ack, retx, coll)
    }

    /// Contexts still open (allocated, never freed) when observation ended
    /// — e.g. the root shell of a run that trapped.
    pub fn open_contexts(&self) -> usize {
        self.open_ctx.open()
    }

    /// Requests still in flight (arrived but not completed) when
    /// observation ended — pending work at the horizon of a bounded run.
    pub fn requests_in_flight(&self) -> u64 {
        self.requests_arrived
            .saturating_sub(self.requests_completed)
    }

    /// Total lazily-materialized continuations.
    pub fn total_conts(&self) -> u64 {
        self.conts_created.iter().sum()
    }
}

impl Observer for Rollup {
    fn on_record(&mut self, rec: &TraceRecord) {
        self.observe(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hem_machine::NodeId;

    fn rec(at: Cycles, event: TraceEvent) -> TraceRecord {
        TraceRecord { at, event }
    }

    #[test]
    fn residency_and_touch_latency_pair_up() {
        let n = NodeId(0);
        let recs = vec![
            rec(
                10,
                TraceEvent::ParInvoke {
                    node: n,
                    method: hem_ir::MethodId(3),
                    ctx: 7,
                },
            ),
            rec(12, TraceEvent::Suspend { node: n, ctx: 7 }),
            rec(40, TraceEvent::Resume { node: n, ctx: 7 }),
            rec(50, TraceEvent::CtxFreed { node: n, ctx: 7 }),
        ];
        let r = Rollup::from_records(&recs);
        assert_eq!(r.residency.count(), 1);
        assert_eq!(r.residency.max(), 40);
        assert_eq!(r.touch_latency.count(), 1);
        assert_eq!(r.touch_latency.max(), 28);
        assert_eq!(r.open_contexts(), 0);
        assert_eq!(r.method_totals(3).par_invokes, 1);
        assert_eq!(r.methods(), vec![3]);
    }

    #[test]
    fn ctx_id_reuse_is_handled_by_nesting() {
        // The runtime reuses context indices after free; alloc/free pairs
        // for one (node, ctx) never overlap, so the open-span store stays
        // correct across reuse.
        let n = NodeId(1);
        let m = hem_ir::MethodId(0);
        let recs = vec![
            rec(
                0,
                TraceEvent::ParInvoke {
                    node: n,
                    method: m,
                    ctx: 0,
                },
            ),
            rec(5, TraceEvent::CtxFreed { node: n, ctx: 0 }),
            rec(
                100,
                TraceEvent::Fallback {
                    node: n,
                    method: m,
                    ctx: 0,
                },
            ),
            rec(107, TraceEvent::CtxFreed { node: n, ctx: 0 }),
        ];
        let r = Rollup::from_records(&recs);
        assert_eq!(r.residency.count(), 2);
        assert_eq!(r.residency.max(), 7);
        let t = r.method_totals(0);
        assert_eq!((t.par_invokes, t.fallbacks), (1, 1));
    }

    #[test]
    fn links_bucket_by_cause() {
        let recs = vec![
            rec(
                0,
                TraceEvent::MsgSent {
                    from: NodeId(0),
                    to: NodeId(1),
                    wire: 0,
                    words: 4,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ),
            rec(
                3,
                TraceEvent::MsgSent {
                    from: NodeId(1),
                    to: NodeId(0),
                    wire: 0,
                    words: 2,
                    cause: MsgCause::Reply,
                    req: 0,
                },
            ),
            rec(
                4,
                TraceEvent::MsgSent {
                    from: NodeId(0),
                    to: NodeId(1),
                    wire: 0,
                    words: 1,
                    cause: MsgCause::Ack,
                    req: 0,
                },
            ),
        ];
        let r = Rollup::from_records(&recs);
        assert_eq!(r.total_sent(), 3);
        let links = r.per_link();
        assert_eq!(links[&(0, 1)].msgs, [1, 0, 1, 0, 0, 0, 0]);
        assert_eq!(links[&(1, 0)].words[1], 2);
        assert_eq!(r.words_by_class(), (6, 1, 0, 0));
        assert_eq!(r.sent_by_node(0), [1, 0, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn link_table_survives_growth() {
        // Drive the open-addressed table through several resizes and check
        // the aggregate against closed forms.
        let mut r = Rollup::new();
        let p = 40u32; // 1600 links, well past the initial 64-slot table
        for from in 0..p {
            for to in 0..p {
                r.observe(&rec(
                    (from + to) as u64,
                    TraceEvent::MsgSent {
                        from: NodeId(from),
                        to: NodeId(to),
                        wire: 0,
                        words: (from + to) as u64,
                        cause: MsgCause::Request,
                        req: 0,
                    },
                ));
            }
        }
        assert_eq!(r.total_sent(), (p * p) as u64);
        assert_eq!(r.per_link().len(), (p * p) as usize);
        let expect_words: u64 = (0..p)
            .flat_map(|f| (0..p).map(move |t| (f + t) as u64))
            .sum();
        assert_eq!(r.words_by_class().0, expect_words);
        for n in 0..p {
            assert_eq!(r.sent_by_node(n)[0], p as u64);
        }
    }

    #[test]
    fn link_burst_hits_the_slot_cache() {
        // Repeated sends on one link (the common bursty pattern the
        // one-slot cache exists for) aggregate identically to mixed ones.
        let mut r = Rollup::new();
        for i in 0..100u64 {
            r.observe(&rec(
                i,
                TraceEvent::MsgSent {
                    from: NodeId(3),
                    to: NodeId(4),
                    wire: 0,
                    words: 2,
                    cause: MsgCause::Request,
                    req: 0,
                },
            ));
        }
        r.observe(&rec(
            100,
            TraceEvent::MsgSent {
                from: NodeId(4),
                to: NodeId(3),
                wire: 0,
                words: 1,
                cause: MsgCause::Reply,
                req: 0,
            },
        ));
        let links = r.per_link();
        assert_eq!(links[&(3, 4)].msgs, [100, 0, 0, 0, 0, 0, 0]);
        assert_eq!(links[&(3, 4)].words, [200, 0, 0, 0, 0, 0, 0]);
        assert_eq!(links[&(4, 3)].msgs, [0, 1, 0, 0, 0, 0, 0]);
        assert_eq!(r.total_sent(), 101);
    }

    #[test]
    fn flat_stores_survive_restride() {
        // Growing method ids then node ids (and large ctx indices) forces
        // both flat stores through re-layout; totals must be preserved.
        let mut r = Rollup::new();
        for (m, n, ctx) in [(0u32, 0u32, 0u32), (9, 1, 70), (33, 200, 5), (2, 300, 129)] {
            r.observe(&rec(
                1,
                TraceEvent::ParInvoke {
                    node: NodeId(n),
                    method: hem_ir::MethodId(m),
                    ctx,
                },
            ));
            r.observe(&rec(
                11,
                TraceEvent::CtxFreed {
                    node: NodeId(n),
                    ctx,
                },
            ));
        }
        assert_eq!(r.grand_total().par_invokes, 4);
        assert_eq!(r.residency.count(), 4);
        assert_eq!(r.open_contexts(), 0);
        assert_eq!(r.methods(), vec![0, 2, 9, 33]);
        for m in [0u32, 9, 33, 2] {
            assert_eq!(r.method_totals(m).par_invokes, 1);
        }
    }

    #[test]
    fn stack_fraction_and_fallback_rate() {
        let mut c = MethodCell {
            stack_mb: 6,
            fallbacks: 2,
            par_invokes: 2,
            ..Default::default()
        };
        assert_eq!(c.total(), 10);
        assert!((c.stack_fraction() - 0.6).abs() < 1e-12);
        assert!((c.fallback_rate() - 0.25).abs() < 1e-12);
        c.inlined += 10;
        assert_eq!(c.stack_total(), 16);
    }
}
