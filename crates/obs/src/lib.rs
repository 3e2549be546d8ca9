//! # hem-obs — observability for the hybrid execution model
//!
//! Everything in this crate consumes the runtime's
//! [`hem_core::TraceRecord`] stream — online through the zero-virtual-time
//! [`hem_core::Observer`] hook, or offline from a drained buffer, through
//! the same code — and turns it into the artifacts a performance
//! investigation needs:
//!
//! | module | artifact |
//! |---|---|
//! | [`rollup`] | per-method × per-node × per-schema aggregates, per-link traffic, residency/touch-latency histograms |
//! | [`blame`] | per-request sojourn decomposition (queue/exec/wire/lock/retx), exact tiling, p99-tail view |
//! | [`series`] | windowed virtual-time series: offered/completed rate, in-flight, queue depth, per-node occupancy |
//! | [`fanout`] | an observer tee so one run can stream several of the above |
//! | [`model`]  | a [`model::Timeline`] — scheduler steps, context spans, matched message flows, adaptation instants — kept as varint byte logs (a few bytes an item; a sparse index marks every 64th step) and read through decoding accessors, built by [`model::TimelineBuilder`], an observer like the three above (or fed a slice: [`model::Timeline::build`]) |
//! | [`perfetto`] | Chrome/Perfetto `trace_event` JSON of the timeline (plus series counter tracks), decoded front to back and written through any `io::Write` |
//! | [`critpath`] | the longest virtual-time path through the happens-before DAG (each hop a search of a step index and a decode of one block), plus per-node time breakdowns |
//! | [`report`] | paper-Table-style text / JSON summaries built from a rollup |
//! | [`json`] | the one JSON writer (reports, Perfetto) and reader (`hemprof diff`, tests), dependency-free |
//!
//! None of it charges virtual time: attaching a [`rollup::Rollup`] as an
//! observer leaves traces, clocks and makespan bit-identical to an
//! unobserved run (guarded by `tests/observability.rs`'s
//! `observer_is_bit_identical_and_sees_the_buffered_stream`), and offline
//! analysis happens after `take_trace()`. Nothing here needs the raw
//! records kept: a run whose consumers are all attached as observers can
//! leave the runtime's trace buffer off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod critpath;
pub mod fanout;
pub mod hist;
pub mod json;
pub mod model;
pub mod perfetto;
pub mod report;
pub mod rollup;
pub mod series;

pub use blame::{Blame, BlameCat, BlameSummary, RequestBlame};
pub use critpath::{
    critical_path, critical_path_until, node_breakdowns, CriticalPath, NodeBreakdown, SegClass,
};
pub use fanout::Fanout;
pub use hist::Log2Hist;
pub use model::{Timeline, TimelineBuilder};
pub use report::{Report, SchedSummary, ServiceSummary, SpecSummary};
pub use rollup::Rollup;
pub use series::{Series, SeriesBucket, SeriesSummary};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hem_core::TraceEvent;

/// Hashes a `u64` key with one multiply (the Fibonacci constant), then
/// rotates the well-mixed high bits down to where the table takes its
/// bucket index. Request ids and sojourns are small, wire numbers are a
/// per-sender count above the node id; SipHash's flood resistance buys
/// nothing on these per-record paths. Any `u64` still hashes, and a table
/// grows with the keys present, never with their values.
#[derive(Debug, Default, Clone, Copy)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by `u64` under [`MulHasher`] (blame's live requests, the
/// timeline's sends in flight).
type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulHasher>>;

/// The node a record is charged to: the node whose clock stamped it (the
/// acting node — sender for sends, receiver for handles).
pub fn event_node(e: &TraceEvent) -> u32 {
    match *e {
        TraceEvent::StackComplete { node, .. }
        | TraceEvent::Inlined { node, .. }
        | TraceEvent::Fallback { node, .. }
        | TraceEvent::ParInvoke { node, .. }
        | TraceEvent::ShellAdopted { node, .. }
        | TraceEvent::ContMaterialized { node }
        | TraceEvent::MsgHandled { node, .. }
        | TraceEvent::Suspend { node, .. }
        | TraceEvent::Resume { node, .. }
        | TraceEvent::LockDeferred { node, .. }
        | TraceEvent::Retransmit { node, .. }
        | TraceEvent::DupSuppressed { node, .. }
        | TraceEvent::CtxFreed { node, .. }
        | TraceEvent::EventStart { node, .. }
        | TraceEvent::EventEnd { node }
        | TraceEvent::RequestArrived { node, .. }
        | TraceEvent::RequestDone { node, .. }
        | TraceEvent::RequestShed { node, .. } => node.0,
        TraceEvent::MsgSent { from, .. }
        | TraceEvent::MsgDropped { from, .. }
        | TraceEvent::MsgDuplicated { from, .. } => from.0,
    }
}

/// Render a blame tag (`request id + 1`; 0 = untagged) as a description
/// suffix.
fn req_suffix(req: u64) -> String {
    if req == 0 {
        String::new()
    } else {
        format!(" <req {}>", req - 1)
    }
}

/// Render a wire number: `#s.n` for the `s`-th injection by node `n`,
/// `#ext.k` for the `k`-th external arrival.
fn wire_name(wire: u64) -> String {
    if wire >> 63 == 1 {
        format!("#ext.{}", wire & !(1 << 63))
    } else {
        format!("#{}.{}", wire >> 20, wire & 0xF_FFFF)
    }
}

/// One-line human description of an event, with method names resolved
/// against the program. The `trace_adaptation` example and `hemprof`'s
/// `--events` dump print these.
pub fn describe(e: &TraceEvent, program: &hem_ir::Program) -> String {
    let m = |id: hem_ir::MethodId| program.method(id).name.clone();
    match *e {
        TraceEvent::StackComplete {
            node,
            method,
            schema,
        } => format!("n{} stack-complete {} [{}]", node.0, m(method), schema),
        TraceEvent::Inlined { node, method } => {
            format!("n{} inlined {}", node.0, m(method))
        }
        TraceEvent::Fallback { node, method, ctx } => {
            format!("n{} FALLBACK {} -> ctx{}", node.0, m(method), ctx)
        }
        TraceEvent::ParInvoke { node, method, ctx } => {
            format!("n{} par-invoke {} ctx{}", node.0, m(method), ctx)
        }
        TraceEvent::ShellAdopted { node, method, ctx } => {
            format!("n{} shell-adopted {} ctx{}", node.0, m(method), ctx)
        }
        TraceEvent::ContMaterialized { node } => {
            format!("n{} continuation materialized", node.0)
        }
        TraceEvent::MsgSent {
            from,
            to,
            wire,
            words,
            cause,
            req,
        } => format!(
            "n{} -> n{} {} ({} words) {}{}",
            from.0,
            to.0,
            cause,
            words,
            wire_name(wire),
            req_suffix(req)
        ),
        TraceEvent::MsgHandled {
            node,
            from,
            wire,
            cause,
            req,
            retx,
            ..
        } => format!(
            "n{} handled {} from n{} {}{}{}",
            node.0,
            cause,
            from.0,
            wire_name(wire),
            if retx { " [retx copy]" } else { "" },
            req_suffix(req)
        ),
        TraceEvent::Suspend { node, ctx } => format!("n{} suspend ctx{}", node.0, ctx),
        TraceEvent::Resume { node, ctx } => format!("n{} resume ctx{}", node.0, ctx),
        TraceEvent::LockDeferred { node, obj, req } => {
            format!("n{} lock-deferred obj{}{}", node.0, obj, req_suffix(req))
        }
        TraceEvent::MsgDropped {
            from,
            to,
            wire,
            partitioned,
        } => format!(
            "n{} -> n{} {} DROPPED{}",
            from.0,
            to.0,
            wire_name(wire),
            if partitioned { " (partition)" } else { "" }
        ),
        TraceEvent::MsgDuplicated { from, to, wire } => format!(
            "n{} -> n{} {} duplicated on the wire",
            from.0,
            to.0,
            wire_name(wire)
        ),
        TraceEvent::Retransmit { node, to, attempt } => {
            format!("n{} retransmit -> n{} (attempt {})", node.0, to.0, attempt)
        }
        TraceEvent::DupSuppressed { node, from, wire } => format!(
            "n{} suppressed duplicate from n{} {}",
            node.0,
            from.0,
            wire_name(wire)
        ),
        TraceEvent::CtxFreed { node, ctx } => format!("n{} freed ctx{}", node.0, ctx),
        TraceEvent::EventStart { node, kind, req } => {
            let k = match kind {
                0 => "handle-message",
                1 => "local-work",
                _ => "retx-timers",
            };
            format!("n{} step start [{}]{}", node.0, k, req_suffix(req))
        }
        TraceEvent::EventEnd { node } => format!("n{} step end", node.0),
        TraceEvent::RequestArrived { node, req } => {
            format!("n{} request {req} arrived", node.0)
        }
        TraceEvent::RequestDone { node, req } => {
            format!("n{} request {req} done", node.0)
        }
        TraceEvent::RequestShed { node, req } => {
            format!("n{} request {req} SHED", node.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::wire_name;

    #[test]
    fn wire_names_spell_the_count_and_the_sender() {
        assert_eq!(wire_name(3), "#0.3");
        assert_eq!(wire_name((12 << 20) | 0xF_FFFF), "#12.1048575");
        assert_eq!(wire_name((1 << 63) | 5), "#ext.5");
    }
}
