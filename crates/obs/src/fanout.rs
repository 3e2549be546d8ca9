//! Observer tee: feed one record stream to several observers.
//!
//! The runtime holds exactly one [`Observer`]; a [`Fanout`] multiplexes
//! that slot so a run can stream a [`crate::Rollup`], a
//! [`crate::blame::Blame`] tracker, and a [`crate::series::Series`]
//! collector simultaneously. Records are forwarded in order to each part
//! (parts see identical streams), and [`Fanout::into_parts`] hands the
//! boxed parts back for downcasting after `take_observer()`.

use hem_core::{Observer, TraceRecord};

/// A tee over boxed observers, fed in insertion order.
#[derive(Default)]
pub struct Fanout {
    parts: Vec<Box<dyn Observer>>,
}

impl Fanout {
    /// An empty tee.
    pub fn new() -> Fanout {
        Fanout::default()
    }

    /// Append an observer; returns `self` for chaining.
    pub fn with(mut self, obs: Box<dyn Observer>) -> Fanout {
        self.parts.push(obs);
        self
    }

    /// The boxed parts, insertion order. Downcast each via `Box<dyn Any>`
    /// (the [`Observer`] supertrait) to recover the concrete types.
    pub fn into_parts(self) -> Vec<Box<dyn Observer>> {
        self.parts
    }
}

impl Observer for Fanout {
    fn on_record(&mut self, rec: &TraceRecord) {
        for p in &mut self.parts {
            p.on_record(rec);
        }
    }

    fn on_flush(&mut self) {
        for p in &mut self.parts {
            p.on_flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::Blame;
    use crate::rollup::Rollup;
    use hem_core::{MsgCause, TraceEvent};
    use hem_machine::NodeId;

    #[test]
    fn parts_see_the_stream_and_come_back_out() {
        let fan = Fanout::new()
            .with(Box::new(Rollup::new()))
            .with(Box::new(Blame::new()));
        let mut obs: Box<dyn Observer> = Box::new(fan);
        let recs = [
            TraceRecord {
                at: 1,
                event: TraceEvent::RequestArrived {
                    node: NodeId(0),
                    req: 0,
                },
            },
            TraceRecord {
                at: 2,
                event: TraceEvent::MsgSent {
                    from: NodeId(0),
                    to: NodeId(1),
                    wire: 0,
                    words: 4,
                    cause: MsgCause::Request,
                    req: 1,
                },
            },
            TraceRecord {
                at: 9,
                event: TraceEvent::RequestDone {
                    node: NodeId(0),
                    req: 0,
                },
            },
        ];
        for r in &recs {
            obs.on_record(r);
        }
        obs.on_flush();
        let any: Box<dyn std::any::Any> = obs;
        let fan = any.downcast::<Fanout>().expect("a Fanout");
        let mut parts = fan.into_parts().into_iter();
        let rollup: Box<dyn std::any::Any> = parts.next().unwrap();
        let rollup = rollup.downcast::<Rollup>().expect("a Rollup");
        assert_eq!(rollup.total_sent(), 1);
        let blame: Box<dyn std::any::Any> = parts.next().unwrap();
        let blame = blame.downcast::<Blame>().expect("a Blame");
        let s = blame.summary(0.99, Blame::SLOWEST);
        assert_eq!((s.completed, s.slowest.len()), (1, 1));
        assert_eq!(s.slowest[0].sojourn(), 8);
    }
}
