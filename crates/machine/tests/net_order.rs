//! Total-order guarantees of the interconnect.
//!
//! The runtime's determinism rests on the network delivering in a total
//! order on `(deliver_at, dest, seq)` — these tests pin the tie-breaking,
//! peek/pop agreement, in-flight accounting, and the fault plan's
//! interaction with all three (drops never enter the heap, duplicates
//! enter it twice under one sequence number).

use hem_machine::fault::{FaultPlan, LinkWindow};
use hem_machine::net::Network;
use hem_machine::NodeId;

/// Sends at mixed times, destinations, and injection orders pop in
/// `(deliver_at, dest, seq)` order — never injection order.
#[test]
fn pops_follow_time_dest_seq_order() {
    let mut net: Network<u32> = Network::new();
    // (deliver, dest, payload) injected deliberately out of order.
    let sends = [
        (30, 2, 0),
        (10, 9, 1),
        (30, 1, 2),
        (10, 0, 3),
        (20, 5, 4),
        (10, 9, 5), // same (time, dest) as payload 1: seq breaks the tie
        (30, 1, 6), // same (time, dest) as payload 2
    ];
    for &(t, d, p) in &sends {
        net.send(NodeId(7), NodeId(d), t, 1, p);
    }
    let order: Vec<u32> = std::iter::from_fn(|| net.pop().map(|m| m.msg)).collect();
    assert_eq!(order, vec![3, 1, 5, 4, 2, 6, 0]);
}

/// Equal-time, equal-dest messages keep their send (sequence) order — the
/// FIFO-per-link property handlers rely on.
#[test]
fn same_slot_messages_are_fifo() {
    let mut net: Network<u32> = Network::new();
    for p in 0..50 {
        net.send(NodeId(0), NodeId(1), 100, 0, p);
    }
    let order: Vec<u32> = std::iter::from_fn(|| net.pop().map(|m| m.msg)).collect();
    assert_eq!(order, (0..50).collect::<Vec<_>>());
}

/// `peek` always reports exactly the `(time, dest)` the next `pop`
/// returns, through an arbitrary interleaving of sends and pops.
#[test]
fn peek_agrees_with_pop_throughout() {
    let mut net: Network<u64> = Network::new();
    let mut popped = 0;
    for round in 0..40u64 {
        // Pseudo-arbitrary but deterministic schedule of sends and pops;
        // the round number doubles as the payload.
        let t = (round * 37) % 19;
        let d = (round * 13) % 5;
        net.send(NodeId(9), NodeId(d as u32), t, 1, round);
        if round % 3 == 0 {
            let want = net.peek().expect("non-empty network peeks");
            let got = net.pop().expect("non-empty network pops");
            assert_eq!(want, (got.deliver_at, got.dest), "round {round}");
            popped += 1;
        }
    }
    while let Some((t, d)) = net.peek() {
        let m = net.pop().unwrap();
        assert_eq!((t, d), (m.deliver_at, m.dest));
        popped += 1;
    }
    assert_eq!(popped, 40);
    assert!(net.peek().is_none());
}

/// `in_flight`, `sent`, and `delivered` account exactly for the heap's
/// contents, with and without faults.
#[test]
fn in_flight_accounting() {
    let mut net: Network<u8> = Network::new();
    for i in 0..10 {
        net.send(NodeId(0), NodeId(1), i, 2, 0);
    }
    assert_eq!(net.in_flight(), 10);
    assert_eq!(net.stats.sent, 10);
    assert_eq!(net.stats.delivered, 0);
    for drained in 1..=10 {
        net.pop().unwrap();
        assert_eq!(net.in_flight(), 10 - drained);
        assert_eq!(net.stats.delivered, drained as u64);
    }
    assert!(net.is_empty());
    assert_eq!(net.stats().words, 20);
}

/// A dropped message counts as sent but never enters the heap and carries
/// no words; a duplicated one enters twice under a single sequence number.
#[test]
fn faults_respect_accounting_and_ordering() {
    let mut plan = FaultPlan::seeded(42);
    plan.drop_permille = 1000; // drop everything
    let mut net: Network<u8> = Network::new();
    net.set_plan(Some(plan));
    let fate = net.send(NodeId(0), NodeId(1), 5, 3, 7);
    assert!(fate.dropped && !fate.partitioned);
    assert_eq!(net.stats.sent, 1);
    assert_eq!(net.in_flight(), 0);
    assert_eq!(net.stats().words, 0);
    assert_eq!(net.stats.faults.dropped, 1);
    assert!(net.pop().is_none());

    let mut plan = FaultPlan::seeded(42);
    plan.dup_permille = 1000; // duplicate everything
    let mut net: Network<u8> = Network::new();
    net.set_plan(Some(plan));
    let fate = net.send(NodeId(0), NodeId(1), 5, 3, 7);
    assert!(fate.duplicated && !fate.dropped);
    assert_eq!(net.in_flight(), 2);
    // Both copies share the global seq; the duplicate is at least one
    // cycle later, so the primary pops first.
    let a = net.pop().unwrap();
    let b = net.pop().unwrap();
    assert_eq!(a.seq, b.seq);
    assert_eq!(a.deliver_at, 5);
    assert!(b.deliver_at >= 6);
    assert_eq!(net.stats().words, 6, "each wire copy carries its words");
}

/// Partition drops are decided by delivery time against the window, keyed
/// by direction, and counted separately from random loss.
#[test]
fn partition_windows_are_directional_in_delivery_time() {
    let mut plan = FaultPlan::seeded(1);
    plan.partitions = vec![LinkWindow {
        src: Some(NodeId(0)),
        dest: Some(NodeId(1)),
        from: 100,
        until: 200,
    }];
    let mut net: Network<u8> = Network::new();
    net.set_plan(Some(plan));
    assert!(!net.send(NodeId(0), NodeId(1), 99, 1, 0).dropped);
    let f = net.send(NodeId(0), NodeId(1), 100, 1, 0);
    assert!(f.dropped && f.partitioned);
    assert!(
        !net.send(NodeId(0), NodeId(1), 200, 1, 0).dropped,
        "half-open"
    );
    assert!(
        !net.send(NodeId(1), NodeId(0), 150, 1, 0).dropped,
        "reverse direction open"
    );
    assert_eq!(net.stats.faults.partition_drops, 1);
    assert_eq!(net.stats.faults.dropped, 0);
    assert_eq!(net.stats().faults.lost(), 1);
}

/// The same plan replayed over the same send sequence injects identical
/// faults — fate is a pure function of `(seed, seq, src, dest)`.
#[test]
fn fault_fates_replay_bit_identically() {
    let run = || {
        let mut plan = FaultPlan::seeded(0xFEED);
        plan.drop_permille = 300;
        plan.dup_permille = 200;
        plan.jitter_max = 17;
        let mut net: Network<u16> = Network::new();
        net.set_plan(Some(plan));
        let mut fates = Vec::new();
        for i in 0..200u16 {
            let dest = NodeId(u32::from(i) % 7);
            fates.push(net.send(NodeId(3), dest, u64::from(i) * 11, 1, i));
        }
        let drained: Vec<_> = std::iter::from_fn(|| net.pop())
            .map(|m| (m.deliver_at, m.dest, m.seq, m.msg))
            .collect();
        (fates, drained, net.stats.faults)
    };
    let (fa, da, sa) = run();
    let (fb, db, sb) = run();
    assert_eq!(fa, fb);
    assert_eq!(da, db);
    assert_eq!(sa, sb);
}
