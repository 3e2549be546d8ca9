//! Property tests for the machine substrate: network delivery order,
//! layout coverage and balance.

use hem_machine::net::Network;
use hem_machine::topology::{orb_partition, BlockCyclic, ProcGrid};
use hem_machine::NodeId;
use proptest::prelude::*;

proptest! {
    /// Messages come out of the network sorted by (deliver_at, dest, seq),
    /// and every message sent is delivered exactly once.
    #[test]
    fn network_is_a_stable_priority_queue(
        msgs in proptest::collection::vec((0u64..1000, 0u32..8), 0..64)
    ) {
        let mut net: Network<usize> = Network::new();
        for (i, (t, d)) in msgs.iter().enumerate() {
            net.send(NodeId(0), NodeId(*d), *t, 1, i);
        }
        let mut out = Vec::new();
        while let Some(m) = net.pop() {
            out.push((m.deliver_at, m.dest.0, m.seq, m.msg));
        }
        prop_assert_eq!(out.len(), msgs.len());
        // Sorted by the delivery key.
        for w in out.windows(2) {
            prop_assert!((w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2));
        }
        // Exactly-once: payloads are a permutation of the inputs.
        let mut ids: Vec<usize> = out.iter().map(|o| o.3).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..msgs.len()).collect::<Vec<_>>());
        prop_assert_eq!(net.stats.sent, msgs.len() as u64);
        prop_assert_eq!(net.stats.delivered, msgs.len() as u64);
    }

    /// Block-cyclic owners are always valid nodes, and a full sweep of a
    /// data grid touches every processor when the grid is large enough.
    #[test]
    fn block_cyclic_covers_all_nodes(
        block in 1u32..9,
        side in 1u32..5, // processor grid side
    ) {
        let procs = ProcGrid { px: side, py: side };
        let bc = BlockCyclic { procs, block };
        let data = block * side * 2; // at least two block rows per proc
        let mut seen = vec![false; procs.len() as usize];
        for i in 0..data {
            for j in 0..data {
                let o = bc.owner(i, j);
                prop_assert!(o.0 < procs.len());
                seen[o.idx()] = true;
            }
        }
        prop_assert!(seen.iter().all(|s| *s), "some processor owns nothing");
    }

    /// ORB always balances within one point and assigns valid owners.
    #[test]
    fn orb_balances(
        n_pow in 3u32..8, // 8..128 points
        nodes_pow in 0u32..4, // 1..8 nodes
        seed in 0u64..1000,
    ) {
        let n = 1usize << n_pow;
        let nodes = 1u32 << nodes_pow;
        // Deterministic pseudo-random points from the seed.
        let mut x = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<[f64; 3]> = (0..n).map(|_| [next(), next(), next()]).collect();
        let owner = orb_partition(&pts, nodes);
        prop_assert_eq!(owner.len(), n);
        let mut counts = vec![0usize; nodes as usize];
        for o in &owner {
            prop_assert!(o.0 < nodes);
            counts[o.idx()] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= nodes as usize,
            "ORB imbalance {counts:?} (powers of two split at medians)");
    }
}
