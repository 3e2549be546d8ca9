//! Power-of-two bucketed histograms over virtual-cycle durations.

use hem_machine::fmath;

/// A log₂-bucket histogram: bucket `b` counts samples `v` with
/// `2^(b-1) <= v < 2^b` (bucket 0 counts the zeros). 65 buckets cover the
/// whole `u64` range, so insertion never saturates or clamps.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// Bucket index for a value: `0` for zero, else `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive-exclusive value range `[lo, hi)` of a bucket (bucket 0 is
    /// `[0, 1)`). The top bucket's `hi` saturates at `u64::MAX`, which makes
    /// its range *inclusive* of `u64::MAX` — `bucket_of(u64::MAX)` counts
    /// the sample into bucket 64, so rendering it as exclusive would lie;
    /// use [`Log2Hist::bucket_label`] for display.
    pub fn bucket_range(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 1)
        } else {
            (
                1u64 << (b - 1),
                1u64.checked_shl(b as u32).unwrap_or(u64::MAX),
            )
        }
    }

    /// Human/JSON label for a bucket's value range: half-open `[lo,hi)` for
    /// every bucket except the top one, which is the closed interval
    /// `[2^63,u64::MAX]` because `u64::MAX` itself lands in it.
    pub fn bucket_label(b: usize) -> String {
        let (lo, hi) = Self::bucket_range(b);
        if b == 64 {
            format!("[{lo},{hi}]")
        } else {
            format!("[{lo},{hi})")
        }
    }

    /// Record one sample.
    pub fn add(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-quantile (`p ∈ [0,1]`, clamped) under the nearest-rank
    /// rule, with geometric-midpoint interpolation inside a bucket.
    ///
    /// The histogram only knows each sample's bucket, so within bucket
    /// `b` the `j`-th of `c` samples is placed at the geometric position
    /// `lo · (hi/lo)^((2j−1)/2c)` — the log₂-space analogue of the usual
    /// midpoint placement, matching the bucketing's own geometry. `hi`
    /// is the bucket's last representable value, clamped by the observed
    /// maximum; for the closed top bucket `[2^63, u64::MAX]` that makes
    /// the interpolation exact-ranged rather than overflowing.
    ///
    /// Exact (interpolation-free) answers:
    /// * empty histogram → 0;
    /// * single sample → that sample (its value is `sum`);
    /// * rank `count` (so any `p` high enough, including `p = 1.0`) →
    ///   [`Log2Hist::max`];
    /// * rank inside bucket 0 → 0 (zeros are exactly representable).
    ///
    /// The interpolation uses the host-independent [`hem_machine::fmath`]
    /// kernels, so quantiles are bit-identical across platforms.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.try_quantile(p).expect("count > 0")
    }

    /// [`Log2Hist::quantile`], but honest about emptiness: `None` when
    /// the histogram holds no samples. Reports must use this (an empty
    /// histogram has no quantiles — printing the `quantile` fallback of
    /// 0 fabricates a perfect latency out of zero completions).
    pub fn try_quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            return Some(self.sum as u64);
        }
        let p = p.clamp(0.0, 1.0);
        // Nearest rank: the smallest r (1-based) with r ≥ p·count.
        let r = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        if r == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (b, c) in self.nonzero() {
            if seen + c >= r {
                return Some(Self::interpolate(b, r - seen, c, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Geometric placement of the `j`-th (1-based) of `c` samples inside
    /// bucket `b`, clamped to the bucket ∩ `[0, max]`.
    fn interpolate(b: usize, j: u64, c: u64, max: u64) -> u64 {
        if b == 0 {
            return 0;
        }
        let lo = 1u64 << (b - 1);
        let hi = if b == 64 { max } else { (1u64 << b) - 1 }.min(max);
        if hi <= lo {
            return lo;
        }
        let f = (2 * j - 1) as f64 / (2 * c) as f64;
        let v = lo as f64 * fmath::exp2(f * fmath::log2(hi as f64 / lo as f64));
        (v as u64).clamp(lo, hi)
    }

    /// Non-empty buckets, lowest first: `(bucket_index, count)`.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(b, &c)| (b, c))
    }

    /// Render as a compact one-per-bucket listing, e.g.
    /// `[16,32):5 [32,64):2`.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "(empty)".into();
        }
        let mut parts = Vec::new();
        for (b, c) in self.nonzero() {
            parts.push(format!("{}:{c}", Self::bucket_label(b)));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of(1023), 10);
        assert_eq!(Log2Hist::bucket_of(1024), 11);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn ranges_partition_the_u64_line() {
        let mut expect_lo = 0u64;
        for b in 0..=64 {
            let (lo, hi) = Log2Hist::bucket_range(b);
            assert_eq!(lo, expect_lo, "bucket {b} starts at the previous end");
            assert!(hi > lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo, u64::MAX, "top bucket saturates");
    }

    #[test]
    fn every_value_lands_in_its_range() {
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1 << 40, u64::MAX] {
            let b = Log2Hist::bucket_of(v);
            let (lo, hi) = Log2Hist::bucket_range(b);
            assert!(v >= lo, "{v} >= {lo}");
            assert!(v < hi || hi == u64::MAX, "{v} < {hi}");
        }
    }

    #[test]
    fn top_bucket_is_inclusive_of_u64_max() {
        // Boundary triple around the top bucket: 2^63 − 1 is the last value
        // of bucket 63; 2^63 and u64::MAX both land in bucket 64, whose
        // printed range must therefore be *closed* at u64::MAX.
        assert_eq!(Log2Hist::bucket_of((1 << 63) - 1), 63);
        assert_eq!(Log2Hist::bucket_of(1 << 63), 64);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);

        let (lo, hi) = Log2Hist::bucket_range(64);
        assert_eq!(lo, 1 << 63);
        assert_eq!(hi, u64::MAX);
        assert_eq!(
            Log2Hist::bucket_label(64),
            format!("[{},{}]", 1u64 << 63, u64::MAX),
            "top bucket renders closed"
        );
        assert_eq!(
            Log2Hist::bucket_label(63),
            format!("[{},{})", 1u64 << 62, 1u64 << 63)
        );

        let mut h = Log2Hist::default();
        h.add(u64::MAX);
        h.add(1 << 63);
        h.add((1 << 63) - 1);
        let s = h.summary();
        assert!(
            s.contains(&format!("[{},{}]:2", 1u64 << 63, u64::MAX)),
            "summary must place both top-bucket samples inside a closed range: {s}"
        );
        assert!(
            !s.contains(&format!("{})", u64::MAX)),
            "no exclusive u64::MAX bound: {s}"
        );
    }

    /// Brute-force nearest-rank quantile over the raw samples.
    fn brute_quantile(samples: &[u64], p: f64) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let r = ((p.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[r - 1]
    }

    #[test]
    fn quantile_exact_cases() {
        let h = Log2Hist::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");

        let mut h = Log2Hist::default();
        h.add(37);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), 37, "single sample is exact at p={p}");
        }

        let mut h = Log2Hist::default();
        for v in [0, 0, 0, 900] {
            h.add(v);
        }
        assert_eq!(h.quantile(0.5), 0, "zeros bucket is exact");
        assert_eq!(h.quantile(1.0), 900, "p=1 returns the exact max");
    }

    #[test]
    fn quantile_is_exact_ranged_at_the_closed_top_bucket() {
        let mut h = Log2Hist::default();
        h.add(1 << 63);
        h.add(u64::MAX - 5);
        h.add(u64::MAX);
        // All three land in the closed top bucket; every quantile must
        // stay at or above 2^63 (no overflow, no clamp to 0).
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let q = h.quantile(p);
            assert!(q >= 1 << 63, "p={p}: {q}");
        }
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn quantile_is_monotone_and_bucket_consistent_with_brute_force() {
        // A spread of magnitudes with repeats — enough shape to make an
        // interpolation bug visible.
        let mut samples = Vec::new();
        for i in 0u64..200 {
            samples.push((i * i * 37 + 3) % 50_000);
        }
        samples.push(0);
        samples.push(1 << 40);
        let mut h = Log2Hist::default();
        for &v in &samples {
            h.add(v);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let q = h.quantile(p);
            assert!(q >= prev, "monotone at p={p}: {q} < {prev}");
            prev = q;
            // The histogram only knows buckets, so the contract is: the
            // interpolated quantile lands in the same log₂ bucket as the
            // brute-force sorted-sample nearest-rank quantile.
            let want = brute_quantile(&samples, p);
            assert_eq!(
                Log2Hist::bucket_of(q),
                Log2Hist::bucket_of(want),
                "p={p}: quantile {q} vs brute {want}"
            );
        }
    }

    #[test]
    fn quantile_interpolates_geometrically_within_a_bucket() {
        // 3 samples in bucket [1024, 2048): interpolated positions must
        // spread geometrically, strictly inside the bucket.
        let mut h = Log2Hist::default();
        for v in [1100, 1500, 1900] {
            h.add(v);
        }
        let q1 = h.quantile(1.0 / 3.0);
        let q2 = h.quantile(2.0 / 3.0);
        let q3 = h.quantile(1.0);
        assert!((1024..2048).contains(&q1));
        assert!((1024..2048).contains(&q2));
        assert!(q1 < q2, "distinct in-bucket ranks interpolate apart");
        assert_eq!(q3, 1900, "top rank is the exact max");
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Log2Hist::default();
        for v in [0, 1, 1, 5, 16] {
            h.add(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 16);
        assert!((h.mean() - 23.0 / 5.0).abs() < 1e-12);
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(0, 1), (1, 2), (3, 1), (5, 1)]);
        assert!(h.summary().contains("[4,8):1"));
    }
}
