//! The benchmark's own statistics: percentiles, medians and the seeded
//! open-loop arrival schedule.

use std::time::Duration;

/// The splitmix64 finaliser: a full-avalanche 64-bit mix, used to derive
/// every seeded choice (frame offsets, sequence order, stream phase).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded draw in `0..n` for the `k`-th choice of a run.
pub fn pick(seed: u64, k: u64, n: u64) -> u64 {
    splitmix64(seed ^ splitmix64(k.wrapping_add(1))) % n.max(1)
}

/// The `p`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between the two closest ranks of the sorted sample. Empty input
/// yields 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The source frame shown at position `i` of a stream that plays
/// `distinct` rendered frames forward, then backward, and so on
/// (0, 1, …, d−1, d−2, …, 1, 0, 1, …). Reversed playback keeps the
/// motion statistics of forward playback, so a long stream needs only a
/// few rendered frames.
pub fn ping_pong(i: u32, distinct: u32) -> u32 {
    if distinct < 2 {
        return 0;
    }
    let period = 2 * (distinct - 1);
    let k = i % period;
    if k < distinct {
        k
    } else {
        period - k
    }
}

/// Frame period of a 25 fps stream.
pub const FRAME_PERIOD: Duration = Duration::from_millis(40);

/// Due send times of one of `streams` open-loop streams, relative to
/// the start of their sessions: frame `i` of stream `s` is due at
/// `phase + s × period / streams + i × period`. The common phase is
/// drawn from the seed; the streams stay evenly staggered so that their
/// sends never pile up on the one sending thread.
pub fn schedule(seed: u64, stream: u32, streams: u32, frames: u32) -> Vec<Duration> {
    let period_us = FRAME_PERIOD.as_micros() as u64;
    let stagger_us = period_us / u64::from(streams.max(1));
    let phase_us = pick(seed, 1000, stagger_us) + u64::from(stream) * stagger_us;
    (0..u64::from(frames))
        .map(|i| Duration::from_micros(phase_us + i * period_us))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact `p`-quantile of a sorted sample, computed by walking
    /// the ranks rather than by the interpolation formula.
    fn exact(sorted: &[f64], p: f64) -> f64 {
        let n = sorted.len();
        let target = p * (n - 1) as f64;
        for i in 0..n {
            if (i as f64) >= target {
                if i == 0 || (i as f64) == target {
                    return sorted[i];
                }
                let w = target - (i - 1) as f64;
                return sorted[i - 1] * (1.0 - w) + sorted[i] * w;
            }
        }
        sorted[n - 1]
    }

    #[test]
    fn percentile_matches_an_exact_sorted_sample() {
        // 0..=100: every integer percentile is its own rank.
        let ramp: Vec<f64> = (0..=100).map(f64::from).collect();
        for p in 0..=100 {
            let q = f64::from(p) / 100.0;
            assert!((percentile(&ramp, q) - f64::from(p)).abs() < 1e-9);
        }
        // Shuffled seeded samples of many sizes, against the rank walk.
        for n in 1..200u64 {
            let values: Vec<f64> = (0..n)
                .map(|i| (splitmix64(n * 1000 + i) % 10_000) as f64 / 7.0)
                .collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                let got = percentile(&values, p);
                let want = exact(&sorted, p);
                assert!((got - want).abs() < 1e-9, "n={n} p={p}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0], 2.0), 2.0);
    }

    #[test]
    fn schedule_is_reproduced_from_the_seed() {
        for seed in [0u64, 1, 7, 42, u64::MAX] {
            let a = schedule(seed, 0, 2, 50);
            let b = schedule(seed, 1, 2, 50);
            assert_eq!(a, schedule(seed, 0, 2, 50));
            assert_eq!(b, schedule(seed, 1, 2, 50));
            assert_eq!(a.len(), 50);
            assert!(a[0] < FRAME_PERIOD / 2);
            for w in a.windows(2) {
                assert_eq!(w[1] - w[0], FRAME_PERIOD);
            }
            // The second stream runs half a period behind the first.
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(*y - *x, FRAME_PERIOD / 2);
            }
            // A longer schedule extends a shorter one.
            assert_eq!(&schedule(seed, 0, 2, 80)[..50], &a[..]);
        }
        // The common phase depends on the seed.
        let phases: std::collections::BTreeSet<Duration> =
            (0..16).map(|s| schedule(s, 0, 2, 1)[0]).collect();
        assert!(phases.len() > 8);
    }

    #[test]
    fn ping_pong_walks_forward_then_back() {
        let walk: Vec<u32> = (0..12).map(|i| ping_pong(i, 4)).collect();
        assert_eq!(walk, [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1]);
        assert!((0..100).all(|i| ping_pong(i, 1) == 0));
        for d in 2..10 {
            for i in 0..100 {
                let a = ping_pong(i, d);
                let b = ping_pong(i + 1, d);
                assert!(a < d && a.abs_diff(b) == 1);
            }
        }
    }

    #[test]
    fn picks_are_seeded_and_in_range() {
        for seed in 0..64 {
            for k in 0..8 {
                assert!(pick(seed, k, 5) < 5);
                assert_eq!(pick(seed, k, 5), pick(seed, k, 5));
            }
        }
        assert_eq!(pick(9, 0, 1), 0);
    }
}
