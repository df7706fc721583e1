//! Deterministic random number generation: the workspace's one
//! SplitMix64.
//!
//! Every random draw in a simulation flows through one [`SimRng`] seeded
//! from the run configuration, making every experiment reproducible
//! bit-for-bit. The threaded runtime draws from the same generator: its
//! transport jitter and loss, its fault panel's injected loss, its TCP
//! backoff jitter (through [`SharedRng`], the lock-free form many threads
//! share), and its chaos schedules. SplitMix64 is tiny, fast, and more
//! than adequate for workload sampling (we are not doing cryptography).

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// SplitMix64's state increment (the golden-ratio "gamma").
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded SplitMix64 generator with the distribution samplers the
/// simulator needs (uniform, exponential, Bernoulli).
///
/// # Examples
///
/// ```
/// use tokq_protocol::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.exponential(2.0);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derives an independent child generator (used to give each node its
    /// own stream so adding a node does not perturb the others).
    pub fn fork(&mut self) -> SimRng {
        SimRng {
            state: self.next_u64() ^ GAMMA,
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer draw in `[0, n)` via rejection-free modulo (bias
    /// negligible for the simulator's ranges).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range must be non-empty");
        self.next_u64() % n
    }

    /// An exponential draw with the given `rate` (mean `1/rate`), via
    /// inverse-CDF sampling.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        // 1 - U avoids ln(0).
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }
}

/// A SplitMix64 stream that many threads draw from without a lock.
///
/// Each draw advances the shared state with one atomic `fetch_add` and
/// mixes the previous state through [`SimRng`], so a single-threaded run
/// of draws is exactly `SimRng::new(seed)`'s stream.
///
/// # Examples
///
/// ```
/// use tokq_protocol::rng::{SharedRng, SimRng};
///
/// let shared = SharedRng::new(7);
/// let mut plain = SimRng::new(7);
/// assert_eq!(shared.next_f64(), plain.next_f64());
/// ```
#[derive(Debug)]
pub struct SharedRng(AtomicU64);

impl SharedRng {
    /// Creates a shared generator from a seed.
    pub fn new(seed: u64) -> Self {
        SharedRng(AtomicU64::new(seed))
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&self) -> f64 {
        SimRng::new(self.0.fetch_add(GAMMA, Ordering::Relaxed)).next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(8);
        assert_ne!(SimRng::new(7).next_u64(), c.next_u64());
    }

    /// The stream of seed 42, recorded before the generator moved here from
    /// the simulator crate: simulator seeds must keep reproducing.
    #[test]
    fn stream_matches_recorded_values() {
        let mut r = SimRng::new(42);
        let got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
                0x09bc_585a_2448_23f2,
                0xde44_31fa_3c80_db06,
                0x37e9_671c_4537_6d5d,
                0xccf6_35ee_9e9e_2fa4,
            ]
        );
    }

    #[test]
    fn shared_stream_equals_the_plain_stream() {
        let shared = SharedRng::new(42);
        let mut plain = SimRng::new(42);
        for _ in 0..16 {
            assert_eq!(shared.next_f64().to_bits(), plain.next_f64().to_bits());
        }
    }

    #[test]
    fn forked_streams_diverge() {
        let mut root = SimRng::new(1);
        let mut a = root.fork();
        let mut b = root.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1_000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::new(11);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "sample mean {mean} far from {}",
            1.0 / rate
        );
    }

    #[test]
    fn chance_extremes_and_frequency() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.25).abs() < 0.01, "frequency {freq}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::new(9);
        for _ in 0..1_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let _ = SimRng::new(1).exponential(0.0);
    }
}
