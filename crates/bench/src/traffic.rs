//! Deterministic open-loop traffic schedules for serving benchmarks.
//!
//! The serving SLO harness replays *open-loop* load: arrival times are
//! fixed up front from a seeded Poisson process (optionally with bursts)
//! and requests are issued at their scheduled instants regardless of how
//! the server is coping. Latency is then measured from the *scheduled*
//! arrival, not from the send, so a stalled server cannot hide queueing
//! delay by slowing the generator down (the coordinated-omission trap of
//! closed-loop load tests).

use std::time::Duration;

/// SplitMix64 step — the same tiny seedable generator the serving fault
/// plan uses, so a whole chaos scenario is reproducible from two seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `(0, 1]` — open at zero so `ln` is always finite.
fn unit_open(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// A seeded Poisson arrival process with periodic burst windows.
///
/// Arrivals are exponentially spaced at `rate_rps`; within a burst window
/// (the first `burst_len` of every `burst_every` arrivals, when both are
/// nonzero) the instantaneous rate is multiplied by `burst_mult`,
/// producing the heavy-tailed clumping real traffic shows.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonBurst {
    /// Seed for the arrival stream; same seed ⇒ same schedule.
    pub seed: u64,
    /// Base arrival rate, requests per second.
    pub rate_rps: f64,
    /// Burst period in arrivals; 0 disables bursts.
    pub burst_every: usize,
    /// Arrivals per burst window.
    pub burst_len: usize,
    /// Rate multiplier inside a burst window.
    pub burst_mult: f64,
}

impl PoissonBurst {
    /// A plain Poisson process without bursts.
    pub fn steady(seed: u64, rate_rps: f64) -> Self {
        PoissonBurst {
            seed,
            rate_rps,
            burst_every: 0,
            burst_len: 0,
            burst_mult: 1.0,
        }
    }

    /// The first `n` scheduled arrival offsets (monotonically
    /// non-decreasing, measured from the start of the replay).
    pub fn arrivals(&self, n: usize) -> Vec<Duration> {
        let mut state = self.seed;
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let in_burst = self.burst_every > 0
                && self.burst_len > 0
                && (i % self.burst_every) < self.burst_len;
            let rate = if in_burst {
                self.rate_rps * self.burst_mult
            } else {
                self.rate_rps
            };
            t += -unit_open(&mut state).ln() / rate.max(1e-9);
            out.push(Duration::from_secs_f64(t));
        }
        out
    }
}

/// A Zipf-weighted model-popularity mixture over `n` models.
///
/// Real multi-model traffic is heavy-tailed: a few hot models take most
/// of the requests while a long tail stays nearly idle. Model `i`
/// (0-indexed by popularity rank) gets weight `1 / (i + 1)^s`; `s = 0` is
/// uniform, `s = 1` the classic Zipf law. Sampling inverts the CDF with a
/// seeded SplitMix64 draw, so a whole fleet replay is reproducible from
/// (arrival seed, mixture seed).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfMixture {
    /// Seed for the model-choice stream; same seed ⇒ same assignment.
    pub seed: u64,
    /// Cumulative weights, normalized to end at 1.0.
    cdf: Vec<f64>,
}

impl ZipfMixture {
    /// Mixture over `n ≥ 1` models with Zipf exponent `s ≥ 0`.
    pub fn new(seed: u64, n: usize, s: f64) -> ZipfMixture {
        assert!(n >= 1, "a mixture needs at least one model");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite, ≥ 0");
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfMixture { seed, cdf }
    }

    /// Number of models in the mixture.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the mixture is empty (never: `new` requires `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The normalized popularity weight of model `i`.
    pub fn weight(&self, i: usize) -> f64 {
        let prev = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        self.cdf[i] - prev
    }

    /// The model index for each of the first `n` requests.
    pub fn assignments(&self, n: usize) -> Vec<usize> {
        let mut state = self.seed;
        (0..n)
            .map(|_| {
                let u = unit_open(&mut state);
                // First bucket whose cumulative weight covers the draw.
                self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotonic() {
        let spec = PoissonBurst::steady(0xA11CE, 500.0);
        let a = spec.arrivals(256);
        let b = spec.arrivals(256);
        assert_eq!(a, b);
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrivals went backwards"
        );
        let other = PoissonBurst::steady(0xB0B, 500.0).arrivals(256);
        assert_ne!(a, other, "different seeds must give different schedules");
    }

    #[test]
    fn mean_rate_tracks_the_spec() {
        let rate = 1000.0;
        let n = 4096;
        let arrivals = PoissonBurst::steady(7, rate).arrivals(n);
        let total = arrivals.last().unwrap().as_secs_f64();
        let observed = n as f64 / total;
        let ratio = observed / rate;
        assert!(
            (0.8..1.25).contains(&ratio),
            "observed {observed:.1} rps for spec {rate} rps"
        );
    }

    #[test]
    fn bursts_compress_the_schedule() {
        let steady = PoissonBurst::steady(9, 200.0).arrivals(1000);
        let bursty = PoissonBurst {
            seed: 9,
            rate_rps: 200.0,
            burst_every: 10,
            burst_len: 5,
            burst_mult: 10.0,
        }
        .arrivals(1000);
        assert!(
            bursty.last().unwrap() < steady.last().unwrap(),
            "burst windows must raise the instantaneous rate"
        );
    }

    #[test]
    fn zipf_mixture_is_deterministic_and_heavy_tailed() {
        let mix = ZipfMixture::new(0x21BF, 4, 1.0);
        assert_eq!(mix.len(), 4);
        let a = mix.assignments(8192);
        assert_eq!(a, mix.assignments(8192), "same seed ⇒ same assignment");
        assert!(a.iter().all(|&m| m < 4));
        let mut counts = [0usize; 4];
        for &m in &a {
            counts[m] += 1;
        }
        // Zipf s=1 over 4 models: weights 1 : 1/2 : 1/3 : 1/4. Rank order
        // must hold, and every model must actually receive traffic.
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
        assert!(counts[3] > 0, "the tail model must still see requests");
        // Empirical share of the hot model tracks its weight (12/25).
        let hot_share = counts[0] as f64 / a.len() as f64;
        assert!(
            (hot_share - mix.weight(0)).abs() < 0.05,
            "hot share {hot_share:.3} vs weight {:.3}",
            mix.weight(0)
        );
        // Weights sum to 1.
        let total: f64 = (0..4).map(|i| mix.weight(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mix = ZipfMixture::new(3, 5, 0.0);
        for i in 0..5 {
            assert!((mix.weight(i) - 0.2).abs() < 1e-12);
        }
    }
}
