//! Deterministic inter-arrival streams for open-loop load generation.
//!
//! An open-loop driver decides *when* the next operation arrives
//! independently of when earlier operations complete. This module
//! provides the arrival side of that driver as a seeded, replayable
//! stream of inter-arrival gaps, decoupled from any actor: the runner's
//! aggregated open-loop engine draws one stream per client group, so a
//! million clients cost one generator instead of a million actors.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The shape of an arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalDist {
    /// Poisson process: exponentially distributed gaps. The aggregate of
    /// independent Poisson sources is itself Poisson, which is what makes
    /// per-group aggregation exact for this distribution.
    #[default]
    Poisson,
    /// Uniform gaps in `[0, 2·mean]` — same mean rate, bounded burstiness.
    Uniform,
}

/// A seeded stream of inter-arrival gaps with a fixed mean (in ticks).
///
/// Gaps are drawn from the stream's own [`SmallRng`], never from the
/// simulator's world RNG, so adding or removing an arrival stream cannot
/// perturb any other randomness in a run.
///
/// # Examples
///
/// ```
/// use repl_workload::{ArrivalDist, ArrivalStream};
///
/// let mut a = ArrivalStream::new(ArrivalDist::Poisson, 100.0, 7);
/// let mut b = ArrivalStream::new(ArrivalDist::Poisson, 100.0, 7);
/// let gaps: Vec<u64> = (0..32).map(|_| a.next_gap()).collect();
/// assert_eq!(gaps, (0..32).map(|_| b.next_gap()).collect::<Vec<u64>>());
/// ```
#[derive(Debug)]
pub struct ArrivalStream {
    dist: ArrivalDist,
    mean: f64,
    rng: SmallRng,
}

impl ArrivalStream {
    /// Creates a stream with the given distribution, mean gap (ticks,
    /// may be fractional for aggregated high-rate processes) and seed.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn new(dist: ArrivalDist, mean: f64, seed: u64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "arrival mean must be positive, got {mean}"
        );
        ArrivalStream {
            dist,
            mean,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The stream's mean gap in ticks.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws the next inter-arrival gap in whole ticks. Gaps round to the
    /// nearest tick and may be zero when the mean is below a tick (an
    /// aggregated process faster than the clock resolution).
    pub fn next_gap(&mut self) -> u64 {
        let gap = match self.dist {
            ArrivalDist::Poisson => {
                let u: f64 = self.rng.gen_range(1e-12..1.0f64);
                -u.ln() * self.mean
            }
            ArrivalDist::Uniform => self.rng.gen_range(0.0..2.0 * self.mean),
        };
        // Round half-up; ticks are u64 so saturate on absurd draws.
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            (gap + 0.5) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        for dist in [ArrivalDist::Poisson, ArrivalDist::Uniform] {
            let a: Vec<u64> = {
                let mut s = ArrivalStream::new(dist, 250.0, 11);
                (0..100).map(|_| s.next_gap()).collect()
            };
            let b: Vec<u64> = {
                let mut s = ArrivalStream::new(dist, 250.0, 11);
                (0..100).map(|_| s.next_gap()).collect()
            };
            assert_eq!(a, b, "{dist:?}");
            let c: Vec<u64> = {
                let mut s = ArrivalStream::new(dist, 250.0, 12);
                (0..100).map(|_| s.next_gap()).collect()
            };
            assert_ne!(a, c, "{dist:?}: different seed, same stream");
        }
    }

    #[test]
    fn empirical_mean_tracks_configured_mean() {
        for dist in [ArrivalDist::Poisson, ArrivalDist::Uniform] {
            let mut s = ArrivalStream::new(dist, 1_000.0, 3);
            let n = 20_000u64;
            let total: u64 = (0..n).map(|_| s.next_gap()).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (900.0..1_100.0).contains(&mean),
                "{dist:?}: empirical mean {mean} too far from 1000"
            );
        }
    }

    #[test]
    fn uniform_gaps_are_bounded() {
        let mut s = ArrivalStream::new(ArrivalDist::Uniform, 100.0, 5);
        for _ in 0..10_000 {
            assert!(s.next_gap() <= 200);
        }
    }

    #[test]
    fn sub_tick_means_yield_zero_gaps() {
        // An aggregated process at 10 arrivals per tick: most gaps round
        // to zero, some to one; the stream must not get stuck.
        let mut s = ArrivalStream::new(ArrivalDist::Poisson, 0.1, 9);
        let gaps: Vec<u64> = (0..1_000).map(|_| s.next_gap()).collect();
        assert!(gaps.contains(&0));
        assert!(gaps.iter().sum::<u64>() < 1_000);
    }

    #[test]
    #[should_panic(expected = "arrival mean must be positive")]
    fn zero_mean_rejected() {
        let _ = ArrivalStream::new(ArrivalDist::Poisson, 0.0, 1);
    }
}
