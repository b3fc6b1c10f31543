//! Randomized exponential backoff between aborted transaction attempts.

use crate::config::BackoffConfig;

/// Per-transaction backoff state.
///
/// Spins (with `spin_loop` hints) for a randomized, exponentially growing
/// number of iterations after each abort, and starts yielding the CPU once
/// the abort count passes `yield_after` — which matters in the paper's
/// oversubscribed configurations where threads outnumber cores.
#[derive(Debug)]
pub struct Backoff {
    config: BackoffConfig,
    attempts: u32,
    rng: XorShift64,
}

impl Backoff {
    /// Creates backoff state; `seed` only needs to differ across threads.
    pub fn new(config: BackoffConfig, seed: u64) -> Self {
        Backoff {
            config,
            attempts: 0,
            rng: XorShift64::new(seed),
        }
    }

    /// Number of aborts observed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Resets the state after a successful commit.
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Records an abort and waits an appropriate amount of time: a jittered
    /// exponentially growing spin whose growth stops at the configured cap
    /// (`max_exp` doublings, ceiling `max_spins`), switching to yielding the
    /// CPU after `yield_after` consecutive aborts.
    pub fn abort_and_wait(&mut self) {
        self.attempts += 1;
        if self.attempts >= self.config.yield_after {
            std::thread::yield_now();
            return;
        }
        let exp = self.attempts.min(self.config.max_exp).min(31);
        let ceiling = (self.config.min_spins.saturating_mul(1 << exp)).min(self.config.max_spins);
        let spins = if ceiling <= 1 {
            1
        } else {
            (self.rng.next() % ceiling as u64) as u32 + 1
        };
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }
}

/// A cheap spin-then-yield waiter for short waits on a condition another
/// thread is about to establish (lock hand-offs, quiescence, the HTM
/// fallback subscription).
///
/// Unlike [`Backoff`] this has no randomness and no exponential growth — it
/// spins with `spin_loop` hints for a bounded number of iterations, then
/// yields the CPU on every further pause so oversubscribed configurations
/// make progress.  It exists so the runtimes share one policy instead of
/// hand-rolling `spins > 64` loops.
#[derive(Debug)]
pub struct SpinWait {
    spins: u32,
}

impl SpinWait {
    /// Number of busy spins before yielding.
    pub const DEFAULT_SPINS: u32 = 64;

    /// Creates a waiter.
    pub fn new() -> Self {
        SpinWait { spins: 0 }
    }

    /// Number of pauses taken so far.
    pub fn pauses(&self) -> u32 {
        self.spins
    }

    /// Waits once: a `spin_loop` hint while under the threshold, a CPU yield
    /// beyond it.
    #[inline]
    pub fn pause(&mut self) {
        self.spins += 1;
        if self.spins > Self::DEFAULT_SPINS {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }

    /// Resets the waiter for a fresh wait.
    pub fn reset(&mut self) {
        self.spins = 0;
    }
}

impl Default for SpinWait {
    fn default() -> Self {
        SpinWait::new()
    }
}

/// A tiny xorshift PRNG so `tm-core` does not need the `rand` crate on the
/// transaction hot path.
#[derive(Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next pseudo-random value.
    ///
    /// Not an [`Iterator`]: the stream is infinite and `None` never occurs.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            let x = a.next();
            assert_eq!(x, b.next());
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut g = XorShift64::new(0);
        assert_ne!(g.next(), 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..32).filter(|_| a.next() == b.next()).count();
        assert!(same < 4);
    }

    #[test]
    fn backoff_counts_attempts_and_resets() {
        let mut b = Backoff::new(BackoffConfig::default(), 3);
        assert_eq!(b.attempts(), 0);
        b.abort_and_wait();
        b.abort_and_wait();
        assert_eq!(b.attempts(), 2);
        b.reset();
        assert_eq!(b.attempts(), 0);
    }

    #[test]
    fn backoff_survives_many_aborts() {
        let mut b = Backoff::new(
            BackoffConfig {
                min_spins: 1,
                max_spins: 8,
                max_exp: 4,
                yield_after: 3,
            },
            99,
        );
        for _ in 0..50 {
            b.abort_and_wait();
        }
        assert_eq!(b.attempts(), 50);
    }

    #[test]
    fn exponent_cap_bounds_growth_without_overflow() {
        // max_exp far above 31 must not overflow the 1 << exp shift, and a
        // huge abort count must stay bounded by max_spins.
        let mut b = Backoff::new(
            BackoffConfig {
                min_spins: 2,
                max_spins: 64,
                max_exp: 1000,
                yield_after: u32::MAX,
            },
            7,
        );
        for _ in 0..100 {
            b.abort_and_wait();
        }
        assert_eq!(b.attempts(), 100);
    }

    #[test]
    fn spin_wait_counts_and_resets() {
        let mut s = SpinWait::new();
        for _ in 0..SpinWait::DEFAULT_SPINS + 2 {
            s.pause();
        }
        assert_eq!(s.pauses(), SpinWait::DEFAULT_SPINS + 2);
        s.reset();
        assert_eq!(s.pauses(), 0);
    }
}
