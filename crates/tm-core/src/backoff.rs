//! Randomized exponential backoff between aborted transaction attempts.

use crate::thread::ThreadCtx;

/// Base of the spin ceiling, doubled once per consecutive abort.
const MIN_SPINS: u32 = 16;
/// Cap on the (jittered) spin ceiling.
const MAX_SPINS: u32 = 4096;
/// Cap on the exponential growth: the ceiling stops doubling after this
/// many consecutive aborts, so the `1 << exp` shift cannot overflow.
const MAX_EXP: u32 = 16;
/// Consecutive aborts after which the thread yields the CPU instead of
/// spinning (important when threads outnumber cores, as in the paper's
/// oversubscribed configurations).
const YIELD_AFTER: u32 = 6;

/// Per-transaction backoff state.
///
/// Spins (with `spin_loop` hints) for a randomized, exponentially growing
/// number of iterations after each abort, and starts yielding the CPU once
/// the abort count reaches `YIELD_AFTER`.  The jitter is drawn from the
/// thread's private RNG ([`ThreadCtx::next_backoff_seed`]) only when the
/// thread actually spins, so a transaction that never aborts never touches
/// it, and each thread's jitter stays deterministic by thread id.
#[derive(Debug, Default)]
pub struct Backoff {
    attempts: u32,
}

impl Backoff {
    /// Starts a fresh contention episode (the driver calls it after a
    /// deschedule).
    pub fn reset(&mut self) {
        self.attempts = 0;
    }

    /// Records an abort and waits an appropriate amount of time: a jittered
    /// spin of at most `spin_ceiling` iterations, switching to yielding
    /// the CPU after `YIELD_AFTER` consecutive aborts.
    pub fn abort_and_wait(&mut self, thread: &ThreadCtx) {
        self.attempts += 1;
        if self.attempts >= YIELD_AFTER {
            std::thread::yield_now();
            return;
        }
        let spins = (thread.next_backoff_seed() % spin_ceiling(self.attempts) as u64) as u32 + 1;
        for _ in 0..spins {
            std::hint::spin_loop();
        }
    }
}

/// The jitter ceiling after `attempts` consecutive aborts: [`MIN_SPINS`]
/// doubled per abort, at most [`MAX_EXP`] times, capped at [`MAX_SPINS`].
fn spin_ceiling(attempts: u32) -> u32 {
    let exp = attempts.min(MAX_EXP);
    MIN_SPINS.saturating_mul(1 << exp).min(MAX_SPINS)
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
}

impl Default for SpinWait {
    fn default() -> Self {
        SpinWait::new()
    }
}

/// `splitmix64`: a bijective 64-bit mixer.  Seeds per-thread xorshift
/// streams so nearby seeds and thread ids still produce uncorrelated
/// streams, and hashes keys where a well-spread, deterministic value is
/// needed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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
    use crate::thread::ThreadRegistry;

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
        let th = ThreadRegistry::new().register();
        let mut b = Backoff::default();
        assert_eq!(b.attempts, 0);
        b.abort_and_wait(&th);
        b.abort_and_wait(&th);
        assert_eq!(b.attempts, 2);
        b.reset();
        assert_eq!(b.attempts, 0);
    }

    #[test]
    fn backoff_survives_many_aborts() {
        // Past `YIELD_AFTER` every abort yields instead of spinning.
        let th = ThreadRegistry::new().register();
        let mut b = Backoff::default();
        for _ in 0..50 {
            b.abort_and_wait(&th);
        }
        assert_eq!(b.attempts, 50);
        // Only the spinning aborts drew jitter from the thread's RNG.
        let twin = ThreadRegistry::new().register();
        for _ in 1..YIELD_AFTER {
            twin.next_backoff_seed();
        }
        assert_eq!(th.next_backoff_seed(), twin.next_backoff_seed());
    }

    #[test]
    fn exponent_cap_bounds_growth_without_overflow() {
        // A huge abort count must not overflow the `1 << exp` shift (a debug
        // build panics if it does), and the ceiling stays bounded by
        // `MAX_SPINS` while never shrinking.
        let mut last = 0;
        for attempts in (0..64).chain([1000, u32::MAX]) {
            let ceiling = spin_ceiling(attempts);
            assert!((MIN_SPINS..=MAX_SPINS).contains(&ceiling), "{attempts}");
            assert!(ceiling >= last, "{attempts}");
            last = ceiling;
        }
        assert_eq!(spin_ceiling(u32::MAX), MAX_SPINS);
    }

    #[test]
    fn spin_wait_counts_its_pauses() {
        let mut s = SpinWait::new();
        for _ in 0..SpinWait::DEFAULT_SPINS + 2 {
            s.pause();
        }
        assert_eq!(s.spins, SpinWait::DEFAULT_SPINS + 2);
    }
}
