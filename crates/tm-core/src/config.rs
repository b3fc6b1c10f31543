//! Configuration for a transactional-memory system instance.

use crate::policy::PolicyKind;

/// Configuration of the simulated best-effort HTM (see [`crate::hardware`]).
///
/// The defaults approximate Intel TSX on a Haswell-class part as used in the
/// paper's evaluation: L1-bounded write capacity, larger read capacity, and a
/// GCC-libitm-style policy of two speculative attempts before taking the
/// serial fallback lock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HtmConfig {
    /// Maximum distinct cache lines a hardware transaction may read.
    pub max_read_lines: usize,
    /// Maximum distinct cache lines a hardware transaction may write.
    pub max_write_lines: usize,
    /// Speculative attempts before falling back to the serial lock
    /// (GCC suspends concurrency "after a transaction aborts twice").
    pub max_attempts: u32,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            max_read_lines: 512,
            max_write_lines: 64,
            max_attempts: 2,
        }
    }
}

/// Configuration of the deterministic hardware fault injector that a
/// hardware runtime's [`crate::hardware::Directory`] consults.
///
/// The default is all-zero, which disables injection entirely: a hardware
/// runtime's directory holds an injector only when [`FaultConfig::enabled`]
/// is true, so production paths pay one `None` test per injection point.  Rates are expressed per 65536 draws of a
/// seeded per-thread `xorshift64*` stream, so a run is exactly reproducible
/// from `(seed, thread id)`.  The access-time knobs draw once per *line
/// registration* — an attempt's first read and first write of a cache line
/// — not per access: later accesses to a resident line never reach the
/// directory.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Seed for the per-thread random streams.
    pub seed: u64,
    /// Conflict-abort probability per speculative line registration, in
    /// 65536ths.
    pub conflict_per_64k: u16,
    /// Force a conflict abort on every registration of a cache line whose
    /// index is a multiple of this value (`0` disables; `1` dooms every
    /// line).
    pub conflict_line_mod: u64,
    /// Spurious-abort probability per speculative line registration, in
    /// 65536ths.
    pub spurious_per_64k: u16,
    /// Conflict-abort probability *inside the commit window* (after the doom
    /// check, before write-back), in 65536ths per commit attempt.
    pub commit_window_per_64k: u16,
}

impl FaultConfig {
    /// True when any injection knob is set, i.e. a hardware runtime's
    /// directory consults a fault injector.
    pub fn enabled(self) -> bool {
        self.conflict_per_64k != 0
            || self.conflict_line_mod != 0
            || self.spurious_per_64k != 0
            || self.commit_window_per_64k != 0
    }
}

/// Configuration of the lazily driven timer wheel that delivers deadlines
/// to timed waits (see [`crate::timer::TimerWheel`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TimerConfig {
    /// Number of wheel slots (rounded up to a power of two).  One lap covers
    /// `slots * tick_micros` microseconds; deadlines further out stay in
    /// their slot and are re-examined once per lap.
    pub slots: usize,
    /// Microseconds per wheel tick (clamped to at least 1).  Coarser ticks
    /// mean cheaper polls and coarser timeout delivery; the sleeper's own
    /// semaphore timeout bounds the delivered error regardless.
    pub tick_micros: u64,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            slots: 256,
            tick_micros: 1000,
        }
    }
}

/// Default shard count for the ownership-record plane: the machine's
/// available parallelism rounded up to a power of two, clamped to 64 so a
/// huge core count cannot dwarf a small table.
pub fn default_orec_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .min(64)
}

/// Configuration for a [`crate::system::TmSystem`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TmConfig {
    /// Number of 64-bit words in the transactional heap.
    pub heap_words: usize,
    /// Number of ownership records (rounded up to a power of two by
    /// [`crate::orec::OrecTable::new`]).
    pub orec_count: usize,
    /// Number of shards the ownership-record table is split into (rounded up
    /// to a power of two and clamped to the table size).  Each shard is its
    /// own zeroed allocation whose pages are first touched when a stripe on
    /// them is first used, by the thread that uses it, so on a NUMA machine
    /// first-touch places them near their users instead of landing the
    /// whole table on the node that built the system.  Stripe indices remain
    /// stable global ids regardless of the shard count.
    pub orec_shards: usize,
    /// Number of shards in the address-indexed waiter registry (rounded up
    /// to a power of two).  Ownership-record stripes map onto shards by
    /// masking; more shards mean finer wake targeting at the cost of more
    /// registration work per multi-address wait condition.
    pub wake_shards: usize,
    /// Whether committing writers quiesce to provide privatization safety
    /// (the paper's STMs are privatization-safe variants).
    pub quiescence: bool,
    /// Hardware-TM simulation parameters.
    pub htm: HtmConfig,
    /// Deterministic hardware fault injection (see [`FaultConfig`]); the
    /// all-zero default disables the plane entirely.
    pub fault: FaultConfig,
    /// Timer-wheel parameters for timed waits.
    pub timer: TimerConfig,
    /// Which contention-management policy the system runs (see
    /// [`crate::policy`]); decides backoff versus mode escalation after
    /// aborts.
    pub policy: PolicyKind,
    /// Capacity of the per-thread epoch table — the maximum number of
    /// threads that may register with the system.  Fixed at construction so
    /// epoch slots never move and scans stay lock-free.
    pub max_threads: usize,
}

impl Default for TmConfig {
    fn default() -> Self {
        TmConfig {
            heap_words: 1 << 20,
            orec_count: 1 << 16,
            orec_shards: default_orec_shards(),
            wake_shards: 256,
            quiescence: true,
            htm: HtmConfig::default(),
            fault: FaultConfig::default(),
            timer: TimerConfig::default(),
            policy: PolicyKind::Fixed,
            max_threads: 1024,
        }
    }
}

impl TmConfig {
    /// A small configuration for unit tests: fast to allocate, and
    /// independent of the host's core count.
    pub fn small() -> Self {
        TmConfig {
            heap_words: 1 << 12,
            orec_count: 1 << 8,
            // A fixed small shard count so unit tests do not depend on the
            // host's core count.
            orec_shards: 2,
            wake_shards: 64,
            quiescence: true,
            htm: HtmConfig::default(),
            fault: FaultConfig::default(),
            timer: TimerConfig {
                slots: 64,
                ..TimerConfig::default()
            },
            policy: PolicyKind::Fixed,
            max_threads: 64,
        }
    }

    /// Disables privatization-safety quiescence.  Only for tests that drive
    /// two thread handles from one OS thread: a committing handle would
    /// otherwise quiesce on the other, in-flight one forever.  Kept until a
    /// deterministic schedule explorer replaces those tests.
    pub fn without_quiescence(mut self) -> Self {
        self.quiescence = false;
        self
    }

    /// Overrides the HTM parameters.
    pub fn with_htm(mut self, htm: HtmConfig) -> Self {
        self.htm = htm;
        self
    }

    /// Overrides the hardware fault-injection configuration.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Overrides the heap size.
    pub fn with_heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// Overrides the contention-management policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the epoch-table capacity (maximum registered threads).
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Overrides the ownership-record shard count.
    pub fn with_orec_shards(mut self, shards: usize) -> Self {
        self.orec_shards = shards;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reasonable() {
        let c = TmConfig::default();
        assert!(c.heap_words >= 1 << 16);
        // The default must already be a power of two: `OrecTable::new`
        // rounds odd counts up, but the shipped default should not rely on
        // that (the old `|| c.orec_count > 0` disjunct made this vacuous).
        assert!(c.orec_count.is_power_of_two());
        assert!(c.orec_shards >= 1);
        assert!(c.orec_shards.is_power_of_two());
        assert_eq!(
            TmConfig::small().orec_shards,
            2,
            "tests get a fixed shard count, not the host's core count"
        );
        assert!(c.quiescence);
        assert_eq!(c.htm.max_attempts, 2);
        assert!(c.max_threads >= 64);
    }

    #[test]
    fn builders_compose() {
        let c = TmConfig::small()
            .without_quiescence()
            .with_heap_words(100)
            .with_htm(HtmConfig {
                max_read_lines: 8,
                max_write_lines: 4,
                max_attempts: 1,
            })
            .with_policy(PolicyKind::ADAPTIVE_DEFAULT)
            .with_fault(FaultConfig {
                seed: 7,
                spurious_per_64k: 100,
                ..FaultConfig::default()
            })
            .with_max_threads(8)
            .with_orec_shards(4);
        assert_eq!(c.orec_shards, 4);
        assert!(!c.quiescence);
        assert!(c.fault.enabled());
        assert_eq!(c.fault.seed, 7);
        assert_eq!(c.max_threads, 8);
        assert_eq!(c.policy, PolicyKind::ADAPTIVE_DEFAULT);
        assert_eq!(c.heap_words, 100);
        assert_eq!(c.htm.max_write_lines, 4);
    }

    #[test]
    fn fault_config_default_is_disabled() {
        let f = FaultConfig::default();
        assert!(!f.enabled());
        assert!(!TmConfig::default().fault.enabled());
        assert!(FaultConfig {
            conflict_line_mod: 2,
            ..FaultConfig::default()
        }
        .enabled());
        assert!(FaultConfig {
            commit_window_per_64k: 1,
            ..FaultConfig::default()
        }
        .enabled());
        assert!(FaultConfig {
            spurious_per_64k: 4,
            ..FaultConfig::default()
        }
        .enabled());
        // A bare seed does not enable injection: it only parameterizes the
        // streams the other knobs draw from.
        assert!(!FaultConfig {
            seed: 99,
            ..FaultConfig::default()
        }
        .enabled());
    }

    #[test]
    fn default_shard_count_is_a_clamped_power_of_two() {
        let s = default_orec_shards();
        assert!(s.is_power_of_two());
        assert!((1..=64).contains(&s));
    }

    #[test]
    fn config_debug_is_descriptive() {
        let c = TmConfig::small();
        let d = format!("{c:?}");
        assert!(d.contains("heap_words"));
        assert!(d.contains("max_attempts"));
    }
}
