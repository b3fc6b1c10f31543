//! The simulated coherence directory: the one hardware plane both hardware
//! engines drive.
//!
//! A [`Directory`] belongs to one hardware runtime ([`super::HtmSim`], which
//! the hybrid embeds).  It owns the [`LineTable`] of per-line registrations,
//! delivers dooms to conflicting threads through the system's thread
//! registry — so a caller only learns about *its own* aborts, as an
//! [`HwAbort`] — polices the configured capacity, and, when
//! [`crate::FaultConfig`] enables it, consults a seeded `FaultInjector` at
//! every injection point.  It covers the speculative life cycle at
//! cache-line granularity (registration, footprint, the commit-window
//! check, cleanup) plus the two couplings the hybrid needs: the write-back
//! claim a software commit uses to doom overlapping speculation, and the
//! line → ownership-record cover targeted wake scans are built from.
//!
//! The directory is per runtime, not per [`TmSystem`]: at the default
//! `orec_count` it is 1 MiB, which the software runtimes never pay.

use std::sync::Arc;

use super::fault::FaultInjector;
use super::lines::{LineTable, MAX_HW_THREADS};
use crate::access::{IndexSet, WriteEntry};
use crate::addr::LineId;
use crate::ctl::AbortReason;
use crate::system::TmSystem;
use crate::thread::ThreadId;

/// Classification of a hardware abort.
///
/// This is the architectural taxonomy (what Intel's `RTM` status word or Arm
/// TME's failure register encode); [`HwAbortKind::reason`] maps it onto the
/// runtime-level [`AbortReason`] the driver and contention policies consume.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HwAbortKind {
    /// A conflicting access from another processor invalidated a
    /// speculatively read or written line.
    Conflict,
    /// The transaction's read or write footprint overflowed the speculative
    /// capacity.
    Capacity,
    /// An environmental abort with no data cause (interrupt, TLB shootdown,
    /// unfriendly instruction) — retrying immediately may well succeed, so it
    /// is not classified as contention.
    Spurious,
}

impl HwAbortKind {
    /// The runtime-level abort reason this hardware abort maps to.
    pub fn reason(self) -> AbortReason {
        match self {
            HwAbortKind::Conflict => AbortReason::HwConflict,
            HwAbortKind::Capacity => AbortReason::HwCapacity,
            HwAbortKind::Spurious => AbortReason::HwSpurious,
        }
    }
}

/// A hardware abort: its architectural classification plus whether the
/// fault injector manufactured it (so the runtime can count injected
/// faults separately in `TxStats::hw_faults_injected`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HwAbort {
    /// What kind of abort the directory reported.
    pub kind: HwAbortKind,
    /// True when the fault injector manufactured this abort.
    pub injected: bool,
}

impl HwAbort {
    /// A genuine (non-injected) abort of the given kind.
    pub fn real(kind: HwAbortKind) -> Self {
        HwAbort {
            kind,
            injected: false,
        }
    }

    /// An abort manufactured by the fault injector.
    pub fn injected(kind: HwAbortKind) -> Self {
        HwAbort {
            kind,
            injected: true,
        }
    }
}

/// The simulated coherence directory of one hardware runtime.
pub struct Directory {
    system: Arc<TmSystem>,
    lines: LineTable,
    /// `Some` when the system's [`crate::FaultConfig`] enables injection.
    faults: Option<FaultInjector>,
    #[cfg(test)]
    pub(crate) probe: std::sync::OnceLock<probe::Hook>,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl Directory {
    /// A directory over `system`: one slot per ownership record, plus the
    /// fault injector when the system's configuration enables it.
    pub(crate) fn new(system: Arc<TmSystem>) -> Self {
        let config = &system.config;
        let faults = config
            .fault
            .enabled()
            .then(|| FaultInjector::new(config.fault, config.max_threads));
        Directory {
            lines: LineTable::new(config.orec_count),
            faults,
            system,
            #[cfg(test)]
            probe: Default::default(),
        }
    }

    /// The slot table (white-box test access).
    pub fn lines(&self) -> &LineTable {
        &self.lines
    }

    /// Maps a cache line to its slot, the token the registration, clear and
    /// claim methods take.
    #[inline]
    pub fn slot_for(&self, line: LineId) -> usize {
        self.lines.slot_for(line)
    }

    #[cfg(test)]
    fn probe(&self, call: probe::Call, tid: ThreadId) {
        if let Some(hook) = self.probe.get() {
            hook(call, tid);
        }
    }

    /// Delivers a conflict abort to another thread's in-flight hardware
    /// transaction.
    fn doom(&self, tid: ThreadId) {
        if let Some(t) = self.system.threads.get(tid) {
            t.doom();
        }
    }

    /// Dooms every thread whose bit is set in `mask` (bit = thread id) —
    /// nothing at all in the common case of no foreign occupant.
    fn doom_all(&self, mut mask: u64) {
        while mask != 0 {
            self.doom(mask.trailing_zeros() as ThreadId);
            mask &= mask - 1;
        }
    }

    /// The checks every registration makes first: a thread the reader mask
    /// cannot represent never speculates (its first registration is a
    /// capacity abort, which sends it down the mode ladder), then the
    /// injector's registration-time draw.
    #[inline]
    fn admit(&self, line: LineId, tid: ThreadId) -> Result<(), HwAbort> {
        if tid >= MAX_HW_THREADS {
            return Err(HwAbort::real(HwAbortKind::Capacity));
        }
        self.faults
            .as_ref()
            .map_or(Ok(()), |f| f.access_fault(line, tid))
    }

    /// Registers `tid` as a speculative reader of `line` (slot `slot`) until
    /// [`Directory::clear_read`]: the runtimes call this on an attempt's
    /// first read of a line it has not written, and treat every later
    /// access to the line as a hit.  `Err` means the attempt must abort; any
    /// conflicting speculative writer has already been doomed and the
    /// registration undone.
    #[inline]
    pub fn read_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        self.admit(line, tid)?;
        #[cfg(test)]
        self.probe(probe::Call::ReadLine, tid);
        if let Some(writer) = self.lines.register_reader(slot, tid) {
            // Our coherence request dooms the speculative writer; we abort as
            // well rather than consuming a possibly torn value.
            self.doom(writer);
            self.lines.clear_reader(slot, tid);
            return Err(HwAbort::real(HwAbortKind::Conflict));
        }
        #[cfg(test)]
        self.probe(probe::Call::Registered, tid);
        Ok(())
    }

    /// Registers `tid` as the speculative writer of `line` (slot `slot`)
    /// until [`Directory::clear_write`]: called on an attempt's first write
    /// of the line only.  On success every conflicting speculative reader
    /// has been doomed; `Err` means the attempt must abort.
    #[inline]
    pub fn write_line(&self, line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        self.admit(line, tid)?;
        #[cfg(test)]
        self.probe(probe::Call::WriteLine, tid);
        match self.lines.register_writer(slot, tid) {
            Ok(doomed_readers) => {
                self.doom_all(doomed_readers);
                Ok(())
            }
            Err(other) => {
                self.doom(other);
                Err(HwAbort::real(HwAbortKind::Conflict))
            }
        }
    }

    /// Polices the read (`write == false`) or write footprint after it grew
    /// to `distinct_lines` lines.
    #[inline]
    pub(crate) fn check_footprint(
        &self,
        write: bool,
        distinct_lines: usize,
    ) -> Result<(), HwAbort> {
        let htm = &self.system.config.htm;
        if distinct_lines > [htm.max_read_lines, htm.max_write_lines][write as usize] {
            return Err(HwAbort::real(HwAbortKind::Capacity));
        }
        Ok(())
    }

    /// The last chance to abort an attempt *inside the commit window*:
    /// called under the commit barrier, after the doom check and before the
    /// write-back becomes unabortable.  Only the fault injector aborts here
    /// (the simulator's own hazards are the doom flag and the fallback lock,
    /// which the transaction checks).
    #[inline]
    pub(crate) fn commit_check(&self, tid: ThreadId) -> Result<(), HwAbort> {
        self.faults.as_ref().map_or(Ok(()), |f| f.commit_fault(tid))
    }

    /// Removes `tid`'s reader registration from `slot` (abort or commit).
    #[inline]
    pub fn clear_read(&self, slot: usize, tid: ThreadId) {
        #[cfg(test)]
        self.probe(probe::Call::ClearRead, tid);
        self.lines.clear_reader(slot, tid);
    }

    /// Removes `tid`'s writer registration from `slot` (abort or commit).
    #[inline]
    pub fn clear_write(&self, slot: usize, tid: ThreadId) {
        #[cfg(test)]
        self.probe(probe::Call::ClearWrite, tid);
        self.lines.clear_writer(slot, tid);
    }

    /// Claims every line `entries` writes for a *software* commit's
    /// write-back, dooming every speculative occupant, and records the
    /// claimed slots in `slots` (the committer's idle write-slot set, lent
    /// empty).  Never fails: the software commit has validated and will
    /// write the lines.  Any speculative access arriving before
    /// [`Directory::release_writeback`] observes a foreign writer and aborts.
    pub(crate) fn claim_for_writeback(
        &self,
        entries: &[WriteEntry],
        slots: &mut IndexSet,
        tid: ThreadId,
    ) {
        for e in entries {
            slots.insert(self.slot_for(e.addr.line()));
        }
        for slot in slots.iter() {
            self.doom_all(self.lines.claim_for_writeback(slot, tid));
        }
    }

    /// Releases a [`Directory::claim_for_writeback`] claim after the
    /// write-back.
    pub(crate) fn release_writeback(&self, slots: &IndexSet, tid: ThreadId) {
        for slot in slots.iter() {
            self.lines.clear_writer(slot, tid);
        }
    }

    /// Appends the ownership-record stripes covering every word of `line` to
    /// `out` (the caller sorts/dedups).  An uncoupled hardware commit's
    /// effects are visible only at line granularity; this cover is a
    /// superset of the written words' stripes, so targeted wake scans built
    /// on it can never lose a wakeup.  (An orec-coupled commit locks and
    /// publishes the written words' own stripes, like a software commit.)
    pub(crate) fn line_cover(&self, line: LineId, out: &mut Vec<usize>) {
        out.extend(self.system.orecs.line_indices(line));
    }
}

/// Test-only instrumentation, compiled out of every other build: a hook
/// every directory operation reports to, for counting calls and for playing
/// a conflicting party inside an access.
#[cfg(test)]
pub(crate) mod probe {
    /// The directory operations a hook observes.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Call {
        ReadLine,
        WriteLine,
        ClearRead,
        ClearWrite,
        /// Right after a successful read registration.
        Registered,
    }

    pub(crate) type Hook = Box<dyn Fn(Call, crate::thread::ThreadId) + Send + Sync>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, TmConfig, LINE_WORDS};

    #[test]
    fn abort_kinds_map_to_reasons() {
        assert_eq!(HwAbortKind::Conflict.reason(), AbortReason::HwConflict);
        assert_eq!(HwAbortKind::Capacity.reason(), AbortReason::HwCapacity);
        assert_eq!(HwAbortKind::Spurious.reason(), AbortReason::HwSpurious);
        assert!(HwAbort::injected(HwAbortKind::Conflict).injected);
        assert!(!HwAbort::real(HwAbortKind::Conflict).injected);
    }

    #[test]
    fn conflicting_accesses_abort_and_doom() {
        let system = TmSystem::new(TmConfig::small());
        let t0 = system.register_thread();
        let t1 = system.register_thread();
        let dir = Directory::new(Arc::clone(&system));
        let line = Addr(0).line();
        let slot = dir.slot_for(line);
        assert!(dir.write_line(line, slot, t0.id).is_ok());
        let fault = dir.read_line(line, slot, t1.id).unwrap_err();
        assert_eq!(fault.kind, HwAbortKind::Conflict);
        assert!(!fault.injected, "genuine conflicts are not injected");
        assert!(t0.is_doomed(), "requester-wins dooms the writer");
        t0.take_doomed();
        t1.take_doomed();
    }

    #[test]
    fn footprints_police_the_configured_capacity() {
        let system = TmSystem::new(TmConfig::small());
        let max_r = system.config.htm.max_read_lines;
        let max_w = system.config.htm.max_write_lines;
        let dir = Directory::new(system);
        assert!(dir.check_footprint(false, max_r).is_ok());
        assert_eq!(
            dir.check_footprint(false, max_r + 1).unwrap_err(),
            HwAbort::real(HwAbortKind::Capacity)
        );
        assert!(dir.check_footprint(true, max_w).is_ok());
        assert!(dir.check_footprint(true, max_w + 1).is_err());
    }

    #[test]
    fn writeback_claim_dooms_every_occupant() {
        let system = TmSystem::new(TmConfig::small());
        let reader = system.register_thread();
        let writer = system.register_thread();
        let committer = system.register_thread();
        let dir = Directory::new(Arc::clone(&system));
        let addr = Addr(128);
        let slot = dir.slot_for(addr.line());
        assert!(dir.read_line(addr.line(), slot, reader.id).is_ok());
        assert!(dir.write_line(addr.line(), slot, writer.id).is_ok());
        reader.take_doomed(); // write_line doomed the reader; reset for the claim
        let entries = [WriteEntry {
            addr,
            val: 1,
            stripe: 0,
        }];
        let mut slots = IndexSet::default();
        dir.claim_for_writeback(&entries, &mut slots, committer.id);
        assert!(reader.is_doomed());
        assert!(writer.is_doomed());
        assert_eq!(dir.lines().writer_of(slot), Some(committer.id));
        dir.release_writeback(&slots, committer.id);
        assert_eq!(dir.lines().writer_of(slot), None);
    }

    #[test]
    fn line_cover_covers_every_word_of_the_line() {
        let system = TmSystem::new(TmConfig::small());
        let dir = Directory::new(Arc::clone(&system));
        let line = Addr(256).line();
        let mut stripes = Vec::new();
        dir.line_cover(line, &mut stripes);
        assert_eq!(stripes.len(), LINE_WORDS);
        for i in 0..LINE_WORDS {
            let addr = line.first_word().offset(i);
            assert!(
                stripes.contains(&system.orecs.index_for(addr)),
                "word {i} of the line must be covered"
            );
        }
    }
}
