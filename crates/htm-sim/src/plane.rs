//! The simulator's [`HwTm`] backend: the line-table coherence directory
//! packaged behind the pluggable hardware-plane trait.
//!
//! [`SimPlane`] is what [`crate::HtmSim`] installs by default.  It owns the
//! [`LineTable`] and implements the [`HwTm`] contract over it, delivering
//! dooms to conflicting threads through the system's thread registry so the
//! caller only learns about *its own* aborts.  Wrapping it in a
//! [`tm_core::FaultPlane`](tm_core::hwtm::FaultPlane) (which `HtmSim` does
//! automatically when [`tm_core::FaultConfig`] is enabled) turns the same
//! directory into a deterministic conflict-injection fuzzer.

use std::sync::Arc;

use tm_core::hwtm::{HwAbort, HwAbortKind, HwTm};
use tm_core::{LineId, ThreadId, TmSystem};

use crate::lines::{LineTable, WriteRegistration};

/// The simulated coherence directory as a hardware-plane backend.
pub struct SimPlane {
    system: Arc<TmSystem>,
    lines: LineTable,
}

impl std::fmt::Debug for SimPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPlane")
            .field("slots", &self.lines.len())
            .finish_non_exhaustive()
    }
}

impl SimPlane {
    /// Creates a backend over `system` (one directory slot per ownership
    /// record, as before the trait split).
    pub fn new(system: Arc<TmSystem>) -> Arc<Self> {
        let lines = LineTable::new(system.config.orec_count);
        Arc::new(SimPlane { system, lines })
    }

    /// The underlying directory (exposed for white-box tests).
    pub fn lines(&self) -> &LineTable {
        &self.lines
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
}

impl HwTm for SimPlane {
    fn slot_for(&self, line: LineId) -> usize {
        self.lines.slot_for(line)
    }

    fn read_line(&self, _line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        if let Some(writer) = self.lines.register_reader(slot, tid) {
            // Our coherence request dooms the speculative writer; we abort as
            // well rather than consuming a possibly torn value.
            self.doom(writer);
            self.lines.clear_reader(slot, tid);
            return Err(HwAbort::real(HwAbortKind::Conflict));
        }
        Ok(())
    }

    fn write_line(&self, _line: LineId, slot: usize, tid: ThreadId) -> Result<(), HwAbort> {
        match self.lines.register_writer(slot, tid) {
            WriteRegistration::Acquired { doomed_readers } => {
                self.doom_all(doomed_readers);
                Ok(())
            }
            WriteRegistration::Conflict { other } => {
                self.doom(other);
                Err(HwAbort::real(HwAbortKind::Conflict))
            }
        }
    }

    fn check_read_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort> {
        if distinct_lines > self.system.config.htm.max_read_lines {
            return Err(HwAbort::real(HwAbortKind::Capacity));
        }
        Ok(())
    }

    fn check_write_footprint(&self, distinct_lines: usize) -> Result<(), HwAbort> {
        if distinct_lines > self.system.config.htm.max_write_lines {
            return Err(HwAbort::real(HwAbortKind::Capacity));
        }
        Ok(())
    }

    fn commit_check(&self, _tid: ThreadId) -> Result<(), HwAbort> {
        // The simulator's own commit-window hazards (dooms, fallback lock)
        // are checked by the transaction under the commit barrier; the
        // directory adds nothing here.  Fault planes inject at this point.
        Ok(())
    }

    fn clear_read(&self, slot: usize, tid: ThreadId) {
        self.lines.clear_reader(slot, tid);
    }

    fn clear_write(&self, slot: usize, tid: ThreadId) {
        self.lines.clear_writer(slot, tid);
    }

    fn claim_for_writeback(&self, slot: usize, tid: ThreadId) {
        self.doom_all(self.lines.claim_for_writeback(slot, tid));
    }

    fn release_writeback(&self, slot: usize, tid: ThreadId) {
        self.lines.clear_writer(slot, tid);
    }

    fn line_cover(&self, line: LineId, out: &mut Vec<usize>) {
        out.extend(self.system.orecs.line_indices(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_core::{Addr, TmConfig, LINE_WORDS};

    #[test]
    fn plane_registers_and_clears_through_the_directory() {
        let system = TmSystem::new(TmConfig::small());
        let plane = SimPlane::new(Arc::clone(&system));
        let line = Addr(64).line();
        let slot = plane.slot_for(line);
        assert!(plane.read_line(line, slot, 1).is_ok());
        assert!(plane.lines().is_reader(slot, 1));
        assert!(plane.write_line(line, slot, 1).is_ok());
        assert_eq!(plane.lines().writer_of(slot), Some(1));
        plane.clear_read(slot, 1);
        plane.clear_write(slot, 1);
        assert!(!plane.lines().is_reader(slot, 1));
        assert_eq!(plane.lines().writer_of(slot), None);
    }

    #[test]
    fn conflicting_accesses_abort_and_doom() {
        let system = TmSystem::new(TmConfig::small());
        let t0 = system.register_thread();
        let t1 = system.register_thread();
        let plane = SimPlane::new(Arc::clone(&system));
        let line = Addr(0).line();
        let slot = plane.slot_for(line);
        assert!(plane.write_line(line, slot, t0.id).is_ok());
        let fault = plane.read_line(line, slot, t1.id).unwrap_err();
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
        let plane = SimPlane::new(system);
        assert!(plane.check_read_footprint(max_r).is_ok());
        assert_eq!(
            plane.check_read_footprint(max_r + 1).unwrap_err().kind,
            HwAbortKind::Capacity
        );
        assert!(plane.check_write_footprint(max_w).is_ok());
        assert!(plane.check_write_footprint(max_w + 1).is_err());
    }

    #[test]
    fn writeback_claim_dooms_every_occupant() {
        let system = TmSystem::new(TmConfig::small());
        let reader = system.register_thread();
        let writer = system.register_thread();
        let committer = system.register_thread();
        let plane = SimPlane::new(Arc::clone(&system));
        let line = Addr(128).line();
        let slot = plane.slot_for(line);
        assert!(plane.read_line(line, slot, reader.id).is_ok());
        assert!(plane.write_line(line, slot, writer.id).is_ok());
        reader.take_doomed(); // write_line doomed the reader; reset for the claim
        plane.claim_for_writeback(slot, committer.id);
        assert!(reader.is_doomed());
        assert!(writer.is_doomed());
        assert_eq!(plane.lines().writer_of(slot), Some(committer.id));
        plane.release_writeback(slot, committer.id);
        assert_eq!(plane.lines().writer_of(slot), None);
    }

    #[test]
    fn line_cover_covers_every_word_of_the_line() {
        let system = TmSystem::new(TmConfig::small());
        let plane = SimPlane::new(Arc::clone(&system));
        let line = Addr(256).line();
        let mut stripes = Vec::new();
        plane.line_cover(line, &mut stripes);
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
