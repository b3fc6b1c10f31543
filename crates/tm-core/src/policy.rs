//! Contention management: what the driver loop does *between* attempts.
//!
//! The driver reports each abort (with the per-transaction [`CmHistory`])
//! to the system's [`PolicyKind`], whose [`PolicyKind::on_abort`] answers
//! with a [`CmAction`] — whether to back off before re-executing, and
//! whether to escalate the transaction one rung up the engine's mode ladder
//! (hardware → software → serial; see
//! [`crate::driver::TxEngine::escalated_mode`]).
//!
//! Three policies exist, selected by [`crate::config::TmConfig::policy`]:
//!
//! * [`PolicyKind::Fixed`] — the historical behavior, and the default:
//!   backoff on contention, escalate only when a *hardware* transaction
//!   exhausts its speculative budget (GCC libitm's rule).  Software
//!   transactions never escalate.
//! * [`PolicyKind::Adaptive`] — `Fixed` plus starvation escalation: after a
//!   configurable number of consecutive contention aborts on *any* engine
//!   (or repeated `OutOfMemory` aborts), the transaction takes the
//!   guaranteed-progress serial path instead of backing off again.
//! * [`PolicyKind::Stubborn`] — an HTM-style bounded-retry ladder: retry
//!   immediately for the first half of its patience (optimists win fast),
//!   back off for the second half, then escalate.
//!
//! The stats they drive (`cm_escalations`, `mode_switches`,
//! `serial_commits`) are rendered by the workload reports.
//!
//! Explicit aborts (the `Restart` baseline, `xabort`) never reach the
//! policy: a program-requested restart is control flow, not contention, so
//! it re-executes immediately and feeds no history.

use crate::ctl::AbortReason;

/// Per-transaction abort history, owned by the driver loop and reset when
/// the transaction commits, deschedules, or escalates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CmHistory {
    /// Aborts observed by this transaction (explicit aborts excluded).
    pub aborts: u32,
    /// Consecutive contention-class aborts (reset by any non-contention
    /// abort).
    pub contention: u32,
    /// Non-explicit failures of *hardware* attempts (the speculative budget
    /// the `Fixed` policy spends).
    pub hw_failures: u32,
    /// `OutOfMemory` aborts observed.
    pub oom: u32,
}

impl CmHistory {
    /// Folds one abort into the history.  Called by the driver before the
    /// policy decides; explicit aborts are filtered out upstream.
    pub fn note(&mut self, event: &CmEvent) {
        self.aborts += 1;
        if event.reason.is_contention() {
            self.contention += 1;
        } else {
            self.contention = 0;
        }
        if event.hardware {
            self.hw_failures += 1;
        }
        if event.reason == AbortReason::OutOfMemory {
            self.oom += 1;
        }
    }

    /// Clears the history (after a deschedule ends the contention episode,
    /// or after an escalation changes the game).
    pub fn reset(&mut self) {
        *self = CmHistory::default();
    }
}

/// One abort, as reported to the policy.
#[derive(Debug, Clone, Copy)]
pub struct CmEvent {
    /// Why the attempt failed.
    pub reason: AbortReason,
    /// True if the failed attempt ran in (simulated) hardware.
    pub hardware: bool,
    /// The engine's speculative-attempt budget
    /// ([`crate::config::HtmConfig::max_attempts`]).
    pub hw_budget: u32,
}

/// The policy's verdict: what to do before the next attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmAction {
    /// Spin the jittered exponential backoff before re-executing.
    pub backoff: bool,
    /// Re-execute one rung up the engine's mode ladder
    /// ([`crate::driver::TxEngine::escalated_mode`]).
    pub escalate: bool,
}

impl CmAction {
    /// Re-execute immediately.
    pub const RERUN: CmAction = CmAction {
        backoff: false,
        escalate: false,
    };

    /// Back off, then re-execute in the same mode.
    pub const BACKOFF: CmAction = CmAction {
        backoff: true,
        escalate: false,
    };

    /// Escalate immediately (no backoff: the next rung does not contend).
    pub const ESCALATE: CmAction = CmAction {
        backoff: false,
        escalate: true,
    };
}

/// The contention-management policy a system runs
/// (see [`crate::config::TmConfig::policy`]).
///
/// Stateless across transactions: all mutable state lives in the
/// [`CmHistory`] the driver threads through, so one value serves every
/// thread of a [`crate::system::TmSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The historical hard-wired behavior (default): backoff on contention,
    /// hardware-only escalation after the speculative budget.
    #[default]
    Fixed,
    /// `Fixed` plus starvation escalation after `contention_threshold`
    /// consecutive contention aborts (or two `OutOfMemory` aborts) on any
    /// engine.
    Adaptive {
        /// Consecutive contention aborts before the transaction escalates
        /// (at least 1).
        contention_threshold: u32,
    },
    /// Bounded-retry ladder: immediate retries, then backoff, then
    /// escalation once `patience` aborts have been spent.
    Stubborn {
        /// Total aborts tolerated before escalating (at least 2); the first
        /// half retry without backoff.
        patience: u32,
    },
}

impl PolicyKind {
    /// A conservative adaptive default (escalate after 8 consecutive
    /// contention aborts).
    pub const ADAPTIVE_DEFAULT: PolicyKind = PolicyKind::Adaptive {
        contention_threshold: 8,
    };

    /// A stubborn default (8 aborts of patience, first 4 without backoff).
    pub const STUBBORN_DEFAULT: PolicyKind = PolicyKind::Stubborn { patience: 8 };

    /// Decides what the driver does after an abort.  `history` has already
    /// absorbed `event` via [`CmHistory::note`]; an escalation resets it so
    /// the next rung starts fresh.
    pub fn on_abort(self, history: &mut CmHistory, event: &CmEvent) -> CmAction {
        let budget_spent = event.hardware && history.hw_failures >= event.hw_budget;
        let contention = event.reason.is_contention();
        let (escalate, backoff) = match self {
            // Escalate only when a hardware transaction exhausts its
            // speculative budget (GCC libitm's rule).
            PolicyKind::Fixed => (budget_spent, contention),
            // A transaction that keeps losing to contention (on any engine)
            // or keeps running out of memory takes the guaranteed-progress
            // rung instead of backing off forever.
            PolicyKind::Adaptive {
                contention_threshold,
            } => {
                let starved = history.contention >= contention_threshold.max(1) || history.oom >= 2;
                (starved || budget_spent, contention)
            }
            // Optimistic immediate retries for the first half of the
            // patience, then backoff, then escalation.
            PolicyKind::Stubborn { patience } => {
                let patience = patience.max(2);
                (history.aborts > patience, history.aborts > patience / 2)
            }
        };
        if escalate {
            history.reset();
            CmAction::ESCALATE
        } else {
            CmAction {
                backoff,
                escalate: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(reason: AbortReason, hardware: bool) -> CmEvent {
        CmEvent {
            reason,
            hardware,
            hw_budget: 2,
        }
    }

    fn drive(policy: PolicyKind, events: &[CmEvent]) -> (CmHistory, Vec<CmAction>) {
        let mut history = CmHistory::default();
        let mut actions = Vec::new();
        for e in events {
            history.note(e);
            actions.push(policy.on_abort(&mut history, e));
        }
        (history, actions)
    }

    #[test]
    fn fixed_matches_the_historical_behavior() {
        let p = PolicyKind::Fixed;
        // Software contention: backoff forever, never escalate.
        let sw = event(AbortReason::WriteConflict, false);
        let (_, actions) = drive(p, &[sw; 20]);
        assert!(actions.iter().all(|a| *a == CmAction::BACKOFF));

        // Hardware: escalate once the budget (2) is spent.
        let hw = event(AbortReason::HwConflict, true);
        let (_, actions) = drive(p, &[hw, hw, hw]);
        assert_eq!(actions[0], CmAction::BACKOFF);
        assert_eq!(actions[1], CmAction::ESCALATE);

        // Capacity aborts are not contention (no backoff) but spend budget.
        let cap = event(AbortReason::HwCapacity, true);
        let (_, actions) = drive(p, &[cap, cap]);
        assert_eq!(actions[0], CmAction::RERUN);
        assert_eq!(actions[1], CmAction::ESCALATE);

        // OutOfMemory reruns immediately, forever (the historical rule).
        let oom = event(AbortReason::OutOfMemory, false);
        let (_, actions) = drive(p, &[oom; 5]);
        assert!(actions.iter().all(|a| *a == CmAction::RERUN));
    }

    #[test]
    fn adaptive_escalates_on_starvation_and_oom() {
        let p = PolicyKind::Adaptive {
            contention_threshold: 3,
        };
        let sw = event(AbortReason::ReadConflict, false);
        let (history, actions) = drive(p, &[sw, sw, sw]);
        assert_eq!(actions[0], CmAction::BACKOFF);
        assert_eq!(actions[1], CmAction::BACKOFF);
        assert_eq!(actions[2], CmAction::ESCALATE);
        assert_eq!(history, CmHistory::default(), "escalation resets history");

        let oom = event(AbortReason::OutOfMemory, false);
        let (_, actions) = drive(p, &[oom, oom]);
        assert_eq!(actions[1], CmAction::ESCALATE);
    }

    #[test]
    fn adaptive_contention_counter_resets_on_non_contention_abort() {
        let p = PolicyKind::Adaptive {
            contention_threshold: 2,
        };
        let sw = event(AbortReason::WriteConflict, false);
        let cap = event(AbortReason::HwCapacity, false);
        let (_, actions) = drive(p, &[sw, cap, sw]);
        assert_eq!(
            actions[2],
            CmAction::BACKOFF,
            "the capacity abort broke the consecutive-contention streak"
        );
    }

    #[test]
    fn stubborn_climbs_its_ladder() {
        let p = PolicyKind::Stubborn { patience: 4 };
        let sw = event(AbortReason::WriteConflict, false);
        let (_, actions) = drive(p, &[sw; 5]);
        assert_eq!(actions[0], CmAction::RERUN, "optimistic rung");
        assert_eq!(actions[1], CmAction::RERUN);
        assert_eq!(actions[2], CmAction::BACKOFF, "backoff rung");
        assert_eq!(actions[3], CmAction::BACKOFF);
        assert_eq!(actions[4], CmAction::ESCALATE, "patience spent");
    }

    #[test]
    fn history_bookkeeping() {
        let mut h = CmHistory::default();
        h.note(&event(AbortReason::WriteConflict, true));
        h.note(&event(AbortReason::OutOfMemory, false));
        assert_eq!(h.aborts, 2);
        assert_eq!(h.contention, 0, "OOM reset the streak");
        assert_eq!(h.hw_failures, 1);
        assert_eq!(h.oom, 1);
        h.reset();
        assert_eq!(h, CmHistory::default());
    }
}
