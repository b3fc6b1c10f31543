//! `--selfcheck`: the count metrics repeat exactly.
//!
//! A claim may rest on a count only when the count repeats bit for bit, so
//! this runs `tx_update` twice on each runtime and compares every count the
//! per-layer metrics divide, then checks the one relation `tx_bystander`
//! must obey.

use tm_core::StatsSnapshot;

use crate::workloads::{tx_rep, Bystander, RepSpec, RUNTIMES};

const OPS: u64 = 20_000;

/// The counts that must repeat: `(name, value)`.
fn counts(s: &StatsSnapshot) -> [(&'static str, u64); 7] {
    [
        ("commits", s.total_commits()),
        ("aborts", s.total_aborts()),
        ("clock_cas", s.clock_cas),
        ("clock_reuse", s.clock_reuse),
        ("read_set_max", s.read_set_max),
        ("write_set_max", s.write_set_max),
        ("wake_checks", s.wake_checks),
    ]
}

/// Returns one line per violated expectation; empty means pass.
pub fn run() -> Vec<String> {
    let mut failures = Vec::new();
    for (label, kind) in RUNTIMES {
        let spec = RepSpec {
            kind,
            ops: OPS,
            seed: 1,
            traced: false,
        };
        let reps = [
            tx_rep(&spec, Bystander::None),
            tx_rep(&spec, Bystander::None),
        ];
        for rep in &reps {
            if let Some(why) = &rep.failure {
                failures.push(format!("tx_update {label}: {why}"));
            }
        }
        let (first, second) = (counts(&reps[0].stats), counts(&reps[1].stats));
        println!("tx_update    {label:<7} {first:?}");
        if first != second {
            failures.push(format!(
                "tx_update {label}: counts differ between identical reps: {first:?} vs {second:?}"
            ));
        }
        if reps[0].stats.total_commits() != OPS {
            failures.push(format!(
                "tx_update {label}: {} commits for {OPS} ops",
                reps[0].stats.total_commits()
            ));
        }
        if reps[0].stats.wake_checks != 0 {
            failures.push(format!(
                "tx_update {label}: {} wake checks with an empty registry",
                reps[0].stats.wake_checks
            ));
        }

        // Every writer commit checks the one sleeper once: the ops, plus the
        // commit that finally makes the predicate true.
        let rep = tx_rep(&spec, Bystander::Pred);
        if let Some(why) = &rep.failure {
            failures.push(format!("tx_bystander {label}: {why}"));
        }
        println!("tx_bystander {label:<7} {:?}", counts(&rep.stats));
        if rep.stats.wake_checks != OPS + 1 {
            failures.push(format!(
                "tx_bystander {label}: {} wake checks, want ops + 1 = {}",
                rep.stats.wake_checks,
                OPS + 1
            ));
        }
    }
    failures
}
