//! One workload, measured: rounds of reps over the four runtimes, then the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! Reps are ordered rep → runtime, round-robin, so a noisy period on the
//! host is spread over all four cells instead of landing on one.  Work per
//! rep is fixed; `--seconds` decides how many rounds are run.

use std::io::Write;
use std::time::Instant;

use tm_core::StatsSnapshot;

use crate::arith::{best_of, iqr_over_median, median, percentile_sorted, Better};
use crate::trace::{CellTrace, Shares};
use crate::workloads::{Rep, RepSpec, Workload, RUNTIMES};

/// Timed rounds run at least this often, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// A traced run spends this share of `--seconds` on rounds; the per-layer
/// micro-measurements (a fixed amount of work) take the rest.
const TRACED_ROUND_SHARE: f64 = 0.75;

/// What to run.
pub struct Plan {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the benchmark's input generator.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// One rep of a tenth of the ops, no warm-up.
    pub smoke: bool,
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted, all runtimes and reps (warm-up included: it is checked
    /// like any other rep).
    pub attempted: u64,
    /// Ops of reps whose result check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// The first traced round's spans, for the trace file.
    pub trace: Vec<CellTrace>,
}

/// Everything the timed reps of one runtime's cell measured.
#[derive(Default)]
struct Cell {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    setup_s: Vec<f64>,
    traced_ops_per_s: Vec<f64>,
    stats: StatsSnapshot,
    ops: u64,
    items: u64,
    shares: Shares,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

impl Cell {
    fn add(&mut self, rep: &mut Rep, traced: bool) {
        let wall_s = rep.wall_ns as f64 / 1e9;
        if traced {
            self.traced_ops_per_s.push(rep.ops as f64 / wall_s);
            for t in &rep.traces {
                self.shares.add(t);
            }
        } else {
            self.ops_per_s.push(rep.ops as f64 / wall_s);
            rep.latencies_ns.sort_unstable();
            self.p50_us
                .push(percentile_sorted(&rep.latencies_ns, 0.50) / 1000.0);
            self.p99_us
                .push(percentile_sorted(&rep.latencies_ns, 0.99) / 1000.0);
            self.setup_s.push(rep.setup_ns as f64 / 1e9);
        }
        self.stats = self.stats.merge(&rep.stats);
        self.ops += rep.ops;
        self.items += if rep.items > 0 { rep.items } else { rep.ops };
    }
}

/// Tells the supervising parent which rep is about to run, so that a hang
/// can be reported as "workload, runtime, rep" and counted.
fn announce(workload: &str, runtime: &str, round: usize, ops: u64, outcome: &Outcome) {
    println!(
        "@rep {workload} {runtime} {round} {ops} {} {}",
        outcome.attempted, outcome.failed
    );
    std::io::stdout().flush().ok();
}

/// Runs the plan's rounds and computes its metrics.
pub fn run(plan: &Plan) -> Outcome {
    let mut outcome = Outcome::default();
    let mut cells: [Cell; 4] = Default::default();
    let ops = if plan.smoke {
        plan.workload.ops / 10
    } else {
        plan.workload.ops
    };
    let budget = plan.seconds * if plan.traced { TRACED_ROUND_SHARE } else { 1.0 };
    let started = Instant::now();
    let mut longest_round = 0.0f64;
    let mut timed_rounds = 0;
    // Round 0 is the warm-up (skipped by --smoke): checked, not measured.
    for round in usize::from(plan.smoke).. {
        let round_started = Instant::now();
        for (cell, (label, kind)) in cells.iter_mut().zip(RUNTIMES) {
            let mut specs = vec![RepSpec {
                kind,
                ops,
                seed: plan.seed,
                traced: false,
            }];
            if plan.traced {
                specs.push(RepSpec {
                    ops: ops / 4,
                    traced: true,
                    ..specs[0]
                });
            }
            for spec in specs {
                announce(plan.workload.name, label, round, spec.ops, &outcome);
                let mut rep = (plan.workload.rep)(&spec);
                outcome.attempted += spec.ops;
                if let Some(why) = rep.failure.take() {
                    outcome.failed += spec.ops;
                    outcome
                        .failures
                        .push(format!("{} {label} rep {round}: {why}", plan.workload.name));
                }
                if round > 0 {
                    cell.add(&mut rep, spec.traced);
                    if spec.traced && round == 1 {
                        outcome.trace.push(CellTrace {
                            runtime: label,
                            threads: rep.traces,
                        });
                    }
                }
            }
        }
        longest_round = longest_round.max(round_started.elapsed().as_secs_f64());
        timed_rounds += usize::from(round > 0);
        let out_of_time = started.elapsed().as_secs_f64() + longest_round > budget;
        if plan.smoke || (timed_rounds >= MIN_ROUNDS && out_of_time) {
            break;
        }
    }

    for (cell, (label, _)) in cells.iter().zip(RUNTIMES) {
        let reps: Vec<String> = cell.ops_per_s.iter().map(|v| format!("{v:.0}")).collect();
        println!("# reps {label} ops/s: {}", reps.join(" "));
    }
    if plan.traced {
        per_layer(plan, &cells, &mut outcome);
    } else {
        end_to_end(&cells, &mut outcome);
    }
    outcome
}

fn end_to_end(cells: &[Cell; 4], outcome: &mut Outcome) {
    for (cell, (label, _)) in cells.iter().zip(RUNTIMES) {
        outcome.metrics.push((
            format!("ops_per_s.{label}"),
            best_of(&cell.ops_per_s, Better::Higher),
        ));
        outcome.metrics.push((
            format!("op_p50_us.{label}"),
            best_of(&cell.p50_us, Better::Lower),
        ));
    }
    // Best of reps here too: a rep's set-up time is bimodal on the measuring
    // host, so over ten runs the fastest rep spread by 1-5 % where the median
    // rep spread by 9 % (README).
    let setup: f64 = cells
        .iter()
        .map(|c| best_of(&c.setup_s, Better::Lower))
        .sum();
    outcome.metrics.push(("setup_s".into(), setup));
    outcome
        .metrics
        .push(("peak_rss_mb".into(), crate::host::peak_rss_mib()));
}

/// The per-layer metrics of a traced run: counts and span shares of this
/// workload's own reps, then the workload-independent micro-measurements.
fn per_layer(plan: &Plan, cells: &[Cell; 4], outcome: &mut Outcome) {
    let mut total = Cell::default();
    for cell in cells {
        total.stats = total.stats.merge(&cell.stats);
        total.ops += cell.ops;
        total.items += cell.items;
        total.shares.merge(&cell.shares);
    }
    let s = &total.stats;
    let m = &mut outcome.metrics;
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    put(
        "clock.cas_per_commit",
        ratio(s.clock_cas, s.total_commits()),
    );
    put(
        "clock.reuse_per_commit",
        ratio(s.clock_reuse, s.total_commits()),
    );
    put(
        "epoch.quiesce_scans_per_commit",
        ratio(s.quiesce_scans, s.total_commits()),
    );
    put(
        "heap.arena_allocs_per_op",
        ratio(s.heap_arena_allocs, total.ops),
    );
    put(
        "heap.global_refills_per_op",
        ratio(s.heap_global_refills, total.ops),
    );
    put(
        "wake.checks_per_commit",
        ratio(s.wake_checks, s.total_commits()),
    );
    put("wake.wakeups_per_item", ratio(s.wakeups, total.items));
    put("wake.sleeps_per_item", ratio(s.sleeps, total.items));
    put(
        "wake.desched_skips_per_desched",
        ratio(s.desched_skips, s.descheds),
    );
    put("wake.timeouts_per_op", ratio(s.wake_timeouts, total.ops));
    for (cell, (label, _)) in cells.iter().zip(RUNTIMES) {
        put(
            &format!("rt.aborts_per_commit.{label}"),
            ratio(cell.stats.total_aborts(), cell.stats.total_commits()),
        );
    }
    for (cell, (label, _)) in cells.iter().zip(RUNTIMES).skip(2) {
        put(
            &format!("rt.hw_commit_share.{label}"),
            ratio(cell.stats.hw_commits, cell.stats.total_commits()),
        );
        put(
            &format!("rt.serial_per_commit.{label}"),
            ratio(cell.stats.serial_commits, cell.stats.total_commits()),
        );
    }

    // How far to trust the rest.
    let overheads: Vec<f64> = cells
        .iter()
        .map(|c| {
            let untraced = best_of(&c.ops_per_s, Better::Higher);
            100.0 * (1.0 - best_of(&c.traced_ops_per_s, Better::Higher) / untraced)
        })
        .collect();
    put("harness.trace_overhead_pct", median(&overheads));
    let spreads: Vec<f64> = cells
        .iter()
        .map(|c| 100.0 * iqr_over_median(&c.ops_per_s))
        .collect();
    put("harness.rep_spread_pct", best_of(&spreads, Better::Higher));
    for (cell, (label, _)) in cells.iter().zip(RUNTIMES) {
        put(&format!("harness.op_p99_us.{label}"), median(&cell.p99_us));
    }
    put("trace.body_share_pct", total.shares.body_share_pct());
    put("trace.runtime_share_pct", total.shares.runtime_share_pct());
    put("trace.attempts_per_op", total.shares.attempts_per_op());

    crate::micro::measure(plan.seed, outcome);
}
