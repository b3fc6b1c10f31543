//! Result records and table rendering for the evaluation harness.
//!
//! Every figure binary produces a [`Report`]: a set of [`Series`] (one per
//! condition-synchronization mechanism), each containing measured
//! [`DataPoint`]s.  Reports can be rendered as the plain-text tables the
//! paper's figures plot, or serialized to JSON for post-processing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::json::Value;
use condsync::Mechanism;
use tm_core::StatsSnapshot;

/// One measured point: a configuration label (e.g. buffer size or thread
/// count) mapped to a wall-clock time and the runtime statistics gathered
/// during the trial.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// X-axis value (buffer size for Figures 2.3–2.5, thread count for
    /// Figures 2.6–2.8).
    pub x: u64,
    /// Mean wall-clock seconds over the trials.
    pub seconds: f64,
    /// Sample standard deviation of the per-trial seconds.
    pub stddev: f64,
    /// Number of trials averaged.
    pub trials: u32,
    /// Aggregated transaction statistics from the last trial.
    pub stats: StatsSnapshot,
}

impl DataPoint {
    /// Builds a point from raw per-trial durations.
    pub fn from_trials(x: u64, durations: &[Duration], stats: StatsSnapshot) -> Self {
        assert!(
            !durations.is_empty(),
            "a data point needs at least one trial"
        );
        let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
        let mean = secs.iter().sum::<f64>() / secs.len() as f64;
        let var = if secs.len() > 1 {
            secs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (secs.len() - 1) as f64
        } else {
            0.0
        };
        DataPoint {
            x,
            seconds: mean,
            stddev: var.sqrt(),
            trials: secs.len() as u32,
            stats,
        }
    }
}

/// One line in a figure: a mechanism and its measured points.
#[derive(Debug, Clone)]
pub struct Series {
    /// The mechanism this series measures.
    pub mechanism: Mechanism,
    /// Measured points, ordered by `x`.
    pub points: Vec<DataPoint>,
}

impl Series {
    /// Creates an empty series for `mechanism`.
    pub fn new(mechanism: Mechanism) -> Self {
        Series {
            mechanism,
            points: Vec::new(),
        }
    }

    /// Adds a point, keeping the series ordered by `x`.
    pub fn push(&mut self, point: DataPoint) {
        self.points.push(point);
        self.points.sort_by_key(|p| p.x);
    }

    /// Looks up the point at `x`, if measured.
    pub fn at(&self, x: u64) -> Option<&DataPoint> {
        self.points.iter().find(|p| p.x == x)
    }

    /// The statistics of all points merged (counters add, maxima take the
    /// larger value).
    fn merged_stats(&self) -> StatsSnapshot {
        self.points
            .iter()
            .fold(StatsSnapshot::default(), |acc, p| acc.merge(&p.stats))
    }
}

/// One counter on a `# …` statistics line of a rendered panel.
struct Col {
    label: &'static str,
    width: usize,
    get: fn(&StatsSnapshot) -> u64,
    /// A gating column prints its line when non-zero.  The others are
    /// context (`hw commits` on the mode-ladder line): shown beside the
    /// counters the line is about, never the reason to print it.
    gates: bool,
}

const fn gate(label: &'static str, width: usize, get: fn(&StatsSnapshot) -> u64) -> Col {
    Col {
        label,
        width,
        get,
        gates: true,
    }
}

const fn show(label: &'static str, width: usize, get: fn(&StatsSnapshot) -> u64) -> Col {
    Col {
        label,
        width,
        get,
        gates: false,
    }
}

/// The statistics lines of a panel, in print order: one line per group and
/// series, skipped when every gating counter of the group is zero, so an
/// ordinary run renders only the planes it touched.
const GROUPS: &[(&str, &[Col])] = &[
    // Targeted-wake effectiveness (conditions evaluated against shards never
    // visited) plus the timed-wait counters.
    (
        "wake-path",
        &[
            gate("waiters scanned", 8, |s| s.wake_checks),
            show("wakeups", 8, |s| s.wakeups),
            gate("shards scanned", 8, |s| s.wake_shard_scans),
            gate("shards skipped", 10, |s| s.wake_shard_skips),
            show("targeted commits", 8, |s| s.wake_targeted),
            show("pred reindexes", 6, |s| s.pred_reindexes),
            gate("timeouts", 8, |s| s.wake_timeouts),
            gate("cancels", 6, |s| s.wake_cancels),
            show("timer ticks", 8, |s| s.timer_ticks),
        ],
    ),
    // High-water marks (max-merged across threads) and attempts that began
    // on containers an earlier attempt had grown.
    (
        "access-set",
        &[
            gate("read set max", 8, |s| s.read_set_max),
            gate("write set max", 8, |s| s.write_set_max),
            gate("pool reuses", 10, |s| s.log_pool_reuses),
        ],
    ),
    // Commits per rung, ladder and policy movement, and the explicit aborts
    // the `Restart` baseline is built on.
    (
        "mode-ladder",
        &[
            show("hw commits", 8, |s| s.hw_commits),
            show("sw commits", 8, |s| s.sw_commits),
            gate("serial commits", 8, |s| s.serial_commits),
            gate("mode switches", 8, |s| s.mode_switches),
            gate("cm escalations", 8, |s| s.cm_escalations),
            gate("explicit aborts", 8, |s| s.explicit_aborts),
        ],
    ),
    // Injected faults, alongside the total hardware aborts they hide among.
    (
        "hardware-plane",
        &[
            gate("faults injected", 8, |s| s.hw_faults_injected),
            show("hw aborts", 8, |s| s.hw_aborts),
        ],
    ),
    // Shared counter writes against lazy stamps that reused the clock (the
    // ratio the decentralized clock drives toward zero), and epoch slots
    // scanned while quiescing.
    (
        "clock",
        &[
            gate("shared-line cas", 8, |s| s.clock_cas),
            gate("lazy reuses", 8, |s| s.clock_reuse),
            gate("quiesce scans", 10, |s| s.quiesce_scans),
        ],
    ),
    // Free read-only commits, declared-read-only transactions the driver
    // had to upgrade, and begin snapshots advanced in place of an abort.
    (
        "snapshot",
        &[
            gate("ro fast commits", 8, |s| s.ro_fast_commits),
            gate("ro upgrades", 8, |s| s.ro_upgrades),
            gate("refreshes", 10, |s| s.snapshot_refreshes),
        ],
    ),
    // Mutex-free arena allocations against global refills, cross-thread
    // frees, and failed CASes on the sharded orec table.
    (
        "memory-plane",
        &[
            gate("arena allocs", 8, |s| s.heap_arena_allocs),
            gate("global refills", 8, |s| s.heap_global_refills),
            gate("remote frees", 8, |s| s.heap_remote_frees),
            gate("orec cas failures", 8, |s| s.orec_cas_failures),
        ],
    ),
];

/// One panel of a figure (e.g. `p2-c4` in Figure 2.3, or one PARSEC app in
/// Figure 2.6): a set of series sharing the same x-axis.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel label (`"p2-c4"`, `"dedup"`, …).
    pub label: String,
    /// What the x-axis means (`"buffer size"`, `"# of threads"`).
    pub x_label: String,
    /// One series per mechanism.
    pub series: Vec<Series>,
}

impl Panel {
    /// Creates an empty panel.
    pub fn new(label: impl Into<String>, x_label: impl Into<String>) -> Self {
        Panel {
            label: label.into(),
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// The series for `mechanism`, creating it if absent.
    pub fn series_mut(&mut self, mechanism: Mechanism) -> &mut Series {
        if let Some(i) = self.series.iter().position(|s| s.mechanism == mechanism) {
            return &mut self.series[i];
        }
        self.series.push(Series::new(mechanism));
        self.series.last_mut().expect("just pushed")
    }

    /// All distinct x values across the panel's series, sorted.
    pub fn xs(&self) -> Vec<u64> {
        let mut xs: Vec<u64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// The mechanism with the smallest mean time at `x`, if any point exists.
    pub fn winner_at(&self, x: u64) -> Option<Mechanism> {
        self.series
            .iter()
            .filter_map(|s| s.at(x).map(|p| (s.mechanism, p.seconds)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are finite"))
            .map(|(m, _)| m)
    }

    /// Renders the panel as a fixed-width text table (x value per row, one
    /// column per mechanism), matching the rows the paper's plots encode,
    /// followed by one statistics line per counter group a series touched
    /// and the latency lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.label);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>12}", s.mechanism.label());
        }
        let _ = writeln!(out);
        for x in self.xs() {
            let _ = write!(out, "{x:>14}");
            for s in &self.series {
                match s.at(x) {
                    Some(p) => {
                        let _ = write!(out, " {:>12.4}", p.seconds);
                    }
                    None => {
                        let _ = write!(out, " {:>12}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for (title, cols) in GROUPS {
            out.push_str(&self.render_group(title, cols));
        }
        out.push_str(&self.render_latency_stats());
        out
    }

    /// One `# <title> <mechanism>: <label> <count>  …` line per series whose
    /// gating counters are not all zero.
    fn render_group(&self, title: &str, cols: &[Col]) -> String {
        let mut out = String::new();
        for s in &self.series {
            let stats = s.merged_stats();
            if cols.iter().all(|c| !c.gates || (c.get)(&stats) == 0) {
                continue;
            }
            let _ = write!(out, "# {title} {:>10}:", s.mechanism.label());
            for (i, c) in cols.iter().enumerate() {
                let sep = if i == 0 { " " } else { "  " };
                let _ = write!(out, "{sep}{} {:>w$}", c.label, (c.get)(&stats), w = c.width);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// One line per mechanism and commit class giving whole-transaction
    /// latency quantile upper bounds from the log2 histograms: p50, p99 and
    /// p999, each the inclusive upper edge of the bucket the quantile falls
    /// in.  `n` is the exact operation count and `timed` the one-in-eight
    /// sample of them the quantiles rank over; a class that ran but was
    /// never timed shows `-`, not a zero bound.  The classes are update and
    /// read-only commits; a class that never ran is skipped.  Each line
    /// also carries the series' `ro_fast_commits` / `snapshot_refreshes`
    /// counters, so the snapshot fast-path claim is visible wherever a
    /// latency is quoted.
    pub fn render_latency_stats(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            let stats = s.merged_stats();
            for (class, hist) in [
                ("update", &stats.update_tx_latency),
                ("ro", &stats.ro_tx_latency),
            ] {
                if hist.count() == 0 {
                    continue;
                }
                let bound = |q: f64| match hist.samples() {
                    0 => "-".to_string(),
                    _ => format!("{}ns", hist.quantile_upper_bound(q)),
                };
                let _ = writeln!(
                    out,
                    "# latency {:>10} {:>6}: n {:>10}  timed {:>10}  p50 <= {:>14}  p99 <= {:>14}  p999 <= {:>14}  ro_fast {:>10}  refreshes {:>8}",
                    s.mechanism.label(),
                    class,
                    hist.count(),
                    hist.samples(),
                    bound(0.50),
                    bound(0.99),
                    bound(0.999),
                    stats.ro_fast_commits,
                    stats.snapshot_refreshes,
                );
            }
        }
        out
    }
}

/// A complete experiment: one figure or table of the paper.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment identifier (`"fig2.3"`, `"table2.1"`, …).
    pub experiment: String,
    /// Human-readable title.
    pub title: String,
    /// Runtime configuration label (`"eager-stm"`, `"lazy-stm"`, `"htm"`).
    pub runtime: String,
    /// The figure's panels.
    pub panels: Vec<Panel>,
    /// Free-form notes (trial counts, scaling factors, host description).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(
        experiment: impl Into<String>,
        title: impl Into<String>,
        runtime: impl Into<String>,
    ) -> Self {
        Report {
            experiment: experiment.into(),
            title: title.into(),
            runtime: runtime.into(),
            panels: Vec::new(),
            notes: BTreeMap::new(),
        }
    }

    /// Adds a note recorded alongside the data (e.g. `items = 2^16`).
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.insert(key.into(), value.into());
    }

    /// Adds a panel and returns a mutable reference to it.
    pub fn panel_mut(&mut self, label: &str, x_label: &str) -> &mut Panel {
        if let Some(i) = self.panels.iter().position(|p| p.label == label) {
            return &mut self.panels[i];
        }
        self.panels.push(Panel::new(label, x_label));
        self.panels.last_mut().expect("just pushed")
    }

    /// Renders the whole report as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} — {} [{}]",
            self.experiment, self.title, self.runtime
        );
        for (k, v) in &self.notes {
            let _ = writeln!(out, "#   {k}: {v}");
        }
        let _ = writeln!(out);
        for panel in &self.panels {
            out.push_str(&panel.render());
            out.push('\n');
        }
        out
    }

    /// Serializes the report to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }
}

// Hand-written JSON serialization: the build environment cannot fetch
// serde, and the record types are few and flat enough that explicit code
// stays readable.  Field names match what a serde derive would emit.

fn stats_to_value(stats: &StatsSnapshot) -> Value {
    Value::Obj(
        stats
            .as_pairs()
            .into_iter()
            .map(|(name, v)| (name.to_string(), Value::Num(v as f64)))
            .collect(),
    )
}

impl DataPoint {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("x", Value::Num(self.x as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("stddev", Value::Num(self.stddev)),
            ("trials", Value::Num(self.trials as f64)),
            ("stats", stats_to_value(&self.stats)),
        ])
    }
}

impl Series {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("mechanism", Value::Str(self.mechanism.label().to_string())),
            (
                "points",
                Value::Arr(self.points.iter().map(DataPoint::to_value).collect()),
            ),
        ])
    }
}

impl Panel {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("label", Value::Str(self.label.clone())),
            ("x_label", Value::Str(self.x_label.clone())),
            (
                "series",
                Value::Arr(self.series.iter().map(Series::to_value).collect()),
            ),
        ])
    }
}

impl Report {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("experiment", Value::Str(self.experiment.clone())),
            ("title", Value::Str(self.title.clone())),
            ("runtime", Value::Str(self.runtime.clone())),
            (
                "panels",
                Value::Arr(self.panels.iter().map(Panel::to_value).collect()),
            ),
            (
                "notes",
                Value::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(x: u64, secs: f64) -> DataPoint {
        DataPoint {
            x,
            seconds: secs,
            stddev: 0.0,
            trials: 1,
            stats: StatsSnapshot::default(),
        }
    }

    #[test]
    fn from_trials_computes_mean_and_stddev() {
        let p = DataPoint::from_trials(
            16,
            &[Duration::from_millis(100), Duration::from_millis(300)],
            StatsSnapshot::default(),
        );
        assert_eq!(p.x, 16);
        assert!((p.seconds - 0.2).abs() < 1e-9);
        assert!(p.stddev > 0.0);
        assert_eq!(p.trials, 2);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn from_trials_rejects_empty_input() {
        let _ = DataPoint::from_trials(1, &[], StatsSnapshot::default());
    }

    #[test]
    fn series_stays_sorted_and_lookup_works() {
        let mut s = Series::new(Mechanism::Retry);
        s.push(point(128, 1.0));
        s.push(point(4, 2.0));
        s.push(point(16, 1.5));
        assert_eq!(
            s.points.iter().map(|p| p.x).collect::<Vec<_>>(),
            vec![4, 16, 128]
        );
        assert!((s.at(16).unwrap().seconds - 1.5).abs() < 1e-12);
        assert!(s.at(99).is_none());
    }

    #[test]
    fn panel_tracks_winner_and_xs() {
        let mut panel = Panel::new("p1-c1", "buffer size");
        panel.series_mut(Mechanism::Retry).push(point(4, 0.8));
        panel.series_mut(Mechanism::Pthreads).push(point(4, 1.2));
        panel.series_mut(Mechanism::Restart).push(point(4, 0.5));
        panel.series_mut(Mechanism::Restart).push(point(16, 0.4));
        assert_eq!(panel.xs(), vec![4, 16]);
        assert_eq!(panel.winner_at(4), Some(Mechanism::Restart));
        assert_eq!(panel.winner_at(16), Some(Mechanism::Restart));
        assert_eq!(panel.winner_at(9999), None);
    }

    #[test]
    fn panel_series_mut_reuses_existing_series() {
        let mut panel = Panel::new("p", "x");
        panel.series_mut(Mechanism::Await).push(point(1, 1.0));
        panel.series_mut(Mechanism::Await).push(point(2, 2.0));
        assert_eq!(panel.series.len(), 1);
        assert_eq!(panel.series[0].points.len(), 2);
    }

    #[test]
    fn report_renders_tables_and_writes_parsable_json() {
        let mut r = Report::new("fig2.3", "Bounded buffer, eager STM", "eager-stm");
        r.note("items", "65536");
        let panel = r.panel_mut("p1-c1", "buffer size");
        panel.series_mut(Mechanism::Retry).push(point(4, 0.9));
        panel.series_mut(Mechanism::Await).push(point(4, 0.8));
        let text = r.render();
        assert!(text.contains("fig2.3"));
        assert!(text.contains("p1-c1"));
        assert!(text.contains("Retry"));
        assert!(text.contains("0.9"));

        let json = Value::parse(&r.to_json()).unwrap();
        assert_eq!(json.require("experiment").unwrap().as_str(), Some("fig2.3"));
        let panels = json.require("panels").unwrap().as_arr().unwrap();
        assert_eq!(panels.len(), 1);
        let series = panels[0].require("series").unwrap().as_arr().unwrap();
        assert_eq!(
            series[0].require("mechanism").unwrap().as_str(),
            Some("Retry")
        );
        let point = &series[0].require("points").unwrap().as_arr().unwrap()[0];
        assert_eq!(point.require("seconds").unwrap().as_f64(), Some(0.9));
        let notes = json.require("notes").unwrap();
        assert_eq!(notes.require("items").unwrap().as_str(), Some("65536"));
    }

    /// One row per statistics line: counters that must not print it on their
    /// own, then the counters of a series that did the work, and how the line
    /// prints each of them.
    struct GroupCase {
        title: &'static str,
        context_only: StatsSnapshot,
        worked: StatsSnapshot,
        printed: &'static [&'static str],
    }

    fn group_cases() -> Vec<GroupCase> {
        let zero = StatsSnapshot::default;
        vec![
            GroupCase {
                title: "wake-path",
                context_only: StatsSnapshot {
                    wakeups: 3,
                    timer_ticks: 99,
                    ..zero()
                },
                worked: StatsSnapshot {
                    wake_checks: 12,
                    wakeups: 3,
                    wake_shard_scans: 5,
                    wake_shard_skips: 200,
                    wake_targeted: 7,
                    pred_reindexes: 2,
                    wake_timeouts: 4,
                    wake_cancels: 1,
                    timer_ticks: 99,
                    ..zero()
                },
                printed: &[
                    "waiters scanned       12",
                    "wakeups        3",
                    "shards scanned        5",
                    "shards skipped        200",
                    "targeted commits        7",
                    "pred reindexes      2",
                    "timeouts        4",
                    "cancels      1",
                    "timer ticks       99",
                ],
            },
            // A lossy consumer can time out without any writer ever scanning
            // a shard; its series must still surface the timeout counters.
            GroupCase {
                title: "wake-path",
                context_only: zero(),
                worked: StatsSnapshot {
                    wake_timeouts: 6,
                    ..zero()
                },
                printed: &["timeouts        6"],
            },
            GroupCase {
                title: "access-set",
                context_only: zero(),
                worked: StatsSnapshot {
                    read_set_max: 16384,
                    write_set_max: 512,
                    log_pool_reuses: 31,
                    ..zero()
                },
                printed: &[
                    "read set max    16384",
                    "write set max      512",
                    "pool reuses         31",
                ],
            },
            // Plain software commits alone do not make a mode-ladder line; the
            // Restart baseline's explicit aborts do, with no serial work at all.
            GroupCase {
                title: "mode-ladder",
                context_only: StatsSnapshot {
                    sw_commits: 100,
                    ..zero()
                },
                worked: StatsSnapshot {
                    sw_commits: 10,
                    explicit_aborts: 55,
                    ..zero()
                },
                printed: &["sw commits       10", "explicit aborts       55"],
            },
            GroupCase {
                title: "mode-ladder",
                context_only: StatsSnapshot {
                    hw_commits: 50,
                    ..zero()
                },
                worked: StatsSnapshot {
                    hw_commits: 7,
                    sw_commits: 3,
                    serial_commits: 2,
                    mode_switches: 9,
                    cm_escalations: 4,
                    ..zero()
                },
                printed: &[
                    "hw commits        7",
                    "sw commits        3",
                    "serial commits        2",
                    "mode switches        9",
                    "cm escalations        4",
                ],
            },
            // Genuine hardware aborts alone do not make a hardware-plane line.
            GroupCase {
                title: "hardware-plane",
                context_only: StatsSnapshot {
                    hw_commits: 50,
                    hw_aborts: 5,
                    ..zero()
                },
                worked: StatsSnapshot {
                    hw_faults_injected: 33,
                    hw_aborts: 40,
                    ..zero()
                },
                printed: &["faults injected       33", "hw aborts       40"],
            },
            GroupCase {
                title: "clock",
                context_only: zero(),
                worked: StatsSnapshot {
                    clock_cas: 3,
                    clock_reuse: 997,
                    quiesce_scans: 1234,
                    ..zero()
                },
                printed: &[
                    "shared-line cas        3",
                    "lazy reuses      997",
                    "quiesce scans       1234",
                ],
            },
            GroupCase {
                title: "snapshot",
                context_only: zero(),
                worked: StatsSnapshot {
                    ro_fast_commits: 420,
                    ro_upgrades: 7,
                    snapshot_refreshes: 13,
                    ..zero()
                },
                printed: &[
                    "ro fast commits      420",
                    "ro upgrades        7",
                    "refreshes         13",
                ],
            },
            GroupCase {
                title: "memory-plane",
                context_only: zero(),
                worked: StatsSnapshot {
                    heap_arena_allocs: 640,
                    heap_global_refills: 9,
                    heap_remote_frees: 17,
                    orec_cas_failures: 3,
                    ..zero()
                },
                printed: &[
                    "arena allocs      640",
                    "global refills        9",
                    "remote frees       17",
                    "orec cas failures        3",
                ],
            },
        ]
    }

    fn point_with(x: u64, stats: StatsSnapshot) -> DataPoint {
        DataPoint {
            stats,
            ..point(x, 1.0)
        }
    }

    #[test]
    fn each_stats_line_renders_only_for_series_that_did_its_work() {
        for case in group_cases() {
            let title = case.title;
            let (_, cols) = GROUPS
                .iter()
                .find(|(t, _)| *t == title)
                .expect("a group of that title");
            let mut panel = Panel::new("p1-c1", "buffer size");
            panel
                .series_mut(Mechanism::Pthreads)
                .push(point_with(4, case.context_only));
            assert!(
                panel.render_group(title, cols).is_empty(),
                "{title}: context counters alone print no line"
            );

            panel
                .series_mut(Mechanism::Retry)
                .push(point_with(4, case.worked));
            // A second point with smaller maxima must not shrink a rendered
            // high-water mark (max-merge, not sum).
            panel.series_mut(Mechanism::Retry).push(point_with(
                16,
                StatsSnapshot {
                    read_set_max: 10,
                    ..StatsSnapshot::default()
                },
            ));
            let text = panel.render();
            let mut lines = text
                .lines()
                .filter(|l| l.starts_with(&format!("# {title} ")));
            let line = lines.next().unwrap_or_else(|| panic!("{title}: no line"));
            assert!(line.contains("Retry:"), "{line}");
            for printed in case.printed {
                assert!(
                    line.contains(printed),
                    "{title}: `{printed}` not in `{line}`"
                );
            }
            assert_eq!(
                lines.next(),
                None,
                "{title}: series without that work stay out of the block"
            );
        }
    }

    #[test]
    fn latency_stats_render_quantiles_per_commit_class() {
        let mut panel = Panel::new("p1-c1", "buffer size");
        panel.series_mut(Mechanism::Pthreads).push(point(4, 1.0));
        assert!(
            panel.render_latency_stats().is_empty(),
            "no samples, no latency lines"
        );

        let hist = tm_core::LatencyHistogram::default();
        for _ in 0..99 {
            hist.record(700);
        }
        hist.record(1_000_000);
        let mut with_lat = point(4, 1.0);
        with_lat.stats.update_tx_latency = hist.snapshot();
        with_lat.stats.ro_fast_commits = 2;
        with_lat.stats.snapshot_refreshes = 1;
        panel.series_mut(Mechanism::Retry).push(with_lat);
        let text = panel.render();
        assert!(text.contains("# latency"));
        assert!(text.contains("update"));
        // p50 falls in the 700ns bucket (upper edge 1023), p999 in the 1ms one.
        assert!(text.contains("p50 <=         1023ns"));
        assert!(text.contains("p999 <=      1048575ns"));
        assert!(!text.contains("    ro:"), "the empty ro class is skipped");
        // The fast-path counters ride on every latency line.
        for line in text.lines().filter(|l| l.starts_with("# latency")) {
            assert!(line.contains("ro_fast          2"), "{line}");
            assert!(line.contains("refreshes        1"), "{line}");
        }
    }

    #[test]
    fn latency_stats_show_counted_and_timed_and_never_a_bound_nobody_measured() {
        let mut panel = Panel::new("p1-c1", "buffer size");
        let mut p = point(4, 1.0);
        // A ten-op run whose draws all missed the sample: counted, not timed.
        let short = tm_core::LatencyHistogram::default();
        for _ in 0..10 {
            short.record_untimed();
        }
        p.stats.ro_tx_latency = short.snapshot();
        let sampled = tm_core::LatencyHistogram::default();
        for _ in 0..7 {
            sampled.record_untimed();
        }
        sampled.record(700);
        p.stats.update_tx_latency = sampled.snapshot();
        panel.series_mut(Mechanism::Retry).push(p);
        let text = panel.render_latency_stats();
        let line = |class: &str| {
            text.lines()
                .find(|l| l.contains(class))
                .unwrap_or_else(|| panic!("no {class} line in {text}"))
        };
        let ro = line("    ro:");
        assert!(ro.contains("n         10  timed          0"), "{ro}");
        assert!(ro.contains("p50 <=              -  "), "{ro}");
        assert!(!ro.contains("ns"), "an unmeasured bound printed: {ro}");
        let update = line("update:");
        assert!(
            update.contains("n          8  timed          1"),
            "{update}"
        );
        assert!(update.contains("p50 <=         1023ns"), "{update}");
    }

    #[test]
    fn missing_points_render_as_dashes() {
        let mut panel = Panel::new("p8-c8", "buffer size");
        panel.series_mut(Mechanism::Retry).push(point(4, 1.0));
        panel.series_mut(Mechanism::Await).push(point(16, 2.0));
        let text = panel.render();
        assert!(text.contains('-'));
    }
}
