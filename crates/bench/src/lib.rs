//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation (§2.4).
//!
//! Each figure binary (`fig2_3` … `fig2_8`, `table2_1`) is a thin wrapper
//! around the sweep functions in this library:
//!
//! * [`bounded_buffer_figure`] — Figures 2.3 (eager STM), 2.4 (lazy STM) and
//!   2.5 (HTM): the producer/consumer micro-benchmark swept over
//!   producer/consumer counts and buffer sizes.
//! * [`parsec_figure`] — Figures 2.6–2.8: the eight PARSEC-like kernels swept
//!   over thread counts.
//! * [`table_2_1`] — Table 2.1: lines-of-code accounting, paper numbers and
//!   this reproduction's measured numbers side by side.
//!
//! The sweeps default to a scaled-down configuration so that a full figure
//! regenerates in minutes on a small machine (the reproduction's host has a
//! single core; the paper used 4 cores / 8 threads).  The `TM_EXP_*`
//! environment variables restore the paper's full parameters:
//!
//! | variable          | meaning                                     | default |
//! |-------------------|---------------------------------------------|---------|
//! | `TM_EXP_FULL=1`   | paper-scale items, panels, trials           | off     |
//! | `TM_EXP_ITEMS`    | items produced+consumed per micro trial     | 16384   |
//! | `TM_EXP_TRIALS`   | trials averaged per point                   | 2       |
//! | `TM_EXP_PC`       | comma list of `p.c` panels (e.g. `1.1,2.4`) | `1.1,1.2,2.1,2.2,4.4` |
//! | `TM_EXP_BUFFERS`  | comma list of buffer sizes                  | `4,16,128` |
//! | `TM_EXP_THREADS`  | comma list of thread counts (PARSEC)        | `1,2,4,8` |
//! | `TM_EXP_SCALE`    | PARSEC kernel scale: `test`, `small`, `full`| `test`  |
//!
//! The bounded-buffer report header records `orec_shards`, which follows
//! the host's core count.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io;
use std::path::{Path, PathBuf};

use condsync::Mechanism;
use tm_core::{default_orec_shards, TmConfig};
use tm_workloads::loc;
use tm_workloads::parsec::{KernelParams, ParsecApp, Scale};
use tm_workloads::pc::{run_pc_configured, PcParams};
use tm_workloads::report::{DataPoint, Report};
use tm_workloads::runtime::RuntimeKind;

/// Sweep configuration shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Items produced (and consumed) per micro-benchmark trial.
    pub items: u64,
    /// Trials averaged per data point (the paper averages 5).
    pub trials: u32,
    /// Producer/consumer panel pairs for Figures 2.3–2.5.
    pub pc_panels: Vec<(usize, usize)>,
    /// Buffer sizes (the micro-benchmark x-axis).
    pub buffer_sizes: Vec<usize>,
    /// Thread counts for Figures 2.6–2.8.
    pub thread_counts: Vec<usize>,
    /// PARSEC kernel scale.
    pub scale: Scale,
    /// Mechanisms to measure (Retry-Orig is dropped automatically on HTM).
    pub mechanisms: Vec<Mechanism>,
}

impl FigureOptions {
    /// The scaled-down default: every mechanism, a representative subset of
    /// panels, small item counts.  Suitable for a single-core host.
    pub fn quick() -> Self {
        FigureOptions {
            items: 1 << 14,
            trials: 2,
            pc_panels: vec![(1, 1), (1, 2), (2, 1), (2, 2), (4, 4)],
            buffer_sizes: vec![4, 16, 128],
            thread_counts: vec![1, 2, 4, 8],
            scale: Scale::Test,
            mechanisms: Mechanism::ALL.to_vec(),
        }
    }

    /// The paper's full sweep: 2^20 items, all 16 `pi-cj` panels, 5 trials,
    /// full kernel scale.  Takes hours on a small machine.
    pub fn full_paper() -> Self {
        FigureOptions {
            items: PcParams::PAPER_ITEMS,
            trials: 5,
            pc_panels: vec![
                (1, 1),
                (1, 2),
                (1, 4),
                (1, 8),
                (2, 1),
                (2, 2),
                (2, 4),
                (2, 8),
                (4, 1),
                (4, 2),
                (4, 4),
                (4, 8),
                (8, 1),
                (8, 2),
                (8, 4),
                (8, 8),
            ],
            buffer_sizes: vec![4, 16, 128],
            thread_counts: vec![1, 2, 3, 4, 5, 6, 7, 8],
            scale: Scale::Full,
            mechanisms: Mechanism::ALL.to_vec(),
        }
    }

    /// Builds options from the `TM_EXP_*` environment variables (falling back
    /// to [`FigureOptions::quick`], or [`FigureOptions::full_paper`] when
    /// `TM_EXP_FULL=1`).
    pub fn from_env() -> Self {
        let mut opts = if env_flag("TM_EXP_FULL") {
            Self::full_paper()
        } else {
            Self::quick()
        };
        if let Some(items) = env_parse::<u64>("TM_EXP_ITEMS") {
            opts.items = items.max(1);
        }
        if let Some(trials) = env_parse::<u32>("TM_EXP_TRIALS") {
            opts.trials = trials.max(1);
        }
        if let Some(panels) = env_list("TM_EXP_PC") {
            let parsed: Vec<(usize, usize)> = panels
                .iter()
                .filter_map(|s| {
                    let (p, c) = s.split_once('.')?;
                    Some((p.parse().ok()?, c.parse().ok()?))
                })
                .collect();
            if !parsed.is_empty() {
                opts.pc_panels = parsed;
            }
        }
        if let Some(sizes) = env_list("TM_EXP_BUFFERS") {
            let parsed: Vec<usize> = sizes.iter().filter_map(|s| s.parse().ok()).collect();
            if !parsed.is_empty() {
                opts.buffer_sizes = parsed;
            }
        }
        if let Some(threads) = env_list("TM_EXP_THREADS") {
            let parsed: Vec<usize> = threads.iter().filter_map(|s| s.parse().ok()).collect();
            if !parsed.is_empty() {
                opts.thread_counts = parsed;
            }
        }
        if let Ok(scale) = std::env::var("TM_EXP_SCALE") {
            opts.scale = match scale.to_ascii_lowercase().as_str() {
                "full" => Scale::Full,
                "small" => Scale::Small,
                _ => Scale::Test,
            };
        }
        opts
    }

    /// The mechanisms applicable to `kind` (drops Retry-Orig on HTM).
    pub fn mechanisms_for(&self, kind: RuntimeKind) -> Vec<Mechanism> {
        self.mechanisms
            .iter()
            .copied()
            .filter(|m| kind.supports_retry_orig() || m.supports_htm())
            .collect()
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

fn env_list(name: &str) -> Option<Vec<String>> {
    let raw = std::env::var(name).ok()?;
    Some(raw.split(',').map(|s| s.trim().to_string()).collect())
}

/// Runs the producer/consumer sweep for one runtime configuration,
/// producing the report behind Figure 2.3, 2.4 or 2.5.
pub fn bounded_buffer_figure(kind: RuntimeKind, opts: &FigureOptions) -> Report {
    let experiment = match kind {
        RuntimeKind::EagerStm => "fig2.3",
        RuntimeKind::LazyStm => "fig2.4",
        RuntimeKind::Htm => "fig2.5",
        // Beyond the paper: the hybrid configuration gets its own report.
        RuntimeKind::Hybrid => "fig2.5-hybrid",
    };
    let mut report = Report::new(
        experiment,
        "Bounded buffer producer/consumer micro-benchmark",
        kind.label(),
    );
    report.note("items", opts.items.to_string());
    report.note("trials", opts.trials.to_string());
    report.note("host_cores", num_cpus_estimate().to_string());
    // The orec shard count follows the host's core count: recorded, so a
    // report can be read without knowing the host.
    report.note("orec_shards", default_orec_shards().to_string());

    for &(p, c) in &opts.pc_panels {
        for mechanism in opts.mechanisms_for(kind) {
            for &size in &opts.buffer_sizes {
                let params = PcParams::new(p, c, size, opts.items, mechanism);
                let config = TmConfig::default().with_heap_words(params.heap_words());
                let results: Vec<_> = (0..opts.trials.max(1))
                    .map(|_| run_pc_configured(kind, &params, config))
                    .collect();
                assert!(
                    results.iter().all(|r| r.checksum_ok),
                    "conservation check failed for {mechanism} p{p}c{c} size {size}"
                );
                let durations: Vec<_> = results.iter().map(|r| r.elapsed).collect();
                let stats = results.last().expect("at least one trial").stats;
                let point = DataPoint::from_trials(size as u64, &durations, stats);
                report
                    .panel_mut(&params.panel_label(), "buffer size")
                    .series_mut(mechanism)
                    .push(point);
            }
        }
    }
    report
}

/// Runs the PARSEC kernel sweep for one runtime configuration, producing the
/// report behind Figure 2.6, 2.7 or 2.8.
pub fn parsec_figure(kind: RuntimeKind, opts: &FigureOptions) -> Report {
    let experiment = match kind {
        RuntimeKind::EagerStm => "fig2.6",
        RuntimeKind::LazyStm => "fig2.7",
        RuntimeKind::Htm => "fig2.8",
        // Beyond the paper: the hybrid configuration gets its own report.
        RuntimeKind::Hybrid => "fig2.8-hybrid",
    };
    let mut report = Report::new(experiment, "PARSEC-like kernels", kind.label());
    report.note("scale", format!("{:?}", opts.scale));
    report.note("trials", opts.trials.to_string());
    report.note("orec_shards", default_orec_shards().to_string());

    for app in ParsecApp::ALL {
        for mechanism in opts.mechanisms_for(kind) {
            for &threads in &opts.thread_counts {
                if !app.supported_threads().contains(&threads) {
                    continue;
                }
                let params = KernelParams::new(threads, mechanism, kind, opts.scale);
                let mut durations = Vec::with_capacity(opts.trials as usize);
                let mut stats = Default::default();
                for _ in 0..opts.trials.max(1) {
                    let result = app.run(&params);
                    durations.push(result.elapsed);
                    stats = result.stats;
                }
                let point = DataPoint::from_trials(threads as u64, &durations, stats);
                report
                    .panel_mut(app.label(), "# of threads")
                    .series_mut(mechanism)
                    .push(point);
            }
        }
    }
    report
}

/// Renders Table 2.1: the paper's numbers followed by this reproduction's
/// measured adapter-line counts.
pub fn table_2_1() -> String {
    let mut out = String::new();
    out.push_str(&loc::render_table(
        "Table 2.1 — paper (lines added/removed per PARSEC benchmark)",
        &loc::paper_table(),
    ));
    out.push('\n');
    out.push_str(&loc::render_table(
        "Table 2.1 — this reproduction (synchronization adapter lines in the synthetic kernels)",
        &loc::measured_table(),
    ));
    out
}

/// Directory into which figure binaries write their JSON reports.
pub fn default_output_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Writes a report's JSON alongside its rendered text and returns the JSON
/// path.
pub fn write_report(report: &Report, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let base = report.experiment.replace('.', "_");
    let json_path = dir.join(format!("{base}.json"));
    std::fs::write(&json_path, report.to_json())?;
    std::fs::write(dir.join(format!("{base}.txt")), report.render())?;
    Ok(json_path)
}

/// Prints a report and persists it to [`default_output_dir`], reporting any
/// write error on stderr without failing the run.
pub fn emit(report: &Report) {
    println!("{}", report.render());
    match write_report(report, &default_output_dir()) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not persist report: {e}"),
    }
}

fn num_cpus_estimate() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_workloads::json::Value;

    fn tiny_options() -> FigureOptions {
        FigureOptions {
            items: 256,
            trials: 1,
            pc_panels: vec![(1, 1), (2, 2)],
            buffer_sizes: vec![4, 16],
            thread_counts: vec![1, 2],
            scale: Scale::Test,
            mechanisms: vec![Mechanism::Pthreads, Mechanism::Retry, Mechanism::RetryOrig],
        }
    }

    #[test]
    fn quick_options_cover_all_mechanisms_and_paper_buffer_sizes() {
        let q = FigureOptions::quick();
        assert_eq!(q.mechanisms.len(), 7);
        assert_eq!(q.buffer_sizes, vec![4, 16, 128]);
        assert!(q.items >= 1 << 10);
        let f = FigureOptions::full_paper();
        assert_eq!(f.items, 1 << 20);
        assert_eq!(f.pc_panels.len(), 16);
        assert_eq!(f.trials, 5);
    }

    #[test]
    fn mechanisms_for_htm_excludes_retry_orig() {
        let opts = tiny_options();
        assert!(opts
            .mechanisms_for(RuntimeKind::EagerStm)
            .contains(&Mechanism::RetryOrig));
        assert!(!opts
            .mechanisms_for(RuntimeKind::Htm)
            .contains(&Mechanism::RetryOrig));
    }

    #[test]
    fn bounded_buffer_figure_produces_every_panel_and_series() {
        let opts = tiny_options();
        let report = bounded_buffer_figure(RuntimeKind::EagerStm, &opts);
        assert_eq!(report.experiment, "fig2.3");
        assert_eq!(report.panels.len(), 2);
        for panel in &report.panels {
            assert_eq!(panel.series.len(), 3);
            assert_eq!(panel.xs(), vec![4, 16]);
        }
    }

    #[test]
    fn parsec_figure_covers_all_apps() {
        let mut opts = tiny_options();
        opts.mechanisms = vec![Mechanism::Retry];
        opts.thread_counts = vec![1];
        let report = parsec_figure(RuntimeKind::EagerStm, &opts);
        assert_eq!(report.experiment, "fig2.6");
        assert_eq!(report.panels.len(), ParsecApp::ALL.len());
    }

    #[test]
    fn table_2_1_mentions_both_views() {
        let text = table_2_1();
        assert!(text.contains("paper"));
        assert!(text.contains("reproduction"));
        assert!(text.contains("fluidanimate"));
    }

    #[test]
    fn write_report_persists_json_and_text() {
        let opts = FigureOptions {
            mechanisms: vec![Mechanism::Restart],
            pc_panels: vec![(1, 1)],
            buffer_sizes: vec![4],
            items: 64,
            trials: 1,
            ..tiny_options()
        };
        let report = bounded_buffer_figure(RuntimeKind::EagerStm, &opts);
        let dir = std::env::temp_dir().join("tm-bench-test-reports");
        let path = write_report(&report, &dir).expect("write report");
        assert!(path.with_extension("txt").exists());
        let json = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let experiment = json.require("experiment").unwrap().as_str();
        assert_eq!(experiment, Some(report.experiment.as_str()));
    }
}
