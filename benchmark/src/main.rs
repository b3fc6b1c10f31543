//! `tm-ledger` — the repository's benchmark.
//!
//! ```text
//! tm-ledger --workload W --seed N --seconds S --trace 0|1   one workload; last line is the result
//! tm-ledger [--seed N] [--seconds S] [--out FILE]           all workloads, untraced then traced
//! tm-ledger --smoke                                         1 rep, a tenth of the ops, all checks
//! tm-ledger --selfcheck                                     count metrics repeat exactly
//! tm-ledger --compare A.json B.json                         two run-sets against the bounds
//! ```
//!
//! Every workload runs in a child process under a wall-clock deadline, so a
//! hang becomes a number and a non-zero exit, never a stuck run.

mod arith;
mod host;
mod metrics;
mod micro;
mod run;
mod selfcheck;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tm_workloads::json::Value;

use crate::metrics::Metric;
use crate::workloads::WORKLOADS;

/// Where trace files and the run-set of an all-workloads run are written:
/// `out/` beside this crate's manifest, wherever the command is run from.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const DEFAULT_SEED: u64 = 0x5EED_1ED6E4;
const DEFAULT_SECONDS: f64 = 15.0;
/// The contract's limit on one run, less a margin for reporting.
const HARD_DEADLINE: Duration = Duration::from_secs(170);

/// Renders a JSON value on one line.  `pretty` only breaks lines between
/// tokens and escapes newlines inside strings, so joining its lines is safe.
pub fn one_line(value: &Value) -> String {
    value.pretty().lines().map(str::trim_start).collect()
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    child: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let text = value("a number")?;
                args.seed = Some(text.parse().map_err(|e| format!("--seed {text}: {e}"))?);
            }
            "--seconds" => {
                let text = value("a number")?;
                let seconds: f64 = text.parse().map_err(|e| format!("--seconds {text}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds {text}: want 0 < s <= 120"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--child" => args.child = true,
            "--out" => args.out = Some(value("a file")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; have {}",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("tm-ledger: {why}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    // Before any thread exists, so that every later one inherits the mask.
    let pin = match host::pin_to_one_cpu() {
        Ok(pin) => pin,
        Err(why) => {
            eprintln!("tm-ledger: cannot pin to one CPU: {why}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        if let Err(why) = host::map_large_blocks() {
            eprintln!("tm-ledger: {why}");
            return ExitCode::from(2);
        }
        return child(&args, &pin);
    }
    let header = host::header(&pin);
    println!("# host {}", one_line(&header));
    if args.selfcheck {
        let result = supervise(&["--selfcheck".into()], Duration::from_secs(60));
        return if result.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match &args.workload {
        Some(name) if !args.smoke => one_workload(name, &args),
        _ => all_workloads(&args, &header),
    }
}

// ------------------------------------------------------------- the child ----

fn result_value(outcome: &run::Outcome, declared: &[Metric]) -> Value {
    let metrics = declared
        .iter()
        .filter_map(|m| {
            let (_, value) = outcome.metrics.iter().find(|(name, _)| *name == m.name)?;
            let entry = Value::obj(vec![
                ("value", Value::Num(*value)),
                ("unit", Value::Str(m.unit.into())),
            ]);
            Some((m.name.clone(), entry))
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(outcome.failures.is_empty())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// Runs in the supervised child process: one workload, or the self-check.
fn child(args: &Args, pin: &host::Pinning) -> ExitCode {
    if args.selfcheck {
        let failures = selfcheck::run();
        for why in &failures {
            println!("selfcheck FAILED: {why}");
        }
        let verdict = Value::obj(vec![
            ("correct", Value::Bool(failures.is_empty())),
            ("attempted", Value::Num(1.0)),
            ("failed", Value::Num(failures.len().min(1) as f64)),
            ("metrics", Value::obj(vec![])),
        ]);
        println!("@result {}", one_line(&verdict));
        return ExitCode::SUCCESS;
    }
    let name = args
        .workload
        .as_deref()
        .expect("the parent names a workload");
    let plan = run::Plan {
        workload: workloads::workload(name).expect("checked by parse_args"),
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        traced: args.traced,
        smoke: args.smoke,
    };
    let outcome = run::run(&plan);
    for why in &outcome.failures {
        println!("check FAILED: {why}");
    }
    let declared = if plan.traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    if declared.iter().any(|m| {
        !outcome
            .metrics
            .iter()
            .any(|(name, v)| *name == m.name && v.is_finite())
    }) {
        println!("check FAILED: a declared metric was not measured");
        return ExitCode::FAILURE;
    }
    if plan.traced && !outcome.trace.is_empty() {
        let path = format!("{OUT_DIR}/trace-{name}.json");
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
            std::fs::write(
                &path,
                trace::render(name, &host::header(pin), &outcome.trace),
            )
        });
        match written {
            Ok(()) => println!("# trace {path}"),
            Err(why) => {
                println!("check FAILED: cannot write {path}: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("@result {}", one_line(&result_value(&outcome, &declared)));
    ExitCode::SUCCESS
}

// ------------------------------------------------------------ the parent ----

/// What the parent knows about a supervised child when it ends.
struct Supervised {
    correct: bool,
    /// The result object, as the driver's contract defines it.
    result: Value,
}

/// Runs this executable again as a pinned child with `child_args`, relaying
/// its output, and kills it at `deadline`.  A child that hangs, crashes or
/// ends without a result yields `correct: false` with the rep that was
/// running counted as failed.
fn supervise(child_args: &[String], deadline: Duration) -> Supervised {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut child = Command::new(exe)
        .arg("--child")
        .args(child_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("cannot start the workload's child process");
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let started = Instant::now();
    let mut running = String::from("nothing yet");
    // Ops attempted and failed before the running rep, and the rep's own.
    let (mut attempted, mut failed, mut rep_ops) = (0u64, 0u64, 0u64);
    let mut result = None;
    let timed_out = loop {
        let left = deadline.saturating_sub(started.elapsed());
        match rx.recv_timeout(left) {
            Ok(line) => {
                if let Some(rep) = line.strip_prefix("@rep ") {
                    let fields: Vec<&str> = rep.split(' ').collect();
                    if let [workload, runtime, round, ops, before, bad] = fields[..] {
                        running = format!("workload {workload}, runtime {runtime}, rep {round}");
                        rep_ops = ops.parse().unwrap_or(0);
                        attempted = before.parse().unwrap_or(0);
                        failed = bad.parse().unwrap_or(0);
                    }
                } else if let Some(json) = line.strip_prefix("@result ") {
                    result = Value::parse(json).ok();
                } else {
                    println!("{line}");
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => break true,
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
        }
    };
    if timed_out {
        child.kill().ok();
    }
    let status = child.wait();
    reader.join().ok();

    if let (false, Some(result), Ok(status)) = (timed_out, &result, &status) {
        if status.success() {
            return Supervised {
                correct: result.get("correct") == Some(&Value::Bool(true)),
                result: result.clone(),
            };
        }
    }
    let why = if timed_out {
        format!(
            "watchdog: no result after {:.0} s; killed while running {running}",
            deadline.as_secs_f64()
        )
    } else {
        format!("child ended without a result ({status:?}) while running {running}")
    };
    println!("check FAILED: {why}");
    let result = Value::obj(vec![
        ("correct", Value::Bool(false)),
        ("attempted", Value::Num((attempted + rep_ops).max(1) as f64)),
        ("failed", Value::Num((failed + rep_ops).max(1) as f64)),
        ("metrics", Value::obj(vec![])),
    ]);
    Supervised {
        correct: false,
        result,
    }
}

fn child_args(name: &str, args: &Args, traced: bool) -> (Vec<String>, Duration) {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut out = vec![
        "--workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        args.seed.unwrap_or(DEFAULT_SEED).to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(traced).to_string(),
    ];
    if args.smoke {
        out.push("--smoke".to_string());
    }
    // About four times the expected time: `seconds` of rounds plus the
    // fixed per-layer work of a traced run.
    let expected = if args.smoke { 5.0 } else { seconds + 5.0 };
    let deadline = Duration::from_secs_f64(4.0 * expected).min(HARD_DEADLINE);
    (out, deadline)
}

fn print_metrics(result: &Value) {
    if let Some(Value::Obj(metrics)) = result.get("metrics") {
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{name:<40} {value:>16.4} {unit}");
        }
    }
}

/// The driver's entry point: one workload, one result line, last.
fn one_workload(name: &str, args: &Args) -> ExitCode {
    let (child_args, deadline) = child_args(name, args, args.traced);
    let run = supervise(&child_args, deadline);
    print_metrics(&run.result);
    println!("{}", one_line(&run.result));
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced; writes the run-set that
/// `--compare` reads.  `--smoke` runs the untraced pass only.
fn all_workloads(args: &Args, header: &Value) -> ExitCode {
    let mut correct = true;
    let mut rows = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let selected = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name));
    for w in selected {
        let mut row = vec![("name", Value::Str(w.name.into()))];
        let passes: &[(bool, &'static str)] = if args.smoke {
            &[(false, "end_to_end")]
        } else {
            &[(false, "end_to_end"), (true, "per_layer")]
        };
        println!("## {}: {}", w.name, w.why);
        for &(traced, key) in passes {
            println!("## {} ({key})", w.name);
            let (child_args, deadline) = child_args(w.name, args, traced);
            let run = supervise(&child_args, deadline);
            print_metrics(&run.result);
            correct &= run.correct;
            let count = |k| run.result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            attempted += count("attempted");
            failed += count("failed");
            row.push((
                key,
                run.result.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        rows.push(Value::obj(row));
    }
    println!(
        "## total: attempted {attempted} ops, failed {failed}, fail_ratio {}",
        failed / attempted.max(1.0)
    );
    let run_set = Value::obj(vec![
        ("host", header.clone()),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("fail_ratio", Value::Num(failed / attempted.max(1.0))),
        ("workloads", Value::Arr(rows)),
    ]);
    if !args.smoke {
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| format!("{OUT_DIR}/run-set.json"));
        let parent = std::path::Path::new(&path).parent();
        let written = parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, run_set.pretty() + "\n"));
        match written {
            Ok(()) => println!("# run-set {path}"),
            Err(why) => {
                eprintln!("tm-ledger: cannot write {path}: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// --------------------------------------------------------------- compare ----

fn load_run_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

fn metric_of(run_set: &Value, workload: &str, metric: &str) -> Option<f64> {
    run_set
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Prints, per workload × end-to-end metric, both values, how much worse the
/// second is and the bound; fails if anything is outside its bound, missing,
/// or if either run-set failed an op.
fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load_run_set(a_path), load_run_set(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for why in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("tm-ledger: {why}");
            }
            return ExitCode::from(2);
        }
    };
    for (label, set) in [("a", &a), ("b", &b)] {
        let host = set.get("host").map(one_line).unwrap_or_default();
        println!("# {label} host {host}");
    }
    let mut outside = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for m in metrics::end_to_end() {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let (Some(x), Some(y)) = (
                metric_of(&a, w.name, &m.name),
                metric_of(&b, w.name, &m.name),
            ) else {
                println!("{:<14} {:<18} missing  <-- OUTSIDE", w.name, m.name);
                outside += 1;
                continue;
            };
            let worse = arith::worsening(x, y, m.better);
            let mark = if worse > bound { "  <-- OUTSIDE" } else { "" };
            outside += usize::from(worse > bound);
            println!(
                "{:<14} {:<18} {x:>14.4} {y:>14.4} {:>+8.2}% {:>6.0}%{mark}",
                w.name,
                m.name,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    // `fail_ratio` is bounded by "any increase".
    let [fail_a, fail_b] =
        [&a, &b].map(|set| set.get("fail_ratio").and_then(Value::as_f64).unwrap_or(1.0));
    let mark = if fail_b > fail_a { "  <-- OUTSIDE" } else { "" };
    outside += usize::from(fail_b > fail_a);
    println!("fail_ratio: a {fail_a}, b {fail_b}{mark}");
    if outside == 0 {
        println!("within bounds");
        ExitCode::SUCCESS
    } else {
        println!("{outside} outside their bounds");
        ExitCode::FAILURE
    }
}
