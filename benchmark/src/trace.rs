//! In-memory spans recorded from the benchmark's own files.
//!
//! Each op is a root span; each execution of its transaction body is a
//! `body` child; each `tm-sync` call inside the body is a grandchild.  A body
//! that re-executes after an abort or a wake therefore shows as several
//! children of one root.  Root self-time — the root minus what its children
//! cover — is the runtime's share of the op: begin, commit, deschedule,
//! sleep.  Spans inside the library are a later issue.

use std::sync::OnceLock;
use std::time::Instant;

use tm_workloads::json::Value;

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span with no parent.
pub const ROOT: i32 = -1;

/// The root span of a wait for a mailbox grant.  Such waits are flow
/// control, not ops: they are recorded, but kept out of the op totals.
pub const GRANT_WAIT: &str = "kv.grant_wait";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`pc.produce`, `body`, `buffer.produce`, …).
    pub name: &'static str,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Index of the causing span in the same thread's list, or [`ROOT`].
    pub parent: i32,
    /// Index of the op within its thread: shared by a root and every span
    /// under it.
    pub op: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one thread of one rep, in start order.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    /// Every span the thread recorded.
    pub spans: Vec<Span>,
}

impl ThreadTrace {
    /// Opens a span now and returns its index; [`ThreadTrace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: i32, op: u32) -> i32 {
        let start_ns = now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as i32
    }

    /// Ends the span opened as `index`.
    pub fn close(&mut self, index: i32) {
        self.spans[index as usize].end_ns = now_ns();
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: i32,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(name, parent, op);
        let out = f();
        self.close(index);
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children may nest, repeat and overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Totals over the root spans of a set of thread traces.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Shares {
    /// Root spans (ops).
    pub roots: u64,
    /// Direct children of roots (body executions).
    pub bodies: u64,
    /// Σ root duration, ns.
    pub root_ns: u64,
    /// Σ root self-time, ns.
    pub root_self_ns: u64,
}

impl Shares {
    /// Adds one thread's spans.
    pub fn add(&mut self, trace: &ThreadTrace) {
        let selfs = self_times(&trace.spans);
        for (s, own) in trace.spans.iter().zip(selfs) {
            if s.parent == ROOT {
                if s.name == GRANT_WAIT {
                    continue;
                }
                self.roots += 1;
                self.root_ns += s.duration();
                self.root_self_ns += own;
            } else if trace.spans[s.parent as usize].parent == ROOT {
                self.bodies += 1;
            }
        }
    }

    /// Adds another set of totals.
    pub fn merge(&mut self, other: &Shares) {
        self.roots += other.roots;
        self.bodies += other.bodies;
        self.root_ns += other.root_ns;
        self.root_self_ns += other.root_self_ns;
    }

    /// The runtime's share of op time: begin, commit, deschedule, sleep.
    pub fn runtime_share_pct(&self) -> f64 {
        100.0 * self.root_self_ns as f64 / (self.root_ns.max(1)) as f64
    }

    /// The transaction bodies' share of op time.
    pub fn body_share_pct(&self) -> f64 {
        100.0 - self.runtime_share_pct()
    }

    /// Body executions per op (1.0 when nothing aborts or sleeps).
    pub fn attempts_per_op(&self) -> f64 {
        self.bodies as f64 / self.roots.max(1) as f64
    }
}

/// The median duration, in µs, of the root spans called `name`; `None` when
/// there are none.
pub fn root_p50_us(traces: &[ThreadTrace], name: &str) -> Option<f64> {
    let mut durations: Vec<f64> = traces
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.parent == ROOT && s.name == name)
        .map(|s| s.duration() as f64 / 1000.0)
        .collect();
    (!durations.is_empty()).then(|| crate::arith::percentile(&mut durations, 0.5))
}

/// One cell's spans, for the trace file.
pub struct CellTrace {
    /// Runtime label.
    pub runtime: &'static str,
    /// One entry per thread.
    pub threads: Vec<ThreadTrace>,
}

/// Renders the trace file: one row per span, columns named once.  `parent`
/// is a row number of the same file (−1 for roots), so spans of one op are
/// joined by `(runtime, thread, op)` or by following `parent`.
pub fn render(workload: &str, host: &Value, cells: &[CellTrace]) -> String {
    let mut out = String::new();
    out.push_str("{\n\"workload\": \"");
    out.push_str(workload);
    out.push_str("\",\n\"host\": ");
    out.push_str(&crate::one_line(host));
    out.push_str(
        ",\n\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\", \"runtime\", \"thread\"],\n\"spans\": [",
    );
    let mut row_base = 0i64;
    let mut first = true;
    for cell in cells {
        for (thread, trace) in cell.threads.iter().enumerate() {
            for s in &trace.spans {
                let parent = if s.parent == ROOT {
                    -1
                } else {
                    row_base + i64::from(s.parent)
                };
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                out.push_str(&format!(
                    "[\"{}\",{},{},{},{},\"{}\",{}]",
                    s.name, s.start_ns, s.end_ns, parent, s.op, cell.runtime, thread
                ));
            }
            row_base += trace.spans.len() as i64;
        }
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: i32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_repeated_children() {
        let spans = vec![
            span("pc.consume", 0, 100, ROOT),
            // Two executions of the body: one before the sleep, one after.
            span("body", 10, 30, 0),
            span("buffer.consume", 12, 28, 1),
            span("body", 70, 95, 0),
            span("buffer.consume", 72, 90, 3),
        ];
        assert_eq!(self_times(&spans), vec![55, 4, 16, 7, 18]);

        let mut shares = Shares::default();
        shares.add(&ThreadTrace { spans });
        assert_eq!(shares.roots, 1);
        assert_eq!(shares.bodies, 2);
        assert_eq!(shares.root_ns, 100);
        assert_eq!(shares.root_self_ns, 55);
        assert!((shares.runtime_share_pct() - 55.0).abs() < 1e-9);
        assert!((shares.body_share_pct() - 45.0).abs() < 1e-9);
        assert!((shares.attempts_per_op() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("root", 100, 200, ROOT),
            span("a", 110, 150, 0),
            span("b", 140, 160, 0),
            span("c", 190, 250, 0),
        ];
        // Covered: [110,160) and [190,200) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn root_median_filters_by_name() {
        let trace = ThreadTrace {
            spans: vec![
                span("kv.get", 0, 1000, ROOT),
                span("kv.get", 0, 3000, ROOT),
                span("kv.get", 0, 2000, ROOT),
                span("kv.put", 0, 9000, ROOT),
                span("body", 0, 500, 0),
            ],
        };
        assert_eq!(
            root_p50_us(std::slice::from_ref(&trace), "kv.get"),
            Some(2.0)
        );
        assert_eq!(root_p50_us(std::slice::from_ref(&trace), "kv.scan"), None);
    }

    #[test]
    fn rendered_trace_parses_and_renumbers_parents() {
        let cells = vec![CellTrace {
            runtime: "lazy",
            threads: vec![
                ThreadTrace {
                    spans: vec![span("pc.produce", 0, 9, ROOT), span("body", 1, 8, 0)],
                },
                ThreadTrace {
                    spans: vec![span("pc.consume", 0, 9, ROOT), span("body", 2, 7, 0)],
                },
            ],
        }];
        let text = render("pc_handoff", &Value::obj(vec![]), &cells);
        let doc = Value::parse(&text).expect("trace file is valid JSON");
        let rows = doc.get("spans").and_then(Value::as_arr).expect("spans");
        assert_eq!(rows.len(), 4);
        // The second thread's body points at row 2, its own root.
        assert_eq!(rows[3].as_arr().expect("row")[3], Value::Num(2.0));
        assert_eq!(rows[2].as_arr().expect("row")[3], Value::Num(-1.0));
    }
}
