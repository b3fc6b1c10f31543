//! CPU pinning and the host header stamped on every output.
//!
//! The measuring host gives about one core of throughput and schedules two
//! runnable threads onto its two vCPUs bimodally (see the README), so the
//! benchmark pins the whole process — and therefore every thread it later
//! spawns — to one allowed CPU before any work starts.

use std::process::Command;

use tm_core::TmConfig;
use tm_workloads::json::Value;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Makes `peak_rss_mb` a property of the program rather than of the
/// allocator's history: every block of 128 KiB or more (a system's 8 MiB
/// heap and 512 KiB orec table) is mapped when allocated and unmapped when
/// freed.  128 KiB is glibc's own starting threshold; the call only stops
/// glibc raising it after the first such free, after which it reuses or
/// retains those blocks depending on what else was freed around them.  That
/// moved the peak by a whole heap between identical runs, and with the
/// threshold pinned at 1 MiB the orec tables alone still made three runs in
/// ten read 1 MiB (10 %) higher than the rest.
pub fn map_large_blocks() -> Result<(), String> {
    // SAFETY: `mallopt` only stores the parameter; it is called before any
    // other thread exists.
    if unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_MMAP_THRESHOLD) refused".into())
    }
}

fn allowed_mask() -> Result<[u64; MASK_WORDS], String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity refused: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

fn cpus_of(mask: &[u64; MASK_WORDS]) -> Vec<usize> {
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// What the process was allowed to run on, and where it pinned itself.
#[derive(Debug, Clone)]
pub struct Pinning {
    /// CPUs the process was allowed on before pinning.
    pub allowed: Vec<usize>,
    /// The one CPU it now runs on.
    pub cpu: usize,
}

/// Pins the calling thread to the highest-numbered CPU it is allowed on
/// (CPU 0 takes most of a small guest's interrupts).  Threads spawned later
/// inherit the mask, so this must run before the first spawn.
pub fn pin_to_one_cpu() -> Result<Pinning, String> {
    let allowed = cpus_of(&allowed_mask()?);
    let cpu = *allowed.last().ok_or("empty CPU affinity mask")?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) refused: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Pinning { allowed, cpu })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// The header every output carries: enough to tell two artifacts taken on
/// different hosts, toolchains or commits apart.  Must be called after
/// [`pin_to_one_cpu`], because `orec_shards` is derived from
/// `available_parallelism`, which pinning changes.
pub fn header(pin: &Pinning) -> Value {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let allowed: Vec<String> = pin.allowed.iter().map(|c| c.to_string()).collect();
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("allowed_cpus", Value::Str(allowed.join(","))),
        ("pinned_cpu", Value::Num(pin.cpu as f64)),
        ("kernel", Value::Str(kernel)),
        ("rustc", Value::Str(env!("TM_LEDGER_RUSTC").into())),
        ("commit", Value::Str(commit)),
        (
            "orec_shards",
            Value::Num(TmConfig::default().orec_shards as f64),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
