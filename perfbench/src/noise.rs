//! Per-run noise diagnostics read from `/proc`, plus a fixed compute loop
//! and a fixed memory loop timed before and after the workload. They
//! explain a run that reads faster or slower than its siblings; they are
//! not metrics.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Host CPU ticks from the first line of `/proc/stat`: `(steal, total)`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// A `/proc/self/status` field in its own unit (kB for memory).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Milliseconds a fixed integer and floating-point loop takes.
fn compute_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0.0f64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 40) as f64);
    }
    black_box((x, acc));
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds a chase through a 64 MiB buffer takes, one dependent load
/// per 64-byte line. The buffer is sixteen times a core's L2 here, so the
/// loop reads the host's shared cache and memory, which other guests
/// contend for while the compute loop does not notice them.
fn memory_ms() -> f64 {
    const LINES: usize = 1 << 20;
    const WORDS: usize = 8;
    let mut buf = vec![0u64; LINES * WORDS];
    // A full-period LCG over the lines (c odd, a ≡ 1 mod 4) visits each
    // line once, in an order the prefetchers cannot follow.
    for line in 0..LINES {
        let next = line.wrapping_mul(1_103_515_245).wrapping_add(12_345) & (LINES - 1);
        buf[line * WORDS] = (next * WORDS) as u64;
    }
    let start = Instant::now();
    let mut at = 0;
    for _ in 0..LINES {
        at = buf[at] as usize;
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// What `--calibrate` prints: the compute and memory loop times, in ms.
pub fn calibration_line() -> String {
    format!("{} {}", compute_ms(), memory_ms())
}

/// Runs both loops in a child process (this binary with `--calibrate`),
/// so the memory loop's buffer never counts toward the run's peak RSS.
fn calibrate() -> Option<(f64, f64)> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe).arg("--calibrate").output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let mut times = text.split_whitespace().map(|t| t.parse::<f64>().ok());
    Some((times.next()??, times.next()??))
}

fn ms_or_null(ms: Option<f64>) -> String {
    ms.map_or_else(|| "null".into(), |ms| format!("{ms:.3}"))
}

pub struct NoiseProbe {
    ticks: Option<(u64, u64)>,
    involuntary: Option<u64>,
    before: Option<(f64, f64)>,
}

impl NoiseProbe {
    pub fn start() -> Self {
        NoiseProbe {
            before: calibrate(),
            ticks: cpu_ticks(),
            involuntary: proc_status("nonvoluntary_ctxt_switches"),
        }
    }

    /// One JSON object: host steal share over the run, involuntary
    /// context switches of this process, and the compute and memory loops
    /// before and after (`null` where a reading failed).
    pub fn finish(self) -> String {
        let steal = match (self.ticks, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{}", (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "null".into(),
        };
        let involuntary = match (self.involuntary, proc_status("nonvoluntary_ctxt_switches")) {
            (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
            _ => "null".into(),
        };
        let after = calibrate();
        format!(
            "{{\"steal_share\": {steal}, \"involuntary_switches\": {involuntary}, \
             \"compute_before_ms\": {}, \"compute_after_ms\": {}, \
             \"memory_before_ms\": {}, \"memory_after_ms\": {}}}",
            ms_or_null(self.before.map(|b| b.0)),
            ms_or_null(after.map(|a| a.0)),
            ms_or_null(self.before.map(|b| b.1)),
            ms_or_null(after.map(|a| a.1)),
        )
    }
}
