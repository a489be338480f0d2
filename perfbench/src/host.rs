//! Host-noise diagnostics, independent of the program under test: CPU
//! steal over the run from `/proc/stat`, a fixed calibration loop timed at
//! the start and end of the run, and the process's peak resident set.
//! The first two tell a noisy set of runs apart from slower code; they are
//! printed, never compared between commits.

use std::time::Instant;

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is left out of the total.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Time a fixed integer loop; its cost depends only on the host's speed.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = std::hint::black_box(x);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS watermark at the current RSS (Linux `clear_refs`
/// mode 5), so the next `peak_rss_mb` covers only what runs in between.
/// Where the kernel refuses, the watermark keeps covering the whole run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", b"5");
}

/// Host state captured at the start of a run.
pub struct HostProbe {
    jiffies: Option<(u64, u64)>,
    calib_start_ms: f64,
}

/// What the host did over one run.
pub struct HostReport {
    /// Share of CPU time stolen by the hypervisor over the run.
    pub steal_frac: f64,
    /// Calibration loop time at the start and at the end of the run.
    pub calib_ms: [f64; 2],
}

impl HostProbe {
    /// Snapshot `/proc/stat` and time the calibration loop.
    pub fn start() -> HostProbe {
        let calib_start_ms = calibration_ms();
        HostProbe { jiffies: cpu_jiffies(), calib_start_ms }
    }

    /// Time the calibration loop again and take the `/proc/stat` deltas.
    pub fn finish(self) -> HostReport {
        let steal_frac = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        };
        HostReport { steal_frac, calib_ms: [self.calib_start_ms, calibration_ms()] }
    }
}
