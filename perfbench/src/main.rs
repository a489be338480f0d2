//! `perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run simulates its workload's data from `--seed` (untimed), writes it
//! as FASTQ/FASTA into a scratch directory under the working directory, and
//! drives the public APIs of `reptile`, `redeem`, `closet`,
//! `mapreduce-lite` and `ngs-server` on those files. Untraced runs
//! (`--trace 0`) time the workload with all telemetry off and print the
//! end-to-end metrics; traced runs (`--trace 1`) hand a recording
//! `Collector` to the pipelines' `*_observed` entry points and print the
//! per-layer metrics. Every output is checked against simulated truth or
//! a reference; the last stdout line is the JSON result, and a failed check
//! makes the process exit non-zero. See `perfbench/README.md`.

mod closet_m;
mod host;
mod inputs;
mod metrics;
mod redeem_r3x4;
mod reptile_d5;
mod serve_d2;
mod stats;

use metrics::Values;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Parallel runtime size for every timed run (the benchmark host's
/// `nproc`); the `par.eff.*` figures repeat the hot calls at 1 thread.
pub const THREADS: usize = 2;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["reptile-d5", "redeem-r3x4", "closet-m-pooled", "serve-d2"];

/// What the run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for inputs, sockets and checkpoints (removed at exit).
    pub dir: PathBuf,
    /// Parallel runtime size of this process.
    pub threads: usize,
}

/// What a workload reports: metric values plus output-check accounting.
#[derive(Default)]
pub struct Outcome {
    pub values: Values,
    /// Reads (batch workloads) or requests (serving) attempted.
    pub attempted: u64,
    /// Of those, the ones whose output failed a check.
    pub failed: u64,
    /// Human-readable check failures, printed to stderr.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record `count` failed units with a reason.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count.max(1);
        self.problems.push(why);
    }
}

/// One timed repetition of a batch workload.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub setup_s: f64,
    pub work_s: f64,
}

/// Run `rep` at least `min_reps` times, then stop once one more typical
/// repetition would overrun `seconds` of wall time (checks included).
/// `peak_rss_mb` is the watermark over the first repetition alone (see
/// `host::reset_peak_rss`), as a fresh process running one job would see
/// it: later repetitions inherit pages the allocator kept from earlier ones.
pub fn repeat_for(
    values: &mut Values,
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Rep,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    host::reset_peak_rss();
    loop {
        let t = Instant::now();
        reps.push(rep(reps.len()));
        if reps.len() == 1 {
            values.set("peak_rss_mb", host::peak_rss_mb());
        }
        walls.push(t.elapsed().as_secs_f64());
        let typical = stats::median(&walls).unwrap_or(0.0);
        if reps.len() >= min_reps && start.elapsed().as_secs_f64() + typical > seconds {
            return reps;
        }
    }
}

/// The batch workloads' shared end-to-end figures from their repetitions:
/// median set-up, reads per second of median work time, and the median
/// time to a result (set-up plus work).
pub fn batch_metrics(values: &mut Values, reps: &[Rep], reads: usize) {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let work: Vec<f64> = reps.iter().map(|r| r.work_s).collect();
    let total: Vec<f64> = reps.iter().map(|r| r.setup_s + r.work_s).collect();
    let med = |xs: &[f64]| stats::median(xs).expect("at least one repetition");
    values.set("setup_s", med(&setup));
    values.set("reads_per_s", reads as f64 / med(&work));
    values.set("p50_ms", med(&total) * 1e3);
    eprintln!(
        "reps={} setup_s={:?} work_s={:?}",
        reps.len(),
        setup.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
        work.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    );
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Total seconds of a span path in a report (0 when absent).
pub fn span_s(report: &ngs_observe::Report, path: &str) -> f64 {
    report.span(path).map_or(0.0, |s| s.total_secs())
}

/// Time the workload's hot call at 1 thread in a child process (the pool
/// size is fixed once created) and return `t1 / (2 * t2)`.
pub fn parallel_efficiency(ctx: &Ctx, workload: &str, t2: f64) -> f64 {
    let exe = std::env::current_exe().expect("own executable");
    let out = std::process::Command::new(exe)
        .args(["--hot-call-1t", workload, "--seed", &ctx.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run the 1-thread child");
    let text = String::from_utf8_lossy(&out.stdout);
    let t1: f64 = text
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("hot_call_s "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("1-thread child failed ({}): {text}", out.status));
    eprintln!("{workload}: hot call {t1:.3} s at 1 thread, {t2:.3} s at {THREADS}");
    t1 / (THREADS as f64 * t2)
}

/// Parent of every run's scratch directory, relative to the working
/// directory so Unix socket paths stay short wherever the checkout is.
const SCRATCH_ROOT: &str = ".bench_run";

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

fn scratch_dir(tag: &str) -> Scratch {
    let dir = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    Scratch(dir)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hot_call_1t: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --list-metrics";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, hot_call_1t: false };
    let mut seen_seed = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--hot-call-1t" => {
                args.workload = value()?;
                args.hot_call_1t = true;
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed: not an integer".to_string())?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds =
                    value()?.parse().map_err(|_| "--seconds: not a number".to_string())?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    let seconds_ok = 0.0 < args.seconds && args.seconds <= 600.0;
    if !(seconds_ok || args.hot_call_1t) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Hidden worker mode: CLOSET's pooled Phase I re-execs this binary as
    // its worker processes, so driver and workers share one build.
    if raw.first().is_some_and(|a| a == "--mr-worker") {
        let mut registry = mapreduce_lite::JobRegistry::with_builtins();
        closet::register_specs(&mut registry);
        std::process::exit(mapreduce_lite::worker_main(&registry, &raw[1..]));
    }
    if raw.first().is_some_and(|a| a == "--list-metrics") {
        print!("{}", metrics::catalogue());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = scratch_dir(&args.workload);
    // Anything that falls back to the system temp dir stays in the checkout.
    if let Ok(abs) = std::fs::canonicalize(&scratch.0) {
        std::env::set_var("TMPDIR", abs);
    }
    let threads = if args.hot_call_1t { 1 } else { THREADS };
    rayon::set_num_threads(threads);
    // Create and warm the lazily built pool before anything is timed.
    {
        use rayon::prelude::*;
        let warm: usize = (0..1usize << 16).into_par_iter().map(|x| x ^ (x >> 3)).sum();
        std::hint::black_box(warm);
    }
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, dir: scratch.0.clone(), threads };

    if args.hot_call_1t {
        let t1 = match args.workload.as_str() {
            "reptile-d5" => reptile_d5::hot_call_s(&ctx),
            "redeem-r3x4" => redeem_r3x4::hot_call_s(&ctx),
            "closet-m-pooled" => closet_m::hot_call_s(&ctx),
            other => panic!("no 1-thread hot call for {other}"),
        };
        println!("hot_call_s {t1}");
        return ExitCode::SUCCESS;
    }

    let probe = host::HostProbe::start();
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("reptile-d5", false) => reptile_d5::timed(&ctx),
        ("reptile-d5", true) => reptile_d5::traced(&ctx),
        ("redeem-r3x4", false) => redeem_r3x4::timed(&ctx),
        ("redeem-r3x4", true) => redeem_r3x4::traced(&ctx),
        ("closet-m-pooled", false) => closet_m::timed(&ctx),
        ("closet-m-pooled", true) => closet_m::traced(&ctx),
        ("serve-d2", false) => serve_d2::timed(&ctx),
        ("serve-d2", true) => serve_d2::traced(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    let host = probe.finish();
    drop(scratch);

    let v = &mut outcome.values;
    if !args.trace {
        let attempted = outcome.attempted.max(1);
        v.set(
            "success_frac",
            (attempted - outcome.failed.min(attempted)) as f64 / attempted as f64,
        );
    }
    v.set("host.steal_frac", host.steal_frac);
    v.set("host.calib_ms", (host.calib_ms[0] + host.calib_ms[1]) / 2.0);
    eprintln!(
        "host: steal_frac={:.4} calib_ms start={:.2} end={:.2} threads={threads} nproc={}",
        host.steal_frac,
        host.calib_ms[0],
        host.calib_ms[1],
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted.max(1), outcome.failed, v, args.trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
