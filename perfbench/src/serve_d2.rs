//! `serve-d2`: in-process `ngs_server::Server`s warm-started from a
//! Reptile checkpoint of Ch2 D2 (36 bp, 80x, 0.6% error), sent 32-read
//! batches over at most 2 Unix-socket connections: closed loops in timed
//! runs, open loops at fixed rates in traced runs.
//!
//! The checkpoint is written untimed through `ngs_durable::CheckpointStore`;
//! set-up reads it back the way `ngs-serve --resume` does (parse the input,
//! derive parameters, load and decode the snapshot, start the server) up to
//! the first `Ping` reply. Every reply is compared byte for byte with
//! `Reptile::correct` on the same reads, computed untimed beforehand.

use crate::inputs::{self, InputFile};
use crate::stats::{self, PhaseSamples};
use crate::{host, secs, Ctx, Outcome};
use ngs_core::Read;
use ngs_durable::{CheckpointStore, Fingerprint};
use ngs_observe::Collector;
use ngs_server::{Client, ClientConfig, Endpoint, Listener, Server, ServerConfig, ServerHandle};
use ngs_simulate::SimulatedReads;
use reptile::{Reptile, ReptileParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads per request.
const BATCH: usize = 32;
/// Client connections (each carries one request at a time).
const CONNS: usize = 2;
/// Fixed offered rates, requests per second. On a 2-vCPU host a request
/// takes 2-4 ms with two in flight, so the server saturates at 500-900
/// req/s; both rates sit below that knee.
const LOW_RPS: f64 = 150.0;
const MID_RPS: f64 = 300.0;
/// Requests per open-loop phase: enough for an exact p99 with 10 beyond.
const PHASE_REQUESTS: usize = 1000;
/// Rates tried above the mid rate for `serve.max_rps_p99` (traced runs).
const LADDER_RPS: &[f64] = &[400.0, 450.0, 500.0, 550.0, 600.0, 700.0];
/// The p99 limit a rate must meet, milliseconds from when each request was due.
const P99_LIMIT_MS: f64 = 25.0;
/// Servers warm-started per timed run, each then saturated for a tenth of
/// `--seconds`; `setup_s`, `reads_per_s` and `p50_ms` are medians over them.
/// Thread placement on the host's two vCPUs stays fixed for a server's
/// life and moves its throughput by a quarter, so one server per run is
/// not enough.
const SERVERS: usize = 10;
/// Fewest requests of one timed server's closed loop.
const SLICE_REQUESTS: usize = 300;
/// Requests of the traced runs' closed loops.
const SATURATION_REQUESTS: usize = 1500;
/// Table 2.3 Gain floor, percent; D2 scores about 97.5%.
const GAIN_FLOOR_PCT: f64 = 90.0;

struct Data {
    file: InputFile,
    genome_len: usize,
    ckpt_dir: PathBuf,
    /// Raw reads, in file order, cut into requests.
    batches: Vec<Vec<Read>>,
    /// `Reptile::correct` of every read, in file order.
    reference: Vec<Read>,
    gain_pct: f64,
}

fn params_key(params: &ReptileParams) -> u64 {
    inputs::fnv1a64(format!("{params:?}").as_bytes())
}

/// Untimed: simulate D2, write the FASTQ, build the index, checkpoint it,
/// and correct every read in batch mode as the reference.
fn prepare(ctx: &Ctx) -> Data {
    let spec = inputs::d2();
    prepare_from(ctx, spec.genome_len, inputs::ch2_reads(&spec, ctx.seed))
}

fn prepare_from(ctx: &Ctx, genome_len: usize, sim: SimulatedReads) -> Data {
    let file = inputs::write_reads(&ctx.dir, "d2", &sim.reads);
    eprintln!("serve-d2: {} reads, {}", sim.reads.len(), file.describe());
    let truth: Vec<Vec<u8>> = sim.truth.into_iter().map(|t| t.true_seq).collect();
    let raw = inputs::parse_reads(&file.path);
    let params = ReptileParams::from_data(&raw, genome_len);
    let key = params_key(&params);
    let pre = reptile::ambig::preprocess_ambiguous(&raw, &params);
    let corrector = Reptile::build(&pre, params);
    let ckpt_dir = ctx.dir.join("ckpt");
    let off = Collector::disabled();
    let fingerprint = Fingerprint::of_file(&file.path).expect("fingerprint input");
    let mut store =
        CheckpointStore::open(&ckpt_dir, "reptile", fingerprint, &off).expect("open checkpoint");
    store.save("index", key, &corrector.snapshot_bytes()).expect("save checkpoint");
    let (reference, _) = corrector.correct(&pre);
    let gain_pct = crate::reptile_d5::gain_pct(&raw, &reference, &truth);
    let batches = raw.chunks(BATCH).map(<[Read]>::to_vec).collect();
    Data { file, genome_len, ckpt_dir, batches, reference, gain_pct }
}

/// A warm-started server and what its start cost.
struct Warm {
    handle: ServerHandle,
    endpoint: Endpoint,
    setup_s: f64,
    parse_s: f64,
    load_s: f64,
    snapshot_bytes: usize,
}

fn client(endpoint: &Endpoint, seed: u64) -> Client {
    // One attempt: a refused request is a miss, never retried into a pass.
    Client::new(endpoint.clone(), ClientConfig { max_attempts: 1, seed, ..Default::default() })
}

/// Set-up as `ngs-serve --resume` pays it, up to the first `Ping` reply.
fn warm_start(ctx: &Ctx, data: &Data, tag: usize, collector: Arc<Collector>) -> Warm {
    let t0 = Instant::now();
    let reads = inputs::parse_reads(&data.file.path);
    let parse_s = secs(t0);
    let params = ReptileParams::from_data(&reads, data.genome_len);
    let key = params_key(&params);
    std::hint::black_box(reptile::ambig::preprocess_ambiguous(&reads, &params));
    let t_load = Instant::now();
    let fingerprint = Fingerprint::of_file(&data.file.path).expect("fingerprint input");
    let store = CheckpointStore::open(&data.ckpt_dir, "reptile", fingerprint, &collector)
        .expect("open checkpoint");
    let bytes = store.load("index", key).expect("checkpoint hit");
    let corrector = Reptile::from_snapshot_bytes(&bytes).expect("decode snapshot");
    let load_s = secs(t_load);
    let endpoint = Endpoint::Unix(ctx.dir.join(format!("s{tag}.sock")));
    let listener = Listener::bind(&endpoint).expect("bind server socket");
    let config = ServerConfig { workers: crate::THREADS, ..Default::default() };
    let handle = Server::new(Arc::new(corrector), config, collector).spawn(listener);
    client(&endpoint, 0).ping().expect("first ping");
    let setup_s = secs(t0);
    Warm { handle, endpoint, setup_s, parse_s, load_s, snapshot_bytes: bytes.len() }
}

/// When each request is due.
#[derive(Clone, Copy)]
enum Schedule {
    /// Open loop: `n` requests at `rate` per second from the phase start.
    Open { rate: f64, n: usize },
    /// Closed loop: each request sent as soon as a connection frees, at
    /// least `n` of them and until `until` has passed.
    Closed { n: usize, until: Instant },
}

/// One phase's samples plus its output-check failures and wall time.
struct Phase {
    samples: PhaseSamples,
    check_failures: usize,
    wall_s: f64,
}

/// A served batch passes only when byte-identical to batch correction.
fn batch_ok(served: &[Read], expected: &[Read]) -> bool {
    served == expected
}

/// Send one phase over `clients` (one thread each). Latency runs from
/// when a request was due; batches cycle through the data set via `cursor`.
fn run_phase(
    clients: &mut [Client],
    data: &Data,
    cursor: &AtomicUsize,
    schedule: Schedule,
) -> Phase {
    let issued = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_thread: Vec<(PhaseSamples, usize)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let issued = &issued;
                s.spawn(move || {
                    let mut samples = PhaseSamples::default();
                    let mut check_failures = 0;
                    loop {
                        let i = issued.fetch_add(1, Ordering::Relaxed);
                        let more = match schedule {
                            Schedule::Open { n, .. } => i < n,
                            Schedule::Closed { n, until } => i < n || Instant::now() < until,
                        };
                        if !more {
                            break;
                        }
                        let due = match schedule {
                            Schedule::Open { rate, .. } => {
                                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                due
                            }
                            Schedule::Closed { .. } => Instant::now(),
                        };
                        let sent = Instant::now();
                        let b = cursor.fetch_add(1, Ordering::Relaxed) % data.batches.len();
                        let reply = c.correct(&data.batches[b], 0);
                        let done = Instant::now();
                        samples.late_ms.push((sent - due).as_secs_f64() * 1e3);
                        let start = b * BATCH;
                        let expected = &data.reference[start..start + data.batches[b].len()];
                        match reply {
                            Ok(batch) if batch_ok(&batch.reads, expected) => {
                                samples.latency_ms.push((done - due).as_secs_f64() * 1e3);
                            }
                            Ok(_) => {
                                check_failures += 1;
                                samples.missed += 1;
                            }
                            Err(_) => samples.missed += 1,
                        }
                    }
                    (samples, check_failures)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load thread")).collect()
    });
    let wall_s = secs(t0);
    let mut samples = PhaseSamples::default();
    let mut check_failures = 0;
    for (s, f) in per_thread {
        samples.latency_ms.extend(s.latency_ms);
        samples.late_ms.extend(s.late_ms);
        samples.missed += s.missed;
        check_failures += f;
    }
    Phase { samples, check_failures, wall_s }
}

/// Everything one open-loop session produced (traced runs).
struct Session {
    low: Phase,
    mid: Phase,
    /// Highest rate on the ladder meeting the p99 limit.
    max_rps_p99: f64,
    saturation: Phase,
    attempted: usize,
    failed: usize,
}

/// A closed loop of exactly `n` requests.
fn closed(n: usize) -> Schedule {
    Schedule::Closed { n, until: Instant::now() }
}

/// Warm-up, the low and mid rates, the rate ladder, then a closed loop.
fn measure(clients: &mut [Client], data: &Data) -> Session {
    let cursor = AtomicUsize::new(0);
    run_phase(clients, data, &cursor, closed(200));
    let open = |rate| Schedule::Open { rate, n: PHASE_REQUESTS };
    let low = run_phase(clients, data, &cursor, open(LOW_RPS));
    let mid = run_phase(clients, data, &cursor, open(MID_RPS));
    let meets = |p: &Phase| p.samples.latency_percentile(99.0) <= P99_LIMIT_MS;
    let mut rungs = Vec::new();
    let mut max_rps_p99 = 0.0;
    for (rate, ok) in [(LOW_RPS, meets(&low)), (MID_RPS, meets(&mid))] {
        if !ok {
            break;
        }
        max_rps_p99 = rate;
    }
    if max_rps_p99 == MID_RPS {
        for &rate in LADDER_RPS {
            let rung = run_phase(clients, data, &cursor, open(rate));
            let ok = meets(&rung);
            rungs.push(rung);
            if !ok {
                break;
            }
            max_rps_p99 = rate;
        }
    }
    let saturation = run_phase(clients, data, &cursor, closed(SATURATION_REQUESTS));
    let (mut attempted, mut failed) = (0, 0);
    for p in [&low, &mid, &saturation].into_iter().chain(&rungs) {
        attempted += p.samples.attempted();
        failed += p.samples.missed;
    }
    Session { low, mid, max_rps_p99, saturation, attempted, failed }
}

fn connect(endpoint: &Endpoint) -> Vec<Client> {
    (0..CONNS)
        .map(|i| {
            let mut c = client(endpoint, i as u64 + 1);
            c.ping().expect("connect load client");
            c
        })
        .collect()
}

fn describe(name: &str, p: &Phase) {
    let n = p.samples.attempted();
    eprintln!(
        "serve-d2 {name}: n={n} top_pct={:.2} p50_ms={:.3} p99_ms={:.3} late_p99_ms={:.3} missed={} wall_s={:.3}",
        stats::highest_supported_percentile(n, 10),
        p.samples.latency_percentile(50.0),
        p.samples.latency_percentile(99.0),
        p.samples.late_percentile(99.0),
        p.samples.missed,
        p.wall_s
    );
}

fn saturation_reads_per_s(p: &Phase) -> f64 {
    (p.samples.latency_ms.len() * BATCH) as f64 / p.wall_s
}

pub fn timed(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    host::reset_peak_rss();
    let begin = Instant::now();
    let mut out = Outcome::default();
    let (mut setup_s, mut reads_per_s, mut p50_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut check_failures) = (0, 0);
    for i in 0..SERVERS {
        let warm = warm_start(ctx, &data, i, Arc::new(Collector::disabled()));
        let mut clients = connect(&warm.endpoint);
        let cursor = AtomicUsize::new(0);
        run_phase(&mut clients, &data, &cursor, closed(100));
        let until = begin + Duration::from_secs_f64(ctx.seconds * (i + 1) as f64 / SERVERS as f64);
        let phase =
            run_phase(&mut clients, &data, &cursor, Schedule::Closed { n: SLICE_REQUESTS, until });
        drop(clients);
        let summary = warm.handle.shutdown();
        describe(&format!("server {i}"), &phase);
        eprintln!(
            "serve-d2 server {i}: shed={} conn_errors={}",
            summary.overloaded, summary.connection_errors
        );
        setup_s.push(warm.setup_s);
        reads_per_s.push(saturation_reads_per_s(&phase));
        p50_ms.push(phase.samples.latency_percentile(50.0));
        out.attempted += phase.samples.attempted() as u64;
        failed += phase.samples.missed;
        check_failures += phase.check_failures;
    }
    out.values.set("peak_rss_mb", host::peak_rss_mb());
    if failed > 0 {
        out.fail(
            failed as u64,
            format!(
                "serve-d2: {failed} of {} requests failed ({check_failures} differed from Reptile::correct)",
                out.attempted
            ),
        );
    }
    if data.gain_pct < GAIN_FLOOR_PCT {
        out.fail(
            out.attempted,
            format!("serve-d2: gain {:.3}% below {GAIN_FLOOR_PCT}%", data.gain_pct),
        );
    }
    eprintln!("serve-d2: setup_s={setup_s:.3?} gain_pct={:.4}", data.gain_pct);
    let med = |xs: &[f64]| stats::median(xs).expect("at least one server");
    let v = &mut out.values;
    v.set("setup_s", med(&setup_s));
    v.set("reads_per_s", med(&reads_per_s));
    v.set("p50_ms", med(&p50_ms));
    v.set("quality_loss_pct", 100.0 - data.gain_pct);
    out
}

pub fn traced(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let mut out = Outcome::default();

    // Untraced: one warm start and a full session for the latency figures.
    let warm = warm_start(ctx, &data, 0, Arc::new(Collector::disabled()));
    let mut clients = connect(&warm.endpoint);
    let session = measure(&mut clients, &data);
    drop(clients);
    warm.handle.shutdown();
    for (name, phase) in
        [("low", &session.low), ("mid", &session.mid), ("saturation", &session.saturation)]
    {
        describe(name, phase);
    }
    eprintln!("serve-d2: max_rps_p99={} (limit {P99_LIMIT_MS} ms)", session.max_rps_p99);

    // Traced: a second server with a recording collector, driven by the
    // same closed loop; its wall against the untraced one is the overhead.
    let collector = Arc::new(Collector::new());
    let traced_warm = warm_start(ctx, &data, 1, collector.clone());
    let mut clients = connect(&traced_warm.endpoint);
    let cursor = AtomicUsize::new(0);
    let traced_phase = run_phase(&mut clients, &data, &cursor, closed(SATURATION_REQUESTS));
    let probe = clients[0].stats().expect("stats probe");
    drop(clients);
    let summary = traced_warm.handle.shutdown();

    // The reptile layer, from a traced batch correction of the same reads.
    let layer = Collector::new();
    let raw: Vec<Read> = data.batches.concat();
    let params = ReptileParams::from_data(&raw, data.genome_len);
    let pre = reptile::ambig::preprocess_ambiguous(&raw, &params);
    let corrector = Reptile::build(&pre, params);
    let (corrected, stats) = corrector.correct_observed(&pre, &layer);

    out.attempted = (session.attempted + traced_phase.samples.attempted()) as u64;
    let failed = session.failed + traced_phase.samples.missed;
    if failed > 0 {
        out.fail(failed as u64, format!("serve-d2: {failed} requests failed"));
    }
    if corrected != data.reference {
        out.fail(raw.len() as u64, "serve-d2: traced batch correction differs".into());
    }
    let v = &mut out.values;
    v.set("seqio.parse_s", warm.parse_s);
    v.set("seqio.mb_per_s", data.file.bytes as f64 / 1e6 / warm.parse_s);
    v.set("durable.snapshot_load_s", warm.load_s);
    v.set("durable.snapshot_mb", warm.snapshot_bytes as f64 / (1024.0 * 1024.0));
    crate::reptile_d5::set_reptile_layer(v, &layer.report("reptile"), &stats, raw.len());
    v.set("server.queue_wait_p99_ms", probe.queue_wait_p99_us as f64 / 1e3);
    v.set("server.shed", summary.overloaded as f64);
    v.set("server.conn_errors", summary.connection_errors as f64);
    v.set("loadgen.late_p99_ms", session.mid.samples.late_percentile(99.0));
    for (name, p) in [("low", &session.low), ("mid", &session.mid)] {
        let n = p.samples.attempted();
        v.set(&format!("serve.samples.{name}"), n as f64);
        v.set(&format!("serve.top_pct.{name}"), stats::highest_supported_percentile(n, 10));
        v.set(&format!("serve.p50_ms.{name}"), p.samples.latency_percentile(50.0));
        v.set(&format!("serve.p99_ms.{name}"), p.samples.latency_percentile(99.0));
    }
    v.set("serve.max_rps_p99", session.max_rps_p99);
    v.set("observe.overhead_frac", traced_phase.wall_s / session.saturation.wall_s - 1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simulate::{simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig};

    /// A small index served the way the workload serves D2.
    fn small(tag: &str) -> (crate::Scratch, Data, Warm) {
        let scratch = crate::scratch_dir(tag);
        let ctx = Ctx { seed: 1, seconds: 1.0, dir: scratch.0.clone(), threads: crate::THREADS };
        let genome = GenomeSpec::uniform(4_000).generate(7).seq;
        let model = ErrorModel::illumina_like(36, 0.01);
        let sim = simulate_reads(&genome, &ReadSimConfig::with_coverage(4_000, 36, 25.0, model, 9));
        let data = prepare_from(&ctx, 4_000, sim);
        let warm = warm_start(&ctx, &data, 0, Arc::new(Collector::disabled()));
        (scratch, data, warm)
    }

    fn flip_one_base(read: &mut Read) {
        read.seq[3] = if read.seq[3] == b'A' { b'C' } else { b'A' };
    }

    #[test]
    fn a_flipped_base_in_a_served_batch_fails_its_check() {
        let (_scratch, data, warm) = small("test-flip");
        let mut clients = connect(&warm.endpoint);
        let mut served = clients[0].correct(&data.batches[1], 0).expect("served batch").reads;
        let expected = &data.reference[BATCH..2 * BATCH];
        assert!(batch_ok(&served, expected));
        flip_one_base(&mut served[5]);
        assert!(!batch_ok(&served, expected));
        drop(clients);
        warm.handle.shutdown();
    }

    #[test]
    fn a_failed_check_counts_as_a_miss_not_a_latency() {
        let (_scratch, mut data, warm) = small("test-miss");
        let mut clients = connect(&warm.endpoint);
        let n = data.batches.len();
        let clean = run_phase(&mut clients, &data, &AtomicUsize::new(0), closed(n));
        assert_eq!((clean.check_failures, clean.samples.missed), (0, 0));
        assert_eq!(clean.samples.latency_ms.len(), n);
        // One wrong base in the expected output of batch 1: exactly that
        // request fails, and it is ranked above every latency.
        flip_one_base(&mut data.reference[BATCH + 5]);
        let dirty = run_phase(&mut clients, &data, &AtomicUsize::new(0), closed(n));
        assert_eq!((dirty.check_failures, dirty.samples.missed), (1, 1));
        assert_eq!(dirty.samples.latency_ms.len(), n - 1);
        assert_eq!(dirty.samples.latency_percentile(100.0), f64::INFINITY);
        drop(clients);
        warm.handle.shutdown();
    }
}
