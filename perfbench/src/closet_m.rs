//! `closet-m-pooled`: CLOSET on Ch4 Medium (3000 454-style reads,
//! thresholds 0.8/0.7/0.6). Set-up parses the FASTA and runs Phase I with
//! its sketch jobs on 2 pooled worker processes (this binary, re-execed);
//! the work is Phase II, quasi-clique clustering on the in-process engine.

use crate::inputs::{self, InputFile};
use crate::{batch_metrics, repeat_for, secs, span_s, Ctx, Outcome, Rep};
use closet::{ClosetOutput, ClosetParams, EdgePhase};
use ngs_core::Read;
use ngs_observe::Collector;
use std::sync::Arc;
use std::time::Instant;

const THRESHOLDS: [f64; 3] = [0.8, 0.7, 0.6];
/// Mean 454 read length the sketch modulus is tuned for.
const READ_LEN: usize = 370;
/// Pooled Phase-I worker processes.
const POOL_WORKERS: usize = 2;
/// Species-rank ARI floor; Ch4 Medium scores about 0.05 (its clusters are
/// fragmented, see EXPERIMENTS.md Table 4.4).
const ARI_FLOOR: f64 = 0.02;

struct Data {
    file: InputFile,
    species: Vec<usize>,
    reads: usize,
}

fn prepare(ctx: &Ctx) -> Data {
    let (reads, species) = inputs::ch4_medium_renamed(ctx.seed);
    let file = inputs::write_reads(&ctx.dir, "ch4m", &reads);
    eprintln!("closet-m-pooled: {} reads, {}", reads.len(), file.describe());
    Data { file, species, reads: reads.len() }
}

/// CLOSET parameters; `pooled` puts Phase I's sketch jobs on worker
/// processes whose Unix socket lives in the run's scratch directory.
fn params(ctx: &Ctx, pooled: bool) -> ClosetParams {
    let mut params = ClosetParams::standard(READ_LEN, THRESHOLDS.to_vec(), ctx.threads);
    if pooled {
        let exe = std::env::current_exe().expect("own executable");
        let mut pool = mapreduce_lite::PoolConfig::with_worker_cmd(
            POOL_WORKERS,
            vec![exe.to_string_lossy().into_owned(), "--mr-worker".into()],
        );
        pool.socket_dir = Some(ctx.dir.clone());
        params.pool = Some(pool);
    }
    params
}

fn phase_one(reads: &[Read], params: &ClosetParams, collector: &Collector) -> EdgePhase {
    closet::build_edges_observed(reads, params, collector).expect("CLOSET Phase I")
}

fn phase_two(edges: &EdgePhase, params: &ClosetParams, collector: &Collector) -> ClosetOutput {
    closet::cluster_edges_observed(edges, params, collector).expect("CLOSET Phase II")
}

/// Pooled Phase-I edges must equal the in-process reference exactly.
fn edges_match(pooled: &[(u32, u32, f64)], reference: &[(u32, u32, f64)]) -> bool {
    pooled.len() == reference.len()
        && pooled
            .iter()
            .zip(reference)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2.to_bits() == b.2.to_bits())
}

fn digest(out: &ClosetOutput) -> u64 {
    let mut bytes = Vec::new();
    for (t, clusters) in &out.clusters_by_threshold {
        bytes.extend(t.to_bits().to_le_bytes());
        for c in clusters {
            bytes.extend(c.vertices.iter().flat_map(|v| v.to_le_bytes()));
            bytes.push(0xff);
        }
    }
    inputs::fnv1a64(&bytes)
}

pub fn timed(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let off = Collector::disabled();
    let pooled = params(ctx, true);
    // The in-process reference for the pooled Phase I, untimed.
    let reference = phase_one(&inputs::parse_reads(&data.file.path), &params(ctx, false), &off);
    let mut out = Outcome::default();
    let mut first: Option<u64> = None;
    let mut ari = 0.0;
    let mut values = crate::metrics::Values::default();
    let reps = repeat_for(&mut values, ctx.seconds, 3, |i| {
        let t0 = Instant::now();
        let reads = inputs::parse_reads(&data.file.path);
        let edges = phase_one(&reads, &pooled, &off);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let clusters = phase_two(&edges, &pooled, &off);
        let work_s = secs(t1);

        let n = reads.len() as u64;
        out.attempted += n;
        if !edges_match(&edges.validated, &reference.validated) {
            out.fail(
                n,
                format!("closet-m-pooled: repetition {i} pooled edges differ from in-process"),
            );
        }
        let d = digest(&clusters);
        match first {
            None => {
                first = Some(d);
                ari =
                    closet::select_threshold_by_ari(&clusters, &data.species).map_or(0.0, |b| b.1);
                if ari < ARI_FLOOR {
                    out.fail(n, format!("closet-m-pooled: species ARI {ari:.4} below {ARI_FLOOR}"));
                }
                eprintln!(
                    "closet-m-pooled: confirmed_edges={} best_species_ari={ari:.4}",
                    edges.validated.len()
                );
            }
            Some(f) if f != d => {
                out.fail(
                    n,
                    format!("closet-m-pooled: repetition {i} clusters differ from the first"),
                );
            }
            Some(_) => {}
        }
        Rep { setup_s, work_s }
    });
    out.values = values;
    batch_metrics(&mut out.values, &reps, data.reads);
    out.values.set("quality_loss_pct", 100.0 * (1.0 - ari));
    out
}

/// 1-thread time of the hot call, Phase II.
pub fn hot_call_s(ctx: &Ctx) -> f64 {
    let data = prepare(ctx);
    let params = params(ctx, false);
    let edges = phase_one(&inputs::parse_reads(&data.file.path), &params, &Collector::disabled());
    let t = Instant::now();
    std::hint::black_box(phase_two(&edges, &params, &Collector::disabled()));
    secs(t)
}

pub fn traced(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let off = Collector::disabled();
    let mut out = Outcome { attempted: data.reads as u64, ..Default::default() };
    let reads = inputs::parse_reads(&data.file.path);

    // Pool overhead: the same sketch jobs in-process and pooled, untraced.
    let pooled = params(ctx, true);
    let t = Instant::now();
    let (inproc_edges, _) =
        closet::build_candidate_edges_pooled(&reads, &pooled.sketch, &pooled.job, None)
            .expect("in-process sketch");
    let inproc_s = secs(t);
    let t = Instant::now();
    let (pooled_edges, _) = closet::build_candidate_edges_pooled(
        &reads,
        &pooled.sketch,
        &pooled.job,
        pooled.pool.as_ref(),
    )
    .expect("pooled sketch");
    let pooled_s = secs(t);
    if pooled_edges != inproc_edges {
        out.fail(out.attempted, "closet-m-pooled: pooled candidate edges differ".into());
    }

    // One repetition untraced, then traced.
    let t0 = Instant::now();
    let edges = phase_one(&inputs::parse_reads(&data.file.path), &pooled, &off);
    let t_cluster = Instant::now();
    let plain = phase_two(&edges, &pooled, &off);
    let cluster_2t = secs(t_cluster);
    let untraced = secs(t0);

    let collector = Arc::new(Collector::new());
    let mut traced_params = pooled.clone();
    traced_params.job.collector = Some(collector.clone());
    let t0 = Instant::now();
    let t_parse = Instant::now();
    let reads = inputs::parse_reads(&data.file.path);
    let parse_s = secs(t_parse);
    let edges = phase_one(&reads, &traced_params, &collector);
    let clusters = phase_two(&edges, &traced_params, &collector);
    let traced = secs(t0);
    drop(traced_params);

    if digest(&clusters) != digest(&plain) {
        out.fail(out.attempted, "closet-m-pooled: traced clusters differ from untraced".into());
    }
    let report = collector.report("closet");
    let candidates = report.counter("closet.candidate_edges");
    let confirmed = report.counter("closet.confirmed_edges");
    let tasks: u64 = ["mapreduce.task.map", "mapreduce.task.shuffle", "mapreduce.task.reduce"]
        .iter()
        .filter_map(|p| report.span(p))
        .map(|s| s.count)
        .sum();
    let v = &mut out.values;
    v.set("seqio.parse_s", parse_s);
    v.set("seqio.mb_per_s", data.file.bytes as f64 / 1e6 / parse_s);
    v.set("closet.sketch_s", span_s(&report, "closet.sketch"));
    v.set("closet.validate_s", span_s(&report, "closet.validate"));
    v.set("closet.candidate_edges", candidates as f64);
    v.set("closet.confirmed_edges", confirmed as f64);
    v.set("closet.confirm_frac", confirmed as f64 / candidates.max(1) as f64);
    v.set("closet.cluster_s", span_s(&report, "closet.cluster"));
    v.set("closet.clusters_processed", report.counter("closet.clusters_processed") as f64);
    v.set("mapreduce.pool_overhead_s", pooled_s - inproc_s);
    v.set("mapreduce.tasks", tasks as f64);
    v.set("mapreduce.retries", clusters.job_stats.retried_tasks as f64);
    v.set("mapreduce.worker_deaths", clusters.job_stats.worker_deaths as f64);
    v.set("par.eff.closet_cluster", crate::parallel_efficiency(ctx, "closet-m-pooled", cluster_2t));
    v.set("observe.overhead_frac", traced / untraced - 1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_bench::datasets::{ch4_specs, make_ch4, Ch4Spec};

    #[test]
    fn one_dropped_phase_one_edge_fails_its_check() {
        let scratch = crate::scratch_dir("test-edges");
        let ctx = Ctx { seed: 1, seconds: 1.0, dir: scratch.0.clone(), threads: crate::THREADS };
        let reads = make_ch4(&Ch4Spec { n_reads: 300, ..ch4_specs()[0].clone() }).reads;
        let off = Collector::disabled();
        let reference = phase_one(&reads, &params(&ctx, false), &off);
        // The pooled protocol on in-process worker threads (this test
        // binary cannot be re-execed as a worker).
        let mut threaded = params(&ctx, false);
        threaded.pool = Some(mapreduce_lite::PoolConfig::with_workers(POOL_WORKERS));
        let pooled = phase_one(&reads, &threaded, &off);
        assert!(pooled.validated.len() > 1);
        assert!(edges_match(&pooled.validated, &reference.validated));
        let mut dropped = pooled.validated.clone();
        dropped.remove(dropped.len() / 2);
        assert!(!edges_match(&dropped, &reference.validated));
    }
}
