//! `reptile-d5`: batch Reptile correction of Ch2 D5 (47 bp, 71x, 3.3%
//! error). Set-up parses the FASTQ and builds the spectrum, tile table
//! and neighbour tables; the work is `Reptile::correct` over every read.

use crate::inputs::{self, InputFile};
use crate::{batch_metrics, repeat_for, secs, span_s, Ctx, Outcome, Rep};
use ngs_core::Read;
use ngs_observe::Collector;
use reptile::{Reptile, ReptileParams, ReptileStats};
use std::time::Instant;

/// Table 2.3 Gain floor, percent; D5 scores about 82%.
const GAIN_FLOOR_PCT: f64 = 75.0;

struct Data {
    file: InputFile,
    truth: Vec<Vec<u8>>,
    genome_len: usize,
}

fn prepare(ctx: &Ctx) -> Data {
    let spec = inputs::d5();
    let sim = inputs::ch2_reads(&spec, ctx.seed);
    let file = inputs::write_reads(&ctx.dir, "d5", &sim.reads);
    eprintln!("reptile-d5: {} reads, {}", sim.reads.len(), file.describe());
    let truth = sim.truth.into_iter().map(|t| t.true_seq).collect();
    Data { file, truth, genome_len: spec.genome_len }
}

/// The set-up a user pays before correcting: parse, then build the index.
/// Returns the raw reads, the preprocessed reads and the corrector.
fn setup(data: &Data, collector: &Collector) -> (Vec<Read>, Vec<Read>, Reptile) {
    let raw = inputs::parse_reads(&data.file.path);
    let params = ReptileParams::from_data(&raw, data.genome_len);
    let pre = reptile::ambig::preprocess_ambiguous(&raw, &params);
    let corrector = Reptile::build_observed(&pre, params, collector);
    (raw, pre, corrector)
}

/// Table 2.3 Gain of `corrected` against the simulated truth, percent.
pub fn gain_pct(raw: &[Read], corrected: &[Read], truth: &[Vec<u8>]) -> f64 {
    100.0 * ngs_eval::evaluate_correction(raw, corrected, truth).gain()
}

pub fn timed(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let off = Collector::disabled();
    let mut out = Outcome::default();
    let mut first: Option<(u64, usize)> = None;
    let mut gain = 0.0;
    let mut values = crate::metrics::Values::default();
    let reps = repeat_for(&mut values, ctx.seconds, 3, |i| {
        let t0 = Instant::now();
        let (raw, pre, corrector) = setup(&data, &off);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let (corrected, _) = corrector.correct(&pre);
        let work_s = secs(t1);
        std::hint::black_box(&corrected);

        // Checks, untimed: every repetition must give the same bytes, and
        // the first must reach the quality floor.
        let n = raw.len() as u64;
        out.attempted += n;
        let digest = inputs::digest_reads(&corrected);
        match first {
            None => {
                first = Some((digest, corrected.len()));
                gain = gain_pct(&raw, &corrected, &data.truth);
                if gain < GAIN_FLOOR_PCT {
                    out.fail(n, format!("reptile-d5: gain {gain:.3}% below {GAIN_FLOOR_PCT}%"));
                }
            }
            Some((d, len)) if d != digest || len != corrected.len() => {
                out.fail(n, format!("reptile-d5: repetition {i} output differs from the first"));
            }
            Some(_) => {}
        }
        Rep { setup_s, work_s }
    });
    out.values = values;
    batch_metrics(&mut out.values, &reps, data.truth.len());
    out.values.set("quality_loss_pct", 100.0 - gain);
    eprintln!("reptile-d5: gain_pct={gain:.4}");
    out
}

/// 1-thread time of the hot call, `Reptile::correct`.
pub fn hot_call_s(ctx: &Ctx) -> f64 {
    let data = prepare(ctx);
    let (_, pre, corrector) = setup(&data, &Collector::disabled());
    let t = Instant::now();
    std::hint::black_box(corrector.correct(&pre));
    secs(t)
}

pub fn traced(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let mut out = Outcome::default();

    // The same repetition untraced, then traced; the difference is the
    // telemetry's cost.
    let t0 = Instant::now();
    let (_, pre, corrector) = setup(&data, &Collector::disabled());
    let t_correct = Instant::now();
    let (plain, _) = corrector.correct(&pre);
    let correct_2t = secs(t_correct);
    let untraced = secs(t0);
    drop(corrector);

    let collector = Collector::new();
    let t0 = Instant::now();
    let t_parse = Instant::now();
    let raw = inputs::parse_reads(&data.file.path);
    let parse_s = secs(t_parse);
    let params = ReptileParams::from_data(&raw, data.genome_len);
    let pre = reptile::ambig::preprocess_ambiguous(&raw, &params);
    let corrector = Reptile::build_observed(&pre, params, &collector);
    let (corrected, stats) = corrector.correct_observed(&pre, &collector);
    let traced = secs(t0);

    out.attempted = raw.len() as u64;
    if corrected != plain {
        out.fail(out.attempted, "reptile-d5: traced output differs from untraced".into());
    }
    let report = collector.report("reptile");
    let v = &mut out.values;
    v.set("seqio.parse_s", parse_s);
    v.set("seqio.mb_per_s", data.file.bytes as f64 / 1e6 / parse_s);
    v.set("kmer.spectrum_s", span_s(&report, "reptile.build.spectrum"));
    v.set("kmer.tiles_s", span_s(&report, "reptile.build.tiles"));
    v.set("kmer.neighbor_index_s", span_s(&report, "reptile.build.neighbor_index"));
    v.set("kmer.distinct_kmers", report.counter("reptile.distinct_kmers") as f64);
    set_reptile_layer(v, &report, &stats, raw.len());
    v.set("par.eff.reptile_correct", crate::parallel_efficiency(ctx, "reptile-d5", correct_2t));
    v.set("observe.overhead_frac", traced / untraced - 1.0);
    out
}

/// The `reptile.*` layer figures from a traced `correct_observed`.
pub fn set_reptile_layer(
    v: &mut crate::metrics::Values,
    report: &ngs_observe::Report,
    stats: &ReptileStats,
    reads: usize,
) {
    let correct_s = span_s(report, "reptile.correct");
    v.set("reptile.correct_s", correct_s);
    v.set("reptile.us_per_read", correct_s * 1e6 / reads.max(1) as f64);
    v.set("reptile.tiles_validated", report.counter("reptile.tiles_validated") as f64);
    v.set("reptile.tiles_corrected", report.counter("reptile.tiles_corrected") as f64);
    v.set("reptile.tiles_unresolved", report.counter("reptile.tiles_unresolved") as f64);
    let tried = stats.tiles_corrected + stats.tiles_unresolved;
    v.set("reptile.useful_frac", stats.tiles_corrected as f64 / tried.max(1) as f64);
}
