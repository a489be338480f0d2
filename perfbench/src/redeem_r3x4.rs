//! `redeem-r3x4`: REDEEM detection (k = 13, dmax = 1, uniform error model)
//! on Ch3 R3, the 80%-repeat genome, scaled 4x. Set-up parses the FASTA
//! and builds the spectrum and misread graph; the work is the EM, the
//! §3.7 threshold fit and the classification of every k-mer.

use crate::inputs::{self, InputFile};
use crate::{batch_metrics, repeat_for, secs, span_s, Ctx, Outcome, Rep};
use ngs_core::hash::FxHashSet;
use ngs_kmer::KSpectrum;
use ngs_observe::Collector;
use redeem::{EmConfig, KmerErrorModel, Redeem};
use std::time::Instant;

const K: usize = 13;
const DMAX: usize = 1;
/// Mixture components tried by the threshold fit (Ĝ ∈ 1..=3).
const MAX_G: usize = 3;
/// FP+FN ceiling at the fitted threshold, percent of distinct k-mers; R3x4
/// scores about 0.008%.
const WRONG_KMERS_CEILING_PCT: f64 = 0.05;

struct Data {
    file: InputFile,
    genome: Vec<u8>,
    error_rate: f64,
    reads: usize,
}

fn prepare(ctx: &Ctx) -> Data {
    let spec = inputs::r3x4();
    let (genome, reads) = inputs::ch3_shuffled(&spec, ctx.seed);
    let file = inputs::write_reads(&ctx.dir, "r3x4", &reads);
    eprintln!("redeem-r3x4: {} reads, {}", reads.len(), file.describe());
    Data { file, genome, error_rate: spec.error_rate, reads: reads.len() }
}

fn setup(data: &Data) -> Redeem {
    let reads = inputs::parse_reads(&data.file.path);
    let spectrum = KSpectrum::from_reads(&reads, K);
    Redeem::from_spectrum(spectrum, &KmerErrorModel::uniform(K, data.error_rate), DMAX)
}

/// The detection result: REDEEM's estimates and which k-mers it declares
/// erroneous (`T` below the fitted threshold).
struct Detection {
    t: Vec<f64>,
    threshold: f64,
    erroneous: Vec<bool>,
}

fn detect(redeem: &Redeem, collector: &Collector) -> Detection {
    let em = redeem.run_observed(&EmConfig::default(), collector);
    let fit = redeem::fit_threshold_model_observed(&em.t, MAX_G, collector)
        .expect("threshold fit on non-degenerate estimates");
    let erroneous = em.t.iter().map(|&t| t < fit.threshold).collect();
    Detection { t: em.t, threshold: fit.threshold, erroneous }
}

/// Which spectrum k-mers occur in the genome (single-stranded reads, so
/// the forward strand only).
fn genomic_flags(genome: &[u8], spectrum: &KSpectrum) -> Vec<bool> {
    let mut set: FxHashSet<u64> = FxHashSet::default();
    ngs_kmer::for_each_kmer(genome, spectrum.k(), |_, v| {
        set.insert(v);
    });
    spectrum.kmers().iter().map(|v| set.contains(v)).collect()
}

/// FP + FN against genomic truth, percent of distinct k-mers (Table 3.3).
fn wrong_kmers_pct(erroneous: &[bool], genomic: &[bool]) -> f64 {
    let wrong = erroneous.iter().zip(genomic).filter(|(&e, &g)| e == g).count();
    100.0 * wrong as f64 / erroneous.len().max(1) as f64
}

fn digest(d: &Detection) -> u64 {
    let mut bytes: Vec<u8> = d.t.iter().flat_map(|t| t.to_bits().to_le_bytes()).collect();
    bytes.extend(d.threshold.to_bits().to_le_bytes());
    inputs::fnv1a64(&bytes)
}

pub fn timed(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let off = Collector::disabled();
    let mut out = Outcome::default();
    let mut first: Option<u64> = None;
    let mut wrong = 0.0;
    let mut values = crate::metrics::Values::default();
    let reps = repeat_for(&mut values, ctx.seconds, 3, |i| {
        let t0 = Instant::now();
        let redeem = setup(&data);
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let detection = detect(&redeem, &off);
        let work_s = secs(t1);

        let n = data.reads as u64;
        out.attempted += n;
        let d = digest(&detection);
        match first {
            None => {
                first = Some(d);
                let genomic = genomic_flags(&data.genome, redeem.spectrum());
                wrong = wrong_kmers_pct(&detection.erroneous, &genomic);
                if wrong > WRONG_KMERS_CEILING_PCT {
                    out.fail(n, format!("redeem-r3x4: {wrong:.3}% wrong k-mers"));
                }
                eprintln!(
                    "redeem-r3x4: threshold={:.4} distinct_kmers={} wrong_kmers_pct={wrong:.4}",
                    detection.threshold,
                    detection.t.len()
                );
            }
            Some(f) if f != d => {
                out.fail(n, format!("redeem-r3x4: repetition {i} estimates differ from the first"));
            }
            Some(_) => {}
        }
        Rep { setup_s, work_s }
    });
    out.values = values;
    batch_metrics(&mut out.values, &reps, data.reads);
    out.values.set("quality_loss_pct", wrong);
    out
}

/// 1-thread time of the hot call, the EM.
pub fn hot_call_s(ctx: &Ctx) -> f64 {
    let redeem = setup(&prepare(ctx));
    let t = Instant::now();
    std::hint::black_box(redeem.run(&EmConfig::default()));
    secs(t)
}

pub fn traced(ctx: &Ctx) -> Outcome {
    let data = prepare(ctx);
    let mut out = Outcome { attempted: data.reads as u64, ..Default::default() };

    let t0 = Instant::now();
    let redeem = setup(&data);
    let t_em = Instant::now();
    std::hint::black_box(redeem.run(&EmConfig::default()));
    let em_2t = secs(t_em);
    let plain = detect(&redeem, &Collector::disabled());
    let untraced = secs(t0) - em_2t;
    drop(redeem);

    let collector = Collector::new();
    let t0 = Instant::now();
    let t_parse = Instant::now();
    let reads = inputs::parse_reads(&data.file.path);
    let parse_s = secs(t_parse);
    let t_spectrum = Instant::now();
    let spectrum = KSpectrum::from_reads(&reads, K);
    let spectrum_s = secs(t_spectrum);
    let distinct = spectrum.len();
    let t_graph = Instant::now();
    let redeem =
        Redeem::from_spectrum(spectrum, &KmerErrorModel::uniform(K, data.error_rate), DMAX);
    let graph_s = secs(t_graph);
    let detection = detect(&redeem, &collector);
    let traced = secs(t0);

    if digest(&detection) != digest(&plain) {
        out.fail(out.attempted, "redeem-r3x4: traced estimates differ from untraced".into());
    }
    let report = collector.report("redeem");
    let iters = report.span("redeem.em.iteration").map_or(0, |s| s.count);
    let em_s = span_s(&report, "redeem.em.iteration");
    let v = &mut out.values;
    v.set("seqio.parse_s", parse_s);
    v.set("seqio.mb_per_s", data.file.bytes as f64 / 1e6 / parse_s);
    v.set("kmer.spectrum_s", spectrum_s);
    v.set("kmer.distinct_kmers", distinct as f64);
    v.set("redeem.graph_s", graph_s);
    v.set("redeem.avg_degree", redeem.average_degree());
    v.set("redeem.em_s", em_s);
    v.set("redeem.em_iters", iters as f64);
    v.set("redeem.em_ms_per_iter", em_s * 1e3 / iters.max(1) as f64);
    v.set("redeem.fit_s", span_s(&report, "redeem.threshold.fit"));
    v.set("par.eff.redeem_em", crate::parallel_efficiency(ctx, "redeem-r3x4", em_2t));
    v.set("observe.overhead_frac", traced / untraced - 1.0);
    out
}
