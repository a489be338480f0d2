//! Seeded, file-borne inputs. Data are simulated untimed from the run's
//! seed, written as FASTQ or FASTA into the run's scratch directory, and
//! digested, so two commits provably read the same bytes. The program sees
//! only the files: every workload parses them through `ngs_seqio` inside
//! its timed set-up.

use ngs_bench::datasets::{self, Ch2Spec, Ch3Spec};
use ngs_core::Read;
use ngs_simulate::{
    simulate_reads, ErrorModel, GenomeSpec, ReadSimConfig, RepeatClass, SimulatedReads,
};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};

// Each workload keeps the paper's reference (genome or community) fixed,
// as seeded in `ngs_bench::datasets`. The Ch2 workloads draw their reads
// from it with the run's seed; the Ch3 workload shuffles the data set's own
// reads with it and the Ch4 workload only renames them (see
// `ch3_shuffled` and `ch4_medium_renamed` for why).

/// SplitMix64: the run's seed mixed with a per-workload salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reads of a Ch2 data set (Table 2.1): the data set's genome, reads drawn
/// with `seed` under the Illumina-shaped error profile.
pub fn ch2_reads(spec: &Ch2Spec, seed: u64) -> SimulatedReads {
    let genome = GenomeSpec::uniform(spec.genome_len).generate(spec.seed).seq;
    let cfg = ReadSimConfig::with_coverage(
        genome.len(),
        spec.read_len,
        spec.coverage,
        ErrorModel::illumina_like(spec.read_len, spec.error_rate),
        mix(seed, spec.seed),
    );
    simulate_reads(&genome, &cfg)
}

/// Ch2 D5: 47 bp, 71x, 3.3% error.
pub fn d5() -> Ch2Spec {
    datasets::ch2_specs()[4].clone()
}

/// Ch2 D2: 36 bp, 80x, 0.6% error.
pub fn d2() -> Ch2Spec {
    datasets::ch2_specs()[1].clone()
}

/// Ch3 R3 (80% repeats) scaled 4x: 100 kbp genome, every repeat
/// multiplicity x4, same coverage and error rate.
pub fn r3x4() -> Ch3Spec {
    let r3 = datasets::ch3_specs()[2].clone();
    Ch3Spec {
        genome_len: r3.genome_len * 4,
        repeats: r3
            .repeats
            .iter()
            .map(|r| RepeatClass { length: r.length, multiplicity: r.multiplicity * 4 })
            .collect(),
        ..r3
    }
}

/// A Ch3 data set (Table 3.1) as `ngs_bench::datasets::make_ch3` draws it
/// (genome with its repeats; 36 bp single-stranded reads, uniform errors),
/// in an order shuffled with `seed`. The EM's and the threshold fit's
/// iteration counts swing with which reads are drawn, so the seed permutes
/// one fixed read set instead of drawing a new one.
pub fn ch3_shuffled(spec: &Ch3Spec, seed: u64) -> (Vec<u8>, Vec<Read>) {
    let (genome, sim) = datasets::make_ch3(spec);
    (genome.seq, shuffled(sim.reads, mix(seed, spec.seed)))
}

/// Ch4 Medium: the 3000 reads of the paper-seeded community, in their own
/// order, with read names that carry `seed`. Quasi-clique enumeration
/// cost and memory swing by a third with any change to which reads are
/// drawn or in what order, so only the names vary; CLOSET never reads
/// them. Returns the reads and each read's species label.
pub fn ch4_medium_renamed(seed: u64) -> (Vec<Read>, Vec<usize>) {
    let medium = datasets::make_ch4(&datasets::ch4_specs()[1]);
    let species =
        medium.lineages.iter().map(|l| *l.last().expect("species is the last rank")).collect();
    let reads = medium
        .reads
        .into_iter()
        .enumerate()
        .map(|(i, r)| Read { id: format!("s{seed}_r{i}"), ..r })
        .collect();
    (reads, species)
}

/// `items` in a pseudo-random order drawn from `state` (Fisher-Yates).
fn shuffled<T>(mut items: Vec<T>, mut state: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        state = mix(state, i as u64);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}

/// One input file as written.
pub struct InputFile {
    pub path: PathBuf,
    pub bytes: u64,
    pub digest: u64,
}

impl InputFile {
    /// A line naming the file, its size and digest (printed to stderr).
    pub fn describe(&self) -> String {
        format!(
            "input {} bytes={} fnv1a64={:016x}",
            self.path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
            self.bytes,
            self.digest
        )
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a read list (ids, bases and qualities), for cheap equality
/// checks between repeated outputs.
pub fn digest_reads(reads: &[Read]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
    };
    for r in reads {
        eat(r.id.as_bytes());
        eat(&r.seq);
        eat(r.qual.as_deref().unwrap_or(&[]));
    }
    h
}

/// Write `reads` to `<dir>/<stem>.fastq` when they carry qualities, else
/// to `<dir>/<stem>.fasta`.
pub fn write_reads(dir: &Path, stem: &str, reads: &[Read]) -> InputFile {
    let fastq = reads.first().is_some_and(|r| r.qual.is_some());
    let path = dir.join(format!("{stem}.{}", if fastq { "fastq" } else { "fasta" }));
    let file = std::fs::File::create(&path).expect("create input file in the scratch directory");
    let mut sink = BufWriter::new(file);
    if fastq {
        ngs_seqio::write_fastq(&mut sink, reads).expect("write FASTQ input");
    } else {
        ngs_seqio::write_fasta(&mut sink, reads, 80).expect("write FASTA input");
    }
    sink.flush().expect("flush input file");
    drop(sink);
    let bytes = std::fs::read(&path).expect("read back input file");
    InputFile { path, bytes: bytes.len() as u64, digest: fnv1a64(&bytes) }
}

/// Parse an input file through `ngs_seqio` (FASTQ or FASTA by extension).
pub fn parse_reads(path: &Path) -> Vec<Read> {
    let file = std::fs::File::open(path).expect("open input file");
    let source = BufReader::with_capacity(1 << 20, file);
    let parsed = if path.extension().is_some_and(|e| e == "fastq") {
        ngs_seqio::read_fastq(source)
    } else {
        ngs_seqio::read_fasta(source)
    };
    parsed.expect("input file parses")
}
