//! The benchmark's metric catalogue and its result line.
//!
//! Every name printed is declared here with its unit, and the unit tests
//! check this catalogue against `BENCHMARK.json` in both directions.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: printed by every untraced run of every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// One per-layer metric: printed by every traced run. A layer that a
/// workload bypasses reports 0 there. `moves` names the end-to-end metric
/// and workload this layer figure should move, as `metric@workload`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower },
    EndToEnd { name: "reads_per_s", unit: "reads/s", better: Higher },
    EndToEnd { name: "p50_ms", unit: "ms", better: Lower },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower },
    EndToEnd { name: "success_frac", unit: "fraction", better: Higher },
    EndToEnd { name: "quality_loss_pct", unit: "%", better: Lower },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $moves:literal) => {
        PerLayer { name: $name, unit: $unit, better: $better, moves: $moves }
    };
}

pub const PER_LAYER: &[PerLayer] = &[
    // Host noise, never compared between commits.
    layer!("host.steal_frac", "fraction", Lower, "none"),
    layer!("host.calib_ms", "ms", Lower, "none"),
    // ngs-seqio
    layer!("seqio.parse_s", "s", Lower, "setup_s@serve-d2"),
    layer!("seqio.mb_per_s", "MB/s", Higher, "setup_s@serve-d2"),
    // ngs-kmer
    layer!("kmer.spectrum_s", "s", Lower, "setup_s@reptile-d5"),
    layer!("kmer.tiles_s", "s", Lower, "setup_s@reptile-d5"),
    layer!("kmer.neighbor_index_s", "s", Lower, "setup_s@reptile-d5"),
    layer!("kmer.distinct_kmers", "count", Lower, "setup_s@reptile-d5"),
    // reptile
    layer!("reptile.correct_s", "s", Lower, "reads_per_s@reptile-d5"),
    layer!("reptile.us_per_read", "us", Lower, "reads_per_s@reptile-d5"),
    layer!("reptile.tiles_validated", "count", Higher, "reads_per_s@reptile-d5"),
    layer!("reptile.tiles_corrected", "count", Higher, "reads_per_s@reptile-d5"),
    layer!("reptile.tiles_unresolved", "count", Lower, "reads_per_s@reptile-d5"),
    layer!("reptile.useful_frac", "fraction", Higher, "reads_per_s@reptile-d5"),
    // redeem
    layer!("redeem.graph_s", "s", Lower, "setup_s@redeem-r3x4"),
    layer!("redeem.avg_degree", "count", Lower, "setup_s@redeem-r3x4"),
    layer!("redeem.em_s", "s", Lower, "reads_per_s@redeem-r3x4"),
    layer!("redeem.em_iters", "count", Lower, "reads_per_s@redeem-r3x4"),
    layer!("redeem.em_ms_per_iter", "ms", Lower, "reads_per_s@redeem-r3x4"),
    layer!("redeem.fit_s", "s", Lower, "reads_per_s@redeem-r3x4"),
    // closet
    layer!("closet.sketch_s", "s", Lower, "setup_s@closet-m-pooled"),
    layer!("closet.validate_s", "s", Lower, "setup_s@closet-m-pooled"),
    layer!("closet.candidate_edges", "count", Lower, "setup_s@closet-m-pooled"),
    layer!("closet.confirmed_edges", "count", Higher, "setup_s@closet-m-pooled"),
    layer!("closet.confirm_frac", "fraction", Higher, "setup_s@closet-m-pooled"),
    layer!("closet.cluster_s", "s", Lower, "reads_per_s@closet-m-pooled"),
    layer!("closet.clusters_processed", "count", Lower, "reads_per_s@closet-m-pooled"),
    // mapreduce-lite
    layer!("mapreduce.pool_overhead_s", "s", Lower, "setup_s@closet-m-pooled"),
    layer!("mapreduce.tasks", "count", Lower, "setup_s@closet-m-pooled"),
    layer!("mapreduce.retries", "count", Lower, "success_frac@closet-m-pooled"),
    layer!("mapreduce.worker_deaths", "count", Lower, "success_frac@closet-m-pooled"),
    // shim-rayon: 1-thread time / (2 x 2-thread time) of the hot call.
    layer!("par.eff.reptile_correct", "fraction", Higher, "reads_per_s@reptile-d5"),
    layer!("par.eff.redeem_em", "fraction", Higher, "reads_per_s@redeem-r3x4"),
    layer!("par.eff.closet_cluster", "fraction", Higher, "reads_per_s@closet-m-pooled"),
    // ngs-durable
    layer!("durable.snapshot_load_s", "s", Lower, "setup_s@serve-d2"),
    layer!("durable.snapshot_mb", "MiB", Lower, "setup_s@serve-d2"),
    // ngs-server: the live Stats probe is log2-bucketed, hence its unit.
    layer!("server.queue_wait_p99_ms", "ms-pow2-bucket", Lower, "p50_ms@serve-d2"),
    layer!("server.shed", "count", Lower, "success_frac@serve-d2"),
    layer!("server.conn_errors", "count", Lower, "success_frac@serve-d2"),
    layer!("loadgen.late_p99_ms", "ms", Lower, "p50_ms@serve-d2"),
    // Exact open-loop latency of served 32-read batches.
    layer!("serve.p50_ms.low", "ms", Lower, "p50_ms@serve-d2"),
    layer!("serve.p50_ms.mid", "ms", Lower, "p50_ms@serve-d2"),
    layer!("serve.p99_ms.low", "ms", Lower, "p50_ms@serve-d2"),
    layer!("serve.p99_ms.mid", "ms", Lower, "p50_ms@serve-d2"),
    layer!("serve.samples.low", "count", Higher, "none"),
    layer!("serve.samples.mid", "count", Higher, "none"),
    layer!("serve.top_pct.low", "%", Higher, "none"),
    layer!("serve.top_pct.mid", "%", Higher, "none"),
    layer!("serve.max_rps_p99", "req/s", Higher, "reads_per_s@serve-d2"),
    // ngs-observe
    layer!("observe.overhead_frac", "fraction", Lower, "none"),
];

/// The catalogue as a table: every metric with its unit and direction,
/// and for each per-layer metric the end-to-end metric and workload it
/// should move.
pub fn catalogue() -> String {
    let dir = |b: Better| if b == Higher { "higher" } else { "lower" };
    let mut out = String::from("end-to-end (every untraced run):\n");
    for m in END_TO_END {
        out += &format!("  {:<28} {:<16} {}\n", m.name, m.unit, dir(m.better));
    }
    out += "per-layer (every traced run; 0 where the workload bypasses the layer):\n";
    for m in PER_LAYER {
        out += &format!("  {:<28} {:<16} {:<7} moves {}\n", m.name, m.unit, dir(m.better), m.moves);
    }
    out
}

/// Named metric values gathered by one run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under a catalogue name.
    ///
    /// # Panics
    /// On a name missing from the catalogue: printing an undeclared metric
    /// is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.0.insert(key, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: every metric of the requested set, by name and unit.
/// Per-layer metrics a workload did not touch are 0; an end-to-end metric
/// must have been measured.
///
/// # Panics
/// When an end-to-end metric is missing.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    trace: bool,
) -> String {
    let entries: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit, values.get(m.name).unwrap_or(0.0))).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = values.get(m.name).unwrap_or_else(|| panic!("{} not measured", m.name));
                (m.name, m.unit, v)
            })
            .collect()
    };
    let metrics: Vec<String> = entries
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// JSON has no infinities or NaN; a latency rank that landed on a refused
/// request is printed as a large finite number instead.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_observe::json::{parse, Json as JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String, String)> {
        let list = doc.get(key).and_then(JsonValue::as_arr).expect(key);
        list.iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn better(b: Better) -> String {
        match b {
            Lower => "lower".into(),
            Higher => "higher".into(),
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json_both_ways() {
        let doc = benchmark_json();
        let e2e: Vec<_> =
            END_TO_END.iter().map(|m| (m.name.into(), m.unit.into(), better(m.better))).collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<_> =
            PER_LAYER.iter().map(|m| (m.name.into(), m.unit.into(), better(m.better))).collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
    }

    #[test]
    fn every_layer_names_a_real_metric_and_workload_it_moves() {
        let doc = benchmark_json();
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name").to_string())
            .collect();
        for m in PER_LAYER {
            if m.moves == "none" {
                continue;
            }
            let (metric, workload) = m.moves.split_once('@').expect("metric@workload");
            assert!(END_TO_END.iter().any(|e| e.name == metric), "{}: {metric}", m.name);
            assert!(workloads.iter().any(|w| w == workload), "{}: {workload}", m.name);
        }
    }

    #[test]
    fn result_line_prints_every_metric_of_the_requested_set() {
        let mut values = Values::default();
        for m in END_TO_END {
            values.set(m.name, 1.5);
        }
        let line = result_line(true, 10, 0, &values, false);
        let doc = parse(&line).expect("result line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
            assert_eq!(entry.get("value").and_then(JsonValue::as_f64), Some(1.5));
        }
        let traced = parse(&result_line(true, 10, 0, &values, true)).expect("traced line is JSON");
        for m in PER_LAYER {
            assert!(traced.get("metrics").and_then(|x| x.get(m.name)).is_some(), "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn undeclared_names_are_refused() {
        Values::default().set("made.up", 1.0);
    }
}
