//! Metric names, units and the result line.  `BENCHMARK.json` declares
//! the same tables; the self-test checks the two agree.

use crate::trace::Tracer;
use crate::{host, Args};
use oa_core::autotune::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), printed for every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("model_gflops", "GFLOPS"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), printed for every workload; a layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("dispatch.lru_hit_ratio", "ratio"),
    ("dispatch.resolve_ms", "ms"),
    ("dispatch.digest_ms", "ms"),
    ("composer.compose_ms", "ms"),
    ("composer.filter_ms", "ms"),
    ("composer.survive_ratio", "ratio"),
    ("epod.translate_ms", "ms"),
    ("epod.translate_calls", "count"),
    ("perf.evaluate_ms", "ms"),
    ("perf.evaluate_calls", "count"),
    ("gpusim.lower_ms", "ms"),
    ("blas3.prep_ms", "ms"),
    ("gpusim.exec_ms", "ms"),
    ("gpusim.exec_host_gflops", "GFLOPS"),
    ("gpusim.exec_peak_frac", "ratio"),
    ("gpusim.native_entry_ratio", "ratio"),
    ("autotune.tune_ms", "ms"),
    ("autotune.points", "count"),
    ("autotune.evaluated_ratio", "ratio"),
    ("autotune.pruned", "count"),
    ("autotune.errored", "count"),
    ("dag.fused_tune_ms", "ms"),
    ("dag.exec_ms", "ms"),
    ("dag.fused_edges", "count"),
    ("dag.rejects", "count"),
    ("host.fma_gflops", "GFLOPS"),
    ("host.copy_gbs", "GB/s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("client.late_ms_p99", "ms"),
];

/// Largest share of the traced total the layer self times may leave
/// unattributed (the benchmark's own loop and bookkeeping).
pub const SUM_SLACK: f64 = 0.05;

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output or self-consistency checks that failed (each also counted
    /// in `failed`).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context printed on the line before the result (sample counts,
    /// rates, ladder probes).
    pub detail: BTreeMap<String, Json>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed operation with its reason.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.detail.insert(key.to_string(), value);
    }

    /// The result line: every metric of the requested table, with units.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = BTreeMap::new();
        for &(name, unit) in table {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.insert(
                name.to_string(),
                Json::Obj(BTreeMap::from([
                    ("value".to_string(), Json::Num(v)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ])),
            );
        }
        let correct = self.problems.is_empty();
        Ok(Json::Obj(BTreeMap::from([
            ("correct".to_string(), Json::Bool(correct)),
            (
                "attempted".to_string(),
                Json::Int(self.attempted.max(1) as i64),
            ),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]))
        .compact())
    }
}

/// Zero every per-layer metric not yet set (layers the workload leaves
/// idle).
pub fn zero_unset_layers(out: &mut Outcome) {
    for &(name, _) in PER_LAYER {
        out.metrics.entry(name).or_insert(0.0);
    }
}

/// Sum check, host ceiling and span dump shared by every traced run.
pub fn finish_trace(args: &Args, tr: &Tracer, out: &mut Outcome) {
    let a = tr.attribution();
    let frac = a.unattributed_frac();
    out.set("trace.unattributed_frac", frac);
    if frac.abs() > SUM_SLACK {
        out.fail(format!(
            "layer self times leave {:.1}% of the traced total unattributed (slack {:.0}%)",
            frac * 100.0,
            SUM_SLACK * 100.0
        ));
    }
    out.note(
        "self_ms",
        Json::Obj(
            a.self_ms
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                .collect(),
        ),
    );
    let h = host::probe(args.threads);
    out.set("host.fma_gflops", h.fma_gflops);
    out.set("host.copy_gbs", h.copy_gbs);
    if let Some(dir) = &args.out_dir {
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{LIMIT_MS, REF_RATE};
    use oa_core::autotune::json::parse;

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = spec();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn benchmark_json_states_rates_limits_and_slack() {
        let spec = spec();
        let why = |name: &str| {
            spec.get("workloads")
                .and_then(Json::as_arr)
                .and_then(|ws| ws.iter().find(|w| field(w, "name") == name))
                .map(|w| field(w, "why").to_string())
                .unwrap_or_default()
        };
        let w = why("serve-steady");
        assert!(w.contains(&format!("ref {REF_RATE}/s")), "{w}");
        assert!(w.contains(&format!("p99 limit {LIMIT_MS} ms")), "{w}");
        assert!(w.contains("ladder 10-640/s"), "{w}");
        let slack = format!("slack {}%", (SUM_SLACK * 100.0).round());
        assert!(why("libgen-cold").contains(&slack), "{slack}");
    }
}
