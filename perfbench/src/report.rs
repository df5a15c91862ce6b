//! The metric catalog, per-pass results and the final JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`: what a user of gcon sees, each gated
/// by a bound in `BENCHMARK.json`. Every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("updates_per_s", "1/s"),
    ("visible_p50_ms", "ms"),
    ("train_cora_ms", "ms"),
    ("train_pubmed_ms", "ms"),
    ("f1_cora", "fraction"),
    ("f1_pubmed", "fraction"),
];

/// Per-layer metrics, `(name, unit)`, named after the program's modules,
/// plus the end-to-end figures that swing too far between identical runs
/// on a small shared box to gate: the latency tails and the bulk path (see
/// the README). Every traced run reports all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("batch.query_us", "us"),
    ("batch.mean_size", "count"),
    ("model.forward_ns", "ns"),
    ("model.batch_forward_us", "us"),
    ("wire.codec_ns", "ns"),
    ("wire.health_rtt_us", "us"),
    ("wire.bulk_bytes", "bytes"),
    ("fleet.shard_query_us", "us"),
    ("fleet.coord_self_us", "us"),
    ("fleet.failovers", "count"),
    ("fleet.quarantined", "count"),
    ("delta.apply_us", "us"),
    ("refresh.us", "us"),
    ("refresh.rows_recomputed", "count"),
    ("refresh.inf_iterations", "count"),
    ("refresh.push_share", "fraction"),
    ("refresh.staleness_max", "max-norm"),
    ("dynamic.publish_us", "us"),
    ("coalesce.wait_us", "us"),
    ("coalesce.mean_window", "count"),
    ("cora.encoder_ms", "ms"),
    ("cora.propagation_ms", "ms"),
    ("cora.spmm_ops", "count"),
    ("cora.calibration_us", "us"),
    ("cora.noise_us", "us"),
    ("cora.minimize_ms", "ms"),
    ("cora.minimize_iters", "count"),
    ("cora.grad_norm", "norm"),
    ("cora.other_ms", "ms"),
    ("pubmed.encoder_ms", "ms"),
    ("pubmed.propagation_ms", "ms"),
    ("pubmed.spmm_ops", "count"),
    ("pubmed.calibration_us", "us"),
    ("pubmed.noise_us", "us"),
    ("pubmed.minimize_ms", "ms"),
    ("pubmed.minimize_iters", "count"),
    ("pubmed.grad_norm", "norm"),
    ("pubmed.other_ms", "ms"),
    ("point.remainder_us", "us"),
    ("bulk.remainder_us", "us"),
    ("update.remainder_ms", "ms"),
    ("query_p99_us", "us"),
    ("bulk_nodes_per_s", "1/s"),
    ("bulk_p50_us", "us"),
    ("bulk_p99_us", "us"),
    ("visible_p99_ms", "ms"),
    ("read_p99_us", "us"),
    ("loadgen.point_lag_p99_us", "us"),
    ("loadgen.update_lag_p99_us", "us"),
    ("trace.point_overhead_pct", "%"),
    ("trace.bulk_overhead_pct", "%"),
    ("trace.update_overhead_pct", "%"),
    ("trace.train_overhead_pct", "%"),
];

/// The catalog's own `'static` copy of metric `name`.
///
/// # Panics
/// Panics when `name` is in neither catalog: a benchmark bug.
pub fn catalog_name(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What one workload pass did: operations and checks counted, metrics
/// measured and report lines for the human-readable part of the output.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed: errors, timeouts and failed output checks.
    pub failed: u64,
    /// Measured metrics by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Pass {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one output check, failed unless `ok`, and reports a failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.op(ok);
        if !ok {
            self.lines.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Appends a report line.
    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Folds another pass's counts into this one (metrics are not merged).
    pub fn absorb_counts(&mut self, other: &Pass) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `catalog` taken from `values`. A metric missing from
/// `values` or not finite makes the run incorrect (and is reported as 0).
pub fn json_line(
    attempted: u64,
    failed: u64,
    catalog: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> (bool, String) {
    let mut complete = true;
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    complete = false;
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = complete && failed == 0 && attempted > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "invalid metric name {name}");
            assert!(valid_unit(unit), "invalid unit {unit} of {name}");
            assert!(seen.insert(*name), "metric {name} listed twice");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let listed = |key: &str| {
            // The names listed under one top-level array, in order.
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closed") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect::<Vec<_>>()
        };
        let names =
            |cat: &[(&str, &str)]| cat.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end"), names(END_TO_END));
        assert_eq!(listed("per_layer"), names(PER_LAYER));
        for w in listed("workloads") {
            assert!(crate::WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
        }
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("batch.query_us"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("max-norm"));
        assert!(!valid_unit("") && !valid_unit("micro seconds"));
    }

    #[test]
    fn json_line_is_complete_or_incorrect() {
        let cat = &[("a_ms", "ms"), ("b", "count")];
        let mut values = BTreeMap::new();
        values.insert("a_ms", 1.5);
        let (ok, line) = json_line(3, 0, cat, &values);
        assert!(!ok, "a missing metric is incorrect");
        assert!(line.contains("\"b\": {\"value\": 0, \"unit\": \"count\"}"));
        values.insert("b", 2.0);
        let (ok, line) = json_line(3, 0, cat, &values);
        assert!(ok);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(!json_line(3, 1, cat, &values).0, "a failed op is incorrect");
        values.insert("b", f64::NAN);
        assert!(!json_line(3, 0, cat, &values).0, "NaN is incorrect");
    }
}
