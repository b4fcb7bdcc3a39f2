//! The metric catalogue: every name the benchmark emits, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! keeps the two in step).

use crate::json::Json;

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Reported by every untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("gcups", "GCUPS", "higher"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Reported by every traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 34] = [
    ("service.submit_us", "us", "lower"),
    ("service.queue_wait_ms", "ms", "lower"),
    ("service.latency_ms", "ms", "lower"),
    ("service.self_ms", "ms", "lower"),
    ("service.retries", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("store.build_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.cold_load_s", "s", "lower"),
    ("store.bytes_per_symbol", "B/symbol", "lower"),
    ("store.chunks_loaded", "count", "lower"),
    ("store.chunk_cache_hits", "count", "higher"),
    ("store.verify_failures", "count", "lower"),
    ("store.self_ms", "ms", "lower"),
    ("supervisor.self_ms", "ms", "lower"),
    ("supervisor.faults", "count", "lower"),
    ("early_termination.scan_ms", "ms", "lower"),
    ("early_termination.cells_frac", "ratio", "lower"),
    ("early_termination.cells_frac_spread", "ratio", "lower"),
    ("early_termination.abandoned_frac", "ratio", "higher"),
    ("early_termination.abandoned_frac_spread", "ratio", "lower"),
    ("early_termination.parallel_eff", "ratio", "higher"),
    ("engine.full_scan_ms", "ms", "lower"),
    ("engine.batch_ms", "ms", "lower"),
    ("engine.per_pair_ms", "ms", "lower"),
    ("engine.kernel_gcups", "GCUPS", "higher"),
    ("engine.occupancy", "ratio", "higher"),
    ("engine.striped_fraction", "ratio", "higher"),
    ("engine.half_width_stripes", "count", "lower"),
    ("pack.s", "s", "lower"),
    ("telemetry.overhead_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("reconcile.residual_ms", "ms", "lower"),
    ("reconcile.residual_pct", "%", "lower"),
];

/// Whether `name` is a valid metric name: a letter or digit first, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Collected metric values, checked against a catalogue on output.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object for `catalogue`, in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue metric was never set — a benchmark bug.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Json {
        Json::obj(catalogue.iter().map(|&(name, unit, _)| {
            assert!(valid_name(name), "invalid metric name {name}");
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn every_metric_name_and_unit_uses_the_allowed_characters() {
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit, better) in catalogue() {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(unit_ok),
                "{unit}"
            );
            assert!(better == "lower" || better == "higher");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // a stand-alone copy of the benchmark directory
        };
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = text
                .split(&format!("\"{section}\""))
                .nth(1)
                .and_then(|s| s.split(']').next())
                .expect("section present");
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, list.len(), "{section} count");
            for &(name, unit, better) in list {
                let entry =
                    format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }
}
