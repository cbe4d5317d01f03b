//! The metric catalogue and the run's output.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test holds the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, emitted by every workload's
/// untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("slo_rate_ops_s", "ops/s"),
    ("ops_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics printed with the others but not in the result
/// line: their run-to-run spread on a shared 2-vCPU machine is wider than
/// any bound a gate could use (`slo_miss_frac`), or they are zero on
/// these fault-free workloads, so a relative bound is meaningless
/// (`failed_frac`; the result line's `failed` carries it).
pub const PRINTED: &[(&str, &str)] = &[("slo_miss_frac", "frac"), ("failed_frac", "frac")];

/// Per-layer metrics: `(name, unit)`, emitted by every workload's traced
/// run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // c3-live
    ("live_ops", "count"),
    ("backpressure_per_kop", "1/kop"),
    ("inflight_p99", "count"),
    ("feedback_fold_ns_p50", "ns"),
    ("feedback_fold_ns_p99", "ns"),
    ("issue_shortfall_frac", "frac"),
    ("live_spawn_s", "s"),
    ("permit_ns", "ns"),
    ("correlation_ns", "ns"),
    ("server_overhead_us_p50", "us"),
    ("server_overhead_us_p99", "us"),
    ("lifecycle_events", "count"),
    // c3-core
    ("select_ns", "ns"),
    ("on_response_ns", "ns"),
    // c3-net
    ("encode_ns", "ns"),
    ("decode_ns", "ns"),
    ("bytes_per_op", "B"),
    // c3-workload
    ("key_sample_ns", "ns"),
    // c3-live-node
    ("node_spawn_s", "s"),
    ("node_cpu_ms", "ms"),
    ("node_rss_mb_peak", "MiB"),
    // c3-engine
    ("sim_events", "count"),
    ("events_per_op", "count"),
    ("ns_per_event", "ns"),
    ("cancelled_frac", "frac"),
    ("churn_ns", "ns"),
    // c3-sim, c3-cluster (through c3-scenarios), c3-scenarios
    ("path_ops_s.sim", "ops/s"),
    ("path_ops_s.hetero-fleet", "ops/s"),
    ("path_ops_s.multi-tenant", "ops/s"),
    ("path_ops_s.mega-fleet", "ops/s"),
    ("path_p99_ms.sim", "ms"),
    ("path_p99_ms.hetero-fleet", "ms"),
    ("path_p99_ms.multi-tenant", "ms"),
    ("path_p99_ms.mega-fleet", "ms"),
    ("registry_build_ms", "ms"),
    // c3-metrics
    ("record_ns", "ns"),
    // c3-telemetry
    ("recorder_overhead_frac", "frac"),
    // the spans themselves
    ("spans", "count"),
    ("trace_overhead_frac", "frac"),
    ("self_ms.perfbench", "ms"),
    ("self_ms.c3-live", "ms"),
    ("self_ms.c3-live-node", "ms"),
    ("self_ms.c3-core", "ms"),
    ("self_ms.c3-net", "ms"),
    ("self_ms.c3-workload", "ms"),
    ("self_ms.c3-engine", "ms"),
    ("self_ms.c3-sim", "ms"),
    ("self_ms.c3-scenarios", "ms"),
    ("self_ms.c3-metrics", "ms"),
    ("self_ms.c3-telemetry", "ms"),
];

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Value {
    /// The figure.
    pub value: f64,
    /// Samples (or operations) it was computed from.
    pub samples: u64,
    /// Where it came from, and the base of a ratio.
    pub note: String,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, Value>,
    /// Operations attempted across the run.
    pub attempted: u64,
    /// Operations that failed (parked or unfinished).
    pub failed: u64,
    /// Correctness-check failures.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric. The name must be in the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`], [`PRINTED`] and
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64, note: impl Into<String>) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(
            name,
            Value {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Fold correctness failures in.
    pub fn fail(&mut self, failures: impl IntoIterator<Item = String>) {
        self.failures.extend(failures);
    }

    /// Human-readable lines: every recorded metric with unit, sample
    /// count and note.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            let unit = unit_of(name).unwrap_or("?");
            let _ = writeln!(
                out,
                "  {name:<26} {:>16.6} {unit:<6} n={:<9} {}",
                v.value, v.samples, v.note
            );
        }
        out
    }

    /// The result line for `catalogue`: `correct`, `attempted`, `failed`
    /// and every catalogue metric. Missing or non-finite metrics are
    /// correctness failures.
    pub fn result_json(&mut self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            match self.values.get(name) {
                Some(v) if v.value.is_finite() => {
                    metrics.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(v.value)
                    ));
                }
                Some(v) => self
                    .failures
                    .push(format!("metric {name} is not finite: {}", v.value)),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of a catalogue metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PRINTED)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A JSON number with every digit the f64 carries.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PRINTED).chain(PER_LAYER) {
            assert!(valid_name(name), "invalid metric name {name}");
            assert!(valid_unit(unit), "invalid unit {unit} of {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        assert!(!valid_name("-x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit("ms s"));
    }

    #[test]
    fn result_json_lists_every_catalogue_metric_with_its_unit() {
        let mut o = Outcome::default();
        for &(name, _) in END_TO_END {
            o.set(name, 1.25, 1, "");
        }
        o.attempted = 10;
        let line = o.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for &(name, unit) in END_TO_END {
            assert!(
                line.contains(&format!(
                    "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
                )),
                "{name} missing from {line}"
            );
        }
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.set("read_p50_ms", 1.0, 1, "");
        let line = o.result_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(o.failures.iter().any(|f| f.contains("read_p99_ms")));
    }
}

#[cfg(test)]
mod benchmark_json {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        let doc = benchmark_json();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut declared: Vec<(&str, &str)> = doc
                .get(key)
                .expect("metric list")
                .items()
                .iter()
                .map(|m| {
                    let better = m.get("better").and_then(Json::str);
                    assert!(
                        matches!(better, Some("higher" | "lower")),
                        "{key}: bad better in {m:?}"
                    );
                    let name = m.get("name").and_then(Json::str).expect("name");
                    let unit = m.get("unit").and_then(Json::str).expect("unit");
                    assert!(valid_name(name), "{key}: invalid name {name}");
                    assert!(valid_unit(unit), "{key}: invalid unit {unit}");
                    (name, unit)
                })
                .collect();
            let mut expected = catalogue.to_vec();
            declared.sort_unstable();
            expected.sort_unstable();
            assert_eq!(declared, expected, "{key} differs from the catalogue");
        }
        for m in doc.get("end_to_end").expect("end_to_end").items() {
            let Some(Json::Number(bound)) = m.get("bound") else {
                panic!("no bound in {m:?}");
            };
            assert!(
                *bound > 0.0 && *bound <= 0.25,
                "bound out of range in {m:?}"
            );
        }
        let setup = doc
            .get("end_to_end")
            .expect("end_to_end")
            .items()
            .iter()
            .find(|m| m.get("name").and_then(Json::str) == Some("setup_s"))
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.get("better").and_then(Json::str), Some("lower"));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::str).expect("workload name"))
            .collect();
        assert!(workloads.iter().all(|w| crate::WORKLOADS.contains(w)));
        assert!(workloads.iter().all(|w| valid_name(w)));
    }

    #[test]
    fn the_result_line_carries_every_declared_metric_with_its_unit() {
        let doc = benchmark_json();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut o = Outcome::default();
            for &(name, _) in catalogue {
                o.set(name, 0.5, 1, "");
            }
            o.attempted = 3;
            let line = Json::parse(&o.result_json(catalogue)).expect("result line parses");
            let Json::Object(top) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").expect("metrics");
            for m in doc.get(key).expect("metric list").items() {
                let name = m.get("name").and_then(Json::str).expect("name");
                let emitted = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} not emitted"));
                assert_eq!(emitted.get("unit"), m.get("unit"), "{name}: unit");
                assert_eq!(
                    emitted.get("value"),
                    Some(&Json::Number(0.5)),
                    "{name}: value"
                );
            }
        }
    }
}
