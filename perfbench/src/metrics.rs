//! The metric vocabulary: every name the benchmark emits, with its unit,
//! in a fixed order, and the result line's JSON rendering.

use crate::timed::HOOKS;
use asap_core::Asap;
use asap_metrics::MsgClass;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("search_bytes_per_query", "bytes/query"),
    ("load_bytes_per_node_s", "bytes/node/s"),
    ("response_ms_mean", "ms"),
];

/// A message class as a metric-name segment (`query-hit` → `query_hit`).
pub fn class_name(class: MsgClass) -> String {
    class.label().replace('-', "_")
}

/// Per-layer metrics, printed with `--trace 1`. Every workload emits every
/// name; a layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit| names.push((name, unit));
    for phase in [
        "topology.generate_s",
        "workload.generate_s",
        "overlay.build_s",
        "core.protocol_new_s",
        "sim.assemble_s",
        "net.assemble_s",
    ] {
        push(phase.to_string(), "s");
    }
    for kind in <Asap as crate::timed::Labeled>::MSG_KINDS {
        push(format!("core.on_message.{kind}.calls"), "count");
        push(format!("core.on_message.{kind}.self_ms"), "ms");
        push(format!("core.on_message.{kind}.p99_ns"), "ns");
    }
    for hook in HOOKS {
        push(format!("core.{hook}.self_ms"), "ms");
    }
    push("search.on_message.self_ms".to_string(), "ms");
    push("search.on_query.self_ms".to_string(), "ms");
    for class in MsgClass::ALL {
        push(format!("sim.send.calls.{}", class_name(class)), "count");
    }
    for backend in ["sim", "net"] {
        push(format!("{backend}.send.self_ms"), "ms");
        push(format!("{backend}.set_timer.self_ms"), "ms");
        push(format!("{backend}.dispatch.self_ms"), "ms");
    }
    push("sim.delivers".to_string(), "count");
    push("sim.timers_fired".to_string(), "count");
    push("sim.queue_hwm".to_string(), "count");
    push("core.repair_fetches".to_string(), "count");
    push("core.refresh_deliveries".to_string(), "count");
    push("core.local_hit_ratio".to_string(), "ratio");
    push("core.confirm_useful_ratio".to_string(), "ratio");
    for class in MsgClass::ALL {
        push(format!("bytes.{}", class_name(class)), "bytes");
    }
    push("trace.overhead_ratio".to_string(), "ratio");
    names
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values keyed by metric name.
pub type Values = BTreeMap<String, f64>;

/// Order `values` by the vocabulary `names` (missing entries read 0 when
/// `zero_fill`), rejecting any value outside the vocabulary or not finite.
pub fn ordered(
    names: &[(String, &'static str)],
    values: &Values,
    zero_fill: bool,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    if let Some(stray) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {stray} is not in the vocabulary"));
    }
    names
        .iter()
        .map(|(name, unit)| {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is not legal"));
            }
            let v = match values.get(name) {
                Some(&v) => v,
                None if zero_fill => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if v.is_finite() {
                Ok((name.clone(), *unit, v))
            } else {
                Err(format!("metric {name} is not a finite number ({v})"))
            }
        })
        .collect()
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> Vec<(String, &'static str)> {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect()
    }

    #[test]
    fn every_name_is_legal_unique_and_has_a_unit() {
        let names = all_names();
        for (name, unit) in &names {
            assert!(valid_name(name), "illegal metric name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit {unit:?} on {name}"
            );
        }
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_validation_rejects_bad_names() {
        assert!(valid_name("core.on_message.full.self_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    /// The vocabulary here and the metric lists in `BENCHMARK.json` are the
    /// same names with the same units, in the same order.
    #[test]
    fn vocabulary_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str, next: &str| -> Vec<(String, String)> {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = doc[start..]
                .find(&format!("\"{next}\""))
                .map_or(doc.len(), |e| start + e);
            doc[start..end]
                .split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').next().unwrap_or_default().to_string();
                    let unit = entry
                        .split("\"unit\": \"")
                        .nth(1)
                        .and_then(|u| u.split('"').next())
                        .unwrap_or_default()
                        .to_string();
                    (name, unit)
                })
                .collect()
        };
        let want = |names: Vec<(String, &str)>| -> Vec<(String, String)> {
            names.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end", "per_layer"),
            want(
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect()
            )
        );
        assert_eq!(listed("per_layer", "\u{0}"), want(per_layer()));
    }

    #[test]
    fn ordering_rejects_strays_gaps_and_non_finite_values() {
        let names = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let mut v = Values::new();
        v.insert("a".into(), 1.5);
        assert!(ordered(&names, &v, false).is_err());
        let filled = ordered(&names, &v, true).expect("zero fill");
        assert_eq!(filled[1], ("b".to_string(), "ms", 0.0));
        v.insert("c".into(), 1.0);
        assert!(ordered(&names, &v, true).is_err());
        v.remove("c");
        v.insert("b".into(), f64::NAN);
        assert!(ordered(&names, &v, true).is_err());
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[("run_s".to_string(), "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
