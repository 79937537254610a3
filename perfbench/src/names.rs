//! The documented metric list, and the collector that refuses to emit a
//! name off that list or to finish with a listed name missing.

use crate::workload::{all_run_names, BackendKind};

/// Unit of a virtual-time quantity: seconds of the modelled 1997
/// cluster, deterministic for a given program and configuration.
pub const VIRT_S: &str = "virt_s";

/// End-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u))
        .collect()
}

/// Per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| m.push((n.to_string(), u));
    add("host.nproc", "count");
    add("host.steal_ticks", "ticks");
    add("apps.build_s", "s");
    add("reference.run_s", "s");
    add("analysis.analyze_s", "s");
    for (app, backend) in all_run_names() {
        add(&format!("run_s.{app}.{backend}"), "s");
    }
    for b in BackendKind::ALL {
        add(&format!("exec.inner_s.{}", b.name()), "s");
    }
    for b in BackendKind::ALL {
        add(&format!("verify.post_run_s.{}", b.name()), "s");
    }
    for (what, unit) in [
        ("msgs", "count"),
        ("bytes", "bytes"),
        ("misses", "count"),
        ("ctl_calls", "count"),
    ] {
        for b in BackendKind::ALL {
            add(&format!("protocol.{what}.{}", b.name()), unit);
        }
    }
    add("virtual_s", VIRT_S);
    add("virtual.compute_s", VIRT_S);
    add("virtual.comm_s", VIRT_S);
    add("error_rate", "ratio");
    add("wire.frames", "count");
    add("wire.payload_bytes", "bytes");
    add("wire.route_s", "s");
    add("wire.route_share", "ratio");
    add("wire.route_gap_s", "s");
    add("wire.batches", "count");
    add("wire.frames_per_batch", "count");
    add("wire.batch_us.p50", "us");
    add("wire.batch_us.p99", "us");
    add("wire.batch_samples", "count");
    add("wire.alpha_us", "us");
    add("wire.beta_ns_per_byte", "ns/B");
    add("wire.encode_s", "s");
    add("wire.decode_s", "s");
    add("wire.apply_s", "s");
    add("wire.node_apply_s", "s");
    add("net.spawn_s", "s");
    add("harness.other_s", "s");
    add("trace.wall_s", "s");
    add("trace.overhead_s", "s");
    m
}

/// Whether `name` is made only of `[A-Za-z0-9_.-]`, at most 64 long,
/// and starts with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values keyed by documented name, in documented order.
pub struct Emitter {
    list: Vec<(String, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Emitter {
    pub fn new(list: Vec<(String, &'static str)>) -> Self {
        for (n, _) in &list {
            assert!(valid_name(n), "metric name {n:?} is not [A-Za-z0-9_.-]+");
        }
        let values = vec![None; list.len()];
        Emitter { list, values }
    }

    /// Record `name`; panics on a name off the list or recorded twice.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .list
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not on the documented list"));
        assert!(self.values[i].is_none(), "metric `{name}` set twice");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values[i] = Some(value);
    }

    /// `(name, value, unit)` for every listed metric; panics if any is
    /// missing.
    pub fn finish(self) -> Vec<(String, f64, &'static str)> {
        self.list
            .into_iter()
            .zip(self.values)
            .map(|((n, u), v)| {
                let v = v.unwrap_or_else(|| panic!("metric `{n}` was never set"));
                (n, v, u)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(list: &[(String, &'static str)]) -> Vec<String> {
        list.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Every `"name": "<x>"` value in a JSON section of BENCHMARK.json.
    fn json_names(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("unterminated list")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (n, u) in end_to_end().iter().chain(per_layer().iter()) {
            assert!(valid_name(n), "bad metric name {n:?}");
            assert!(!u.is_empty() && u.len() <= 16, "bad unit {u:?} for {n}");
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
        }
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("wire batches") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(json_names(&json, "end_to_end"), names(&end_to_end()));
        assert_eq!(json_names(&json, "per_layer"), names(&per_layer()));
    }

    #[test]
    fn every_metric_is_documented_with_its_unit() {
        let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("perfbench/README.md");
        for (n, u) in end_to_end().iter().chain(per_layer().iter()) {
            let row = format!("| `{n}` | {u} |");
            assert!(doc.contains(&row), "README.md lacks the row {row:?}");
        }
    }

    #[test]
    fn emitter_refuses_unlisted_and_missing_names() {
        let list = vec![("a".to_string(), "s"), ("b".to_string(), "s")];
        let mut e = Emitter::new(list.clone());
        e.set("a", 1.0);
        e.set("b", 2.0);
        assert_eq!(e.finish().len(), 2);
        let unlisted = std::panic::catch_unwind(|| Emitter::new(list.clone()).set("c", 0.0));
        assert!(unlisted.is_err());
        let missing = std::panic::catch_unwind(|| {
            let mut e = Emitter::new(list.clone());
            e.set("a", 1.0);
            e.finish()
        });
        assert!(missing.is_err());
    }
}
