//! What one workload run reports, and the metric tables `BENCHMARK.json`
//! names.

use std::collections::BTreeMap;

use lookaside::farm::FarmTopology;

use crate::stats::{median, percentile};

/// End-to-end metrics this binary measures, with units. `peak_rss_mb` is
/// the fifth: `run.py` takes it from the process's resource usage.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_us", "us"), ("latency_p99_us", "us")];

/// Per-layer metrics of a traced run, with units. A workload that does not
/// exercise a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut table: Vec<(String, &'static str)> = [
        ("resolver.resolve_ns", "ns"),
        ("resolver.self_ns", "ns"),
        ("resolver.no_exchange_share", "share"),
        ("resolver.dlv_queries_per_resolution", "count"),
        ("resolver.dlv_suppressed_share", "share"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for class in crate::trace::SERVER_CLASSES {
        table.push((format!("server.{class}.exchange_ns"), "ns"));
        table.push((format!("server.{class}.exchanges"), "count"));
    }
    for (name, unit) in [
        ("server.busy_ns", "ns"),
        ("server.busy_share", "share"),
        ("netsim.exchanges_per_resolution", "count"),
        ("netsim.bytes_per_resolution", "bytes"),
    ] {
        table.push((name.to_string(), unit));
    }
    for (kernel, unit) in crate::kernels::KERNELS {
        let (stem, suffix) = kernel.rsplit_once('_').expect("kernel names end in a unit");
        table.push((kernel.to_string(), unit));
        table.push((format!("{stem}_mad_{suffix}"), unit));
    }
    for topology in FarmTopology::ALL {
        table.push((format!("farm.{}_s", topology.label()), "s"));
    }
    table.push(("engine.busy_s".to_string(), "s"));
    table.push(("engine.parallel_efficiency".to_string(), "share"));
    for exp in crate::repro::EXPERIMENTS {
        table.push((format!("repro.{exp}_s"), "s"));
    }
    for (name, unit) in [
        ("engine.speedup", "ratio"),
        ("bench.loop_ns", "ns"),
        ("bench.unattributed_ns", "ns"),
        ("trace.overhead_share", "share"),
    ] {
        table.push((name.to_string(), unit));
    }
    table
}

/// Failure descriptions kept for the log; the count is kept in full.
const MAX_PROBLEMS: usize = 20;

/// One workload run: how many checked operations it attempted, how many
/// failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations: resolutions, sweeps, experiments, digests.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// The first failures, described.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Provenance and digests, for the result file.
    pub details: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Counts one checked operation; `problem` describes it if it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(problem);
            }
        }
    }

    /// Checks that `got` equals the digest `label` already holds, or
    /// records it when this is the first one.
    pub fn check_digest(&mut self, label: &'static str, got: String) {
        match self.details.get(label) {
            Some(want) if *want != got => {
                let problem =
                    format!("{label} digest {got} differs from {want} earlier in the run");
                self.check(Some(problem));
            }
            Some(_) => self.check(None),
            None => {
                self.details.insert(label, got);
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Whether every checked operation was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: end-to-end metrics, or with `trace` every per-layer
    /// metric.
    pub fn result_json(&self, trace: bool) -> String {
        let table: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The details line: provenance and digests.
    pub fn details_json(&self) -> String {
        let fields: Vec<String> =
            self.details.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        format!("{{\"details\": {{{}}}}}", fields.join(", "))
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", u32::from(c)).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of the smallest tenth (rounded up) of `values`: for times, the
/// median of the fastest tenth. Set-ups and traced repetitions are timed
/// this way; see [`report_fastest`] for why.
pub fn quiet(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len().div_ceil(10));
    median(&sorted)
}

/// Sets the end-to-end metrics from the set-up times and each operation's
/// fastest time over the run: `setup_s` is the [`quiet`] set-up time,
/// `ops_per_s` the operations over their summed fastest time, and the
/// latencies the median and 99th percentile of the fastest times.
///
/// On a host shared with other tenants, stretches of a run from a fraction
/// of a second to most of it are slowed by up to three quarters, and how
/// much of a run is slowed varies from run to run. A run repeats every
/// operation on the same inputs, so the slower runs of an operation measure
/// that contention rather than the program; a change that slows the
/// program slows every run, the fastest included.
pub fn report_fastest(outcome: &mut Outcome, setups_s: &[f64], fastest_ns: &mut [u64]) {
    fastest_ns.sort_unstable();
    let total_s = fastest_ns.iter().sum::<u64>() as f64 / 1e9;
    outcome.set("setup_s", quiet(setups_s));
    outcome.set("ops_per_s", ratio(fastest_ns.len() as f64, total_s));
    outcome.set("latency_p50_us", percentile(fastest_ns, 0.50) as f64 / 1e3);
    outcome.set("latency_p99_us", percentile(fastest_ns, 0.99) as f64 / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let mut names: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        names.push(("peak_rss_mb".to_string(), "MB"));
        names.extend(per_layer());
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\":").count(), END_TO_END.len() + 1 + per_layer().len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.check(None);
        outcome.check(Some("wrong".into()));
        outcome.set("setup_s", 0.25);
        let line = outcome.result_json(false);
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"latency_p99_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(outcome.result_json(true).contains("\"trace.overhead_share\""));
    }

    #[test]
    fn metrics_come_from_the_fastest_times() {
        assert_eq!(quiet(&[9.0, 1.0, 2.0, 3.0, 8.0]), 1.0);
        assert_eq!(quiet(&(1..=20).rev().map(f64::from).collect::<Vec<_>>()), 1.5);
        assert_eq!(quiet(&[4.0]), 4.0);
        let mut outcome = Outcome::default();
        let mut fastest_ns: Vec<u64> = (1..=100).rev().map(|i| i * 1_000).collect();
        report_fastest(&mut outcome, &[9.0, 1.0, 2.0, 3.0], &mut fastest_ns);
        assert_eq!(outcome.metrics["setup_s"], 1.0);
        assert!((outcome.metrics["ops_per_s"] - 100.0 / 5.05e-3).abs() < 1e-6);
        assert_eq!(outcome.metrics["latency_p50_us"], 50.0);
        assert_eq!(outcome.metrics["latency_p99_us"], 99.0);
    }

    #[test]
    fn digests_must_repeat() {
        let mut outcome = Outcome::default();
        outcome.check_digest("x", "aa".into());
        outcome.check_digest("x", "aa".into());
        assert!(outcome.correct());
        outcome.check_digest("x", "bb".into());
        assert!(!outcome.correct());
    }

    #[test]
    fn details_are_escaped() {
        let mut outcome = Outcome::default();
        outcome.details.insert("note", "a \"b\"\n".into());
        assert_eq!(outcome.details_json(), "{\"details\": {\"note\": \"a \\\"b\\\"\\u000a\"}}");
    }
}
