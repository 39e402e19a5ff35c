//! What a run reports: operation accounting, output checks, the metric
//! catalogue, and the result line the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Attempted and failed operations per kind (trials, grid cells, replay
/// simulations, federations, output checks, ...).
#[derive(Debug, Default)]
pub struct Ops {
    kinds: BTreeMap<&'static str, (u64, u64)>,
    /// Failure messages, in the order they happened.
    pub errors: Vec<String>,
}

impl Ops {
    /// Count `n` operations of `kind`, all failed when `error` is set.
    pub fn record(&mut self, kind: &'static str, n: u64, error: Option<String>) {
        let entry = self.kinds.entry(kind).or_insert((0, 0));
        entry.0 += n;
        if let Some(e) = error {
            entry.1 += n;
            self.errors.push(format!("{kind}: {e}"));
        }
    }

    /// Count one output check.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.record("checks", 1, outcome.err().map(|e| format!("{name}: {e}")));
    }

    /// Add every count and error of `other`.
    pub fn merge(&mut self, other: Ops) {
        for (kind, (attempted, failed)) in other.kinds {
            let entry = self.kinds.entry(kind).or_insert((0, 0));
            entry.0 += attempted;
            entry.1 += failed;
        }
        self.errors.extend(other.errors);
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|k| k.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|k| k.1).sum()
    }

    /// Whether every output check passed (and at least one ran).
    pub fn checks_passed(&self) -> bool {
        matches!(self.kinds.get("checks"), Some(&(n, 0)) if n > 0)
    }

    /// One line per kind: `kind attempted failed`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (kind, (attempted, failed)) in &self.kinds {
            let _ = writeln!(
                out,
                "  {kind:<14} attempted {attempted:>10}  failed {failed:>6}"
            );
        }
        for e in &self.errors {
            let _ = writeln!(out, "  FAILED {e}");
        }
        out
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_jobs_per_s", "1/s"),
];

/// The lineup the Table-4 grid evaluates at `top_k = 4`.
pub const GRID_LINEUP: [&str; 8] = ["FCFS", "WFP", "UNI", "SPT", "G1", "G2", "G3", "G4"];
/// Backfilling modes and policies of the archive replay.
pub const REPLAY_MODES: [&str; 3] = ["none", "easy", "conservative"];
pub const REPLAY_POLICIES: [&str; 4] = ["FCFS", "WFP", "SPT", "F1"];

/// Every per-layer metric of every workload, with its unit. A traced run
/// reports all of them; a layer its workload never calls reads 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut secs = |name: String| out.push((name, "s"));
    // paper_loop and train_paper_scale.
    for name in [
        "workload.table4_build_s",
        "core.tuples_s",
        "core.trials_s",
        "mlreg.fit_all_s",
        "mlreg.rank_s",
        "core.grid_s",
    ] {
        secs(name.to_string());
    }
    for row in 1..=18 {
        secs(format!("core.grid.row{row:02}_s"));
    }
    for policy in GRID_LINEUP {
        secs(format!("core.grid.policy.{policy}_s"));
    }
    for name in [
        "core.report_s",
        "core.trials_w1_s",
        "mlreg.fit_all_w1_s",
        "core.grid_w1_s",
    ] {
        secs(name.to_string());
    }
    // archive_replay.
    for name in [
        "workload.generate_s",
        "workload.swf_write_s",
        "workload.swf_read_s",
    ] {
        secs(name.to_string());
    }
    for mode in REPLAY_MODES {
        for policy in REPLAY_POLICIES {
            secs(format!("scheduler.sim.{mode}.{policy}_s"));
        }
    }
    secs("scheduler.federation_s".to_string());
    secs("scheduler.federation_faulty_s".to_string());
    let counts = [
        "core.trials",
        "core.grid_cells",
        "core.grid_jobs",
        "core.grid_backfilled_jobs",
        "mlreg.observations",
        "mlreg.converged_fits",
        "scheduler.events.none",
        "scheduler.events.easy",
        "scheduler.events.conservative",
        "scheduler.backfilled.easy",
        "scheduler.backfilled.conservative",
        "scheduler.preempted_jobs",
        "workload.swf_records",
    ];
    out.extend(counts.iter().map(|c| (c.to_string(), "count")));
    out
}

/// Fill the per-layer catalogue from measured span self-times (keyed by
/// span name, without the `_s` suffix) and counts; absent layers read 0.
pub fn per_layer_metrics(
    times: &BTreeMap<String, f64>,
    counts: &BTreeMap<&str, u64>,
) -> Vec<Metric> {
    per_layer_catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let value = if unit == "s" {
                let span = name.strip_suffix("_s").expect("time metrics end in _s");
                times.get(span).copied().unwrap_or(0.0)
            } else {
                counts.get(name.as_str()).copied().unwrap_or(0) as f64
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// The result line: one JSON object, standard syntax, values with every
/// digit Rust's shortest round-trip form gives.
pub fn result_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted(),
        ops.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A human-readable table of `metrics`, with each time's share of `total`.
pub fn render_table(metrics: &[Metric], total: f64) -> String {
    let mut out = String::new();
    for m in metrics {
        let share = if m.unit == "s" && total > 0.0 {
            format!("{:6.1}%", 100.0 * m.value / total)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:<38} {:>16.6} {:<6} {share}",
            m.name, m.value, m.unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let names: Vec<String> = per_layer_catalogue().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for n in &names {
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_is_plain_json() {
        let mut ops = Ops::default();
        ops.record("trials", 10, None);
        ops.check("x", Err("bad".into()));
        let line = result_line(
            false,
            &ops,
            &[Metric {
                name: "wall_s".into(),
                value: 1.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 11, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(!ops.checks_passed());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer_catalogue().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
    }
}
