//! Spans recorded around calls into the library's layers: name, start,
//! end and parent, kept in memory while the workload runs and written
//! once at the end (through `simkit::json` and `write_atomic`, outside
//! every timed section). Self time is a span's duration minus the time
//! its children cover.

use crate::measure::median;
use crate::report::{self, Metric, Ops};
use crate::Opts;
use dynsched_simkit::durable::write_atomic;
use dynsched_simkit::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: `span` just calls its closure, so
    /// one code path serves traced and untraced runs.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Record `f` as a span named `name`, nested in the innermost open
    /// span. Returns `f`'s result.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = std::hint::black_box(f(self));
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the duration of direct children, per span.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.end - s.start;
            }
        }
        out
    }

    /// Self time per span name within the subtree rooted at span `root`
    /// (the root included), summed over repeated names.
    pub fn self_times_under(&self, root: usize) -> BTreeMap<String, f64> {
        let selfs = self.self_times();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.is_under(i, root) {
                *out.entry(s.name.clone()).or_insert(0.0) += selfs[i];
            }
        }
        out
    }

    /// Whether span `i` is `root` or one of its descendants.
    fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Median self time per span name over the subtrees rooted at
    /// `roots`; a name absent under one root counts 0 there.
    pub fn median_self_times(&self, roots: &[usize]) -> BTreeMap<String, f64> {
        let per_root: Vec<BTreeMap<String, f64>> =
            roots.iter().map(|&r| self.self_times_under(r)).collect();
        let names: BTreeSet<&String> = per_root.iter().flat_map(|m| m.keys()).collect();
        names
            .into_iter()
            .map(|name| {
                let values: Vec<f64> = per_root
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name.clone(), median(&values))
            })
            .collect()
    }

    /// Median duration of the spans `roots`.
    pub fn median_duration(&self, roots: &[usize]) -> f64 {
        let d: Vec<f64> = roots
            .iter()
            .map(|&r| self.spans[r].end - self.spans[r].start)
            .collect();
        median(&d)
    }

    /// The traced repetitions rooted at `roots` explain the untraced run:
    /// the layer spans (every span below the root) cover at least 95% of
    /// each root, and the traced median lies within half of the untraced
    /// median wall time either way. The difference is the tracing
    /// overhead plus host noise, which on a shared machine reaches tens of
    /// percent between moments, so only a gross mismatch — a stage left
    /// out or run twice — fails.
    pub fn check_against_untraced(
        &self,
        roots: &[usize],
        untraced_wall: f64,
    ) -> Result<(), String> {
        let selfs = self.self_times();
        for &r in roots {
            let total = self.spans[r].end - self.spans[r].start;
            let covered = total - selfs[r];
            if covered < 0.95 * total {
                return Err(format!(
                    "layer spans cover {covered:.4} s of a {total:.4} s repetition"
                ));
            }
        }
        let traced = self.median_duration(roots);
        if (traced - untraced_wall).abs() > 0.5 * untraced_wall {
            return Err(format!(
                "traced repetition {traced:.4} s vs untraced {untraced_wall:.4} s"
            ));
        }
        Ok(())
    }

    /// Write every span as a JSON array, atomically.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let items = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, own)| {
                Json::Object(vec![
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("start".to_string(), Json::F64(s.start)),
                    ("end".to_string(), Json::F64(s.end)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
                    ),
                    ("self".to_string(), Json::F64(own)),
                ])
            })
            .collect();
        write_atomic(path, Json::Array(items).to_text())
    }
}

/// The shared tail of every traced run: the per-layer metrics (median
/// self-times over the pipeline repetitions, plus `extra` self-times
/// measured apart from them), the consistency check against the untraced
/// run, the overhead line, the layer table and the span file.
pub fn finish(
    opts: &Opts,
    ops: &mut Ops,
    tr: &Tracer,
    pipeline: &[usize],
    extra: BTreeMap<String, f64>,
    untraced_wall: f64,
    counts: &BTreeMap<&str, u64>,
) -> Vec<Metric> {
    let mut times = tr.median_self_times(pipeline);
    times.extend(extra);
    ops.check(
        "span self-times explain the untraced wall time",
        tr.check_against_untraced(pipeline, untraced_wall),
    );
    let traced_wall = tr.median_duration(pipeline);
    println!(
        "tracing overhead: traced wall {traced_wall:.4} s - untraced wall {untraced_wall:.4} s = {:+.4} s",
        traced_wall - untraced_wall
    );
    let metrics = report::per_layer_metrics(&times, counts);
    println!(
        "per layer (span self-times, median of {} traced repetitions; share of the traced wall):\n{}",
        pipeline.len(),
        report::render_table(&metrics, traced_wall)
    );
    let path = opts
        .out_dir
        .join(format!("spans-{}-seed{}.json", opts.workload, opts.seed));
    if let Err(e) = tr.write(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("a", |_| ());
        });
        let selfs = t.self_times();
        let root = &t.spans()[0];
        let total: f64 = selfs.iter().sum();
        assert!((total - (root.end - root.start)).abs() < 1e-12);
        let by_name = t.self_times_under(0);
        assert_eq!(by_name.len(), 3);
        assert!(by_name["b"] >= 0.002);
        assert_eq!(t.spans()[2].parent, Some(1));
    }
}
