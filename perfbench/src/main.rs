//! `perfbench`: the end-to-end and per-layer benchmark of the dynsched
//! paper loop. Every number comes from calling the library crates'
//! public functions; the library itself is not instrumented.
//!
//! ```text
//! perfbench --workload <paper_loop|train_paper_scale|archive_replay>
//!           --seed <n> --seconds <s> --trace <0|1> [--paper-scale]
//! perfbench selftest
//! ```
//!
//! A run builds its inputs (timed as `setup_s`), runs the workload once
//! as a warm-up and then repeatedly for `--seconds`, checks the outputs,
//! and ends its standard output with one JSON line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A run whose outputs fail a check exits with status 1 after that line.
//! See `README.md` in this directory.

mod archive;
mod checks;
mod measure;
mod paper_loop;
mod report;
mod selftest;
mod spans;
mod train;

use report::{Metric, Ops};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

/// Widest pool any run uses; capped at the host's CPUs.
const MAX_WIDTH: usize = 2;

/// What a workload run is asked to do.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `paper_loop` only: the paper's 256k trials per tuple.
    pub paper_scale: bool,
    /// Where span files and the replayed SWF trace go.
    pub out_dir: PathBuf,
    /// Pool width every fan-out of the run is capped at.
    pub width: usize,
}

/// What a workload run reports.
pub struct Outcome {
    pub ops: Ops,
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of a traced run.
    pub per_layer: Option<Vec<Metric>>,
}

/// Run `f`, turning a panic into an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with a non-string payload".to_string())
    })
}

/// The five end-to-end metrics of a run: medians over the timed
/// repetitions (listed on standard output too), the set-up time, and the
/// peak resident set after the warm-up.
pub fn end_to_end<R>(run: &measure::Repeated<R>, setup_s: f64, jobs_per_rep: u64) -> Vec<Metric> {
    let walls: Vec<String> = run
        .samples
        .iter()
        .map(|s| format!("{:.4}", s.wall))
        .collect();
    println!("timed repetitions (wall s): {}", walls.join(" "));
    let timed = measure::medians(&run.samples);
    let values = [
        timed.wall,
        setup_s,
        timed.cpu,
        run.peak_rss_mb,
        jobs_per_rep as f64 / timed.wall,
    ];
    report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect()
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut paper_scale = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--paper-scale" => paper_scale = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if paper_scale && workload != "paper_loop" {
        return Err("--paper-scale applies to paper_loop only".to_string());
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        paper_scale,
        out_dir: PathBuf::from(".perfbench"),
        width: MAX_WIDTH.min(host),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("selftest") {
        return if selftest::report() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let opts = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Opts) -> Outcome = match opts.workload.as_str() {
        "paper_loop" => paper_loop::run,
        "train_paper_scale" => train::run,
        "archive_replay" => archive::run,
        other => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "workload {}, seed {}, {} s per run, pool width {} (host cpus {}), trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.width,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        u8::from(opts.trace)
    );
    let outcome = dynsched_simkit::parallel::with_worker_limit(opts.width, || run(&opts));
    println!("operations:\n{}", outcome.ops.render());
    println!(
        "end to end (median of timed repetitions):\n{}",
        report::render_table(&outcome.end_to_end, 0.0)
    );
    let correct = outcome.ops.checks_passed();
    let metrics = match &outcome.per_layer {
        Some(layers) => layers.as_slice(),
        None => outcome.end_to_end.as_slice(),
    };
    println!("{}", report::result_line(correct, &outcome.ops, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
