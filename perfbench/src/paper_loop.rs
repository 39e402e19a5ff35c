//! `paper_loop`: `run_full` plus `full_run_markdown` at the `dynsched run`
//! defaults — 12 tuples × 8 000 trials on 256 cores, top 4 kept, then
//! the paper's protocol of ten 15-day sequences over all 18 Table-4 rows
//! (1 440 grid cells). Most of it is the grid.

use crate::measure::{self, repeat};
use crate::report::{Metric, Ops, GRID_LINEUP};
use crate::spans::{self, Tracer};
use crate::train::{check_learned, draw_tuples, pooled_trials};
use crate::{checks, end_to_end, guarded, Opts, Outcome};
use dynsched_cluster::{Platform, DEFAULT_TAU};
use dynsched_core::{
    full_run_markdown, run_full, table4_experiments_in, try_run_experiments, Experiment,
    ExperimentResult, FullRunConfig, FullRunReport, LearnedReport, ScenarioScale, TrainingConfig,
    TrialSpec, TupleSpec,
};
use dynsched_mlreg::{fit_all, top_policies, EnumerateOptions};
use dynsched_policies::{baseline_lineup, Policy};
use dynsched_scheduler::BackfillMode;
use dynsched_simkit::parallel::{with_worker_limit, PoolError};
use dynsched_workload::{LublinModel, TraceStore};
use std::collections::BTreeMap;

const TUPLES: usize = 12;
const TRIALS: usize = 8_000;
const CORES: u32 = 256;
const TOP_K: usize = 4;

fn config(seed: u64, trials: usize) -> FullRunConfig {
    FullRunConfig {
        training: TrainingConfig {
            tuple_spec: TupleSpec::default(),
            trial_spec: TrialSpec {
                trials,
                platform: Platform::new(CORES),
                tau: DEFAULT_TAU,
            },
            tuples: TUPLES,
            seed,
        },
        enumerate: EnumerateOptions::default(),
        top_k: TOP_K,
        eval_scale: ScenarioScale::default(),
    }
}

/// The evaluation lineup `run_full` builds: the four baselines, then
/// the learned `G1..Gk`.
fn lineup(learned: &LearnedReport) -> Vec<Box<dyn Policy>> {
    let mut lineup = baseline_lineup();
    for p in &learned.policies {
        lineup.push(Box::new(p.clone()));
    }
    lineup
}

/// Work per repetition, from the set-up's experiments.
struct Size {
    trials: u64,
    cells: u64,
    grid_jobs: u64,
    jobs: u64,
}

impl Size {
    fn of(config: &FullRunConfig, experiments: &[Experiment]) -> Self {
        let policies = GRID_LINEUP.len() as u64;
        let sequences: u64 = experiments.iter().map(|e| e.sequences.len() as u64).sum();
        let seq_jobs: u64 = experiments
            .iter()
            .flat_map(|e| &e.sequences)
            .map(|s| s.len() as u64)
            .sum();
        let training = config.training;
        let trials = (training.tuples * training.trial_spec.trials) as u64;
        let per_trial = (training.tuple_spec.s_size + training.tuple_spec.q_size) as u64;
        Self {
            trials,
            cells: sequences * policies,
            grid_jobs: seq_jobs * policies,
            jobs: trials * per_trial + seq_jobs * policies,
        }
    }

    fn record(&self, ops: &mut Ops, error: Option<String>) {
        ops.record("trials", self.trials, error.clone());
        ops.record("fits", 576, error.clone());
        ops.record("grid_cells", self.cells, error.clone());
        ops.record("reports", 1, error);
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let trials = if opts.paper_scale {
        TrialSpec::paper().trials
    } else {
        TRIALS
    };
    let config = config(opts.seed, trials);
    let model = LublinModel::new(CORES);
    let mut ops = Ops::default();

    // Set-up: intern the six Table-4 workloads into a fresh store; timed
    // again before every repetition.
    let build = || table4_experiments_in(&TraceStore::new(), &config.eval_scale);
    let experiments = build();
    let size = Size::of(&config, &experiments);

    let run = repeat(
        opts.seconds,
        || drop(std::hint::black_box(build())),
        |i| {
            guarded(|| {
                let report = run_full(&config, &model);
                let markdown = full_run_markdown(&report);
                (markdown, (i == 0).then_some(report))
            })
        },
    );
    let reps = &run.outputs;
    for rep in reps {
        size.record(&mut ops, rep.as_ref().err().cloned());
    }
    let first = reps[0].as_ref().ok();
    match first.and_then(|(_, r)| r.as_ref()) {
        Some(report) => check_report(&mut ops, report, &config, &experiments),
        None => ops.check("warm-up run_full", Err("did not complete".to_string())),
    }
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let same = matches!((rep, first), (Ok((m, _)), Some((m0, _))) if m == m0);
        ops.check(
            "repetition report identical to the warm-up",
            if same {
                Ok(())
            } else {
                Err(format!("repetition {i} differs"))
            },
        );
    }
    let per_layer = opts.trace.then(|| {
        let warm_up = first.and_then(|(_, r)| r.as_ref());
        traced(
            opts,
            &mut ops,
            &config,
            &model,
            &size,
            warm_up,
            measure::medians(&run.samples).wall,
        )
    });
    Outcome {
        ops,
        end_to_end: end_to_end(&run, run.setup_s, size.jobs),
        per_layer,
    }
}

/// The training and grid checks of one `run_full` report.
fn check_report(
    ops: &mut Ops,
    report: &FullRunReport,
    config: &FullRunConfig,
    experiments: &[Experiment],
) {
    check_learned(ops, &report.learned, &config.enumerate, config.top_k);
    let names_match = report.lineup == GRID_LINEUP
        && report.evaluation.len() == experiments.len()
        && report
            .evaluation
            .iter()
            .zip(experiments)
            .all(|(r, e)| r.name == e.name);
    ops.check(
        "18 rows under FCFS WFP UNI SPT G1..G4",
        if names_match {
            Ok(())
        } else {
            Err(format!("lineup {:?}", report.lineup))
        },
    );
    ops.check(
        "every AVEbsld >= 1",
        checks::avebsld_at_least_one(&report.evaluation),
    );
    if !names_match {
        return;
    }
    // Sequence 0 of every row under every lineup policy, re-simulated by
    // the reference engine. Rows under EASY backfilling are left out: the
    // reference orders tied release times by hash-map iteration, so its
    // EASY schedules change from process to process (see CHANGES.md).
    let lineup = lineup(&report.learned);
    for (row, experiment) in report.evaluation.iter().zip(experiments) {
        if experiment.scheduler.backfill == BackfillMode::Aggressive {
            continue;
        }
        for (outcome, policy) in row.outcomes.iter().zip(&lineup) {
            ops.check(
                "grid cell == reference_metrics",
                checks::grid_cell(experiment, policy.as_ref(), outcome.ave_bslds[0]),
            );
        }
    }
}

/// What one traced replay of `run_full` hands the split passes.
struct Traced {
    report: FullRunReport,
    experiments: Vec<Experiment>,
}

/// `run_full` replayed stage by stage through the public functions it
/// calls, each in a span.
fn traced_pipeline(
    tr: &mut Tracer,
    config: &FullRunConfig,
    model: &LublinModel,
) -> Result<Traced, String> {
    tr.span("paper_loop", |tr| {
        let training = &config.training;
        let tuples = tr.span("core.tuples", |_| draw_tuples(training, model));
        let training_set = tr.span("core.trials", |_| {
            guarded(|| pooled_trials(training, &tuples))
        })?;
        let fits = tr.span("mlreg.fit_all", |_| {
            guarded(|| fit_all(&training_set, &config.enumerate))
        })?;
        let policies = tr.span("mlreg.rank", |_| top_policies(&fits, config.top_k));
        let learned = LearnedReport {
            tuples,
            training_set,
            fits,
            policies,
        };
        let lineup = lineup(&learned);
        let experiments = tr.span("workload.table4_build", |_| {
            table4_experiments_in(&TraceStore::new(), &config.eval_scale)
        });
        let evaluation = tr
            .span("core.grid", |_| try_run_experiments(&experiments, &lineup))
            .map_err(|e| e.to_string())?;
        let report = FullRunReport {
            learned,
            lineup: lineup.iter().map(|p| p.name().to_string()).collect(),
            evaluation,
        };
        tr.span("core.report", |_| full_run_markdown(&report));
        Ok(Traced {
            report,
            experiments,
        })
    })
}

/// The traced run: three traced replays of `run_full`, then one split
/// pass — every row alone, every policy alone, and the trial, fit and
/// grid stages at pool width 1 — each checked against the replay.
fn traced(
    opts: &Opts,
    ops: &mut Ops,
    config: &FullRunConfig,
    model: &LublinModel,
    size: &Size,
    warm_up: Option<&FullRunReport>,
    untraced_wall: f64,
) -> Vec<Metric> {
    let mut tr = Tracer::new();
    let mut roots = Vec::new();
    let mut last = None;
    for _ in 0..measure::MIN_REPS {
        roots.push(tr.spans().len());
        let out = traced_pipeline(&mut tr, config, model);
        size.record(ops, out.as_ref().err().cloned());
        last = out.ok();
    }
    let Some(t) = last else {
        ops.check("traced run_full", Err("did not complete".to_string()));
        return spans::finish(
            opts,
            ops,
            &tr,
            &roots,
            BTreeMap::new(),
            untraced_wall,
            &BTreeMap::new(),
        );
    };
    // The stages reproduce `run_full`: the same pooled set, fit table
    // and grid, bit for bit.
    let learned = &t.report.learned;
    ops.check(
        "traced stages == run_full",
        match warm_up {
            Some(w) => checks::same(&learned.training_set, &w.learned.training_set)
                .and_then(|()| checks::fit_table(&learned.fits, &w.learned.fits))
                .and_then(|()| checks::same(&t.report.evaluation, &w.evaluation)),
            None => Err("run_full did not complete".to_string()),
        },
    );
    let split = tr.spans().len();
    tr.span("split", |tr| split_passes(tr, ops, config, &t, size));

    let evaluation = &t.report.evaluation;
    let backfilled: u64 = evaluation
        .iter()
        .flat_map(|row| &row.outcomes)
        .map(|o| (o.mean_backfilled * o.ave_bslds.len() as f64).round() as u64)
        .sum();
    let counts = BTreeMap::from([
        ("core.trials", size.trials),
        ("core.grid_cells", size.cells),
        ("core.grid_jobs", size.grid_jobs),
        ("core.grid_backfilled_jobs", backfilled),
        (
            "mlreg.observations",
            t.report.learned.training_set.len() as u64,
        ),
        (
            "mlreg.converged_fits",
            t.report.learned.fits.iter().filter(|f| f.converged).count() as u64,
        ),
    ]);
    spans::finish(
        opts,
        ops,
        &tr,
        &roots,
        tr.self_times_under(split),
        untraced_wall,
        &counts,
    )
}

/// Count a grid pass and check its results with `expect`.
fn grid_pass(
    ops: &mut Ops,
    what: &str,
    cells: u64,
    result: Result<Vec<ExperimentResult>, PoolError>,
    expect: impl Fn(&[ExperimentResult]) -> bool,
) {
    let result = result.map_err(|e| e.to_string());
    ops.record("grid_cells", cells, result.as_ref().err().cloned());
    ops.check(
        what,
        result.and_then(|r| {
            if expect(&r) {
                Ok(())
            } else {
                Err("differs from the full grid".to_string())
            }
        }),
    );
}

fn split_passes(tr: &mut Tracer, ops: &mut Ops, config: &FullRunConfig, t: &Traced, size: &Size) {
    let lineup = lineup(&t.report.learned);
    let evaluation = &t.report.evaluation;
    for (i, experiment) in t.experiments.iter().enumerate() {
        let result = tr.span(&format!("core.grid.row{:02}", i + 1), |_| {
            try_run_experiments(std::slice::from_ref(experiment), &lineup)
        });
        let cells = (experiment.sequences.len() * lineup.len()) as u64;
        grid_pass(ops, "row alone == its grid row", cells, result, |r| {
            r == &evaluation[i..=i]
        });
    }
    for (p, policy) in lineup.iter().enumerate() {
        let result = tr.span(&format!("core.grid.policy.{}", policy.name()), |_| {
            try_run_experiments(&t.experiments, &lineup[p..=p])
        });
        let cells = size.cells / lineup.len() as u64;
        grid_pass(ops, "policy alone == its grid column", cells, result, |r| {
            r.iter()
                .zip(evaluation)
                .all(|(a, b)| a.outcomes[..] == b.outcomes[p..=p])
        });
    }
    with_worker_limit(1, || {
        let learned = &t.report.learned;
        let training = tr.span("core.trials_w1", |_| {
            guarded(|| pooled_trials(&config.training, &learned.tuples))
        });
        ops.record("trials", size.trials, training.as_ref().err().cloned());
        ops.check(
            "trials at width 1 == full width",
            training.and_then(|ts| checks::same(&ts, &learned.training_set)),
        );
        let fits = tr.span("mlreg.fit_all_w1", |_| {
            guarded(|| fit_all(&learned.training_set, &config.enumerate))
        });
        ops.record("fits", 576, fits.as_ref().err().cloned());
        ops.check(
            "fits at width 1 == full width",
            fits.and_then(|f| checks::same(&f, &learned.fits)),
        );
        let grid = tr.span("core.grid_w1", |_| {
            try_run_experiments(&t.experiments, &lineup)
        });
        grid_pass(
            ops,
            "grid at width 1 == full width",
            size.cells,
            grid,
            |r| r == &evaluation[..],
        );
    });
}
