//! `train_paper_scale`: `learn_policies` at the paper's 256 000 trials
//! per tuple on 256 cores, |S| = 16, |Q| = 32. Nearly all of it is the
//! checkpoint-and-fork trial kernel, the pool and the 576 fits; no grid,
//! no compiled policy, no trace store.
//!
//! The training seed is fixed, the same every run, because a tuple's
//! trial cost depends on its job mix and four tuples drawn per seed swing
//! a run's time by a factor of two. `--seed` is unused here.

use crate::measure::{self, repeat};
use crate::report::Ops;
use crate::spans::{self, Tracer};
use crate::{checks, end_to_end, guarded, Opts, Outcome};
use dynsched_cluster::Platform;
use dynsched_core::{
    learn_policies, to_observations, trial_scores_batched, LearnedReport, TaskTuple,
    TrainingConfig, TrialBatch, TrialSpec, TupleSpec,
};
use dynsched_mlreg::{fit_all, fit_all_reference, top_policies, EnumerateOptions, TrainingSet};
use dynsched_simkit::parallel::with_worker_limit;
use dynsched_simkit::Rng;
use dynsched_workload::LublinModel;
use std::collections::BTreeMap;

/// Tuples per repetition: 4 × 256k trials is about 2 s at two workers.
const TUPLES: usize = 4;
/// The training seed: the `dynsched` CLI's default seed.
const SEED: u64 = 0x5C17;
const CORES: u32 = 256;
const TOP_K: usize = 4;
/// Tuple draws per set-up sample; one draw of four tuples takes tens of
/// microseconds, so a sample of this many is steady.
const SETUP_DRAWS: usize = 2_000;

fn config() -> TrainingConfig {
    TrainingConfig {
        tuple_spec: TupleSpec::default(),
        trial_spec: TrialSpec {
            platform: Platform::new(CORES),
            ..TrialSpec::paper()
        },
        tuples: TUPLES,
        seed: SEED,
    }
}

/// Draw the tuples exactly as `generate_training_set` does: tuple `i`
/// from stream `2i` of the master seed.
pub fn draw_tuples(config: &TrainingConfig, model: &LublinModel) -> Vec<TaskTuple> {
    let master = Rng::new(config.seed);
    (0..config.tuples)
        .map(|i| TaskTuple::generate(&config.tuple_spec, model, &mut master.fork(2 * i as u64)))
        .collect()
}

/// Run every tuple's trials as one batched fan-out and pool the
/// observations, exactly as `generate_training_set` does (trials of
/// tuple `i` from stream `2i + 1`).
pub fn pooled_trials(config: &TrainingConfig, tuples: &[TaskTuple]) -> TrainingSet {
    let master = Rng::new(config.seed);
    let batches: Vec<TrialBatch<'_>> = tuples
        .iter()
        .enumerate()
        .map(|(i, tuple)| TrialBatch {
            tuple,
            trials: config.trial_spec.trials,
            master: master.fork(2 * i as u64 + 1),
        })
        .collect();
    let scores = trial_scores_batched(&batches, config.trial_spec.platform, config.trial_spec.tau);
    let mut pooled = TrainingSet::default();
    for (tuple, scores) in tuples.iter().zip(&scores) {
        pooled.extend_from(&to_observations(tuple, scores));
    }
    pooled
}

/// The training checks shared with `paper_loop`: Eq. 3 scores per tuple,
/// the fit table against the sequential reference enumeration, top-k.
pub fn check_learned(
    ops: &mut Ops,
    learned: &LearnedReport,
    enumerate: &EnumerateOptions,
    k: usize,
) {
    let q = learned.tuples.first().map_or(0, |t| t.q_tasks.len());
    ops.check(
        "trial scores in (0,1) summing to 1",
        checks::trial_scores(learned.training_set.observations(), q),
    );
    let reference = guarded(|| fit_all_reference(&learned.training_set, enumerate));
    ops.check(
        "fit table == fit_all_reference",
        reference.and_then(|r| checks::fit_table(&learned.fits, &r)),
    );
    ops.check(
        "top-k policies are the first k fits",
        checks::top_k(&learned.fits, &learned.policies, k),
    );
}

/// Digest of a training outcome, for comparing repetitions bit for bit.
fn digest(learned: &LearnedReport) -> Vec<u64> {
    let obs = learned
        .training_set
        .observations()
        .iter()
        .map(|o| o.score.to_bits());
    let fits = learned.fits.iter().flat_map(|f| {
        let c = f.function.coefficients;
        [
            c[0].to_bits(),
            c[1].to_bits(),
            c[2].to_bits(),
            f.fitness.to_bits(),
        ]
    });
    obs.chain(fits).collect()
}

/// `learn_policies` stage by stage on given tuples, for the traced run:
/// every tuple's trials as one batched fan-out, pooling, the 576 fits,
/// the ranking — each in a span of `tr`.
fn learn(
    tr: &mut Tracer,
    config: &TrainingConfig,
    tuples: &[TaskTuple],
    enumerate: &EnumerateOptions,
) -> Result<LearnedReport, String> {
    let training_set = tr.span("core.trials", |_| guarded(|| pooled_trials(config, tuples)))?;
    let fits = tr.span("mlreg.fit_all", |_| {
        guarded(|| fit_all(&training_set, enumerate))
    })?;
    let policies = tr.span("mlreg.rank", |_| top_policies(&fits, TOP_K));
    Ok(LearnedReport {
        tuples: tuples.to_vec(),
        training_set,
        fits,
        policies,
    })
}

pub fn run(opts: &Opts) -> Outcome {
    let model = LublinModel::new(CORES);
    let enumerate = EnumerateOptions::default();
    let mut ops = Ops::default();

    // Set-up: drawing the tuples, timed before every repetition, many
    // draws per sample. The timed section draws them again itself.
    let config = config();
    let trials = (TUPLES * config.trial_spec.trials) as u64;
    let jobs_per_trial = (config.tuple_spec.s_size + config.tuple_spec.q_size) as u64;
    let run = repeat(
        opts.seconds,
        || {
            for _ in 0..SETUP_DRAWS {
                drop(std::hint::black_box(draw_tuples(&config, &model)));
            }
        },
        |i| {
            guarded(|| learn_policies(&config, &model, &enumerate, TOP_K))
                .map(|r| (digest(&r), (i == 0).then_some(r)))
        },
    );
    let reps = &run.outputs;
    for rep in reps {
        let error = rep.as_ref().err().cloned();
        ops.record("trials", trials, error.clone());
        ops.record("fits", 576, error);
    }
    let first = reps[0].as_ref().ok();
    match first.and_then(|(_, r)| r.as_ref()) {
        Some(learned) => check_learned(&mut ops, learned, &enumerate, TOP_K),
        None => ops.check("warm-up training", Err("did not complete".to_string())),
    }
    for (i, rep) in reps.iter().enumerate().skip(1) {
        let same_bits = matches!((rep, first), (Ok((d, _)), Some((d0, _))) if d == d0);
        ops.check(
            "repetition identical to the warm-up",
            if same_bits {
                Ok(())
            } else {
                Err(format!("repetition {i} differs"))
            },
        );
    }
    let per_layer = opts.trace.then(|| {
        let untraced = (first.map(|f| &f.0), measure::medians(&run.samples).wall);
        traced(opts, &mut ops, &config, &model, &enumerate, untraced)
    });
    Outcome {
        ops,
        end_to_end: end_to_end(
            &run,
            run.setup_s / SETUP_DRAWS as f64,
            trials * jobs_per_trial,
        ),
        per_layer,
    }
}

/// The traced run: the tuple draw and the training stage, each call in
/// a span, checked bit for bit against `learn_policies`, then the trial
/// stage once more at pool width 1.
fn traced(
    opts: &Opts,
    ops: &mut Ops,
    config: &TrainingConfig,
    model: &LublinModel,
    enumerate: &EnumerateOptions,
    (untraced_digest, untraced_wall): (Option<&Vec<u64>>, f64),
) -> Vec<crate::report::Metric> {
    let trials = (TUPLES * config.trial_spec.trials) as u64;
    let mut tr = Tracer::new();
    let mut roots = Vec::new();
    let mut last = None;
    for _ in 0..measure::MIN_REPS {
        roots.push(tr.spans().len());
        let out = tr.span("train_paper_scale", |tr| {
            let tuples = tr.span("core.tuples", |_| draw_tuples(config, model));
            learn(tr, config, &tuples, enumerate)
        });
        let error = out.as_ref().err().cloned();
        ops.record("trials", trials, error.clone());
        ops.record("fits", 576, error);
        last = out.ok();
    }
    let Some(learned) = last else {
        ops.check("traced training", Err("did not complete".to_string()));
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
    ops.check(
        "traced training == untraced",
        match untraced_digest {
            Some(d) if *d == digest(&learned) => Ok(()),
            _ => Err("traced outputs differ from the untraced run".to_string()),
        },
    );
    let split = tr.spans().len();
    let w1 = tr.span("split", |tr| {
        tr.span("core.trials_w1", |_| {
            with_worker_limit(1, || guarded(|| pooled_trials(config, &learned.tuples)))
        })
    });
    ops.record("trials", trials, w1.as_ref().err().cloned());
    ops.check(
        "trials at width 1 == full width",
        w1.and_then(|ts| checks::same(&ts, &learned.training_set)),
    );
    let counts = BTreeMap::from([
        ("core.trials", trials),
        ("mlreg.observations", learned.training_set.len() as u64),
        (
            "mlreg.converged_fits",
            learned.fits.iter().filter(|f| f.converged).count() as u64,
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
