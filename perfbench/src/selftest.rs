//! Self-tests of the benchmark's own checks: each check is fed a real
//! output (it must pass) and the same output deliberately broken (it
//! must fail). `perfbench selftest` prints one line per case.

use crate::checks;
use dynsched_cluster::Platform;
use dynsched_core::{
    learn_policies, run_experiment, Experiment, TrainingConfig, TrialSpec, TupleSpec,
};
use dynsched_mlreg::EnumerateOptions;
use dynsched_policies::{Fcfs, Policy, Spt, Wfp3};
use dynsched_scheduler::{simulate, QueueDiscipline, SchedulerConfig};
use dynsched_simkit::Rng;
use dynsched_workload::{LublinModel, Trace};

const CORES: u32 = 32;

/// A small saturated trace on which policies differ.
fn small_trace(seed: u64) -> Trace {
    let mut model = LublinModel::new(CORES);
    model.daily_cycle = false;
    model.arrival_scale = 0.02;
    model.generate_jobs(80, &mut Rng::new(seed))
}

/// One case: the check on the real output, then on the broken one.
type Case = (&'static str, Result<(), String>, Result<(), String>);

fn avebsld_bit_flip() -> Case {
    let experiment = Experiment::new(
        "self-test",
        vec![small_trace(1), small_trace(2)],
        SchedulerConfig::actual_runtimes(Platform::new(CORES)),
    );
    let lineup: Vec<Box<dyn Policy>> = vec![Box::new(Fcfs), Box::new(Wfp3)];
    let result = run_experiment(&experiment, &lineup);
    let cell = result.outcomes[1].ave_bslds[0];
    let flipped = f64::from_bits(cell.to_bits() ^ 1);
    (
        "grid cell with one AVEbsld bit flipped",
        checks::grid_cell(&experiment, lineup[1].as_ref(), cell),
        checks::grid_cell(&experiment, lineup[1].as_ref(), flipped),
    )
}

fn over_committed_schedule() -> Case {
    let trace = small_trace(3);
    let result = simulate(
        &trace,
        &QueueDiscipline::Policy(&Spt),
        &SchedulerConfig::actual_runtimes(Platform::new(CORES)),
    );
    // Start every job at its submit time: the queue disappears and the
    // saturated trace needs more cores than the platform has.
    let mut broken = result.completed.clone();
    for c in &mut broken {
        c.start = c.job.submit;
        c.finish = c.start + c.job.runtime;
    }
    (
        "schedule that over-commits cores",
        checks::cores_within(&result.completed, CORES),
        checks::cores_within(&broken, CORES),
    )
}

fn training_cases() -> [Case; 3] {
    let config = TrainingConfig {
        tuple_spec: TupleSpec {
            s_size: 4,
            q_size: 8,
            max_start_offset: 50_000.0,
        },
        trial_spec: TrialSpec {
            trials: 256,
            platform: Platform::new(64),
            tau: 10.0,
        },
        tuples: 2,
        seed: 7,
    };
    let mut enumerate = EnumerateOptions::default();
    enumerate.lm.max_iterations = 20;
    let learned = learn_policies(&config, &LublinModel::new(64), &enumerate, 4);
    let q = config.tuple_spec.q_size;

    let obs = learned.training_set.observations().to_vec();
    let mut skewed = obs.clone();
    skewed[0].score *= 1.01;

    let reference = dynsched_mlreg::fit_all_reference(&learned.training_set, &enumerate);
    let mut changed = learned.fits.clone();
    let c = &mut changed[100].function.coefficients[1];
    *c = f64::from_bits(c.to_bits() + 1);

    let mut swapped = learned.policies.clone();
    swapped.swap(0, 1);
    [
        (
            "trial scores that do not sum to 1",
            checks::trial_scores(&obs, q),
            checks::trial_scores(&skewed, q),
        ),
        (
            "fit table with one coefficient changed",
            checks::fit_table(&learned.fits, &reference),
            checks::fit_table(&changed, &reference),
        ),
        (
            "top-k policies out of ranking order",
            checks::top_k(&learned.fits, &learned.policies, 4),
            checks::top_k(&learned.fits, &swapped, 4),
        ),
    ]
}

/// Every case, as `(name, real output passed, broken output failed)`.
pub fn run() -> Vec<(&'static str, bool, bool)> {
    let mut cases = vec![avebsld_bit_flip(), over_committed_schedule()];
    cases.extend(training_cases());
    cases
        .into_iter()
        .map(|(name, real, broken)| (name, real.is_ok(), broken.is_err()))
        .collect()
}

/// Print every case; true when every check passed its real output and
/// failed its broken one.
pub fn report() -> bool {
    let mut all = true;
    for (name, real_ok, broken_caught) in run() {
        let ok = real_ok && broken_caught;
        all &= ok;
        println!(
            "{} {name}: real output {}, broken output {}",
            if ok { "ok  " } else { "FAIL" },
            if real_ok { "passes" } else { "FAILS" },
            if broken_caught {
                "caught"
            } else {
                "NOT CAUGHT"
            },
        );
    }
    all
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_check_catches_its_broken_output() {
        for (name, real_ok, broken_caught) in super::run() {
            assert!(real_ok, "{name}: the real output fails its check");
            assert!(broken_caught, "{name}: the broken output passes its check");
        }
    }
}
