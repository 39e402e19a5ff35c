//! `archive_replay`: an archive-length trace (a calibrated Lublin model
//! at 1024 cores and load 0.9 with Tsafrir estimates, 120 days, about
//! 12.5k jobs) written as SWF and read back, then replayed the way
//! `dynsched simulate --estimates` does under no, EASY and conservative
//! backfilling for FCFS, WFP, SPT and F1, and federated the way
//! `dynsched federate` does over 4 × 256-core clusters (least-loaded),
//! once fault-free and once under a `FaultProfile`.
//!
//! The job stream is one fixed synthetic archive, the same every run,
//! as a real log would be: conservative backfilling's cost grows with
//! queue length, so a different stream per seed would swing a run's
//! time by a factor of three. The seed draws the fault stream.

use crate::measure::{self, repeat};
use crate::report::{Metric, Ops, REPLAY_MODES, REPLAY_POLICIES};
use crate::spans::{self, Tracer};
use crate::{checks, end_to_end, guarded, Opts, Outcome};
use dynsched_cluster::{FaultProfile, Platform};
use dynsched_policies::{by_name, CompiledPolicy, Policy};
use dynsched_scheduler::{
    run_federation, run_federation_faulty, BackfillMode, FederationResult, FederationSpec,
    QueueDiscipline, Router, SchedulerConfig, SimWorkspace, SimulationResult,
};
use dynsched_simkit::json::checksum;
use dynsched_simkit::Rng;
use dynsched_workload::{read_swf_file, write_swf_trace, LublinModel, Trace, TsafrirEstimates};
use std::collections::BTreeMap;
use std::path::Path;

/// Seed of the fixed synthetic archive.
const ARCHIVE_SEED: u64 = 0x5C17;
const ARCHIVE_CORES: u32 = 1024;
const ARCHIVE_DAYS: f64 = 120.0;
const ARCHIVE_LOAD: f64 = 0.9;
const CLUSTERS: usize = 4;
const CLUSTER_CORES: u32 = 256;
/// Fault profile of the faulty federation, as `dynsched federate --mtbf
/// 86400` sets it up: one failure a day per cluster, an hour to repair,
/// an eighth of the cluster per failure, three retries.
const MTBF: f64 = 86_400.0;
const MTTR: f64 = 3_600.0;
const FAULT_RETRIES: u32 = 3;
/// Input builds per set-up sample: one build takes about 50 ms, too
/// short a sample to be steady on its own.
const SETUP_BUILDS: usize = 5;
/// Jobs of the prefix the reference engine re-simulates.
const REFERENCE_PREFIX: usize = 1_500;

const MODES: [BackfillMode; 3] = [
    BackfillMode::None,
    BackfillMode::Aggressive,
    BackfillMode::Conservative,
];

/// The replay's inputs, as read back from the SWF file.
struct Inputs {
    written: Trace,
    /// Every parsed record that fits the 1024-core platform.
    trace: Trace,
    /// Every parsed record that fits one 256-core cluster.
    federated: Trace,
    records: usize,
}

/// Generate the archive, write it as SWF, read it back and cap it,
/// each stage in a span.
fn build_inputs(tr: &mut Tracer, path: &Path) -> Result<Inputs, String> {
    let written = tr.span("workload.generate", |_| {
        let mut rng = Rng::new(ARCHIVE_SEED);
        let model = LublinModel::new(ARCHIVE_CORES).calibrated_to_load(ARCHIVE_LOAD, &mut rng);
        let trace = model.generate_span(ARCHIVE_DAYS * 86_400.0, &mut rng);
        TsafrirEstimates::with_max_estimate(model.max_runtime).apply(&trace, &mut rng)
    });
    tr.span("workload.swf_write", |_| {
        std::fs::write(path, write_swf_trace(&written, ARCHIVE_CORES))
    })
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let (parsed, trace, federated) = tr.span("workload.swf_read", |_| {
        let (_, parsed) =
            read_swf_file(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let trace = parsed.capped_to(ARCHIVE_CORES);
        let federated = parsed.capped_to(CLUSTER_CORES);
        Ok::<_, String>((parsed, trace, federated))
    })?;
    Ok(Inputs {
        records: parsed.len(),
        written,
        trace,
        federated,
    })
}

fn mode_name(mode: BackfillMode) -> &'static str {
    REPLAY_MODES[MODES
        .iter()
        .position(|&m| m == mode)
        .expect("a replay mode")]
}

fn sim_config(mode: BackfillMode) -> SchedulerConfig {
    SchedulerConfig {
        backfill: mode,
        ..SchedulerConfig::user_estimates(Platform::new(ARCHIVE_CORES))
    }
}

/// Everything one repetition produces.
struct Replay {
    /// `(mode, policy, result)` in mode-major order.
    sims: Vec<(BackfillMode, &'static str, Result<SimulationResult, String>)>,
    federation: Result<FederationResult, String>,
    faulty: Result<FederationResult, String>,
}

impl Replay {
    /// Completion times of every output, hashed, for comparing
    /// repetitions bit for bit.
    fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        let mut push = |completed: &[dynsched_cluster::CompletedJob]| {
            for c in completed {
                bytes.extend_from_slice(&c.job.id.to_le_bytes());
                bytes.extend_from_slice(&c.start.to_bits().to_le_bytes());
                bytes.extend_from_slice(&c.finish.to_bits().to_le_bytes());
            }
        };
        for (_, _, r) in &self.sims {
            if let Ok(r) = r {
                push(&r.completed);
            }
        }
        for f in [&self.federation, &self.faulty].into_iter().flatten() {
            push(&f.completed);
        }
        checksum(&bytes)
    }
}

/// The policies, once: interpreted for the single-cluster replays (as
/// `dynsched simulate` runs them), compiled F1 for the federation (as
/// `dynsched federate` does).
struct Policies {
    lineup: Vec<(&'static str, Box<dyn Policy>)>,
    f1: CompiledPolicy,
}

impl Policies {
    fn new() -> Self {
        let lineup: Vec<_> = REPLAY_POLICIES
            .iter()
            .map(|&n| (n, by_name(n).expect("built-in policy")))
            .collect();
        let f1 = by_name("F1")
            .and_then(|p| p.compile())
            .expect("F1 compiles");
        Self { lineup, f1 }
    }
}

fn simulate(
    trace: &Trace,
    policy: &dyn Policy,
    mode: BackfillMode,
) -> Result<SimulationResult, String> {
    let mut ws = SimWorkspace::new();
    guarded(|| ws.try_run(trace, &QueueDiscipline::Policy(policy), &sim_config(mode)))?
        .map_err(|e| e.to_string())?;
    Ok(ws.result())
}

fn federation_spec() -> FederationSpec<'static> {
    let config = SchedulerConfig::estimates_with_backfilling(Platform::new(CLUSTER_CORES));
    FederationSpec::uniform(CLUSTERS, config, Router::LeastLoaded)
}

fn fault_profile(seed: u64) -> FaultProfile {
    FaultProfile::failures(MTBF, MTTR, CLUSTER_CORES / 8, seed).with_max_retries(FAULT_RETRIES)
}

/// One repetition: twelve replays, then the two federations.
fn replay(tr: &mut Tracer, inputs: &Inputs, policies: &Policies, seed: u64) -> Replay {
    let mut sims = Vec::with_capacity(MODES.len() * policies.lineup.len());
    for mode in MODES {
        for (name, policy) in &policies.lineup {
            let span = format!("scheduler.sim.{}.{name}", mode_name(mode));
            let result = tr.span(&span, |_| simulate(&inputs.trace, policy.as_ref(), mode));
            sims.push((mode, *name, result));
        }
    }
    let spec = federation_spec();
    let discipline = QueueDiscipline::Compiled(&policies.f1);
    let federation = tr.span("scheduler.federation", |_| {
        guarded(|| run_federation(&inputs.federated, &spec, &discipline))
    });
    let profile = fault_profile(seed);
    let faulty = tr.span("scheduler.federation_faulty", |_| {
        guarded(|| run_federation_faulty(&inputs.federated, &spec, &discipline, &profile))
    });
    let flat = |r: Result<Result<FederationResult, _>, String>| {
        r.and_then(|r| r.map_err(|e: dynsched_scheduler::EngineError| e.to_string()))
    };
    Replay {
        sims,
        federation: flat(federation),
        faulty: flat(faulty),
    }
}

impl Replay {
    /// Count this repetition's replays and federations.
    fn record(&self, ops: &mut Ops) {
        for (_, _, r) in &self.sims {
            ops.record("replays", 1, r.as_ref().err().cloned());
        }
        for f in [&self.federation, &self.faulty] {
            ops.record("federations", 1, f.as_ref().err().cloned());
        }
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let path = opts.out_dir.join("archive_replay.swf");
    let mut ops = Ops::default();

    // Set-up: generate, write, read back, cap; timed again before every
    // repetition, several builds per sample.
    let inputs = match build_inputs(&mut Tracer::off(), &path) {
        Ok(inputs) => inputs,
        Err(e) => {
            // Nothing can be measured without the inputs.
            eprintln!("error: archive set-up failed: {e}");
            std::process::exit(1);
        }
    };
    ops.check(
        "read_swf_file keeps every written record",
        checks::swf_round_trip(&inputs.written, &inputs.trace),
    );
    let policies = Policies::new();
    let jobs_per_rep = (MODES.len() * policies.lineup.len() * inputs.trace.len()
        + 2 * inputs.federated.len()) as u64;

    let mut setup_tracer = if opts.trace {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let mut setup_roots = Vec::new();
    let mut setup_errors = Vec::new();
    // The warm-up keeps its outputs for the checks; later repetitions
    // keep a digest of theirs.
    let mut replays = Ops::default();
    let run = repeat(
        opts.seconds,
        || {
            for _ in 0..SETUP_BUILDS {
                setup_roots.push(setup_tracer.spans().len());
                let built = setup_tracer.span("setup", |tr| build_inputs(tr, &path));
                setup_errors.push(built.err());
            }
        },
        |i| {
            let r = replay(&mut Tracer::off(), &inputs, &policies, opts.seed);
            r.record(&mut replays);
            (r.digest(), (i == 0).then_some(r))
        },
    );
    for error in setup_errors {
        ops.record("setups", 1, error);
    }
    ops.merge(replays);
    let reps = &run.outputs;
    let warm = reps[0].1.as_ref().expect("the warm-up keeps its outputs");
    check_replay(&mut ops, &inputs, &policies, warm);
    for (i, (d, _)) in reps.iter().enumerate().skip(1) {
        ops.check(
            "repetition identical to the warm-up",
            if *d == reps[0].0 {
                Ok(())
            } else {
                Err(format!("repetition {i} differs"))
            },
        );
    }
    let per_layer = opts.trace.then(|| {
        traced(
            opts,
            &mut ops,
            &inputs,
            &policies,
            warm,
            &setup_tracer,
            &setup_roots,
            measure::medians(&run.samples).wall,
        )
    });
    Outcome {
        ops,
        end_to_end: end_to_end(&run, run.setup_s / SETUP_BUILDS as f64, jobs_per_rep),
        per_layer,
    }
}

/// Every replay is a complete schedule within the platform and matches
/// the reference engine on a prefix; the federations account for every
/// job and the faulty one conserves work.
fn check_replay(ops: &mut Ops, inputs: &Inputs, policies: &Policies, replay: &Replay) {
    let prefix =
        Trace::from_jobs(inputs.trace.jobs()[..REFERENCE_PREFIX.min(inputs.trace.len())].to_vec());
    for ((mode, name, result), (_, policy)) in
        replay.sims.iter().zip(policies.lineup.iter().cycle())
    {
        let Ok(result) = result else {
            ops.check(
                "replay completed",
                Err(format!("{} {name} failed", mode_name(*mode))),
            );
            continue;
        };
        ops.check(
            "every job completes once, start >= submit, finish = start + runtime",
            checks::schedule_complete(&inputs.trace, &result.completed),
        );
        ops.check(
            "cores in use never exceed the platform",
            checks::cores_within(&result.completed, ARCHIVE_CORES),
        );
        // EASY is left out: the reference orders tied release times by
        // hash-map iteration, so its EASY schedules change from process
        // to process (see CHANGES.md).
        if *mode == BackfillMode::Aggressive {
            continue;
        }
        let engine = simulate(&prefix, policy.as_ref(), *mode);
        ops.check(
            "prefix replay == simulate_reference",
            engine
                .and_then(|e| {
                    checks::matches_reference(&prefix, policy.as_ref(), &sim_config(*mode), &e)
                })
                .map_err(|e| format!("{} {name}: {e}", mode_name(*mode))),
        );
    }
    match &replay.federation {
        Ok(f) => {
            ops.check(
                "fault-free federation completes every job",
                checks::schedule_complete(&inputs.federated, &f.completed),
            );
            for shard in &f.shards {
                ops.check(
                    "cores in use never exceed a cluster",
                    checks::cores_within(&shard.completed, CLUSTER_CORES),
                );
            }
        }
        Err(e) => ops.check("fault-free federation", Err(e.clone())),
    }
    ops.check(
        "faulty federation: busy = goodput + lost, completed + abandoned = jobs",
        replay
            .faulty
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|f| checks::fault_conservation(f, &inputs.federated, CLUSTER_CORES)),
    );
}

/// The traced run: three traced repetitions, with the set-up samples'
/// spans for the `workload.*` layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    opts: &Opts,
    ops: &mut Ops,
    inputs: &Inputs,
    policies: &Policies,
    warm: &Replay,
    setup_tracer: &Tracer,
    setup_roots: &[usize],
    untraced_wall: f64,
) -> Vec<Metric> {
    let mut tr = Tracer::new();
    let mut roots = Vec::new();
    for _ in 0..measure::MIN_REPS {
        roots.push(tr.spans().len());
        let r = tr.span("archive_replay", |tr| {
            replay(tr, inputs, policies, opts.seed)
        });
        r.record(ops);
        ops.check(
            "traced repetition identical to the untraced one",
            if r.digest() == warm.digest() {
                Ok(())
            } else {
                Err("outputs differ".to_string())
            },
        );
    }
    let mut counts = BTreeMap::new();
    for (mode, _, result) in &warm.sims {
        if let Ok(r) = result {
            let name = mode_name(*mode);
            *counts.entry(events_key(name)).or_insert(0) += r.events_processed;
            if let Some(key) = backfilled_key(name) {
                *counts.entry(key).or_insert(0) += r.backfilled_jobs;
            }
        }
    }
    if let Ok(f) = &warm.faulty {
        counts.insert("scheduler.preempted_jobs", f.preempted_jobs());
    }
    counts.insert("workload.swf_records", inputs.records as u64);
    // The set-up layers come from the set-up samples' spans.
    let setup = setup_tracer.median_self_times(setup_roots);
    spans::finish(opts, ops, &tr, &roots, setup, untraced_wall, &counts)
}

fn events_key(mode: &str) -> &'static str {
    match mode {
        "none" => "scheduler.events.none",
        "easy" => "scheduler.events.easy",
        _ => "scheduler.events.conservative",
    }
}

fn backfilled_key(mode: &str) -> Option<&'static str> {
    match mode {
        "easy" => Some("scheduler.backfilled.easy"),
        "conservative" => Some("scheduler.backfilled.conservative"),
        _ => None,
    }
}
