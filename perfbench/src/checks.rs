//! Output checks. Each compares a fast-path output against a computation
//! made apart from it (the `scheduler::reference` and
//! `mlreg::reference` oracles, or a sweep computed here), or against a
//! property the method must have. Every check returns `Err` with the
//! first violation it finds.

use dynsched_cluster::CompletedJob;
use dynsched_core::{Experiment, ExperimentResult};
use dynsched_mlreg::{FitResult, Observation};
use dynsched_policies::{LearnedPolicy, Policy};
use dynsched_scheduler::reference::{reference_metrics, simulate_reference};
use dynsched_scheduler::{FederationResult, QueueDiscipline, SchedulerConfig, SimulationResult};
use dynsched_workload::Trace;
use std::collections::HashMap;

/// Two outputs are equal.
pub fn same<T: PartialEq>(a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err("outputs differ".to_string())
    }
}

/// Eq. 3 scores of each tuple (`q` consecutive observations) lie in
/// (0, 1) and sum to 1 within 1e-9.
pub fn trial_scores(observations: &[Observation], q: usize) -> Result<(), String> {
    if q == 0 || observations.is_empty() || !observations.len().is_multiple_of(q) {
        return Err(format!(
            "{} observations do not split into tuples of {q}",
            observations.len()
        ));
    }
    for (t, tuple) in observations.chunks(q).enumerate() {
        if let Some(o) = tuple.iter().find(|o| !(o.score > 0.0 && o.score < 1.0)) {
            return Err(format!("tuple {t}: score {} outside (0, 1)", o.score));
        }
        let sum: f64 = tuple.iter().map(|o| o.score).sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("tuple {t}: scores sum to {sum:.17}"));
        }
    }
    Ok(())
}

/// The fit table equals the reference enumeration bit for bit: same
/// order, shapes, coefficients, fitness, weighted SSE and convergence.
pub fn fit_table(fits: &[FitResult], reference: &[FitResult]) -> Result<(), String> {
    if fits.len() != reference.len() {
        return Err(format!(
            "{} fits vs {} in the reference",
            fits.len(),
            reference.len()
        ));
    }
    let bits = |r: &FitResult| {
        let c = r.function.coefficients;
        [
            c[0].to_bits(),
            c[1].to_bits(),
            c[2].to_bits(),
            r.fitness.to_bits(),
            r.weighted_sse.to_bits(),
        ]
    };
    for (i, (a, b)) in fits.iter().zip(reference).enumerate() {
        let same_shape =
            a.function.with_coefficients([0.0; 3]) == b.function.with_coefficients([0.0; 3]);
        if a.family_index != b.family_index
            || !same_shape
            || bits(a) != bits(b)
            || a.converged != b.converged
        {
            return Err(format!(
                "rank {i}: {:?} differs from the reference {:?}",
                a, b
            ));
        }
    }
    Ok(())
}

/// The shipped policies are the first `k` fits of the ranking, named
/// `G1..Gk`, and the ranking is ordered by fitness.
pub fn top_k(fits: &[FitResult], policies: &[LearnedPolicy], k: usize) -> Result<(), String> {
    if policies.len() != k.min(fits.len()) {
        return Err(format!("{} policies kept, expected {k}", policies.len()));
    }
    let key = |f: &FitResult| {
        if f.fitness.is_finite() {
            f.fitness
        } else {
            f64::INFINITY
        }
    };
    if let Some(w) = fits.windows(2).position(|w| key(&w[0]) > key(&w[1])) {
        return Err(format!("ranking out of order at {w}"));
    }
    for (i, (p, f)) in policies.iter().zip(fits).enumerate() {
        if p.function() != &f.function || p.name() != format!("G{}", i + 1) {
            return Err(format!("policy {} is not fit {i}", p.name()));
        }
    }
    Ok(())
}

/// Every AVEbsld of every cell is at least 1 (bounded slowdown is).
pub fn avebsld_at_least_one(results: &[ExperimentResult]) -> Result<(), String> {
    for row in results {
        for o in &row.outcomes {
            if let Some(x) = o.ave_bslds.iter().find(|&&x| x.is_nan() || x < 1.0) {
                return Err(format!("{} / {}: AVEbsld {x}", row.name, o.policy));
            }
        }
    }
    Ok(())
}

/// Sequence 0 of `experiment`, re-simulated by the reference engine
/// under `policy` (interpreted, never compiled), gives `cell` bit for bit.
pub fn grid_cell(experiment: &Experiment, policy: &dyn Policy, cell: f64) -> Result<(), String> {
    let trace = experiment.sequences[0].to_trace();
    let metrics = reference_metrics(
        &trace,
        &QueueDiscipline::Policy(policy),
        &experiment.scheduler,
        experiment.tau,
    );
    match metrics.avg_bounded_slowdown() {
        Some(x) if x.to_bits() == cell.to_bits() => Ok(()),
        other => Err(format!(
            "{} / {}: grid {cell:?}, reference {other:?}",
            experiment.name,
            policy.name()
        )),
    }
}

/// Every job of `trace` completes exactly once, unchanged, with
/// start ≥ submit and finish = start + runtime.
pub fn schedule_complete(trace: &Trace, completed: &[CompletedJob]) -> Result<(), String> {
    let jobs = trace.jobs();
    let position: HashMap<u32, usize> = jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
    let mut seen = vec![false; jobs.len()];
    for c in completed {
        let Some(&pos) = position.get(&c.job.id) else {
            return Err(format!("job {} is not in the trace", c.job.id));
        };
        if std::mem::replace(&mut seen[pos], true) {
            return Err(format!("job {} completed twice", c.job.id));
        }
        let j = &jobs[pos];
        let same = j.submit.to_bits() == c.job.submit.to_bits()
            && j.runtime.to_bits() == c.job.runtime.to_bits()
            && j.estimate.to_bits() == c.job.estimate.to_bits()
            && j.cores == c.job.cores;
        if !same {
            return Err(format!("job {} changed while scheduled", c.job.id));
        }
        if c.start.is_nan()
            || c.start < c.job.submit
            || c.finish.to_bits() != (c.start + c.job.runtime).to_bits()
        {
            return Err(format!(
                "job {}: submit {} start {} finish {} runtime {}",
                c.job.id, c.job.submit, c.start, c.finish, c.job.runtime
            ));
        }
    }
    match seen.iter().position(|s| !s) {
        Some(i) => Err(format!("job {} never completed", jobs[i].id)),
        None => Ok(()),
    }
}

/// Cores in use never exceed `cores`, by a sweep over start and finish
/// events (releases before starts at equal times; runtimes are positive).
pub fn cores_within(completed: &[CompletedJob], cores: u32) -> Result<(), String> {
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(2 * completed.len());
    for c in completed {
        events.push((c.start, i64::from(c.job.cores)));
        events.push((c.finish, -i64::from(c.job.cores)));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut used = 0i64;
    for (t, delta) in events {
        used += delta;
        if used > i64::from(cores) {
            return Err(format!(
                "{used} cores in use at t = {t} on a {cores}-core platform"
            ));
        }
    }
    Ok(())
}

/// Two schedules are the same bit for bit: completion order, jobs,
/// start and finish times, and the engine's counters.
pub fn same_schedule(a: &SimulationResult, b: &SimulationResult) -> Result<(), String> {
    if a.completed.len() != b.completed.len() {
        return Err(format!(
            "{} vs {} completions",
            a.completed.len(),
            b.completed.len()
        ));
    }
    for (i, (x, y)) in a.completed.iter().zip(&b.completed).enumerate() {
        if x.job.id != y.job.id
            || x.start.to_bits() != y.start.to_bits()
            || x.finish.to_bits() != y.finish.to_bits()
        {
            return Err(format!("completion {i}: {x:?} vs {y:?}"));
        }
    }
    if a.backfilled_jobs != b.backfilled_jobs || a.events_processed != b.events_processed {
        return Err(format!(
            "backfilled {} vs {}, events {} vs {}",
            a.backfilled_jobs, b.backfilled_jobs, a.events_processed, b.events_processed
        ));
    }
    Ok(())
}

/// The engine and the reference engine schedule `trace` identically.
pub fn matches_reference(
    trace: &Trace,
    policy: &dyn Policy,
    config: &SchedulerConfig,
    engine: &SimulationResult,
) -> Result<(), String> {
    let reference = simulate_reference(trace, &QueueDiscipline::Policy(policy), config);
    same_schedule(engine, &reference)
}

/// A faulty federation of uniform `cores_per_cluster`-core clusters
/// conserves work and jobs: per cluster, busy
/// core-seconds = goodput + lost (within float rounding of the busy
/// integral), and completed + abandoned = the jobs routed to it.
pub fn fault_conservation(
    fed: &FederationResult,
    trace: &Trace,
    cores_per_cluster: u32,
) -> Result<(), String> {
    let routed = fed.jobs_per_shard();
    let mut seen: HashMap<u32, bool> = trace.jobs().iter().map(|j| (j.id, false)).collect();
    for (s, shard) in fed.shards.iter().enumerate() {
        let ids = shard
            .completed
            .iter()
            .map(|c| c.job.id)
            .chain(shard.abandoned.iter().map(|a| a.job.id));
        let mut n = 0usize;
        for id in ids {
            n += 1;
            let slot = seen.get_mut(&id).ok_or(format!("unknown job {id}"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("job {id} finished twice"));
            }
        }
        if n != routed[s] {
            return Err(format!(
                "cluster {s}: {n} completed + abandoned of {} routed",
                routed[s]
            ));
        }
        let goodput: f64 = shard
            .completed
            .iter()
            .map(|c| (c.finish - c.start) * f64::from(c.job.cores))
            .sum();
        let busy = shard.utilization * f64::from(cores_per_cluster) * shard.makespan;
        let expected = goodput + shard.lost_core_seconds;
        if (busy - expected).abs() > 1e-9 * busy.abs().max(1.0) {
            return Err(format!(
                "cluster {s}: busy {busy} != goodput {goodput} + lost {}",
                shard.lost_core_seconds
            ));
        }
    }
    match seen.iter().find(|(_, &done)| !done) {
        Some((id, _)) => Err(format!("job {id} neither completed nor abandoned")),
        None => Ok(()),
    }
}

/// `read_swf_file` kept every written record, in order, with widths
/// exact and times within the SWF text's 0.01 s resolution.
pub fn swf_round_trip(written: &Trace, parsed: &Trace) -> Result<(), String> {
    if written.len() != parsed.len() {
        return Err(format!(
            "{} records written, {} read",
            written.len(),
            parsed.len()
        ));
    }
    for (i, (w, p)) in written.jobs().iter().zip(parsed.jobs()).enumerate() {
        let close = |a: f64, b: f64| (a - b).abs() <= 0.005 + 1e-9 * a.abs();
        if w.cores != p.cores
            || !close(w.submit, p.submit)
            || !close(w.runtime, p.runtime)
            || !close(w.estimate, p.estimate)
        {
            return Err(format!("record {i}: wrote {w:?}, read {p:?}"));
        }
    }
    Ok(())
}
