//! Host-side measurement: wall and CPU time of a section, peak resident
//! set, medians and the repetition loop every workload times through.
//!
//! Nothing here touches the disk inside a timed section: CPU time and
//! peak RSS are read from `/proc/self` after the section ends.

use std::time::Instant;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User + system CPU seconds of this process so far, all threads
/// (`utime + stime` of `/proc/self/stat`, in clock ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name is parenthesized and may hold spaces: fields are
    // counted from the last ')'. After it, utime and stime are the 12th
    // and 13th fields.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks =
        |i: usize| -> f64 { fields[i].parse::<u64>().expect("utime/stime are integers") as f64 };
    // SAFETY: sysconf only reads a process-wide constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (ticks(11) + ticks(12)) / hz.max(1) as f64
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM is reported")
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall and CPU seconds of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

/// Run `f` once and time it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    (out, Sample { wall, cpu })
}

/// Fewest timed repetitions a run reports a median over.
pub const MIN_REPS: usize = 3;

/// What [`repeat`] measured.
pub struct Repeated<R> {
    /// `f`'s outputs, the warm-up's first.
    pub outputs: Vec<R>,
    /// One per timed repetition (the warm-up excluded).
    pub samples: Vec<Sample>,
    /// Median seconds of the timed `setup` calls.
    pub setup_s: f64,
    /// Peak resident set (MiB) after the set-up and the warm-up: one pass
    /// of the workload, as one command run pays it. Later repetitions can
    /// raise the high-water mark by whatever the allocator happens to keep
    /// from earlier ones, which varies from process to process.
    pub peak_rss_mb: f64,
}

/// Run `f` once as a warm-up, then repeatedly until the timed
/// repetitions cover `seconds` of wall time and number at least
/// [`MIN_REPS`]; before each timed repetition, time one call of `setup`.
/// Interleaving spreads the set-up samples over the whole run, so their
/// median sees the same host conditions as the repetitions' median —
/// on a shared machine the speed drifts by tens of percent over seconds.
/// `f` gets the repetition index (0 is the warm-up) and returns whatever
/// the caller checks. The caller builds the inputs `f` uses once, before,
/// which also pays the process's first-touch costs outside any sample.
pub fn repeat<R>(
    seconds: f64,
    mut setup: impl FnMut(),
    mut f: impl FnMut(usize) -> R,
) -> Repeated<R> {
    let mut outputs = vec![f(0)];
    let peak_rss_mb = peak_rss_mb();
    let mut samples = Vec::new();
    let mut setups = Vec::new();
    let mut spent = 0.0;
    while samples.len() < MIN_REPS || spent < seconds {
        let t0 = Instant::now();
        setup();
        setups.push(t0.elapsed().as_secs_f64());
        let (out, s) = timed(|| f(samples.len() + 1));
        spent += s.wall;
        outputs.push(out);
        samples.push(s);
    }
    Repeated {
        outputs,
        samples,
        setup_s: median(&setups),
        peak_rss_mb,
    }
}

/// Median wall and CPU seconds over `samples`.
pub fn medians(samples: &[Sample]) -> Sample {
    let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let cpus: Vec<f64> = samples.iter().map(|s| s.cpu).collect();
    Sample {
        wall: median(&walls),
        cpu: median(&cpus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn proc_readers_return_positive_values() {
        let (_, s) = timed(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(s.wall > 0.0 && s.cpu >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn repeat_runs_a_warm_up_and_sets_up_before_each_timed_rep() {
        let mut setups = 0;
        let r = repeat(0.0, || setups += 1, |i| i);
        assert_eq!(r.outputs, (0..=MIN_REPS).collect::<Vec<_>>());
        assert_eq!(r.samples.len(), MIN_REPS);
        assert_eq!(setups, MIN_REPS);
        assert!(r.setup_s >= 0.0);
    }
}
