//! Repetitions: the unit of measurement every workload shares.
//!
//! A run generates its inputs once from the seed, then repeats one fixed
//! unit of work (a batch of networks, a batch of federations, a cluster
//! network) until its time is spent. Rates, set-up times and latency
//! percentiles are taken per repetition, scaled by the host's slowdown
//! measured around it ([`crate::host`]), and reported as their median
//! over repetitions, which a passing slowdown of the shared machine moves
//! less than it moves one long average or one pooled tail. Every
//! repetition must reproduce the first one's output exactly.
//!
//! Each workload makes one untimed warm-up pass before its measured
//! repetitions and drops what it measured. The first pass over fresh
//! inputs grows the heap, opens connections and fills caches: it ran
//! about a tenth slower than the passes after it (a third slower on
//! `cluster-rounds`), and with a few repetitions per run it moved the
//! medians.

use crate::host::Bracket;
use crate::report::{median, supported_percentile, Outcome};
use std::time::{Duration, Instant};

/// What one repetition of a workload's unit measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds spent building the served models.
    pub setup_s: f64,
    /// Answers integrated.
    pub answers: u64,
    /// Seconds of the drive loops.
    pub drive_s: f64,
    /// Latency samples, until [`seal`](Self::seal) reduces them to
    /// `tails` (question, answer, commit).
    pub question_us: Vec<f64>,
    pub answer_us: Vec<f64>,
    pub commit_us: Vec<f64>,
    pub tails: [Tail; 3],
    /// The host's slowdown around the repetition (1 at the reference
    /// speed, see [`crate::host`]): its times are divided by it.
    pub slowdown: f64,
    /// This process's peak RSS during the repetition, in MiB.
    pub peak_rss_mib: Option<f64>,
    /// Entropy AUC, final precision and final recall, averaged over the
    /// unit's networks.
    pub quality: (f64, f64, f64),
    /// A digest of the repetition's deterministic output.
    pub fingerprint: String,
    /// Correctness checks made and failed, and the failures. A check
    /// covers a whole class of operations of one network (every answer
    /// `Ok`, every event accepted), so that one failure moves `ok_share`.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The percentiles a repetition keeps of each latency series.
const KEPT: [f64; 2] = [0.5, 0.99];

/// The [`KEPT`] percentiles of one repetition's latency series (`None`
/// where the samples cannot support them) and its sample count.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    kept: [Option<f64>; 2],
}

impl Tail {
    fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        Tail { n: samples.len(), kept: KEPT.map(|p| supported_percentile(samples, p)) }
    }

    /// Percentile `p`, one of [`KEPT`].
    pub fn at(&self, p: f64) -> Option<f64> {
        KEPT.iter().position(|&k| k == p).and_then(|i| self.kept[i])
    }
}

impl Rep {
    /// Records what the host probes measured around the repetition.
    pub fn bracketed(&mut self, around: Bracket) {
        self.slowdown = around.slowdown;
        self.peak_rss_mib = around.peak_rss_mib;
    }

    /// Reduces the latency samples to their [`Tail`]s and frees them, so
    /// that the benchmark's own memory does not grow with the number of
    /// repetitions (peak RSS is a metric).
    pub fn seal(&mut self) {
        self.tails = [&mut self.question_us, &mut self.answer_us, &mut self.commit_us]
            .map(|samples| Tail::of(&mut std::mem::take(samples)));
    }

    /// Answers per second of drive loop, at the reference host speed.
    pub fn rate(&self) -> f64 {
        self.answers as f64 / self.drive_s * self.slowdown
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Runs `rep(i)` for `i = 0, 1, …` until `budget` has passed, and at
/// least `min` times.
pub fn repeat<T>(budget: Duration, min: usize, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min.max(1) || start.elapsed() < budget {
        out.push(rep(out.len()));
    }
    out
}

/// This process's peak RSS over the repetitions, in MiB, if every
/// repetition measured it.
pub fn peak_rss_mib(reps: &[Rep]) -> Option<f64> {
    reps.iter().map(|r| r.peak_rss_mib).try_fold(0.0, |max: f64, p| Some(max.max(p?)))
}

/// Median rate over repetitions.
pub fn median_rate(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(Rep::rate).collect::<Vec<_>>())
}

/// The end-to-end metrics shared by every workload, and the checks that
/// every repetition passed its own checks and reproduced the first
/// repetition's output. Peak RSS is the workload's to add.
pub fn end_to_end(reps: &[Rep], out: &mut Outcome) {
    for (i, r) in reps.iter().enumerate() {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.failures.extend(r.failures.iter().map(|f| format!("repetition {i}: {f}")));
        if i > 0 {
            out.check(r.fingerprint == reps[0].fingerprint, || {
                format!("repetition {i} did not reproduce repetition 0's output")
            });
        }
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s / r.slowdown).collect();
    out.metric("setup_s", median(&setups), "s");
    out.metric("answers_per_s", median_rate(reps), "1/s");
    out.note(format!(
        "samples answers n={} per repetition x {} repetitions",
        reps[0].answers,
        reps.len()
    ));
    let each = |f: &dyn Fn(&Rep) -> f64| -> String {
        reps.iter().map(|r| format!("{:.3}", f(r))).collect::<Vec<_>>().join(" ")
    };
    out.note(format!("repetitions host_slowdown {}", each(&|r| r.slowdown)));
    out.note(format!("repetitions unscaled_answers_per_s {}", each(&|r| r.rate() / r.slowdown)));
    out.note(format!("repetitions answers_per_s {}", each(&Rep::rate)));
    // a commit's tail is not an end-to-end metric: in crowd-serve it is
    // the disk's fsync tail, which drifts several-fold (see the README)
    for (i, (series, kept)) in
        [("question", &KEPT[..]), ("answer", &KEPT[..]), ("commit", &KEPT[..1])]
            .into_iter()
            .enumerate()
    {
        let fewest = reps.iter().map(|r| r.tails[i].n).min().unwrap_or(0);
        out.note(format!("samples {series} n>={fewest} per repetition x {}", reps.len()));
        for &p in kept {
            let scaled: Vec<Option<f64>> =
                reps.iter().map(|r| r.tails[i].at(p).map(|us| us / r.slowdown)).collect();
            out.supported(&format!("{series}_p{:.0}_us", p * 100.0), p, &scaled, "us");
        }
    }
    let (auc, precision, recall) = reps[0].quality;
    out.metric("entropy_auc", auc, "ratio");
    out.metric("final_precision", precision, "ratio");
    out.metric("final_recall", recall, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_runs_at_least_min_times() {
        assert_eq!(repeat(Duration::ZERO, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(repeat(Duration::ZERO, 0, |i| i).len(), 1);
    }

    #[test]
    fn reps_report_medians_and_must_agree() {
        let rep = |answers: u64, drive_s: f64, fingerprint: &str, slow: f64| {
            let mut r = Rep {
                setup_s: drive_s / 10.0,
                answers,
                drive_s,
                slowdown: 1.0,
                question_us: (1..=2000).map(|q| f64::from(q) * slow).collect(),
                answer_us: vec![1.0; 2000],
                commit_us: vec![2.0; 2000],
                quality: (0.5, 1.0, 0.9),
                fingerprint: fingerprint.into(),
                ..Rep::default()
            };
            r.seal();
            assert!(r.question_us.is_empty(), "sealing frees the samples");
            r
        };
        let reps = vec![rep(100, 1.0, "a", 1.0), rep(100, 2.0, "a", 1.0), rep(100, 4.0, "b", 3.0)];
        let mut out = Outcome::default();
        end_to_end(&reps, &mut out);
        assert_eq!(out.value("answers_per_s"), Some(50.0));
        assert_eq!(out.value("setup_s"), Some(0.2));
        // one slow repetition does not move the medians
        assert_eq!(out.value("question_p50_us"), Some(1000.0));
        assert_eq!(out.value("question_p99_us"), Some(1980.0));
        assert_eq!(out.value("commit_p50_us"), Some(2.0));
        assert_eq!(out.failed, 1, "repetition 2 changed its output");

        let mut short = Rep {
            answers: 100,
            drive_s: 1.0,
            slowdown: 1.0,
            question_us: vec![1.0; 2000],
            answer_us: vec![1.0; 500],
            commit_us: vec![1.0; 2000],
            ..Rep::default()
        };
        short.seal();
        let short = vec![short];
        let mut out = Outcome::default();
        end_to_end(&short, &mut out);
        assert_eq!(out.value("answer_p99_us"), None, "500 samples cannot support a p99");
        assert_eq!(out.refused, 1);
    }

    #[test]
    fn times_are_scaled_to_the_reference_host_speed() {
        let mut slow = Rep {
            setup_s: 0.4,
            answers: 100,
            drive_s: 2.0,
            slowdown: 2.0,
            question_us: vec![8.0; 2000],
            answer_us: vec![8.0; 2000],
            commit_us: vec![8.0; 2000],
            ..Rep::default()
        };
        slow.seal();
        let mut out = Outcome::default();
        end_to_end(&[slow], &mut out);
        assert_eq!(out.value("answers_per_s"), Some(100.0));
        assert_eq!(out.value("setup_s"), Some(0.2));
        assert_eq!(out.value("answer_p99_us"), Some(4.0));
    }
}
