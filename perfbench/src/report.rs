//! What one run reports: correctness checks made and failed, metrics by
//! name with units, and the sample count behind every timing.

use std::fmt::Write;

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks made: the workloads' own checks, one per
    /// reported percentile (its sample support) and one per repetition
    /// beyond the first (it reproduced the first).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Percentiles refused for want of samples (counted in `failed`).
    pub refused: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

/// The nearest-rank percentile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median of `values` without the support rule — for small
/// per-network series such as set-up times.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

impl Outcome {
    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric; a non-finite value is a failed check instead.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.check(false, || format!("{name} is not finite ({value})"));
        }
    }

    /// Records percentiles of one timing series under `names` (metric
    /// name, percentile) and notes the series' sample count. Each
    /// percentile is a check: one without [`MIN_BEYOND`] samples beyond
    /// it is refused, not reported, and fails its check.
    pub fn percentiles(
        &mut self,
        series: &str,
        samples: &[f64],
        names: &[(&str, f64)],
        unit: &'static str,
    ) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.samples(series, sorted.len());
        for &(name, p) in names {
            self.supported(name, p, &[supported_percentile(&sorted, p)], unit);
        }
    }

    /// Records the median over repetitions of percentile `p`, taken
    /// within each repetition (`None` where a repetition's samples could
    /// not support it), so that a repetition the shared machine slowed
    /// moves it no more than it moves a median rate. The percentile is a
    /// check: unless every repetition supports it, it is refused, not
    /// reported, and fails its check.
    pub fn supported(&mut self, name: &str, p: f64, per_rep: &[Option<f64>], unit: &'static str) {
        let values: Option<Vec<f64>> =
            if per_rep.is_empty() { None } else { per_rep.iter().copied().collect() };
        self.check(values.is_some(), || {
            format!("{name}: too few samples to support p{}", p * 100.0)
        });
        match values {
            Some(v) => {
                if v.len() > 1 {
                    let each: Vec<String> = v.iter().map(|x| format!("{x:.1}")).collect();
                    self.note(format!("repetitions {name} {}", each.join(" ")));
                }
                self.metric(name, median(&v), unit)
            }
            None => self.refused += 1,
        }
    }

    /// Notes the sample count behind a series.
    pub fn samples(&mut self, series: &str, count: usize) {
        self.note(format!("samples {series} n={count}"));
    }

    /// Adds a human-readable line to the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The recorded value of a metric.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// Keeps only the named metrics, in the given order; any that is
    /// missing is a failed check.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for &name in names {
            match self.metrics.iter().find(|(n, ..)| n == name) {
                Some(m) => kept.push(m.clone()),
                None => self.check(false, || format!("metric {name} was not measured")),
            }
        }
        self.metrics = kept;
    }

    /// Sets every metric's unit from its name.
    pub fn set_units(&mut self, unit_of: fn(&str) -> &'static str) {
        for (name, _, unit) in &mut self.metrics {
            *unit = unit_of(name);
        }
    }

    /// The human-readable lines (sample counts, failures) and, last, the
    /// one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "FAILED {f}");
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(supported_percentile(&xs, 0.99), Some(1000.0));
        assert_eq!(supported_percentile(&xs[..1000], 0.99), Some(990.0));
        assert_eq!(supported_percentile(&xs[..999], 0.99), None);
        assert_eq!(supported_percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&xs[..19], 0.5), None);
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn refused_percentiles_fail_the_run_and_render_as_json() {
        let mut o = Outcome::default();
        o.percentiles("t", &[1.0, 2.0], &[("t_p50_us", 0.5)], "us");
        o.metric("x", 1.5, "s");
        assert_eq!((o.attempted, o.failed, o.refused), (1, 1, 1));
        o.percentiles("u", &[1.0; 20], &[("u_p50_us", 0.5)], "us");
        assert_eq!((o.attempted, o.failed), (2, 1), "a supported percentile passes its check");
        o.supported("m_p50_us", 0.5, &[Some(1.0), Some(3.0), Some(2.0)], "us");
        assert_eq!(o.value("m_p50_us"), Some(2.0), "the median over repetitions");
        o.supported("m2_p50_us", 0.5, &[Some(1.0), None], "us");
        assert_eq!((o.value("m2_p50_us"), o.failed), (None, 2), "every repetition supports it");
        let text = o.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 2, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}, \"u_p50_us\": {\"value\": 1.0, \"unit\": \"us\"}, \"m_p50_us\": {\"value\": 2.0, \"unit\": \"us\"}}}"
        );
        assert!(text.contains("samples t n=2"));
    }
}
