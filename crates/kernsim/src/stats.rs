//! Measurement statistics in the paper's reporting style: means over
//! repeated runs with relative standard deviations in parentheses.

use std::time::{Duration, Instant};

/// A sample of repeated timing runs.
///
/// Alongside the paper's mean-and-relative-deviation presentation, the
/// sample keeps the *minimum* run. On a contended host (this
/// reproduction often runs inside a shared container) the mean is
/// inflated by preemption; the minimum is the standard estimator of the
/// uncontended cost, so the tables normalize on [`Sample::best_ns`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Mean time per run, in nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation as a percentage of the mean (the paper's
    /// parenthesized figure).
    pub std_pct: f64,
    /// Fastest run, in nanoseconds.
    pub min_ns: f64,
    /// Median run, in nanoseconds.
    pub median_ns: f64,
    /// Number of runs.
    pub runs: usize,
}

impl Sample {
    /// Builds a sample from raw per-run durations.
    pub fn from_runs(runs: &[Duration]) -> Sample {
        assert!(!runs.is_empty(), "no runs to summarize");
        let mut ns: Vec<f64> = runs.iter().map(|d| d.as_nanos() as f64).collect();
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        let var = ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / ns.len() as f64;
        let std = var.sqrt();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        Sample {
            mean_ns: mean,
            std_pct: if mean > 0.0 { 100.0 * std / mean } else { 0.0 },
            min_ns: ns[0],
            median_ns: ns[ns.len() / 2],
            runs: ns.len(),
        }
    }

    /// The headline estimate: the fastest observed run (robust against
    /// scheduler preemption on shared hosts).
    pub fn best_ns(&self) -> f64 {
        self.min_ns
    }

    /// The headline estimate as a [`Duration`].
    pub fn best(&self) -> Duration {
        Duration::from_nanos(self.min_ns as u64)
    }

    /// Rescales the sample to a per-sub-iteration cost: when each timed
    /// iteration performed `n` inner operations (a batched round trip of
    /// `n` calls, say), `per(n)` reports the cost of one operation. The
    /// relative deviation is unchanged by the rescale.
    pub fn per(self, n: usize) -> Sample {
        assert!(n > 0);
        let d = n as f64;
        Sample {
            mean_ns: self.mean_ns / d,
            min_ns: self.min_ns / d,
            median_ns: self.median_ns / d,
            ..self
        }
    }

    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1_000.0
    }

    /// Mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1_000_000.0
    }

    /// Formats as the paper does: `12.3µs (1.4%)`.
    pub fn paper_style(&self) -> String {
        format!("{} ({:.1}%)", fmt_ns(self.mean_ns), self.std_pct)
    }

    /// Formats the robust estimate with the noisy mean in context:
    /// `12.3µs [mean 15.0µs (42%)]`.
    pub fn robust_style(&self) -> String {
        format!(
            "{} [mean {} ({:.0}%)]",
            fmt_ns(self.min_ns),
            fmt_ns(self.mean_ns),
            self.std_pct
        )
    }
}

/// Formats nanoseconds with a readable unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 10_000.0 {
        format!("{ns:.1}ns")
    } else if ns < 10_000_000.0 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Times `runs` invocations of `f` (each may loop internally) and
/// summarizes them.
pub fn measure<F: FnMut()>(runs: usize, mut f: F) -> Sample {
    assert!(runs > 0);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    Sample::from_runs(&samples)
}

/// Times `runs` runs of `iters` iterations each and reports the mean
/// per-iteration time, the paper's "mean of 30 runs of 100,000 searches"
/// structure. One untimed warm-up run precedes the timed ones so cold
/// caches and branch predictors do not contaminate the first sample.
pub fn measure_per_iter<F: FnMut()>(runs: usize, iters: usize, mut f: F) -> Sample {
    measure_counted(runs, iters, &mut (), |_| f(), |_| 0).0
}

/// [`measure_per_iter`] over a `state` the iterations advance, also
/// returning how far `count(state)` grew during the timed runs alone
/// (say, graft invocations): the warm-up's share is left out, so a
/// phase whose timed iterations never reach the work it names reads 0.
pub fn measure_counted<S>(
    runs: usize,
    iters: usize,
    state: &mut S,
    mut f: impl FnMut(&mut S),
    count: impl Fn(&S) -> u64,
) -> (Sample, u64) {
    assert!(runs > 0 && iters > 0);
    for _ in 0..iters.min(1_000) {
        f(state);
    }
    let before = count(state);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        for _ in 0..iters {
            f(state);
        }
        samples.push(start.elapsed() / iters as u32);
    }
    (Sample::from_runs(&samples), count(state) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counted_counts_only_the_timed_runs() {
        let (sample, timed) = measure_counted(3, 10, &mut 0u64, |n| *n += 1, |n| *n);
        assert_eq!(sample.runs, 3);
        assert_eq!(timed, 30, "the 10 warm-up iterations are not timed");
    }

    #[test]
    fn constant_runs_have_zero_deviation() {
        let s = Sample::from_runs(&[Duration::from_micros(10); 5]);
        assert_eq!(s.mean_us(), 10.0);
        assert_eq!(s.std_pct, 0.0);
        assert_eq!(s.runs, 5);
        assert_eq!(s.min_ns, 10_000.0);
        assert_eq!(s.median_ns, 10_000.0);
    }

    #[test]
    fn min_and_median_are_robust_to_outliers() {
        let s = Sample::from_runs(&[
            Duration::from_micros(10),
            Duration::from_micros(11),
            Duration::from_micros(500), // preempted run
        ]);
        assert_eq!(s.best_ns(), 10_000.0);
        assert_eq!(s.median_ns, 11_000.0);
        assert!(s.mean_ns > 100_000.0);
    }

    #[test]
    fn deviation_is_relative() {
        let s = Sample::from_runs(&[Duration::from_micros(8), Duration::from_micros(12)]);
        assert_eq!(s.mean_us(), 10.0);
        assert!((s.std_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn paper_style_picks_sane_units() {
        let us = Sample::from_runs(&[Duration::from_nanos(25_800)]);
        assert!(us.paper_style().starts_with("25.8µs"));
        let ms = Sample::from_runs(&[Duration::from_micros(25_100)]);
        assert!(ms.paper_style().starts_with("25.1ms"));
    }

    #[test]
    fn single_run_is_its_own_mean_min_and_median() {
        let s = Sample::from_runs(&[Duration::from_micros(7)]);
        assert_eq!(s.runs, 1);
        assert_eq!(s.mean_ns, 7_000.0);
        assert_eq!(s.min_ns, 7_000.0);
        assert_eq!(s.median_ns, 7_000.0);
        assert_eq!(s.std_pct, 0.0);
        assert_eq!(s.best(), Duration::from_micros(7));
    }

    #[test]
    fn zero_duration_runs_do_not_divide_by_zero() {
        // A sub-resolution measurement (all zeros) must not make
        // std_pct NaN: the mean-is-zero guard pins it to 0.
        let s = Sample::from_runs(&[Duration::ZERO; 4]);
        assert_eq!(s.mean_ns, 0.0);
        assert_eq!(s.std_pct, 0.0);
        assert!(!s.std_pct.is_nan());
        assert_eq!(s.best(), Duration::ZERO);
    }

    #[test]
    fn std_pct_stays_finite_for_mixed_zero_and_nonzero() {
        let s = Sample::from_runs(&[Duration::ZERO, Duration::from_nanos(2)]);
        assert!(s.std_pct.is_finite());
        assert_eq!(s.min_ns, 0.0);
        assert_eq!(s.runs, 2);
    }

    #[test]
    fn fmt_ns_covers_every_unit_band() {
        assert_eq!(fmt_ns(999.0), "999.0ns");
        assert_eq!(fmt_ns(25_800.0), "25.8µs");
        assert_eq!(fmt_ns(25_100_000.0), "25.1ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50s");
    }

    #[test]
    fn robust_style_leads_with_the_minimum() {
        let s = Sample::from_runs(&[
            Duration::from_micros(10),
            Duration::from_micros(500),
        ]);
        let text = s.robust_style();
        assert!(text.starts_with("10.0µs [mean "), "{text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    fn measure_runs_the_closure() {
        let mut count = 0;
        let s = measure(3, || count += 1);
        assert_eq!(count, 3);
        assert_eq!(s.runs, 3);
    }

    #[test]
    fn measure_per_iter_divides_by_iterations() {
        let mut count = 0;
        let s = measure_per_iter(2, 50, || count += 1);
        // 50 warm-up iterations plus 2 timed runs of 50.
        assert_eq!(count, 150);
        assert_eq!(s.runs, 2);
    }
}
