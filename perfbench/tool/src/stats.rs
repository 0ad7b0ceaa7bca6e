//! Order statistics and the benchmark's result document.

use impact_support::json::Json;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or `p` outside `(0, 100]`.
#[must_use]
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of `p`.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, one outlier would decide it.
pub const MIN_BEYOND: usize = 10;

/// Whether percentile `p` of `n` samples is backed by [`MIN_BEYOND`]
/// samples beyond it.
#[must_use]
pub fn tail_reportable(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// Full windows of `window` consecutive samples (the whole sample when
/// it holds less than two windows).
fn windows(samples: &[u64], window: usize) -> Vec<&[u64]> {
    if samples.len() < 2 * window {
        return vec![samples];
    }
    samples.chunks_exact(window).collect()
}

/// Closed-loop throughput, per second, of per-request latencies in
/// request order: by Little's law `conns` clients that each wait for
/// their reply complete `conns / mean latency` requests per second. The
/// median over windows of `window` requests, so a stall confined to a
/// few windows does not move it.
#[must_use]
pub fn windowed_rate(latencies_ns: &[u64], conns: usize, window: usize) -> f64 {
    let rates: Vec<f64> = windows(latencies_ns, window)
        .iter()
        .map(|w| conns as f64 * w.len() as f64 * 1e9 / w.iter().sum::<u64>() as f64)
        .collect();
    median_f64(&rates)
}

/// Median over windows of `window` requests of each window's
/// nearest-rank percentile `p`.
///
/// # Panics
///
/// Panics when a window leaves fewer than [`MIN_BEYOND`] samples beyond
/// `p`.
#[must_use]
pub fn windowed_percentile(latencies_ns: &[u64], p: f64, window: usize) -> f64 {
    let values: Vec<f64> = windows(latencies_ns, window)
        .iter()
        .map(|w| {
            assert!(
                tail_reportable(w.len(), p),
                "{} samples leave fewer than {MIN_BEYOND} beyond p{p}",
                w.len()
            );
            let mut w = w.to_vec();
            w.sort_unstable();
            nearest_rank(&w, p) as f64
        })
        .collect();
    median_f64(&values)
}

/// Median of a small sample of seconds (mean of the middle pair for an
/// even count).
#[must_use]
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether `name` is a legal metric name: a letter or digit first, then
/// at most 63 more of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// One run's outcome: operations attempted and failed, plus metrics in
/// insertion order.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a malformed or repeated name, or a non-finite value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Recorded metric names and units, in order.
    pub fn metrics(&self) -> impl Iterator<Item = (&str, &str)> {
        self.metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), u.as_str()))
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Counts one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The one-line result document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let m = Json::Obj(vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::Str(unit.clone())),
                ]);
                (name.clone(), m)
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".to_string(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50);
        assert_eq!(nearest_rank(&v, 99.0), 99);
        assert_eq!(nearest_rank(&v, 100.0), 100);
        assert_eq!(nearest_rank(&[7], 50.0), 7);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
        // 50% of 4 samples is rank 2; 51% needs rank 3.
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(nearest_rank(&[1, 2, 3, 4], 51.0), 3);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_reportable(1000, 99.0));
        assert_eq!(samples_beyond(999, 99.0), 10 - 1);
        assert!(!tail_reportable(999, 99.0));
        assert!(!tail_reportable(1, 99.0));
        assert!(!tail_reportable(0, 99.0));
        // The median of 21 samples has 10 beyond it.
        assert!(tail_reportable(21, 50.0));
        assert!(tail_reportable(20, 50.0));
        assert!(!tail_reportable(19, 50.0));
    }

    #[test]
    fn windowed_estimates_ignore_a_stalled_window() {
        // Four windows of 1 ms requests on 2 connections; one window
        // holds a 1 s stall.
        let mut lat = vec![1_000_000u64; 400];
        lat[150] = 1_000_000_000;
        assert_eq!(windowed_rate(&lat, 2, 100), 2000.0);
        let p99 = windowed_percentile(&vec![5u64; 2000], 99.0, 1000);
        assert_eq!(p99, 5.0);
        // Fewer than two windows: the whole sample is one window.
        assert_eq!(windowed_rate(&lat[..150], 1, 100), 1000.0);
    }

    #[test]
    #[should_panic(expected = "fewer than 10 beyond")]
    fn windowed_tails_need_ten_samples_beyond() {
        let _ = windowed_percentile(&[1u64; 999], 99.0, 999);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in ["wall_s", "profile.ms", "serve.http_parse_us", "p99-x", "9a"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "lat%", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn failed_ops_make_the_run_incorrect() {
        let mut r = Report::default();
        r.op(true);
        assert_eq!(r.to_json().get("correct"), Some(&Json::Bool(true)));
        r.op(false);
        let doc = r.to_json();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
    }
}
