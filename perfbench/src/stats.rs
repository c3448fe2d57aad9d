//! Order statistics, the result line, and failure accounting.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` (0 < q <= 1) of all samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    let rank = nearest_rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// [`percentile`], reported only when at least `min_beyond` samples lie
/// beyond the percentile's rank; otherwise the tail is too thin to
/// estimate and the result is `None`.
pub fn tail_percentile(values: &[f64], q: f64, min_beyond: usize) -> Option<f64> {
    let rank = nearest_rank(values.len(), q)?;
    if values.len() - rank < min_beyond {
        return None;
    }
    percentile(values, q)
}

fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Whether `name` is a legal metric name: non-empty, made only of
/// ASCII letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Attempted operations and the ones whose output check failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; it failed when any of its checks did. Each
    /// failed check is reported on stderr.
    pub fn record(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("check failed ({what}): {f}");
            }
        }
    }
}

/// Push a failure message onto `failures` unless `ok`.
pub fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Errors on an invalid or repeated name or a non-finite value.
    pub fn result_line(&self, tally: &Tally) -> Result<String, String> {
        let mut out = String::new();
        let correct = tally.failed == 0 && tally.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted, tally.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            if self.0[..i].iter().any(|(n, _, _)| n == name) {
                return Err(format!("metric {name} reported twice"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// FNV-1a 64 digest, for pinning rendered outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// A field of `/proc/self/status` (e.g. `VmHWM`) in MiB; 0 where the
/// file or field is unavailable.
pub fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_tied_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 5.0, 5.0, 1.0]), Some(5.0));
        assert_eq!(median(&[2.0, 2.0]), Some(2.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_handles_ties() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0, 7.0, 7.0, 9.0], 0.75), Some(7.0));
        assert_eq!(percentile(&[7.0, 7.0, 7.0, 9.0], 0.76), Some(9.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 0.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99, 10), Some(989.0));
        assert_eq!(tail_percentile(&v[..999], 0.99, 10), None);
        assert_eq!(tail_percentile(&v[..100], 0.99, 10), None);
        // Ties in the tail still count as samples beyond the rank.
        let tied = vec![1.0; 2000];
        assert_eq!(tail_percentile(&tied, 0.99, 10), Some(1.0));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in ["wall_s", "serve.load_ms.report", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "wall s", "p99%", "rss/mib", "naïve", "x\"y"] {
            assert!(!valid_name(bad), "{bad}");
        }
        let mut m = Metrics::default();
        m.push("bad name", 1.0, "s");
        assert!(m.result_line(&Tally { attempted: 1, failed: 0 }).is_err());
    }

    #[test]
    fn result_line_rejects_repeats_and_non_finite_values() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.0, "s");
        m.push("wall_s", 2.0, "s");
        assert!(m.result_line(&Tally { attempted: 1, failed: 0 }).is_err());
        let mut m = Metrics::default();
        m.push("wall_s", f64::NAN, "s");
        assert!(m.result_line(&Tally { attempted: 1, failed: 0 }).is_err());
    }

    #[test]
    fn output_mismatch_counts_as_failure() {
        let mut tally = Tally::default();
        let mut failures = Vec::new();
        check(&mut failures, "abc" == "abc", || "equal".into());
        tally.record("pass", &failures);
        check(&mut failures, "abc" == "abd", || "body differs".into());
        tally.record("pass", &failures);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        let mut m = Metrics::default();
        m.push("wall_s", 1.5, "s");
        let line = m.result_line(&tally).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
