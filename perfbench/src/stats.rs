//! Order statistics over latency samples, and the tail-percentile rule.

/// Percentiles the tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples (0 when
/// there are none).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Samples strictly ranked beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The tail percentile to report for `n` samples: the highest ladder entry
/// at or below `cap` that leaves at least [`TAIL_MIN_BEYOND`] samples beyond
/// it. `cap` pins the percentile per workload, so that run-to-run changes in
/// the sample count do not switch the reported percentile; the rule only
/// ever lowers it. `None` when even the median leaves too few samples.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| samples_beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Relative range `(max − min) / median` of `values`; 0 when the median is 0.
pub fn relative_range(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Latency summary of one closed-loop phase.
#[derive(Debug, Clone)]
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_percentile: f64,
    pub tail_beyond: usize,
}

/// Summarises latency samples (milliseconds), with the tail percentile
/// capped at `tail_cap`. `None` when there are too few samples for any
/// tail percentile.
pub fn summarize(samples_ms: &[f64], tail_cap: f64) -> Option<Latency> {
    let p = tail_percentile(samples_ms.len(), tail_cap)?;
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Latency {
        p50_ms: median(&sorted),
        tail_ms: percentile_sorted(&sorted, p),
        tail_percentile: p,
        tail_beyond: samples_beyond(sorted.len(), p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond_and_is_the_highest_allowed() {
        for n in 20..5000 {
            let p = tail_percentile(n, 99.9).expect("20 samples suffice for the median");
            assert!(samples_beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            // No higher ladder entry would also satisfy the rule.
            for &higher in TAIL_LADDER.iter().filter(|&&q| q > p) {
                assert!(
                    samples_beyond(n, higher) < TAIL_MIN_BEYOND,
                    "n={n} {higher}"
                );
            }
        }
    }

    #[test]
    fn tail_cap_only_lowers_the_percentile() {
        assert_eq!(tail_percentile(10_000, 90.0), Some(90.0));
        assert_eq!(tail_percentile(150, 95.0), Some(90.0));
        assert_eq!(tail_percentile(19, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn summary_reports_the_value_at_the_chosen_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&samples, 99.9).expect("enough samples");
        assert_eq!(s.tail_percentile, 95.0);
        assert_eq!(s.tail_ms, 190.0);
        assert_eq!(s.tail_beyond, 10);
        assert_eq!(s.p50_ms, 100.5);
    }
}
