//! Order statistics for latency samples: nearest-rank percentiles and the
//! "ten samples beyond" rule for choosing a reportable tail.

/// Sorts samples ascending (total order, so NaN cannot poison a sort).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `pct` percent of the samples are `<=` it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank (the lower middle on even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// How many samples lie strictly beyond the nearest-rank `pct` position.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(usize::from(n > 0), n)
}

/// The tail percentiles a run may report, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile is reportable only with at least this many samples
/// beyond it; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond it, with its value. Falls back to the
/// median when even that is not covered, so the metric always exists.
pub fn reportable_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(sorted.len(), p) >= MIN_BEYOND)
        .unwrap_or(50.0);
    percentile(sorted, pct).map(|v| (pct, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let s = sorted(vec![35.0, 20.0, 15.0, 50.0, 40.0]);
        assert_eq!(percentile(&s, 5.0), Some(15.0));
        assert_eq!(percentile(&s, 30.0), Some(20.0));
        assert_eq!(percentile(&s, 40.0), Some(20.0));
        assert_eq!(percentile(&s, 50.0), Some(35.0));
        assert_eq!(percentile(&s, 100.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reportable_tail(&s), Some((90.0, 90.0)));
        // 1000 samples reach p99; 200 reach p95.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable_tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(reportable_tail(&s), Some((95.0, 190.0)));
        // 15 samples cover nothing above the median: fall back to it.
        let s: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(reportable_tail(&s), Some((50.0, 8.0)));
        assert_eq!(reportable_tail(&[]), None);
    }
}
