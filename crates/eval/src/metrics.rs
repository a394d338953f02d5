//! Binary-classification metrics.

/// Metrics of a thresholded binary classifier plus ranking AUC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Fraction of correct decisions.
    pub accuracy: f64,
    /// Precision of the positive class (`tp / (tp + fp)`, 0 when empty).
    pub precision: f64,
    /// Recall of the positive class (`tp / (tp + fn)`, 0 when empty).
    pub recall: f64,
    /// Harmonic mean of precision and recall (0 when both are 0).
    pub f1: f64,
    /// Area under the ROC curve (0.5 for a random ranker).
    pub auc: f64,
    /// Number of scored pairs.
    pub n: usize,
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "acc={:.2}% f1={:.2}% (p={:.2}% r={:.2}% auc={:.3}, n={})",
            self.accuracy * 100.0,
            self.f1 * 100.0,
            self.precision * 100.0,
            self.recall * 100.0,
            self.auc,
            self.n
        )
    }
}

/// Computes accuracy/precision/recall/F1 at the given score threshold, plus
/// AUC (threshold-free).
///
/// # Panics
///
/// Panics if lengths differ or any score is NaN.
pub fn binary_metrics(scores: &[f32], labels: &[bool], threshold: f32) -> Metrics {
    assert_eq!(
        scores.len(),
        labels.len(),
        "binary_metrics: {} scores vs {} labels",
        scores.len(),
        labels.len()
    );
    assert!(
        scores.iter().all(|s| !s.is_nan()),
        "binary_metrics: NaN score"
    );
    let (mut tp, mut fp, mut tn, mut fne) = (0usize, 0usize, 0usize, 0usize);
    for (&s, &y) in scores.iter().zip(labels) {
        match (s >= threshold, y) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, false) => tn += 1,
            (false, true) => fne += 1,
        }
    }
    let n = scores.len();
    let accuracy = if n == 0 {
        0.0
    } else {
        (tp + tn) as f64 / n as f64
    };
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fne == 0 {
        0.0
    } else {
        tp as f64 / (tp + fne) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Metrics {
        accuracy,
        precision,
        recall,
        f1,
        auc: auc(scores, labels),
        n,
    }
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney) formulation,
/// with midrank handling for tied scores. Returns 0.5 when either class is
/// empty (the uninformative default).
pub fn auc(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(
        scores.len(),
        labels.len(),
        "auc: {} scores vs {} labels",
        scores.len(),
        labels.len()
    );
    let n_pos = labels.iter().filter(|&&y| y).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .expect("NaN scores rejected by caller")
    });
    // Midranks over ties.
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = midrank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels)
        .filter_map(|(&r, &y)| y.then_some(r))
        .sum();
    (rank_sum_pos - n_pos as f64 * (n_pos as f64 + 1.0) / 2.0) / (n_pos as f64 * n_neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let m = binary_metrics(&[0.9, 0.8, 0.1, 0.2], &[true, true, false, false], 0.5);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.auc, 1.0);
        assert_eq!(m.n, 4);
    }

    #[test]
    fn inverted_classifier() {
        let m = binary_metrics(&[0.1, 0.2, 0.9, 0.8], &[true, true, false, false], 0.5);
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(m.auc, 0.0);
    }

    #[test]
    fn all_positive_predictions() {
        let m = binary_metrics(&[0.9, 0.9, 0.9], &[true, false, false], 0.5);
        assert!((m.precision - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.recall, 1.0);
        assert!((m.accuracy - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn f1_is_zero_when_nothing_predicted_positive() {
        let m = binary_metrics(&[0.1, 0.1], &[true, false], 0.5);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn auc_of_random_interleaving_is_half() {
        let scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let labels = [false, true, false, true, false, true, false, true];
        let a = auc(&scores, &labels);
        assert!(
            (a - 0.625).abs() < 1e-12,
            "alternating gives 0.625, got {a}"
        );
        // Truly balanced interleaving: pos/neg alternate with equal gaps.
        let labels2 = [true, false, true, false, true, false, true, false];
        let b = auc(&scores, &labels2);
        assert!(((a + b) / 2.0 - 0.5).abs() < 1e-12, "symmetry around 0.5");
    }

    #[test]
    fn auc_with_ties_uses_midranks() {
        // All scores identical → AUC must be exactly 0.5.
        let a = auc(&[0.5, 0.5, 0.5, 0.5], &[true, false, true, false]);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(auc(&[0.4, 0.6], &[true, true]), 0.5);
        assert_eq!(auc(&[], &[]), 0.5);
    }

    #[test]
    fn display_is_compact() {
        let m = binary_metrics(&[0.9, 0.1], &[true, false], 0.5);
        let s = m.to_string();
        assert!(s.contains("acc=100.00%"));
    }

    #[test]
    #[should_panic(expected = "NaN score")]
    fn rejects_nan_scores() {
        binary_metrics(&[f32::NAN], &[true], 0.5);
    }
}
