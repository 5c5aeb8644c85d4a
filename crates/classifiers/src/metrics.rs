//! Classification metrics used when fitting and comparing classifiers.
//!
//! These are *training-side* conveniences; the evaluation-side measures used
//! by the samplers live in `oasis::measures` — duplicated here only to keep
//! the classifiers crate free of a dependency on the sampler crate.

/// Accuracy of predictions against labels.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn accuracy(predictions: &[bool], labels: &[bool]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty inputs");
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / predictions.len() as f64
}

/// Balanced F-measure (F1) of predictions against labels; 0 when undefined.
pub fn f1_score(predictions: &[bool], labels: &[bool]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fn_ = 0.0;
    for (&p, &l) in predictions.iter().zip(labels.iter()) {
        match (p, l) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fn_ += 1.0,
            (false, false) => {}
        }
    }
    let denom = 2.0 * tp + fp + fn_;
    if denom > 0.0 {
        2.0 * tp / denom
    } else {
        0.0
    }
}

/// Area under the ROC curve of scores against labels, by the rank-sum
/// (Mann–Whitney) formulation.  Returns 0.5 when one class is absent.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    if positives == 0 || negatives == 0 {
        return 0.5;
    }
    // Sum of ranks of the positive class, with average ranks for ties.
    let mut rank_sum = 0.0;
    let mut i = 0usize;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let average_rank = (i + j) as f64 / 2.0 + 1.0;
        for &index in &order[i..=j] {
            if labels[index] {
                rank_sum += average_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum - positives as f64 * (positives as f64 + 1.0) / 2.0)
        / (positives as f64 * negatives as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(
            accuracy(&[true, false, true], &[true, true, true]),
            2.0 / 3.0
        );
        assert_eq!(accuracy(&[true], &[true]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        accuracy(&[true], &[true, false]);
    }

    #[test]
    fn f1_basic() {
        // TP=1, FP=1, FN=1 → F1 = 2/(2+1+1) = 0.5
        assert_eq!(f1_score(&[true, true, false], &[true, false, true]), 0.5);
        assert_eq!(f1_score(&[false, false], &[false, false]), 0.0);
        assert_eq!(f1_score(&[true, true], &[true, true]), 1.0);
    }

    #[test]
    fn auc_perfect_and_random() {
        let labels = [true, true, false, false];
        assert_eq!(roc_auc(&[0.9, 0.8, 0.2, 0.1], &labels), 1.0);
        assert_eq!(roc_auc(&[0.1, 0.2, 0.8, 0.9], &labels), 0.0);
        // All-tied scores → 0.5 by the average-rank convention.
        assert_eq!(roc_auc(&[0.5, 0.5, 0.5, 0.5], &labels), 0.5);
        // Single class → 0.5 by convention.
        assert_eq!(roc_auc(&[0.3, 0.7], &[true, true]), 0.5);
    }

    #[test]
    fn auc_handles_partial_ordering() {
        let labels = [true, false, true, false, false];
        let scores = [0.9, 0.7, 0.6, 0.4, 0.2];
        // Positives ranked 1st and 3rd of 5: AUC = (number of correctly ordered
        // pos/neg pairs) / (2·3) = 5/6.
        assert!((roc_auc(&scores, &labels) - 5.0 / 6.0).abs() < 1e-12);
    }
}
