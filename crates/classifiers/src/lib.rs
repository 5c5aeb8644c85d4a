//! # classifiers — record-pair classifiers built from scratch
//!
//! The scoring stage of the paper's ER pipeline (Section 6.1.2) and the five
//! classifier families used in its Figure 5 comparison: a linear SVM, logistic
//! regression, a one-hidden-layer neural network, AdaBoost over decision
//! stumps, and an RBF-kernel SVM approximated with random Fourier features.
//! Platt scaling provides the calibrated scores of Section 6.3.2.
//!
//! All classifiers implement the [`Classifier`] trait: they are trained on a
//! labelled [`TrainingSet`] of similarity feature vectors and then emit a
//! real-valued score per pair; higher means "more likely a match".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaboost;
pub mod calibration;
pub mod dataset;
pub mod linalg;
pub mod linear_svm;
pub mod logistic;
pub mod metrics;
pub mod mlp;
pub mod rbf_svm;

pub use adaboost::AdaBoostClassifier;
pub use calibration::PlattScaler;
pub use dataset::{train_test_split, TrainingSet};
pub use linear_svm::LinearSvm;
pub use logistic::LogisticRegression;
pub use mlp::MlpClassifier;
pub use rbf_svm::RbfSvm;

/// A trained record-pair classifier producing real-valued match scores.
pub trait Classifier {
    /// Score a feature vector; higher scores mean "more likely a match".
    fn score(&self, features: &[f64]) -> f64;

    /// Predict a label by thresholding the score at the classifier's natural
    /// decision boundary (0 for margin-based scores, 0.5 for probabilities).
    fn predict(&self, features: &[f64]) -> bool {
        self.score(features) > self.decision_threshold()
    }

    /// The classifier's natural decision threshold on its score scale.
    fn decision_threshold(&self) -> f64;

    /// A short human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Whether the scores are probabilities in `[0, 1]` (calibrated-ish) or
    /// unbounded margins.
    fn scores_are_probabilities(&self) -> bool;
}
