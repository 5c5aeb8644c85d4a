//! Direct (record-free) pool synthesis.
//!
//! For very large pools — and for the non-ER `tweets100k` dataset — running
//! the full record-generation + feature-extraction + classification pipeline
//! is unnecessary: OASIS and all baselines consume only the per-item triple
//! *(similarity score, predicted label, true label)*.  The
//! [`DirectPoolModel`] draws those triples from a two-component latent model:
//!
//! * exactly `match_count` items are true matches;
//! * each item carries a latent logit `x = μ_class + σ·ξ` with `ξ ~ N(0, 1)`,
//!   where matches and non-matches have different means `μ`;
//! * the prediction is `sigmoid(x) > threshold` (a margin rule, like an SVM);
//! * the reported *calibrated* score is the Bayes posterior
//!   `P(match | x)` under the generating mixture — calibrated by
//!   construction (paper Definition 3) — while the *uncalibrated* score is
//!   the raw logit `x`, reproducing the raw-SVM-margin regime of Figure 3.
//!
//! The separation `μ_match − μ_non` and the noise `σ` control the classifier
//! operating point (precision/recall).

use oasis::pool::ScoredPool;
use rand::Rng;

/// Configuration of the direct pool generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectPoolConfig {
    /// Number of items (record pairs) in the pool.
    pub pool_size: usize,
    /// Expected number of true matches (the realised count is exact, not
    /// binomial: exactly this many items are matches).
    pub match_count: usize,
    /// Mean logit score of matching items.
    pub match_logit_mean: f64,
    /// Mean logit score of non-matching items.
    pub non_match_logit_mean: f64,
    /// Standard deviation of the logit noise (same for both classes).
    pub logit_noise: f64,
    /// Decision threshold on the (sigmoid) score.
    pub decision_threshold: f64,
    /// If `true`, output raw logits instead of sigmoid scores — the
    /// "uncalibrated SVM decision value" regime.
    pub uncalibrated_scores: bool,
}

impl DirectPoolConfig {
    /// A strongly imbalanced, well-separated configuration (DBLP-ACM-like).
    pub fn easy(pool_size: usize, match_count: usize) -> Self {
        DirectPoolConfig {
            pool_size,
            match_count,
            match_logit_mean: 2.5,
            non_match_logit_mean: -4.0,
            logit_noise: 1.2,
            decision_threshold: 0.5,
            uncalibrated_scores: false,
        }
    }

    /// A harder configuration with overlapping classes (Abt-Buy-like: high
    /// precision, low recall).
    pub fn hard(pool_size: usize, match_count: usize) -> Self {
        DirectPoolConfig {
            pool_size,
            match_count,
            match_logit_mean: 0.3,
            non_match_logit_mean: -4.5,
            logit_noise: 1.6,
            decision_threshold: 0.62,
            uncalibrated_scores: false,
        }
    }

    /// A balanced-classes configuration (tweets100k-like).
    pub fn balanced(pool_size: usize) -> Self {
        DirectPoolConfig {
            pool_size,
            match_count: pool_size / 2,
            match_logit_mean: 1.2,
            non_match_logit_mean: -1.2,
            logit_noise: 1.4,
            decision_threshold: 0.5,
            uncalibrated_scores: false,
        }
    }

    /// Switch to uncalibrated (raw logit) scores.
    pub fn with_uncalibrated_scores(mut self, uncalibrated: bool) -> Self {
        self.uncalibrated_scores = uncalibrated;
        self
    }
}

/// Generator producing [`ScoredPool`]s plus hidden ground truth from a
/// [`DirectPoolConfig`].
#[derive(Debug, Clone, Copy)]
pub struct DirectPoolModel {
    config: DirectPoolConfig,
}

/// Draw a standard normal variate via the Box–Muller transform (the `rand`
/// crate alone does not ship a normal distribution).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl DirectPoolModel {
    /// Create a generator from a configuration.
    pub fn new(config: DirectPoolConfig) -> Self {
        DirectPoolModel { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DirectPoolConfig {
        &self.config
    }

    /// The Bayes posterior probability `P(match | logit)` under the generating
    /// two-component Gaussian mixture — the perfectly calibrated score.
    fn posterior(&self, logit: f64) -> f64 {
        let c = &self.config;
        let prior = c.match_count as f64 / c.pool_size as f64;
        if prior <= 0.0 {
            return 0.0;
        }
        if prior >= 1.0 {
            return 1.0;
        }
        let variance = c.logit_noise * c.logit_noise;
        // log N(x; μ_m, σ) − log N(x; μ_n, σ)
        let log_likelihood_ratio = ((logit - c.non_match_logit_mean).powi(2)
            - (logit - c.match_logit_mean).powi(2))
            / (2.0 * variance);
        let log_odds = log_likelihood_ratio + (prior / (1.0 - prior)).ln();
        sigmoid(log_odds)
    }

    /// Generate a pool and its hidden ground truth.
    ///
    /// # Panics
    /// Panics if `match_count > pool_size` or `pool_size == 0`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> (ScoredPool, Vec<bool>) {
        let c = &self.config;
        assert!(c.pool_size > 0, "pool_size must be positive");
        assert!(
            c.match_count <= c.pool_size,
            "match_count must not exceed pool_size"
        );
        let mut scores = Vec::with_capacity(c.pool_size);
        let mut predictions = Vec::with_capacity(c.pool_size);
        let mut truth = Vec::with_capacity(c.pool_size);
        // Exactly `match_count` matches, placed at random positions.
        let mut is_match = vec![false; c.pool_size];
        // Rejection sampling of distinct positions.
        let mut chosen = std::collections::HashSet::with_capacity(c.match_count);
        while chosen.len() < c.match_count {
            chosen.insert(rng.gen_range(0..c.pool_size));
        }
        for &position in &chosen {
            is_match[position] = true;
        }
        for &matched in &is_match {
            let mean = if matched {
                c.match_logit_mean
            } else {
                c.non_match_logit_mean
            };
            let logit = mean + c.logit_noise * standard_normal(rng);
            let score = if c.uncalibrated_scores {
                logit
            } else {
                self.posterior(logit)
            };
            scores.push(score);
            predictions.push(sigmoid(logit) > c.decision_threshold);
            truth.push(matched);
        }
        let pool = ScoredPool::new(scores, predictions).expect("generated pool is valid");
        (pool, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis::measures::exhaustive_measures;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pool_has_exact_size_and_match_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = DirectPoolModel::new(DirectPoolConfig::easy(5000, 25));
        let (pool, truth) = model.generate(&mut rng);
        assert_eq!(pool.len(), 5000);
        assert_eq!(truth.iter().filter(|&&t| t).count(), 25);
        assert!(pool.scores_are_probabilities());
    }

    #[test]
    fn easy_config_yields_high_precision_and_recall() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = DirectPoolModel::new(DirectPoolConfig::easy(50_000, 500));
        let (pool, truth) = model.generate(&mut rng);
        let m = exhaustive_measures(pool.predictions(), &truth, 0.5);
        assert!(m.precision > 0.85, "precision {}", m.precision);
        assert!(m.recall > 0.85, "recall {}", m.recall);
    }

    #[test]
    fn hard_config_yields_low_recall() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = DirectPoolModel::new(DirectPoolConfig::hard(50_000, 500));
        let (pool, truth) = model.generate(&mut rng);
        let m = exhaustive_measures(pool.predictions(), &truth, 0.5);
        assert!(m.recall < 0.7, "recall {}", m.recall);
        assert!(m.precision > 0.6, "precision {}", m.precision);
        assert!(m.f_measure < 0.8);
    }

    #[test]
    fn balanced_config_is_roughly_balanced() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = DirectPoolModel::new(DirectPoolConfig::balanced(10_000));
        let (pool, truth) = model.generate(&mut rng);
        let matches = truth.iter().filter(|&&t| t).count();
        assert_eq!(matches, 5000);
        let m = exhaustive_measures(pool.predictions(), &truth, 0.5);
        assert!(m.f_measure > 0.6 && m.f_measure < 0.95);
    }

    #[test]
    fn uncalibrated_scores_leave_probability_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = DirectPoolConfig::easy(2000, 50).with_uncalibrated_scores(true);
        let (pool, _) = DirectPoolModel::new(config).generate(&mut rng);
        assert!(!pool.scores_are_probabilities());
    }

    #[test]
    fn calibrated_scores_are_roughly_calibrated() {
        // Bin items by score; the empirical match rate per bin should be close
        // to the bin's mean score (Definition 3 in the paper).
        let mut rng = StdRng::seed_from_u64(6);
        let config = DirectPoolConfig {
            pool_size: 200_000,
            match_count: 20_000,
            match_logit_mean: 1.0,
            non_match_logit_mean: -3.0,
            logit_noise: 1.5,
            decision_threshold: 0.5,
            uncalibrated_scores: false,
        };
        let (pool, truth) = DirectPoolModel::new(config).generate(&mut rng);
        let bins = 10usize;
        let mut bin_score_sum = vec![0.0; bins];
        let mut bin_match_sum = vec![0.0; bins];
        let mut bin_count = vec![0usize; bins];
        for (i, &s) in pool.scores().iter().enumerate() {
            let b = ((s * bins as f64) as usize).min(bins - 1);
            bin_score_sum[b] += s;
            bin_match_sum[b] += f64::from(u8::from(truth[i]));
            bin_count[b] += 1;
        }
        for b in 0..bins {
            if bin_count[b] > 500 {
                let mean_score = bin_score_sum[b] / bin_count[b] as f64;
                let match_rate = bin_match_sum[b] / bin_count[b] as f64;
                assert!(
                    (mean_score - match_rate).abs() < 0.15,
                    "bin {b}: mean score {mean_score:.3} vs match rate {match_rate:.3}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "match_count")]
    fn match_count_larger_than_pool_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        DirectPoolModel::new(DirectPoolConfig::easy(10, 20)).generate(&mut rng);
    }

    #[test]
    fn standard_normal_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = draws.iter().sum::<f64>() / n as f64;
        let variance: f64 = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.1, "variance {variance}");
    }
}
