//! Repeated-run error curves: expected absolute error and standard deviation
//! of the F-measure estimate as a function of the consumed label budget
//! (the quantities plotted in the paper's Figures 2 and 3).

use crate::methods::Method;
use crate::pools::ExperimentPool;
use oasis::oracle::{GroundTruthOracle, Oracle};
use oasis::samplers::{InteractiveSampler, Sampler};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::thread;

/// Configuration of a curve experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveConfig {
    /// Label budgets at which the estimate is recorded (checkpoints).
    pub checkpoints: Vec<usize>,
    /// Number of independent repeats per method.
    pub repeats: usize,
    /// F-measure weight α.
    pub alpha: f64,
    /// Base RNG seed; repeat `r` uses `seed + r`.
    pub seed: u64,
    /// Number of worker threads for the repeats (1 = sequential).
    pub threads: usize,
}

impl CurveConfig {
    /// Evenly spaced checkpoints from `step` to `max_budget`.
    pub fn with_linear_checkpoints(max_budget: usize, step: usize, repeats: usize) -> Self {
        let step = step.max(1);
        let checkpoints = (1..=max_budget / step).map(|i| i * step).collect();
        CurveConfig {
            checkpoints,
            repeats,
            alpha: 0.5,
            seed: 2017,
            threads: 4,
        }
    }
}

/// The curve of one method on one pool.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCurve {
    /// The method's display label.
    pub label: String,
    /// The label budgets of the checkpoints.
    pub budgets: Vec<usize>,
    /// Expected absolute error `E|F̂ − F|` at each checkpoint (NaN when no
    /// repeat had a defined estimate).
    pub absolute_error: Vec<f64>,
    /// Standard deviation of the estimate at each checkpoint.
    pub std_dev: Vec<f64>,
    /// Fraction of repeats with a defined (non-NaN) estimate at each
    /// checkpoint — the paper only plots points where this exceeds 95%.
    pub defined_fraction: Vec<f64>,
}

impl MethodCurve {
    /// The smallest budget at which at least `fraction` of the repeats had a
    /// defined estimate (the paper's plotting-start convention with 0.95).
    pub fn first_defined_budget(&self, fraction: f64) -> Option<usize> {
        self.budgets
            .iter()
            .zip(self.defined_fraction.iter())
            .find(|(_, &f)| f >= fraction)
            .map(|(&b, _)| b)
    }

    /// The absolute error at the final checkpoint.
    pub fn final_error(&self) -> f64 {
        *self.absolute_error.last().unwrap_or(&f64::NAN)
    }
}

/// Record the estimate trajectory of one run at the requested checkpoints.
fn run_once(pool: &ExperimentPool, method: Method, config: &CurveConfig, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = method
        .build(&pool.pool, config.alpha, pool.score_threshold)
        .expect("method configuration is valid for this pool");
    let mut oracle = GroundTruthOracle::new(pool.truth.clone());
    let mut estimates = Vec::with_capacity(config.checkpoints.len());
    let max_budget = *config.checkpoints.last().unwrap_or(&0);
    let mut next_checkpoint = 0usize;
    // Hard cap on iterations: with-replacement draws can revisit labelled
    // items, so allow a multiple of the budget (the estimate is carried
    // forward for any checkpoints not reached before the cap).
    let max_iterations = max_budget.saturating_mul(10).max(1000);
    let mut iterations = 0usize;
    while next_checkpoint < config.checkpoints.len() && iterations < max_iterations {
        sampler
            .step(&pool.pool, &mut oracle, &mut rng)
            .expect("sampling step cannot fail on a valid pool");
        iterations += 1;
        while next_checkpoint < config.checkpoints.len()
            && oracle.labels_consumed() >= config.checkpoints[next_checkpoint]
        {
            estimates.push(sampler.estimate().f_measure);
            next_checkpoint += 1;
        }
    }
    // If the pool was exhausted before reaching later checkpoints, carry the
    // final estimate forward (the estimate can no longer change).
    while estimates.len() < config.checkpoints.len() {
        estimates.push(sampler.estimate().f_measure);
    }
    estimates
}

/// Run the repeated-run experiment for one method.
pub fn method_curve(pool: &ExperimentPool, method: Method, config: &CurveConfig) -> MethodCurve {
    let repeats = config.repeats.max(1);
    let trajectories: Vec<Vec<f64>> = if config.threads <= 1 || repeats == 1 {
        (0..repeats)
            .map(|r| run_once(pool, method, config, config.seed + r as u64))
            .collect()
    } else {
        let collected = Mutex::new(vec![Vec::new(); repeats]);
        let threads = config.threads.min(repeats);
        thread::scope(|scope| {
            for worker in 0..threads {
                let collected = &collected;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for r in (worker..repeats).step_by(threads) {
                        local.push((r, run_once(pool, method, config, config.seed + r as u64)));
                    }
                    let mut guard = collected.lock();
                    for (r, trajectory) in local {
                        guard[r] = trajectory;
                    }
                });
            }
        });
        collected.into_inner()
    };

    let checkpoints = config.checkpoints.len();
    let mut absolute_error = Vec::with_capacity(checkpoints);
    let mut std_dev = Vec::with_capacity(checkpoints);
    let mut defined_fraction = Vec::with_capacity(checkpoints);
    for c in 0..checkpoints {
        let values: Vec<f64> = trajectories
            .iter()
            .map(|t| t[c])
            .filter(|v| v.is_finite())
            .collect();
        let defined = values.len();
        defined_fraction.push(defined as f64 / repeats as f64);
        if defined == 0 {
            absolute_error.push(f64::NAN);
            std_dev.push(f64::NAN);
            continue;
        }
        let mean_abs_err: f64 = values
            .iter()
            .map(|v| (v - pool.true_f_measure).abs())
            .sum::<f64>()
            / defined as f64;
        let mean: f64 = values.iter().sum::<f64>() / defined as f64;
        let variance: f64 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / defined as f64;
        absolute_error.push(mean_abs_err);
        std_dev.push(variance.sqrt());
    }
    MethodCurve {
        label: method.label(),
        budgets: config.checkpoints.clone(),
        absolute_error,
        std_dev,
        defined_fraction,
    }
}

/// Run the repeated-run experiment for several methods on the same pool.
pub fn compare_methods(
    pool: &ExperimentPool,
    methods: &[Method],
    config: &CurveConfig,
) -> Vec<MethodCurve> {
    methods
        .iter()
        .map(|&m| method_curve(pool, m, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pools::direct_pool;
    use er_core::datasets::DatasetProfile;

    fn small_pool() -> ExperimentPool {
        // 15% of Abt-Buy keeps the strong class imbalance but leaves enough
        // matches (~7) that the F-estimate is defined at the early
        // checkpoints for every repeat seed, not just lucky ones.
        direct_pool(&DatasetProfile::abt_buy(), 0.15, true, 7)
    }

    #[test]
    fn linear_checkpoints_are_evenly_spaced() {
        let config = CurveConfig::with_linear_checkpoints(100, 25, 3);
        assert_eq!(config.checkpoints, vec![25, 50, 75, 100]);
        // Step of zero is coerced to 1.
        let config = CurveConfig::with_linear_checkpoints(3, 0, 1);
        assert_eq!(config.checkpoints, vec![1, 2, 3]);
    }

    #[test]
    fn curves_have_one_entry_per_checkpoint() {
        let pool = small_pool();
        let config = CurveConfig {
            checkpoints: vec![20, 50, 100],
            repeats: 4,
            alpha: 0.5,
            seed: 1,
            threads: 1,
        };
        let curve = method_curve(&pool, Method::oasis(10), &config);
        assert_eq!(curve.budgets.len(), 3);
        assert_eq!(curve.absolute_error.len(), 3);
        assert_eq!(curve.std_dev.len(), 3);
        assert_eq!(curve.defined_fraction.len(), 3);
        assert_eq!(curve.label, "OASIS 10");
        assert!(curve.final_error().is_finite());
    }

    #[test]
    fn oasis_error_shrinks_with_budget() {
        let pool = small_pool();
        let config = CurveConfig {
            checkpoints: vec![30, 400],
            repeats: 8,
            alpha: 0.5,
            seed: 3,
            threads: 2,
        };
        let curve = method_curve(&pool, Method::oasis(20), &config);
        assert!(
            curve.absolute_error[1] <= curve.absolute_error[0] + 0.02,
            "error should not grow with budget: {:?}",
            curve.absolute_error
        );
    }

    #[test]
    fn parallel_and_sequential_runs_agree() {
        let pool = small_pool();
        let base = CurveConfig {
            checkpoints: vec![25, 75],
            repeats: 6,
            alpha: 0.5,
            seed: 11,
            threads: 1,
        };
        let sequential = method_curve(&pool, Method::Passive, &base);
        let parallel = method_curve(&pool, Method::Passive, &CurveConfig { threads: 3, ..base });
        // Identical seeds per repeat → identical statistics regardless of threading.
        for (a, b) in sequential
            .absolute_error
            .iter()
            .zip(parallel.absolute_error.iter())
        {
            match (a.is_nan(), b.is_nan()) {
                (true, true) => {}
                _ => assert!((a - b).abs() < 1e-12, "{a} vs {b}"),
            }
        }
    }

    #[test]
    fn defined_fraction_tracks_estimate_definedness() {
        // A pool with no positives of either kind: the F-measure can never be
        // defined, so every checkpoint reports a zero defined fraction and a
        // NaN error.
        let never_defined = ExperimentPool {
            pool: oasis::ScoredPool::new(vec![0.1; 50], vec![false; 50]).unwrap(),
            truth: vec![false; 50],
            true_f_measure: 0.0,
            true_precision: 0.0,
            true_recall: 0.0,
            score_threshold: 0.5,
            profile_name: "degenerate".to_string(),
        };
        let config = CurveConfig {
            checkpoints: vec![5, 20],
            repeats: 4,
            alpha: 0.5,
            seed: 5,
            threads: 1,
        };
        let curve = method_curve(&never_defined, Method::Passive, &config);
        assert_eq!(curve.defined_fraction, vec![0.0, 0.0]);
        assert!(curve.absolute_error.iter().all(|e| e.is_nan()));
        assert!(curve.first_defined_budget(0.95).is_none());

        // A balanced pool: the estimate is defined almost immediately for
        // every repeat.
        let balanced = direct_pool(&DatasetProfile::tweets100k(), 0.02, true, 13);
        let curve = method_curve(&balanced, Method::Passive, &config);
        assert!(curve.defined_fraction[1] > 0.95);
        assert_eq!(curve.first_defined_budget(0.95), Some(5));
    }

    #[test]
    fn compare_methods_returns_one_curve_per_method() {
        let pool = small_pool();
        let config = CurveConfig {
            checkpoints: vec![40],
            repeats: 2,
            alpha: 0.5,
            seed: 17,
            threads: 1,
        };
        let methods = [Method::Passive, Method::oasis(10)];
        let curves = compare_methods(&pool, &methods, &config);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].label, "Passive");
    }
}
