//! Ablations of the OASIS design choices: ε-greedy exploration, the number
//! of strata K, prior decay, and the stratification rule.
//!
//! Each row changes one setting of [`OasisConfig::default`] and reports the
//! mean absolute error |F̂ − F| of OASIS on the Abt-Buy pool after a fixed
//! label budget, averaged over seeded repeats.

use crate::pools::{direct_pool, ExperimentPool};
use crate::report::{fmt_float, TextTable};
use er_core::datasets::DatasetProfile;
use oasis::oracle::GroundTruthOracle;
use oasis::samplers::{InteractiveSampler, OasisConfig, OasisSampler, Sampler, StratifierChoice};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Abt-Buy pool scale the ablations run at.
const SCALE: f64 = 0.05;
/// Seeded repeats averaged per row.
pub const REPEATS: usize = 20;
/// Labels each run consumes.
pub const BUDGET: usize = 200;
/// Seed of the pool generator.
const POOL_SEED: u64 = 2017;

/// One ablation setting's result.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The setting that differs from the default, e.g. `K = 60`.
    pub setting: String,
    /// Mean |F̂ − F| over the repeats whose estimate is defined (NaN when
    /// none is).
    pub mean_absolute_error: f64,
}

/// The ablation table.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// One row per setting: ε, then K, prior decay and the stratifier.
    pub rows: Vec<AblationRow>,
    /// Repeats per row.
    pub repeats: usize,
    /// Labels per run.
    pub budget: usize,
}

/// The ablated settings: each is the default OASIS configuration with one
/// choice changed.
fn settings() -> Vec<(String, OasisConfig)> {
    let mut settings = Vec::new();
    for epsilon in [1e-3, 1e-1, 1.0] {
        settings.push((
            format!("epsilon = {epsilon}"),
            OasisConfig::default().with_epsilon(epsilon),
        ));
    }
    for strata in [10, 30, 60, 120] {
        settings.push((
            format!("K = {strata}"),
            OasisConfig::default().with_strata_count(strata),
        ));
    }
    for decay in [true, false] {
        settings.push((
            format!("prior decay = {decay}"),
            OasisConfig::default().with_prior_decay(decay),
        ));
    }
    for (label, choice) in [
        ("CSF", StratifierChoice::Csf),
        ("equal-size", StratifierChoice::EqualSize),
    ] {
        settings.push((
            format!("stratifier = {label}"),
            OasisConfig::default().with_stratifier(choice),
        ));
    }
    settings
}

/// Run every setting for `repeats` seeded runs of `budget` labels on the
/// calibrated Abt-Buy pool at scale 0.05.
pub fn run(repeats: usize, budget: usize) -> Ablations {
    let pool = direct_pool(&DatasetProfile::abt_buy(), SCALE, true, POOL_SEED);
    let rows = settings()
        .into_iter()
        .map(|(setting, config)| AblationRow {
            setting,
            mean_absolute_error: oasis_error(&pool, config, repeats, budget),
        })
        .collect();
    Ablations {
        rows,
        repeats,
        budget,
    }
}

/// Mean absolute error of OASIS on `pool` after `budget` labels.
fn oasis_error(pool: &ExperimentPool, config: OasisConfig, repeats: usize, budget: usize) -> f64 {
    let mut total = 0.0;
    let mut counted = 0usize;
    for r in 0..repeats {
        let mut rng = StdRng::seed_from_u64(100 + r as u64);
        let mut oracle = GroundTruthOracle::new(pool.truth.clone());
        let mut sampler = OasisSampler::new(&pool.pool, config.clone()).expect("valid config");
        sampler
            .run_until_budget(&pool.pool, &mut oracle, &mut rng, budget, 500_000)
            .expect("sampling succeeds");
        let estimate = sampler.estimate().f_measure;
        if estimate.is_finite() {
            total += (estimate - pool.true_f_measure).abs();
            counted += 1;
        }
    }
    if counted > 0 {
        total / counted as f64
    } else {
        f64::NAN
    }
}

impl Ablations {
    /// Render as a plain-text table (one row per setting).
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["Setting", "Mean |F̂ − F|"]);
        for row in &self.rows {
            table.add_row(vec![
                row.setting.clone(),
                fmt_float(row.mean_absolute_error, 4),
            ]);
        }
        format!(
            "Ablations: mean |F̂ − F| of OASIS on Abt-Buy (scale {SCALE}) after {} labels, {} repeats\n{}",
            self.budget,
            self.repeats,
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_setting_yields_one_finite_row() {
        let ablations = run(2, BUDGET);
        let settings = settings();
        assert_eq!(ablations.rows.len(), settings.len());
        for (row, (setting, _)) in ablations.rows.iter().zip(&settings) {
            assert_eq!(&row.setting, setting);
            assert!(
                row.mean_absolute_error.is_finite(),
                "{}: {}",
                row.setting,
                row.mean_absolute_error
            );
        }
        assert!(ablations.render().lines().count() >= settings.len() + 3);
    }
}
