//! Figure 1: size and mean score of the CSF strata for the Abt-Buy pool.
//!
//! The figure illustrates why a "natural" range of K exists for CSF
//! stratification under extreme class imbalance: strata covering low
//! similarity scores are enormous while strata covering high scores contain
//! only a handful of pairs.

use crate::pools::{direct_pool, ExperimentPool};
use crate::report::{fmt_count, fmt_float, TextTable};
use er_core::datasets::DatasetProfile;
use oasis::strata::{CsfStratifier, Stratifier};

/// One stratum's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumSummary {
    /// Stratum index (ordered by increasing score).
    pub index: usize,
    /// Number of record pairs in the stratum.
    pub size: usize,
    /// Mean (calibrated) similarity score of the stratum.
    pub mean_score: f64,
}

/// The reproduced Figure 1 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1 {
    /// Per-stratum summaries.
    pub strata: Vec<StratumSummary>,
    /// The requested number of strata.
    pub requested_strata: usize,
    /// Pool size used.
    pub pool_size: usize,
    /// Pool scale used.
    pub scale: f64,
}

/// Stratify the Abt-Buy pool (calibrated scores) with the CSF rule and record
/// each stratum's size and mean score.
pub fn run(scale: f64, strata_count: usize, seed: u64) -> Figure1 {
    let pool = direct_pool(&DatasetProfile::abt_buy(), scale, true, seed);
    run_on_pool(&pool, strata_count, scale)
}

/// Same as [`run`] but on a caller-supplied pool.
pub fn run_on_pool(pool: &ExperimentPool, strata_count: usize, scale: f64) -> Figure1 {
    let strata = CsfStratifier::new(strata_count)
        .stratify(&pool.pool)
        .expect("pool is non-empty");
    let summaries = (0..strata.len())
        .map(|k| StratumSummary {
            index: k,
            size: strata.size(k),
            mean_score: strata.mean_scores()[k],
        })
        .collect();
    Figure1 {
        strata: summaries,
        requested_strata: strata_count,
        pool_size: pool.len(),
        scale,
    }
}

impl Figure1 {
    /// Render as a plain-text table (one row per stratum).
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec!["Stratum", "Size", "Mean score"]);
        for stratum in &self.strata {
            table.add_row(vec![
                stratum.index.to_string(),
                fmt_count(stratum.size as u64),
                fmt_float(stratum.mean_score, 4),
            ]);
        }
        format!(
            "Figure 1: CSF strata of the Abt-Buy pool (calibrated scores, K̃ = {}, pool = {} pairs at scale {:.3})\n{}",
            self.requested_strata,
            fmt_count(self.pool_size as u64),
            self.scale,
            table.render()
        )
    }

    /// The ratio of the largest to the smallest stratum — the "heavy tail"
    /// headline of the figure.
    pub fn size_ratio(&self) -> f64 {
        let max = self.strata.iter().map(|s| s.size).max().unwrap_or(1);
        let min = self.strata.iter().map(|s| s.size).min().unwrap_or(1);
        max as f64 / min.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_are_ordered_by_score_with_heavy_low_tail() {
        let figure = run(0.2, 30, 11);
        assert!(figure.strata.len() > 5);
        assert!(figure.strata.len() <= 30);
        for window in figure.strata.windows(2) {
            assert!(window[0].mean_score <= window[1].mean_score + 1e-9);
        }
        // The low-score strata dwarf the high-score ones (paper Figure 1).
        let first = figure.strata.first().unwrap().size;
        let last = figure.strata.last().unwrap().size;
        assert!(
            first > last,
            "lowest-score stratum ({first}) should exceed highest-score stratum ({last})"
        );
        assert!(
            figure.size_ratio() > 10.0,
            "size ratio {}",
            figure.size_ratio()
        );
    }

    #[test]
    fn total_stratum_size_equals_pool_size() {
        let figure = run(0.1, 30, 12);
        let total: usize = figure.strata.iter().map(|s| s.size).sum();
        assert_eq!(total, figure.pool_size);
    }

    #[test]
    fn render_includes_every_stratum() {
        let figure = run(0.05, 10, 13);
        let text = figure.render();
        assert!(text.contains("Figure 1"));
        assert!(text.lines().count() >= figure.strata.len() + 3);
    }
}
