//! Figure 3: calibrated versus uncalibrated scores for IS and OASIS.
//!
//! Static importance sampling builds its proposal directly from the similarity
//! scores, so it degrades sharply when those scores are raw SVM margins rather
//! than calibrated probabilities.  OASIS learns the oracle probabilities from
//! incoming labels and is far less sensitive (paper Section 6.3.2).

use crate::curves::{compare_methods, CurveConfig, MethodCurve};
use crate::methods::Method;
use crate::pools::direct_pool;
use crate::report::{fmt_float, TextTable};
use er_core::datasets::DatasetProfile;

/// The curves for one pool in one calibration regime.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCurves {
    /// Dataset name.
    pub name: String,
    /// Whether the scores were calibrated.
    pub calibrated: bool,
    /// True F½ of the pool.
    pub true_f_measure: f64,
    /// Curves for IS and OASIS (K = 60).
    pub curves: Vec<MethodCurve>,
}

/// The reproduced Figure 3 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3 {
    /// Calibrated + uncalibrated curves for each of the two datasets.
    pub panels: Vec<CalibrationCurves>,
    /// Pool scale used.
    pub scale: f64,
    /// Repeats per method.
    pub repeats: usize,
}

/// Configuration of the Figure 3 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3Config {
    /// Pool scale.
    pub scale: f64,
    /// Repeats per method.
    pub repeats: usize,
    /// Maximum budget as a fraction of the pool size.
    pub budget_fraction: f64,
    /// Number of checkpoints.
    pub checkpoints: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for Figure3Config {
    fn default() -> Self {
        Figure3Config {
            scale: 0.1,
            repeats: 100,
            budget_fraction: 0.1,
            checkpoints: 10,
            seed: 2017,
            threads: 4,
        }
    }
}

/// The methods compared in Figure 3: static IS and OASIS with K = 60.
pub fn figure3_methods() -> Vec<Method> {
    vec![Method::ImportanceSampling, Method::oasis(60)]
}

/// Run one panel (one dataset, one calibration regime).
fn run_panel(
    profile: &DatasetProfile,
    calibrated: bool,
    config: &Figure3Config,
) -> CalibrationCurves {
    let pool = direct_pool(profile, config.scale, calibrated, config.seed);
    let max_budget = ((pool.len() as f64 * config.budget_fraction) as usize).max(20);
    let step = (max_budget / config.checkpoints).max(1);
    let curve_config = CurveConfig {
        checkpoints: (1..=config.checkpoints).map(|i| i * step).collect(),
        repeats: config.repeats,
        alpha: 0.5,
        seed: config.seed,
        threads: config.threads,
    };
    let curves = compare_methods(&pool, &figure3_methods(), &curve_config);
    CalibrationCurves {
        name: profile.name.to_string(),
        calibrated,
        true_f_measure: pool.true_f_measure,
        curves,
    }
}

/// Run the full Figure 3 experiment: Abt-Buy and DBLP-ACM, calibrated and
/// uncalibrated.
pub fn run(config: &Figure3Config) -> Figure3 {
    let mut panels = Vec::new();
    for profile in [DatasetProfile::abt_buy(), DatasetProfile::dblp_acm()] {
        for calibrated in [false, true] {
            panels.push(run_panel(&profile, calibrated, config));
        }
    }
    Figure3 {
        panels,
        scale: config.scale,
        repeats: config.repeats,
    }
}

impl Figure3 {
    /// Render as plain-text tables, one per panel.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 3: calibrated vs uncalibrated scores (scale {:.3}, {} repeats)\n",
            self.scale, self.repeats
        );
        for panel in &self.panels {
            out.push_str(&format!(
                "\n--- {} ({}) true F1/2 = {:.3} ---\n",
                panel.name,
                if panel.calibrated {
                    "calibrated"
                } else {
                    "uncalibrated"
                },
                panel.true_f_measure
            ));
            let mut header = vec!["Budget".to_string()];
            for curve in &panel.curves {
                header.push(format!("{} abs.err", curve.label));
                header.push(format!("{} std", curve.label));
            }
            let mut table = TextTable::new(header);
            if let Some(first) = panel.curves.first() {
                for (i, &budget) in first.budgets.iter().enumerate() {
                    let mut row = vec![budget.to_string()];
                    for curve in &panel.curves {
                        row.push(fmt_float(curve.absolute_error[i], 4));
                        row.push(fmt_float(curve.std_dev[i], 4));
                    }
                    table.add_row(row);
                }
            }
            out.push_str(&table.render());
        }
        out
    }

    /// For each dataset, the degradation (increase in final absolute error)
    /// each method suffers when moving from calibrated to uncalibrated
    /// scores.  The paper's finding is that IS degrades much more than OASIS.
    pub fn calibration_degradation(&self) -> Vec<(String, String, f64)> {
        let mut degradations = Vec::new();
        let names: Vec<String> = {
            let mut seen = Vec::new();
            for panel in &self.panels {
                if !seen.contains(&panel.name) {
                    seen.push(panel.name.clone());
                }
            }
            seen
        };
        for name in names {
            let calibrated = self.panels.iter().find(|p| p.name == name && p.calibrated);
            let uncalibrated = self.panels.iter().find(|p| p.name == name && !p.calibrated);
            if let (Some(cal), Some(uncal)) = (calibrated, uncalibrated) {
                for (c, u) in cal.curves.iter().zip(uncal.curves.iter()) {
                    degradations.push((
                        name.clone(),
                        c.label.clone(),
                        u.final_error() - c.final_error(),
                    ));
                }
            }
        }
        degradations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Figure3Config {
        Figure3Config {
            scale: 0.03,
            repeats: 8,
            budget_fraction: 0.25,
            checkpoints: 3,
            seed: 5,
            threads: 2,
        }
    }

    #[test]
    fn produces_four_panels() {
        let figure = run(&tiny_config());
        assert_eq!(figure.panels.len(), 4);
        let names: Vec<&str> = figure.panels.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"Abt-Buy"));
        assert!(names.contains(&"DBLP-ACM"));
        assert_eq!(figure.panels.iter().filter(|p| p.calibrated).count(), 2);
        for panel in &figure.panels {
            assert_eq!(panel.curves.len(), 2);
            assert_eq!(panel.curves[0].label, "IS");
            assert_eq!(panel.curves[1].label, "OASIS 60");
        }
    }

    #[test]
    fn degradation_summary_covers_both_methods() {
        let figure = run(&tiny_config());
        let degradations = figure.calibration_degradation();
        // 2 datasets × 2 methods.
        assert_eq!(degradations.len(), 4);
        for (_, _, delta) in &degradations {
            assert!(delta.is_finite() || delta.is_nan());
        }
    }

    #[test]
    fn render_labels_panels() {
        let figure = run(&tiny_config());
        let text = figure.render();
        assert!(text.contains("Figure 3"));
        assert!(text.contains("uncalibrated"));
        assert!(text.contains("OASIS 60"));
    }
}
