//! # experiments — regenerating the OASIS paper's tables and figures
//!
//! Each table and figure of the paper's evaluation (Section 6) has a module
//! here that builds the required pools, runs the sampling methods, and returns
//! a structured result that the corresponding binary (`src/bin/<name>.rs`)
//! prints as a plain-text table.  CI runs every binary at its defaults.
//!
//! | Module | Paper content |
//! |---|---|
//! | [`table1`] | Dataset inventory (size, imbalance, #matches) |
//! | [`table2`] | Pools + linear-SVM operating points |
//! | [`table3`] | CPU time per run / per iteration on cora |
//! | [`figure1`] | CSF stratum sizes and mean scores (Abt-Buy) |
//! | [`figure2`] | Absolute error & std. dev. vs label budget, all pools |
//! | [`figure3`] | Calibrated vs uncalibrated scores (IS & OASIS) |
//! | [`figure4`] | Convergence of F̂, π̂, v̂ and KL divergence |
//! | [`figure5`] | Error after a fixed budget for five classifiers |
//! | [`ablations`] | OASIS error under ε / K / prior-decay / stratifier changes |
//! | [`engine_parity`] | `oasis-engine` sessions vs library runs (bitwise) |
//!
//! Shared infrastructure: [`methods`] (the sampling methods under
//! comparison), [`pools`] (pool construction from dataset profiles),
//! [`curves`] (repeated-run error curves), [`report`] (plain-text tables).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod curves;
pub mod engine_parity;
pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod methods;
pub mod pools;
pub mod report;
pub mod table1;
pub mod table2;
pub mod table3;

/// Parse a simple `key=value` command-line option of the form `--scale=0.1`,
/// returning `default` when absent or malformed.
pub fn parse_arg<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    let prefix = format!("--{key}=");
    for arg in args {
        if let Some(value) = arg.strip_prefix(&prefix) {
            if let Ok(parsed) = value.parse::<T>() {
                return parsed;
            }
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_arg_reads_key_value_pairs() {
        let args: Vec<String> = vec!["--scale=0.25".into(), "--repeats=17".into()];
        assert_eq!(parse_arg(&args, "scale", 1.0f64), 0.25);
        assert_eq!(parse_arg(&args, "repeats", 3usize), 17);
        assert_eq!(parse_arg(&args, "seed", 42u64), 42);
        // Malformed values fall back to the default.
        let bad: Vec<String> = vec!["--scale=abc".into()];
        assert_eq!(parse_arg(&bad, "scale", 0.5f64), 0.5);
    }
}
