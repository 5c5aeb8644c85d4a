//! Print the OASIS ablation table (ε, K, prior decay, stratifier).
//!
//! Usage: `cargo run --release -p experiments --bin ablations`

use experiments::ablations::{run, BUDGET, REPEATS};

fn main() {
    println!("{}", run(REPEATS, BUDGET).render());
}
