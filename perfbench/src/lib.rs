//! The repository benchmark: three user workloads through `oasis-serve` and
//! the OASIS engine, plus a traced per-layer ladder.  `run.py` builds and
//! runs it; see `README.md` beside it.

pub mod inputs;
pub mod ladder;
pub mod report;
pub mod stats;
pub mod wire;
pub mod workloads;
