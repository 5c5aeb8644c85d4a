//! # er-core — entity-resolution substrate
//!
//! The substrate the OASIS paper evaluates against: a complete (if compact)
//! entity-resolution pipeline, built from scratch.
//!
//! * [`record`] — records, schemas and field values for the two data sources.
//! * [`normalize`] — the pre-processing stage: string canonicalisation and
//!   numeric imputation (paper Section 6.1.2, "Pre-processing").
//! * [`similarity`] — attribute-level similarity measures: trigram Jaccard,
//!   tf–idf cosine, Levenshtein/Jaro–Winkler, normalised numeric difference.
//! * [`features`] — turning a record pair into a similarity feature vector.
//! * [`blocking`] — token blocking and sorted-neighbourhood candidate
//!   generation (the "blocking" pipeline stage).
//! * [`pairs`] — candidate pair spaces (full product or blocked) with ground
//!   truth bookkeeping.
//! * [`datasets`] — synthetic dataset generators whose pools mirror the
//!   sizes, class imbalances and match counts of the paper's six datasets
//!   (Tables 1 and 2).  These stand in for the proprietary/downloaded
//!   datasets; see `DESIGN.md` for the substitution argument.
//! * [`pool_builder`] — assembling an [`oasis::ScoredPool`] plus hidden ground
//!   truth from a dataset and a scoring function.
//! * [`io`] — loading and saving record sources as tab/comma-separated text,
//!   so real catalogues can be evaluated with the same pipeline.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocking;
pub mod datasets;
pub mod error_text;
pub mod features;
pub mod io;
pub mod normalize;
pub mod pairs;
pub mod pool_builder;
pub mod record;
pub mod similarity;

pub use datasets::{DatasetProfile, SyntheticDataset};
pub use features::FeatureExtractor;
pub use pairs::{PairSpace, RecordPair};
pub use pool_builder::{LabelledPool, PoolBuilder};
pub use record::{FieldType, FieldValue, Record, Schema};
