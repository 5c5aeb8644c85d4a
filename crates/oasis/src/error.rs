//! Error types shared across the OASIS crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors that can arise while constructing pools, strata or samplers, or while
/// running an evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The pool of record pairs is empty, so nothing can be sampled.
    EmptyPool,
    /// The number of scores and predictions (and labels, if supplied) disagree.
    LengthMismatch {
        /// Number of similarity scores supplied.
        scores: usize,
        /// Number of predicted labels supplied.
        predictions: usize,
    },
    /// A similarity score was NaN or infinite.
    NonFiniteScore {
        /// Index of the offending item in the pool.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A configuration parameter was outside its valid range.
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// Stratification produced no strata (e.g. requested zero strata).
    EmptyStrata,
    /// An item index was outside the pool.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The pool size.
        len: usize,
    },
    /// A state refers to strata by key, but the key now builds a different
    /// partition of the pool than the one the state was captured on (the
    /// stratifier changed, or the state was edited).
    StrataMismatch {
        /// The key, as `"<stratifier> K=<count>"`.
        key: String,
        /// The hash the state records.
        expected: u64,
        /// The hash of the strata the key builds now.
        actual: u64,
    },
    /// The oracle was asked about an item it has no ground truth for.
    OracleOutOfBounds {
        /// The offending index.
        index: usize,
        /// Number of items the oracle knows about.
        len: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyPool => write!(f, "the pool of record pairs is empty"),
            Error::LengthMismatch {
                scores,
                predictions,
            } => write!(
                f,
                "length mismatch: {scores} scores but {predictions} predictions"
            ),
            Error::NonFiniteScore { index, value } => {
                write!(
                    f,
                    "similarity score at index {index} is not finite: {value}"
                )
            }
            Error::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            Error::EmptyStrata => write!(f, "stratification produced no strata"),
            Error::IndexOutOfBounds { index, len } => {
                write!(f, "item index {index} out of bounds for pool of size {len}")
            }
            Error::StrataMismatch {
                key,
                expected,
                actual,
            } => write!(
                f,
                "strata {key} of this pool hash to {actual:#018x}, but the state was \
                 captured on strata hashing to {expected:#018x}"
            ),
            Error::OracleOutOfBounds { index, len } => {
                write!(
                    f,
                    "oracle queried for index {index} but only knows {len} items"
                )
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::EmptyPool, "empty"),
            (
                Error::LengthMismatch {
                    scores: 3,
                    predictions: 4,
                },
                "mismatch",
            ),
            (
                Error::NonFiniteScore {
                    index: 7,
                    value: f64::NAN,
                },
                "not finite",
            ),
            (
                Error::InvalidParameter {
                    name: "epsilon",
                    message: "must be in (0, 1]".to_string(),
                },
                "epsilon",
            ),
            (Error::EmptyStrata, "no strata"),
            (
                Error::IndexOutOfBounds { index: 9, len: 3 },
                "out of bounds",
            ),
            (Error::OracleOutOfBounds { index: 9, len: 3 }, "oracle"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "expected {msg:?} to contain {needle:?}"
            );
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::EmptyPool, Error::EmptyPool);
        assert_ne!(Error::EmptyPool, Error::EmptyStrata);
    }

    #[test]
    fn error_implements_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(Error::EmptyPool);
        assert!(err.source().is_none());
    }
}
