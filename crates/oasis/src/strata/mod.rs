//! Stratification of the record-pair pool by similarity score.
//!
//! The paper (Section 4.2.1) uses stratification as a *parameter-reduction*
//! device: instead of estimating one oracle probability `p(1|z)` per pair, it
//! estimates one per stratum, relying on the similarity score being a good
//! proxy for the oracle probability within a stratum.
//!
//! Two stratifiers are provided:
//! * [`CsfStratifier`] — the cumulative-√F rule of Dalenius & Hodges (paper
//!   Algorithm 1), which aims for minimal intra-stratum score variance.
//! * [`EqualSizeStratifier`] — equal-count bins over the score order, the
//!   alternative mentioned from Druck & McCallum.
//!
//! A stratification depends only on the pool's scores and on the rule and
//! its requested `K` (a [`StrataKey`]), so samplers share one per key
//! through [`ScoredPool::shared_strata`] instead of each building its own,
//! and checkpoints store the key plus [`Strata::hash`] instead of the
//! partition.

mod csf;
mod equal_size;

pub use csf::CsfStratifier;
pub use equal_size::EqualSizeStratifier;

use crate::error::{Error, Result};
use crate::pool::ScoredPool;
use std::fmt;

/// Which stratification rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StratifierChoice {
    /// Cumulative-√F stratification (paper Algorithm 1) — the default.
    Csf,
    /// Equal-count strata in score order.
    EqualSize,
}

impl StratifierChoice {
    /// The wire name (`"csf"`, `"equal_size"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            StratifierChoice::Csf => "csf",
            StratifierChoice::EqualSize => "equal_size",
        }
    }
}

/// What a shared stratification is a function of, besides the pool: the
/// rule and the requested number of strata (the realised number may be
/// smaller).  The stratifiers run with their default settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrataKey {
    /// The stratification rule.
    pub stratifier: StratifierChoice,
    /// The requested number of strata `K̃`.
    pub strata_count: usize,
}

impl StrataKey {
    /// Run the rule on `pool`.  The result remembers this key, so a
    /// sampler's state can refer to it instead of listing its members.
    ///
    /// # Errors
    /// The stratifier's own (a zero `strata_count`, a pool over `u32::MAX`
    /// items).
    pub fn stratify(&self, pool: &ScoredPool) -> Result<Strata> {
        let mut strata = match self.stratifier {
            StratifierChoice::Csf => CsfStratifier::new(self.strata_count).stratify(pool)?,
            StratifierChoice::EqualSize => {
                EqualSizeStratifier::new(self.strata_count).stratify(pool)?
            }
        };
        strata.key = Some(*self);
        Ok(strata)
    }
}

/// The largest `strata_count` a config or a stored strata reference may
/// name; parsing refuses more, before anything stratifies.  CSF realises
/// at most one stratum per histogram bin (2,000 by default) and the paper
/// uses K in the tens, so the cap, about a million, is far above any K in
/// use.
pub const MAX_STRATA_COUNT: usize = 1 << 20;

impl fmt::Display for StrataKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} K={}", self.stratifier.as_str(), self.strata_count)
    }
}

/// A partition of the pool (or part of it) into `K` disjoint strata.
///
/// The members are one `u32` array in stratum order plus `K + 1` offsets,
/// 4 bytes per item; there is no item-to-stratum map.
#[derive(Debug, Clone, PartialEq)]
pub struct Strata {
    /// Pool indices, stratum by stratum: stratum `k` is
    /// `members[offsets[k]..offsets[k + 1]]`.
    members: Vec<u32>,
    /// `K + 1` ascending offsets into `members`, starting at 0.
    offsets: Vec<usize>,
    /// Stratum weights `ω_k = |P_k| / N`.
    weights: Vec<f64>,
    /// Mean similarity score per stratum.
    mean_scores: Vec<f64>,
    /// Mean predicted label per stratum (`λ_k` in the paper).
    mean_predictions: Vec<f64>,
    /// The rule that built these strata, when a [`StrataKey`] did.
    key: Option<StrataKey>,
    /// Content hash of `members` and `offsets` (see [`Strata::hash`]).
    hash: u64,
}

impl Strata {
    /// Build the stratum summary data from raw allocations.
    ///
    /// Empty strata are removed (paper Algorithm 1, line 19).
    ///
    /// # Errors
    /// [`Error::EmptyStrata`] if every allocation is empty, or
    /// [`Error::IndexOutOfBounds`] if an allocation references an item outside
    /// the pool.
    pub fn from_allocations(pool: &ScoredPool, allocations: Vec<Vec<usize>>) -> Result<Self> {
        let n = pool.len();
        let total = allocations.iter().map(Vec::len).sum();
        let mut members = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(allocations.len() + 1);
        offsets.push(0);
        for stratum in &allocations {
            for &index in stratum {
                if index >= n {
                    return Err(Error::IndexOutOfBounds { index, len: n });
                }
                members.push(index_to_u32(index)?);
            }
            offsets.push(members.len());
        }
        Self::from_members(pool, members, offsets)
    }

    /// Build from members already laid out stratum by stratum, with
    /// `offsets` of length `K + 1` bounding each stratum.  Empty strata are
    /// removed.  Every member must be a pool index (checked by
    /// [`Strata::from_allocations`]; the stratifiers produce only those).
    pub(crate) fn from_members(
        pool: &ScoredPool,
        members: Vec<u32>,
        mut offsets: Vec<usize>,
    ) -> Result<Self> {
        offsets.dedup();
        if offsets.len() < 2 {
            return Err(Error::EmptyStrata);
        }
        let n = pool.len() as f64;
        let k = offsets.len() - 1;
        let mut weights = Vec::with_capacity(k);
        let mut mean_scores = Vec::with_capacity(k);
        let mut mean_predictions = Vec::with_capacity(k);
        // FNV-1a over K, each stratum's size, then every member, one 64-bit
        // word at a time: the sizes fix the boundaries, so equal hashes mean
        // equal partitions up to a collision.
        let mut hash = FNV_OFFSET;
        let mut eat = |word: u64| {
            hash ^= word;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        eat(k as u64);
        for bounds in offsets.windows(2) {
            eat((bounds[1] - bounds[0]) as u64);
        }
        for bounds in offsets.windows(2) {
            let stratum = &members[bounds[0]..bounds[1]];
            let mut score_sum = 0.0;
            let mut pred_sum = 0.0;
            for &index in stratum {
                eat(u64::from(index));
                let index = index as usize;
                score_sum += pool.score(index);
                pred_sum += f64::from(u8::from(pool.prediction(index)));
            }
            let size = stratum.len() as f64;
            weights.push(size / n);
            mean_scores.push(score_sum / size);
            mean_predictions.push(pred_sum / size);
        }
        Ok(Strata {
            members,
            offsets,
            weights,
            mean_scores,
            mean_predictions,
            key: None,
            hash,
        })
    }

    /// Number of strata `K`.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are zero strata (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pool indices belonging to stratum `k`.
    pub fn members(&self, k: usize) -> &[u32] {
        &self.members[self.offsets[k]..self.offsets[k + 1]]
    }

    /// All allocations, one `Vec<usize>` of pool indices per stratum: the
    /// explicit form a checkpoint stores for strata no [`StrataKey`] built.
    /// Feed them back through [`Strata::from_allocations`] to rebuild
    /// identical strata.
    pub fn allocations(&self) -> Vec<Vec<usize>> {
        (0..self.len())
            .map(|k| self.members(k).iter().map(|&i| i as usize).collect())
            .collect()
    }

    /// Number of items in stratum `k`.
    pub fn size(&self, k: usize) -> usize {
        self.offsets[k + 1] - self.offsets[k]
    }

    /// Stratum index `κ(z)` of pool item `index`, or `None` if the item was
    /// not allocated to any stratum (possible when stratifying a sub-pool).
    /// A linear scan of the members, for tests only: samplers carry the
    /// stratum in each proposal instead.
    #[cfg(test)]
    pub(crate) fn stratum_of(&self, index: usize) -> Option<usize> {
        let index = u32::try_from(index).ok()?;
        let position = self.members.iter().position(|&i| i == index)?;
        Some(self.offsets.partition_point(|&start| start <= position) - 1)
    }

    /// The [`StrataKey`] that built these strata, or `None` for strata
    /// built from explicit allocations.
    pub fn key(&self) -> Option<StrataKey> {
        self.key
    }

    /// FNV-1a hash of the partition: `K`, each stratum's size, then every
    /// member in stratum order, each as one 64-bit word.  A checkpoint that
    /// refers to strata by key records it, and a restore that rebuilds
    /// different strata from the key refuses to continue.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Stratum weights `ω_k = |P_k| / N`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mean similarity score of each stratum.
    pub fn mean_scores(&self) -> &[f64] {
        &self.mean_scores
    }

    /// Mean predicted label `λ_k` of each stratum.
    pub fn mean_predictions(&self) -> &[f64] {
        &self.mean_predictions
    }

    /// Compute the true per-stratum match rate given full ground truth.  Used
    /// only for diagnostics (paper Figure 4), never by the samplers.
    pub fn true_match_rates(&self, truth: &[bool]) -> Vec<f64> {
        (0..self.len())
            .map(|k| {
                let stratum = self.members(k);
                let matches = stratum.iter().filter(|&&i| truth[i as usize]).count();
                matches as f64 / stratum.len() as f64
            })
            .collect()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A pool index as a stored member.
fn index_to_u32(index: usize) -> Result<u32> {
    u32::try_from(index).map_err(|_| Error::InvalidParameter {
        name: "pool",
        message: format!("item index {index} does not fit the u32 strata members"),
    })
}

/// Reject pools whose indices do not all fit a `u32` member.
fn check_pool_fits(pool: &ScoredPool) -> Result<()> {
    index_to_u32(pool.len().saturating_sub(1)).map(drop)
}

/// A strategy for partitioning a pool into strata based on similarity scores.
pub trait Stratifier {
    /// Partition `pool` into (approximately) the configured number of strata.
    fn stratify(&self, pool: &ScoredPool) -> Result<Strata>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ScoredPool {
        ScoredPool::new(
            vec![0.9, 0.8, 0.7, 0.3, 0.2, 0.1],
            vec![true, true, true, false, false, false],
        )
        .unwrap()
    }

    #[test]
    fn from_allocations_computes_summaries() {
        let p = pool();
        let strata = Strata::from_allocations(&p, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        assert_eq!(strata.len(), 2);
        assert_eq!(strata.size(0), 3);
        assert_eq!(strata.members(1), &[3, 4, 5]);
        assert!((strata.weights()[0] - 0.5).abs() < 1e-12);
        assert!((strata.mean_scores()[0] - 0.8).abs() < 1e-12);
        assert!((strata.mean_scores()[1] - 0.2).abs() < 1e-12);
        assert!((strata.mean_predictions()[0] - 1.0).abs() < 1e-12);
        assert!((strata.mean_predictions()[1] - 0.0).abs() < 1e-12);
        assert_eq!(strata.stratum_of(0), Some(0));
        assert_eq!(strata.stratum_of(5), Some(1));
    }

    #[test]
    fn empty_strata_are_dropped() {
        let p = pool();
        let strata =
            Strata::from_allocations(&p, vec![vec![], vec![0, 1], vec![], vec![2, 3, 4, 5]])
                .unwrap();
        assert_eq!(strata.len(), 2);
        assert_eq!(strata.size(0), 2);
        assert_eq!(strata.size(1), 4);
    }

    #[test]
    fn all_empty_is_an_error() {
        let p = pool();
        assert_eq!(
            Strata::from_allocations(&p, vec![vec![], vec![]]),
            Err(Error::EmptyStrata)
        );
    }

    #[test]
    fn out_of_bounds_allocation_is_an_error() {
        let p = pool();
        let err = Strata::from_allocations(&p, vec![vec![0, 99]]).unwrap_err();
        assert_eq!(err, Error::IndexOutOfBounds { index: 99, len: 6 });
    }

    #[test]
    fn unallocated_items_report_no_stratum() {
        let p = pool();
        let strata = Strata::from_allocations(&p, vec![vec![0, 1]]).unwrap();
        assert_eq!(strata.stratum_of(5), None);
        assert_eq!(strata.stratum_of(0), Some(0));
    }

    #[test]
    fn weights_sum_to_one_when_all_items_allocated() {
        let p = pool();
        let strata =
            Strata::from_allocations(&p, vec![vec![0], vec![1, 2], vec![3, 4, 5]]).unwrap();
        let total: f64 = strata.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn true_match_rates_match_ground_truth() {
        let p = pool();
        let strata = Strata::from_allocations(&p, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let truth = vec![true, true, false, false, false, false];
        let rates = strata.true_match_rates(&truth);
        assert!((rates[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((rates[1] - 0.0).abs() < 1e-12);
    }
}
