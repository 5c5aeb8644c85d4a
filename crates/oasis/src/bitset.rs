//! A fixed-length set of pool indices, one bit per item.
//!
//! Label budgets (paper footnote 5) record which pool items were labelled at
//! least once.  A pool-sized `Vec<bool>` spends a byte per item; this set
//! spends a bit, and walks 64 items per word when it lists or counts its
//! members.  A fresh set is zeroed memory, so the pages of an unlabelled
//! pool's budget stay untouched.

/// A set of indices below a fixed length, stored as a bitmap of `u64`
/// words.  Bits at or past the length are always clear, so two sets over
/// the same length are equal exactly when they hold the same indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = u64::BITS as usize;

impl BitSet {
    /// An empty set over the indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// The set over `0..len` holding `indices` (in any order, repeats
    /// allowed), or the first index at or past `len`.
    ///
    /// # Errors
    /// The first out-of-range index.
    pub fn from_indices(len: usize, indices: &[usize]) -> Result<Self, usize> {
        let mut set = BitSet::new(len);
        for &index in indices {
            if index >= len {
                return Err(index);
            }
            set.insert(index);
        }
        Ok(set)
    }

    /// The number of indices the set ranges over (not the number it holds).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set ranges over no indices at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is in the set.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn contains(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "index {index} outside a set of {}",
            self.len
        );
        self.words[index / WORD_BITS] & (1 << (index % WORD_BITS)) != 0
    }

    /// Add `index`; `true` when it was not in the set before.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "index {index} outside a set of {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let bit = 1 << (index % WORD_BITS);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Remove every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The number of indices in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The indices in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &word)| word != 0)
            .flat_map(|(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    if rest == 0 {
                        return None;
                    }
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(w * WORD_BITS + bit)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip_at_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let indices: Vec<usize> = (0..len).filter(|i| i % 3 == 0 || i + 1 == len).collect();
            let set = BitSet::from_indices(len, &indices).unwrap();
            assert_eq!(set.len(), len);
            assert_eq!(set.is_empty(), len == 0);
            assert_eq!(set.iter().collect::<Vec<_>>(), indices, "len {len}");
            assert_eq!(set.count(), indices.len());
            for i in 0..len {
                assert_eq!(
                    set.contains(i),
                    indices.contains(&i),
                    "len {len}, index {i}"
                );
            }
            assert_eq!(BitSet::from_indices(len, &[len]), Err(len));
        }
    }

    #[test]
    fn insert_reports_only_the_first_time() {
        let mut set = BitSet::new(70);
        assert!(set.insert(69));
        assert!(!set.insert(69));
        assert!(set.insert(0));
        assert_eq!(set.count(), 2);
        // Order and repeats do not matter to equality.
        assert_eq!(set, BitSet::from_indices(70, &[69, 0, 69]).unwrap());
        set.clear();
        assert_eq!(set, BitSet::new(70));
        assert_eq!(set.iter().next(), None);
    }

    #[test]
    #[should_panic(expected = "outside a set of 64")]
    fn an_index_past_the_length_panics() {
        BitSet::new(64).insert(64);
    }
}
