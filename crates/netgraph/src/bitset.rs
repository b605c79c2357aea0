//! Word-parallel bitsets over node indices.
//!
//! The simulation engine's sparse round loop keeps its active-node,
//! broadcaster, and reach sets as [`Bitset`]s: membership tests and
//! updates are single word operations, whole-set copies and unions are
//! `memcpy`-speed word loops, and iteration visits set bits in
//! ascending index order while skipping zero words — the property that
//! makes sweeping only the populated part of a million-slot set cheap.

use std::ops::Range;

/// A fixed-capacity set of `usize` indices in `0..len`, stored one bit
/// per index in 64-bit words.
///
/// # Example
///
/// ```
/// use netgraph::Bitset;
///
/// let mut s = Bitset::new(200);
/// s.insert(3);
/// s.insert(130);
/// assert!(s.contains(130));
/// assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 130]);
/// assert_eq!(s.ones_in(100..200).collect::<Vec<_>>(), vec![130]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// An empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The index capacity (not the number of set bits).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every index in `0..len`.
    pub fn insert_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// If `i >= len`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// The number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw word storage (bit `i` of the set is bit `i % 64` of
    /// word `i / 64`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable word storage, for loops that update several bitsets
    /// word by word. Bits at or past `len` in the last word must stay
    /// zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterates the set indices in ascending order.
    pub fn ones(&self) -> Ones<'_> {
        self.ones_in(0..self.len)
    }

    /// Iterates the set indices within `range` in ascending order,
    /// skipping zero words.
    ///
    /// # Panics
    ///
    /// If `range.end > len`.
    pub fn ones_in(&self, range: Range<usize>) -> Ones<'_> {
        assert!(range.end <= self.len, "range end past bitset capacity");
        if range.start >= range.end {
            return Ones {
                words: &[],
                word_idx: 0,
                current: 0,
                end: 0,
            };
        }
        let first_word = range.start / 64;
        // Mask off the bits below range.start in the first word; bits
        // at or past range.end are filtered by the iterator's bound.
        let current = self.words[first_word] & (u64::MAX << (range.start % 64));
        Ones {
            words: &self.words,
            word_idx: first_word,
            current,
            end: range.end,
        }
    }

    /// Ors `bits` into word `word_index` — the word-at-a-time
    /// counterpart of [`Bitset::insert`] for sweep loops that
    /// accumulate a word's bits in a register.
    ///
    /// # Panics
    ///
    /// If `word_index` is past the last word.
    pub fn or_word(&mut self, word_index: usize, bits: u64) {
        self.words[word_index] |= bits;
    }

    /// Zeroes any bits at or past `len` in the last word.
    fn mask_tail(&mut self) {
        if self.len % 64 != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1 << (self.len % 64)) - 1;
            }
        }
    }
}

/// Ascending iterator over set bits; see [`Bitset::ones_in`].
#[derive(Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    /// Unvisited bits of `words[word_idx]`.
    current: u64,
    /// Exclusive upper bound on yielded indices.
    end: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                let i = self.word_idx * 64 + bit;
                if i >= self.end {
                    return None;
                }
                self.current &= self.current - 1;
                return Some(i);
            }
            self.word_idx += 1;
            if self.word_idx * 64 >= self.end {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_ones() {
        let s = Bitset::new(100);
        assert_eq!(s.ones().count(), 0);
        assert_eq!(s.count_ones(), 0);
        assert!(!s.contains(5));
    }

    #[test]
    fn zero_capacity_is_safe() {
        let mut s = Bitset::new(0);
        assert!(s.is_empty());
        assert_eq!(s.ones().count(), 0);
        s.insert_all();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = Bitset::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            s.insert(i);
            assert!(s.contains(i));
        }
        assert!(!s.contains(2));
        assert!(!s.contains(130)); // out of range reads as absent
        assert_eq!(s.count_ones(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_past_capacity_panics() {
        Bitset::new(64).insert(64);
    }

    #[test]
    fn ones_ascending_across_words() {
        let mut s = Bitset::new(300);
        let members = [0, 63, 64, 100, 255, 256, 299];
        for &i in &members {
            s.insert(i);
        }
        assert_eq!(s.ones().collect::<Vec<_>>(), members);
    }

    #[test]
    fn ones_in_respects_both_bounds() {
        let mut s = Bitset::new(300);
        for i in (0..300).step_by(7) {
            s.insert(i);
        }
        let expected: Vec<usize> = (0..300)
            .step_by(7)
            .filter(|&i| (65..260).contains(&i))
            .collect();
        assert_eq!(s.ones_in(65..260).collect::<Vec<_>>(), expected);
        assert_eq!(s.ones_in(10..10).count(), 0);
    }

    #[test]
    fn insert_all_masks_tail() {
        let mut s = Bitset::new(70);
        s.insert_all();
        assert_eq!(s.count_ones(), 70);
        assert_eq!(s.ones().count(), 70);
        assert!(!s.contains(70));
    }

    #[test]
    fn or_word_sets_bits_of_one_word() {
        let mut s = Bitset::new(130);
        s.insert(64);
        s.or_word(1, 0b110);
        s.or_word(2, 0b1);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![64, 65, 66, 128]);
    }

    #[test]
    fn words_mut_writes_through() {
        let mut s = Bitset::new(130);
        s.words_mut()[1] |= 1 << 3;
        s.words_mut()[0] = 0b101;
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 2, 67]);
    }
}
