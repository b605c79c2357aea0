//! Dense bit matrix backing the knowledge state of adaptive schedules.

/// A dense bit matrix, used as the knowledge matrix of adaptive
/// schedules (rows = nodes, columns = messages).
///
/// # Example
///
/// ```
/// use radio_model::BitMatrix;
///
/// let mut m = BitMatrix::new(3, 70);
/// m.set(1, 64);
/// assert!(m.get(1, 64));
/// assert!(!m.get(1, 63));
/// assert_eq!(m.row_count_ones(1), 1);
/// assert!(!m.row_all_ones(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn index(&self, r: usize, c: usize) -> (usize, u64) {
        debug_assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        (r * self.words_per_row + c / 64, 1u64 << (c % 64))
    }

    /// Sets bit `(r, c)` to 1. Returns whether the bit changed.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) -> bool {
        let (w, mask) = self.index(r, c);
        let word = self.bits[w];
        self.bits[w] = word | mask;
        word & mask == 0
    }

    /// Clears bit `(r, c)`.
    pub fn clear(&mut self, r: usize, c: usize) {
        let (w, mask) = self.index(r, c);
        self.bits[w] &= !mask;
    }

    /// Reads bit `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> bool {
        let (w, mask) = self.index(r, c);
        self.bits[w] & mask != 0
    }

    /// Number of set bits in row `r`.
    pub fn row_count_ones(&self, r: usize) -> usize {
        let lo = r * self.words_per_row;
        self.bits[lo..lo + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Whether every bit of row `r` is set.
    pub fn row_all_ones(&self, r: usize) -> bool {
        self.row_count_ones(r) == self.cols
    }

    /// Whether every bit of the matrix is set.
    pub fn all_ones(&self) -> bool {
        (0..self.rows).all(|r| self.row_all_ones(r))
    }

    /// The lowest column index not set in row `r`, or `None` if the
    /// row is complete.
    pub fn first_zero_in_row(&self, r: usize) -> Option<usize> {
        let lo = r * self.words_per_row;
        for (i, &w) in self.bits[lo..lo + self.words_per_row].iter().enumerate() {
            if w != u64::MAX {
                let c = i * 64 + (!w).trailing_zeros() as usize;
                if c < self.cols {
                    return Some(c);
                }
                return None; // padding bits beyond cols
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut m = BitMatrix::new(2, 3);
        assert!(m.set(0, 2));
        assert!(!m.set(0, 2), "second set reports no change");
        assert!(m.get(0, 2));
        m.clear(0, 2);
        assert!(!m.get(0, 2));
        // Past a word boundary, in the second row: only that row moves.
        let mut m = BitMatrix::new(2, 70);
        assert!(m.set(1, 65));
        assert!(!m.set(1, 65), "second set reports no change");
        assert_eq!((m.row_count_ones(0), m.row_count_ones(1)), (0, 1));
    }

    #[test]
    fn row_counts_across_word_boundary() {
        let mut m = BitMatrix::new(1, 130);
        m.set(0, 0);
        m.set(0, 64);
        m.set(0, 129);
        assert_eq!(m.row_count_ones(0), 3);
        assert!(!m.row_all_ones(0));
    }

    #[test]
    fn all_ones_detection() {
        let mut m = BitMatrix::new(2, 65);
        for r in 0..2 {
            for c in 0..65 {
                m.set(r, c);
            }
        }
        assert!(m.all_ones());
        m.clear(1, 64);
        assert!(!m.all_ones());
        assert!(m.row_all_ones(0));
    }

    #[test]
    fn first_zero() {
        let mut m = BitMatrix::new(1, 70);
        assert_eq!(m.first_zero_in_row(0), Some(0));
        for c in 0..65 {
            m.set(0, c);
        }
        assert_eq!(m.first_zero_in_row(0), Some(65));
        for c in 65..70 {
            m.set(0, c);
        }
        assert_eq!(m.first_zero_in_row(0), None);
    }

    #[test]
    fn dimensions() {
        let m = BitMatrix::new(4, 9);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 9);
    }
}
