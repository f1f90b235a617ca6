/// A fixed-capacity bitset over vertex ids `0..n`.
///
/// Used throughout the workspace to represent "alive" vertex masks during
/// peeling and search. All operations are branch-light and word-parallel
/// where possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

const WORD_BITS: usize = 64;

impl BitSet {
    /// Creates an empty bitset with capacity for `capacity` bits, all unset.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Creates a bitset with all `capacity` bits set.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet {
            words: vec![!0u64; capacity.div_ceil(WORD_BITS)],
            capacity,
        };
        s.clear_tail();
        s
    }

    fn clear_tail(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets bit `i`. Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`. Panics if `i >= capacity`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Returns whether bit `i` is set. Out-of-range indices are reported unset.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Unsets every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over set bit indices in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects set bits as `u32` ids (the workspace vertex-id type).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().map(|i| i as u32).collect()
    }

    /// The backing 64-bit words (little-endian bit order within each
    /// word). Exposed for bulk persistence (`ic-store`); pair with
    /// [`BitSet::from_words`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassembles a bitset from its backing words. Returns `None` when
    /// the word count does not match `capacity` or a bit beyond
    /// `capacity` is set — deserialization must fail closed rather than
    /// produce a mask that silently violates the capacity contract.
    pub fn from_words(words: Vec<u64>, capacity: usize) -> Option<Self> {
        if words.len() != capacity.div_ceil(WORD_BITS) {
            return None;
        }
        let rem = capacity % WORD_BITS;
        if rem != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << rem) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(BitSet { words, capacity })
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a bitset sized to fit the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over the set bits of a [`BitSet`].
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn full_respects_capacity_tail() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn full_with_word_aligned_capacity() {
        let s = BitSet::full(128);
        assert_eq!(s.count(), 128);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let mut s = BitSet::new(200);
        for i in [3usize, 64, 65, 127, 128, 199] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![3, 64, 65, 127, 128, 199]);
    }

    #[test]
    fn iter_empty() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        let s = BitSet::new(100);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn set_all_and_clear() {
        let mut s = BitSet::full(67);
        assert_eq!(s.count(), 67);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn words_round_trip_and_fail_closed() {
        let mut s = BitSet::new(70);
        s.insert(3);
        s.insert(69);
        let back = BitSet::from_words(s.words().to_vec(), 70).unwrap();
        assert_eq!(back, s);
        // Wrong word count.
        assert!(BitSet::from_words(vec![0], 70).is_none());
        // Bit set beyond the declared capacity.
        assert!(BitSet::from_words(vec![0, 1u64 << 7], 70).is_none());
        // Word-aligned capacity has no tail constraint.
        assert!(BitSet::from_words(vec![!0u64, !0u64], 128).is_some());
    }

    #[test]
    fn from_iter_sizes_to_max() {
        let s: BitSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.to_vec(), vec![2, 5, 9]);
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.capacity(), 0);
    }
}
