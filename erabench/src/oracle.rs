//! The benchmark's own answer oracle and the properties every answer is
//! checked against.
//!
//! The oracle is a k-mer position table built from the generated text alone:
//! every text position is filed in a bucket chosen by a hash of its first
//! [`K`] symbols (one counting-sort pass, positions ascending within a
//! bucket). A pattern of at least `K` symbols is answered by comparing the
//! text at each position of its bucket with the pattern. It never consults
//! the program's suffix tree or suffix array.

use era::{Query, QueryAnswer};

/// Key length of the position table; patterns are never shorter.
pub const K: usize = 8;

pub struct KmerTable<'a> {
    /// The terminated text.
    text: &'a [u8],
    /// Bucket `b` holds `positions[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    positions: Vec<u32>,
    /// `64 - log2(bucket count)`: buckets take the top bits of the hash.
    shift: u32,
}

impl<'a> KmerTable<'a> {
    pub fn new(text: &'a [u8]) -> Self {
        let buckets = text.len().next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let keys: Vec<u32> = (0..text.len()).map(|i| bucket(&text[i..], shift)).collect();
        let mut starts = vec![0u32; buckets + 1];
        for &k in &keys {
            starts[k as usize + 1] += 1;
        }
        for b in 0..buckets {
            starts[b + 1] += starts[b];
        }
        let mut fill = starts.clone();
        let mut positions = vec![0u32; text.len()];
        for (i, &k) in keys.iter().enumerate() {
            positions[fill[k as usize] as usize] = i as u32;
            fill[k as usize] += 1;
        }
        KmerTable { text, starts, positions, shift }
    }

    /// Every occurrence of `pattern` (at least `K` symbols), ascending.
    pub fn occurrences(&self, pattern: &[u8]) -> Vec<u32> {
        assert!(pattern.len() >= K, "oracle patterns have at least {K} symbols");
        let b = bucket(pattern, self.shift) as usize;
        self.positions[self.starts[b] as usize..self.starts[b + 1] as usize]
            .iter()
            .copied()
            .filter(|&p| self.text[p as usize..].starts_with(pattern))
            .collect()
    }

    /// Whether `answer` is a correct answer to `query`:
    /// * `Count` equals the oracle's count;
    /// * `Contains` holds exactly when that count is above 0;
    /// * a `Locate` page holds `min(limit, count)` distinct positions, and
    ///   the text at each of them matches the pattern.
    pub fn check(&self, query: &Query, answer: &QueryAnswer) -> bool {
        let occurrences = self.occurrences(query.pattern()).len();
        match (query, answer) {
            (Query::Count { .. }, QueryAnswer::Count(n)) => *n == occurrences,
            (Query::Contains { .. }, QueryAnswer::Contains(b)) => *b == (occurrences > 0),
            (Query::Locate { pattern, offset: 0, limit }, QueryAnswer::Locate(page)) => {
                let want = occurrences.min(limit.unwrap_or(usize::MAX));
                let mut seen = page.clone();
                seen.sort_unstable();
                seen.dedup();
                page.len() == want
                    && seen.len() == want
                    && page
                        .iter()
                        .all(|&p| self.text.get(p..).is_some_and(|s| s.starts_with(pattern)))
            }
            _ => false,
        }
    }
}

/// The bucket of the `K` symbols starting `window` (zero-padded past the
/// end of the text).
fn bucket(window: &[u8], shift: u32) -> u32 {
    let mut k = 0u64;
    for i in 0..K {
        k = (k << 8) | u64::from(window.get(i).copied().unwrap_or(0));
    }
    (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as u32
}

/// Whether a built tree has exactly one leaf per suffix: its leaves, listed
/// in lexicographic order, are a permutation of `0..text_len`.
pub fn one_leaf_per_suffix(leaves: &[u32], text_len: usize) -> bool {
    if leaves.len() != text_len {
        return false;
    }
    let mut seen = vec![false; text_len];
    leaves.iter().all(|&p| match seen.get_mut(p as usize) {
        Some(s) if !*s => {
            *s = true;
            true
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_overlapping_occurrences() {
        let text = b"AAAAAAAAAAAACGT\0";
        let table = KmerTable::new(text);
        assert_eq!(table.occurrences(b"AAAAAAAA"), vec![0, 1, 2, 3, 4]);
        assert_eq!(table.occurrences(b"AAAAAACGT"), vec![6]);
        assert!(table.occurrences(b"CCCCCCCC").is_empty());
        assert!(one_leaf_per_suffix(&[2, 0, 1], 3));
        assert!(!one_leaf_per_suffix(&[2, 2, 1], 3));
    }
}
