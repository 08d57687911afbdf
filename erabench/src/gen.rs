//! Seeded input and query generation.
//!
//! Everything the benchmark feeds the program is derived from the `--seed`
//! argument through the generators here; the program only ever sees the
//! generated bytes. The generators are the benchmark's own (a SplitMix64
//! stream), so a change to the library's workload crate cannot change the
//! benchmark's inputs.

use era::Query;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Mixes a workload-specific stream id into the command's seed, so the
/// input text and the query stream of one run are independent streams.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut r = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ stream);
    r.next_u64()
}

pub const DNA: &[u8] = b"ACGT";

/// The 20 amino acids with their approximate natural abundance (per mille),
/// so protein-like text has the skewed symbol distribution real proteomes
/// have.
const PROTEIN: [(u8, u32); 20] = [
    (b'A', 83),
    (b'C', 14),
    (b'D', 55),
    (b'E', 68),
    (b'F', 39),
    (b'G', 71),
    (b'H', 23),
    (b'I', 59),
    (b'K', 58),
    (b'L', 97),
    (b'M', 24),
    (b'N', 41),
    (b'P', 47),
    (b'Q', 39),
    (b'R', 55),
    (b'S', 66),
    (b'T', 53),
    (b'V', 69),
    (b'W', 11),
    (b'Y', 29),
];

/// Uniform random DNA.
pub fn uniform_dna(len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = with_terminal_room(len);
    out.extend((0..len).map(|_| DNA[rng.below(4)]));
    out
}

/// Longest tandem repeat, in symbols. On some seeds a longer run (up to 273
/// symbols of one homopolymer or period-2 motif, copied on by later
/// duplications) made partition prefixes outgrow the 8–24-symbol patterns,
/// so every query fanned out to ~3 partitions and the batch latency swung by
/// a half from seed to seed.
const MAX_TANDEM: usize = 64;

/// DNA with a genome's repeat structure: fresh uniform stretches,
/// segmental duplications of earlier text with ~1% point mutations, and
/// short tandem repeats.
pub fn genome_like(len: usize, rng: &mut Rng) -> Vec<u8> {
    let mut out = with_terminal_room(len);
    while out.len() < len {
        let room = len - out.len();
        let roll = rng.below(100);
        if roll < 55 || out.len() < 4096 {
            let seg = rng.range(16, 256).min(room);
            out.extend((0..seg).map(|_| DNA[rng.below(4)]));
        } else if roll < 90 {
            let copy_len = rng.range(32, 2049).min(room);
            let src = rng.below(out.len() - copy_len.min(out.len()) + 1);
            for i in 0..copy_len.min(out.len() - src) {
                let b = if rng.chance(0.01) { DNA[rng.below(4)] } else { out[src + i] };
                out.push(b);
            }
        } else {
            let motif: Vec<u8> = (0..rng.range(2, 8)).map(|_| DNA[rng.below(4)]).collect();
            let reps = rng.range(4, 40);
            out.extend(motif.iter().cycle().take((reps * motif.len()).min(MAX_TANDEM).min(room)));
        }
    }
    out
}

/// Protein-like text: independent symbols drawn with natural amino-acid
/// abundances.
pub fn protein_like(len: usize, rng: &mut Rng) -> Vec<u8> {
    let total: u32 = PROTEIN.iter().map(|&(_, w)| w).sum();
    let mut table = Vec::with_capacity(total as usize);
    for &(s, w) in &PROTEIN {
        table.extend(std::iter::repeat_n(s, w as usize));
    }
    let mut out = with_terminal_room(len);
    out.extend((0..len).map(|_| table[rng.below(table.len())]));
    out
}

/// An empty text buffer for `len` symbols and the terminal, so appending the
/// terminal never reallocates (and copies) the whole text.
fn with_terminal_room(len: usize) -> Vec<u8> {
    Vec::with_capacity(len + 1)
}

/// Query mix and pattern shape of the closed-loop stream.
pub struct QueryGen<'a> {
    body: &'a [u8],
    alphabet: &'a [u8],
    rng: Rng,
}

/// Pattern lengths are drawn from `MIN_PATTERN..MAX_PATTERN`.
pub const MIN_PATTERN: usize = 8;
pub const MAX_PATTERN: usize = 25;
/// Share of patterns that get one symbol substituted, so that some are
/// absent from the text.
pub const MUTATED_SHARE: f64 = 0.25;
/// Page size of every `Locate` query.
pub const LOCATE_LIMIT: usize = 8;

impl<'a> QueryGen<'a> {
    pub fn new(body: &'a [u8], alphabet: &'a [u8], seed: u64) -> Self {
        QueryGen { body, alphabet, rng: Rng::new(seed) }
    }

    /// One query: a pattern copied from a random text position (one symbol
    /// substituted for a `MUTATED_SHARE` of them), asked as a `Count` (40%),
    /// `Contains` (30%) or first-page `Locate` (30%).
    pub fn next_query(&mut self) -> Query {
        let len = self.rng.range(MIN_PATTERN, MAX_PATTERN);
        let pos = self.rng.below(self.body.len() - len + 1);
        let mut pattern = self.body[pos..pos + len].to_vec();
        if self.rng.chance(MUTATED_SHARE) {
            let at = self.rng.below(len);
            let others: Vec<u8> =
                self.alphabet.iter().copied().filter(|&s| s != pattern[at]).collect();
            pattern[at] = others[self.rng.below(others.len())];
        }
        match self.rng.below(10) {
            0..=3 => Query::count(pattern),
            4..=6 => Query::contains(pattern),
            _ => Query::locate_page(pattern, 0, LOCATE_LIMIT),
        }
    }

    pub fn batch(&mut self, size: usize) -> era::QueryBatch {
        (0..size).map(|_| self.next_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded_and_sized() {
        for gen in [uniform_dna, genome_like, protein_like] {
            let a = gen(10_000, &mut Rng::new(7));
            assert_eq!(a.len(), 10_000);
            assert_eq!(a, gen(10_000, &mut Rng::new(7)));
            assert_ne!(a, gen(10_000, &mut Rng::new(8)));
        }
    }
}
