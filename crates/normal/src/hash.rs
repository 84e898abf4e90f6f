//! A 128-bit structural hasher for canonical forms.
//!
//! The serve tier's SHA-256 lives in `vliw-serve`, which sits *above* this
//! crate in the dependency order, so the normal form carries its own hash: a
//! two-lane xor-multiply sponge (splitmix64 finalisation per absorbed word,
//! distinct round constants per lane). It is not cryptographic — it guards
//! against accidental collision between canonical forms, where 2×64 bits of
//! state is ample — and it is deterministic across platforms and runs.
//!
//! [`canonicalize`](crate::canon::canonicalize) uses it Merkle-style: one
//! leaf hash per section of the loop (header, arrays, registers, live-ins,
//! one per operation, live-outs), folded left-to-right into a root. Two
//! loops with equal roots had equal section encodings; any structural
//! difference perturbs its leaf and therefore the root.

/// A 128-bit structural hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructuralHash(pub [u64; 2]);

impl StructuralHash {
    /// Lower-case hex rendering, 32 characters.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl std::fmt::Display for StructuralHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// splitmix64 finaliser: a full-avalanche 64-bit mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streaming two-lane hasher over 64-bit words.
#[derive(Debug, Clone)]
pub struct Hasher128 {
    a: u64,
    b: u64,
    len: u64,
}

impl Hasher128 {
    /// A fresh hasher whose initial state is derived from `tag`, so hashes
    /// of different kinds of object never collide by construction.
    pub fn new(tag: u64) -> Hasher128 {
        Hasher128 {
            a: mix64(tag ^ 0x243f_6a88_85a3_08d3),
            b: mix64(tag ^ 0x1319_8a2e_0370_7344),
            len: 0,
        }
    }

    /// Absorb one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.a = mix64(self.a ^ w).rotate_left(23) ^ self.b;
        self.b = mix64(self.b.wrapping_add(w ^ 0xa409_3822_299f_31d0));
        self.len += 1;
        self
    }

    /// Absorb a signed word (common for immediates and offsets).
    pub fn iword(&mut self, w: i64) -> &mut Self {
        self.word(w as u64)
    }

    /// Absorb raw bytes (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn bytes(&mut self, bs: &[u8]) -> &mut Self {
        self.word(bs.len() as u64);
        for chunk in bs.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self
    }

    /// Absorb another hash (for Merkle folding).
    pub fn hash(&mut self, h: StructuralHash) -> &mut Self {
        self.word(h.0[0]).word(h.0[1])
    }

    /// Finalise: the absorbed length is folded in, so a prefix never
    /// collides with its extension.
    pub fn finish(&self) -> StructuralHash {
        let a = mix64(self.a ^ self.len);
        let b = mix64(self.b ^ a);
        StructuralHash([a ^ mix64(b), b])
    }

    /// One-word convenience mixer for colour refinement: not a full hash,
    /// just `mix64` over the xor-fold of the inputs' running combination.
    #[inline]
    pub fn combine(words: &[u64]) -> u64 {
        words
            .iter()
            .fold(Combine::START, |c, &w| c.step(w))
            .finish(words.len())
    }
}

/// The running state of [`Hasher128::combine`]. A caller that combines the
/// same leading words many times absorbs them once and resumes from the
/// saved state; the result is the same word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Combine(u64);

impl Combine {
    /// The state before any word.
    pub(crate) const START: Combine = Combine(0x51ed_270b_7a1c_c581);

    /// Absorb one word.
    #[inline]
    pub(crate) fn step(self, w: u64) -> Combine {
        Combine(mix64(self.0 ^ w).wrapping_mul(0x0001_0000_01b3))
    }

    /// Finish after `n_words` absorbed words in all.
    #[inline]
    pub(crate) fn finish(self, n_words: usize) -> u64 {
        mix64(self.0 ^ n_words as u64)
    }
}

/// [`Hasher128::combine`] over a fixed number of words: the same value,
/// with the word loop unrolled at each call site.
#[inline]
pub(crate) fn combine_n<const N: usize>(words: [u64; N]) -> u64 {
    Hasher128::combine(&words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_tag_separated() {
        let h = |tag: u64, words: &[u64]| {
            let mut hs = Hasher128::new(tag);
            for &w in words {
                hs.word(w);
            }
            hs.finish()
        };
        assert_eq!(h(1, &[1, 2, 3]), h(1, &[1, 2, 3]));
        assert_ne!(h(1, &[1, 2, 3]), h(2, &[1, 2, 3]));
        assert_ne!(h(1, &[1, 2, 3]), h(1, &[1, 2]));
        assert_ne!(h(1, &[1, 2, 3]), h(1, &[3, 2, 1]));
    }

    #[test]
    fn bytes_are_length_prefixed() {
        let h = |parts: &[&str]| {
            let mut hs = Hasher128::new(7);
            for p in parts {
                hs.bytes(p.as_bytes());
            }
            hs.finish()
        };
        assert_ne!(h(&["ab", "c"]), h(&["a", "bc"]));
        assert_ne!(h(&["abc"]), h(&["abc", ""]));
    }

    #[test]
    fn hex_is_32_chars() {
        let mut hs = Hasher128::new(0);
        hs.word(42);
        let hx = hs.finish().hex();
        assert_eq!(hx.len(), 32);
        assert!(hx.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn combine_orders_and_lengths_matter() {
        assert_eq!(Hasher128::combine(&[1, 2]), Hasher128::combine(&[1, 2]));
        assert_ne!(Hasher128::combine(&[1, 2]), Hasher128::combine(&[2, 1]));
        assert_ne!(Hasher128::combine(&[0]), Hasher128::combine(&[0, 0]));
    }
}
