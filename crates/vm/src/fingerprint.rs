//! A 64-bit content digest that every process computes alike.
//!
//! A cached evaluation outcome is valid only for the program, operator
//! models and inputs it was computed from, and cache files outlive the
//! process that wrote them. [`Fingerprint`] digests those inputs with no
//! per-process seed, so two processes that prepare the same benchmark the
//! same way agree on its digest.

use std::hash::Hasher;

/// A word-at-a-time digest with no per-process seed.
///
/// Words are folded with the step of rustc's Fx hash (one rotate, xor and
/// multiply) into four lanes in turn, so four dependency chains run side
/// by side, and [`Hasher::finish`] folds the lanes together and runs a
/// MurmurHash3 finaliser. Each step is a bijection of the state for a
/// fixed word, so two equally long word streams that differ in a single
/// word never collide. `Hasher` is implemented so `#[derive(Hash)]` types
/// (the skeleton's instructions, the operator models) fold in directly; a
/// `u32`, `u64`, `usize` or `isize` write (an enum discriminant) is one
/// word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint([u64; 4]);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Digits of π: the lanes' initial values.
    const SEED: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    const K: u64 = 0x517c_c1b7_2722_0a95;

    /// An empty digest.
    pub const fn new() -> Self {
        Self(Self::SEED)
    }

    /// The Fx step.
    #[inline]
    fn step(state: u64, word: u64) -> u64 {
        (state.rotate_left(5) ^ word).wrapping_mul(Self::K)
    }

    /// Folds in one word: into the oldest lane, which becomes the newest.
    #[inline]
    fn word(&mut self, word: u64) {
        let [a, b, c, d] = self.0;
        self.0 = [b, c, d, Self::step(a, word)];
    }

    /// Folds in a slice's length, then each of its words.
    pub fn words(&mut self, words: &[i64]) {
        self.word(words.len() as u64);
        for &w in words {
            self.word(w as u64);
        }
    }
}

impl Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        let mut h = self
            .0
            .iter()
            .fold(Self::SEED[0], |h, &lane| Self::step(h, lane));
        // MurmurHash3's fmix64.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// Bytes fold in eight at a time, little-endian, then the length.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
        self.word(bytes.len() as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.word(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn digest(words: &[i64]) -> u64 {
        let mut fp = Fingerprint::new();
        fp.words(words);
        fp.finish()
    }

    #[test]
    fn digests_are_fixed_values() {
        // No per-process seed: these values hold in every process, which is
        // what lets a cache file keep its scopes. They were checked against
        // an independent transcription of the fold and the finaliser.
        assert_eq!(digest(&[]), 0x93d8_a34a_d9db_bf00);
        assert_eq!(digest(&[1, 2, 3]), 0xab56_651e_b82b_663f);
    }

    #[test]
    fn one_changed_word_or_length_changes_the_digest() {
        let base = [3i64, -1, 0, 7, 1 << 40];
        let d = digest(&base);
        for i in 0..base.len() {
            let mut changed = base;
            changed[i] ^= 1;
            assert_ne!(digest(&changed), d, "word {i}");
        }
        assert_ne!(digest(&base[..4]), d);
        assert_ne!(digest(&[0, 0]), digest(&[0, 0, 0]));
    }

    #[test]
    fn derived_hashes_fold_each_field() {
        use ax_operators::{AdderKind, AdderModel, BitWidth};
        let hash = |m: AdderModel| {
            let mut fp = Fingerprint::new();
            m.hash(&mut fp);
            fp.finish()
        };
        let loa = |k| AdderModel::new(AdderKind::Loa { approx_bits: k }, BitWidth::W8);
        assert_eq!(hash(loa(3)), hash(loa(3)));
        assert_ne!(hash(loa(3)), hash(loa(4)));
        assert_ne!(
            hash(loa(3)),
            hash(AdderModel::new(
                AdderKind::Trunc { cut_bits: 3 },
                BitWidth::W8
            ))
        );
    }
}
