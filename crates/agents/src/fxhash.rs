//! A fast, fixed (unseeded) hasher for small integer keys.
//!
//! The Firefox/rustc "Fx" hash: each machine word is folded in with one
//! rotate, xor and multiply, in place of the standard library's SipHash
//! rounds. It keys the shared design cache (`ax_dse::SharedCache`), whose
//! keys — a scope id and an execution-class configuration — are a few
//! bounded integers each, so that is a handful of instructions per lookup.
//! The RL step itself hashes nothing: Q-table rows and an evaluator's
//! local memo are indexed by design ordinal. The hasher carries no
//! per-process seed, so a key hashes the same in every run, and it offers
//! no protection against adversarial keys: use it only for keys the
//! program itself derives, never for client-supplied strings.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The Fx word hasher. Its high bits are the best mixed, because the
/// multiply carries upwards only: maps index buckets by the low bits and
/// still spread well, but a second-level split should take the high bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx(key: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn outputs_are_fixed_for_fixed_keys() {
        // No per-process seed: these values hold in every run and build.
        // A tuple folds in one word per field; a slice folds in its length,
        // then its bytes eight at a time, the tail zero-padded.
        assert_eq!(fx(0u64), 0);
        assert_eq!(fx(1u64), SEED);
        assert_eq!(fx((3usize, 5usize, 0b1011u64)), 0x5971_0c2f_7404_d5f1);
        assert_eq!(fx(&[0xffu8; 11][..]), 0xf3bf_2627_8e02_6ff6);
    }

    #[test]
    fn maps_round_trip() {
        let mut map: FxHashMap<(usize, u64), u32> = FxHashMap::default();
        for i in 0..1_000u64 {
            map.insert((i as usize % 7, i), i as u32);
        }
        assert_eq!(map.len(), 1_000);
        assert!((0..1_000u64).all(|i| map[&(i as usize % 7, i)] == i as u32));
    }
}
