//! A fast, fixed-key hasher for maps that are only ever probed by key.
//!
//! std's default `SipHash-1-3` costs several rounds per 8-byte word and a
//! random key per map. The engine's per-tuple maps (the tuple interner,
//! the hash-index buckets, the dependents map, the provenance graph's
//! episode maps) hash a whole tuple on every probe, millions of times per
//! replay, so that cost dominated their lookups. This is the multiply-and-
//! rotate scheme of FxHash: one rotate, xor and multiply per word.
//!
//! The key is fixed, so the hash does not resist flooding: whoever chooses
//! the keys can choose colliding ones. The maps that use it are keyed by
//! the evaluated program's own tuples, which come from operator-supplied
//! logs and configurations, and every run is bounded by the engine's
//! `max_events`; keys read from a network peer must keep std's hasher.
//!
//! Iteration order is arbitrary (but repeatable), so a map using this
//! hasher must never be iterated into any output that has to be
//! deterministic across versions; sort or use a `BTreeMap` there.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of FxHash (from the golden ratio, 64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A [`Hasher`] of one rotate, xor and multiply per word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunk of 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
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

    /// The multiply leaves its best-mixed bits at the top of the word, but
    /// `HashMap` picks buckets from the low bits; the rotate moves mixed
    /// bits down so keys differing only in an early word still spread.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; zero-sized, so maps pay nothing to carry it.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Tuple, Value};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn hashing_is_repeatable_and_content_based() {
        let a = tuple!("flowEntry", 5, "S1");
        let b = tuple!("flowEntry", 5, "S1");
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&tuple!("flowEntry", 6, "S1")));
        // Byte strings whose lengths are not a multiple of 8 still hash
        // every byte.
        assert_ne!(hash_of(&"abcdefghi"), hash_of(&"abcdefghj"));
    }

    #[test]
    fn keys_differing_only_in_high_bits_spread_over_buckets() {
        // /20 subnet addresses as the last field: the keys differ only
        // above bit 11 of the last word, and the bucket index is the low
        // bits of the hash. Without the final rotate they would all share
        // one bucket; with it they hit about as many as a random hash
        // would (~647), within a factor of two.
        let buckets: FxHashSet<u64> = (0..1024u32)
            .map(|i| hash_of(&tuple!("route", "S1", Value::Ip(i << 12))) & 0x3ff)
            .collect();
        assert!(buckets.len() > 320, "{} of 1024 buckets hit", buckets.len());
    }

    #[test]
    fn maps_find_what_they_hold() {
        let mut m: FxHashMap<Tuple, u32> = FxHashMap::default();
        for i in 0..1000i64 {
            m.insert(tuple!("t", i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000i64).all(|i| m[&tuple!("t", i)] == i as u32));
    }
}
