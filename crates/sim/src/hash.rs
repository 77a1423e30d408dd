//! One deterministic hasher for every simulator map and set.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 under per-process random
//! keys. The keys buy DoS resistance, which a simulator fed its own page
//! numbers does not need, and cost a long hash on every lookup of the
//! fault path's hottest sets (the GPU page table, the μTLB outstanding
//! sets). [`FastMap`] and [`FastSet`] use [`FxHasher`] instead: an
//! FxHash-style multiply-rotate over the key's machine words, with a fixed
//! seed. Iteration order is therefore the same in every process — not
//! that anything may depend on it: serialized maps and sets are written in
//! sorted key order, and the simulation never iterates a hash container
//! where order matters.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style hasher: each machine word is folded in as
/// `hash = (hash.rotl(5) ^ word) * K`.
///
/// The multiply carries entropy only upward, so keys differing solely in
/// their high bits (page numbers a VABlock apart, say) would share their
/// low bits — the bits `hashbrown` picks a bucket with. [`Hasher::finish`]
/// rotates the high half down to fix that.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The multiplier rustc's `FxHasher` uses (from the golden ratio).
const K: u64 = 0x517C_C1B7_2722_0A95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Byte strings fold a byte at a time; every simulator key is an
    /// integer newtype and takes the word-sized methods below.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; every instance hashes alike.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`]. Construct with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`]. Construct with
/// `FastSet::default()`.
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use serde::{Deserialize, Serialize};

    use super::*;

    #[test]
    fn hashing_is_process_independent() {
        // Pinned values: a fixed seed means the same hash in every process.
        let h = |x: u64| FxBuildHasher::default().hash_one(x);
        assert_eq!(h(0), 0);
        assert_eq!(h(1), K.rotate_left(26));
        assert_eq!(h(1), h(1));
        assert_ne!(h(1), h(2));
    }

    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        // Keys a VABlock (512 pages) apart must not collapse onto a few
        // buckets: the low 10 bits of their hashes stay well spread.
        let low: FastSet<u64> = (0..1024u64)
            .map(|i| FxBuildHasher::default().hash_one(i * 512) & 1023)
            .collect();
        assert!(
            low.len() > 600,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    /// The vendored serde facade writes hash containers in sorted key
    /// order whatever their hasher, so a `FastMap`/`FastSet` serializes,
    /// digests and renders exactly like the std container it replaced.
    #[test]
    fn fast_containers_serialize_like_std_ones() {
        let pairs: Vec<(u64, String)> = (0..200u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1009, format!("v{i}")))
            .collect();
        let fast: FastMap<u64, String> = pairs.iter().cloned().collect();
        let std: HashMap<u64, String> = pairs.into_iter().collect();
        assert_eq!(fast.to_value(), std.to_value());
        assert_eq!(serde::digest(&fast), serde::digest(&std));
        assert_eq!(serde::digest(&fast), serde::digest_value(&fast.to_value()));
        assert_eq!(
            serde_json::to_string(&fast).unwrap(),
            serde_json::to_string(&std).unwrap()
        );

        let fast: FastSet<i64> = (-300..300).rev().step_by(7).collect();
        let std: HashSet<i64> = fast.iter().copied().collect();
        assert_eq!(fast.to_value(), std.to_value());
        assert_eq!(serde::digest(&fast), serde::digest(&std));
        assert_eq!(serde::digest(&fast), serde::digest_value(&fast.to_value()));
        assert_eq!(
            serde_json::to_string(&fast).unwrap(),
            serde_json::to_string(&std).unwrap()
        );
    }

    #[test]
    fn fast_containers_deserialize() {
        let std: HashMap<u32, u64> = (0..64u32).map(|i| (i * 3, u64::from(i) << 40)).collect();
        let json = serde_json::to_string(&std).unwrap();
        let fast: FastMap<u32, u64> = serde_json::from_str(&json).unwrap();
        assert_eq!(fast.len(), 64);
        assert!(std.iter().all(|(k, v)| fast.get(k) == Some(v)));

        let set: FastSet<u16> =
            FastSet::from_value(&(0..64u16).collect::<Vec<_>>().to_value()).unwrap();
        assert_eq!(set.len(), 64);
        assert!(set.contains(&63));
    }
}
