//! Reverse-mapping core sets.
//!
//! The kernel's rmap answers "who has this page mapped?". For the fault-path
//! unmap cost, what matters is *how many CPU cores* have live mappings/TLB
//! entries for the pages being torn down — the paper's Fig. 11 shows that
//! OpenMP-parallel initialization (many mapper cores) roughly doubles batch
//! cost versus single-threaded initialization. The driver tears down whole
//! VABlocks, so [`HostMemory`](crate::HostMemory) keeps one mapper set per
//! block, as a 128-bit core bitmask (the Epyc 7551P testbed exposes 64
//! logical cores; 128 gives headroom).

use serde::{Deserialize, Serialize};

/// A set of CPU core IDs in `0..128`, stored as two 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct CoreSet {
    bits: [u64; 2],
}

/// Maximum representable core ID + 1.
pub const MAX_CORES: u32 = 128;

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet { bits: [0, 0] };

    /// A set containing a single core.
    pub fn single(core: u32) -> Self {
        let mut s = Self::EMPTY;
        s.insert(core);
        s
    }

    /// Insert `core`. Panics if `core >= MAX_CORES`.
    #[inline]
    pub fn insert(&mut self, core: u32) {
        assert!(core < MAX_CORES, "core id {core} out of range");
        self.bits[(core / 64) as usize] |= 1u64 << (core % 64);
    }

    /// Remove `core`.
    #[inline]
    pub fn remove(&mut self, core: u32) {
        if core < MAX_CORES {
            self.bits[(core / 64) as usize] &= !(1u64 << (core % 64));
        }
    }

    /// Whether `core` is present.
    #[inline]
    pub fn contains(&self, core: u32) -> bool {
        core < MAX_CORES && self.bits[(core / 64) as usize] & (1u64 << (core % 64)) != 0
    }

    /// Number of cores in the set.
    #[inline]
    pub fn len(&self) -> u32 {
        self.bits[0].count_ones() + self.bits[1].count_ones()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == [0, 0]
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: CoreSet) -> CoreSet {
        CoreSet {
            bits: [self.bits[0] | other.bits[0], self.bits[1] | other.bits[1]],
        }
    }

    /// Iterate core IDs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..MAX_CORES).filter(move |&c| self.contains(c))
    }

    /// Clear all cores.
    pub fn clear(&mut self) {
        self.bits = [0, 0];
    }
}

impl FromIterator<u32> for CoreSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = CoreSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = CoreSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(127);
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(127));
        assert!(!s.contains(1));
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn union_merges() {
        let a: CoreSet = [1u32, 2, 3].into_iter().collect();
        let b: CoreSet = [3u32, 4].into_iter().collect();
        let u = a.union(b);
        assert_eq!(u.len(), 4);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_and_clear() {
        let mut s = CoreSet::single(42);
        assert_eq!(s.len(), 1);
        assert!(s.contains(42));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = CoreSet::EMPTY;
        s.insert(128);
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut s = CoreSet::single(1);
        s.remove(500);
        assert_eq!(s.len(), 1);
    }
}
