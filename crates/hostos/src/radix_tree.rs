//! A Linux-style radix tree.
//!
//! The mainline kernel stores reverse DMA address mappings in a radix tree
//! (`lib/radix-tree.c`); the UVM driver inserts one entry per page when it
//! creates DMA mappings for a VABlock on first GPU touch. Allen & Ge observe
//! that the *radix-tree portion* of DMA setup dominates the high-cost
//! batches, and that the cost is intermittent — consistent with tree growth
//! (height extension and interior-node allocation) happening only on some
//! inserts.
//!
//! This implementation mirrors the kernel structure: 64-slot nodes
//! (`RADIX_TREE_MAP_SHIFT = 6`), height grows lazily with the largest stored
//! key, and every insert reports how many nodes it allocated so the cost
//! model can charge for exactly the allocation work a real insert would do.
//! The tree only grows: the simulator never tears a DMA mapping down, so
//! there is no removal, and a tree is fully determined by its keys in
//! insertion order. It is therefore never serialized; the DMA space
//! rebuilds it by reinsertion.
//!
//! Nodes live in two typed arenas (interior and leaf) and point at each
//! other by `u32` index. A leaf stores a 64-bit presence bitmap plus a
//! dense, rank-ordered value vector instead of a 64-slot option array:
//! slot `i` holds a value iff bit `i` is set, and the value lives at index
//! `popcount(present & (bit - 1))`.

/// log2 of the node fan-out (64 slots per node, as in Linux).
pub const MAP_SHIFT: u32 = 6;
/// Slots per node.
pub const MAP_SIZE: usize = 1 << MAP_SHIFT;
/// Slot-index mask.
pub const MAP_MASK: u64 = (MAP_SIZE as u64) - 1;

/// Arena index of a node. `u32` keeps a child link at half a word.
type NodeIdx = u32;

/// An interior node: bit `i` of `present` is set iff `children[i]` is a
/// live link. Children of the lowest interior level index the leaf arena;
/// all others index the interior arena. Non-present `children` slots are
/// never read.
#[derive(Debug, Clone)]
struct InnerNode {
    present: u64,
    children: [NodeIdx; MAP_SIZE],
}

/// A leaf node: bit `i` of `present` is set iff slot `i` holds a value,
/// stored densely at `values[popcount(present below bit i)]`.
#[derive(Debug, Clone)]
struct LeafNode<V> {
    present: u64,
    values: Vec<V>,
}

/// Dense index of slot `digit` within a `present` bitmap.
#[inline]
fn rank(present: u64, digit: usize) -> usize {
    (present & ((1u64 << digit) - 1)).count_ones() as usize
}

/// Size of the tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RadixStats {
    /// Interior and leaf nodes allocated (the tree never frees one).
    pub nodes: u64,
    /// Number of stored entries.
    pub entries: u64,
}

/// A radix tree mapping `u64` keys to values `V`.
///
/// ```
/// use uvm_hostos::RadixTree;
///
/// let mut t: RadixTree<&str> = RadixTree::new();
/// let r = t.insert(0x1234, "page");
/// assert!(r.nodes_allocated >= 1);
/// assert_eq!(t.get(0x1234), Some(&"page"));
/// assert_eq!(t.get(0x9999), None);
/// ```
#[derive(Debug, Clone)]
pub struct RadixTree<V> {
    inners: Vec<InnerNode>,
    leaves: Vec<LeafNode<V>>,
    /// Root node: in `leaves` when `height == 1`, in `inners` when taller.
    root: Option<NodeIdx>,
    /// Number of MAP_SHIFT-sized digit positions covered by the current
    /// root (i.e. tree height). Zero when the tree is empty.
    height: u32,
    stats: RadixStats,
}

/// Work report for one insert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertReport {
    /// Interior/leaf nodes newly allocated by this insert (tree growth).
    pub nodes_allocated: u64,
    /// Whether the key replaced an existing entry.
    pub replaced: bool,
}

impl<V> Default for RadixTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RadixTree<V> {
    /// An empty tree.
    pub fn new() -> Self {
        RadixTree {
            inners: Vec::new(),
            leaves: Vec::new(),
            root: None,
            height: 0,
            stats: RadixStats::default(),
        }
    }

    /// Size statistics.
    pub fn stats(&self) -> RadixStats {
        self.stats
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.stats.entries
    }

    /// Whether the tree stores no entries.
    pub fn is_empty(&self) -> bool {
        self.stats.entries == 0
    }

    /// Height required to index `key`: the number of 6-bit digits.
    fn height_for(key: u64) -> u32 {
        let mut h = 1;
        let mut k = key >> MAP_SHIFT;
        while k != 0 {
            h += 1;
            k >>= MAP_SHIFT;
        }
        h
    }

    fn alloc_inner(&mut self) -> NodeIdx {
        self.stats.nodes += 1;
        let idx = NodeIdx::try_from(self.inners.len()).expect("radix arena exceeds u32 indices");
        self.inners.push(InnerNode { present: 0, children: [0; MAP_SIZE] });
        idx
    }

    fn alloc_leaf(&mut self) -> NodeIdx {
        self.stats.nodes += 1;
        let idx = NodeIdx::try_from(self.leaves.len()).expect("radix arena exceeds u32 indices");
        self.leaves.push(LeafNode { present: 0, values: Vec::new() });
        idx
    }

    /// Insert `value` at `key`, returning the work performed.
    pub fn insert(&mut self, key: u64, value: V) -> InsertReport {
        let mut report = InsertReport::default();
        let need = Self::height_for(key);

        // Grow the tree upward until the root covers `key` — each extension
        // allocates a new root whose slot 0 points at the old root. This is
        // the "growing of the underlying radix tree" the paper points to for
        // intermittent high-cost DMA-setup batches.
        let mut cur = match self.root {
            Some(mut root) => {
                while self.height < need {
                    let new_root = self.alloc_inner();
                    report.nodes_allocated += 1;
                    let node = &mut self.inners[new_root as usize];
                    node.present = 1;
                    node.children[0] = root;
                    root = new_root;
                    self.height += 1;
                }
                root
            }
            None => {
                report.nodes_allocated += 1;
                self.height = need;
                if need == 1 { self.alloc_leaf() } else { self.alloc_inner() }
            }
        };
        self.root = Some(cur);

        // Descend, allocating interior nodes along the path as needed. The
        // node reached after consuming the digit at level 1 is the leaf.
        for level in (1..self.height).rev() {
            let digit = ((key >> (level * MAP_SHIFT)) & MAP_MASK) as usize;
            let bit = 1u64 << digit;
            if self.inners[cur as usize].present & bit != 0 {
                cur = self.inners[cur as usize].children[digit];
            } else {
                let child = if level == 1 { self.alloc_leaf() } else { self.alloc_inner() };
                report.nodes_allocated += 1;
                let node = &mut self.inners[cur as usize];
                node.present |= bit;
                node.children[digit] = child;
                cur = child;
            }
        }
        let digit = (key & MAP_MASK) as usize;
        let bit = 1u64 << digit;
        let leaf = &mut self.leaves[cur as usize];
        let pos = rank(leaf.present, digit);
        if leaf.present & bit != 0 {
            leaf.values[pos] = value;
            report.replaced = true;
        } else {
            leaf.values.insert(pos, value);
            leaf.present |= bit;
            self.stats.entries += 1;
        }
        report
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        // `key` fits the current height iff no digit above it is set
        // (heights of 11+ cover the whole u64 range).
        if self.height < 11 && key >> (self.height * MAP_SHIFT) != 0 {
            return None;
        }
        let mut cur = self.root?;
        for level in (1..self.height).rev() {
            let digit = ((key >> (level * MAP_SHIFT)) & MAP_MASK) as usize;
            let node = &self.inners[cur as usize];
            if node.present & (1u64 << digit) == 0 {
                return None;
            }
            cur = node.children[digit];
        }
        let leaf = &self.leaves[cur as usize];
        let digit = (key & MAP_MASK) as usize;
        if leaf.present & (1u64 << digit) == 0 {
            return None;
        }
        Some(&leaf.values[rank(leaf.present, digit)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trip() {
        let mut t = RadixTree::new();
        for k in [0u64, 1, 63, 64, 65, 4095, 4096, 1 << 30, u64::MAX] {
            t.insert(k, k.wrapping_mul(2));
        }
        for k in [0u64, 1, 63, 64, 65, 4095, 4096, 1 << 30, u64::MAX] {
            assert_eq!(t.get(k), Some(&k.wrapping_mul(2)).as_ref().map(|v| *v), "key {k}");
        }
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn first_insert_allocates_root() {
        let mut t = RadixTree::new();
        let r = t.insert(5, ());
        assert_eq!(r.nodes_allocated, 1);
        assert!(!r.replaced);
        // A key above the root's reach is absent without a walk.
        assert_eq!(t.get(1 << 40), None);
    }

    #[test]
    fn replacing_allocates_nothing() {
        let mut t = RadixTree::new();
        t.insert(100, 1);
        let r = t.insert(100, 2);
        assert_eq!(r.nodes_allocated, 0);
        assert!(r.replaced);
        assert_eq!(t.get(100), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn growth_is_intermittent() {
        // Sequential inserts: most allocate zero nodes, occasionally a new
        // leaf node (every 64 keys) or a height extension. This is exactly
        // the intermittency the paper attributes DMA-setup outliers to.
        let mut t = RadixTree::new();
        let reports: Vec<u64> = (0..4096u64).map(|k| t.insert(k, ()).nodes_allocated).collect();
        let zero = reports.iter().filter(|&&n| n == 0).count();
        let nonzero = reports.iter().filter(|&&n| n > 0).count();
        assert!(zero > 3900, "most inserts allocate nothing: {zero}");
        assert!(nonzero > 32, "but growth happens: {nonzero}");
    }

    #[test]
    fn height_extension_allocates_path() {
        let mut t = RadixTree::new();
        t.insert(0, ());
        // Jumping to a huge key forces several height extensions at once —
        // a burst of allocations.
        let r = t.insert(1 << 40, ());
        assert!(r.nodes_allocated >= 6, "got {}", r.nodes_allocated);
    }

    #[test]
    fn node_accounting_is_consistent() {
        let mut t = RadixTree::new();
        let allocated: u64 = (0..1000u64).map(|k| t.insert(k * 37, ()).nodes_allocated).sum();
        let s = t.stats();
        assert_eq!(s.nodes, allocated);
        assert_eq!(s.entries, 1000);
    }

    #[test]
    fn dense_values_pack_by_rank() {
        // Out-of-order inserts within one leaf must keep the value vector
        // rank-ordered.
        let mut t = RadixTree::new();
        for digit in [40u64, 3, 63, 0, 17] {
            t.insert(digit, digit * 10);
        }
        for digit in [0u64, 3, 17, 40, 63] {
            assert_eq!(t.get(digit), Some(&(digit * 10)));
        }
        assert_eq!(t.get(18), None);
    }
}
