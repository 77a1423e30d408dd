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
//!
//! Three throughput refinements on top of the kernel shape (none changes
//! the accounting the cost model sees):
//!
//! * **Arena storage.** Nodes live in two typed arenas (interior and leaf)
//!   and point at each other by `u32` index instead of `Box` — dense sweeps
//!   walk warm cache lines rather than chasing heap-scattered pointers, and
//!   freed indices recycle through free lists.
//! * **Bitmap-compressed leaves.** A leaf stores a 64-bit presence bitmap
//!   plus a dense, rank-ordered value vector instead of a 64-slot option
//!   array: slot `i` holds a value iff bit `i` is set, and the value lives
//!   at index `popcount(present & (bit - 1))`. A typical
//!   partially-populated leaf occupies tens of bytes instead of a kilobyte,
//!   so a per-block page sweep touches a fraction of the cache lines.
//! * **Last-leaf memo.** `get` caches the leaf node of the previous lookup
//!   (keyed by `key >> 6`). Per-block page sweeps — 512 consecutive page
//!   lookups during DMA reverse mapping — hit the memo ~63 times out of 64
//!   and skip the root walk entirely. The memo is refreshed by `insert`
//!   (node roles never change as the tree grows, so existing indices stay
//!   valid) and invalidated by a generation bump on `remove` and
//!   deserialization (freed indices can be recycled into unrelated nodes).

use std::cell::Cell;

use serde::{DeError, Deserialize, Serialize, Sink, Source};

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
/// all others index the interior arena. Non-present `children` slots hold
/// stale indices and are never read.
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

impl InnerNode {
    fn new() -> Self {
        InnerNode { present: 0, children: [0; MAP_SIZE] }
    }
}

/// Dense index of slot `digit` within a `present` bitmap.
#[inline]
fn rank(present: u64, digit: usize) -> usize {
    (present & ((1u64 << digit) - 1)).count_ones() as usize
}

/// Statistics accumulated over the tree's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RadixStats {
    /// Total interior/leaf-level nodes currently allocated.
    pub nodes: u64,
    /// Total node allocations ever performed (monotone).
    pub total_allocs: u64,
    /// Total node frees ever performed (monotone).
    pub total_frees: u64,
    /// Number of stored entries.
    pub entries: u64,
}

/// Sentinel for "no node" in the memo.
const NO_NODE: NodeIdx = NodeIdx::MAX;

/// The last-lookup memo: the leaf node that covered `prefix == key >> 6`
/// when the memo was written at generation `gen`, plus the level-1
/// interior node (the leaf's parent, covering `prefix1 == key >> 12`) so
/// that a lookup that steps into the *next* 64-key window re-walks one
/// level instead of the whole tree. `inner1` is [`NO_NODE`] for trees of
/// height one, which have no interior level.
#[derive(Debug, Clone, Copy)]
struct Memo {
    prefix: u64,
    leaf: NodeIdx,
    prefix1: u64,
    inner1: NodeIdx,
    gen: u64,
}

const STALE_MEMO: Memo =
    Memo { prefix: 0, leaf: 0, prefix1: 0, inner1: NO_NODE, gen: u64::MAX };

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
    /// Interior-node arena; `free_inner` lists recycled indices.
    inners: Vec<InnerNode>,
    free_inner: Vec<NodeIdx>,
    /// Leaf-node arena; `free_leaf` lists recycled indices. Recycled
    /// leaves keep their value-vector capacity.
    leaves: Vec<LeafNode<V>>,
    free_leaf: Vec<NodeIdx>,
    /// Root node: in `leaves` when `height == 1`, in `inners` when taller.
    root: Option<NodeIdx>,
    /// Number of MAP_SHIFT-sized digit positions covered by the current
    /// root (i.e. tree height). Zero when the tree is empty.
    height: u32,
    stats: RadixStats,
    /// Bumped whenever node indices may be recycled (`remove`); a memo
    /// from an older generation is never trusted.
    gen: u64,
    memo: Cell<Memo>,
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
            free_inner: Vec::new(),
            leaves: Vec::new(),
            free_leaf: Vec::new(),
            root: None,
            height: 0,
            stats: RadixStats::default(),
            gen: 0,
            memo: Cell::new(STALE_MEMO),
        }
    }

    /// Lifetime statistics.
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

    /// Allocate an interior node, recycling a freed index when one exists.
    fn alloc_inner(&mut self) -> NodeIdx {
        self.stats.nodes += 1;
        self.stats.total_allocs += 1;
        if let Some(idx) = self.free_inner.pop() {
            self.inners[idx as usize].present = 0;
            idx
        } else {
            let idx = NodeIdx::try_from(self.inners.len()).expect("radix arena exceeds u32 indices");
            self.inners.push(InnerNode::new());
            idx
        }
    }

    /// Allocate a leaf node, recycling a freed index (and its value-vector
    /// capacity) when one exists.
    fn alloc_leaf(&mut self) -> NodeIdx {
        self.stats.nodes += 1;
        self.stats.total_allocs += 1;
        if let Some(idx) = self.free_leaf.pop() {
            let leaf = &mut self.leaves[idx as usize];
            leaf.present = 0;
            leaf.values.clear();
            idx
        } else {
            let idx = NodeIdx::try_from(self.leaves.len()).expect("radix arena exceeds u32 indices");
            self.leaves.push(LeafNode { present: 0, values: Vec::new() });
            idx
        }
    }

    /// Return an interior node's index to the free list.
    fn free_inner_node(&mut self, idx: NodeIdx) {
        self.stats.nodes -= 1;
        self.stats.total_frees += 1;
        self.free_inner.push(idx);
    }

    /// Return a leaf node's index to the free list.
    fn free_leaf_node(&mut self, idx: NodeIdx) {
        self.stats.nodes -= 1;
        self.stats.total_frees += 1;
        self.free_leaf.push(idx);
    }

    /// Insert `value` at `key`, returning the work performed.
    pub fn insert(&mut self, key: u64, value: V) -> InsertReport {
        let mut report = InsertReport::default();
        let need = Self::height_for(key);

        // Grow the tree upward until the root covers `key` — each extension
        // allocates a new root whose slot 0 points at the old root. This is
        // the "growing of the underlying radix tree" the paper points to for
        // intermittent high-cost DMA-setup batches.
        if let Some(mut root) = self.root {
            while self.height < need {
                let new_root = self.alloc_inner();
                report.nodes_allocated += 1;
                let node = &mut self.inners[new_root as usize];
                node.present = 1;
                node.children[0] = root;
                root = new_root;
                self.root = Some(new_root);
                self.height += 1;
            }
        } else {
            let root = if need == 1 { self.alloc_leaf() } else { self.alloc_inner() };
            self.root = Some(root);
            report.nodes_allocated += 1;
            self.height = need;
        }

        // Descend, allocating interior nodes along the path as needed. The
        // node reached after consuming the digit at level 1 is the leaf.
        let mut cur = self.root.expect("root allocated above");
        let mut inner1 = NO_NODE;
        for level in (1..self.height).rev() {
            if level == 1 {
                inner1 = cur;
            }
            let shift = level * MAP_SHIFT;
            let digit = ((key >> shift) & MAP_MASK) as usize;
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
        // The descent ended at the leaf node covering `key`'s 64-key
        // window; remember it — DMA setup inserts page runs in ascending
        // order, so the next insert or lookup usually lands here too.
        self.memo.set(Memo {
            prefix: key >> MAP_SHIFT,
            leaf: cur,
            prefix1: key >> (2 * MAP_SHIFT),
            inner1,
            gen: self.gen,
        });
        report
    }

    /// Value lookup within a leaf: present-bit test, then rank into the
    /// dense vector.
    #[inline]
    fn leaf_get(leaf: &LeafNode<V>, key: u64) -> Option<&V> {
        let digit = (key & MAP_MASK) as usize;
        if leaf.present & (1u64 << digit) == 0 {
            return None;
        }
        Some(&leaf.values[rank(leaf.present, digit)])
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        let memo = self.memo.get();
        if memo.gen == self.gen {
            if memo.prefix == key >> MAP_SHIFT {
                return Self::leaf_get(&self.leaves[memo.leaf as usize], key);
            }
            // Adjacent-window fast path: the memoized leaf's parent covers
            // a 4096-key span; a sweep that crosses into the next 64-key
            // window re-walks one level instead of the whole tree.
            if memo.inner1 != NO_NODE && memo.prefix1 == key >> (2 * MAP_SHIFT) {
                let node = &self.inners[memo.inner1 as usize];
                let digit = ((key >> MAP_SHIFT) & MAP_MASK) as usize;
                if node.present & (1u64 << digit) == 0 {
                    return None;
                }
                let leaf = node.children[digit];
                self.memo.set(Memo { prefix: key >> MAP_SHIFT, leaf, ..memo });
                return Self::leaf_get(&self.leaves[leaf as usize], key);
            }
        }
        Self::leaf_get(self.walk_to_leaf(key)?, key)
    }

    /// Walk from the root to the leaf node covering `key`, memoizing it.
    fn walk_to_leaf(&self, key: u64) -> Option<&LeafNode<V>> {
        // `key` fits the current height iff no digit above it is set
        // (heights of 11+ cover the whole u64 range).
        if self.height < 11 && key >> (self.height * MAP_SHIFT) != 0 {
            return None;
        }
        let mut cur = self.root?;
        let mut inner1 = NO_NODE;
        for level in (1..self.height).rev() {
            if level == 1 {
                inner1 = cur;
            }
            let shift = level * MAP_SHIFT;
            let digit = ((key >> shift) & MAP_MASK) as usize;
            let node = &self.inners[cur as usize];
            if node.present & (1u64 << digit) == 0 {
                return None;
            }
            cur = node.children[digit];
        }
        self.memo.set(Memo {
            prefix: key >> MAP_SHIFT,
            leaf: cur,
            prefix1: key >> (2 * MAP_SHIFT),
            inner1,
            gen: self.gen,
        });
        Some(&self.leaves[cur as usize])
    }

    /// Remove `key`, returning its value and freeing now-empty nodes along
    /// the path (as the kernel's `radix_tree_delete` does).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if Self::height_for(key) > self.height {
            return None;
        }
        let root = self.root?;

        // Walk down recording the path (parent node, digit), then unwind it
        // freeing nodes that became empty.
        let mut path: [(NodeIdx, usize); 11] = [(0, 0); 11];
        let mut depth = 0;
        let mut cur = root;
        for level in (1..self.height).rev() {
            let shift = level * MAP_SHIFT;
            let digit = ((key >> shift) & MAP_MASK) as usize;
            let node = &self.inners[cur as usize];
            if node.present & (1u64 << digit) == 0 {
                return None;
            }
            path[depth] = (cur, digit);
            depth += 1;
            cur = node.children[digit];
        }
        let digit = (key & MAP_MASK) as usize;
        let bit = 1u64 << digit;
        let leaf = &mut self.leaves[cur as usize];
        if leaf.present & bit == 0 {
            return None;
        }
        let value = leaf.values.remove(rank(leaf.present, digit));
        leaf.present &= !bit;
        self.stats.entries -= 1;

        // Free emptied nodes bottom-up, detaching each from its parent.
        if leaf.present == 0 {
            self.free_leaf_node(cur);
            loop {
                if depth == 0 {
                    self.root = None;
                    self.height = 0;
                    break;
                }
                depth -= 1;
                let (parent, digit) = path[depth];
                let p = &mut self.inners[parent as usize];
                p.present &= !(1u64 << digit);
                if p.present != 0 {
                    break;
                }
                self.free_inner_node(parent);
            }
        }
        // Freed indices can be recycled into unrelated nodes; drop the memo.
        self.gen += 1;
        Some(value)
    }

    /// Iterate over all `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let mut out = Vec::new();
        self.for_each(|k, v| out.push((k, v)));
        out.into_iter()
    }

    /// Call `f` on every `(key, value)` pair in ascending key order.
    fn for_each<'a>(&'a self, mut f: impl FnMut(u64, &'a V)) {
        if let Some(root) = self.root {
            self.visit(root, 0, self.height, &mut f);
        }
    }

    fn visit<'a>(&'a self, node: NodeIdx, prefix: u64, height: u32, f: &mut impl FnMut(u64, &'a V)) {
        if height == 1 {
            let leaf = &self.leaves[node as usize];
            let mut bits = leaf.present;
            let mut pos = 0;
            while bits != 0 {
                let digit = u64::from(bits.trailing_zeros());
                f((prefix << MAP_SHIFT) | digit, &leaf.values[pos]);
                pos += 1;
                bits &= bits - 1;
            }
            return;
        }
        let inner = &self.inners[node as usize];
        let mut bits = inner.present;
        while bits != 0 {
            let digit = bits.trailing_zeros() as usize;
            self.visit(
                inner.children[digit],
                (prefix << MAP_SHIFT) | digit as u64,
                height - 1,
                f,
            );
            bits &= bits - 1;
        }
    }
}

// The node structure cannot carry a serde derive (it is generic and
// recursive), but it does not need to: given a height and a key set, the
// set of allocated nodes is fully determined — interior nodes exist exactly
// on the paths of live keys, and `remove` frees emptied nodes eagerly. A
// tree therefore serializes as `(height, items, stats)` and restores by
// pre-growing to the snapshot height and reinserting. Height is recorded
// explicitly because it can exceed `height_for(max live key)` when a larger
// key has since been removed — reinsertion alone would rebuild a shorter
// tree whose future growth costs diverge from the original's.
impl<V: Serialize> Serialize for RadixTree<V> {
    fn stream<S: Sink>(&self, s: &mut S) {
        s.object(3);
        s.key("height");
        self.height.stream(s);
        s.key("items");
        s.array(self.len() as usize);
        self.for_each(|k, v| (k, v).stream(s));
        s.end_array();
        s.key("stats");
        self.stats.stream(s);
        s.end_object();
    }
}

impl<V: Deserialize> Deserialize for RadixTree<V> {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        let (mut height, mut items, mut stats) = (None, None, None);
        serde::__pull_object(src, "RadixTree", &["height", "items", "stats"], |src, i| match i {
            0 => serde::__pull_field(src, &mut height, "height"),
            1 => serde::__pull_field(src, &mut items, "items"),
            _ => serde::__pull_field(src, &mut stats, "stats"),
        })?;
        let height: u32 = serde::__take(src, height, "height")?;
        let items: Vec<(u64, V)> = serde::__take(src, items, "items")?;
        let stats: RadixStats = serde::__take(src, stats, "stats")?;
        Self::rebuild(height, items, stats).map_err(|e| src.locate(e))
    }
}

impl<V> RadixTree<V> {
    /// The tree a snapshot of `(height, items, stats)` describes, checked
    /// against what rebuilding it from those items allocates.
    fn rebuild(height: u32, items: Vec<(u64, V)>, stats: RadixStats) -> Result<Self, DeError> {
        if stats.entries != items.len() as u64 {
            return Err(DeError::custom(format!(
                "radix tree snapshot lists {} items but stats claim {} entries",
                items.len(),
                stats.entries
            )));
        }
        if height > Self::height_for(u64::MAX) {
            return Err(DeError::custom(format!(
                "radix tree snapshot height {height} exceeds the {}-level maximum",
                Self::height_for(u64::MAX)
            )));
        }
        let mut tree = RadixTree::new();
        if height > 0 {
            let root = if height == 1 { tree.alloc_leaf() } else { tree.alloc_inner() };
            tree.root = Some(root);
            tree.height = height;
            for (k, v) in items {
                if Self::height_for(k) > height {
                    return Err(DeError::custom(format!(
                        "radix tree snapshot key {k} does not fit height {height}"
                    )));
                }
                tree.insert(k, v);
            }
        } else if !items.is_empty() {
            return Err(DeError::custom("radix tree snapshot has items but zero height"));
        }
        if tree.stats.nodes != stats.nodes {
            return Err(DeError::custom(format!(
                "radix tree snapshot claims {} nodes but its items need {}",
                stats.nodes, tree.stats.nodes
            )));
        }
        tree.stats = stats;
        // Reinsertion left an insert memo; discard it so a restored tree
        // starts from the same cold-cache state as a fresh one.
        tree.memo.set(STALE_MEMO);
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

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
    fn remove_frees_empty_nodes() {
        let mut t = RadixTree::new();
        for k in 0..128u64 {
            t.insert(k << 12, k);
        }
        let nodes_before = t.stats().nodes;
        for k in 0..128u64 {
            assert_eq!(t.remove(k << 12), Some(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.stats().nodes, 0, "all nodes freed (had {nodes_before})");
        assert_eq!(t.stats().total_allocs, t.stats().total_frees);
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t: RadixTree<u32> = RadixTree::new();
        assert_eq!(t.remove(3), None);
        t.insert(3, 1);
        assert_eq!(t.remove(4), None);
        assert_eq!(t.remove(1 << 50), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = RadixTree::new();
        let keys = [77u64, 3, 4096, 12, 1 << 20, 65];
        for &k in &keys {
            t.insert(k, k);
        }
        let got: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn serde_round_trip_preserves_structure_and_stats() {
        let mut t = RadixTree::new();
        for k in 0..300u64 {
            t.insert(k * 97, k);
        }
        // Grow past the live maximum, then remove: height and lifetime
        // counters must survive the round trip even though reinsertion alone
        // would rebuild a shorter tree.
        t.insert(1 << 40, 0);
        t.remove(1 << 40);
        let back: RadixTree<u64> =
            Deserialize::from_value(&t.to_value()).expect("serialized tree deserializes");
        assert_eq!(back.stats(), t.stats());
        assert_eq!(back.height, t.height);
        for k in 0..300u64 {
            assert_eq!(back.get(k * 97), Some(&k));
        }
        // Identical serialized form (the digest property snapshots rely on).
        assert_eq!(back.to_value(), t.to_value());
        assert_eq!(serde::digest(&back), serde::digest_value(&t.to_value()));
    }

    /// A serialized tree with the given fields.
    fn tree_value(height: u64, items: &[(u64, u64)], nodes: u64) -> Value {
        let stats = RadixStats { nodes, total_allocs: nodes, total_frees: 0, entries: items.len() as u64 };
        Value::Object(vec![
            ("height".into(), Value::NumU(height)),
            ("items".into(), items.to_value()),
            ("stats".into(), stats.to_value()),
        ])
    }

    #[test]
    fn hostile_heights_are_typed_errors() {
        let max = u64::from(RadixTree::<u64>::height_for(u64::MAX));
        assert_eq!(max, 11);
        // The tallest legal tree still loads: a key at the top of the key
        // space allocates one node per level.
        let ok = tree_value(max, &[(u64::MAX, 1)], max);
        let back = RadixTree::<u64>::from_value(&ok).expect("maximum height loads");
        assert_eq!(back.get(u64::MAX), Some(&1));
        // One level taller would shift keys by 64 bits or more on insert;
        // a billion levels would allocate a billion nodes per key.
        for height in [max + 1, 64, 1_000_000_000, u64::from(u32::MAX)] {
            for items in [&[][..], &[(0, 0)], &[(5, 5), (u64::MAX, 9)]] {
                let err = RadixTree::<u64>::from_value(&tree_value(height, items, 1))
                    .expect_err("height beyond the maximum must be rejected");
                assert!(err.to_string().contains("height"), "{err}");
            }
        }
    }

    #[test]
    fn hostile_node_counts_are_typed_errors() {
        // Key 0 at height 3 needs three nodes; every other claim is a lie.
        for nodes in [0, 1, 2, 4, u64::MAX] {
            let err = RadixTree::<u64>::from_value(&tree_value(3, &[(0, 7)], nodes))
                .expect_err("a wrong node count must be rejected");
            assert!(err.to_string().contains("nodes"), "{err}");
        }
        assert!(RadixTree::<u64>::from_value(&tree_value(3, &[(0, 7)], 3)).is_ok());
        // An empty tree of height 2 still holds its root.
        assert!(RadixTree::<u64>::from_value(&tree_value(2, &[], 0)).is_err());
        assert!(RadixTree::<u64>::from_value(&tree_value(2, &[], 1)).is_ok());
    }

    #[test]
    fn node_accounting_is_consistent() {
        let mut t = RadixTree::new();
        for k in 0..1000u64 {
            t.insert(k * 37, ());
        }
        let s = t.stats();
        assert_eq!(s.total_allocs - s.total_frees, s.nodes);
        assert_eq!(s.entries, 1000);
    }

    #[test]
    fn dense_values_pack_by_rank() {
        // Out-of-order inserts within one leaf must keep the value vector
        // rank-ordered, and mid-leaf removal must close the gap.
        let mut t = RadixTree::new();
        for digit in [40u64, 3, 63, 0, 17] {
            t.insert(digit, digit * 10);
        }
        for digit in [0u64, 3, 17, 40, 63] {
            assert_eq!(t.get(digit), Some(&(digit * 10)));
        }
        assert_eq!(t.remove(17), Some(170));
        assert_eq!(t.get(17), None);
        for digit in [0u64, 3, 40, 63] {
            assert_eq!(t.get(digit), Some(&(digit * 10)));
        }
    }

    #[test]
    fn dense_sweep_hits_memo_and_stays_correct() {
        // The DMA reverse-map access pattern: insert a block's pages in
        // ascending order, then sweep lookups over the same range. Every
        // lookup after the first in a 64-key window short-circuits through
        // the memo; results must match a cold walk exactly.
        let mut t = RadixTree::new();
        for k in 0..512u64 {
            t.insert(10_000 + k, k);
        }
        for k in 0..512u64 {
            assert_eq!(t.get(10_000 + k), Some(&k));
        }
        // Interleave misses (cold prefixes) with memo hits.
        for k in 0..512u64 {
            assert_eq!(t.get(10_000 + k), Some(&k));
            assert_eq!(t.get(5_000_000 + k), None);
        }
    }

    #[test]
    fn memo_survives_inserts_but_not_removes() {
        let mut t = RadixTree::new();
        for k in 0..256u64 {
            t.insert(k, k);
        }
        // Warm the memo on key 7's leaf, then mutate elsewhere.
        assert_eq!(t.get(7), Some(&7));
        t.insert(1 << 30, 99); // growth: old leaves keep their indices
        assert_eq!(t.get(7), Some(&7));
        assert_eq!(t.get(8), Some(&8));
        // Removing frees nodes (index recycling), which must drop the memo.
        t.remove(1 << 30);
        assert_eq!(t.get(7), Some(&7));
        assert_eq!(t.get(1 << 30), None);
        // Remove the memoized window itself and re-probe it.
        assert_eq!(t.get(70), Some(&70));
        for k in 64..128 {
            t.remove(k);
        }
        assert_eq!(t.get(70), None);
        assert_eq!(t.get(7), Some(&7));
    }

    #[test]
    fn freed_indices_are_recycled() {
        let mut t = RadixTree::new();
        for k in 0..64u64 {
            t.insert(k << 12, k);
        }
        let arena_high = t.inners.len() + t.leaves.len();
        for k in 0..64u64 {
            t.remove(k << 12);
        }
        for k in 0..64u64 {
            t.insert(k << 12, k);
        }
        assert_eq!(
            t.inners.len() + t.leaves.len(),
            arena_high,
            "reinsertion reuses freed arena slots"
        );
        for k in 0..64u64 {
            assert_eq!(t.get(k << 12), Some(&k));
        }
    }
}
