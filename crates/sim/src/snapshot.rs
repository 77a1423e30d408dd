//! Snapshot support shared by every stateful crate.
//!
//! A system snapshot holds each subsystem's typed state and is written
//! through the subsystems' `Serialize` impls. This module provides the two
//! pieces that must be common across crates:
//!
//! * [`SNAPSHOT_VERSION`] — the on-disk format version. A snapshot written
//!   by one version of the simulator refuses to load into another, because
//!   replaying it would silently diverge.
//! * [`digest_value`] — a stable 64-bit digest of a [`serde::Value`] tree.
//!   Subsystem digests are the currency of divergence detection: two runs
//!   agree on a batch exactly when all their subsystem digests agree, and
//!   the first digest that differs names the subsystem that broke
//!   determinism.
//!
//! The digest hashes a type-tagged preorder walk one 64-bit word at a
//! time: a tag word per node, one word per scalar, and strings as a length
//! word and their bytes packed eight to a word. It is a pure function of
//! the walk's structure — independent of JSON rendering,
//! whitespace, or float formatting — and because the serde facade
//! serializes hash maps and sets in sorted key order, it is also
//! independent of hash iteration order. [`serde::digest`] computes the same
//! digest of a `Serialize` value by streaming its walk, so callers that only
//! need the digest never build the tree.

use serde::Value;

/// Version of the snapshot format. Bump whenever the shape of any
/// subsystem's serialized state changes; restore rejects mismatches.
///
/// History: v1 — initial format; v2 — sustained failure domains (driver
/// health machine, memory-pressure reservation, GPU reset counters);
/// v3 — multi-tenant client ledger (driver client table + per-client
/// attribution counters, tenancy section of the system config, per-batch
/// client fault attribution); v4 — servicing backends (backend kind in the
/// system config and driver, per-VABlock peer-held page sets, the
/// multi-GPU peer owner directory, per-batch peer-traffic counters);
/// v5 — warps carry their program counter but not their program (the
/// workload keeps the instruction streams), and the driver policy keeps
/// one field per decision (`prefetch_enabled` and the fixed tunables
/// are gone); v6 — the DMA space stores only its pages in DMA-address
/// order (decoding rebuilds the reverse radix tree), warps no longer
/// store their id, SM and μTLB, and the snapshot drops its copy of the
/// system config; v7 — host memory keeps one record per VABlock (mapped
/// and dirty page bitmaps and the mapper cores) in place of the page
/// table, the per-page reverse map and the TLB directory, and the GPU
/// drops its copy of the cost model (the driver's is the only one);
/// v8 — the GPU page table keeps one page bitmap per VABlock, the DMA
/// space stores one `(block, pages)` run per VABlock in DMA-address order
/// (the driver's per-block `dma_mapped` flag is gone), and fault-buffer
/// entries no longer store their SM and μTLB (the warp's placement gives
/// both); v9 — the stored digests hash the walk a 64-bit word at a time
/// (they were a bytewise FNV-1a), and GMMU queue entries no longer store
/// their SM (the warp's placement gives it); v10 — warps keep how many
/// pages of their current instruction they have issued in place of a copy
/// of the unissued pages and their access kind, the GPU drops its count
/// of finished warps (the warps' statuses give it), and the workload
/// digest a snapshot stores walks instructions encoded keyed by access
/// kind (`{"Read": [pages]}`); v11 — the workload digest walks each warp
/// program as one number per instruction beside one array of its pages,
/// and CPU initialization as runs of pages; v12 — the driver keeps each
/// fact once: VABlock states drop `gpu_allocated` (the memory manager's
/// resident set), `peer_pages` (the owner directory), `last_migrate_seq`
/// and `evict_count`; the memory manager drops its eviction tallies (the
/// batch log counts them); the client ledger drops its per-client
/// counters and totals; the owner directory drops its per-peer slot
/// counts (its entries give them).
pub const SNAPSHOT_VERSION: u32 = 12;

/// Stable digest of a serialized state tree.
///
/// Equal trees always digest equally; the digest depends only on the tree
/// (not on any textual rendering of it), so it can be compared across
/// processes, machines, and — as long as [`SNAPSHOT_VERSION`] matches —
/// simulator builds. The walk lives in the serde facade, which also
/// streams the same digest from a value without building its tree
/// ([`serde::digest`]).
pub fn digest_value(v: &Value) -> u64 {
    serde::digest_value(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_trees_digest_equal() {
        let a = Value::Object(vec![
            ("x".into(), Value::NumU(3)),
            ("y".into(), Value::Array(vec![Value::Bool(true), Value::Null])),
        ]);
        assert_eq!(digest_value(&a), digest_value(&a.clone()));
    }

    #[test]
    fn structural_differences_change_the_digest() {
        let cases = [
            Value::NumU(1),
            Value::NumI(-1),
            Value::Str("1".into()),
            Value::Array(vec![Value::NumU(1)]),
            Value::Float(1.0),
            Value::Bool(true),
            Value::Null,
            Value::Object(vec![("1".into(), Value::Null)]),
        ];
        let digests: Vec<u64> = cases.iter().map(digest_value).collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "cases {i} and {j} collided");
            }
        }
    }

    #[test]
    fn field_names_are_digested() {
        let a = Value::Object(vec![("a".into(), Value::NumU(1))]);
        let b = Value::Object(vec![("b".into(), Value::NumU(1))]);
        assert_ne!(digest_value(&a), digest_value(&b));
    }
}
