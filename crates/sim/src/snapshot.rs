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
//! The digest is FNV-1a over a type-tagged preorder walk. It is a pure
//! function of the walk's structure — independent of JSON rendering,
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
/// multi-GPU peer owner directory, per-batch peer-traffic counters).
pub const SNAPSHOT_VERSION: u32 = 4;

/// Stable FNV-1a digest of a serialized state tree.
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
