//! Loaders turn malformed input into typed errors.
//!
//! Snapshot, chaos-repro and `SystemConfig` JSON is truncated, byte-mutated
//! and deeply nested, then fed through `SystemSnapshot::load`,
//! `ReproFile::load` and `serde_json::from_str`. Every case must return
//! `Ok` or an error value: a panic fails the test, and a stack overflow or
//! a runaway allocation would abort or stall it.
//!
//! The snapshot's DMA reverse map is a radix tree whose serialized
//! `height` drives how many levels a reinserted key walks; one property
//! sets it to hostile values and expects a typed error that names it.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use uvm_core::{ReproFile, RunHints, Scenario, SystemConfig, SystemSnapshot, UvmSystem};
use uvm_sim::inject::FaultPlan;
use uvm_workloads::stream::{self, StreamParams};

/// Valid documents of each kind, built once.
struct Corpus {
    snapshot: String,
    repro: String,
    config: String,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let w = stream::build(StreamParams {
            warps: 8,
            pages_per_warp: 4,
            iters: 1,
            warps_per_page: 1,
            cpu_init: None,
        });
        let config = SystemConfig::test_small(4 << 20).with_fault_plan(FaultPlan::uniform(0.05));
        let mut run = UvmSystem::new(config.clone())
            .start(&w, &RunHints::default())
            .expect("run starts");
        for _ in 0..3 {
            run.advance_batch(&w).expect("batch services");
        }
        let repro = ReproFile { description: "loader corpus".into(), scenario: Scenario::generate(7, 1) };
        Corpus {
            snapshot: serde_json::to_string(&run.snapshot(&w, 0)).expect("snapshot encodes"),
            repro: serde_json::to_string_pretty(&repro).expect("repro encodes"),
            config: serde_json::to_string(&config).expect("config encodes"),
        }
    })
}

/// A scratch file path unique to this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("loader-{}-{tag}.json", std::process::id()))
}

/// Feed `bytes` to every loader of its document kind. Any `Ok` or `Err`
/// passes; reaching the end of this function is the property.
fn load_all(kind: usize, bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    match kind {
        0 => {
            let path = scratch("snapshot");
            std::fs::write(&path, bytes).expect("write scratch file");
            let _ = SystemSnapshot::load(&path);
            std::fs::remove_file(&path).ok();
            let _ = serde_json::from_str::<SystemSnapshot>(&text);
        }
        1 => {
            let path = scratch("repro");
            std::fs::write(&path, bytes).expect("write scratch file");
            let _ = ReproFile::load(&path);
            std::fs::remove_file(&path).ok();
            let _ = serde_json::from_str::<ReproFile>(&text);
        }
        _ => {
            let _ = serde_json::from_str::<SystemConfig>(&text);
        }
    }
}

fn document(kind: usize) -> &'static str {
    let c = corpus();
    [&c.snapshot, &c.repro, &c.config][kind]
}

/// A field every document of the kind holds, with a scalar value.
fn scalar_field(kind: usize) -> &'static str {
    ["\"trace\":null", "\"memory_mb\":", "\"numa\":null"][kind]
}

/// Bytes that matter to a JSON parser, plus a few that never appear in one.
const NOISE: &[u8] = b"{}[]\",:0123456789-+.eE ntfalsru\\\x00\x1f\x7f\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncated_documents_load_or_fail_cleanly(kind in 0usize..3, at in 0usize..1 << 20) {
        let doc = document(kind).as_bytes();
        load_all(kind, &doc[..at % doc.len()]);
    }

    #[test]
    fn byte_mutated_documents_load_or_fail_cleanly(
        kind in 0usize..3,
        edits in proptest::collection::vec((0usize..1 << 20, 0usize..64), 1..4),
    ) {
        let mut doc = document(kind).as_bytes().to_vec();
        for (at, noise) in edits {
            let len = doc.len();
            doc[at % len] = NOISE[noise % NOISE.len()];
        }
        load_all(kind, &doc);
    }

    #[test]
    fn deeply_nested_documents_load_or_fail_cleanly(
        kind in 0usize..3,
        depth in 1usize..400,
        at in 0usize..1 << 20,
        objects in any::<bool>(),
    ) {
        let doc = document(kind);
        // Balanced nesting as a field's value: deeper than the parser's
        // limit is a recursion error, shallower a type error.
        let (open, close) = if objects { ("{\"k\":", "0}") } else { ("[", "]") };
        let nested = format!("{}{}", open.repeat(depth), close.repeat(depth));
        let field = scalar_field(kind);
        let key = &field[..field.find(':').expect("field has a key") + 1];
        let start = doc.find(field).expect("document holds the field");
        let end = start + doc[start..].find([',', '}']).expect("the value ends");
        load_all(kind, format!("{}{key}{nested}{}", &doc[..start], &doc[end..]).as_bytes());
        // Unbalanced: a run of openers dropped anywhere.
        let at = at % doc.len();
        let mut unbalanced = doc.as_bytes()[..at].to_vec();
        unbalanced.extend(open.repeat(depth * 40).bytes());
        unbalanced.extend(&doc.as_bytes()[at..]);
        load_all(kind, &unbalanced);
    }

    #[test]
    fn hostile_radix_heights_are_typed_errors(height in 12u64..1 << 32) {
        let doc = &corpus().snapshot;
        prop_assert_eq!(doc.matches("\"height\":2,").count(), 1);
        let path = scratch("radix-height");
        std::fs::write(&path, doc.replacen("\"height\":2,", &format!("\"height\":{height},"), 1))
            .expect("write scratch file");
        let loaded = SystemSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        let err = loaded.expect_err("a height beyond 11 levels must not load");
        prop_assert!(err.to_string().contains("height"), "{}", err);
    }
}

#[test]
fn the_unmutated_corpus_loads() {
    for kind in 0..3 {
        let text = document(kind);
        match kind {
            0 => assert!(serde_json::from_str::<SystemSnapshot>(text).is_ok()),
            1 => assert!(serde_json::from_str::<ReproFile>(text).is_ok()),
            _ => assert!(serde_json::from_str::<SystemConfig>(text).is_ok()),
        }
    }
}
