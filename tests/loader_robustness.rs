//! Loaders turn malformed input into typed errors.
//!
//! Snapshot, chaos-repro and `SystemConfig` JSON is truncated, byte-mutated
//! and deeply nested, then fed through `SystemSnapshot::load`,
//! `ReproFile::load` and `serde_json::from_str`. Every case must return
//! `Ok` or an error value: a panic fails the test, and a stack overflow or
//! a runaway allocation would abort or stall it.
//!
//! The snapshot's DMA space is a page list that decoding replays to
//! rebuild both of its maps; one property repeats a page or puts a
//! non-integer in the list and expects a typed error.
//!
//! Decoding pulls tokens straight from the text; decoding from a parsed
//! `Value` tree is the reference it must agree with, on valid and broken
//! documents alike.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
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

/// Values of every kind for a field no type has.
const UNKNOWN_VALUES: &[&str] = &[
    "null", "true", "-12", "4.5e-1", r#""s\"\u0041""#, r#"[1,[2,{}],"]"]"#, r#"{"a":{"b":[null]}}"#,
];

/// Bytes that matter to a JSON parser, plus a few that never appear in one.
const NOISE: &[u8] = b"{}[]\",:0123456789-+.eE ntfalsru\\\x00\x1f\x7f\xff";

/// `from_str` and `from_value` of the parsed tree agree on `text`: both
/// fail, or both decode a value that re-encodes to the same bytes.
fn decoders_agree<T: Serialize + Deserialize>(text: &str) -> Result<(), String> {
    let encode = |v: T| serde_json::to_string(&v).expect("decoded value encodes");
    let direct = serde_json::from_str::<T>(text).map(encode);
    let via_tree = serde_json::parse(text).and_then(|tree| Ok(T::from_value(&tree)?)).map(encode);
    match (direct, via_tree) {
        (Ok(a), Ok(b)) => prop_assert!(a == b, "the two decoders built different values"),
        (Err(_), Err(_)) => {}
        (a, b) => return Err(format!("from_str: {:?}, from_value: {:?}", a.err(), b.err())),
    }
    Ok(())
}

/// [`decoders_agree`] for the document type of `kind`.
fn agree(kind: usize, bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    match kind {
        0 => decoders_agree::<SystemSnapshot>(&text),
        1 => decoders_agree::<ReproFile>(&text),
        _ => decoders_agree::<SystemConfig>(&text),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decoders_agree_on_truncated_documents(kind in 0usize..3, at in 0usize..1 << 20) {
        let doc = document(kind).as_bytes();
        agree(kind, &doc[..at % (doc.len() + 1)])?;
    }

    #[test]
    fn decoders_agree_on_byte_mutated_documents(
        kind in 0usize..3,
        edits in proptest::collection::vec((0usize..1 << 20, 0usize..64), 1..4),
    ) {
        let mut doc = document(kind).as_bytes().to_vec();
        for (at, noise) in edits {
            let len = doc.len();
            doc[at % len] = NOISE[noise % NOISE.len()];
        }
        agree(kind, &doc)?;
    }

    /// Edits that mostly keep the document well-formed, so that both
    /// decoders usually succeed and their values are compared: digits
    /// rewritten in place, and optionally a field no type has inserted
    /// before some key (the text decoder must skip its value exactly).
    #[test]
    fn decoders_agree_on_documents_with_edited_digits_and_fields(
        kind in 0usize..3,
        digits in proptest::collection::vec((0usize..1 << 20, 0u8..10), 0..4),
        at in 0usize..1 << 20,
        extra in 0usize..UNKNOWN_VALUES.len() + 1,
    ) {
        let mut doc = document(kind).as_bytes().to_vec();
        let len = doc.len();
        for (at, digit) in digits {
            if let Some(i) = (0..len).map(|j| (at + j) % len).find(|&i| doc[i].is_ascii_digit()) {
                doc[i] = b'0' + digit;
            }
        }
        if let Some(value) = UNKNOWN_VALUES.get(extra) {
            // Just after an object's `{` or a field's `,`, where a key
            // starts (the repro is pretty-printed: whitespace may follow).
            let starts: Vec<usize> = (0..len)
                .filter(|&i| doc[i] == b'{' || doc[i] == b',')
                .filter(|&i| doc[i + 1..].iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'"'))
                .map(|i| i + 1)
                .collect();
            let i = starts[at % starts.len()];
            doc.splice(i..i, format!("\"zz_unknown\":{value},").into_bytes());
        }
        agree(kind, &doc)?;
    }

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
    fn corrupt_dma_page_lists_are_typed_errors(at in 0usize..1 << 20, edit in 0usize..6) {
        let doc = &corpus().snapshot;
        let key = "\"dma\":{\"pages\":[";
        prop_assert_eq!(doc.matches(key).count(), 1);
        let start = doc.find(key).expect("snapshot has a DMA space") + key.len();
        let end = start + doc[start..].find(']').expect("the list ends");
        let mut pages: Vec<&str> = doc[start..end].split(',').collect();
        prop_assert!(pages.len() >= 2, "the corpus run has mapped pages: {}", pages.len());
        let at = at % pages.len();
        let (bad, want) = [
            (pages[(at + 1) % pages.len()], "DMA page list repeats 1 page"),
            ("-1", "out of range"),
            ("0.5", "found float"),
            ("\"7\"", "found string"),
            ("null", "found null"),
            ("[]", "found array"),
        ][edit];
        if edit == 0 {
            pages.insert(at, bad);
        } else {
            pages[at] = bad;
        }
        let path = scratch("dma-pages");
        std::fs::write(&path, format!("{}{}{}", &doc[..start], pages.join(","), &doc[end..]))
            .expect("write scratch file");
        let loaded = SystemSnapshot::load(&path);
        std::fs::remove_file(&path).ok();
        let err = loaded.expect_err("a corrupt DMA page list must not load");
        prop_assert!(err.to_string().contains(want), "{}", err);
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
        agree(kind, text.as_bytes()).unwrap();
    }
}

#[test]
fn a_type_error_in_a_snapshot_names_its_byte_offset() {
    let doc = &corpus().snapshot;
    // The top-level batch count, quoted into a string.
    let key = "\"batches\":";
    let at = doc.find(key).expect("snapshot has a batch count") + key.len();
    let end = at + doc[at..].find(',').expect("the value ends");
    let text = format!("{}\"{}\"{}", &doc[..at], &doc[at..end], &doc[end..]);
    let err = serde_json::from_str::<SystemSnapshot>(&text).expect_err("a string is not a u64");
    assert_eq!(err.to_string(), format!("invalid type: expected u64, found string at byte {at}"));
    let path = scratch("type-error");
    std::fs::write(&path, &text).expect("write scratch file");
    let loaded = SystemSnapshot::load(&path);
    std::fs::remove_file(&path).ok();
    let err = loaded.expect_err("load reports the type error");
    assert!(err.to_string().contains(&format!("found string at byte {at}")), "{err}");
}
