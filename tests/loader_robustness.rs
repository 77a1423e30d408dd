//! Loaders turn malformed input into typed errors.
//!
//! Snapshot, chaos-repro and `SystemConfig` JSON is truncated, byte-mutated
//! and deeply nested, then fed through `SystemSnapshot::load`,
//! `ReproFile::load` and `serde_json::from_str`. Every case must return
//! `Ok` or an error value: a panic fails the test, and a stack overflow or
//! a runaway allocation would abort or stall it.
//!
//! The snapshot's DMA space is a list of `(block, pages)` runs that
//! decoding replays to rebuild both of its maps, and its GPU page table is
//! a list of per-block page bitmaps. Two properties corrupt one entry of
//! each (a repeated block, an out-of-range run length, a non-integer, an
//! empty bitmap) and expect a typed error naming the fault.
//!
//! Decoding pulls tokens straight from the text; decoding from a parsed
//! `Value` tree is the reference it must agree with, on valid and broken
//! documents alike.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
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

/// The corpus snapshot as a JSON tree.
fn corpus_tree() -> Value {
    serde_json::parse(&corpus().snapshot).expect("the corpus snapshot parses")
}

/// The value of `key` in the object `v`.
fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = v else { panic!("`{key}` is looked up in an object") };
    fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v).expect("the field is present")
}

/// Replace `slot` with `value`; returns `want`, the error the edit must
/// cause.
fn set(slot: &mut Value, value: Value, want: &str) -> String {
    *slot = value;
    want.to_string()
}

/// Write `tree` to a scratch file tagged `tag` and load it as a snapshot.
fn load_tree(tree: &Value, tag: &str) -> Result<SystemSnapshot, uvm_sim::error::UvmError> {
    let path = scratch(tag);
    let text = serde_json::to_string(tree).expect("tree encodes");
    std::fs::write(&path, text).expect("write scratch file");
    let loaded = SystemSnapshot::load(&path);
    std::fs::remove_file(&path).ok();
    loaded
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
    fn corrupt_dma_run_lists_are_typed_errors(at in 0usize..1 << 20, edit in 0usize..8) {
        let mut tree = corpus_tree();
        let Value::Array(runs) = field(field(field(&mut tree, "driver"), "dma"), "runs") else {
            panic!("the DMA runs are a list")
        };
        prop_assert!(!runs.is_empty(), "the corpus run has mapped a block");
        let at = at % runs.len();
        let other = runs[(at + 1) % runs.len()].clone();
        let Value::Array(run) = &mut runs[at] else { panic!("a run is a [block, pages] pair") };
        let want = match edit {
            0 => {
                let Value::Array(pair) = &other else { panic!("a run is a pair") };
                let Value::NumU(block) = pair[0] else { panic!("a run starts with its block") };
                runs.insert(at, other);
                format!("DMA run list repeats block {block}")
            }
            1 => set(&mut run[1], Value::NumU(513), "maps 513 pages, not 1 to 512"),
            2 => set(&mut run[1], Value::NumU(0), "maps 0 pages, not 1 to 512"),
            3 => set(&mut run[0], Value::NumI(-1), "out of range"),
            4 => set(&mut run[1], Value::Float(0.5), "found float"),
            5 => set(&mut run[0], Value::Str("7".into()), "found string"),
            6 => set(&mut runs[at], Value::Null, "found null"),
            _ => set(&mut runs[at], Value::Array(Vec::new()), "shorter array"),
        };
        let err = load_tree(&tree, "dma-runs").expect_err("a corrupt DMA run list must not load");
        prop_assert!(err.to_string().contains(&want), "{}", err);
    }

    #[test]
    fn corrupt_gpu_page_tables_are_typed_errors(at in 0usize..1 << 20, repeat in any::<bool>()) {
        let mut tree = corpus_tree();
        let Value::Array(records) = field(field(&mut tree, "gpu"), "page_table") else {
            panic!("the GPU page table is a list")
        };
        prop_assert!(!records.is_empty(), "the corpus run has mapped a page");
        let at = at % records.len();
        let Value::Array(pair) = &mut records[at] else {
            panic!("a record is a [block, bitmap] pair")
        };
        let Value::NumU(block) = pair[0] else { panic!("a record starts with its block") };
        let want = if repeat {
            let copy = Value::Array(pair.clone());
            records.insert(at, copy);
            format!("GPU page table repeats block {block}")
        } else {
            let Value::Array(words) = field(&mut pair[1], "words") else { panic!("bitmap words") };
            words.iter_mut().for_each(|w| *w = Value::NumU(0));
            format!("GPU page-table record of block {block} is empty")
        };
        let err = load_tree(&tree, "gpu-pt").expect_err("a corrupt GPU page table must not load");
        prop_assert!(err.to_string().contains(&want), "{}", err);
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
