//! The per-page auditor, kept as the reference for the block-wise one.
//!
//! [`uvm_driver::audit::violations`] checks invariants 2, 4, 5 and 6 with
//! bitmap operations on each VABlock's records. [`violations`] here is
//! the auditor as it was before that: it probes the GPU page table, the
//! DMA space and the host tables once per GPU-accessible page and tests
//! every set bit against the valid range. The property below corrupts one
//! random bit of each state holder in mid-run states of random chaos
//! scenarios and requires both auditors to return the same list, in the
//! same order. Both state the ten invariants over the single owner of
//! each fact (see the `uvm_driver::audit` module docs).

use uvm_driver::service::UvmDriver;
use uvm_driver::va_block::VaBlockState;
use uvm_gpu::device::Gpu;
use uvm_hostos::host::HostMemory;
use uvm_sim::error::UvmError;

/// Audit every invariant page by page and return all violations found.
pub(crate) fn violations(driver: &UvmDriver, gpu: &Gpu, host: &HostMemory) -> Vec<UvmError> {
    let mut out = Vec::new();
    let mut accounted_pages: u64 = 0;
    let mem = driver.memory();
    let dir = driver.peer_directory();
    let ledger = driver.clients();

    for state in driver.va_space.blocks() {
        let id = state.id;
        let v = |subsystem: &'static str, detail: String| UvmError::InvariantViolation {
            subsystem,
            block: id.0,
            detail,
        };

        // 1. Resident pages live in an allocation the manager holds.
        if state.resident_count() > 0 && !mem.is_resident(id) {
            out.push(v(
                "gpu-mem",
                format!(
                    "{} GPU-resident pages but the memory manager holds no allocation",
                    state.resident_count()
                ),
            ));
        }

        // 3. Migrated and remote-mapped are mutually exclusive.
        let both = state.gpu_resident.and(&state.remote_mapped);
        if !both.is_empty() {
            out.push(v(
                "va-block",
                format!("{} pages both gpu_resident and remote_mapped", both.count()),
            ));
        }

        // 6. No state beyond the valid page range.
        for (name, bm) in [
            ("gpu_resident", &state.gpu_resident),
            ("remote_mapped", &state.remote_mapped),
            ("host_data", &state.host_data),
        ] {
            if let Some(bad) = bm.iter_set().find(|&i| i as u32 >= state.valid_pages) {
                out.push(v(
                    "va-block",
                    format!("{name} bit {bad} beyond valid_pages={}", state.valid_pages),
                ));
            }
        }

        let accessible = state.gpu_resident.or(&state.remote_mapped);
        accounted_pages += u64::from(accessible.count());

        // 4. GPU-accessible pages require DMA mappings.
        if !accessible.is_empty() && !driver.dma_space().is_mapped(id) {
            out.push(v(
                "dma",
                format!(
                    "{} GPU-accessible pages but the block has no DMA mappings",
                    accessible.count()
                ),
            ));
        }

        for i in accessible.iter_set() {
            let page = id.page_at(i);
            // 2. GPU page table agreement.
            if !gpu.is_resident(page) {
                out.push(v(
                    "gpu-pt",
                    format!(
                        "page {} driver-accessible but absent from GPU page table",
                        page.0
                    ),
                ));
            }
            // 4 (cont). Per-page DMA address exists.
            if driver.dma_space().dma_of(page).is_none() {
                out.push(v("dma", format!("page {} has no DMA mapping", page.0)));
            }
        }

        // 10. Peer-held pages never overlap a GPU-accessible mapping.
        let peer_accessible = dir.pages_of(id).iter_set().filter(|&i| accessible.get(i)).count();
        if peer_accessible > 0 {
            out.push(v(
                "peer-dir",
                format!("{peer_accessible} pages both peer-held and GPU-accessible"),
            ));
        }

        // 5. Migration implies the CPU mapping was torn down.
        out.extend(cpu_mapping_violations(state, host));

        // 9. GPU-accessible pages belong to some client.
        if ledger.is_enabled()
            && !accessible.is_empty()
            && !ledger.clients().iter().any(|c| c.contains_block(id.0))
        {
            out.push(v(
                "tenancy",
                format!(
                    "{} GPU-accessible pages in a block outside every client range",
                    accessible.count()
                ),
            ));
        }
    }

    // 7. Global page accounting.
    let gpu_pages = gpu.resident_pages() as u64;
    if gpu_pages != accounted_pages {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-pt",
            block: u64::MAX,
            detail: format!(
                "GPU page table holds {gpu_pages} pages but driver accounts for {accounted_pages}"
            ),
        });
    }

    // 10 (cont). The directory's own shape (peer count, entries naming
    // registered blocks and existing peers with pages in range, per-peer
    // capacity), and the held total conserves the traffic counters.
    if let Err(detail) = dir.check(driver.backend().peers(), &driver.va_space) {
        out.push(UvmError::InvariantViolation { subsystem: "peer-dir", block: u64::MAX, detail });
    }
    let held = dir.total_held_pages();
    if dir.pages_spilled != held + dir.pages_fetched + dir.pages_reclaimed {
        out.push(UvmError::InvariantViolation {
            subsystem: "peer-dir",
            block: u64::MAX,
            detail: format!(
                "peer traffic does not conserve: {} spilled != {held} held + {} \
                 fetched + {} reclaimed",
                dir.pages_spilled, dir.pages_fetched, dir.pages_reclaimed
            ),
        });
    }

    // 1 (cont). The manager holds only registered blocks, in id order.
    let registered: std::collections::BTreeSet<u64> =
        driver.va_space.blocks().map(|s| s.id.0).collect();
    let allocated: std::collections::BTreeSet<u64> = mem.resident().map(|b| b.0).collect();
    for &block in allocated.difference(&registered) {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-mem",
            block,
            detail: "the memory manager holds an allocation for an unregistered block".into(),
        });
    }

    // 8. Residency respects the effective (pressure-shrunken) capacity.
    let resident = mem.resident_blocks();
    let effective = mem.effective_capacity();
    if resident > effective {
        out.push(UvmError::InvariantViolation {
            subsystem: "gpu-mem",
            block: u64::MAX,
            detail: format!(
                "{resident} resident blocks exceed effective capacity {effective} \
                 (hardware {}, pressure-reserved {})",
                mem.capacity_blocks(),
                mem.pressure_reserved()
            ),
        });
    }

    out
}

/// Invariant 5: unless read-duplicated, a GPU-resident page must not stay
/// CPU-mapped.
fn cpu_mapping_violations(state: &VaBlockState, host: &HostMemory) -> Vec<UvmError> {
    if state.read_duplicated {
        return Vec::new();
    }
    state
        .gpu_resident
        .iter_set()
        .filter(|&i| host.is_cpu_mapped(state.id.page_at(i)))
        .map(|i| UvmError::InvariantViolation {
            subsystem: "host-pt",
            block: state.id.0,
            detail: format!(
                "page {} migrated to GPU but still CPU-mapped",
                state.id.page_at(i).0
            ),
        })
        .collect()
}

mod tests {
    use proptest::prelude::*;
    use serde::{Deserialize, Value};
    use uvm_sim::rng::DetRng;

    use crate::{RunHints, Scenario, SystemSnapshot, UvmSystem};

    /// The value of `key` in the object `v`.
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Object(fields) = v else {
            panic!("`{key}` is looked up in an object")
        };
        fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .expect("the field is present")
    }

    /// The `[block, record]` pairs of a per-block list.
    fn pairs(list: &mut Value) -> &mut Vec<Value> {
        let Value::Array(pairs) = list else {
            panic!("a per-block list is an array")
        };
        pairs
    }

    /// The block id of a `[block, ...]` pair.
    fn block_of(pair: &Value) -> u64 {
        let Value::Array(items) = pair else {
            panic!("a pair is an array")
        };
        let Value::NumU(block) = items[0] else {
            panic!("a pair starts with its block")
        };
        block
    }

    /// Flip bit `bit` of a `{"words": [...]}` page bitmap; returns whether
    /// the bitmap is empty afterwards.
    fn flip(bitmap: &mut Value, bit: usize) -> bool {
        let Value::Array(words) = field(bitmap, "words") else {
            panic!("bitmap words")
        };
        let Value::NumU(word) = &mut words[bit / 64] else {
            panic!("a word is a u64")
        };
        *word ^= 1 << (bit % 64);
        words.iter().all(|w| *w == Value::NumU(0))
    }

    /// A bitmap with only `bit` set.
    fn single(bit: usize) -> Value {
        let mut words = vec![Value::NumU(0); 8];
        words[bit / 64] = Value::NumU(1 << (bit % 64));
        Value::Object(vec![("words".into(), Value::Array(words))])
    }

    /// Flip `bit` of `block`'s record in `list`, the bitmap found by
    /// `bitmap` within a record; a missing record is created by `fresh`
    /// and an emptied one removed.
    fn flip_record(
        list: &mut Value,
        block: u64,
        bit: usize,
        bitmap: impl Fn(&mut Value) -> &mut Value,
        fresh: impl Fn(Value) -> Value,
    ) {
        let pairs = pairs(list);
        match pairs.iter().position(|p| block_of(p) == block) {
            Some(at) => {
                let Value::Array(pair) = &mut pairs[at] else {
                    panic!("a pair")
                };
                if flip(bitmap(&mut pair[1]), bit) {
                    pairs.remove(at);
                }
            }
            None => pairs.push(Value::Array(vec![Value::NumU(block), fresh(single(bit))])),
        }
    }

    /// Corrupt one random bit of each state holder of `tree`: a VABlock
    /// state bitmap, a GPU page-table bit, a DMA run, a host mapping and,
    /// once a peer backend has spilled, a page of an owner-directory
    /// holding.
    fn corrupt(tree: &mut Value, rng: &mut DetRng) {
        let driver = field(tree, "driver");
        let blocks = pairs(field(field(driver, "va_space"), "blocks"));
        let at = rng.below(blocks.len() as u64) as usize;
        let block = block_of(&blocks[at]);
        let Value::Array(pair) = &mut blocks[at] else {
            panic!("a pair")
        };
        let name =
            ["gpu_resident", "remote_mapped", "host_data"][rng.below(3) as usize];
        flip(field(&mut pair[1], name), rng.below(512) as usize);

        // The DMA run of a managed block: resized, dropped, or created.
        let runs = pairs(field(field(driver, "dma"), "runs"));
        let pages = Value::NumU(1 + rng.below(512));
        match runs.iter().position(|r| block_of(r) == block) {
            Some(at) if rng.chance(0.5) => drop(runs.remove(at)),
            Some(at) => {
                let Value::Array(run) = &mut runs[at] else {
                    panic!("a run")
                };
                run[1] = pages;
            }
            None => runs.push(Value::Array(vec![Value::NumU(block), pages])),
        }

        let block = random_block(tree, rng);
        flip_record(
            field(field(tree, "gpu"), "page_table"),
            block,
            rng.below(512) as usize,
            |r| r,
            |bm| bm,
        );
        let block = random_block(tree, rng);
        flip_record(
            field(field(tree, "host"), "blocks"),
            block,
            rng.below(512) as usize,
            |r| field(r, "mapped"),
            |bm| {
                let mut record = serde_json::parse(
                    r#"{"mapped":null,"dirty":{"words":[0,0,0,0,0,0,0,0]},"mappers":{"bits":[1,0]}}"#,
                )
                .expect("a host record parses");
                *field(&mut record, "mapped") = bm;
                record
            },
        );
        let entries = field(field(field(tree, "driver"), "peer_dir"), "entries");
        if !pairs(entries).is_empty() {
            let at = rng.below(pairs(entries).len() as u64) as usize;
            let block = block_of(&pairs(entries)[at]);
            flip_record(entries, block, rng.below(512) as usize, |h| field(h, "pages"), |bm| bm);
        }
    }

    /// A managed block of `tree`, drawn from `rng`.
    fn random_block(tree: &mut Value, rng: &mut DetRng) -> u64 {
        let blocks = pairs(field(field(field(tree, "driver"), "va_space"), "blocks"));
        block_of(&blocks[rng.below(blocks.len() as u64) as usize])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn block_wise_audit_reports_what_the_per_page_audit_does(
            scenario in 0u64..1 << 16,
            batches in 1u64..40,
            seed in any::<u64>(),
        ) {
            let scenario = Scenario::generate(0xA0D1, scenario);
            let workload = scenario.workload.build();
            let mut run = UvmSystem::new(scenario.config())
                .start(&workload, &RunHints::default())
                .expect("run starts");
            for _ in 0..batches {
                if !matches!(run.advance_batch(&workload), Ok(crate::Progress::Batch(_))) {
                    break;
                }
            }
            let mut tree = serde_json::parse(
                &serde_json::to_string(&run.snapshot(&workload, 0)).expect("snapshot encodes"),
            )
            .expect("snapshot parses");
            let mut rng = DetRng::new(seed);
            for corruptions in 0..3 {
                let snap = SystemSnapshot::from_value(&tree).expect("corrupted state decodes");
                let block_wise = uvm_driver::audit::violations(&snap.driver, &snap.gpu, &snap.host);
                let per_page = super::violations(&snap.driver, &snap.gpu, &snap.host);
                prop_assert_eq!(&block_wise, &per_page, "after {} corruption round(s)", corruptions);
                corrupt(&mut tree, &mut rng);
            }
        }
    }
}
