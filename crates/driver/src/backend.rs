//! Servicing-architecture backends: who runs the fault-servicing pipeline
//! and where far-fault data comes from.
//!
//! The paper instruments exactly one architecture — the CPU-driver-centric
//! pipeline in which every fault batch crosses the PCIe interrupt path,
//! wakes a host worker thread, and pays `unmap_mapping_range` + TLB
//! shootdown IPIs on the host. This module makes that architecture one
//! variant of [`BackendKind`]; the pipeline asks the kind, through a
//! `match`, the few things architectures differ in (wake latency, whether
//! the fault path charges host unmap work, peer count), so a
//! cross-architecture study is a config change instead of a driver fork:
//!
//! * [`BackendKind::CpuDriver`] — the stock pipeline, bit-identical to the
//!   pre-backend driver.
//! * [`BackendKind::GpuDriven`] — GPUVM-style GPU-side fault queues: a
//!   device-resident handler polls the fault queue (no interrupt delivery,
//!   no worker wake) and host page tables are torn down asynchronously, so
//!   a batch charges **zero** host unmap/IPI time and emits no host-OS
//!   unmap spans.
//! * [`BackendKind::MultiGpuPeer2`] / [`BackendKind::MultiGpuPeer4`] — 2
//!   or 4 peer GPUs service far-faults over an NVLink-like interconnect:
//!   capacity evictions spill a victim's resident pages to a peer instead
//!   of writing them back to sysmem, and re-faults on peer-held pages
//!   migrate them back peer-to-peer (cheaper than a host sysmem fetch,
//!   costlier than a local hit). A per-VABlock owner directory
//!   ([`PeerDirectory`]) names the peer holding each spilled page set.
//!
//! ## Determinism and snapshot contract
//!
//! A backend kind is a plain `Copy` value (dispatch allocates nothing,
//! mirroring [`crate::engine`]); all mutable backend state — the
//! owner directory and its traffic counters — lives in the serialized
//! [`PeerDirectory`] on [`crate::service::UvmDriver`], so a snapshot
//! captures every bit a backend depends on and a restored run continues
//! bit-identically under any backend. The directory is the only record of
//! which pages a peer holds: VABlock states keep no copy. Peer selection
//! is deterministic (fewest entries, ties by lowest peer id): no RNG
//! draw, so enabling a peer backend perturbs no other random stream.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::cost::CostModel;
use uvm_sim::mem::VaBlockId;
use uvm_sim::time::SimDuration;

use crate::va_space::VaSpace;

/// Serde-configurable servicing-backend selection (the
/// `SystemConfig::backend` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// The stock CPU-driven pipeline (interrupt → host worker → host
    /// unmap → PCIe migration). Bit-identical to the pre-backend driver.
    #[default]
    CpuDriver,
    /// GPUVM-style GPU-driven servicing: device-side fault queues polled
    /// by a GPU-resident handler; no interrupt/wake round-trip and no
    /// host-side unmap cost on the fault path.
    GpuDriven,
    /// Two peer GPUs servicing far-faults over an NVLink-like
    /// interconnect, with peer-to-peer page migration and an owner
    /// directory.
    MultiGpuPeer2,
    /// Four peer GPUs servicing far-faults over an NVLink-like
    /// interconnect.
    MultiGpuPeer4,
}

impl BackendKind {
    /// Every backend, in sweep order.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::CpuDriver,
        BackendKind::GpuDriven,
        BackendKind::MultiGpuPeer2,
        BackendKind::MultiGpuPeer4,
    ];

    /// Stable lower-case name (sweep tables, trace events).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::CpuDriver => "cpu-driver",
            BackendKind::GpuDriven => "gpu-driven",
            BackendKind::MultiGpuPeer2 => "peer-2",
            BackendKind::MultiGpuPeer4 => "peer-4",
        }
    }

    /// Number of peer GPUs this backend services far-faults with (0 =
    /// none).
    pub fn peers(self) -> u32 {
        match self {
            BackendKind::CpuDriver | BackendKind::GpuDriven => 0,
            BackendKind::MultiGpuPeer2 => 2,
            BackendKind::MultiGpuPeer4 => 4,
        }
    }

    /// Latency from a fault's buffer arrival to the servicing loop picking
    /// it up (the batch accumulation window's wake term). Only the
    /// GPU-driven backend skips the host interrupt + worker wake; the peer
    /// backends service far-*data*, but batch orchestration stays
    /// CPU-driven.
    pub fn wake_latency(self, cost: &CostModel) -> SimDuration {
        match self {
            BackendKind::GpuDriven => cost.gpu_queue_poll_latency,
            BackendKind::CpuDriver | BackendKind::MultiGpuPeer2 | BackendKind::MultiGpuPeer4 => {
                cost.interrupt_latency + cost.worker_wake_latency
            }
        }
    }

    /// Whether servicing a block charges the host `unmap_mapping_range`
    /// path (per-page PTE teardown + TLB shootdown IPIs) to the batch. The
    /// GPU-driven backend performs the same state transition but at zero
    /// host-path cost, emitting no host-OS spans.
    pub fn charges_host_unmap(self) -> bool {
        self != BackendKind::GpuDriven
    }
}

/// One directory entry: which peer holds a block's spilled pages, and
/// which pages it holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerHolding {
    /// The peer GPU (0-based) holding the pages.
    pub peer: u32,
    /// The pages of the block resident on that peer.
    pub pages: PageBitmap,
}

/// The per-VABlock owner directory of the multi-GPU peer backends.
///
/// A block occupies at most one peer slot: all of its spilled pages live
/// on a single peer (a later spill of the same block merges into the same
/// holding), and the slot frees once every held page has migrated back.
/// Slot accounting is block-granular — each peer offers
/// `capacity_blocks` slots, and a peer's used slots are the entries
/// naming it — while page movement is page-granular.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PeerDirectory {
    /// Number of peer GPUs (0 = directory disabled).
    peers: u32,
    /// Block slots per peer.
    capacity_blocks: u64,
    /// Owner directory: block → (peer, held pages).
    entries: BTreeMap<VaBlockId, PeerHolding>,
    /// Cumulative pages spilled device → peer. The three traffic
    /// counters exist for leak detection: the held pages must equal
    /// spilled − fetched − reclaimed (audit invariant 10).
    pub pages_spilled: u64,
    /// Cumulative pages migrated peer → device on re-fault.
    pub pages_fetched: u64,
    /// Cumulative pages written back peer → host (remote-mapping and
    /// degradation paths reclaim peer pages into sysmem).
    pub pages_reclaimed: u64,
}

impl PeerDirectory {
    /// A directory for `peers` peer GPUs with `capacity_blocks` block
    /// slots each. `peers == 0` yields the disabled directory.
    pub fn new(peers: u32, capacity_blocks: u64) -> Self {
        PeerDirectory { peers, capacity_blocks, ..PeerDirectory::default() }
    }

    /// Whether any peers exist.
    pub fn is_enabled(&self) -> bool {
        self.peers > 0
    }

    /// Number of peer GPUs.
    pub fn peer_count(&self) -> u32 {
        self.peers
    }

    /// Block slots per peer.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Occupied slots on peer `p`: the directory entries naming it.
    pub fn used_slots(&self, p: u32) -> u64 {
        self.entries.values().filter(|h| h.peer == p).count() as u64
    }

    /// The pages of `block` currently held by a peer (empty if none).
    pub fn pages_of(&self, block: VaBlockId) -> PageBitmap {
        self.entries.get(&block).map_or(PageBitmap::EMPTY, |h| h.pages)
    }

    /// Iterate the directory entries in block order.
    pub fn entries(&self) -> impl Iterator<Item = (VaBlockId, &PeerHolding)> {
        self.entries.iter().map(|(&b, h)| (b, h))
    }

    /// Total pages held across all peers.
    pub fn total_held_pages(&self) -> u64 {
        self.entries.values().map(|h| u64::from(h.pages.count())).sum()
    }

    /// Check a decoded directory against the backend's peer count and the
    /// VA space it was saved with: the directory has `peers` peers, every
    /// entry names one of them and a registered block, holds at least one
    /// page and none past the block's valid range, and no peer holds more
    /// entries than its capacity. `Err` describes the first inconsistency.
    pub fn check(&self, peers: u32, va_space: &VaSpace) -> Result<(), String> {
        if self.peers != peers {
            return Err(format!(
                "the peer directory has {} peers, but the backend has {peers}",
                self.peers
            ));
        }
        let mut per_peer: BTreeMap<u32, u64> = BTreeMap::new();
        for (&block, h) in &self.entries {
            if h.peer >= self.peers {
                return Err(format!(
                    "the peer directory places block {} on peer {}, but it has {} peers",
                    block.0, h.peer, self.peers
                ));
            }
            let valid = va_space
                .try_block(block)
                .map_err(|_| format!("the peer directory holds unregistered block {}", block.0))?
                .valid_pages;
            match h.pages.iter_set().last() {
                None => {
                    return Err(format!("the peer directory holds no pages of block {}", block.0))
                }
                Some(last) if last as u32 >= valid => {
                    return Err(format!(
                        "the peer directory holds page {last} of block {}, past its {valid} \
                         valid pages",
                        block.0
                    ))
                }
                Some(_) => {}
            }
            *per_peer.entry(h.peer).or_default() += 1;
        }
        match per_peer.into_iter().find(|&(_, n)| n > self.capacity_blocks) {
            Some((p, n)) => Err(format!(
                "peer {p} holds {n} blocks, over its capacity {}",
                self.capacity_blocks
            )),
            None => Ok(()),
        }
    }

    /// Spill `pages` of `block` to a peer, if a slot is available. A block
    /// that already has a holding merges into it (same peer, no new slot);
    /// otherwise the least-used peer (ties: lowest id) with a free slot
    /// takes it. Returns the peer, or `None` when every peer is full (the
    /// caller falls back to host writeback).
    pub fn try_spill(&mut self, block: VaBlockId, pages: &PageBitmap) -> Option<u32> {
        if self.peers == 0 || pages.is_empty() {
            return None;
        }
        let n = u64::from(pages.count());
        if let Some(h) = self.entries.get_mut(&block) {
            h.pages = h.pages.or(pages);
            self.pages_spilled += n;
            return Some(h.peer);
        }
        let peer = (0..self.peers)
            .map(|p| (self.used_slots(p), p))
            .filter(|&(used, _)| used < self.capacity_blocks)
            .min()?
            .1;
        self.entries.insert(block, PeerHolding { peer, pages: *pages });
        self.pages_spilled += n;
        Some(peer)
    }

    /// Move the peer-held pages of `block` that intersect `wanted` out of
    /// the directory (peer → device migration on re-fault). Frees the slot
    /// if the holding empties. Returns the peer and the taken pages, or
    /// `None` when nothing overlaps.
    pub fn take_overlap(
        &mut self,
        block: VaBlockId,
        wanted: &PageBitmap,
    ) -> Option<(u32, PageBitmap)> {
        let taken = self.remove_overlap(block, wanted)?;
        self.pages_fetched += u64::from(taken.1.count());
        Some(taken)
    }

    /// Like [`PeerDirectory::take_overlap`], but accounted as a peer →
    /// host writeback (the remote-mapping and degradation paths reclaim
    /// peer pages into sysmem rather than onto the device).
    pub fn reclaim_overlap(
        &mut self,
        block: VaBlockId,
        wanted: &PageBitmap,
    ) -> Option<(u32, PageBitmap)> {
        let taken = self.remove_overlap(block, wanted)?;
        self.pages_reclaimed += u64::from(taken.1.count());
        Some(taken)
    }

    fn remove_overlap(
        &mut self,
        block: VaBlockId,
        wanted: &PageBitmap,
    ) -> Option<(u32, PageBitmap)> {
        let h = self.entries.get_mut(&block)?;
        let overlap = h.pages.and(wanted);
        if overlap.is_empty() {
            return None;
        }
        h.pages = h.pages.and_not(&overlap);
        let peer = h.peer;
        if h.pages.is_empty() {
            self.entries.remove(&block);
        }
        Some((peer, overlap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(idx: &[usize]) -> PageBitmap {
        idx.iter().copied().collect()
    }

    #[test]
    fn kinds_dispatch_and_name_stably() {
        assert_eq!(BackendKind::ALL.len(), 4);
        let names: Vec<&str> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["cpu-driver", "gpu-driven", "peer-2", "peer-4"]);
        assert_eq!(BackendKind::default(), BackendKind::CpuDriver);
        assert_eq!(BackendKind::MultiGpuPeer2.peers(), 2);
        assert_eq!(BackendKind::MultiGpuPeer4.peers(), 4);
        assert_eq!(BackendKind::CpuDriver.peers(), 0);
        assert!(BackendKind::CpuDriver.charges_host_unmap());
        assert!(!BackendKind::GpuDriven.charges_host_unmap());
        assert!(BackendKind::MultiGpuPeer4.charges_host_unmap());
    }

    #[test]
    fn backend_kind_round_trips_serde() {
        for kind in BackendKind::ALL {
            let json = serde_json::to_string(&kind).expect("kind serializes");
            let back: BackendKind = serde_json::from_str(&json).expect("kind parses");
            assert_eq!(kind, back);
        }
    }

    #[test]
    fn spill_picks_least_used_peer_and_respects_capacity() {
        let mut dir = PeerDirectory::new(2, 2);
        assert_eq!(dir.try_spill(VaBlockId(1), &pages(&[0, 1])), Some(0));
        assert_eq!(dir.try_spill(VaBlockId(2), &pages(&[4])), Some(1));
        assert_eq!(dir.try_spill(VaBlockId(3), &pages(&[7])), Some(0));
        assert_eq!(dir.try_spill(VaBlockId(4), &pages(&[9])), Some(1));
        // All four slots occupied: a fifth block cannot spill.
        assert_eq!(dir.try_spill(VaBlockId(5), &pages(&[2])), None);
        // But an existing holding still merges without a new slot.
        assert_eq!(dir.try_spill(VaBlockId(1), &pages(&[8])), Some(0));
        assert_eq!(dir.pages_of(VaBlockId(1)), pages(&[0, 1, 8]));
        assert_eq!(dir.used_slots(0), 2);
        assert_eq!(dir.used_slots(1), 2);
        assert_eq!(dir.total_held_pages(), 6);
        assert_eq!(dir.pages_spilled, 6);
    }

    #[test]
    fn take_overlap_moves_pages_and_frees_emptied_slots() {
        let mut dir = PeerDirectory::new(2, 4);
        dir.try_spill(VaBlockId(7), &pages(&[1, 2, 3]));
        assert_eq!(dir.take_overlap(VaBlockId(7), &pages(&[2, 9])), Some((0, pages(&[2]))));
        assert_eq!(dir.pages_of(VaBlockId(7)), pages(&[1, 3]));
        assert_eq!(dir.used_slots(0), 1);
        // No overlap → None, nothing moves.
        assert_eq!(dir.take_overlap(VaBlockId(7), &pages(&[9])), None);
        // Draining the holding frees the slot.
        assert_eq!(dir.take_overlap(VaBlockId(7), &pages(&[1, 3])), Some((0, pages(&[1, 3]))));
        assert_eq!(dir.used_slots(0), 0);
        assert_eq!(dir.total_held_pages(), 0);
        // Conservation: held == spilled - fetched - reclaimed.
        assert_eq!(
            dir.total_held_pages(),
            dir.pages_spilled - dir.pages_fetched - dir.pages_reclaimed
        );
    }

    #[test]
    fn disabled_directory_never_spills() {
        let mut dir = PeerDirectory::default();
        assert!(!dir.is_enabled());
        assert_eq!(dir.try_spill(VaBlockId(1), &pages(&[0])), None);
        let mut dir = PeerDirectory::new(2, 4);
        assert_eq!(dir.try_spill(VaBlockId(1), &PageBitmap::EMPTY), None);
    }

    #[test]
    fn directory_round_trips_serde() {
        let mut dir = PeerDirectory::new(4, 8);
        dir.try_spill(VaBlockId(3), &pages(&[0, 5]));
        dir.try_spill(VaBlockId(9), &pages(&[2]));
        dir.reclaim_overlap(VaBlockId(9), &pages(&[2]));
        let json = serde_json::to_string(&dir).expect("directory serializes");
        let back: PeerDirectory = serde_json::from_str(&json).expect("directory parses");
        assert_eq!(dir, back);
    }
}
