//! The GPU page table, one record per VABlock.
//!
//! The driver maps and unmaps a block's pages together, as one
//! [`PageBitmap`], so the table keeps one bitmap per VABlock with a mapped
//! page. A block whose last page is unmapped drops its record, so no
//! record is empty.
//!
//! Every warp access probes the table, so a lookup is an indexed load plus
//! a bit test: the managed-memory allocator hands out block ids densely
//! from 1, so the table indexes its records by block id, and an empty
//! bitmap in the index is a block with no record. Block ids stay below
//! [`MAX_BLOCKS`].
//!
//! The table serializes as its `[block, bitmap]` pairs in block order.
//! Decoding refuses what no map/unmap sequence produces and what would
//! make two equal tables digest differently: an empty record, a block
//! listed twice, and a block at or past [`MAX_BLOCKS`], whose index entry
//! would cost memory in proportion to its id.

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::mem::{PageNum, VaBlockId};

/// Block ids the table indexes: 2^16 blocks span 128 GiB of managed
/// memory, ten times the largest modelled GPU's, and an index of them all
/// is 4 MiB.
const MAX_BLOCKS: u64 = 1 << 16;

/// Per VABlock, the pages mapped on the device. No record is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageTable {
    /// Records by block id; an empty bitmap is no record. Grows to the
    /// highest block mapped.
    blocks: Vec<PageBitmap>,
}

impl PageTable {
    /// Whether `page` is mapped.
    #[inline]
    pub(crate) fn is_mapped(&self, page: PageNum) -> bool {
        self.blocks
            .get(page.va_block().0 as usize)
            .is_some_and(|r| r.get(page.index_in_block()))
    }

    /// The mapped pages of `block`.
    pub(crate) fn mapped_in(&self, block: VaBlockId) -> PageBitmap {
        self.blocks.get(block.0 as usize).copied().unwrap_or_default()
    }

    /// Number of mapped pages.
    pub(crate) fn pages(&self) -> usize {
        self.blocks.iter().map(|r| r.count() as usize).sum()
    }

    /// Map `pages` of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is at or past [`MAX_BLOCKS`].
    pub(crate) fn map(&mut self, block: VaBlockId, pages: &PageBitmap) {
        if pages.is_empty() {
            return;
        }
        assert!(block.0 < MAX_BLOCKS, "block {} is past the GPU page table", block.0);
        let i = block.0 as usize;
        if i >= self.blocks.len() {
            self.blocks.resize(i + 1, PageBitmap::EMPTY);
        }
        self.blocks[i].merge(pages);
    }

    /// Unmap `pages` of `block`; an emptied record is no record.
    pub(crate) fn unmap(&mut self, block: VaBlockId, pages: &PageBitmap) {
        if let Some(record) = self.blocks.get_mut(block.0 as usize) {
            *record = record.and_not(pages);
        }
    }

    /// Every record in ascending block order.
    fn records(&self) -> impl Iterator<Item = (VaBlockId, &PageBitmap)> {
        (0..).map(VaBlockId).zip(&self.blocks).filter(|(_, r)| !r.is_empty())
    }
}

impl Serialize for PageTable {
    fn stream<S: Sink>(&self, s: &mut S) {
        s.array(self.records().count());
        for (block, record) in self.records() {
            (block, *record).stream(s);
        }
        s.end_array();
    }
}

impl Deserialize for PageTable {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        let records: Vec<(VaBlockId, PageBitmap)> = Deserialize::pull(src)?;
        let mut table = PageTable::default();
        for (block, pages) in records {
            let fault = if pages.is_empty() {
                format!("GPU page-table record of block {} is empty", block.0)
            } else if block.0 >= MAX_BLOCKS {
                format!("GPU page table maps block {}, past its {MAX_BLOCKS} blocks", block.0)
            } else if !table.mapped_in(block).is_empty() {
                format!("GPU page table repeats block {}", block.0)
            } else {
                table.map(block, &pages);
                continue;
            };
            return Err(src.locate(DeError::custom(fault)));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(indices: &[usize]) -> PageBitmap {
        indices.iter().copied().collect()
    }

    #[test]
    fn unmapping_the_last_page_drops_the_record() {
        let mut t = PageTable::default();
        let block = VaBlockId(3);
        t.map(block, &bits(&[0, 7]));
        t.map(block, &bits(&[7, 9]));
        assert_eq!(t.pages(), 3);
        assert!(t.is_mapped(block.page_at(9)) && !t.is_mapped(block.page_at(8)));
        t.unmap(block, &bits(&[0, 9]));
        assert_eq!(t.mapped_in(block), bits(&[7]));
        t.unmap(block, &bits(&[7, 100]));
        assert_eq!(t.records().count(), 0);
        t.map(block, &PageBitmap::EMPTY);
        assert_eq!(t.records().count(), 0, "mapping nothing makes no record");
        assert_eq!(serde_json::to_string(&t).expect("encodes"), "[]");
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        let mut t = PageTable::default();
        t.map(VaBlockId(5), &bits(&[1]));
        let json = serde_json::to_string(&t).expect("encodes");
        let record = r#"[5,{"words":[2,0,0,0,0,0,0,0]}]"#;
        assert_eq!(json, format!("[{record}]"));
        let empty = r#"[6,{"words":[0,0,0,0,0,0,0,0]}]"#;
        for (text, want) in [
            (format!("[{record},{empty}]"), "record of block 6 is empty"),
            (format!("[{record},{record}]"), "repeats block 5"),
            (
                format!("[{}]", record.replacen('5', "65536", 1)),
                "maps block 65536, past its 65536 blocks",
            ),
        ] {
            let err = serde_json::from_str::<PageTable>(&text).expect_err(&text);
            assert!(err.to_string().contains(want), "{text}: {err}");
        }
        let back: PageTable = serde_json::from_str(&json).expect("decodes");
        assert_eq!(back.mapped_in(VaBlockId(5)), bits(&[1]));
    }
}
