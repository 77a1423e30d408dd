//! The GPU page table, one record per VABlock.
//!
//! The driver maps and unmaps a block's pages together, as one
//! [`PageBitmap`], so the table keeps one bitmap per VABlock with a mapped
//! page. A block whose last page is unmapped drops its record, so no
//! record is empty. Lookups are one probe plus a bit test.
//!
//! The table serializes as its `[block, bitmap]` pairs in block order.
//! Decoding refuses what no map/unmap sequence produces and what would
//! make two equal tables digest differently: an empty record, and a block
//! listed twice.

use serde::{DeError, Deserialize, Serialize, Sink, Source};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::hash::FastMap;
use uvm_sim::mem::{PageNum, VaBlockId};

/// Per VABlock, the pages mapped on the device. No record is empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageTable {
    blocks: FastMap<VaBlockId, PageBitmap>,
}

impl PageTable {
    /// Whether `page` is mapped.
    #[inline]
    pub(crate) fn is_mapped(&self, page: PageNum) -> bool {
        self.blocks
            .get(&page.va_block())
            .is_some_and(|r| r.get(page.index_in_block()))
    }

    /// The mapped pages of `block`.
    pub(crate) fn mapped_in(&self, block: VaBlockId) -> PageBitmap {
        self.blocks.get(&block).copied().unwrap_or_default()
    }

    /// Number of mapped pages.
    pub(crate) fn pages(&self) -> usize {
        self.blocks.values().map(|r| r.count() as usize).sum()
    }

    /// Map `pages` of `block`.
    pub(crate) fn map(&mut self, block: VaBlockId, pages: &PageBitmap) {
        if !pages.is_empty() {
            self.blocks.entry(block).or_default().merge(pages);
        }
    }

    /// Unmap `pages` of `block`, dropping the record once it is empty.
    pub(crate) fn unmap(&mut self, block: VaBlockId, pages: &PageBitmap) {
        if let Some(record) = self.blocks.get_mut(&block) {
            *record = record.and_not(pages);
            if record.is_empty() {
                self.blocks.remove(&block);
            }
        }
    }
}

impl Serialize for PageTable {
    fn stream<S: Sink>(&self, s: &mut S) {
        self.blocks.stream(s);
    }
}

impl Deserialize for PageTable {
    fn pull<S: Source>(src: &mut S) -> Result<Self, DeError> {
        let records: Vec<(VaBlockId, PageBitmap)> = Deserialize::pull(src)?;
        let mut table = PageTable::default();
        for (block, pages) in records {
            let fault = if pages.is_empty() {
                format!("GPU page-table record of block {} is empty", block.0)
            } else if table.blocks.insert(block, pages).is_some() {
                format!("GPU page table repeats block {}", block.0)
            } else {
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
        assert!(t.blocks.is_empty());
        t.map(block, &PageBitmap::EMPTY);
        assert!(t.blocks.is_empty(), "mapping nothing makes no record");
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
        ] {
            let err = serde_json::from_str::<PageTable>(&text).expect_err(&text);
            assert!(err.to_string().contains(want), "{text}: {err}");
        }
        let back: PageTable = serde_json::from_str(&json).expect("decodes");
        assert_eq!(back.mapped_in(VaBlockId(5)), bits(&[1]));
    }
}
