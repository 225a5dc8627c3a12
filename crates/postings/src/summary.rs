//! Per-block posting summaries for bounded top-k evaluation.
//!
//! The paper's query cost is counted in *blocks read* (Figure 8(c)).  A
//! ranked disjunctive query does not need most of those blocks: once a
//! top-k heap is full, any block whose best possible score contribution
//! cannot beat the current k-th score is irrelevant.  Deciding that
//! requires a tiny amount of per-block metadata — the maximum term
//! frequency and the document-ID range — which this module maintains as a
//! cache-resident *sidecar* of the decoded-block LRU:
//!
//! * [`BlockSummary`] — `(len, max_tf, min_doc, max_doc)` for one
//!   `(list, block)` pair.  `max_tf` upper-bounds every tf in the block
//!   (all tags of a merged list, so the bound is sound for *any* term
//!   routed to the list); `min_doc`/`max_doc` bound the block's document
//!   range, enabling visibility-watermark skips and accumulator-overlap
//!   checks.
//! * [`BlockSummaryCache`] — a shared LRU keyed by `(list, block_no)`,
//!   validated by posting count exactly like the decoded-block cache (it
//!   is the same [`BlockLru`]): a summary of a tail block that has since
//!   grown is *stale-short*, never wrong, and is dropped on lookup.
//!
//! Summaries are computed **once, at decode time** — the store summarises
//! each block as a by-product of decoding it (`ListStore::decoded_block`)
//! and during recovery's block replay — and never require extra I/O.  A
//! block whose summary is not yet resident simply cannot be skipped; it
//! is scanned (and charged to the Figure 8(c) accounting), which
//! summarises it for every later query.  Full (non-tail) WORM blocks are
//! immutable, so their summaries stay valid forever.

use crate::block_lru::{BlockLru, BlockLruStats, PostingCount};
use crate::codec::Posting;
use crate::types::DocId;
#[cfg(test)]
use crate::types::ListId;

/// Default capacity of the block-summary LRU, in blocks.
///
/// A summary is ~24 bytes, so the default covers a paper-scale store
/// (1M documents × 500 postings at 8 KB blocks ≈ 500 Ki blocks) in a few
/// tens of MB — the whole point is that skip decisions never do I/O.
pub const DEFAULT_BLOCK_SUMMARIES: usize = 1 << 20;

/// Decode-time metadata of one posting block (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Number of committed postings summarised (the validity stamp: a
    /// summary is served only while the block still holds exactly this
    /// many postings).
    pub len: u32,
    /// Largest in-document term frequency in the block, across *all* tags
    /// of the (possibly merged) list — a sound per-term tf bound.
    pub max_tf: u8,
    /// Smallest document ID in the block (first posting; doc IDs are
    /// non-decreasing within a list).
    pub min_doc: DocId,
    /// Largest document ID in the block (last posting).
    pub max_doc: DocId,
}

impl BlockSummary {
    /// Summarise a decoded block.  Returns `None` for an empty slice —
    /// an empty block has nothing to bound and nothing to skip.
    pub fn from_postings(postings: &[Posting]) -> Option<Self> {
        let (first, last) = (postings.first()?, postings.last()?);
        let max_tf = postings.iter().map(|p| p.tf).max().unwrap_or(0);
        Some(Self {
            len: postings.len() as u32,
            max_tf,
            min_doc: first.doc,
            max_doc: last.doc,
        })
    }
}

impl PostingCount for BlockSummary {
    fn posting_count(&self) -> usize {
        self.len as usize
    }
}

/// Counters describing block-summary cache behaviour: a miss means the
/// caller must scan the block (and thereby summarise it).
pub type SummaryCacheStats = BlockLruStats;

/// A shared LRU of per-block summaries (see the [module docs](self)).
pub type BlockSummaryCache = BlockLru<BlockSummary>;

impl Default for BlockSummaryCache {
    fn default() -> Self {
        Self::new(DEFAULT_BLOCK_SUMMARIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Posting;

    fn p(doc: u64, tf: u8) -> Posting {
        Posting {
            doc: DocId(doc),
            term_tag: 0,
            tf,
        }
    }

    #[test]
    fn summarises_range_and_max_tf() {
        let s = BlockSummary::from_postings(&[p(3, 1), p(5, 9), p(5, 2), p(8, 4)]).unwrap();
        assert_eq!(s.len, 4);
        assert_eq!(s.max_tf, 9);
        assert_eq!(s.min_doc, DocId(3));
        assert_eq!(s.max_doc, DocId(8));
        assert!(BlockSummary::from_postings(&[]).is_none());
    }

    #[test]
    fn stale_short_summary_invalidated_by_length() {
        let cache = BlockSummaryCache::new(8);
        let short = BlockSummary::from_postings(&[p(1, 1)]).unwrap();
        cache.insert(ListId(0), 0, short);
        // The tail grew to two postings: the one-posting summary must not
        // be served.
        assert!(cache.get(ListId(0), 0, 2).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Re-inserted at the grown length, it serves again.
        let grown = BlockSummary::from_postings(&[p(1, 1), p(2, 3)]).unwrap();
        cache.insert(ListId(0), 0, grown);
        assert_eq!(cache.get(ListId(0), 0, 2), Some(grown));
    }

    #[test]
    fn capacity_bounds_resident_summaries() {
        let cache = BlockSummaryCache::new(2);
        let s = BlockSummary::from_postings(&[p(1, 1)]).unwrap();
        cache.insert(ListId(0), 0, s);
        cache.insert(ListId(0), 1, s);
        cache.insert(ListId(0), 2, s);
        assert_eq!(cache.stats().resident, 2, "LRU must evict to capacity");
        assert!(cache.get(ListId(0), 0, 1).is_none(), "0 was evicted");
        assert!(cache.get(ListId(0), 2, 1).is_some());
    }

    #[test]
    fn zero_capacity_cache_never_retains() {
        let cache = BlockSummaryCache::new(0);
        let s = BlockSummary::from_postings(&[p(1, 1)]).unwrap();
        cache.insert(ListId(0), 0, s);
        assert!(cache.get(ListId(0), 0, 1).is_none());
        assert_eq!(cache.stats().resident, 0);
    }
}
