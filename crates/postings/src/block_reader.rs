//! Block-granular posting reads with a decoded-block LRU.
//!
//! The paper's cost accounting is counted in *blocks read*, but a naive
//! reader issues one tiny `WormFs::read` per 8-byte posting, paying call
//! overhead and a storage-cache LRU traversal for every entry of the same
//! block.  This module makes the block the unit of work on the read path:
//!
//! * [`DecodedBlockCache`] — a small LRU of already-decoded blocks keyed by
//!   `(list, block_no)`, sitting *above* the WORM storage cache: the
//!   [`BlockLru`] instantiated at `Arc<[Posting]>`, so a tail block that
//!   grew since it was cached (the only way committed WORM data can
//!   change) is re-decoded transparently.
//! * [`BlockReader`] — streams a list one decoded block at a time as cheap
//!   `Arc<[Posting]>` slices, for callers that want slice-based iteration
//!   instead of a posting-at-a-time iterator.

use crate::block_lru::{BlockLru, BlockLruStats, PostingCount};
use crate::codec::Posting;
use crate::list::{ListError, ListStore};
use crate::types::ListId;
use std::sync::Arc;

/// Default capacity of the decoded-block LRU, in blocks.
///
/// At the paper's 8 KB block size this caches 256 Ki postings (≈4 MB
/// decoded) — enough to keep the merged lists a conjunctive workload
/// rescans fully decoded across queries, small next to the MB-scale
/// storage caches the paper budgets below it.
pub const DEFAULT_DECODED_BLOCKS: usize = 256;

/// Counters describing decoded-block cache behaviour: a hit is a block
/// decode avoided.
pub type DecodedCacheStats = BlockLruStats;

/// A shared LRU of decoded posting blocks (see the [module docs](self)).
pub type DecodedBlockCache = BlockLru<Arc<[Posting]>>;

impl PostingCount for Arc<[Posting]> {
    fn posting_count(&self) -> usize {
        self.len()
    }
}

impl Default for DecodedBlockCache {
    fn default() -> Self {
        Self::new(DEFAULT_DECODED_BLOCKS)
    }
}

/// Streams the committed postings of one list a decoded block at a time.
///
/// Each item is the full decoded contents of one block as an
/// `Arc<[Posting]>` — slice-based iteration with no per-posting copies,
/// served through the store's [`DecodedBlockCache`].  Concatenating the
/// yielded slices reproduces exactly the per-posting
/// [`PostingListReader`](crate::PostingListReader) sequence.
#[derive(Debug)]
pub struct BlockReader<'a> {
    store: &'a ListStore,
    list: ListId,
    next_block: u64,
    num_blocks: u64,
}

impl<'a> BlockReader<'a> {
    pub(crate) fn new(store: &'a ListStore, list: ListId) -> Result<Self, ListError> {
        let num_blocks = store.num_blocks(list)?;
        Ok(Self {
            store,
            list,
            next_block: 0,
            num_blocks,
        })
    }

    /// Blocks not yet yielded.
    pub fn remaining_blocks(&self) -> u64 {
        self.num_blocks - self.next_block
    }
}

impl Iterator for BlockReader<'_> {
    type Item = Arc<[Posting]>;

    fn next(&mut self) -> Option<Arc<[Posting]>> {
        if self.next_block >= self.num_blocks {
            return None;
        }
        let block = self.store.decoded_block(self.list, self.next_block).ok()?;
        self.next_block += 1;
        Some(block)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.remaining_blocks() as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BlockReader<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DocId, TermId};

    fn store() -> ListStore {
        ListStore::new(64, 2).unwrap() // 8 postings per block
    }

    #[test]
    fn block_reader_concatenation_equals_posting_reader() {
        let mut s = store();
        for d in 0..20u64 {
            s.append(ListId(0), TermId((d % 3) as u32), DocId(d), 1, None)
                .unwrap();
        }
        let via_blocks: Vec<Posting> = s
            .block_reader(ListId(0))
            .unwrap()
            .flat_map(|b| b.iter().copied().collect::<Vec<_>>())
            .collect();
        let via_postings: Vec<Posting> = s.postings(ListId(0)).unwrap().collect();
        assert_eq!(via_blocks, via_postings);
        assert_eq!(s.block_reader(ListId(0)).unwrap().len(), 3); // ceil(20/8)
    }

    #[test]
    fn tail_growth_invalidates_cached_block() {
        let mut s = store();
        s.append(ListId(0), TermId(0), DocId(1), 1, None).unwrap();
        let first: Vec<_> = s.postings(ListId(0)).unwrap().collect();
        assert_eq!(first.len(), 1);
        // The tail block is now cached with one posting.  Growing the list
        // must invalidate it, not serve the stale decode.
        s.append(ListId(0), TermId(0), DocId(2), 1, None).unwrap();
        let docs: Vec<u64> = s.postings(ListId(0)).unwrap().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 2]);
        assert!(
            s.decoded_cache_stats().invalidations >= 1,
            "stale tail decode must be counted as invalidated"
        );
    }

    #[test]
    fn repeated_scans_hit_the_decoded_cache() {
        let mut s = store();
        for d in 0..16u64 {
            s.append(ListId(1), TermId(0), DocId(d), 1, None).unwrap();
        }
        let _ = s.postings(ListId(1)).unwrap().count();
        let misses_after_first = s.decoded_cache_stats().misses;
        let _ = s.postings(ListId(1)).unwrap().count();
        let stats = s.decoded_cache_stats();
        assert_eq!(
            stats.misses, misses_after_first,
            "second scan must decode nothing"
        );
        assert!(stats.hits >= 2, "both blocks should hit on the rescan");
    }

    #[test]
    fn capacity_bounds_resident_blocks() {
        let cache = DecodedBlockCache::new(2);
        let empty: Arc<[Posting]> = Vec::new().into();
        cache.insert(ListId(0), 0, Arc::clone(&empty));
        cache.insert(ListId(0), 1, Arc::clone(&empty));
        cache.insert(ListId(0), 2, Arc::clone(&empty));
        let stats = cache.stats();
        assert_eq!(stats.resident, 2, "LRU must evict down to capacity");
        assert!(cache.get(ListId(0), 0, 0).is_none(), "0 was evicted");
        assert!(cache.get(ListId(0), 2, 0).is_some());
    }

    #[test]
    fn zero_capacity_cache_never_retains() {
        let cache = DecodedBlockCache::new(0);
        let empty: Arc<[Posting]> = Vec::new().into();
        cache.insert(ListId(0), 0, empty);
        assert!(cache.get(ListId(0), 0, 0).is_none());
        assert_eq!(cache.stats().resident, 0);
    }
}
