//! The count-validated block LRU behind both per-block caches.
//!
//! [`DecodedBlockCache`](crate::DecodedBlockCache) and
//! [`BlockSummaryCache`](crate::BlockSummaryCache) cache different values
//! under the same key and the same coherence rule: an entry for
//! `(list, block_no)` records how many postings it was computed from and
//! is served only while the block still holds exactly that many.  Full
//! (non-tail) blocks of a WORM list are immutable forever, so an entry
//! can only ever be *stale-short* (computed before the tail grew), never
//! wrong; a stale entry is dropped on lookup — append-watermark
//! invalidation without any writer → reader signalling.

use crate::types::ListId;
use std::collections::HashMap;
use std::sync::Mutex;
use tks_worm::LruCore;

/// Cache key: `(physical list, file-relative block number)`.
type Key = (u32, u64);

/// A cached per-block value that knows how many postings it covers.
pub trait PostingCount: Clone {
    /// Committed postings of the block this value was computed from.
    fn posting_count(&self) -> usize;
}

/// Counters describing a [`BlockLru`]'s behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockLruStats {
    /// Lookups served from a resident, still-valid entry.
    pub hits: u64,
    /// Lookups that found no usable entry (the caller recomputes it).
    pub misses: u64,
    /// Entries discarded because the list grew past them (tail blocks
    /// cached before later appends).
    pub invalidations: u64,
    /// Entries currently resident.
    pub resident: usize,
}

#[derive(Debug)]
struct Inner<V> {
    lru: LruCore<Key>,
    map: HashMap<Key, V>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// A shared LRU of per-block values (see the [module docs](self)).
///
/// All methods take `&self`; the cache is safe to share across the reader
/// snapshots of a concurrent query service.
#[derive(Debug)]
pub struct BlockLru<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V: PostingCount> BlockLru<V> {
    /// An empty cache holding at most `capacity` entries (`0` disables
    /// caching entirely: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                lru: LruCore::new(),
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                invalidations: 0,
            }),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        // A poisoned lock only means another reader panicked mid-lookup;
        // the map itself is always structurally valid, so recover it.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The entry for `(list, block_no)` if present *and* still covering
    /// exactly `expected_len` postings.  A shorter entry was computed
    /// before the list's tail grew into this block; it is dropped and
    /// counted as an invalidation so the caller recomputes (and
    /// re-inserts).
    pub fn get(&self, list: ListId, block_no: u64, expected_len: usize) -> Option<V> {
        let key = (list.0, block_no);
        let mut inner = self.lock();
        match inner.map.get(&key) {
            Some(entry) if entry.posting_count() == expected_len => {
                let entry = entry.clone();
                inner.lru.touch(&key);
                inner.hits += 1;
                Some(entry)
            }
            Some(_) => {
                inner.map.remove(&key);
                inner.lru.remove(&key);
                inner.invalidations += 1;
                inner.misses += 1;
                None
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly computed entry, evicting the least recently used
    /// one at capacity.  Duplicate inserts (two readers racing on the
    /// same miss) are harmless: last write wins and both values are
    /// identical.
    pub fn insert(&self, list: ListId, block_no: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let key = (list.0, block_no);
        let mut inner = self.lock();
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            if let Some(victim) = inner.lru.pop_lru() {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(key, value);
        inner.lru.insert(key);
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> BlockLruStats {
        let inner = self.lock();
        BlockLruStats {
            hits: inner.hits,
            misses: inner.misses,
            invalidations: inner.invalidations,
            resident: inner.map.len(),
        }
    }
}
