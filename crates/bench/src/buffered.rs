//! The *rejected* baseline: buffered index maintenance (paper §2.3).
//!
//! Classical inverted-index engines amortise random I/O by buffering new
//! postings in memory (or a disk log) and merging them into the on-disk
//! index in large batches — the in-place/re-build/re-merge strategies of
//! Cutting & Pedersen, Tomasic et al., Lester et al., and the paper's own
//! reference engine.  The paper's point is that **no amount of buffering
//! is compatible with trustworthy retention**:
//!
//! > "Buffering creates a time lag … between when a document is created
//! > and when the index on WORM is updated.  For trustworthy indexing, we
//! > cannot leave such a gap between document commit and index update —
//! > Mala can get rid of an index entry while it is still in the buffer,
//! > or crash the application and delete the recovery logs of uncommitted
//! > posting entries."
//!
//! [`BufferedIndex`] implements that baseline faithfully: postings
//! accumulate in volatile memory and reach WORM only on [`flush`]
//! (automatic every `flush_every` documents).  Its adversary interface
//! exposes exactly the §2.3 attacks — scrubbing a buffered entry, and
//! crashing before flush — and the tests demonstrate that both *silently
//! succeed* here while being impossible against [`SearchEngine`]
//! (whose index entries are on WORM before `add_document` returns).
//!
//! The insertion-I/O upside of buffering is real and measurable — the
//! `buffering_really_is_cheaper_per_insert` test below counts the random
//! I/Os saved, and the `buffered_vs_realtime` Criterion group
//! compares CPU time (where, absent real disks, buffering's extra sort
//! actually *loses*; its entire advantage is the amortised random I/O).
//! This module is the honest version of the tradeoff the paper refuses.
//!
//! [`flush`]: BufferedIndex::flush
//! [`SearchEngine`]: tks_core::engine::SearchEngine

use tks_core::merge::MergeAssignment;
use tks_postings::list::{ListError, ListStore};
use tks_postings::{DocId, TermId};
use tks_worm::StorageCache;

/// A buffered (and therefore untrustworthy) inverted index over the same
/// WORM posting-list store the real engine uses.
#[derive(Debug)]
pub struct BufferedIndex {
    assignment: MergeAssignment,
    store: ListStore,
    /// Volatile buffer: postings not yet on WORM.
    buffer: Vec<(TermId, DocId, u32)>,
    flush_every: u64,
    docs_since_flush: u64,
    next_doc: DocId,
}

impl BufferedIndex {
    /// Create a buffered index that flushes every `flush_every` documents
    /// (the paper cites systems needing >100,000 buffered documents to
    /// reach 2 docs/sec).
    pub fn new(
        assignment: MergeAssignment,
        block_size: usize,
        flush_every: u64,
    ) -> Result<Self, ListError> {
        assert!(flush_every >= 1);
        let num_lists = assignment.num_lists() as usize;
        Ok(Self {
            assignment,
            store: ListStore::new(block_size, num_lists)?,
            buffer: Vec::new(),
            flush_every,
            docs_since_flush: 0,
            next_doc: DocId(0),
        })
    }

    /// Add a document's postings.  Returns its ID.  The postings sit in
    /// volatile memory until the next flush — the vulnerability window.
    pub fn add_document_terms(
        &mut self,
        terms: &[(TermId, u32)],
        cache: Option<&mut StorageCache>,
    ) -> Result<DocId, ListError> {
        let doc = self.next_doc;
        self.next_doc = doc.next();
        for &(t, tf) in terms {
            self.buffer.push((t, doc, tf));
        }
        self.docs_since_flush += 1;
        if self.docs_since_flush >= self.flush_every {
            self.flush(cache)?;
        }
        Ok(doc)
    }

    /// Merge the buffer into the WORM store (batched, sorted by list then
    /// doc — the amortisation that makes buffering fast).
    pub fn flush(&mut self, mut cache: Option<&mut StorageCache>) -> Result<(), ListError> {
        let mut batch = std::mem::take(&mut self.buffer);
        batch.sort_by_key(|&(t, d, _)| (self.assignment.list_of(t), d));
        for (t, d, tf) in batch {
            let list = self.assignment.list_of(t);
            // This module IS the rejected baseline: buffered maintenance
            // has no commit points, so there is no chain to feed; its
            // whole purpose is to demonstrate the attacks that
            // discipline prevents.
            self.store.append(list, t, d, tf, cache.as_deref_mut())?;
        }
        self.docs_since_flush = 0;
        Ok(())
    }

    /// Postings currently exposed to the adversary (buffered, volatile).
    pub fn buffered_postings(&self) -> usize {
        self.buffer.len()
    }

    /// Documents whose IDs the index has handed out.
    pub fn num_docs(&self) -> u64 {
        self.next_doc.0
    }

    /// The durable store (for queries and audits).
    pub fn store(&self) -> &ListStore {
        &self.store
    }

    /// Documents for `term` visible to a searcher: durable postings plus
    /// whatever the (honest) process still holds in its buffer.
    pub fn search_term(&self, term: TermId) -> Result<Vec<DocId>, ListError> {
        let list = self.assignment.list_of(term);
        let mut docs: Vec<DocId> = self
            .store
            .postings_for_term(list, term)?
            .map(|p| p.doc)
            .collect();
        docs.extend(
            self.buffer
                .iter()
                .filter(|&&(t, ..)| t == term)
                .map(|&(_, d, _)| d),
        );
        docs.sort_unstable();
        docs.dedup();
        Ok(docs)
    }

    // ------------------------------------------------------------------
    // The §2.3 attacks.  Both are ordinary memory operations for a
    // superuser — no WORM semantics protect the buffer.
    // ------------------------------------------------------------------

    /// Mala scrubs every buffered posting of `victim` ("Mala can get rid
    /// of an index entry while it is still in the buffer").  Returns how
    /// many entries she removed.  *Silently succeeds.*
    pub fn adversary_scrub_buffered(&mut self, victim: DocId) -> usize {
        let before = self.buffer.len();
        self.buffer.retain(|&(_, d, _)| d != victim);
        before - self.buffer.len()
    }

    /// Mala crashes the application and deletes the recovery logs ("or
    /// crash the application and delete the recovery logs of uncommitted
    /// posting entries").  Everything buffered is gone; only the durable
    /// store survives.
    pub fn adversary_crash(self) -> ListStore {
        // The buffer is dropped here — that *is* the attack.
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tks_postings::ListId;
    use tks_worm::{CacheConfig, IoStats};

    fn doc(terms: &[u32]) -> Vec<(TermId, u32)> {
        terms.iter().map(|&t| (TermId(t), 1)).collect()
    }

    #[test]
    fn buffered_index_works_when_unattacked() {
        let mut idx = BufferedIndex::new(MergeAssignment::uniform(4), 64, 3).unwrap();
        let d0 = idx.add_document_terms(&doc(&[1, 2]), None).unwrap();
        let d1 = idx.add_document_terms(&doc(&[1]), None).unwrap();
        assert_eq!(idx.search_term(TermId(1)).unwrap(), vec![d0, d1]);
        // Third doc triggers the flush.
        let d2 = idx.add_document_terms(&doc(&[1]), None).unwrap();
        assert_eq!(idx.buffered_postings(), 0);
        assert_eq!(idx.search_term(TermId(1)).unwrap(), vec![d0, d1, d2]);
    }

    #[test]
    fn scrub_attack_silently_hides_a_buffered_document() {
        let mut idx = BufferedIndex::new(MergeAssignment::uniform(4), 64, 100).unwrap();
        let _other = idx.add_document_terms(&doc(&[1]), None).unwrap();
        let victim = idx.add_document_terms(&doc(&[1, 2, 3]), None).unwrap();
        assert!(idx.search_term(TermId(2)).unwrap().contains(&victim));
        // The attack: ordinary memory writes, no tamper evidence anywhere.
        let scrubbed = idx.adversary_scrub_buffered(victim);
        assert_eq!(scrubbed, 3);
        idx.flush(None).unwrap();
        assert!(!idx.search_term(TermId(2)).unwrap().contains(&victim));
        // Nothing in the durable store betrays the scrub.
        for l in 0..4u32 {
            assert_eq!(idx.store().audit_monotonic(ListId(l)).unwrap(), None);
        }
    }

    #[test]
    fn crash_attack_loses_every_buffered_posting() {
        let mut idx = BufferedIndex::new(MergeAssignment::uniform(4), 64, 1_000).unwrap();
        for i in 0..50u32 {
            idx.add_document_terms(&doc(&[i % 7]), None).unwrap();
        }
        assert_eq!(idx.buffered_postings(), 50);
        let store = idx.adversary_crash();
        // The durable store is empty and — crucially — *consistent*: no
        // audit can tell that 50 documents were ever indexed.
        for l in 0..4u32 {
            assert_eq!(store.len(ListId(l)).unwrap(), 0);
            assert_eq!(store.audit_monotonic(ListId(l)).unwrap(), None);
        }
    }

    #[test]
    fn buffering_really_is_cheaper_per_insert() {
        // The honest tradeoff: batched flushes cost fewer I/Os than
        // per-document real-time appends at the same (tiny) cache — the
        // performance carrot the paper declines for trust reasons.
        let assignment = MergeAssignment::unmerged(512);
        let run = |flush_every: u64| -> IoStats {
            let mut cache = StorageCache::new(CacheConfig::new(4 * 64, 64));
            let mut idx = BufferedIndex::new(assignment.clone(), 64, flush_every).unwrap();
            for i in 0..200u32 {
                let terms: Vec<u32> = (0..8).map(|j| (i * 13 + j * 29) % 500).collect();
                let mut t = doc(&terms);
                t.sort_unstable_by_key(|&(t, _)| t);
                t.dedup_by_key(|&mut (t, _)| t);
                idx.add_document_terms(&t, Some(&mut cache)).unwrap();
            }
            idx.flush(Some(&mut cache)).unwrap();
            cache.stats()
        };
        let realtime = run(1);
        let buffered = run(100);
        assert!(
            buffered.total_ios() < realtime.total_ios(),
            "buffered {} vs realtime {}",
            buffered.total_ios(),
            realtime.total_ios()
        );
    }

    #[test]
    fn flush_preserves_per_list_monotonicity() {
        // Batch-sorted flushes never violate the store's invariants.
        let mut idx = BufferedIndex::new(MergeAssignment::uniform(2), 64, 7).unwrap();
        for i in 0..40u32 {
            idx.add_document_terms(&doc(&[i % 5, 5 + i % 3]), None)
                .unwrap();
        }
        idx.flush(None).unwrap();
        for l in 0..2u32 {
            assert_eq!(idx.store().audit_monotonic(ListId(l)).unwrap(), None);
        }
    }
}
