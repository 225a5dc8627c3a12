//! Concurrent query service: one writer, many readers.
//!
//! The paper's engine commits every index entry *inside* the insert call
//! (§2.3 real-time update), which makes the write path inherently serial —
//! but queries only ever take `&self`.  This module splits the two roles:
//!
//! * [`IndexWriter`] — the exclusive commit path.  It is deliberately not
//!   `Clone`: one writer exists per engine, matching the single
//!   append-only commit sequence of the WORM model.
//! * [`Searcher`] — a cheaply cloneable, `Send + Sync` read handle.  Any
//!   number of threads execute [`Query`]s through it concurrently with an
//!   active writer.
//!
//! Consistency model: the writer publishes a **document-count watermark**
//! after each commit.  A searcher executes against the
//! watermark it observes at call time, so a query sees a stable prefix of
//! the commit sequence — never a half-committed document, even though the
//! writer may be appending concurrently.  [`Searcher::pin`] freezes the
//! watermark for repeatable reads across several queries.
//!
//! I/O accounting is thread-safe: each [`QueryResponse`] carries its own
//! per-query [`IoStats`] delta, and the service accumulates them into a
//! shared [`AtomicIoStats`] readable without taking the engine lock.

use crate::engine::{SearchEngine, SearchError};
use crate::query::{Query, QueryResponse};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use tks_postings::{DocId, TermId, Timestamp};
use tks_worm::{AtomicIoStats, IoStats};

/// State shared between the writer and all searchers.
#[derive(Debug)]
struct Shared {
    engine: RwLock<SearchEngine>,
    /// Number of fully committed documents, published with `Release`
    /// ordering after the engine lock is dropped.
    watermark: AtomicU64,
    /// Aggregate I/O charged to the query path across all searchers.
    query_stats: AtomicIoStats,
}

/// Split an engine into its exclusive write handle and a shareable read
/// handle.
///
/// ```
/// use tks_core::engine::{EngineConfig, SearchEngine};
/// use tks_core::query::Query;
/// use tks_core::service::service;
/// use tks_postings::Timestamp;
///
/// let (mut writer, searcher) = service(SearchEngine::new(EngineConfig::default()).unwrap());
/// writer.commit("quarterly earnings restatement", Timestamp(100)).unwrap();
/// let resp = searcher.execute(Query::disjunctive("earnings", 10)).unwrap();
/// assert_eq!(resp.hits.len(), 1);
/// ```
pub fn service(engine: SearchEngine) -> (IndexWriter, Searcher) {
    let shared = Arc::new(Shared {
        watermark: AtomicU64::new(engine.num_docs()),
        engine: RwLock::new(engine),
        query_stats: AtomicIoStats::new(),
    });
    (
        IndexWriter {
            shared: Arc::clone(&shared),
        },
        Searcher {
            shared,
            pinned: None,
        },
    )
}

/// The exclusive real-time commit path (see module docs).
#[derive(Debug)]
pub struct IndexWriter {
    shared: Arc<Shared>,
}

impl IndexWriter {
    /// Commit one text document.  When this returns, the document and all
    /// of its index entries are durably on WORM *and* visible to every
    /// searcher.
    pub fn commit(&mut self, text: &str, ts: Timestamp) -> Result<DocId, SearchError> {
        self.commit_with(|engine| engine.add_document(text, ts))
    }

    /// Commit one pre-tokenised document (the synthetic-corpus path; see
    /// [`SearchEngine::add_document_terms`]).
    pub fn commit_terms(
        &mut self,
        terms: &[(TermId, u32)],
        ts: Timestamp,
        raw_text: Option<&str>,
    ) -> Result<DocId, SearchError> {
        self.commit_with(|engine| engine.add_document_terms(terms, ts, raw_text))
    }

    /// Run one exclusive operation against the engine and publish the new
    /// watermark afterwards.
    fn commit_with<R>(
        &mut self,
        op: impl FnOnce(&mut SearchEngine) -> Result<R, SearchError>,
    ) -> Result<R, SearchError> {
        let mut engine = self
            .shared
            .engine
            .write()
            .unwrap_or_else(|p| p.into_inner());
        let result = op(&mut engine);
        let visible = engine.num_docs();
        drop(engine);
        // Publish even on error.  A failed insert CAN leave partial WORM
        // state (torn-tail residue the engine quarantines behind the
        // commit point), but `num_docs()` only counts documents whose
        // DOCMETA record is whole, so the watermark stays truthful — and
        // an earlier operation may have advanced the count.
        self.shared.watermark.store(visible, Ordering::Release);
        result
    }

    /// Exclusive access to the engine for maintenance that is not a
    /// document commit (audits, attack harnesses, recovery drills).  The
    /// watermark is re-published afterwards.
    pub fn with_engine<R>(&mut self, f: impl FnOnce(&mut SearchEngine) -> R) -> R {
        let mut engine = self
            .shared
            .engine
            .write()
            .unwrap_or_else(|p| p.into_inner());
        let result = f(&mut engine);
        let visible = engine.num_docs();
        drop(engine);
        self.shared.watermark.store(visible, Ordering::Release);
        result
    }

    /// A new read handle onto the same engine.
    pub fn searcher(&self) -> Searcher {
        Searcher {
            shared: Arc::clone(&self.shared),
            pinned: None,
        }
    }

    /// Documents committed and visible so far.
    pub fn committed_docs(&self) -> u64 {
        self.shared.watermark.load(Ordering::Acquire)
    }

    /// Tear the service down and return the engine, if no searcher
    /// handles remain.  Otherwise `Err(self)` (the searchers would be
    /// left dangling).
    // audit:allow(error-taxonomy) — try_unwrap idiom: Err hands `self` back.
    pub fn try_into_engine(self) -> Result<SearchEngine, IndexWriter> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared
                .engine
                .into_inner()
                .unwrap_or_else(|p| p.into_inner())),
            Err(shared) => Err(IndexWriter { shared }),
        }
    }
}

/// A shareable, `Send + Sync` read handle (see module docs).
///
/// Cloning is cheap (one `Arc` bump).  All methods take `&self`.
#[derive(Debug, Clone)]
pub struct Searcher {
    shared: Arc<Shared>,
    /// `Some(w)` = snapshot handle pinned at watermark `w`.
    pinned: Option<u64>,
}

impl Searcher {
    /// Execute one query against the currently visible snapshot (or the
    /// pinned one, for handles from [`pin`](Self::pin)).
    pub fn execute(&self, query: Query) -> Result<QueryResponse, SearchError> {
        let visible = self
            .pinned
            .unwrap_or_else(|| self.shared.watermark.load(Ordering::Acquire));
        let engine = self.read_engine();
        let response = engine.execute_bounded(&query, visible)?;
        drop(engine);
        self.shared.query_stats.record(response.io);
        Ok(response)
    }

    /// A handle pinned to the snapshot visible right now: every query
    /// through it sees exactly the documents committed at this moment,
    /// regardless of later writer progress (repeatable reads).
    pub fn pin(&self) -> Searcher {
        Searcher {
            shared: Arc::clone(&self.shared),
            pinned: Some(self.visible_docs()),
        }
    }

    /// The watermark this handle executes against.
    pub fn visible_docs(&self) -> u64 {
        self.pinned
            .unwrap_or_else(|| self.shared.watermark.load(Ordering::Acquire))
    }

    /// Aggregate I/O charged to the query path across *all* searchers of
    /// this service (lock-free).
    pub fn query_io_stats(&self) -> IoStats {
        self.shared.query_stats.snapshot()
    }

    /// Counters of the decoded-block LRU shared by every searcher of this
    /// service (briefly takes the engine read lock).  The cache sits above
    /// the WORM storage cache, so its hits are block decodes avoided —
    /// they never change query results or reported block counts.
    pub fn decoded_cache_stats(&self) -> tks_postings::DecodedCacheStats {
        self.read_engine().decoded_cache_stats()
    }

    /// Run a full audit against the live engine (takes the read lock).
    pub fn audit(&self) -> crate::engine::AuditReport {
        self.read_engine().audit()
    }

    /// Read-only access to the engine for inspection helpers that need
    /// more than [`execute`](Self::execute) (e.g. document text lookups).
    /// Holding the guard blocks the writer; keep it short.
    pub fn engine(&self) -> RwLockReadGuard<'_, SearchEngine> {
        self.read_engine()
    }

    fn read_engine(&self) -> RwLockReadGuard<'_, SearchEngine> {
        self.shared.engine.read().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::merge::MergeAssignment;

    fn small_service() -> (IndexWriter, Searcher) {
        service(
            SearchEngine::new(EngineConfig {
                assignment: MergeAssignment::uniform(8),
                block_size: 512,
                cache_bytes: 1 << 20,
                ..Default::default()
            })
            .unwrap(),
        )
    }

    #[test]
    fn searcher_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Searcher>();
        assert_send_sync::<IndexWriter>();
    }

    #[test]
    fn commits_become_visible_to_existing_searchers() {
        let (mut writer, searcher) = small_service();
        assert_eq!(searcher.visible_docs(), 0);
        let d0 = writer.commit("alpha beta", Timestamp(1)).unwrap();
        assert_eq!(searcher.visible_docs(), 1);
        let resp = searcher.execute(Query::disjunctive("alpha", 10)).unwrap();
        assert_eq!(resp.docs(), vec![d0]);
        assert!(resp.trusted);
    }

    #[test]
    fn pinned_searcher_ignores_later_commits() {
        let (mut writer, searcher) = small_service();
        writer.commit("alpha", Timestamp(1)).unwrap();
        let pinned = searcher.pin();
        writer.commit("alpha again", Timestamp(2)).unwrap();
        let live = searcher.execute(Query::disjunctive("alpha", 10)).unwrap();
        let old = pinned.execute(Query::disjunctive("alpha", 10)).unwrap();
        assert_eq!(live.hits.len(), 2);
        assert_eq!(old.hits.len(), 1);
        assert_eq!(old.visible_docs, 1);
        // A fresh pin of the live handle sees everything again.
        assert_eq!(pinned.pin().visible_docs(), 1);
        assert_eq!(searcher.pin().visible_docs(), 2);
    }

    #[test]
    fn query_io_accumulates_across_searchers() {
        let (mut writer, searcher) = small_service();
        for i in 0..50u64 {
            writer
                .commit(&format!("common word{i}"), Timestamp(i))
                .unwrap();
        }
        let other = searcher.clone();
        let a = searcher.execute(Query::conjunctive("common")).unwrap();
        let b = other.execute(Query::conjunctive("common")).unwrap();
        assert!(a.blocks_read > 0);
        assert_eq!(
            searcher.query_io_stats().read_ios,
            a.io.read_ios + b.io.read_ios
        );
    }

    #[test]
    fn decoded_cache_is_shared_across_searchers() {
        let (mut writer, searcher) = small_service();
        for i in 0..50u64 {
            writer
                .commit(&format!("common word{i}"), Timestamp(i))
                .unwrap();
        }
        let other = searcher.clone();
        let a = searcher.execute(Query::conjunctive("common")).unwrap();
        let b = other.execute(Query::conjunctive("common")).unwrap();
        assert_eq!(a.docs(), b.docs());
        let stats = searcher.decoded_cache_stats();
        assert!(stats.misses > 0, "first scan decodes blocks");
        assert!(
            stats.hits > 0,
            "the second searcher must reuse the first's decoded blocks"
        );
        assert_eq!(stats, other.decoded_cache_stats());
    }

    #[test]
    fn try_into_engine_requires_sole_ownership() {
        let (writer, searcher) = small_service();
        let writer = writer.try_into_engine().unwrap_err();
        drop(searcher);
        let engine = writer.try_into_engine().unwrap();
        assert_eq!(engine.num_docs(), 0);
    }
}
