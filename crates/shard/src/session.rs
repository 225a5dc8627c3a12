//! Snapshot-scoped query sessions over the sharded archive.
//!
//! A [`QuerySession`] unifies the snapshot/pin lifecycle behind one
//! handle: opening a session pins the live [`ShardedSearcher`] at a
//! consistent per-shard watermark vector, every query the session
//! executes sees exactly that frozen prefix, and [`refresh`]
//! re-pins at the current commit frontier when the caller wants to
//! observe newer documents.  Long-lived consumers (server connections,
//! interactive CLI loops) hold one session instead of re-snapshotting
//! per request, which keeps repeated reads repeatable *and* avoids the
//! per-query cost of deriving a fresh watermark vector.
//!
//! [`refresh`]: QuerySession::refresh

use tks_core::Query;

use crate::error::ShardError;
use crate::service::{DegradedShard, ShardedResponse, ShardedSearcher};

/// A pinned, repeatable-read view of the sharded archive.
///
/// The session owns two searchers: the **live** handle it was opened
/// from (whose snapshots advance as writers commit) and a **pinned**
/// derivative frozen at the watermark vector observed at open (or last
/// [`refresh`](Self::refresh)).  All query execution goes through the
/// pinned handle, so two identical queries inside one session always
/// agree even while ingest continues underneath.
///
/// ```no_run
/// # use tks_shard::{ShardedArchive, QuerySession};
/// # use tks_core::{EngineConfig, Query};
/// let (_writer, searcher) = ShardedArchive::create(EngineConfig::default(), 2)
///     .expect("create")
///     .into_service();
/// let mut session = QuerySession::open(&searcher);
/// let q = Query::disjunctive("audit", 10);
/// let first = session.execute(q.clone());
/// let again = session.execute(q); // same snapshot, same answer
/// session.refresh();              // advance to the current commit frontier
/// ```
pub struct QuerySession {
    live: ShardedSearcher,
    pinned: ShardedSearcher,
    watermarks: Vec<u64>,
}

impl QuerySession {
    /// Open a session pinned at `searcher`'s current watermark vector.
    pub fn open(searcher: &ShardedSearcher) -> QuerySession {
        let pinned = searcher.pin();
        let watermarks = pinned.watermarks();
        QuerySession {
            live: searcher.clone(),
            pinned,
            watermarks,
        }
    }

    /// Execute one query against the session's pinned snapshot.
    pub fn execute(&self, query: Query) -> Result<ShardedResponse, ShardError> {
        self.pinned.execute(query)
    }

    /// Re-pin at the live searcher's current commit frontier.
    ///
    /// Returns the new watermark vector.  Queries issued after a
    /// refresh see every document committed before the refresh; queries
    /// issued before it are unaffected.
    pub fn refresh(&mut self) -> &[u64] {
        self.pinned = self.live.pin();
        self.watermarks = self.pinned.watermarks();
        &self.watermarks
    }

    /// The per-shard watermark vector this session is pinned at
    /// (0 for degraded shards).
    pub fn watermarks(&self) -> &[u64] {
        &self.watermarks
    }

    /// Total documents visible to this session (sum of watermarks).
    pub fn visible_docs(&self) -> u64 {
        self.watermarks.iter().sum()
    }

    /// Shards this session cannot consult.
    pub fn degraded(&self) -> &[DegradedShard] {
        self.pinned.degraded()
    }

    /// The pinned searcher backing this session, for callers that need
    /// the lower-level API (e.g. per-shard inspection).
    pub fn searcher(&self) -> &ShardedSearcher {
        &self.pinned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ShardedArchive;
    use tks_core::EngineConfig;
    use tks_postings::Timestamp;

    fn query(text: &str) -> Query {
        Query::disjunctive(text, 100)
    }

    #[test]
    fn session_is_repeatable_while_writer_commits() {
        let (mut writer, searcher) = ShardedArchive::create(EngineConfig::default(), 2)
            .expect("create")
            .into_service();
        for i in 0..8 {
            writer
                .commit(&format!("alpha beta k{i}"), Timestamp(i))
                .expect("commit");
        }
        let mut session = QuerySession::open(&searcher);
        let before = session.execute(query("alpha")).expect("query");
        assert_eq!(before.hits.len(), 8);
        assert_eq!(session.visible_docs(), 8);

        for i in 8..12 {
            writer
                .commit(&format!("alpha gamma k{i}"), Timestamp(i))
                .expect("commit");
        }
        // Pinned: still sees exactly the snapshot from open().
        let during = session.execute(query("alpha")).expect("query");
        assert_eq!(during.hits.len(), 8, "session must be repeatable");

        // Refresh advances to the new frontier.
        let marks: Vec<u64> = session.refresh().to_vec();
        assert_eq!(marks.iter().sum::<u64>(), 12);
        let after = session.execute(query("alpha")).expect("query");
        assert_eq!(after.hits.len(), 12);
    }

    #[test]
    fn session_reports_degraded_shards() {
        let (_writer, searcher) = ShardedArchive::create(EngineConfig::default(), 2)
            .expect("create")
            .into_service();
        let session = QuerySession::open(&searcher);
        assert!(session.degraded().is_empty());
        assert_eq!(session.watermarks(), &[0, 0]);
    }
}
