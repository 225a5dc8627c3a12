//! The sharded reader/writer split: routed per-shard commits and
//! scatter-gather queries over per-shard snapshots.
//!
//! A [`ShardedWriter`] owns one [`IndexWriter`] per healthy shard and
//! routes every commit through the [`ShardRouter`]; a failure on one
//! shard never blocks or poisons the others.
//!
//! A [`ShardedSearcher`] holds one [`Searcher`] snapshot per healthy
//! shard.  A query is answered in two halves:
//! [`scatter`](ShardedSearcher::scatter) names the reader to consult on
//! each healthy shard, and [`gather`](ShardedSearcher::gather) merges the
//! per-shard [`QueryResponse`]s into a [`ShardedResponse`]: hits in the
//! global id namespace (ranked queries re-rank across shards; boolean
//! shapes stay in ascending global-id order), summed I/O, `trusted` = AND
//! over the shards consulted, and quarantined bytes both per shard and in
//! aggregate.  Degraded shards are never silently skipped: every response
//! lists them.  This crate starts no thread:
//! [`execute`](ShardedSearcher::execute) visits the shards one after
//! another on the calling thread, and a caller that owns a thread pool
//! (the network server) runs the per-shard executions between the two
//! halves itself.
//!
//! Timestamps: each shard's engine requires non-decreasing commit
//! timestamps.  Routing splits one input stream into per-shard
//! subsequences, so feeding the sharded writer a globally non-decreasing
//! stream preserves the invariant on every shard.

use crate::error::ShardError;
use crate::router::ShardRouter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tks_core::engine::SearchHit;
use tks_core::{IndexWriter, Query, QueryResponse, SearchEngine, SearchError, Searcher};
use tks_postings::{DecodedCacheStats, DocId, TermId, Timestamp};
use tks_worm::{ChainHead, IoStats};

/// A verified standby replica serving reads for one shard.
///
/// The reader holds a **pinned** snapshot of a replica engine whose
/// recovery-time trust state (watermark, chain head, quarantine count)
/// exactly matched the shard's primary.  It is only consulted while the
/// primary's visible watermark still equals the replica's — once the
/// primary commits past the snapshot, the replica silently drops out of
/// rotation rather than serve a stale (and chain-head-mismatched) view.
#[derive(Clone)]
pub struct ReplicaReader {
    searcher: Searcher,
    watermark: u64,
}

impl ReplicaReader {
    /// Wrap a recovered standby engine in a pinned read snapshot.
    pub(crate) fn from_engine(engine: SearchEngine) -> ReplicaReader {
        let (_writer, searcher) = tks_core::service(engine);
        let pinned = searcher.pin();
        ReplicaReader {
            watermark: pinned.visible_docs(),
            searcher: pinned,
        }
    }

    /// The snapshot watermark this replica serves at.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

/// A shard the archive can no longer serve: recovery refused it.
#[derive(Debug, Clone)]
pub struct DegradedShard {
    /// The shard id.
    pub shard: u32,
    /// The recovery error, rendered.
    pub reason: String,
}

/// One shard's writer slot: live, or explicitly out of service.
pub(crate) enum WriterSlot {
    Live(IndexWriter),
    Degraded(String),
}

/// Routes commits to per-shard [`IndexWriter`]s.
pub struct ShardedWriter {
    router: ShardRouter,
    slots: Vec<WriterSlot>,
    replicas: Arc<Vec<Vec<ReplicaReader>>>,
}

impl ShardedWriter {
    pub(crate) fn from_slots(router: ShardRouter, slots: Vec<WriterSlot>) -> Self {
        ShardedWriter {
            router,
            slots,
            replicas: Arc::new(Vec::new()),
        }
    }

    /// Attach per-shard standby readers (indexed by shard id) for
    /// searchers derived from this writer to round-robin over.
    pub(crate) fn with_replica_readers(mut self, readers: Vec<Vec<ReplicaReader>>) -> Self {
        self.replicas = Arc::new(readers);
        self
    }

    /// The router (for callers that need to know a document's shard
    /// before committing, e.g. to colocate related records).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards (healthy or degraded).
    pub fn shards(&self) -> u32 {
        self.router.shards()
    }

    /// Degraded shards, with reasons.
    pub fn degraded(&self) -> Vec<DegradedShard> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| match slot {
                WriterSlot::Live(_) => None,
                WriterSlot::Degraded(reason) => Some(DegradedShard {
                    shard: s as u32,
                    reason: reason.clone(),
                }),
            })
            .collect()
    }

    fn live_mut(&mut self, shard: u32) -> Result<&mut IndexWriter, ShardError> {
        let shards = self.router.shards();
        match self.slots.get_mut(shard as usize) {
            Some(WriterSlot::Live(w)) => Ok(w),
            Some(WriterSlot::Degraded(reason)) => Err(ShardError::Degraded {
                shard,
                reason: reason.clone(),
            }),
            None => Err(ShardError::UnknownShard { shard, shards }),
        }
    }

    /// Tokenize, route by text hash, commit to the owning shard, and
    /// return the document's **global** id.
    pub fn commit(&mut self, text: &str, ts: Timestamp) -> Result<DocId, ShardError> {
        self.commit_to(self.router.route_text(text), text, ts)
    }

    /// Commit to an explicit shard (callers that route by an external
    /// key should pass `router().route_key(key)`).
    pub fn commit_to(
        &mut self,
        shard: u32,
        text: &str,
        ts: Timestamp,
    ) -> Result<DocId, ShardError> {
        let router = self.router;
        let local = self
            .live_mut(shard)?
            .commit(text, ts)
            .map_err(|source| ShardError::Engine { shard, source })?;
        router.global_id(shard, local)
    }

    /// Commit a pre-tokenized document to an explicit shard.
    pub fn commit_terms_to(
        &mut self,
        shard: u32,
        terms: &[(TermId, u32)],
        ts: Timestamp,
        raw_text: Option<&str>,
    ) -> Result<DocId, ShardError> {
        let router = self.router;
        let local = self
            .live_mut(shard)?
            .commit_terms(terms, ts, raw_text)
            .map_err(|source| ShardError::Engine { shard, source })?;
        router.global_id(shard, local)
    }

    /// Total documents committed across live shards (degraded shards'
    /// documents are unreachable and not counted).
    pub fn committed_docs(&self) -> u64 {
        self.watermarks().iter().sum()
    }

    /// Per-shard committed-document watermarks (0 for degraded shards).
    pub fn watermarks(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|slot| match slot {
                WriterSlot::Live(w) => w.committed_docs(),
                WriterSlot::Degraded(_) => 0,
            })
            .collect()
    }

    /// A sharded searcher over the current per-shard snapshots.
    pub fn searcher(&self) -> ShardedSearcher {
        let degraded: Vec<DegradedShard> = self.degraded();
        ShardedSearcher {
            router: self.router,
            slots: self
                .slots
                .iter()
                .map(|slot| match slot {
                    WriterSlot::Live(w) => Some(w.searcher()),
                    WriterSlot::Degraded(_) => None,
                })
                .collect(),
            degraded: degraded.into(),
            replicas: Arc::clone(&self.replicas),
            rr: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Run `f` against one shard's engine (maintenance hooks, fault
    /// injection in tests).  The shard's searchers see the result.
    pub fn with_engine<R>(
        &mut self,
        shard: u32,
        f: impl FnOnce(&mut SearchEngine) -> R,
    ) -> Result<R, ShardError> {
        Ok(self.live_mut(shard)?.with_engine(f))
    }

    /// Tear the service down into per-shard engines (`None` for degraded
    /// shards), for persistence.  Fails like
    /// [`IndexWriter::try_into_engine`] if any shard still has other
    /// live handles; the writer is returned intact.
    // audit:allow(error-taxonomy) — the Err payload is the writer itself, handed back.
    pub fn try_into_engines(self) -> Result<Vec<Option<SearchEngine>>, ShardedWriter> {
        // The engine is boxed so a slot holding only a degraded reason
        // does not pay an engine-sized variant.
        enum Got {
            Engine(Box<SearchEngine>),
            Writer(IndexWriter),
            Degraded(String),
        }
        let router = self.router;
        let replicas = self.replicas;
        let mut failed = false;
        let got: Vec<Got> = self
            .slots
            .into_iter()
            .map(|slot| match slot {
                WriterSlot::Live(w) => match w.try_into_engine() {
                    Ok(e) => Got::Engine(Box::new(e)),
                    Err(w) => {
                        failed = true;
                        Got::Writer(w)
                    }
                },
                WriterSlot::Degraded(reason) => Got::Degraded(reason),
            })
            .collect();
        if failed {
            // Hand the writer back: re-wrap any engines already torn
            // down (their watermark re-derives from the document count).
            let slots = got
                .into_iter()
                .map(|g| match g {
                    Got::Engine(e) => WriterSlot::Live(tks_core::service(*e).0),
                    Got::Writer(w) => WriterSlot::Live(w),
                    Got::Degraded(reason) => WriterSlot::Degraded(reason),
                })
                .collect();
            return Err(ShardedWriter {
                router,
                slots,
                replicas,
            });
        }
        Ok(got
            .into_iter()
            .map(|g| match g {
                Got::Engine(e) => Some(*e),
                _ => None,
            })
            .collect())
    }
}

/// One shard's slice of a merged [`ShardedResponse`].
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// The shard id.
    pub shard: u32,
    /// Whether this execution consulted the shard (false ⇔ degraded).
    pub consulted: bool,
    /// The shard's snapshot watermark (0 if not consulted).
    pub visible_docs: u64,
    /// The shard's own trust verdict (false if not consulted).
    pub trusted: bool,
    /// Torn-commit residue quarantined on this shard, in bytes.
    pub quarantined_bytes: u64,
    /// The shard's commit-chain head at its snapshot watermark (genesis
    /// if not consulted).  A client holding per-shard heads out-of-band
    /// can verify each shard's slice of the response independently.
    pub chain_head: ChainHead,
    /// Why the shard was not consulted, when degraded.
    pub degraded: Option<String>,
}

/// A merged response from scatter-gathering one [`Query`].
///
/// Hits carry **global** document ids; ranked (disjunctive) queries are
/// re-ranked across shards and re-truncated to `top_k`, boolean shapes
/// are merged in ascending global-id order.  `trusted` is the AND over
/// the shards actually consulted — a degraded shard withholds data but
/// does not manufacture tamper evidence against the healthy shards;
/// `shards` names every shard and what it contributed, so an
/// investigator always sees *which* part of the archive answered.
#[derive(Debug, Clone)]
pub struct ShardedResponse {
    /// Matching documents under global ids.
    pub hits: Vec<SearchHit>,
    /// Total distinct index blocks read across shards.
    pub blocks_read: u64,
    /// Total index blocks skipped by block-max early termination across
    /// shards (consulted via cache-resident summaries, never read — not
    /// part of `blocks_read`).
    pub blocks_skipped: u64,
    /// Summed per-query I/O across shards.
    pub io: IoStats,
    /// Summed snapshot watermarks of the consulted shards.
    pub visible_docs: u64,
    /// AND of the consulted shards' trust verdicts.
    pub trusted: bool,
    /// Total quarantined torn-commit residue across consulted shards.
    pub quarantined_bytes: u64,
    /// Per-shard breakdown, indexed by shard id.
    pub shards: Vec<ShardStatus>,
}

impl ShardedResponse {
    /// Just the global document ids, in result order.
    pub fn docs(&self) -> Vec<DocId> {
        self.hits.iter().map(|h| h.doc).collect()
    }

    /// Shards that were not consulted (degraded), with reasons.
    pub fn degraded(&self) -> Vec<&ShardStatus> {
        self.shards.iter().filter(|s| !s.consulted).collect()
    }
}

/// Scatter-gather query execution over per-shard snapshots.
///
/// Cloning is cheap (per-shard handles are `Arc`-backed); a clone shares
/// snapshots with its source, and [`pin`](Self::pin) derives a searcher
/// whose per-shard watermark vector is frozen for repeatable reads.
#[derive(Clone)]
pub struct ShardedSearcher {
    router: ShardRouter,
    slots: Vec<Option<Searcher>>,
    degraded: Arc<[DegradedShard]>,
    /// Per-shard verified standby readers (indexed by shard id; empty
    /// for archives recovered without replicas).
    replicas: Arc<Vec<Vec<ReplicaReader>>>,
    /// Round-robin cursor over `primary + eligible replicas`, shared by
    /// clones so concurrent readers spread across the replica engines.
    rr: Arc<AtomicUsize>,
}

impl ShardedSearcher {
    /// The router, for mapping global ids back to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards (healthy or degraded).
    pub fn shards(&self) -> u32 {
        self.router.shards()
    }

    /// Degraded shards this searcher cannot consult.
    pub fn degraded(&self) -> &[DegradedShard] {
        &self.degraded
    }

    /// One shard's searcher (`None` when degraded or out of range).
    pub fn shard(&self, shard: u32) -> Option<&Searcher> {
        self.slots.get(shard as usize).and_then(|s| s.as_ref())
    }

    fn degraded_reason(&self, shard: u32) -> Option<String> {
        self.degraded
            .iter()
            .find(|d| d.shard == shard)
            .map(|d| d.reason.clone())
    }

    /// Standby readers currently eligible to serve one shard's reads:
    /// their pinned watermark equals the shard's visible watermark, so
    /// they return byte-identical responses with the same chain head.
    pub fn eligible_replicas(&self, shard: u32) -> usize {
        let Some(primary) = self.shard(shard) else {
            return 0;
        };
        let wm = primary.visible_docs();
        self.replicas
            .get(shard as usize)
            .map_or(0, |rs| rs.iter().filter(|r| r.watermark == wm).count())
    }

    /// Pick the reader serving this shard for one execution: the
    /// primary, or — round-robin — a verified standby whose snapshot
    /// watermark equals the primary's current visible watermark.  The
    /// verified-read invariant: a replica is only ever consulted at a
    /// watermark where recovery proved its chain head equal to the
    /// primary's, so substituting it cannot change any response field.
    fn route_read<'a>(&'a self, sid: usize, primary: &'a Searcher) -> &'a Searcher {
        let Some(candidates) = self.replicas.get(sid) else {
            return primary;
        };
        if candidates.is_empty() {
            return primary;
        }
        let wm = primary.visible_docs();
        let eligible: Vec<&ReplicaReader> =
            candidates.iter().filter(|r| r.watermark == wm).collect();
        if eligible.is_empty() {
            return primary;
        }
        let k = self.rr.fetch_add(1, Ordering::Relaxed) % (eligible.len() + 1);
        match k.checked_sub(1).and_then(|i| eligible.get(i)) {
            Some(r) => &r.searcher,
            None => primary,
        }
    }

    /// Answer `query` from every healthy shard: [`gather`](Self::gather)
    /// over [`scatter`](Self::scatter), the shards visited one after
    /// another on the calling thread.
    ///
    /// A typed error from any consulted shard fails the whole query:
    /// mid-query tamper evidence must never be downgraded into a
    /// silently smaller result set.  If *no* shard is healthy the query
    /// fails with [`ShardError::NoHealthyShards`].
    pub fn execute(&self, query: Query) -> Result<ShardedResponse, ShardError> {
        let answers = self
            .scatter()
            .into_iter()
            .map(|(shard, searcher)| (shard, searcher.execute(query.clone())))
            .collect();
        self.gather(&query, answers)
    }

    /// The first half of a query: the reader to consult on each healthy
    /// shard (the primary or, round-robin, a verified standby), in shard
    /// order.  A caller with its own threads executes the query on each
    /// reader wherever it likes and hands the answers to
    /// [`gather`](Self::gather).
    pub fn scatter(&self) -> Vec<(u32, &Searcher)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(sid, slot)| {
                let primary = slot.as_ref()?;
                Some((sid as u32, self.route_read(sid, primary)))
            })
            .collect()
    }

    /// The second half of a query: merge the per-shard `answers` to
    /// `query` (one per reader [`scatter`](Self::scatter) named, in any
    /// order) into one response under global ids.  When several shards
    /// failed, the lowest shard's error is the one reported.
    pub fn gather(
        &self,
        query: &Query,
        answers: Vec<(u32, Result<QueryResponse, SearchError>)>,
    ) -> Result<ShardedResponse, ShardError> {
        let n = self.slots.len();
        let mut gathered: Vec<Option<Result<QueryResponse, ShardError>>> =
            (0..n).map(|_| None).collect();
        for (shard, outcome) in answers {
            if let Some(cell) = gathered.get_mut(shard as usize) {
                *cell = Some(outcome.map_err(|source| ShardError::Engine { shard, source }));
            }
        }

        // The merged hit vector is sized once from the gathered
        // responses — per-shard result slices land in a single
        // allocation instead of regrowing the accumulator shard by shard.
        let gathered_hits: usize = gathered
            .iter()
            .map(|cell| match cell {
                Some(Ok(resp)) => resp.hits.len(),
                _ => 0,
            })
            .sum();
        let mut hits: Vec<SearchHit> = Vec::with_capacity(gathered_hits);
        let mut blocks_read = 0u64;
        let mut blocks_skipped = 0u64;
        let mut io = IoStats::default();
        let mut visible_docs = 0u64;
        // Identity element of the conjunction below: every consulted
        // shard's verdict is `&&`-ed in, so this `true` never survives
        // past a single untrusted shard.
        // audit:allow(trusted-conjunction)
        let mut trusted = true;
        let mut quarantined_bytes = 0u64;
        let mut shards = Vec::with_capacity(n);
        let mut consulted = 0u32;
        for (sid, cell) in gathered.into_iter().enumerate() {
            let shard = sid as u32;
            match cell {
                Some(Ok(resp)) => {
                    for h in &resp.hits {
                        hits.push(SearchHit {
                            doc: self.router.global_id(shard, h.doc)?,
                            score: h.score,
                        });
                    }
                    blocks_read += resp.blocks_read;
                    blocks_skipped += resp.blocks_skipped;
                    io += resp.io;
                    visible_docs += resp.visible_docs;
                    trusted &= resp.trusted;
                    quarantined_bytes += resp.quarantined_bytes;
                    consulted += 1;
                    shards.push(ShardStatus {
                        shard,
                        consulted: true,
                        visible_docs: resp.visible_docs,
                        trusted: resp.trusted,
                        quarantined_bytes: resp.quarantined_bytes,
                        chain_head: resp.chain_head,
                        degraded: None,
                    });
                }
                Some(Err(e)) => return Err(e),
                // A healthy shard left out of `answers` must fail the
                // query, not pass for a degraded one.
                None if self.shard(shard).is_some() => {
                    return Err(ShardError::Internal(format!(
                        "no answer gathered from healthy shard {shard}"
                    )))
                }
                None => shards.push(ShardStatus {
                    shard,
                    consulted: false,
                    visible_docs: 0,
                    trusted: false,
                    quarantined_bytes: 0,
                    chain_head: ChainHead::genesis(),
                    degraded: self.degraded_reason(shard),
                }),
            }
        }
        if consulted == 0 {
            return Err(ShardError::NoHealthyShards);
        }

        match query {
            Query::Disjunctive { top_k, .. } => {
                // Re-rank across shards.  Scores are per-shard (each
                // shard ranks against its own collection statistics);
                // ties break on global id for determinism.
                hits.sort_by(|a, b| {
                    b.score
                        .total_cmp(&a.score)
                        .then_with(|| a.doc.0.cmp(&b.doc.0))
                });
                hits.truncate(*top_k);
            }
            _ => hits.sort_by_key(|h| h.doc.0),
        }

        Ok(ShardedResponse {
            hits,
            blocks_read,
            blocks_skipped,
            io,
            visible_docs,
            trusted,
            quarantined_bytes,
            shards,
        })
    }

    /// A searcher pinned at a **consistent watermark vector**: every
    /// shard's snapshot is frozen at its current watermark, so repeated
    /// executions see identical per-shard prefixes even while writers
    /// keep committing.
    ///
    /// Crate-internal: the public path is
    /// [`QuerySession::open`](crate::session::QuerySession::open), which
    /// bundles the pin, its watermark vector, and batch execution behind
    /// one handle (and can
    /// [`refresh`](crate::session::QuerySession::refresh) in place).
    /// The long-deprecated public `pin()` was removed; sessions are the
    /// only supported way to hold a repeatable-read snapshot.
    pub(crate) fn pin(&self) -> ShardedSearcher {
        ShardedSearcher {
            router: self.router,
            slots: self
                .slots
                .iter()
                .map(|slot| slot.as_ref().map(Searcher::pin))
                .collect(),
            degraded: Arc::clone(&self.degraded),
            replicas: Arc::clone(&self.replicas),
            rr: Arc::clone(&self.rr),
        }
    }

    /// Sum of the per-shard snapshot watermarks.
    pub fn visible_docs(&self) -> u64 {
        self.watermarks().iter().sum()
    }

    /// The per-shard watermark vector (0 for degraded shards).
    pub fn watermarks(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|slot| slot.as_ref().map_or(0, Searcher::visible_docs))
            .collect()
    }

    /// Summed per-query I/O across live shards.
    pub fn query_io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for slot in self.slots.iter().flatten() {
            total += slot.query_io_stats();
        }
        total
    }

    /// Field-wise sum of the per-shard decoded-block cache statistics.
    pub fn decoded_cache_stats(&self) -> DecodedCacheStats {
        let mut total = DecodedCacheStats::default();
        for slot in self.slots.iter().flatten() {
            let s = slot.decoded_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.resident += s.resident;
        }
        total
    }
}
