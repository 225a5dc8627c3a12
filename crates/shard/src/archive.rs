//! The sharded archive: per-shard engines, per-shard crash recovery,
//! and explicit degraded-shard isolation.
//!
//! Each shard is a complete [`SearchEngine`] with its own WORM devices.
//! [`ShardedArchive::recover`] runs the engine's crash recovery on every
//! shard independently; a shard whose recovery fails (interior damage —
//! real tamper evidence, not a torn tail) is **isolated** into a
//! degraded state with the typed error preserved as its reason, instead
//! of failing the whole archive.  The healthy shards keep serving, and
//! every query response names the shards it could not consult — a
//! regulator sees exactly what is missing, and a torn commit on one
//! shard can never flip the `trusted` verdict of results from another.

use crate::error::ShardError;
use crate::router::ShardRouter;
use crate::service::{ReplicaReader, ShardedSearcher, ShardedWriter, WriterSlot};
use tks_core::engine::EngineParts;
use tks_core::{EngineConfig, RecoveryReport, SearchEngine};
use tks_replica::ReplicaVerdict;

/// One shard's state inside the archive (the engine is boxed: a
/// degraded shard's reason should not cost a whole engine's footprint
/// per slot).
enum ShardState {
    Live(Box<SearchEngine>),
    Degraded(String),
}

/// What per-shard crash recovery found on one shard.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// The shard id.
    pub shard: u32,
    /// Torn-commit residue quarantined on this shard, in bytes.
    pub quarantined_bytes: u64,
    /// The engine's recovery report (`None` when recovery refused).
    pub report: Option<RecoveryReport>,
    /// The typed recovery error, rendered (`Some` ⇔ the shard is
    /// degraded).
    pub error: Option<String>,
    /// `Some(r)` when replica `r` was promoted over this shard's primary
    /// (replicated recovery only).
    pub promoted_from: Option<usize>,
    /// Per-replica recovery verdicts (replicated recovery only).
    pub replicas: Vec<ReplicaVerdict>,
}

impl ShardRecovery {
    /// Recovery succeeded with nothing to quarantine.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.quarantined_bytes == 0
    }
}

/// A set of hash-partitioned WORM shards behind one router.
pub struct ShardedArchive {
    config: EngineConfig,
    router: ShardRouter,
    states: Vec<ShardState>,
    /// Per-shard verified standby engines (replicated recovery only):
    /// replicas whose recovered trust state exactly matched the shard's
    /// chosen engine.  Consumed by [`into_service`](Self::into_service)
    /// as read-scaling standbys, or taken whole by
    /// [`take_standbys`](Self::take_standbys) for write-path
    /// re-replication.
    standbys: Vec<Vec<(usize, Box<SearchEngine>)>>,
}

/// One shard's images for replicated recovery: the primary's devices
/// plus any number of replica images (a candidate whose devices could
/// not be loaded arrives as `Err(reason)`).
pub struct ReplicatedShardParts {
    /// The primary's devices (or why they could not be loaded).
    pub primary: Result<EngineParts, String>,
    /// Replica images, in replica order.
    pub replicas: Vec<Result<EngineParts, String>>,
}

impl ShardedArchive {
    /// Create a fresh archive of `shards` empty engines, each configured
    /// with its own copy of `config`.
    pub fn create(config: EngineConfig, shards: u32) -> Result<Self, ShardError> {
        // Refuse an impossible shard count before building that many engines.
        ShardRouter::new(shards)?;
        let engines = (0..shards)
            .map(|_| SearchEngine::new(config.clone()))
            .collect::<Result<_, _>>()
            .map_err(|e| ShardError::Config(e.to_string()))?;
        Self::from_engines(engines)
    }

    /// Assemble an archive from pre-built engines (shard id = position).
    /// All engines must share the archive's configuration; the first
    /// engine's is taken as canonical.
    pub fn from_engines(engines: Vec<SearchEngine>) -> Result<Self, ShardError> {
        let router = ShardRouter::new(engines.len() as u32)?;
        let config = match engines.first() {
            Some(e) => e.config().clone(),
            None => return Err(ShardError::Config("an archive needs ≥ 1 shard".to_string())),
        };
        let states: Vec<ShardState> = engines
            .into_iter()
            .map(|e| ShardState::Live(Box::new(e)))
            .collect();
        let standbys = (0..states.len()).map(|_| Vec::new()).collect();
        Ok(ShardedArchive {
            config,
            router,
            states,
            standbys,
        })
    }

    /// Recover every shard from its raw WORM devices (shard id =
    /// position in `parts`).
    ///
    /// Torn tails are quarantined per shard exactly as in the unsharded
    /// engine.  A shard whose recovery **fails** — interior damage, i.e.
    /// genuine tamper evidence — is isolated as degraded rather than
    /// failing the archive: the error is preserved in the returned
    /// [`ShardRecovery`] and in every future response's shard status.
    /// Callers that simulated a crash must run the per-device reboot
    /// steps (`disarm_faults`/`crash_recover`) before calling this.
    pub fn recover(
        parts: Vec<EngineParts>,
        config: EngineConfig,
    ) -> Result<(Self, Vec<ShardRecovery>), ShardError> {
        let unreplicated = |primary| ReplicatedShardParts {
            primary: Ok(primary),
            replicas: Vec::new(),
        };
        Self::recover_replicated(parts.into_iter().map(unreplicated).collect(), config)
    }

    /// Recover an archive whose shards each arrive as a primary image
    /// plus any number of replica images (none for an unreplicated
    /// archive).  Per-shard recovery may **promote** a replica over the
    /// primary (see [`tks_replica::recover_shard`] for the rule: longest
    /// verified chain prefix wins; a replica is never promoted over a
    /// primary that recovered more documents).  A shard only degrades
    /// when *no* candidate — primary or replica — recovers.
    ///
    /// Replicas that recover with the chosen engine's exact trust state
    /// become read-scaling standbys (see
    /// [`into_service`](Self::into_service)); each shard's
    /// [`ShardRecovery`] reports the per-replica verdicts and the
    /// promotion, if one happened.
    pub fn recover_replicated(
        shards: Vec<ReplicatedShardParts>,
        config: EngineConfig,
    ) -> Result<(Self, Vec<ShardRecovery>), ShardError> {
        let router = ShardRouter::new(shards.len() as u32)?;
        let mut states = Vec::with_capacity(shards.len());
        let mut standbys = Vec::with_capacity(shards.len());
        let mut recoveries = Vec::with_capacity(shards.len());
        for (sid, shard_parts) in shards.into_iter().enumerate() {
            let outcome =
                tks_replica::recover_shard(shard_parts.primary, shard_parts.replicas, &config);
            let report = outcome.engine.as_ref().map(|e| e.recovery_report().clone());
            let state = match outcome.engine {
                Some(engine) => ShardState::Live(engine),
                None => ShardState::Degraded(
                    outcome
                        .degraded_reason
                        .unwrap_or_else(|| "no recoverable image".to_string()),
                ),
            };
            recoveries.push(ShardRecovery {
                shard: sid as u32,
                quarantined_bytes: report
                    .as_ref()
                    .map_or(0, RecoveryReport::total_quarantined_bytes),
                report,
                error: match &state {
                    ShardState::Live(_) => None,
                    ShardState::Degraded(reason) => Some(reason.clone()),
                },
                promoted_from: outcome.promoted_from,
                replicas: outcome.replicas,
            });
            states.push(state);
            standbys.push(outcome.standbys);
        }
        Ok((
            ShardedArchive {
                config,
                router,
                states,
                standbys,
            },
            recoveries,
        ))
    }

    /// Take the per-shard standby engines out of the archive (leaving it
    /// standby-less).  Write-path callers re-seed a live
    /// [`tks_replica::ReplicaSet`] from these engines' devices instead
    /// of serving reads from them.
    pub fn take_standbys(&mut self) -> Vec<Vec<(usize, Box<SearchEngine>)>> {
        let n = self.states.len();
        std::mem::replace(&mut self.standbys, (0..n).map(|_| Vec::new()).collect())
    }

    /// Per-shard standby counts (replica engines that will serve reads).
    pub fn standby_counts(&self) -> Vec<usize> {
        self.standbys.iter().map(Vec::len).collect()
    }

    /// The archive's per-shard engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of shards (healthy or degraded).
    pub fn shards(&self) -> u32 {
        self.router.shards()
    }

    /// The archive's router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// One shard's engine (`None` when degraded or out of range).
    pub fn engine(&self, shard: u32) -> Option<&SearchEngine> {
        match self.states.get(shard as usize) {
            Some(ShardState::Live(e)) => Some(e.as_ref()),
            _ => None,
        }
    }

    /// Total documents across healthy shards.
    pub fn num_docs(&self) -> u64 {
        self.states
            .iter()
            .map(|s| match s {
                ShardState::Live(e) => e.num_docs(),
                ShardState::Degraded(_) => 0,
            })
            .sum()
    }

    /// Degraded shards, with reasons.
    pub fn degraded(&self) -> Vec<(u32, &str)> {
        self.states
            .iter()
            .enumerate()
            .filter_map(|(s, state)| match state {
                ShardState::Live(_) => None,
                ShardState::Degraded(reason) => Some((s as u32, reason.as_str())),
            })
            .collect()
    }

    /// Split the archive into its reader/writer service: a
    /// [`ShardedWriter`] owning one per-shard writer per healthy shard,
    /// and a [`ShardedSearcher`] over the matching snapshots.
    pub fn into_service(self) -> (ShardedWriter, ShardedSearcher) {
        let mut standbys = self.standbys;
        standbys.resize_with(self.states.len(), Vec::new);
        let mut readers = Vec::with_capacity(self.states.len());
        let slots = self
            .states
            .into_iter()
            .zip(standbys)
            .map(|(state, sbs)| match state {
                ShardState::Live(engine) => {
                    readers.push(
                        sbs.into_iter()
                            .map(|(_, e)| ReplicaReader::from_engine(*e))
                            .collect(),
                    );
                    WriterSlot::Live(tks_core::service(*engine).0)
                }
                ShardState::Degraded(reason) => {
                    readers.push(Vec::new());
                    WriterSlot::Degraded(reason)
                }
            })
            .collect();
        let writer = ShardedWriter::from_slots(self.router, slots).with_replica_readers(readers);
        let searcher = writer.searcher();
        (writer, searcher)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::shard_of;
    use tks_core::{MergeAssignment, Query};
    use tks_postings::Timestamp;

    fn config() -> EngineConfig {
        EngineConfig {
            block_size: 64,
            cache_bytes: 1 << 16,
            assignment: MergeAssignment::uniform(4),
            positional: true,
            ..Default::default()
        }
    }

    const CORPUS: &[(&str, u64)] = &[
        ("alpha beta gamma", 100),
        ("beta delta", 101),
        ("gamma delta epsilon alpha", 102),
        ("alpha zeta beta", 103),
        ("beta epsilon zeta gamma alpha", 104),
        ("delta zeta", 105),
        ("epsilon alpha beta", 106),
        ("gamma zeta delta", 107),
    ];

    /// Scatter-gathered boolean results must equal an unsharded engine's
    /// on the same corpus, modulo the id mapping.
    #[test]
    fn sharded_results_match_unsharded_reference() {
        let mut reference = SearchEngine::new(config()).unwrap();
        for &(text, ts) in CORPUS {
            reference.add_document(text, Timestamp(ts)).unwrap();
        }

        let (mut writer, _) = ShardedArchive::create(config(), 3).unwrap().into_service();
        // Remember where each corpus position landed so reference local
        // ids can be translated into expected global ids.
        let mut globals = Vec::new();
        for &(text, ts) in CORPUS {
            let id = writer.commit(text, Timestamp(ts)).unwrap();
            assert_eq!(shard_of(id), writer.router().route_text(text));
            globals.push(id);
        }
        let searcher = writer.searcher();
        assert_eq!(searcher.visible_docs(), CORPUS.len() as u64);

        for query in [
            Query::conjunctive("beta"),
            Query::conjunctive("alpha beta"),
            Query::conjunctive("delta zeta"),
            Query::phrase("beta gamma"),
            Query::time_range(Timestamp(101), Timestamp(105)),
        ] {
            let want: Vec<_> = reference
                .execute(&query)
                .unwrap()
                .hits
                .iter()
                .map(|h| globals[h.doc.0 as usize])
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable_by_key(|d| d.0);
            let resp = searcher.execute(query.clone()).unwrap();
            assert_eq!(resp.docs(), want_sorted, "query {query:?}");
            assert!(resp.trusted);
            assert_eq!(resp.quarantined_bytes, 0);
            assert_eq!(resp.visible_docs, CORPUS.len() as u64);
            assert_eq!(resp.shards.len(), 3);
            assert!(resp.shards.iter().all(|s| s.consulted && s.trusted));
        }

        // Ranked disjunction: same hit *set* for a cutoff covering all
        // matches (scores are per-shard, so order may differ).
        let want: std::collections::BTreeSet<u64> = reference
            .execute(&Query::disjunctive("alpha epsilon", 10))
            .unwrap()
            .hits
            .iter()
            .map(|h| globals[h.doc.0 as usize].0)
            .collect();
        let resp = searcher
            .execute(Query::disjunctive("alpha epsilon", 10))
            .unwrap();
        let got: std::collections::BTreeSet<u64> = resp.hits.iter().map(|h| h.doc.0).collect();
        assert_eq!(got, want);
        // And top_k truncation holds after the cross-shard re-rank.
        let top2 = searcher
            .execute(Query::disjunctive("alpha epsilon", 2))
            .unwrap();
        assert_eq!(top2.hits.len(), 2);
    }

    #[test]
    fn session_freezes_the_watermark_vector() {
        let (mut writer, searcher) = ShardedArchive::create(config(), 2).unwrap().into_service();
        for &(text, ts) in &CORPUS[..4] {
            writer.commit(text, Timestamp(ts)).unwrap();
        }
        let session = crate::session::QuerySession::open(&writer.searcher());
        let vector = session.watermarks().to_vec();
        let hits_before = session.execute(Query::conjunctive("beta")).unwrap().hits;
        for &(text, ts) in &CORPUS[4..] {
            writer.commit(text, Timestamp(ts)).unwrap();
        }
        assert_eq!(
            session.watermarks(),
            vector,
            "a session must freeze every shard"
        );
        assert_eq!(
            session.execute(Query::conjunctive("beta")).unwrap().hits,
            hits_before,
            "session reads are repeatable"
        );
        // The live searcher moved on.
        assert_eq!(searcher.visible_docs(), CORPUS.len() as u64);
    }

    /// A shard with interior damage (not a torn tail) must be isolated:
    /// recovery degrades it, the rest of the archive keeps serving with
    /// `trusted == true`, and responses name the degraded shard.
    #[test]
    fn interior_damage_isolates_one_shard_and_spares_the_rest() {
        let mut engines: Vec<SearchEngine> = (0..3)
            .map(|_| SearchEngine::new(config()).unwrap())
            .collect();
        for (i, &(text, ts)) in CORPUS.iter().enumerate() {
            engines[i % 3].add_document(text, Timestamp(ts)).unwrap();
        }
        // Tamper with shard 1's posting store: misaligned garbage
        // followed by a whole posting — interior damage, not a tail.
        let victim = &mut engines[1];
        let f = victim.list_store().fs().open("lists/0").unwrap();
        victim
            .list_store_mut()
            .fs_mut()
            .append(f, &[0xFF, 0xFF])
            .unwrap();
        let whole = tks_postings::encode_posting(tks_postings::Posting {
            doc: tks_postings::DocId(9),
            term_tag: 0,
            tf: 1,
        });
        let f = victim.list_store().fs().open("lists/0").unwrap();
        victim.list_store_mut().fs_mut().append(f, &whole).unwrap();

        let parts: Vec<EngineParts> = engines.into_iter().map(|e| e.into_parts()).collect();
        let (archive, recoveries) = ShardedArchive::recover(parts, config()).unwrap();
        assert_eq!(archive.degraded().len(), 1);
        assert_eq!(archive.degraded()[0].0, 1);
        assert!(recoveries[0].error.is_none());
        assert!(recoveries[1].error.is_some(), "shard 1 must be refused");
        assert!(recoveries[2].error.is_none());

        let (mut writer, searcher) = archive.into_service();
        let resp = searcher.execute(Query::conjunctive("beta")).unwrap();
        assert!(
            resp.trusted,
            "healthy shards' verdict must not be tainted by shard 1"
        );
        let degraded = resp.degraded();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].shard, 1);
        assert!(degraded[0].degraded.is_some());
        // Writes routed to the degraded shard are refused with a typed
        // error; other shards still accept.
        let mut hit_degraded = false;
        for i in 0..50 {
            let text = format!("omega record {i}");
            let ts = Timestamp(1_000 + i);
            match writer.commit(&text, ts) {
                Ok(_) => {}
                Err(ShardError::Degraded { shard, .. }) => {
                    assert_eq!(shard, 1);
                    hit_degraded = true;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(hit_degraded, "hash routing never touched the dead shard");
    }

    /// Once `execute` has returned and the caller's searcher is gone, no
    /// scatter worker may still hold a shard handle: teardown must
    /// succeed every time, not only when the worker loses the race.
    #[test]
    fn teardown_right_after_execute_never_sees_a_live_handle() {
        let (mut writer, mut searcher) =
            ShardedArchive::create(config(), 3).unwrap().into_service();
        for &(text, ts) in CORPUS {
            writer.commit(text, Timestamp(ts)).unwrap();
        }
        for round in 0..300 {
            let resp = searcher.execute(Query::conjunctive("beta")).unwrap();
            assert_eq!(resp.hits.len(), 5);
            drop(searcher);
            let engines = writer
                .try_into_engines()
                .unwrap_or_else(|_| panic!("round {round}: a shard handle outlived execute"));
            let engines = engines.into_iter().flatten().collect();
            (writer, searcher) = ShardedArchive::from_engines(engines)
                .unwrap()
                .into_service();
        }
    }

    #[test]
    fn all_shards_degraded_is_a_typed_error() {
        let searcher = {
            let mut engine = SearchEngine::new(config()).unwrap();
            engine.add_document("alpha", Timestamp(1)).unwrap();
            let f = engine.list_store().fs().open("lists/0").unwrap();
            engine
                .list_store_mut()
                .fs_mut()
                .append(f, &[0xFF, 0xFF])
                .unwrap();
            let whole = tks_postings::encode_posting(tks_postings::Posting {
                doc: tks_postings::DocId(9),
                term_tag: 0,
                tf: 1,
            });
            let f = engine.list_store().fs().open("lists/0").unwrap();
            engine.list_store_mut().fs_mut().append(f, &whole).unwrap();
            let (archive, _) =
                ShardedArchive::recover(vec![engine.into_parts()], config()).unwrap();
            archive.into_service().1
        };
        match searcher.execute(Query::conjunctive("alpha")) {
            Err(ShardError::NoHealthyShards) => {}
            other => panic!("expected NoHealthyShards, got {other:?}"),
        }
    }
}
