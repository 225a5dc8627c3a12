//! Failover: recovering a shard from its primary *and* replica images,
//! promoting a replica when it preserves more verified history.
//!
//! [`recover_shard`] recovers every candidate image through the ordinary
//! [`SearchEngine::recover`] path (quarantine scan, chain
//! re-verification, tamper audit) and then chooses:
//!
//! * the **primary**, unless a verified replica strictly beats it;
//! * the verified replica with the longest verified chain prefix
//!   (highest watermark, then fewest quarantined bytes, then lowest
//!   index) when the primary failed outright, recovered fewer
//!   documents, quarantined more bytes at the same watermark, or failed
//!   chain verification that the replica passes.
//!
//! A replica is **verified** iff it recovered cleanly and its re-derived
//! commit chain matches its persisted chain head — an unverified prefix
//! is never promoted, and never consulted for reads.  Replicas that
//! match the chosen engine's exact trust state (same watermark, chain
//! head, quarantine count) are returned as **standbys** for read
//! scaling; anything else is reported in the verdicts and dropped.

use tks_core::engine::EngineParts;
use tks_core::{EngineConfig, SearchEngine};
use tks_worm::ChainHead;

/// What recovery concluded about one replica image.
#[derive(Debug, Clone)]
pub struct ReplicaVerdict {
    /// The replica's index.
    pub replica: usize,
    /// Documents the replica recovered (0 if it failed).
    pub watermark: u64,
    /// The replica's recovered chain head (None if it failed).
    pub chain_head: Option<ChainHead>,
    /// Bytes quarantined while recovering the replica.
    pub quarantined_bytes: u64,
    /// Whether the replica recovered with its chain verifying end to
    /// end (the precondition for promotion or standby reads).
    pub verified: bool,
    /// Why the replica is unusable, when it is (device error, chain
    /// mismatch, …).
    pub error: Option<String>,
}

/// The result of recovering one shard from primary + replicas.
#[derive(Debug)]
pub struct FailoverOutcome {
    /// The recovered engine serving the shard (None ⇒ the shard is
    /// degraded: every candidate failed).
    pub engine: Option<Box<SearchEngine>>,
    /// `Some(r)` when replica `r` was promoted over the primary.
    pub promoted_from: Option<usize>,
    /// Why the shard is degraded, when it is.
    pub degraded_reason: Option<String>,
    /// Bytes the primary quarantined (0 if it failed to recover).
    pub primary_quarantined: u64,
    /// The primary's recovery error, if it failed outright.
    pub primary_error: Option<String>,
    /// Per-replica recovery verdicts, in replica order.
    pub replicas: Vec<ReplicaVerdict>,
    /// Verified replicas (index + engine) whose trust state exactly
    /// matches the chosen engine's — safe to serve reads.
    pub standbys: Vec<(usize, Box<SearchEngine>)>,
}

/// One recovered candidate's promotion-relevant stats.
struct Recovered {
    engine: Box<SearchEngine>,
    watermark: u64,
    quarantined: u64,
    verified: bool,
}

fn recover_candidate(
    parts: Result<EngineParts, String>,
    config: &EngineConfig,
) -> Result<Recovered, String> {
    let parts = parts?;
    let engine = SearchEngine::recover(parts, config.clone()).map_err(|e| e.to_string())?;
    let watermark = engine.num_docs();
    let quarantined = engine.quarantined_bytes();
    let verified = engine.chain_mismatch().is_none();
    Ok(Recovered {
        engine: Box::new(engine),
        watermark,
        quarantined,
        verified,
    })
}

/// Recover a shard from its primary image and any number of replica
/// images, promoting a replica when it verifiably preserves more (see
/// module docs for the promotion rule).
///
/// Callers prepare each candidate's devices exactly as they would for a
/// non-replicated recovery (crash-recover the WORM file systems first);
/// a candidate whose preparation already failed is passed as `Err` with
/// the reason.
pub fn recover_shard(
    primary: Result<EngineParts, String>,
    replicas: Vec<Result<EngineParts, String>>,
    config: &EngineConfig,
) -> FailoverOutcome {
    let primary = recover_candidate(primary, config);
    let mut verdicts = Vec::new();
    let mut recovered: Vec<Option<Recovered>> = Vec::new();
    for (i, parts) in replicas.into_iter().enumerate() {
        match recover_candidate(parts, config) {
            Ok(r) => {
                verdicts.push(ReplicaVerdict {
                    replica: i,
                    watermark: r.watermark,
                    chain_head: Some(r.engine.chain_head()),
                    quarantined_bytes: r.quarantined,
                    verified: r.verified,
                    error: r
                        .engine
                        .chain_mismatch()
                        .map(|m| format!("chain mismatch: {m}")),
                });
                recovered.push(Some(r));
            }
            Err(e) => {
                verdicts.push(ReplicaVerdict {
                    replica: i,
                    watermark: 0,
                    chain_head: None,
                    quarantined_bytes: 0,
                    verified: false,
                    error: Some(e),
                });
                recovered.push(None);
            }
        }
    }

    let (primary, primary_error, primary_quarantined) = match primary {
        Ok(p) => {
            let q = p.quarantined;
            (Some(p), None, q)
        }
        Err(e) => (None, Some(e), 0),
    };

    // Best verified replica: longest verified prefix, then least
    // quarantine, then lowest index (stable — max_by_key keeps the last
    // maximum, so order the key to prefer earlier replicas on ties).
    let best = recovered
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
        .filter(|(_, r)| r.verified)
        .max_by(|(ia, a), (ib, b)| {
            (
                a.watermark,
                std::cmp::Reverse(a.quarantined),
                std::cmp::Reverse(*ia),
            )
                .cmp(&(
                    b.watermark,
                    std::cmp::Reverse(b.quarantined),
                    std::cmp::Reverse(*ib),
                ))
        })
        .map(|(i, _)| i);

    // Does the best verified replica strictly beat the primary?
    let promote = match (&primary, best) {
        (_, None) => None,
        (None, Some(b)) => Some(b),
        (Some(p), Some(b)) => {
            let r = match recovered.get(b).and_then(|r| r.as_ref()) {
                Some(r) => r,
                None => return degraded_internal(verdicts, primary_error, primary_quarantined),
            };
            let beats = r.watermark > p.watermark
                || (r.watermark == p.watermark && r.quarantined < p.quarantined)
                || (r.watermark == p.watermark && !p.verified && r.verified);
            if beats {
                Some(b)
            } else {
                None
            }
        }
    };

    let (engine, promoted_from) = match promote {
        Some(b) => match recovered.get_mut(b).and_then(|r| r.take()) {
            Some(r) => (Some(r.engine), Some(b)),
            None => (None, None),
        },
        None => (primary.map(|p| p.engine), None),
    };

    let degraded_reason = if engine.is_none() {
        Some(match &primary_error {
            // No replica was considered (an unreplicated shard): the
            // engine's own error is the whole story.
            Some(e) if verdicts.is_empty() => e.clone(),
            Some(e) => format!("primary: {e}; no verified replica to promote"),
            None => "no recoverable image".to_string(),
        })
    } else {
        None
    };

    // Standby selection: identical trust state ⇒ identical responses.
    let mut standbys = Vec::new();
    if let Some(chosen) = engine.as_deref() {
        if chosen.chain_mismatch().is_none() {
            for (i, slot) in recovered.iter_mut().enumerate() {
                let keep = match slot.as_ref() {
                    Some(r) => {
                        r.verified
                            && r.watermark == chosen.num_docs()
                            && r.quarantined == chosen.quarantined_bytes()
                            && r.engine.chain_head() == chosen.chain_head()
                            && r.engine.tamper_logs_clean() == chosen.tamper_logs_clean()
                    }
                    None => false,
                };
                if keep {
                    if let Some(r) = slot.take() {
                        standbys.push((i, r.engine));
                    }
                }
            }
        }
    }

    FailoverOutcome {
        engine,
        promoted_from,
        degraded_reason,
        primary_quarantined,
        primary_error,
        replicas: verdicts,
        standbys,
    }
}

fn degraded_internal(
    verdicts: Vec<ReplicaVerdict>,
    primary_error: Option<String>,
    primary_quarantined: u64,
) -> FailoverOutcome {
    FailoverOutcome {
        engine: None,
        promoted_from: None,
        degraded_reason: Some("internal: promoted replica unavailable".to_string()),
        primary_quarantined,
        primary_error,
        replicas: verdicts,
        standbys: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{attach, detach, fresh_images, ApplyMode, ReplicaSet};
    use std::sync::Arc;
    use tks_core::MergeAssignment;
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

    const DOCS: &[&str] = &[
        "retention compels trustworthy indexes",
        "worm devices refuse overwrites",
        "chain heads commit the index state",
    ];

    /// Build a primary with `n` docs and 2 live replicas; return all
    /// three images.
    fn replicated(n: usize) -> (EngineParts, Vec<EngineParts>) {
        let mut e = SearchEngine::new(config()).unwrap();
        let set = Arc::new(ReplicaSet::new(fresh_images(&e, 2), ApplyMode::Inline));
        attach(&mut e, &set);
        for (i, d) in DOCS.iter().take(n).enumerate() {
            e.add_document(d, Timestamp(1000 + i as u64)).unwrap();
        }
        detach(&mut e);
        let images = ReplicaSet::reclaim(set)
            .unwrap()
            .into_iter()
            .map(|(parts, fault)| {
                assert!(fault.is_none(), "{fault:?}");
                parts
            })
            .collect();
        (e.into_parts(), images)
    }

    #[test]
    fn healthy_primary_is_kept_and_replicas_become_standbys() {
        let (primary, images) = replicated(3);
        let out = recover_shard(Ok(primary), images.into_iter().map(Ok).collect(), &config());
        assert!(out.promoted_from.is_none());
        assert!(out.degraded_reason.is_none());
        let engine = out.engine.expect("recovered");
        assert_eq!(engine.num_docs(), 3);
        assert_eq!(out.standbys.len(), 2);
        for (_, sb) in &out.standbys {
            assert_eq!(sb.num_docs(), 3);
            assert_eq!(sb.chain_head(), engine.chain_head());
        }
    }

    #[test]
    fn dead_primary_promotes_longest_verified_replica() {
        let (_primary, images) = replicated(3);
        let out = recover_shard(
            Err("device lost".to_string()),
            images.into_iter().map(Ok).collect(),
            &config(),
        );
        assert_eq!(out.promoted_from, Some(0));
        assert_eq!(out.primary_error.as_deref(), Some("device lost"));
        let engine = out.engine.expect("promoted");
        assert_eq!(engine.num_docs(), 3);
        // The other identical replica still serves reads.
        assert_eq!(out.standbys.len(), 1);
    }

    #[test]
    fn nothing_recoverable_is_degraded() {
        let out = recover_shard(
            Err("gone".to_string()),
            vec![Err("also gone".to_string())],
            &config(),
        );
        assert!(out.engine.is_none());
        let reason = out.degraded_reason.expect("degraded");
        assert!(reason.contains("gone"), "{reason}");
        assert_eq!(out.replicas.len(), 1);
        assert!(!out.replicas[0].verified);
    }

    /// A replica holding fewer documents than the recovered primary is
    /// never promoted (promotion must not lose documents).
    #[test]
    fn shorter_replica_never_beats_recovered_primary() {
        // Replicate only the first two docs, then index a third with
        // replication detached: primary is ahead.
        let mut e = SearchEngine::new(config()).unwrap();
        let set = Arc::new(ReplicaSet::new(fresh_images(&e, 1), ApplyMode::Inline));
        attach(&mut e, &set);
        for (i, d) in DOCS.iter().take(2).enumerate() {
            e.add_document(d, Timestamp(1000 + i as u64)).unwrap();
        }
        detach(&mut e);
        e.add_document(DOCS[2], Timestamp(2000)).unwrap();
        let images: Vec<_> = ReplicaSet::reclaim(set)
            .unwrap()
            .into_iter()
            .map(|(p, _)| Ok(p))
            .collect();
        let out = recover_shard(Ok(e.into_parts()), images, &config());
        assert!(out.promoted_from.is_none());
        assert_eq!(out.engine.expect("primary").num_docs(), 3);
        // The lagging replica is verified but not an identical standby.
        assert!(out.standbys.is_empty());
        assert!(out.replicas[0].verified);
        assert_eq!(out.replicas[0].watermark, 2);
    }
}
