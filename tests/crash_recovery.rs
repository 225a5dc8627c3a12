//! Crash-consistency harness: kill the write path at every possible byte,
//! then prove recovery converges.
//!
//! The write path's contract is that the DOCMETA record is the *last* WORM
//! append of a document — the commit point.  These tests enforce the
//! contract's consequence exhaustively: for **every byte offset** on every
//! device (posting store, document device, positional sidecar), tear the
//! device at that byte mid-commit, "reboot" (disarm the fault, surface
//! device-committed bytes the file metadata missed), recover, and require
//! the recovered engine to be observably identical to a reference engine
//! that committed exactly the documents whose commit calls returned `Ok`.
//! Residue of the torn document must be quarantined and reported, never
//! silently dropped and never surfaced as a hit.
//!
//! A seeded matrix (same SplitMix64 stream as `tests/sched`) runs the
//! same convergence check under randomly shaped faults — fail-stop, torn
//! write, error-once-then-heal — so CI can sweep disjoint seed ranges via
//! `CRASH_SEED_BASE` without ever re-testing the same fault twice.
//! Interior tampering, which no single torn append can produce, must keep
//! failing recovery with a typed error.

use proptest::prelude::*;
use tks_core::{EngineConfig, MergeAssignment, Query, SearchEngine};
use tks_postings::types::Timestamp;
use tks_shard::{ShardRecovery, ShardedArchive, ShardedSearcher};
use tks_worm::FaultPolicy;

/// Small corpus over a small vocabulary so the byte sweep stays cheap
/// while still exercising multi-posting lists, shared terms, and phrase
/// position records.
const CORPUS: &[(&str, u64)] = &[
    ("alpha beta gamma", 100),
    ("beta delta", 101),
    ("gamma delta epsilon alpha", 102),
    ("alpha zeta beta", 103),
    ("beta epsilon zeta gamma alpha", 104),
];

/// Queries that together touch every read path: ranked disjunction,
/// conjunction, phrase (positional sidecar), and commit-time range.
fn queries() -> Vec<Query> {
    vec![
        Query::disjunctive("alpha gamma", 10),
        Query::disjunctive("beta", 10),
        Query::conjunctive("beta gamma"),
        Query::conjunctive("delta"),
        Query::phrase("beta gamma"),
        Query::phrase("delta epsilon"),
        Query::time_range(Timestamp(101), Timestamp(103)),
    ]
}

/// 64-byte blocks force records to straddle device blocks; positional so
/// the sidecar device is part of the fault surface.
fn config() -> EngineConfig {
    EngineConfig {
        block_size: 64,
        cache_bytes: 1 << 16,
        assignment: MergeAssignment::uniform(4),
        positional: true,
        ..Default::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Store,
    Docs,
    Positions,
}

const TARGETS: [Target; 3] = [Target::Store, Target::Docs, Target::Positions];

/// Commit the corpus with `policy` armed on `target`, treating the first
/// commit error as a crash (fail-stop: the process is dead).  Returns how
/// many documents committed and the engine recovered from the raw devices
/// after the simulated reboot.
fn crash_and_recover(target: Target, policy: FaultPolicy) -> (u64, SearchEngine) {
    let mut e = SearchEngine::new(config()).expect("config is valid");
    match target {
        Target::Store => e.list_store_mut().fs_mut().arm_faults(policy),
        Target::Docs => e.doc_fs_mut().arm_faults(policy),
        Target::Positions => e
            .positions_fs_mut()
            .expect("positional config")
            .arm_faults(policy),
    }
    let mut committed = 0u64;
    for &(text, ts) in CORPUS {
        match e.add_document(text, Timestamp(ts)) {
            Ok(_) => committed += 1,
            Err(_) => break,
        }
    }
    // Reboot: the fault policy dies with the process; bytes the device
    // committed but the file metadata never recorded are surfaced.
    let mut parts = e.into_parts();
    parts.store_fs.disarm_faults();
    parts.doc_fs.disarm_faults();
    parts.store_fs.crash_recover().expect("store crash_recover");
    parts.doc_fs.crash_recover().expect("doc crash_recover");
    if let Some(fs) = parts.pos_fs.as_mut() {
        fs.disarm_faults();
        fs.crash_recover().expect("positions crash_recover");
    }
    let recovered = SearchEngine::recover(parts, config())
        .expect("torn-tail recovery must converge, not error");
    (committed, recovered)
}

/// Responses to the standard query set: `(doc, score)` per hit, per query.
type Responses = Vec<Vec<(u64, f64)>>;

/// A reference engine that committed exactly the first `n` documents,
/// with its responses to the standard query set.
fn reference(n: u64) -> (SearchEngine, Responses) {
    let mut e = SearchEngine::new(config()).expect("config is valid");
    for &(text, ts) in CORPUS.iter().take(n as usize) {
        e.add_document(text, Timestamp(ts)).expect("clean commit");
    }
    let responses = queries()
        .iter()
        .map(|q| {
            e.execute(q)
                .expect("reference query")
                .hits
                .iter()
                .map(|h| (h.doc.0, h.score))
                .collect()
        })
        .collect();
    (e, responses)
}

/// The recovered engine must be observably identical to the reference
/// stopped at the last whole document: same document count, same hits
/// and scores for every query shape, a clean audit, and truthful trust
/// metadata.
fn assert_converged(ctx: &str, committed: u64, recovered: &SearchEngine, refs: &[Vec<(u64, f64)>]) {
    assert_eq!(recovered.num_docs(), committed, "{ctx}: document count");
    for (q, expected) in queries().iter().zip(refs) {
        let resp = recovered
            .execute(q)
            .unwrap_or_else(|e| panic!("{ctx}: query {q:?} failed: {e}"));
        let got: Vec<(u64, f64)> = resp.hits.iter().map(|h| (h.doc.0, h.score)).collect();
        assert_eq!(&got, expected, "{ctx}: results for {q:?}");
        assert!(resp.trusted, "{ctx}: a torn tail is not tamper evidence");
        assert_eq!(
            resp.quarantined_bytes,
            recovered.recovery_report().total_quarantined_bytes(),
            "{ctx}: trust metadata must surface the recovery report"
        );
    }
    let audit = recovered.audit();
    assert!(
        audit.is_clean(),
        "{ctx}: quarantined residue must be accounted, audit found {audit:?}"
    );
}

/// Total bytes a clean run commits to each device — the sweep range.
fn clean_device_bytes() -> (u64, u64, u64) {
    let mut e = SearchEngine::new(config()).expect("config is valid");
    for &(text, ts) in CORPUS {
        e.add_document(text, Timestamp(ts)).expect("clean commit");
    }
    (
        e.list_store().fs().device().bytes_committed(),
        e.doc_fs().device().bytes_committed(),
        e.positions_fs()
            .expect("positional config")
            .device()
            .bytes_committed(),
    )
}

#[test]
fn every_byte_offset_tear_converges_to_last_whole_document() {
    let (store_total, doc_total, pos_total) = clean_device_bytes();
    // Cache references per prefix length: the sweep reuses them heavily.
    let refs: Vec<Responses> = (0..=CORPUS.len() as u64).map(|n| reference(n).1).collect();
    let mut tails_seen = 0u64;
    for (target, total) in [
        (Target::Store, store_total),
        (Target::Docs, doc_total),
        (Target::Positions, pos_total),
    ] {
        for offset in 0..=total {
            let ctx = format!("{target:?} torn at byte {offset}");
            let (committed, recovered) =
                crash_and_recover(target, FaultPolicy::torn_at_offset(offset));
            assert_converged(&ctx, committed, &recovered, &refs[committed as usize]);
            if !recovered.recovery_report().is_clean() {
                tails_seen += 1;
            }
        }
    }
    // Sanity: the sweep actually produced torn tails to quarantine, it
    // did not just hit clean shutdown points.
    assert!(
        tails_seen > 0,
        "the byte sweep never produced quarantinable residue"
    );
}

#[test]
fn every_append_ordinal_failure_converges() {
    // Fail-stop at every append call (no bytes land), on every device:
    // the between-records crash positions the byte sweep can only hit at
    // record boundaries.
    for target in TARGETS {
        for n in 0..64u64 {
            let ctx = format!("{target:?} append {n} failed");
            let (committed, recovered) = crash_and_recover(target, FaultPolicy::fail_nth_append(n));
            let (_, refs) = reference(committed);
            assert_converged(&ctx, committed, &recovered, &refs);
        }
    }
}

#[test]
fn seeded_fault_matrix_converges() {
    // CI sweeps disjoint seed ranges by exporting CRASH_SEED_BASE; the
    // default range keeps local runs deterministic and cheap.
    let base: u64 = std::env::var("CRASH_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    for seed in base..base + 48 {
        for target in TARGETS {
            let ctx = format!("{target:?} seed {seed}");
            let (committed, recovered) = crash_and_recover(target, FaultPolicy::seeded(seed, 48));
            let (_, refs) = reference(committed);
            assert_converged(&ctx, committed, &recovered, &refs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random seed × random device: same convergence property, different
    /// exploration order than the fixed matrix.
    #[test]
    fn prop_random_faults_converge(seed in any::<u64>(), which in 0usize..3) {
        let target = TARGETS[which];
        let (committed, recovered) =
            crash_and_recover(target, FaultPolicy::seeded(seed, 48));
        let (_, refs) = reference(committed);
        assert_converged(&format!("{target:?} prop seed {seed}"), committed, &recovered, &refs);
    }
}

#[test]
fn interior_tampering_still_fails_with_typed_error() {
    // A torn tail is quarantined; interior anomalies are not.  Mala
    // appends misaligned garbage *followed by* a whole posting, so the
    // damage is no longer a pure tail — recovery must refuse with a
    // typed error (never a panic, never silent acceptance).
    let mut e = SearchEngine::new(config()).expect("config is valid");
    for &(text, ts) in CORPUS {
        e.add_document(text, Timestamp(ts)).expect("clean commit");
    }
    let f = e.list_store().fs().open("lists/0").expect("list file");
    e.list_store_mut()
        .fs_mut()
        .append(f, &[0xFF, 0xFF])
        .expect("raw append");
    let whole = tks_postings::encode_posting(tks_postings::Posting {
        doc: tks_postings::types::DocId(9),
        term_tag: 0,
        tf: 1,
    });
    let f = e.list_store().fs().open("lists/0").expect("list file");
    e.list_store_mut()
        .fs_mut()
        .append(f, &whole)
        .expect("raw append");
    let err = SearchEngine::recover(e.into_parts(), config())
        .expect_err("interior damage must fail recovery");
    // Typed taxonomy, not a panic: the error names the violated invariant.
    assert!(!err.to_string().is_empty());
}

// ---------------------------------------------------------------------
// Sharded family: per-shard fault isolation.  A torn commit on one
// shard's device must be quarantined on *that shard only* — the other
// shards recover clean, the merged response keeps `trusted == true`, and
// quarantine accounting names the damaged shard.
// ---------------------------------------------------------------------

const SHARDS: usize = 3;
const VICTIM: u32 = 1;

/// The sharded corpus: three rounds of the base corpus, committed
/// round-robin (`doc k → shard k mod 3`) with globally increasing
/// timestamps, so every shard sees a non-decreasing stream and holds
/// several documents.
fn sharded_docs() -> Vec<(String, Timestamp)> {
    let mut out = Vec::new();
    for round in 0..3usize {
        for (i, &(text, _)) in CORPUS.iter().enumerate() {
            let k = (round * CORPUS.len() + i) as u64;
            out.push((text.to_string(), Timestamp(200 + k)));
        }
    }
    out
}

/// Query shapes over the sharded corpus (timestamps live at 200+).
fn sharded_queries() -> Vec<Query> {
    vec![
        Query::disjunctive("alpha gamma", 10),
        Query::conjunctive("beta gamma"),
        Query::phrase("beta gamma"),
        Query::time_range(Timestamp(201), Timestamp(209)),
    ]
}

/// Byte range `[lo, hi]` the victim shard's posting store occupies for
/// its **last** commit in a clean run — the sweep range for the torn
/// tail family.
fn victim_last_commit_range() -> (u64, u64) {
    let mut engines: Vec<SearchEngine> = (0..SHARDS)
        .map(|_| SearchEngine::new(config()).expect("config is valid"))
        .collect();
    let mut before_last = 0u64;
    for (k, (text, ts)) in sharded_docs().iter().enumerate() {
        let s = k % SHARDS;
        if s == VICTIM as usize {
            before_last = engines[s].list_store().fs().device().bytes_committed();
        }
        engines[s].add_document(text, *ts).expect("clean commit");
    }
    let total = engines[VICTIM as usize]
        .list_store()
        .fs()
        .device()
        .bytes_committed();
    (before_last, total)
}

/// The documents each shard committed, as `(text, timestamp)`.
type ShardDocs = Vec<Vec<(String, Timestamp)>>;

/// Commit the round-robin corpus into a 3-shard archive with `policy`
/// armed on the victim shard's posting store, treating the victim's
/// first commit error as that shard's device dying (fail-stop for the
/// shard; the others keep committing).  Reboots every shard and runs
/// per-shard recovery through [`ShardedArchive::recover`].
fn sharded_crash_and_recover(
    policy: FaultPolicy,
) -> (ShardDocs, ShardedArchive, Vec<ShardRecovery>) {
    let mut engines: Vec<SearchEngine> = (0..SHARDS)
        .map(|_| SearchEngine::new(config()).expect("config is valid"))
        .collect();
    engines[VICTIM as usize]
        .list_store_mut()
        .fs_mut()
        .arm_faults(policy);
    let archive = ShardedArchive::from_engines(engines).expect("≥ 1 shard");
    let (mut writer, searcher) = archive.into_service();
    drop(searcher); // try_into_engines needs the writers to be sole owners
    let mut per_shard: ShardDocs = vec![Vec::new(); SHARDS];
    let mut dead = false;
    for (k, (text, ts)) in sharded_docs().iter().enumerate() {
        let s = (k % SHARDS) as u32;
        if s == VICTIM && dead {
            continue;
        }
        match writer.commit_to(s, text, *ts) {
            Ok(_) => per_shard[s as usize].push((text.clone(), *ts)),
            Err(_) if s == VICTIM => dead = true,
            Err(e) => panic!("healthy shard {s} failed: {e}"),
        }
    }
    let Ok(engines) = writer.try_into_engines() else {
        panic!("no other live handles exist");
    };
    let mut parts = Vec::with_capacity(SHARDS);
    for engine in engines {
        let mut p = engine
            .expect("no shard is degraded before recovery")
            .into_parts();
        p.store_fs.disarm_faults();
        p.doc_fs.disarm_faults();
        p.store_fs.crash_recover().expect("store crash_recover");
        p.doc_fs.crash_recover().expect("doc crash_recover");
        if let Some(fs) = p.pos_fs.as_mut() {
            fs.disarm_faults();
            fs.crash_recover().expect("positions crash_recover");
        }
        parts.push(p);
    }
    let (archive, recoveries) =
        ShardedArchive::recover(parts, config()).expect("per-shard recovery");
    (per_shard, archive, recoveries)
}

/// A clean sharded archive holding exactly `per_shard` on each shard.
fn sharded_reference(per_shard: &[Vec<(String, Timestamp)>]) -> ShardedSearcher {
    let engines: Vec<SearchEngine> = per_shard
        .iter()
        .map(|docs| {
            let mut e = SearchEngine::new(config()).expect("config is valid");
            for (text, ts) in docs {
                e.add_document(text, *ts).expect("clean commit");
            }
            e
        })
        .collect();
    ShardedArchive::from_engines(engines)
        .expect("≥ 1 shard")
        .into_service()
        .1
}

#[test]
fn sharded_tear_on_one_shard_quarantines_only_that_shard() {
    let (lo, hi) = victim_last_commit_range();
    assert!(hi > lo, "the last commit must append posting-store bytes");
    let mut tails_seen = 0u64;
    for offset in lo..=hi {
        let ctx = format!("victim store torn at byte {offset}");
        let (per_shard, archive, recoveries) =
            sharded_crash_and_recover(FaultPolicy::torn_at_offset(offset));
        for r in &recoveries {
            assert!(
                r.error.is_none(),
                "{ctx}: a torn tail must never degrade a shard (shard {}: {:?})",
                r.shard,
                r.error
            );
            if r.shard != VICTIM {
                assert!(
                    r.is_clean(),
                    "{ctx}: quarantine leaked to healthy shard {}",
                    r.shard
                );
            }
        }
        let victim_quarantine = recoveries[VICTIM as usize].quarantined_bytes;
        if victim_quarantine > 0 {
            tails_seen += 1;
        }
        // The recovered archive must answer exactly like a clean archive
        // holding the same per-shard prefixes, and the torn commit on the
        // victim must never flip `trusted` — neither on the merged
        // response nor on any other shard's status.
        let reference = sharded_reference(&per_shard);
        let (_, searcher) = archive.into_service();
        for q in sharded_queries() {
            let want = reference.execute(q.clone()).expect("reference query");
            let got = searcher
                .execute(q.clone())
                .unwrap_or_else(|e| panic!("{ctx}: query {q:?} failed: {e}"));
            let pair = |r: &tks_shard::ShardedResponse| -> Vec<(u64, f64)> {
                r.hits.iter().map(|h| (h.doc.0, h.score)).collect()
            };
            assert_eq!(pair(&got), pair(&want), "{ctx}: results for {q:?}");
            assert!(got.trusted, "{ctx}: a torn tail is not tamper evidence");
            assert_eq!(got.quarantined_bytes, victim_quarantine, "{ctx}");
            for s in &got.shards {
                assert!(
                    s.consulted && s.trusted,
                    "{ctx}: shard {} lost trust over the victim's tear",
                    s.shard
                );
                let expect = if s.shard == VICTIM {
                    victim_quarantine
                } else {
                    0
                };
                assert_eq!(
                    s.quarantined_bytes, expect,
                    "{ctx}: quarantine misattributed on shard {}",
                    s.shard
                );
            }
        }
    }
    assert!(
        tails_seen > 0,
        "the sweep never produced quarantinable residue"
    );
}

#[test]
fn sharded_interior_damage_degrades_only_the_victim() {
    // Interior damage — which no single torn append can produce — must
    // degrade the victim shard while the rest of the archive recovers
    // clean and keeps serving with `trusted == true`.
    let mut engines: Vec<SearchEngine> = (0..SHARDS)
        .map(|_| SearchEngine::new(config()).expect("config is valid"))
        .collect();
    for (k, (text, ts)) in sharded_docs().iter().enumerate() {
        engines[k % SHARDS]
            .add_document(text, *ts)
            .expect("clean commit");
    }
    let victim = &mut engines[VICTIM as usize];
    let f = victim.list_store().fs().open("lists/0").expect("list file");
    victim
        .list_store_mut()
        .fs_mut()
        .append(f, &[0xFF, 0xFF])
        .expect("raw append");
    let whole = tks_postings::encode_posting(tks_postings::Posting {
        doc: tks_postings::types::DocId(9),
        term_tag: 0,
        tf: 1,
    });
    let f = victim.list_store().fs().open("lists/0").expect("list file");
    victim
        .list_store_mut()
        .fs_mut()
        .append(f, &whole)
        .expect("raw append");

    let parts = engines.into_iter().map(|e| e.into_parts()).collect();
    let (archive, recoveries) =
        ShardedArchive::recover(parts, config()).expect("archive-level recovery never fails");
    for r in &recoveries {
        if r.shard == VICTIM {
            assert!(r.error.is_some(), "interior damage must degrade the shard");
        } else {
            assert!(r.is_clean(), "shard {} must recover clean", r.shard);
        }
    }
    let (_, searcher) = archive.into_service();
    for q in sharded_queries() {
        let resp = searcher.execute(q.clone()).expect("healthy shards serve");
        assert!(resp.trusted, "healthy shards' verdict must survive");
        let degraded = resp.degraded();
        assert_eq!(degraded.len(), 1, "exactly the victim is reported");
        assert_eq!(degraded[0].shard, VICTIM);
        assert!(degraded[0].degraded.is_some(), "the reason is preserved");
    }
}

// ---------------------------------------------------------------------
// Replicated family: chain-verified failover.  The primary's append
// stream fans out to replica devices *post-commit only*, so a torn
// primary append never reaches a replica.  Tear the primary at every
// byte: recovery over primary + replicas must never degrade (a verified
// replica always exists), must converge to the surviving-document
// reference bit-for-bit (same hits, same scores, `trusted == true`,
// same chain head), and must promote a replica whenever it verifiably
// preserves more than the torn primary.
// ---------------------------------------------------------------------

const REPLICAS: usize = 2;

/// Commit the corpus with `policy` armed on the primary's `target`
/// device and `REPLICAS` inline replicas attached, treating the first
/// commit error as a crash.  Reboots the primary (the replicas' devices
/// never faulted) and recovers the shard through the failover path.
fn replicated_crash_and_recover(
    target: Target,
    policy: FaultPolicy,
) -> (u64, tks_replica::FailoverOutcome) {
    let mut e = SearchEngine::new(config()).expect("config is valid");
    let set = std::sync::Arc::new(tks_replica::ReplicaSet::new(
        tks_replica::fresh_images(&e, REPLICAS),
        tks_replica::ApplyMode::Inline,
    ));
    tks_replica::attach(&mut e, &set);
    match target {
        Target::Store => e.list_store_mut().fs_mut().arm_faults(policy),
        Target::Docs => e.doc_fs_mut().arm_faults(policy),
        Target::Positions => e
            .positions_fs_mut()
            .expect("positional config")
            .arm_faults(policy),
    }
    let mut committed = 0u64;
    for &(text, ts) in CORPUS {
        match e.add_document(text, Timestamp(ts)) {
            Ok(_) => committed += 1,
            Err(_) => break,
        }
    }
    tks_replica::detach(&mut e);
    let replica_parts: Vec<Result<tks_core::engine::EngineParts, String>> =
        tks_replica::ReplicaSet::reclaim(set)
            .expect("taps detached")
            .into_iter()
            .map(|(parts, fault)| {
                assert!(
                    fault.is_none(),
                    "a torn primary append must never reach a replica: {fault:?}"
                );
                Ok(parts)
            })
            .collect();
    let mut parts = e.into_parts();
    parts.store_fs.disarm_faults();
    parts.doc_fs.disarm_faults();
    parts.store_fs.crash_recover().expect("store crash_recover");
    parts.doc_fs.crash_recover().expect("doc crash_recover");
    if let Some(fs) = parts.pos_fs.as_mut() {
        fs.disarm_faults();
        fs.crash_recover().expect("positions crash_recover");
    }
    let outcome = tks_replica::recover_shard(Ok(parts), replica_parts, &config());
    (committed, outcome)
}

/// Convergence + trust for one replicated recovery: never degraded,
/// bit-identical answers to the surviving-document reference, and the
/// reference's exact chain head.
fn assert_replicated_converged(
    ctx: &str,
    committed: u64,
    outcome: &tks_replica::FailoverOutcome,
    reference_engine: &SearchEngine,
    refs: &[Vec<(u64, f64)>],
) {
    assert!(
        outcome.degraded_reason.is_none(),
        "{ctx}: with a verified replica the shard must never degrade ({:?})",
        outcome.degraded_reason
    );
    let engine = outcome
        .engine
        .as_deref()
        .unwrap_or_else(|| panic!("{ctx}: no engine despite no degraded reason"));
    assert_converged(ctx, committed, engine, refs);
    assert_eq!(
        engine.chain_head(),
        reference_engine.chain_head(),
        "{ctx}: the recovered chain head must match the clean reference's"
    );
    for v in &outcome.replicas {
        if v.verified {
            assert_eq!(
                v.watermark, committed,
                "{ctx}: a verified replica holds exactly the committed prefix"
            );
            assert_eq!(
                v.chain_head,
                Some(reference_engine.chain_head()),
                "{ctx}: replica {} chain head",
                v.replica
            );
        }
    }
}

#[test]
fn replica_failover_every_byte_tear_converges() {
    let (store_total, doc_total, pos_total) = clean_device_bytes();
    let refs: Vec<(SearchEngine, Responses)> = (0..=CORPUS.len() as u64).map(reference).collect();
    let mut promotions = 0u64;
    for (target, total) in [
        (Target::Store, store_total),
        (Target::Docs, doc_total),
        (Target::Positions, pos_total),
    ] {
        for offset in 0..=total {
            let ctx = format!("replicated {target:?} torn at byte {offset}");
            let (committed, outcome) =
                replicated_crash_and_recover(target, FaultPolicy::torn_at_offset(offset));
            let (ref_engine, ref_responses) = &refs[committed as usize];
            assert_replicated_converged(&ctx, committed, &outcome, ref_engine, ref_responses);
            if let Some(promoted) = outcome.promoted_from {
                promotions += 1;
                // Promotion only ever trades up: the promoted replica
                // quarantined no more than the torn primary.
                let v = &outcome.replicas[promoted];
                assert!(
                    v.quarantined_bytes <= outcome.primary_quarantined,
                    "{ctx}: promotion must not increase quarantine"
                );
            }
        }
    }
    assert!(
        promotions > 0,
        "the byte sweep never exercised replica promotion"
    );
}

#[test]
fn replica_failover_seeded_fault_matrix_converges() {
    for seed in 0..16u64 {
        for target in TARGETS {
            let ctx = format!("replicated {target:?} seed {seed}");
            let (committed, outcome) =
                replicated_crash_and_recover(target, FaultPolicy::seeded(seed, 48));
            let (ref_engine, refs) = reference(committed);
            assert_replicated_converged(&ctx, committed, &outcome, &ref_engine, &refs);
        }
    }
}

#[test]
fn replica_failover_total_primary_loss_promotes_longest_verified() {
    // A clean replicated run, then the primary device is lost outright:
    // recovery must promote replica 0 (lowest index among the equally
    // long verified replicas) and serve the full corpus, trusted, with
    // the surviving replica as a read standby.
    let mut e = SearchEngine::new(config()).expect("config is valid");
    let set = std::sync::Arc::new(tks_replica::ReplicaSet::new(
        tks_replica::fresh_images(&e, REPLICAS),
        tks_replica::ApplyMode::Inline,
    ));
    tks_replica::attach(&mut e, &set);
    for &(text, ts) in CORPUS {
        e.add_document(text, Timestamp(ts)).expect("clean commit");
    }
    tks_replica::detach(&mut e);
    let replica_parts: Vec<Result<tks_core::engine::EngineParts, String>> =
        tks_replica::ReplicaSet::reclaim(set)
            .expect("taps detached")
            .into_iter()
            .map(|(parts, fault)| {
                assert!(fault.is_none(), "{fault:?}");
                Ok(parts)
            })
            .collect();
    let outcome = tks_replica::recover_shard(
        Err("primary device lost".to_string()),
        replica_parts,
        &config(),
    );
    assert_eq!(outcome.promoted_from, Some(0));
    assert_eq!(
        outcome.primary_error.as_deref(),
        Some("primary device lost")
    );
    let n = CORPUS.len() as u64;
    let (ref_engine, refs) = reference(n);
    assert_replicated_converged("total primary loss", n, &outcome, &ref_engine, &refs);
    assert_eq!(
        outcome.standbys.len(),
        REPLICAS - 1,
        "the other verified replica serves reads"
    );
}

#[test]
fn recovered_engine_refuses_commits_that_touch_quarantined_residue() {
    // WORM cannot truncate, so crash residue permanently occupies its
    // bytes.  A recovered engine must refuse commits that would land on
    // residue — a quarantined list tail (readers address postings by
    // ordinal) or the orphan text occupying the next document's file —
    // with a typed error naming the quarantine, never by corrupting.
    let (store_total, _, _) = clean_device_bytes();
    // Tear near the end of the store stream so recovery has residue to
    // quarantine (the last document's postings and/or its orphan text).
    let mut found_refusal = false;
    for offset in (0..store_total).rev().take(32) {
        let (committed, mut recovered) =
            crash_and_recover(Target::Store, FaultPolicy::torn_at_offset(offset));
        if recovered.recovery_report().is_clean() {
            continue;
        }
        let next_ts = Timestamp(200);
        match recovered.add_document("alpha beta gamma delta epsilon zeta", next_ts) {
            Err(e) => {
                assert!(
                    e.to_string().contains("quarantined"),
                    "expected a quarantine refusal, got: {e}"
                );
                // The failed commit must not advance the count.
                assert_eq!(recovered.num_docs(), committed);
                found_refusal = true;
                break;
            }
            // Residue that the new commit never touches is no obstacle.
            Ok(_) => continue,
        }
    }
    assert!(
        found_refusal,
        "no tear produced residue that a follow-up commit touched"
    );
}
