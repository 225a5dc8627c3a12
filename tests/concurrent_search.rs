//! Concurrent query service integration: many reader threads execute
//! [`Query`]s through cloned [`Searcher`] handles while an [`IndexWriter`]
//! commits documents in real time.  The invariant under test is the
//! paper's §2.3 guarantee lifted to the concurrent setting: once a commit
//! call returns (and is published), **no reader may ever miss that
//! document** — the watermark only moves forward and index entries are
//! never buffered.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use trustworthy_search::prelude::*;

fn small_config() -> EngineConfig {
    EngineConfig::builder()
        .assignment(MergeAssignment::uniform(16))
        .jump(JumpConfig::new(2048, 8, 1 << 32))
        .build()
        .expect("valid configuration")
}

/// Four reader threads hammer the index while the writer commits 200
/// documents.  Every reader snapshots the published commit count *before*
/// querying; the result must contain at least that many documents — a
/// smaller result would mean a committed index entry was lost or hidden.
#[test]
fn readers_never_miss_published_commits() {
    const DOCS: u64 = 200;
    const READERS: usize = 4;
    let (mut writer, searcher) = service(SearchEngine::new(small_config()).unwrap());
    let published = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let published = &published;
        let done = &done;
        scope.spawn(move || {
            for i in 0..DOCS {
                writer
                    .commit(&format!("common record number{i}"), Timestamp(i))
                    .unwrap();
                // Publish *after* commit returns: from here on, every
                // query must see at least i + 1 documents.
                published.store(i + 1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });
        for r in 0..READERS {
            let searcher = searcher.clone();
            scope.spawn(move || {
                let mut max_seen = 0u64;
                loop {
                    // Read the ack counter *before* querying: the result
                    // may only be larger, never smaller.
                    let finished = done.load(Ordering::Acquire);
                    let floor = published.load(Ordering::Acquire);
                    let resp = searcher
                        .execute(Query::disjunctive("common", usize::MAX))
                        .unwrap();
                    assert!(
                        resp.hits.len() as u64 >= floor,
                        "reader {r}: only {} hits but {floor} commits were acknowledged",
                        resp.hits.len()
                    );
                    max_seen = max_seen.max(resp.hits.len() as u64);
                    if finished {
                        break;
                    }
                }
                assert_eq!(max_seen, DOCS, "reader {r} never saw the full index");
            });
        }
    });
    assert_eq!(searcher.visible_docs(), DOCS);
    assert!(searcher.audit().is_clean());
}

/// A pinned searcher is a repeatable-read snapshot: its results are
/// byte-identical no matter how much the writer commits concurrently.
#[test]
fn pinned_snapshot_is_stable_under_concurrent_writes() {
    let (mut writer, searcher) = service(SearchEngine::new(small_config()).unwrap());
    for i in 0..20u64 {
        writer
            .commit(&format!("alpha doc{i}"), Timestamp(i))
            .unwrap();
    }
    let pinned = searcher.pin();
    let before = pinned
        .execute(Query::disjunctive("alpha", usize::MAX))
        .unwrap();

    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 20..60u64 {
                writer
                    .commit(&format!("alpha doc{i}"), Timestamp(i))
                    .unwrap();
            }
        });
        for _ in 0..4 {
            let pinned = pinned.clone();
            let before_docs = before.docs();
            scope.spawn(move || {
                for _ in 0..25 {
                    let again = pinned
                        .execute(Query::disjunctive("alpha", usize::MAX))
                        .unwrap();
                    assert_eq!(again.docs(), before_docs);
                    assert_eq!(again.visible_docs, 20);
                }
            });
        }
    });
    // The unpinned handle sees everything the writer added.
    let live = searcher
        .execute(Query::disjunctive("alpha", usize::MAX))
        .unwrap();
    assert_eq!(live.hits.len(), 60);
}

/// The five query shapes, answered concurrently from 1/2/4/8 threads each
/// holding its own `Searcher` clone, equal the sequential answers.
#[test]
fn multi_query_driver_matches_sequential_across_thread_counts() {
    let (mut writer, searcher) = service(
        SearchEngine::new(
            EngineConfig::builder()
                .assignment(MergeAssignment::uniform(16))
                .positional(true)
                .build()
                .unwrap(),
        )
        .unwrap(),
    );
    let texts = [
        "merger escrow wire instructions",
        "quarterly earnings restatement draft",
        "escrow release schedule for the merger",
        "cafeteria menu",
        "earnings call transcript with restatement appendix",
    ];
    for (i, t) in texts.iter().enumerate() {
        writer.commit(t, Timestamp(i as u64 + 1)).unwrap();
    }
    let queries = vec![
        Query::disjunctive("merger escrow", 10),
        Query::conjunctive("earnings restatement"),
        Query::phrase("escrow wire instructions"),
        Query::conjunctive_in_range("earnings", Timestamp(2), Timestamp(4)),
        Query::time_range(Timestamp(1), Timestamp(3)),
    ];
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| searcher.execute(q.clone()).unwrap().docs())
        .collect();
    assert!(sequential.iter().any(|d| !d.is_empty()));
    for threads in [1usize, 2, 4, 8] {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (searcher, queries, sequential) = (searcher.clone(), &queries, &sequential);
                scope.spawn(move || {
                    let answers: Vec<_> = queries
                        .iter()
                        .map(|q| searcher.execute(q.clone()).unwrap().docs())
                        .collect();
                    assert_eq!(&answers, sequential, "threads = {threads}");
                });
            }
        });
    }
}

/// Queries are plain serde values: a saved investigation can be replayed
/// verbatim.
#[test]
fn queries_serialize_round_trip() {
    let queries = vec![
        Query::disjunctive("earnings restatement", 10),
        Query::conjunctive(vec![TermId(3), TermId(9)]),
        Query::phrase("wire instructions"),
        Query::conjunctive_in_range("escrow", Timestamp(5), Timestamp(50)),
        Query::time_range(Timestamp(0), Timestamp(100)),
    ];
    for q in queries {
        let json = serde_json::to_string(&q).unwrap();
        let back: Query = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back, "{json}");
    }
}
