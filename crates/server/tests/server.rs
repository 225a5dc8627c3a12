//! End-to-end tests: a real server on an ephemeral port, exercised
//! through `tks_client` — query correctness against a direct in-process
//! execution, session pin/refresh semantics, deadlines, load shedding,
//! and graceful drain.

use std::time::{Duration, Instant};

use tks_client::{Client, ClientError, ErrorDisposition};
use tks_core::{EngineConfig, Query};
use tks_postings::Timestamp;
use tks_server::server::{ArchiveServer, ServerConfig, ServerHandle};
use tks_server::wire::{WireErrorCode, WireQuery, WireTerms};
use tks_shard::{ShardedArchive, ShardedSearcher, ShardedWriter};

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

fn archive(shards: u32) -> (ShardedWriter, ShardedSearcher) {
    let config = EngineConfig {
        positional: true,
        ..EngineConfig::default()
    };
    let (mut writer, searcher) = ShardedArchive::create(config, shards)
        .expect("create archive")
        .into_service();
    for &(text, ts) in CORPUS {
        writer.commit(text, Timestamp(ts)).expect("commit");
    }
    (writer, searcher)
}

fn serve(searcher: ShardedSearcher, config: ServerConfig) -> ServerHandle {
    ArchiveServer::bind("127.0.0.1:0", searcher, config).expect("bind server")
}

fn disjunctive(text: &str) -> WireQuery {
    WireQuery::Disjunctive {
        terms: WireTerms::Text(text.to_string()),
        top_k: 100,
    }
}

/// The connection thread's gather over executor-run shard jobs must be
/// the in-process `execute`, field for field, at every fan-out.
#[test]
fn networked_queries_match_direct_execution() {
    for shards in 1..=3u32 {
        let (_writer, searcher) = archive(shards);
        let handle = serve(searcher.clone(), ServerConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.ping().expect("ping");

        for (wire_q, engine_q) in [
            (disjunctive("alpha"), Query::disjunctive("alpha", 100)),
            (
                WireQuery::Conjunctive {
                    terms: WireTerms::Text("beta gamma".to_string()),
                    from: None,
                    to: None,
                },
                Query::conjunctive("beta gamma"),
            ),
            (
                WireQuery::Conjunctive {
                    terms: WireTerms::Text("alpha beta".to_string()),
                    from: Some(101),
                    to: Some(105),
                },
                Query::conjunctive_in_range("alpha beta", Timestamp(101), Timestamp(105)),
            ),
            (
                WireQuery::Phrase {
                    text: "delta epsilon".to_string(),
                },
                Query::phrase("delta epsilon"),
            ),
            (
                WireQuery::TimeRange { from: 101, to: 105 },
                Query::time_range(Timestamp(101), Timestamp(105)),
            ),
        ] {
            let ctx = format!("{shards} shard(s), {engine_q:?}");
            let over_wire = client.query(wire_q).expect("networked query");
            let direct = searcher.execute(engine_q).expect("direct query");
            let wire_hits: Vec<(u64, u64)> = over_wire
                .hits
                .iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect();
            let direct_hits: Vec<(u64, u64)> = direct
                .hits
                .iter()
                .map(|h| (h.doc.0, h.score.to_bits()))
                .collect();
            assert!(!direct_hits.is_empty(), "{ctx}: vacuous shape");
            assert_eq!(wire_hits, direct_hits, "{ctx}");
            assert_eq!(over_wire.trusted, direct.trusted, "{ctx}");
            assert_eq!(over_wire.visible_docs, direct.visible_docs, "{ctx}");
            assert_eq!(over_wire.blocks_read, direct.blocks_read, "{ctx}");
            assert_eq!(over_wire.blocks_skipped, direct.blocks_skipped, "{ctx}");
            assert_eq!(
                over_wire.quarantined_bytes, direct.quarantined_bytes,
                "{ctx}"
            );
            assert_eq!(over_wire.shards.len(), shards as usize, "{ctx}");
            for (got, want) in over_wire.shards.iter().zip(&direct.shards) {
                assert_eq!(got.consulted, want.consulted, "{ctx}");
                assert_eq!(got.visible_docs, want.visible_docs, "{ctx}");
                assert_eq!(got.trusted, want.trusted, "{ctx}");
                assert_eq!(
                    got.parsed_chain_head().expect("parseable head"),
                    want.chain_head,
                    "{ctx}"
                );
            }
        }
        handle.shutdown();
    }
}

/// The response digest verifies end-to-end over a real socket, binds
/// the same chain heads a direct in-process execution reports, and a
/// head held "out-of-band" (here: read straight off the engines)
/// authenticates the networked response — while a foreign head is
/// rejected.
#[test]
fn networked_responses_verify_against_out_of_band_chain_heads() {
    let (_writer, searcher) = archive(3);
    let handle = serve(searcher.clone(), ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let over_wire = client
        .query_verified(disjunctive("alpha"))
        .expect("verified networked query");
    let direct = searcher
        .execute(Query::disjunctive("alpha", 100))
        .expect("direct query");

    for status in &direct.shards {
        let wire_status = &over_wire.shards[status.shard as usize];
        assert_eq!(
            wire_status.parsed_chain_head().expect("parseable head"),
            status.chain_head,
            "shard {} head must survive the wire",
            status.shard
        );
        over_wire
            .verify_shard_head(status.shard, &status.chain_head)
            .expect("out-of-band head must authenticate the response");
    }

    let forged = tks_worm::ChainHead(tks_worm::sha256(b"a different archive's history"));
    let err = over_wire
        .verify_shard_head(0, &forged)
        .expect_err("foreign head must be rejected");
    assert_eq!(err.code, WireErrorCode::DigestMismatch);

    handle.shutdown();
}

#[test]
fn connection_session_is_pinned_until_refresh() {
    let (mut writer, searcher) = archive(2);
    let handle = serve(searcher, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");

    let before = client.query(disjunctive("alpha")).expect("query");
    assert_eq!(before.visible_docs, CORPUS.len() as u64);

    writer
        .commit("alpha omega fresh", Timestamp(200))
        .expect("commit");

    // Same connection, same pinned session: the new commit is invisible.
    let pinned = client.query(disjunctive("alpha")).expect("query");
    assert_eq!(pinned.visible_docs, CORPUS.len() as u64);
    assert_eq!(pinned.hits.len(), before.hits.len());

    // Refresh advances the session to the new frontier.
    let marks = client.refresh().expect("refresh");
    assert_eq!(marks.iter().sum::<u64>(), CORPUS.len() as u64 + 1);
    let fresh = client.query(disjunctive("alpha")).expect("query");
    assert_eq!(fresh.hits.len(), before.hits.len() + 1);

    // A *new* connection pins the fresh frontier immediately.
    let mut second = Client::connect(handle.addr()).expect("connect");
    let status = second.status().expect("status");
    assert_eq!(status.visible_docs, CORPUS.len() as u64 + 1);
    assert_eq!(status.shards, 2);
    assert!(status.degraded.is_empty());
    handle.shutdown();
}

#[test]
fn slow_query_returns_typed_deadline_error_not_a_hung_connection() {
    let (_writer, searcher) = archive(2);
    let handle = serve(
        searcher,
        ServerConfig {
            inject_delay_ms: 500,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    let err = client
        .query_with_deadline(disjunctive("alpha"), 40)
        .expect_err("must miss the deadline");
    let elapsed = started.elapsed();
    match &err {
        ClientError::Server(we) => assert_eq!(we.code, WireErrorCode::DeadlineExceeded),
        other => panic!("expected a typed DeadlineExceeded, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(400),
        "deadline reply must not wait for the slow query ({elapsed:?})"
    );
    // A missed deadline is transient pushback: the client's taxonomy says
    // retry on this connection, and the retry (generous deadline) works.
    assert_eq!(err.disposition(), ErrorDisposition::RetryAfterBackoff);
    let ok = client
        .query_with_deadline(disjunctive("alpha"), 5_000)
        .expect("post-deadline query");
    assert!(!ok.hits.is_empty());
    handle.shutdown();
}

/// `queue_depth` counts queries, not shard jobs: with one slot and one
/// worker a lone 3-shard query is answered (its own jobs never shed
/// it), a query racing it is refused at once, and the slot is free
/// again the moment the first query's last shard job is done.
#[test]
fn saturated_queue_sheds_load_with_typed_overloaded() {
    let (_writer, searcher) = archive(3);
    let handle = serve(
        searcher,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            inject_delay_ms: 100,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Fill the single in-flight slot from a background connection.
    let filler = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect filler");
        let filled = c
            .query_with_deadline(disjunctive("alpha"), 5_000)
            .expect("a lone query must fit in one slot");
        (c, filled)
    });
    std::thread::sleep(Duration::from_millis(100));

    // The queue is full: this query must be shed immediately.
    let mut client = Client::connect(addr).expect("connect");
    let started = Instant::now();
    let err = client
        .query_with_deadline(disjunctive("alpha"), 5_000)
        .expect_err("must be shed");
    match &err {
        ClientError::Server(we) => assert_eq!(we.code, WireErrorCode::Overloaded),
        other => panic!("expected a typed Overloaded, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_millis(200),
        "shedding must be immediate, not queued"
    );

    // The filler's query still completes correctly, on every shard.
    let (mut filler, filled) = filler.join().expect("filler thread");
    assert_eq!(filled.hits.len(), 5);
    assert!(filled.shards.iter().all(|s| s.consulted));

    // Its reply came after the slot was released, so neither connection
    // can be refused now.
    for c in [&mut filler, &mut client] {
        let again = c
            .query_with_deadline(disjunctive("alpha"), 5_000)
            .expect("the slot must be free after the first reply");
        assert_eq!(again.hits.len(), 5);
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let (_writer, searcher) = archive(2);
    let handle = serve(
        searcher,
        ServerConfig {
            inject_delay_ms: 300,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // A slow query is in flight when shutdown begins.
    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.query_with_deadline(disjunctive("alpha"), 5_000)
    });
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    // The in-flight query was drained, not dropped: its full response
    // arrived.
    let resp = in_flight
        .join()
        .expect("query thread")
        .expect("drained query must succeed");
    assert!(!resp.hits.is_empty());

    // The server is really gone afterwards.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).expect("connect");
            c.ping().is_err()
        }
    );
}

#[test]
fn queries_during_drain_get_shutting_down() {
    let (_writer, searcher) = archive(2);
    let handle = serve(
        searcher,
        ServerConfig {
            inject_delay_ms: 400,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Open the connection *before* shutdown so the read loop is live.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");

    // Hold the drain open with a slow in-flight query on another
    // connection, then race a fresh query on the first one.
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect blocker");
        c.query_with_deadline(disjunctive("alpha"), 5_000)
    });
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // Either the request is refused as ShuttingDown, or — if the drain
    // already closed this connection — the transport reports it.
    match client.query_with_deadline(disjunctive("alpha"), 1_000) {
        Err(ClientError::Server(we)) => assert_eq!(we.code, WireErrorCode::ShuttingDown),
        Err(ClientError::Frame(_)) | Err(ClientError::Io(_)) => {}
        Ok(_) => panic!("a query issued mid-drain must not succeed"),
        Err(other) => panic!("unexpected error: {other:?}"),
    }
    let _ = blocker.join().expect("blocker thread");
    shutdown.join().expect("shutdown thread");
}
