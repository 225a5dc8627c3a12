//! Malformed-input robustness: hostile or broken peers — truncated
//! frames, oversized length prefixes, garbage JSON, wrong version
//! bytes, mid-frame disconnects — must get typed errors (or a silent
//! close), and the server must keep serving well-formed clients.
//! A panic anywhere in the connection path would fail these tests:
//! the server thread would die and the follow-up probe would hang or
//! error.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use tks_client::Client;
use tks_core::EngineConfig;
use tks_postings::Timestamp;
use tks_server::server::{ArchiveServer, ServerConfig, ServerHandle};
use tks_server::wire::{self, WireErrorCode, WireQuery, WireResponse, WireTerms, PROTOCOL_VERSION};
use tks_shard::ShardedArchive;

fn serve() -> ServerHandle {
    let (mut writer, searcher) = ShardedArchive::create(EngineConfig::default(), 2)
        .expect("create archive")
        .into_service();
    writer
        .commit("alpha beta gamma", Timestamp(100))
        .expect("commit");
    ArchiveServer::bind("127.0.0.1:0", searcher, ServerConfig::default()).expect("bind")
}

fn raw_conn(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    s
}

/// After an abuse scenario, the server must still answer a well-formed
/// client perfectly.
fn assert_still_serving(handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).expect("connect probe");
    let resp = client
        .query(WireQuery::Disjunctive {
            terms: WireTerms::Text("alpha".to_string()),
            top_k: 10,
        })
        .expect("probe query");
    assert_eq!(resp.hits.len(), 1);
}

fn read_error(stream: &mut TcpStream) -> WireResponse {
    wire::read_response(stream, wire::DEFAULT_MAX_FRAME_BYTES).expect("read response")
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let handle = serve();
    let mut s = raw_conn(&handle);
    // Declare a 4 GiB frame; send five bytes.  If the server allocated
    // by the prefix this test would OOM the suite; instead it must
    // answer FrameTooLarge and close.
    s.write_all(&u32::MAX.to_le_bytes()).expect("write header");
    s.write_all(&[PROTOCOL_VERSION]).expect("write byte");
    match read_error(&mut s) {
        WireResponse::Error(e) => assert_eq!(e.code, WireErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // The connection is closed afterwards (the stream cannot be
    // re-synchronised past an unread oversized body).
    let mut rest = Vec::new();
    let n = s.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "server must close after FrameTooLarge");
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn garbage_json_gets_typed_malformed_and_connection_survives() {
    let handle = serve();
    let mut s = raw_conn(&handle);
    let garbage = b"{\"Query\": this is not json";
    let len = (garbage.len() + 1) as u32;
    s.write_all(&len.to_le_bytes()).expect("write header");
    s.write_all(&[PROTOCOL_VERSION]).expect("write version");
    s.write_all(garbage).expect("write garbage");
    match read_error(&mut s) {
        WireResponse::Error(e) => assert_eq!(e.code, WireErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // The frame was consumed cleanly: the same connection still works.
    wire::write_request(&mut s, &wire::WireRequest::Ping).expect("write ping");
    match read_error(&mut s) {
        WireResponse::Pong => {}
        other => panic!("expected Pong on the same connection, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn unknown_envelope_shape_is_malformed_not_fatal() {
    let handle = serve();
    let mut s = raw_conn(&handle);
    // Valid JSON, invalid envelope: an unknown request variant.
    let payload = br#"{"DropAllRecords":{}}"#;
    let len = (payload.len() + 1) as u32;
    s.write_all(&len.to_le_bytes()).expect("write header");
    s.write_all(&[PROTOCOL_VERSION]).expect("write version");
    s.write_all(payload).expect("write payload");
    match read_error(&mut s) {
        WireResponse::Error(e) => assert_eq!(e.code, WireErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn wrong_version_byte_gets_typed_error_and_connection_survives() {
    let handle = serve();
    let mut s = raw_conn(&handle);
    let payload = br#""Ping""#;
    let len = (payload.len() + 1) as u32;
    s.write_all(&len.to_le_bytes()).expect("write header");
    s.write_all(&[42u8]).expect("write version");
    s.write_all(payload).expect("write payload");
    match read_error(&mut s) {
        WireResponse::Error(e) => assert_eq!(e.code, WireErrorCode::UnsupportedVersion),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // Stream still in sync: a v1 Ping on the same connection works.
    wire::write_request(&mut s, &wire::WireRequest::Ping).expect("write ping");
    match read_error(&mut s) {
        WireResponse::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn mid_frame_disconnect_never_panics_the_server() {
    let handle = serve();
    // Scenario 1: header promises 100 bytes, peer sends 10 and leaves.
    {
        let mut s = raw_conn(&handle);
        s.write_all(&100u32.to_le_bytes()).expect("write header");
        s.write_all(&[PROTOCOL_VERSION]).expect("write version");
        s.write_all(b"truncated").expect("write partial");
        drop(s);
    }
    // Scenario 2: disconnect inside the 4-byte header itself.
    {
        let mut s = raw_conn(&handle);
        s.write_all(&[7u8, 0]).expect("write half header");
        drop(s);
    }
    // Scenario 3: zero-byte connect-and-slam.
    {
        let s = raw_conn(&handle);
        drop(s);
    }
    // Give the connection threads a beat to trip over the disconnects.
    std::thread::sleep(Duration::from_millis(150));
    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn undersized_frames_are_malformed() {
    let handle = serve();
    let mut s = raw_conn(&handle);
    // A 1-byte frame can hold a version byte but no payload.
    s.write_all(&1u32.to_le_bytes()).expect("write header");
    s.write_all(&[PROTOCOL_VERSION]).expect("write version");
    match read_error(&mut s) {
        WireResponse::Error(e) => assert_eq!(e.code, WireErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    assert_still_serving(&handle);
    handle.shutdown();
}

/// A peer that pipelines requests and never reads a response must not
/// pin its connection thread: once the responses back up, the server's
/// write times out, the connection ends, and a drain still completes.
#[test]
fn peer_that_never_reads_cannot_hang_the_drain() {
    let handle = serve();
    let stream = raw_conn(&handle);
    stream
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("write timeout");
    // The helper floods requests until its own writes stall, which
    // leaves far more requests queued than the unread responses the
    // socket buffers can hold (a `Status` is answered the same during a
    // drain).  The socket comes back still open, so the server is never
    // helped by a disconnect.
    let (stalled_tx, stalled_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut stream = stream;
        while wire::write_request(&mut stream, &wire::WireRequest::Status).is_ok() {}
        let _ = stalled_tx.send(stream);
    });
    let _still_open = stalled_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the flood must back up");

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must not wait on a peer that never reads");
}

/// Time bounds far outside the commit-time index's 32-bit domain, and
/// inverted ones, are ordinary (empty or open) ranges: each is answered,
/// and no query executor dies on them.
#[test]
fn hostile_time_bounds_are_answered_and_serving_continues() {
    let handle = serve();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let alpha = || WireTerms::Text("alpha".to_string());
    let cases = [
        (
            WireQuery::TimeRange {
                from: 1 << 40,
                to: 1 << 41,
            },
            0,
        ),
        (
            WireQuery::TimeRange {
                from: u64::MAX,
                to: u64::MAX,
            },
            0,
        ),
        (
            WireQuery::TimeRange {
                from: 1 << 41,
                to: 1 << 40,
            },
            0,
        ),
        (WireQuery::TimeRange { from: 200, to: 100 }, 0),
        (
            WireQuery::TimeRange {
                from: 0,
                to: 1 << 40,
            },
            1,
        ),
        (
            WireQuery::TimeRange {
                from: 0,
                to: u64::MAX,
            },
            1,
        ),
        (
            WireQuery::Conjunctive {
                terms: alpha(),
                from: Some(1 << 40),
                to: Some(1 << 41),
            },
            0,
        ),
        (
            WireQuery::Conjunctive {
                terms: alpha(),
                from: Some(u64::MAX),
                to: None,
            },
            0,
        ),
        (
            WireQuery::Conjunctive {
                terms: alpha(),
                from: Some(1 << 41),
                to: Some(1 << 40),
            },
            0,
        ),
        (
            WireQuery::Conjunctive {
                terms: alpha(),
                from: None,
                to: Some(1 << 40),
            },
            1,
        ),
    ];
    for (query, hits) in cases {
        let resp = client
            .query(query.clone())
            .expect("hostile bounds are answered");
        assert_eq!(resp.hits.len(), hits, "{query:?}");
    }
    assert_still_serving(&handle);
    handle.shutdown();
}
