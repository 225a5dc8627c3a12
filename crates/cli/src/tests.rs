//! Verb-level tests: every test drives the same `run` dispatch the
//! binary does, over real archive directories.

use super::*;
use crate::archive::{open, replica_dir_name};
use tks_core::engine::SearchEngine;
use tks_worm::shard_dir_name;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tks-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one command line (whitespace-split).
fn tks(line: &str) -> CliResult {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    run(&args).expect("a known verb")
}

const SMALL: &str = "--lists 8 --jump 0 --block-size 2048";

#[test]
fn double_init_and_zero_shards_refused() {
    let dir = temp_dir("refuse");
    let d = dir.display();
    assert!(tks(&format!("init {d} --shards 0")).is_err());
    tks(&format!("init {d} {SMALL}")).unwrap();
    assert!(tks(&format!("init {d}")).is_err());
    assert!(tks(&format!("archive init {d} --shards 2")).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// With its only shard's image damaged, every verb that answers from or
/// writes to the archive must fail naming the recovery error — a silent
/// success would mean a tampered index went live.
#[test]
fn damaged_archive_refuses_every_serving_verb() {
    let dir = temp_dir("refused");
    let d = dir.display();
    tks(&format!("init {d} --lists 16 --jump 4 --block-size 2048")).unwrap();
    for i in 0..30u64 {
        tks(&format!("note {d} {i} record number {i} compliance")).unwrap();
    }
    let file = dir.join("late.txt");
    std::fs::write(&file, "late filing").unwrap();
    let store = dir.join(shard_dir_name(0)).join("store.worm");
    let pristine = std::fs::read(&store).unwrap();
    let n = pristine.len();
    let mut flipped = pristine.clone();
    flipped[n - 10] ^= 0x80; // inside posting data
    for damaged in [&pristine[..n - 5], &flipped[..]] {
        std::fs::write(&store, damaged).unwrap();
        let opened = open(&dir).unwrap();
        let reason = opened.recoveries[0].error.clone().expect("degraded");
        for verb in [
            format!("add {d} {}", file.display()),
            format!("note {d} 99 more"),
            format!("search {d} compliance"),
            format!("all {d} compliance"),
            format!("phrase {d} record number"),
            format!("range {d} 0 99 compliance"),
            format!("audit {d}"),
            format!("serve {d} --addr 127.0.0.1:0"),
        ] {
            let err = tks(&verb).expect_err(&verb).to_string();
            assert!(err.contains(&reason), "{verb}: {err}");
        }
        tks(&format!("info {d}")).unwrap();
        tks(&format!("replicas {d}")).unwrap();
        assert!(tks(&format!("verify {d}")).is_err());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

const NOTES: &[(u64, &str)] = &[
    (100, "merger escrow instructions"),
    (101, "compliance record for the merger"),
    (102, "lunch menu"),
    (103, "escrow instructions revised compliance record"),
    (104, "quarterly retention audit"),
    (105, "compliance record retention schedule"),
    (106, "merger closing escrow released"),
    (107, "audit of the compliance record"),
];

/// The same notes through `--shards 1`, `--shards 3` and a bare
/// `SearchEngine` must answer every query verb with the same documents
/// (by commit time and text), trusted; and `audit` must fail after one
/// flipped byte in any shard's posting image.
#[test]
fn verbs_agree_across_shard_counts_and_with_a_reference_engine() {
    let verbs = [
        ("search", "merger escrow --top 50"),
        ("all", "compliance record"),
        ("phrase", "escrow instructions"),
        ("range", "103 106 compliance"),
        ("range", "104 18446744073709551615 compliance"),
        ("range", "105 4294967296 retention"),
    ];
    let queries = [
        Query::disjunctive("merger escrow", 50),
        Query::conjunctive("compliance record"),
        Query::phrase("escrow instructions"),
        Query::conjunctive_in_range("compliance", Timestamp(103), Timestamp(106)),
        Query::conjunctive_in_range("compliance", Timestamp(104), Timestamp(u64::MAX)),
        Query::conjunctive_in_range("retention", Timestamp(105), Timestamp(1 << 32)),
    ];
    for shards in [1u32, 3] {
        let dir = temp_dir(&format!("agree-{shards}"));
        let d = dir.display();
        tks(&format!(
            "init {d} --shards {shards} --lists 16 --jump 4 --block-size 2048 --positional"
        ))
        .unwrap();
        let mut reference = SearchEngine::new(open(&dir).unwrap().manifest.config).unwrap();
        for &(ts, text) in NOTES {
            tks(&format!("note {d} {ts} {text}")).unwrap();
            reference.add_document(text, Timestamp(ts)).unwrap();
        }
        for ((verb, words), query) in verbs.iter().zip(&queries) {
            let mut want: Vec<(u64, String)> = reference
                .execute(query)
                .unwrap()
                .docs()
                .into_iter()
                .map(|doc| {
                    (
                        reference.document_timestamp(doc).unwrap().0,
                        reference.document_text(doc).unwrap(),
                    )
                })
                .collect();
            assert!(!want.is_empty(), "{verb} must match something");
            want.sort();
            tks(&format!("{verb} {d} {words}")).unwrap();
            let mut got = answer(&dir, query.clone()).unwrap();
            got.rows.sort();
            assert_eq!(got.rows, want, "{verb} at --shards {shards}");
            assert!(got.resp.trusted, "{verb} at --shards {shards}");
        }
        // A timestamp past the commit-time index's 32 bits is refused,
        // not wrapped to an earlier time, and commits nothing.
        let err = tks(&format!("note {d} 4294967396 beta memo")).unwrap_err();
        assert!(err.to_string().contains("32-bit"), "{err}");
        assert!(answer(&dir, Query::conjunctive("beta"))
            .unwrap()
            .rows
            .is_empty());
        // Backdating is impossible: a timestamp below the head commits at
        // it.  (`tks archive VERB` is the older spelling of `tks VERB`.)
        tks(&format!("archive note {d} 50 backdated memo")).unwrap();
        let clamped = answer(&dir, Query::conjunctive("backdated")).unwrap();
        assert_eq!(clamped.rows, [(107, "backdated memo".to_string())]);
        tks(&format!("archive query {d} merger escrow --top 5")).unwrap();
        tks(&format!("info {d}")).unwrap();
        tks(&format!("audit {d}")).unwrap();
        let healthy = answer(&dir, Query::conjunctive("compliance")).unwrap().resp;
        for shard in 0..shards {
            let store = dir.join(shard_dir_name(shard)).join("store.worm");
            let pristine = std::fs::read(&store).unwrap();
            let mut img = pristine.clone();
            img[pristine.len() / 2] ^= 0x01;
            std::fs::write(&store, &img).unwrap();
            assert!(tks(&format!("audit {d}")).is_err(), "shard {shard} flip");
            // That shard (and only that shard) degrades; the others keep
            // answering, and their verdict is their own.
            if shards > 1 {
                let resp = answer(&dir, Query::conjunctive("compliance")).unwrap().resp;
                assert!(resp.trusted);
                let degraded: Vec<u32> = resp.degraded().iter().map(|s| s.shard).collect();
                assert_eq!(degraded, [shard]);
                let surviving = healthy.hits.iter().filter(|h| shard_of(h.doc) != shard);
                assert_eq!(resp.hits.len(), surviving.count());
            }
            std::fs::write(&store, &pristine).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A directory written before sharding existed — `config.json` plus the
/// image set at the root — must keep opening, answering and accepting
/// writes in place.
#[test]
fn legacy_root_layout_opens_and_accepts_writes() {
    let dir = temp_dir("legacy-src");
    let d = dir.display();
    tks(&format!("init {d} {SMALL}")).unwrap();
    tks(&format!("note {d} 100 merger escrow instructions")).unwrap();
    let legacy = temp_dir("legacy");
    let l = legacy.display();
    std::fs::create_dir_all(&legacy).unwrap();
    let config = open(&dir).unwrap().manifest.config;
    std::fs::write(
        legacy.join("config.json"),
        serde_json::to_string_pretty(&config).unwrap(),
    )
    .unwrap();
    for name in ["store.worm", "docs.worm"] {
        std::fs::copy(dir.join(shard_dir_name(0)).join(name), legacy.join(name)).unwrap();
    }
    tks(&format!("note {l} 300 quarterly retention audit")).unwrap();
    tks(&format!("search {l} retention")).unwrap();
    let found = answer(&legacy, Query::disjunctive("escrow retention", 10)).unwrap();
    assert_eq!(found.resp.hits.len(), 2);
    assert!(found.resp.trusted);
    tks(&format!("verify {l}")).unwrap();
    assert!(tks(&format!("init {l}")).is_err(), "already an archive");
    // Saved in place: the root images grew, and no sharded layout appeared.
    assert!(!legacy.join("shards.json").exists());
    assert!(!legacy.join(shard_dir_name(0)).exists());
    assert_ne!(
        std::fs::read(legacy.join("docs.worm")).unwrap(),
        std::fs::read(dir.join(shard_dir_name(0)).join("docs.worm")).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&legacy);
}

/// Build a tiny single-shard archive with two known notes and
/// return its directory.
fn verified_fixture(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let d = dir.display();
    tks(&format!("init {d} {SMALL}")).unwrap();
    tks(&format!("note {d} 100 merger escrow instructions")).unwrap();
    tks(&format!("note {d} 200 quarterly retention audit")).unwrap();
    tks(&format!("verify {d}")).expect("pristine archive must verify");
    dir
}

/// Recompute a persisted image's trailing SHA-256 footer after a
/// mutation, imitating an adversary who controls the storage medium
/// and regenerates the integrity checksum to cover their edit.
fn reforge_footer(img: &mut [u8]) {
    let body = img.len() - 32;
    let footer = tks_worm::sha256(&img[..body]);
    img[body..].copy_from_slice(&footer);
}

/// Every single-byte flip in every persisted image must make
/// `tks verify` exit nonzero — nothing in any image is mutable without
/// detection.
#[test]
fn verify_flags_every_single_byte_flip() {
    let dir = verified_fixture("byteflip");
    let verify = format!("verify {}", dir.display());
    for name in ["store.worm", "docs.worm"] {
        let path = dir.join(shard_dir_name(0)).join(name);
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut img = pristine.clone();
            img[i] ^= 0x01;
            std::fs::write(&path, &img).unwrap();
            assert!(tks(&verify).is_err(), "flip at {name}[{i}] went undetected");
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    tks(&verify).expect("restored archive must verify again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An adversary who rewrites the image *and* regenerates its
/// checksum footer defeats the footer — only the commit chain,
/// whose head the investigator compares out-of-band, catches the
/// edit.  Tamper with document text, a DOCMETA commit record, and a
/// persisted chain link; each must surface as a chain mismatch.
#[test]
fn verify_catches_tamper_behind_a_reforged_checksum() {
    let dir = verified_fixture("reforged");
    let verify = format!("verify {}", dir.display());
    let docs_path = dir.join(shard_dir_name(0)).join("docs.worm");
    let pristine = std::fs::read(&docs_path).unwrap();

    let position_of = |needle: &[u8]| -> usize {
        pristine
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("fixture bytes present in image")
    };
    // Document text (tokens, so a single-token needle), a DOCMETA
    // record (ts=100 || token count 3), and the first chain link
    // (its prev_head is the genesis head).
    let text_at = position_of(b"merger");
    let mut docmeta = 100u64.to_le_bytes().to_vec();
    docmeta.extend_from_slice(&3u64.to_le_bytes());
    let docmeta_at = position_of(&docmeta);
    let link_at = position_of(&tks_worm::ChainHead::genesis().0);

    for (what, at) in [
        ("document text", text_at),
        ("DOCMETA record", docmeta_at),
        ("chain link", link_at),
    ] {
        let mut img = pristine.clone();
        img[at] ^= 0x01;
        reforge_footer(&mut img);
        std::fs::write(&docs_path, &img).unwrap();
        let err = tks(&verify).expect_err(&format!("reforged tamper of {what} went undetected"));
        let report = err.to_string();
        assert!(
            report.contains("commit-chain mismatch") || report.contains("recovery refused"),
            "tamper of {what} must be a typed chain finding, got: {report}"
        );
    }
    std::fs::write(&docs_path, &pristine).unwrap();
    tks(&verify).expect("restored archive must verify again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replicated archive writes replica image sets that stay
/// byte-identical to the primaries across writes and reopens.
#[test]
fn replicated_init_note_reopen_roundtrip() {
    let dir = temp_dir("replicated");
    let d = dir.display();
    tks(&format!("init {d} --shards 2 --replicas 2 {SMALL}")).unwrap();
    for i in 0..6u64 {
        tks(&format!("note {d} {} retention ledger {i}", 100 + i)).unwrap();
    }
    // Every replica image is byte-identical to its primary.
    for sid in 0..2u32 {
        let shard_dir = dir.join(shard_dir_name(sid));
        for name in ["store.worm", "docs.worm"] {
            let primary = std::fs::read(shard_dir.join(name)).unwrap();
            for r in 0..2 {
                let replica =
                    std::fs::read(shard_dir.join(replica_dir_name(r)).join(name)).unwrap();
                assert_eq!(primary, replica, "shard {sid} replica {r} {name}");
            }
        }
    }
    let opened = open(&dir).unwrap();
    assert_eq!(opened.manifest.replicas, 2);
    assert_eq!(opened.archive.standby_counts(), vec![2, 2]);
    for r in &opened.recoveries {
        assert!(r.promoted_from.is_none());
        assert!(r.replicas.iter().all(|v| v.verified), "{:?}", r.replicas);
    }
    tks(&format!("replicas {d}")).unwrap();
    tks(&format!("search {d} retention ledger --top 3")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Losing a primary image promotes a verified replica instead of
/// degrading the shard, and the next write persists the promoted
/// state as the new primary.
#[test]
fn lost_primary_promotes_replica_and_reseeds() {
    let dir = temp_dir("promote");
    let d = dir.display();
    tks(&format!("init {d} --replicas 2 {SMALL}")).unwrap();
    for i in 0..4u64 {
        tks(&format!("note {d} {} audit trail {i}", 100 + i)).unwrap();
    }
    // Destroy the primary image set by blanking both images (the
    // replica subdirectories survive inside the shard directory).
    let shard_dir = dir.join(shard_dir_name(0));
    for name in ["store.worm", "docs.worm"] {
        std::fs::write(shard_dir.join(name), []).unwrap();
    }
    let opened = open(&dir).unwrap();
    assert!(
        opened.archive.degraded().is_empty(),
        "promotion, not degradation"
    );
    assert_eq!(opened.archive.num_docs(), 4);
    assert_eq!(opened.recoveries[0].promoted_from, Some(0));
    assert!(
        tks(&format!("verify {d}")).is_err(),
        "a lost primary is a finding"
    );
    // Queries still answer, trusted, from the promoted replica.
    let resp = answer(&dir, Query::conjunctive("audit")).unwrap().resp;
    assert_eq!(resp.hits.len(), 4);
    assert!(resp.trusted);
    // The next write persists the promoted image as the new primary
    // and re-seeds the full replica complement.
    tks(&format!("note {d} 500 post failover entry")).unwrap();
    let opened = open(&dir).unwrap();
    assert!(opened.archive.degraded().is_empty());
    assert_eq!(opened.archive.num_docs(), 5);
    assert_eq!(opened.recoveries[0].promoted_from, None, "primary restored");
    assert_eq!(opened.archive.standby_counts(), vec![2]);
    tks(&format!("verify {d}")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_shard_count_mismatch_refused() {
    let dir = temp_dir("mismatch");
    tks(&format!("init {} --shards 2 {SMALL}", dir.display())).unwrap();
    std::fs::remove_dir_all(dir.join(shard_dir_name(1))).unwrap();
    assert!(open(&dir).is_err(), "missing shard directory must refuse");
    let _ = std::fs::remove_dir_all(&dir);
}
