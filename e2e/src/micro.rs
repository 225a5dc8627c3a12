//! Micro-timings of single layers and the **commit ladder**, run only in
//! a traced run and always on data taken from the workload's own
//! archive: its longest posting list, its documents, its persisted
//! images.  Each timing calls a layer's public functions from outside.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tks_core::tokenizer::term_counts;
use tks_core::{EngineConfig, IndexWriter, SearchEngine};
use tks_jump::BlockJumpIndex;
use tks_postings::{decode_block, ListId, ListStore, Posting, TermId, POSTING_SIZE};
use tks_replica::{attach, fresh_images, ApplyMode, ReplicaSet};
use tks_shard::ShardRouter;
use tks_worm::{load_fs, sha256, CommitChain, WormDevice, WormFs};

use crate::archive::{self, PartsImage, BLOCK_SIZE, REPLICAS, SHARDS};
use crate::inputs::Doc;
use crate::metrics::Values;
use crate::stats::summarize_ns;
use crate::trace::Tracer;

/// Blocks of the longest list the block-level timings work on.
const SAMPLE_BLOCKS: u64 = 512;
/// Each timing loop repeats until it has run about this long.
const MIN_LOOP_NS: u128 = 20_000_000;
const FIND_KEYS: u64 = 2_000;
const DRAIN_DOCS: usize = 300;
const CHAIN_DOCS: usize = 500;
const TAMPER_FLIPS: usize = 8;

/// Run `body` (which performs `ops` operations) until `MIN_LOOP_NS` has
/// passed; nanoseconds per operation and operations timed.
fn per_op(ops: usize, mut body: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        body();
        rounds += 1;
        if start.elapsed().as_nanos() >= MIN_LOOP_NS {
            break;
        }
    }
    let total = ops.max(1) * rounds;
    (start.elapsed().as_nanos() as f64 / total as f64, total)
}

/// The postings of the archive's longest list on shard 0, with the raw
/// bytes of its first blocks.
struct ListSample {
    /// Every posting of the list, and beside each the term its tag names.
    postings: Vec<Posting>,
    terms: Vec<TermId>,
    raw_blocks: Vec<Vec<u8>>,
}

fn longest_list(engine: &SearchEngine) -> Result<(ListId, ListSample), String> {
    let store = engine.list_store();
    let list = (0..store.num_lists() as u32)
        .map(ListId)
        .max_by_key(|&l| store.len(l).unwrap_or(0))
        .ok_or("archive has no lists")?;
    let err = |e: tks_postings::list::ListError| e.to_string();
    let postings: Vec<Posting> = store.postings(list).map_err(err)?.collect();
    let mut terms = Vec::with_capacity(postings.len());
    for p in &postings {
        let term = store
            .term_of_tag(list, p.term_tag)
            .map_err(err)?
            .ok_or("posting tag without a dictionary record")?;
        terms.push(term);
    }
    let file = store
        .fs()
        .open(&format!("lists/{}", list.0))
        .map_err(|e| e.to_string())?;
    let blocks = store.num_blocks(list).map_err(err)?.min(SAMPLE_BLOCKS);
    let mut raw_blocks = Vec::new();
    for b in 0..blocks {
        raw_blocks.push(
            store
                .fs()
                .read_block(file, b)
                .map_err(|e| e.to_string())?
                .to_vec(),
        );
    }
    Ok((
        list,
        ListSample {
            postings,
            terms,
            raw_blocks,
        },
    ))
}

/// Layer timings on one engine of the workload's archive.
pub fn storage_layers(engine: &SearchEngine, v: &mut Values) -> Result<(), String> {
    let (list, sample) = longest_list(engine)?;
    let store = engine.list_store();
    let n_postings = sample.postings.len();
    if n_postings == 0 || sample.raw_blocks.is_empty() {
        return Err("longest list is empty".to_string());
    }

    // postings: block decode, whole-list scan, append.
    let mut decoded: Vec<Posting> = Vec::with_capacity(BLOCK_SIZE / POSTING_SIZE);
    let (ns, n) = per_op(sample.raw_blocks.len(), || {
        for raw in &sample.raw_blocks {
            decoded.clear();
            decode_block(black_box(raw), &mut decoded);
            black_box(&decoded);
        }
    });
    v.set("postings.decode_block_ns", ns, n);
    let (ns, n) = per_op(n_postings, || {
        if let Ok(reader) = store.postings(list) {
            black_box(reader.count());
        }
    });
    v.set("postings.scan_postings_per_s", 1e9 / ns, n);
    let t = Instant::now();
    let mut scratch = ListStore::new(BLOCK_SIZE, 1).map_err(|e| e.to_string())?;
    for (p, &term) in sample.postings.iter().zip(&sample.terms) {
        scratch
            .append(ListId(0), term, p.doc, u32::from(p.tf), None)
            .map_err(|e| e.to_string())?;
    }
    let append_ns = t.elapsed().as_nanos() as f64 / n_postings as f64;
    v.set("postings.append_ns_per_posting", append_ns, n_postings);

    // jump: insert the same postings, then find evenly spread keys.
    let jump_cfg = engine.config().jump.ok_or("jump indexes are disabled")?;
    let mut index: BlockJumpIndex<Posting> = BlockJumpIndex::new(jump_cfg);
    let tags = &sample.postings;
    let t = Instant::now();
    for &p in tags {
        index.insert(p).map_err(|e| e.to_string())?;
    }
    v.set(
        "jump.insert_ns",
        t.elapsed().as_nanos() as f64 / tags.len() as f64,
        tags.len(),
    );
    let top = tags.last().map_or(1, |p| p.doc.0.max(1));
    let keys: Vec<u64> = (0..FIND_KEYS).map(|i| i * top / FIND_KEYS).collect();
    let mut touched = 0u64;
    let (ns, n) = per_op(keys.len(), || {
        for &k in &keys {
            let found = index.find_geq_with(black_box(k), |_| touched += 1);
            black_box(found.is_ok());
        }
    });
    v.set("jump.find_geq_ns", ns, n);
    v.set("jump.blocks_touched_per_find", touched as f64 / n as f64, n);

    // worm: posting-sized appends (what a commit mostly issues), block
    // reads, SHA-256 throughput, one commit's chain absorb + seal.
    let bytes: Vec<u8> = sample.raw_blocks.concat();
    let t = Instant::now();
    let mut fs = WormFs::new(WormDevice::new(BLOCK_SIZE));
    let file = fs
        .create("micro/appends", u64::MAX)
        .map_err(|e| e.to_string())?;
    for chunk in bytes.chunks(POSTING_SIZE) {
        fs.append(file, chunk).map_err(|e| e.to_string())?;
    }
    let kib = bytes.len() as f64 / 1024.0;
    v.set(
        "worm.append_ns_per_kib",
        t.elapsed().as_nanos() as f64 / kib,
        bytes.len() / POSTING_SIZE,
    );
    let blocks = fs.num_blocks(file);
    let (ns, n) = per_op(blocks as usize, || {
        for b in 0..blocks {
            black_box(
                fs.read_block(file, black_box(b))
                    .map(<[u8]>::len)
                    .unwrap_or(0),
            );
        }
    });
    v.set("worm.read_block_ns", ns, n);
    let (ns, n) = per_op(1, || {
        black_box(sha256(black_box(&bytes)));
    });
    v.set(
        "worm.sha256_mib_per_s",
        bytes.len() as f64 / (1 << 20) as f64 / (ns / 1e9),
        n,
    );
    Ok(())
}

/// One commit's worth of chain work per document: absorb the header,
/// the text and every posting, seal the link, advance the head.
pub fn chain_seal(docs: &[Doc], v: &mut Values) -> Result<(), String> {
    let docs = &docs[..docs.len().min(CHAIN_DOCS)];
    let tokenised: Vec<Vec<(String, u32)>> = docs.iter().map(|d| term_counts(&d.text)).collect();
    let mut chain = CommitChain::new();
    let t = Instant::now();
    for (i, (d, terms)) in docs.iter().zip(&tokenised).enumerate() {
        let len: u64 = terms.iter().map(|&(_, tf)| u64::from(tf)).sum();
        chain.absorb_commit_header(i as u64, d.ts.0, len);
        chain.absorb_text(Some(d.text.as_bytes()));
        for (j, (name, tf)) in terms.iter().enumerate() {
            chain.absorb_term(j as u32, Some(name), (*tf).min(255) as u8);
        }
        let link = chain.seal(i as u64 + 1);
        chain.advance(&link).map_err(|e| e.to_string())?;
    }
    v.set(
        "worm.chain_seal_ns",
        t.elapsed().as_nanos() as f64 / docs.len().max(1) as f64,
        docs.len(),
    );
    black_box(chain.head());
    Ok(())
}

/// Flip one byte at evenly spread positions of a persisted image; every
/// flipped copy must be refused.  Returns the refusals.
pub fn tamper_rejects(image: &PartsImage) -> (usize, usize) {
    let mut rejected = 0;
    for i in 0..TAMPER_FLIPS {
        let mut copy = image.docs.clone();
        let at = (i * 2 + 1) * copy.len() / (TAMPER_FLIPS * 2);
        copy[at] ^= 0x5A;
        if load_fs(&copy).is_err() {
            rejected += 1;
        }
    }
    (rejected, TAMPER_FLIPS)
}

/// Recover shard 0's primary image alone, timed without the load.
pub fn recover_one(
    image: &PartsImage,
    config: &EngineConfig,
    v: &mut Values,
) -> Result<(), String> {
    let parts = archive::load_parts(image)?;
    let t = Instant::now();
    let engine = SearchEngine::recover(parts, config.clone()).map_err(|e| e.to_string())?;
    v.set(
        "core.recover_ms_per_shard",
        t.elapsed().as_secs_f64() * 1e3,
        1,
    );
    black_box(engine.num_docs());
    Ok(())
}

/// Queue the first documents' replication entries on a fresh engine,
/// then time draining them onto the replica.
pub fn replica_drain(docs: &[Doc], config: &EngineConfig, v: &mut Values) -> Result<(), String> {
    let mut engine = SearchEngine::new(config.clone()).map_err(|e| e.to_string())?;
    let set = Arc::new(ReplicaSet::new(fresh_images(&engine, 1), ApplyMode::Queued));
    attach(&mut engine, &set);
    for d in &docs[..docs.len().min(DRAIN_DOCS)] {
        engine
            .add_document(&d.text, d.ts)
            .map_err(|e| e.to_string())?;
    }
    let queued: usize = set.statuses().iter().map(|s| s.queued).sum();
    let t = Instant::now();
    set.drain_all();
    let secs = t.elapsed().as_secs_f64();
    let status = set.statuses();
    if status
        .iter()
        .any(|s| s.queued != 0 || s.quarantined.is_some())
    {
        return Err("queued replica did not drain cleanly".to_string());
    }
    v.set(
        "replica.drain_entries_per_s",
        queued as f64 / secs.max(1e-9),
        queued,
    );
    Ok(())
}

/// The commit ladder: the same documents through each public commit
/// boundary, outermost first.  Differences between neighbouring rungs
/// are the self time of the layer between them.
pub fn commit_ladder(
    docs: &[Doc],
    config: &EngineConfig,
    tr: &mut Tracer,
    v: &mut Values,
) -> Result<(), String> {
    let p50_us = |ns: &[u64]| summarize_ns(ns, 1e3).p50;
    let n = docs.len();

    // Rungs 1 and 2: `ShardedWriter::commit`, replicas attached and not.
    let mut attached = archive::create(config, REPLICAS)?;
    let (ns_attached, _, _) = tr.time("shard.commit.replicated", None, 0, || {
        archive::commit_all(&mut attached.writer, docs)
    });
    let ns_attached = ns_attached?;
    let quarantined: usize = attached
        .sets
        .iter()
        .flat_map(|s| s.statuses())
        .filter(|s| s.quarantined.is_some())
        .count();
    v.set(
        "replica.quarantined",
        quarantined as f64,
        attached.sets.len(),
    );
    drop(attached);
    let mut detached = archive::create(config, 0)?;
    let (ns_detached, _, _) = tr.time("shard.commit.detached", None, 0, || {
        archive::commit_all(&mut detached.writer, docs)
    });
    let ns_detached = ns_detached?;
    drop(detached);

    // Rung 3: each shard's `IndexWriter::commit`, routed by the harness.
    let router = ShardRouter::new(SHARDS).map_err(|e| e.to_string())?;
    let new_writers = || -> Result<Vec<IndexWriter>, String> {
        (0..SHARDS)
            .map(|_| {
                SearchEngine::new(config.clone())
                    .map(|e| tks_core::service(e).0)
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    let mut writers = new_writers()?;
    let mut ns_core = Vec::with_capacity(n);
    let start = Instant::now();
    for d in docs {
        let w = &mut writers[router.route_text(&d.text) as usize];
        let t = Instant::now();
        w.commit(&d.text, d.ts).map_err(|e| e.to_string())?;
        ns_core.push(t.elapsed().as_nanos() as u64);
    }
    tr.record("core.commit", start, Instant::now(), None, 0);

    // Rung 4: `IndexWriter::commit_terms`, tokenised and interned by the
    // harness in the engine's own order (tokens sorted within a
    // document, ids in order of first appearance per shard).
    let mut writers = new_writers()?;
    let mut dicts: Vec<std::collections::HashMap<String, u32>> =
        (0..SHARDS).map(|_| Default::default()).collect();
    let prepared: Vec<(usize, Vec<(TermId, u32)>)> = docs
        .iter()
        .map(|d| {
            let shard = router.route_text(&d.text) as usize;
            let dict = &mut dicts[shard];
            let mut terms: Vec<(TermId, u32)> = term_counts(&d.text)
                .into_iter()
                .map(|(tok, tf)| {
                    let next = dict.len() as u32;
                    (TermId(*dict.entry(tok).or_insert(next)), tf)
                })
                .collect();
            terms.sort_unstable_by_key(|&(t, _)| t);
            (shard, terms)
        })
        .collect();
    let mut ns_terms = Vec::with_capacity(n);
    let start = Instant::now();
    for (d, (shard, terms)) in docs.iter().zip(&prepared) {
        let t = Instant::now();
        writers[*shard]
            .commit_terms(terms, d.ts, Some(&d.text))
            .map_err(|e| e.to_string())?;
        ns_terms.push(t.elapsed().as_nanos() as u64);
    }
    tr.record("core.commit_terms", start, Instant::now(), None, 0);

    v.set("shard.commit_us", p50_us(&ns_detached), n);
    v.set(
        "replica.apply_us_per_commit",
        p50_us(&ns_attached) - p50_us(&ns_detached),
        n,
    );
    v.set("core.commit_terms_us", p50_us(&ns_terms), n);
    v.set("core.tokenise_us", p50_us(&ns_core) - p50_us(&ns_terms), n);
    Ok(())
}
