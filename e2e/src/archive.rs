//! The shared archive shape and its life cycle: ingest with inline
//! replication, persist every device to bytes, recover through the
//! replicated failover path.  Every workload builds its archive here,
//! the way `tks archive` and `tks serve` do, so every workload also
//! yields the commit, space and recovery numbers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tks_core::engine::EngineParts;
use tks_core::{EngineConfig, MergeAssignment, SearchEngine};
use tks_jump::JumpConfig;
use tks_postings::TermId;
use tks_replica::{attach, detach, fresh_images, ApplyMode, ReplicaSet};
use tks_shard::{
    ReplicatedShardParts, ShardRecovery, ShardedArchive, ShardedSearcher, ShardedWriter,
};
use tks_worm::{load_fs, save_fs, ChainHead, IoStats, WormFs};

use crate::inputs::{Doc, VOCAB};

pub const SHARDS: u32 = 2;
pub const REPLICAS: usize = 1;
/// `at_scale`'s reduced-tier geometry: the 500 document-popular head
/// terms keep private lists, the tail hashes into 768 merged lists.
const HEAD_LISTS: u32 = 500;
const TAIL_LISTS: u32 = 768;
pub const BLOCK_SIZE: usize = 256;
/// How often `persist` asks again for the engines, a millisecond apart.
const HANDLE_RELEASE_TRIES: u32 = 100;
/// The simulated storage cache of every engine: a sixth of a shard's
/// posting lists and about 1.6 times the tail blocks of its 1,268 lists,
/// which is just above the knee of the paper's curve of I/Os per
/// document against cache size (section 3).  Measured at
/// this archive size, random I/Os per committed document are 0.66 from
/// 1 MiB up (`EngineConfig::default()` has 4 MiB), 1.2 here, 17 at
/// 256 KiB: the paper's "about one" holds only while the merged lists'
/// tails stay resident, and here the cache decides it.
pub const CACHE_BYTES: u64 = 512 << 10;

/// One `EngineConfig` for all workloads.  Jump indexes are on, with the
/// geometry `tks archive init` picks (B = 32 in blocks of at least
/// 2 KiB), so conjunctive queries take the paper's zigzag path and
/// every commit pays the jump update.
pub fn engine_config() -> EngineConfig {
    let head: Vec<TermId> = (0..HEAD_LISTS).map(TermId).collect();
    EngineConfig {
        block_size: BLOCK_SIZE,
        cache_bytes: CACHE_BYTES,
        assignment: MergeAssignment::popular_unmerged(
            &head,
            HEAD_LISTS as usize,
            HEAD_LISTS + TAIL_LISTS,
            VOCAB,
        ),
        jump: Some(JumpConfig::new(BLOCK_SIZE.max(2048), 32, 1 << 32)),
        store_documents: true,
        ..EngineConfig::default()
    }
}

/// A live archive with one inline replica set attached per shard.
pub struct Live {
    pub writer: ShardedWriter,
    pub sets: Vec<Arc<ReplicaSet>>,
}

/// A fresh archive, replicas attached (none when `replicas == 0`).
pub fn create(config: &EngineConfig, replicas: usize) -> Result<Live, String> {
    let archive = ShardedArchive::create(config.clone(), SHARDS).map_err(|e| e.to_string())?;
    let (mut writer, searcher) = archive.into_service();
    drop(searcher);
    let mut sets = Vec::new();
    if replicas > 0 {
        for sid in 0..SHARDS {
            let set = writer
                .with_engine(sid, |engine| {
                    let set = Arc::new(ReplicaSet::new(
                        fresh_images(engine, replicas),
                        ApplyMode::Inline,
                    ));
                    attach(engine, &set);
                    set
                })
                .map_err(|e| e.to_string())?;
            sets.push(set);
        }
    }
    Ok(Live { writer, sets })
}

/// Commit `docs` one at a time (the paper's real-time index update) and
/// return each commit's latency in nanoseconds.
pub fn commit_all(writer: &mut ShardedWriter, docs: &[Doc]) -> Result<Vec<u64>, String> {
    let mut ns = Vec::with_capacity(docs.len());
    for d in docs {
        let t = Instant::now();
        writer.commit(&d.text, d.ts).map_err(|e| e.to_string())?;
        ns.push(t.elapsed().as_nanos() as u64);
    }
    Ok(ns)
}

/// What the primaries' devices and storage caches say after an ingest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Footprint {
    pub docs: u64,
    pub io: IoStats,
    /// Bytes per structure, summed over the primaries: posting lists,
    /// the tag dictionary and header beside them, stored record text,
    /// term dictionary, commit chain, DOCMETA.
    pub list_bytes: u64,
    pub store_meta_bytes: u64,
    pub text_bytes: u64,
    pub terms_bytes: u64,
    pub chain_bytes: u64,
    pub docmeta_bytes: u64,
    pub heads: Vec<ChainHead>,
}

impl Footprint {
    pub fn total_bytes(&self) -> u64 {
        self.list_bytes
            + self.store_meta_bytes
            + self.text_bytes
            + self.terms_bytes
            + self.chain_bytes
            + self.docmeta_bytes
    }
}

fn file_bytes(fs: &WormFs, mut pick: impl FnMut(&str) -> bool) -> u64 {
    fs.export_file_table()
        .iter()
        .filter(|f| pick(&f.name))
        .map(|f| f.len)
        .sum()
}

pub fn footprint(writer: &mut ShardedWriter) -> Result<Footprint, String> {
    let mut fp = Footprint::default();
    for sid in 0..writer.shards() {
        writer
            .with_engine(sid, |e| {
                let store = e.list_store().fs();
                let lists = file_bytes(store, |n| n.starts_with("lists/"));
                fp.docs += e.num_docs();
                fp.io += e.io_stats();
                fp.list_bytes += lists;
                fp.store_meta_bytes += file_bytes(store, |_| true) - lists;
                fp.text_bytes += file_bytes(e.doc_fs(), |n| n.starts_with("docs/"));
                fp.terms_bytes += file_bytes(e.doc_fs(), |n| n == "engine/terms");
                fp.chain_bytes += file_bytes(e.doc_fs(), |n| n == "engine/chain");
                fp.docmeta_bytes += file_bytes(e.doc_fs(), |n| n == "engine/docmeta");
                fp.heads.push(e.chain_head());
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(fp)
}

/// One engine's devices as persisted bytes.
pub struct PartsImage {
    pub store: Vec<u8>,
    pub docs: Vec<u8>,
}

pub struct ShardImage {
    pub primary: PartsImage,
    pub replicas: Vec<PartsImage>,
}

fn save_parts(parts: &EngineParts) -> Result<PartsImage, String> {
    Ok(PartsImage {
        store: save_fs(&parts.store_fs).map_err(|e| e.to_string())?,
        docs: save_fs(&parts.doc_fs).map_err(|e| e.to_string())?,
    })
}

pub fn load_parts(image: &PartsImage) -> Result<EngineParts, String> {
    Ok(EngineParts {
        store_fs: load_fs(&image.store).map_err(|e| e.to_string())?,
        doc_fs: load_fs(&image.docs).map_err(|e| e.to_string())?,
        pos_fs: None,
    })
}

/// Shut the archive down to its devices and persist every primary and
/// replica device to bytes.  Fails if a replica faulted during ingest.
pub fn persist(live: Live) -> Result<Vec<ShardImage>, String> {
    let Live { mut writer, sets } = live;
    for sid in 0..writer.shards() {
        writer.with_engine(sid, detach).map_err(|e| e.to_string())?;
    }
    // A scatter worker lets go of its searcher handle just after it has
    // sent its answer, so the last query before a shutdown can still be
    // holding one; the writer comes back intact and is asked again.
    let mut tries = 0;
    let engines: Vec<Option<SearchEngine>> = loop {
        match writer.try_into_engines() {
            Ok(engines) => break engines,
            Err(_) if tries == HANDLE_RELEASE_TRIES => {
                return Err("archive still has live searcher handles".to_string())
            }
            Err(back) => {
                writer = back;
                tries += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let mut sets = sets.into_iter();
    let mut images = Vec::new();
    for engine in engines {
        let engine = engine.ok_or("a shard degraded during ingest")?;
        let primary = save_parts(&engine.into_parts())?;
        let mut replicas = Vec::new();
        if let Some(set) = sets.next() {
            let reclaimed =
                ReplicaSet::reclaim(set).map_err(|_| "replica set still tapped".to_string())?;
            for (parts, fault) in reclaimed {
                if let Some(fault) = fault {
                    return Err(format!("replication faulted: {fault}"));
                }
                replicas.push(save_parts(&parts)?);
            }
        }
        images.push(ShardImage { primary, replicas });
    }
    Ok(images)
}

pub fn image_bytes(images: &[ShardImage]) -> u64 {
    let parts = |p: &PartsImage| (p.store.len() + p.docs.len()) as u64;
    images
        .iter()
        .map(|s| parts(&s.primary) + s.replicas.iter().map(parts).sum::<u64>())
        .sum()
}

/// Persisted bytes back to a recovered archive: `load_fs` every device,
/// then `ShardedArchive::recover_replicated` (chain recomputed and
/// verified per image).  Returns the load and recover shares of the time.
pub fn recover(
    images: &[ShardImage],
    config: &EngineConfig,
) -> Result<(ShardedArchive, Vec<ShardRecovery>, Duration, Duration), String> {
    let t = Instant::now();
    let mut shards = Vec::with_capacity(images.len());
    for image in images {
        shards.push(ReplicatedShardParts {
            primary: load_parts(&image.primary),
            replicas: image.replicas.iter().map(load_parts).collect(),
        });
    }
    let loaded = t.elapsed();
    let t = Instant::now();
    let (archive, recoveries) =
        ShardedArchive::recover_replicated(shards, config.clone()).map_err(|e| e.to_string())?;
    Ok((archive, recoveries, loaded, t.elapsed()))
}

/// What a healthy replicated recovery must look like; each violation is
/// one failed check.
pub fn recovery_violations(recoveries: &[ShardRecovery], want_heads: &[ChainHead]) -> Vec<String> {
    let mut bad = Vec::new();
    for (r, want) in recoveries.iter().zip(want_heads) {
        if let Some(e) = &r.error {
            bad.push(format!("shard {} degraded: {e}", r.shard));
            continue;
        }
        if r.promoted_from.is_some() {
            bad.push(format!(
                "shard {} promoted a replica over a healthy primary",
                r.shard
            ));
        }
        if r.quarantined_bytes != 0 {
            bad.push(format!(
                "shard {} quarantined {} bytes",
                r.shard, r.quarantined_bytes
            ));
        }
        match &r.report {
            Some(report) => {
                if let Some(m) = &report.chain_mismatch {
                    bad.push(format!("shard {} chain mismatch: {m}", r.shard));
                }
                if report.chain_head != *want {
                    bad.push(format!("shard {} recovered another chain head", r.shard));
                }
            }
            None => bad.push(format!("shard {} has no recovery report", r.shard)),
        }
        for v in &r.replicas {
            if !v.verified || v.chain_head != Some(*want) {
                bad.push(format!(
                    "shard {} replica {} did not verify",
                    r.shard, v.replica
                ));
            }
        }
    }
    if recoveries.len() != want_heads.len() {
        bad.push("recovered shard count differs".to_string());
    }
    bad
}

/// Per-shard eligible standby counts as the read rotation sees them.
pub fn eligible_standbys(searcher: &ShardedSearcher) -> Vec<usize> {
    (0..searcher.shards())
        .map(|s| searcher.eligible_replicas(s))
        .collect()
}
