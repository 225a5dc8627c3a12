//! The durable archive directory: open (manifest → load → recover →
//! service) and save, the one path every `tks` verb goes through.
//!
//! ```text
//! ARCHIVE/
//!   shards.json      # {"shards": N, "replicas": R, "config": EngineConfig}
//!   shard-0000/      # one complete image set per shard
//!     store.worm     # posting lists, tag dictionary, store header
//!     docs.worm      # record text, term dictionary, document metadata
//!     positions.worm # positional configs only
//!     replica-0/     # replicated archives only: one full image set
//!       store.worm   # per replica, chain-verified against the primary
//!       docs.worm
//!       positions.worm
//!     replica-1/
//!   shard-0001/
//!   ...
//! ```
//!
//! A directory written before sharding existed (`config.json` plus the
//! image set at the root, no `shards.json`) opens and saves in place as
//! a one-shard, zero-replica archive whose image directory is the root.
//!
//! Every [`open`] runs **per-shard** recovery (paper §2.3: recovery
//! trusts committed structures, never markers or logs): each shard's
//! primary and replica images are reloaded and structurally re-verified
//! independently.  A replica with a longer verified commit-chain prefix
//! is *promoted* over a failed or chain-mismatched primary (persisted as
//! the new primary on the next write), replicas matching the chosen
//! engine's exact trust state serve reads, and a shard with no
//! recoverable image comes up *degraded* — reported on stderr, excluded
//! from answers, its images left untouched on disk — while the surviving
//! shards keep serving.  Writes re-attach the replication taps, so every
//! committed mutation fans out to the replica images before [`save`]
//! persists them; a quarantined or missing replica is re-seeded from the
//! primary through the same chain-verified catch-up path.
//!
//! [`save`]: ArchiveWriter::save

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tks_core::engine::{EngineConfig, EngineParts, SearchEngine};
use tks_postings::{DocId, Timestamp};
use tks_replica::{attach, detach, fresh_images, ApplyMode, ReplicaSet};
use tks_shard::{ReplicatedShardParts, ShardRecovery, ShardedArchive, ShardedWriter};
use tks_worm::{discover_shard_dirs, load_fs, save_fs, shard_dir_name};

use crate::CliResult;

/// The archive manifest persisted as `shards.json`: the shard count is
/// part of the archive's identity (routing is `hash % shards`, so the
/// count can never change after init) and every shard runs one copy of
/// the same engine configuration.
#[derive(serde::Serialize, serde::Deserialize)]
pub(crate) struct Manifest {
    pub shards: u32,
    /// Replica images per shard (0 = unreplicated; absent in archives
    /// initialised before replication existed).
    #[serde(default)]
    pub replicas: u32,
    pub config: EngineConfig,
}

/// Shard id → image directory (index = shard id): the only
/// layout-aware code.  A legacy archive is one shard at the root.
fn image_dirs(root: &Path, legacy: bool, shards: u32) -> Vec<PathBuf> {
    if legacy {
        return vec![root.to_path_buf()];
    }
    (0..shards).map(|s| root.join(shard_dir_name(s))).collect()
}

/// A replica's image directory inside its shard's image directory.
pub(crate) fn replica_dir_name(replica: usize) -> String {
    format!("replica-{replica}")
}

/// Read the manifest and locate every shard's image directory.
fn read_manifest(root: &Path) -> CliResult<(Manifest, Vec<PathBuf>)> {
    let sharded = root.join("shards.json");
    let legacy = !sharded.exists() && root.join("config.json").exists();
    let manifest = if legacy {
        let config = serde_json::from_str(&std::fs::read_to_string(root.join("config.json"))?)?;
        Manifest {
            shards: 1,
            replicas: 0,
            config,
        }
    } else {
        let manifest: Manifest = serde_json::from_str(&std::fs::read_to_string(sharded)?)?;
        let present = discover_shard_dirs(root)?.len();
        if present != manifest.shards as usize {
            return Err(format!(
                "archive manifest names {} shard(s) but {present} shard director{} present",
                manifest.shards,
                if present == 1 { "y is" } else { "ies are" }
            )
            .into());
        }
        manifest
    };
    let dirs = image_dirs(root, legacy, manifest.shards);
    Ok((manifest, dirs))
}

/// An archive read back from disk and recovered.
pub(crate) struct Opened {
    pub archive: ShardedArchive,
    pub recoveries: Vec<ShardRecovery>,
    pub manifest: Manifest,
    image_dirs: Vec<PathBuf>,
}

/// Create a fresh archive directory of empty shards.
pub(crate) fn create(root: &Path, manifest: Manifest) -> CliResult {
    if root.join("shards.json").exists() || root.join("config.json").exists() {
        return Err(format!("archive already exists at {}", root.display()).into());
    }
    std::fs::create_dir_all(root)?;
    let json = serde_json::to_string_pretty(&manifest)?;
    let fresh = Opened {
        archive: ShardedArchive::create(manifest.config.clone(), manifest.shards)?,
        recoveries: Vec::new(),
        image_dirs: image_dirs(root, false, manifest.shards),
        manifest,
    };
    fresh.into_writer().save()?;
    std::fs::write(root.join("shards.json"), json)?;
    Ok(())
}

/// Reload and recover every shard from its primary and replica images.
/// Promotions and degraded shards are reported on stderr; the archive
/// keeps serving from the healthy shards.
pub(crate) fn open(root: &Path) -> CliResult<Opened> {
    let (manifest, image_dirs) = read_manifest(root)?;
    let config = &manifest.config;
    // An unreadable or corrupt candidate arrives as `Err`: recovery
    // promotes a verified replica over a lost primary, and degrades
    // *this shard only* when nothing verifies.
    let parts = image_dirs
        .iter()
        .map(|d| ReplicatedShardParts {
            primary: load_parts(d, config),
            replicas: (0..manifest.replicas as usize)
                .map(|r| load_parts(&d.join(replica_dir_name(r)), config))
                .collect(),
        })
        .collect();
    let (archive, recoveries) = ShardedArchive::recover_replicated(parts, config.clone())?;
    report_recoveries(&recoveries);
    Ok(Opened {
        archive,
        recoveries,
        manifest,
        image_dirs,
    })
}

/// [`open`] for verbs that answer from or write to the archive: with
/// every shard degraded there is nothing to serve, and the recovery
/// errors are the answer.
pub(crate) fn open_serving(root: &Path) -> CliResult<Opened> {
    let opened = open(root)?;
    let degraded = opened.archive.degraded();
    if degraded.len() == opened.archive.shards() as usize {
        let reasons: Vec<String> = degraded
            .iter()
            .map(|(shard, reason)| format!("shard {shard}: {reason}"))
            .collect();
        return Err(format!("no shard recovered — {}", reasons.join("; ")).into());
    }
    Ok(opened)
}

/// One image directory → `EngineParts` (or why it could not be loaded).
fn load_parts(image_dir: &Path, config: &EngineConfig) -> Result<EngineParts, String> {
    let load = |name: &str| {
        let bytes = std::fs::read(image_dir.join(name))
            .map_err(|e| format!("{}/{name}: {e}", image_dir.display()))?;
        load_fs(&bytes).map_err(|e| e.to_string())
    };
    Ok(EngineParts {
        store_fs: load("store.worm")?,
        doc_fs: load("docs.worm")?,
        pos_fs: if config.positional {
            Some(load("positions.worm")?)
        } else {
            None
        },
    })
}

fn report_recoveries(recoveries: &[ShardRecovery]) {
    for r in recoveries {
        if let Some(reason) = &r.error {
            eprintln!(
                "warning: shard {} is DEGRADED and will not be consulted: {reason}",
                r.shard
            );
        } else if r.quarantined_bytes > 0 {
            eprintln!(
                "note: shard {} quarantined {} torn-commit residue byte(s) during recovery",
                r.shard, r.quarantined_bytes
            );
        }
        if let Some(promoted) = r.promoted_from {
            eprintln!(
                "note: shard {} PROMOTED replica {promoted} over its primary \
                 (longest verified chain prefix; persisted as the new primary on the next write)",
                r.shard
            );
        }
        for v in &r.replicas {
            if let Some(err) = &v.error {
                eprintln!(
                    "warning: shard {} replica {} unusable: {err}",
                    r.shard, v.replica
                );
            }
        }
    }
}

/// An archive opened for writing: the sharded writer plus, per healthy
/// shard, the live replica fan-out (`None` for degraded shards, which
/// keep their on-disk replica images untouched for the next recovery).
pub(crate) struct ArchiveWriter {
    pub writer: ShardedWriter,
    sets: Vec<Option<Arc<ReplicaSet>>>,
    image_dirs: Vec<PathBuf>,
}

impl Opened {
    /// Split into the service and rebuild one live [`ReplicaSet`] per
    /// healthy shard from the recovered standbys.
    pub(crate) fn into_writer(mut self) -> ArchiveWriter {
        let standbys = self.archive.take_standbys();
        let (mut writer, searcher) = self.archive.into_service();
        drop(searcher);
        let sets = attach_replica_sets(&mut writer, standbys, self.manifest.replicas);
        ArchiveWriter {
            writer,
            sets,
            image_dirs: self.image_dirs,
        }
    }
}

/// Attach one inline-mode [`ReplicaSet`] of `replicas` images to every
/// healthy shard.  A recovered standby keeps its devices (catch-up is a
/// no-op diff); a replica slot with no surviving standby — quarantined,
/// lagging, or promoted into the primary role — is re-seeded with fresh
/// devices and caught up from the primary through [`attach`].
fn attach_replica_sets(
    writer: &mut ShardedWriter,
    standbys: Vec<Vec<(usize, Box<SearchEngine>)>>,
    replicas: u32,
) -> Vec<Option<Arc<ReplicaSet>>> {
    let mut sets = Vec::with_capacity(standbys.len());
    for (sid, survivors) in standbys.into_iter().enumerate() {
        if replicas == 0 {
            sets.push(None);
            continue;
        }
        let mut by_index: Vec<Option<EngineParts>> = (0..replicas as usize).map(|_| None).collect();
        for (r, engine) in survivors {
            if let Some(slot) = by_index.get_mut(r) {
                *slot = Some(engine.into_parts());
            }
        }
        let attached = writer.with_engine(sid as u32, move |engine| {
            let missing = by_index.iter().filter(|s| s.is_none()).count();
            let mut fresh = fresh_images(engine, missing).into_iter();
            let images: Vec<EngineParts> = by_index
                .into_iter()
                .filter_map(|slot| slot.or_else(|| fresh.next()))
                .collect();
            let set = Arc::new(ReplicaSet::new(images, ApplyMode::Inline));
            attach(engine, &set);
            set
        });
        // A degraded shard gets no live replication; its replica images
        // stay on disk untouched (they may be the only evidence left).
        sets.push(attached.ok());
    }
    sets
}

impl ArchiveWriter {
    /// The commit-time floor across live shards: each shard enforces its
    /// own monotone commit times, so new documents are committed at no
    /// less than the newest timestamp on *any* shard (commit times stay
    /// comparable archive-wide; backdating is impossible by design).
    pub(crate) fn head(&mut self) -> Timestamp {
        let mut floor = Timestamp(0);
        for shard in 0..self.writer.shards() {
            let ts = self.writer.with_engine(shard, |e| match e.num_docs() {
                0 => Timestamp(0),
                n => e.document_timestamp(DocId(n - 1)).unwrap_or(Timestamp(0)),
            });
            if let Ok(ts) = ts {
                floor = floor.max(ts);
            }
        }
        floor
    }

    /// Persist every live shard's images (temp + rename per file, so a
    /// crash mid-save leaves the previous committed images intact).
    /// Degraded shards are skipped: their on-disk images stay exactly as
    /// found, as evidence.  Replica sets are detached, reclaimed, and
    /// their images persisted under the shard's `replica-R/`.
    pub(crate) fn save(mut self) -> CliResult {
        for (sid, set) in self.sets.iter().enumerate() {
            if set.is_some() {
                // Drop the taps' references so the set can be reclaimed.
                let _ = self.writer.with_engine(sid as u32, detach);
            }
        }
        let engines = self
            .writer
            .try_into_engines()
            .map_err(|_| "archive still has live searcher handles")?;
        for ((sid, image_dir), (engine, set)) in self
            .image_dirs
            .iter()
            .enumerate()
            .zip(engines.into_iter().zip(self.sets))
        {
            if let Some(engine) = engine {
                save_images(image_dir, &engine.into_parts())?;
            }
            let Some(set) = set else { continue };
            let images = ReplicaSet::reclaim(set)
                .map_err(|_| "replica set still has live tap references")?;
            for (r, (parts, fault)) in images.into_iter().enumerate() {
                if let Some(fault) = &fault {
                    eprintln!(
                        "warning: shard {sid} replica {r} quarantined during this run \
                         (persisting its image as-is): {fault}"
                    );
                }
                save_images(&image_dir.join(replica_dir_name(r)), &parts)?;
            }
        }
        Ok(())
    }
}

/// One image set (primary or replica) → `store.worm` / `docs.worm` /
/// `positions.worm` in `image_dir`, temp + rename per file.
fn save_images(image_dir: &Path, parts: &EngineParts) -> CliResult {
    std::fs::create_dir_all(image_dir)?;
    let mut images = vec![
        ("store.worm", save_fs(&parts.store_fs)?),
        ("docs.worm", save_fs(&parts.doc_fs)?),
    ];
    if let Some(fs) = &parts.pos_fs {
        images.push(("positions.worm", save_fs(fs)?));
    }
    for (name, img) in images {
        let tmp = image_dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, img)?;
        std::fs::rename(&tmp, image_dir.join(name))?;
    }
    Ok(())
}
