//! Deterministic schedule-permutation race tests ("loom-lite").
//!
//! Each test drives the real concurrency types — [`AtomicIoStats`] and the
//! `IndexWriter`/`Searcher` service — through hundreds of seeded
//! interleavings of virtual-thread operations (see `sched/mod.rs`).
//! Any violated invariant reports the exact seed, so a failure here is
//! reproducible by construction: re-run the test and the same seed fails
//! the same way.

mod sched;

use sched::{explore, interleave, Step};
use tks_core::{service, EngineConfig, IndexWriter, Query, SearchEngine, Searcher};
use tks_postings::types::Timestamp;
use tks_replica::{attach, detach, fresh_images, recover_shard, ApplyMode, ReplicaSet};
use tks_shard::{shard_of, QuerySession, ShardedArchive, ShardedSearcher, ShardedWriter};
use tks_worm::{AtomicIoStats, ChainHead, FaultPolicy, IoStats};

const SCHEDULES: u64 = 160;

fn small_engine() -> SearchEngine {
    SearchEngine::new(EngineConfig::default()).expect("default config is valid")
}

// ---------------------------------------------------------------------------
// AtomicIoStats: record / snapshot / reset under every interleaving.
// ---------------------------------------------------------------------------

struct StatsState {
    shared: AtomicIoStats,
    /// What the counters must read right now, updated in lockstep by every
    /// mutating op.
    model: IoStats,
    violations: Vec<String>,
}

fn delta(read_ios: u64, write_ios: u64, hits: u64, misses: u64) -> IoStats {
    IoStats {
        read_ios,
        write_ios,
        hits,
        misses,
    }
}

/// Two recorders, one snapshotter, one resetter.  The snapshot must always
/// equal the model exactly (ops are atomic at schedule granularity), which
/// pins down that `record` adds to every counter, `reset` zeroes every
/// counter, and `snapshot` reads them coherently.
fn stats_threads(with_reset: bool) -> (StatsState, Vec<Vec<Step<'static, StatsState>>>) {
    let state = StatsState {
        shared: AtomicIoStats::new(),
        model: IoStats::new(),
        violations: Vec::new(),
    };
    let recorder = |scale: u64| -> Vec<Step<'static, StatsState>> {
        (1..=5u64)
            .map(|i| {
                let d = delta(i * scale, i, i + scale, i % 2);
                Box::new(move |s: &mut StatsState| {
                    s.shared.record(d);
                    s.model += d;
                }) as Step<'static, StatsState>
            })
            .collect()
    };
    let snapshotter: Vec<Step<'static, StatsState>> = (0..5)
        .map(|_| {
            Box::new(|s: &mut StatsState| {
                let got = s.shared.snapshot();
                if got != s.model {
                    s.violations
                        .push(format!("snapshot {got:?} != model {:?}", s.model));
                }
            }) as Step<'static, StatsState>
        })
        .collect();
    let mut threads = vec![recorder(1), recorder(10), snapshotter];
    if with_reset {
        threads.push(
            (0..2)
                .map(|_| {
                    Box::new(|s: &mut StatsState| {
                        s.shared.reset();
                        s.model = IoStats::new();
                    }) as Step<'static, StatsState>
                })
                .collect(),
        );
    }
    (state, threads)
}

#[test]
fn stats_snapshots_agree_with_model_under_all_schedules() {
    let clean = explore(0xA11CE, SCHEDULES, |seed| {
        let (mut state, mut threads) = stats_threads(false);
        interleave(seed, &mut state, &mut threads);
        // Quiescent equality: once every op has run, the counters hold
        // exactly the sum of all recorded deltas.
        let end = state.shared.snapshot();
        if end != state.model {
            state
                .violations
                .push(format!("quiescent {end:?} != model {:?}", state.model));
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

#[test]
fn stats_reset_is_total_under_all_schedules() {
    explore(0xBEEF, SCHEDULES, |seed| {
        let (mut state, mut threads) = stats_threads(true);
        interleave(seed, &mut state, &mut threads);
        let end = state.shared.snapshot();
        if end != state.model {
            state
                .violations
                .push(format!("quiescent {end:?} != model {:?}", state.model));
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

#[test]
fn stats_snapshots_are_monotone_without_reset() {
    explore(0xCAFE, SCHEDULES, |seed| {
        let (mut state, mut threads) = stats_threads(false);
        let mut last = IoStats::new();
        // Append a monotonicity checker interleaved as a fourth thread.
        threads.push(
            (0..4)
                .map(|_| {
                    Box::new(move |s: &mut StatsState| {
                        let got = s.shared.snapshot();
                        if got.read_ios < last.read_ios
                            || got.write_ios < last.write_ios
                            || got.hits < last.hits
                            || got.misses < last.misses
                        {
                            s.violations
                                .push(format!("snapshot {got:?} went backwards from {last:?}"));
                        }
                        last = got;
                    }) as Step<'_, StatsState>
                })
                .collect(),
        );
        interleave(seed, &mut state, &mut threads);
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
}

// ---------------------------------------------------------------------------
// Watermark publication: IndexWriter commits vs Searcher reads.
// ---------------------------------------------------------------------------

struct WmState {
    writer: IndexWriter,
    searcher: Searcher,
    /// Documents committed so far (the model the watermark must track).
    committed: u64,
    /// Watermark seen by the previous reader op.
    last_seen: u64,
    /// `(watermark, handle)` captured by the pinning op.
    pinned: Option<(u64, Searcher)>,
    violations: Vec<String>,
}

impl WmState {
    fn check(&mut self, what: &str, cond: bool, detail: String) {
        if !cond {
            self.violations.push(format!("{what}: {detail}"));
        }
    }
}

const DOCS: u64 = 5;

fn wm_threads() -> (WmState, Vec<Vec<Step<'static, WmState>>>) {
    let (writer, searcher) = service(small_engine());
    let state = WmState {
        writer,
        searcher,
        committed: 0,
        last_seen: 0,
        pinned: None,
        violations: Vec::new(),
    };
    // Writer: commit DOCS documents that all contain the term "common".
    let writer_ops: Vec<Step<'static, WmState>> = (0..DOCS)
        .map(|i| {
            Box::new(move |s: &mut WmState| {
                match s
                    .writer
                    .commit(&format!("common record{i}"), Timestamp(1_000 + i))
                {
                    Ok(_) => s.committed += 1,
                    Err(e) => s.violations.push(format!("commit {i} failed: {e}")),
                }
            }) as Step<'static, WmState>
        })
        .collect();
    // Reader: watermark exactness + monotonicity + prefix visibility.
    let reader_ops: Vec<Step<'static, WmState>> = (0..6)
        .map(|_| {
            Box::new(|s: &mut WmState| {
                let seen = s.searcher.visible_docs();
                let (committed, last) = (s.committed, s.last_seen);
                s.check(
                    "watermark-exact",
                    seen == committed,
                    format!("visible {seen} but {committed} committed"),
                );
                s.check(
                    "watermark-monotone",
                    seen >= last,
                    format!("visible {seen} after seeing {last}"),
                );
                s.last_seen = seen;
                match s.searcher.execute(Query::disjunctive("common", usize::MAX)) {
                    Ok(resp) => {
                        let hits = resp.hits.len() as u64;
                        s.check(
                            "prefix-visibility",
                            hits == seen,
                            format!("{hits} hits at watermark {seen}"),
                        );
                    }
                    Err(e) => s.violations.push(format!("query failed: {e}")),
                }
            }) as Step<'static, WmState>
        })
        .collect();
    // Pinner: one op takes a pinned snapshot, later ops require it stable.
    let mut pin_ops: Vec<Step<'static, WmState>> = vec![Box::new(|s: &mut WmState| {
        let handle = s.searcher.pin();
        s.pinned = Some((handle.visible_docs(), handle));
    })];
    for _ in 0..3 {
        pin_ops.push(Box::new(|s: &mut WmState| {
            let Some((at, handle)) = s.pinned.take() else {
                return;
            };
            let now = handle.visible_docs();
            let hits = match handle.execute(Query::disjunctive("common", usize::MAX)) {
                Ok(resp) => resp.hits.len() as u64,
                Err(e) => {
                    s.violations.push(format!("pinned query failed: {e}"));
                    at
                }
            };
            s.check(
                "pin-stability",
                now == at && hits == at,
                format!("pinned at {at} but sees watermark {now} / {hits} hits"),
            );
            s.pinned = Some((at, handle));
        }));
    }
    (state, vec![writer_ops, reader_ops, pin_ops])
}

#[test]
fn watermark_invariants_hold_under_all_schedules() {
    let clean = explore(0xD0C5, SCHEDULES, |seed| {
        let (mut state, mut threads) = wm_threads();
        interleave(seed, &mut state, &mut threads);
        // Quiescent: every commit published, the full corpus visible.
        let end = state.searcher.visible_docs();
        if end != DOCS {
            state
                .violations
                .push(format!("quiescent watermark {end}, expected {DOCS}"));
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

// ---------------------------------------------------------------------------
// Decoded-block cache: cache hits must never change results across writer
// appends (tail-block growth invalidates by length, no writer → reader
// signalling).
// ---------------------------------------------------------------------------

struct CacheState {
    writer: IndexWriter,
    searcher: Searcher,
    committed: u64,
    violations: Vec<String>,
}

fn cache_threads() -> (CacheState, Vec<Vec<Step<'static, CacheState>>>) {
    let (writer, searcher) = service(small_engine());
    let state = CacheState {
        writer,
        searcher,
        committed: 0,
        violations: Vec::new(),
    };
    // Writer: every document matches the conjunctive query below, so the
    // correct answer at any point is exactly the committed prefix.
    let writer_ops: Vec<Step<'static, CacheState>> = (0..DOCS)
        .map(|i| {
            Box::new(move |s: &mut CacheState| {
                match s
                    .writer
                    .commit(&format!("common beta filler{i}"), Timestamp(3_000 + i))
                {
                    Ok(_) => s.committed += 1,
                    Err(e) => s.violations.push(format!("commit {i} failed: {e}")),
                }
            }) as Step<'static, CacheState>
        })
        .collect();
    // Reader: a conjunctive query runs the scan-merge path through the
    // decoded-block cache.  Each op executes it twice back to back — the
    // second run is served from blocks the first just decoded — and both
    // must agree with the committed prefix exactly.
    let reader_ops: Vec<Step<'static, CacheState>> = (0..6)
        .map(|_| {
            Box::new(|s: &mut CacheState| {
                let committed = s.committed;
                let cold = s.searcher.execute(Query::conjunctive("common beta"));
                let warm = s.searcher.execute(Query::conjunctive("common beta"));
                match (cold, warm) {
                    (Ok(a), Ok(b)) => {
                        if a.docs().len() as u64 != committed {
                            s.violations.push(format!(
                                "conjunctive saw {} docs with {committed} committed",
                                a.docs().len()
                            ));
                        }
                        if a.docs() != b.docs() {
                            s.violations
                                .push("cache-served re-execution changed the result".into());
                        }
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        s.violations.push(format!("conjunctive failed: {e}"))
                    }
                }
            }) as Step<'static, CacheState>
        })
        .collect();
    (state, vec![writer_ops, reader_ops])
}

#[test]
fn decoded_cache_results_track_appends_under_all_schedules() {
    let clean = explore(0xB10C, SCHEDULES, |seed| {
        let (mut state, mut threads) = cache_threads();
        interleave(seed, &mut state, &mut threads);
        // Quiescent: the full corpus matches.
        match state.searcher.execute(Query::conjunctive("common beta")) {
            Ok(resp) if resp.docs().len() as u64 == DOCS => {}
            Ok(resp) => state.violations.push(format!(
                "quiescent saw {} docs, expected {DOCS}",
                resp.docs().len()
            )),
            Err(e) => state
                .violations
                .push(format!("quiescent query failed: {e}")),
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

#[test]
fn decoded_cache_invalidates_grown_tail_blocks() {
    // Deterministic interleaving: read, append, read again.  The second
    // read must observe the new posting (length-based invalidation of the
    // cached tail decode) and the cache must record both the reuse and the
    // invalidation.
    let (mut writer, searcher) = service(small_engine());
    writer.commit("common one", Timestamp(1)).unwrap();
    let first = searcher.execute(Query::conjunctive("common")).unwrap();
    assert_eq!(first.docs().len(), 1);
    writer.commit("common two", Timestamp(2)).unwrap();
    let second = searcher.execute(Query::conjunctive("common")).unwrap();
    assert_eq!(
        second.docs().len(),
        2,
        "stale cached tail block served after append"
    );
    let stats = searcher.decoded_cache_stats();
    assert!(
        stats.invalidations >= 1,
        "tail growth must invalidate, got {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Writer crash mid-schedule: a seeded WORM fault kills a commit while
// readers and pinned snapshots are live, then the "rebooted" engine must
// recover to exactly the committed prefix.
// ---------------------------------------------------------------------------

struct CrashState {
    writer: IndexWriter,
    searcher: Searcher,
    /// Successful commits only — failed commits must publish nothing.
    committed: u64,
    pinned: Option<(u64, Searcher)>,
    violations: Vec<String>,
}

fn crash_threads(seed: u64) -> (CrashState, Vec<Vec<Step<'static, CrashState>>>) {
    let (mut writer, searcher) = service(small_engine());
    // Arm a seeded fault on the posting store mid-corpus: the SplitMix64
    // stream decides which append dies and whether bytes tear.
    writer.with_engine(|e| {
        e.list_store_mut()
            .fs_mut()
            .arm_faults(FaultPolicy::seeded(seed, 24));
    });
    let state = CrashState {
        writer,
        searcher,
        committed: 0,
        pinned: None,
        violations: Vec::new(),
    };
    let writer_ops: Vec<Step<'static, CrashState>> = (0..DOCS)
        .map(|i| {
            Box::new(move |s: &mut CrashState| {
                // A success after a failure is fine per se (healing
                // regimes recover); the reader and recovery invariants
                // below catch any resurrected quarantined bytes.  Failed
                // commits publish nothing — the invariant the readers
                // verify against `committed`.
                if s.writer
                    .commit(&format!("common record{i}"), Timestamp(5_000 + i))
                    .is_ok()
                {
                    s.committed += 1;
                }
            }) as Step<'static, CrashState>
        })
        .collect();
    // Reader: the watermark must track successful commits exactly even
    // while commits are dying mid-append.
    let reader_ops: Vec<Step<'static, CrashState>> = (0..6)
        .map(|_| {
            Box::new(|s: &mut CrashState| {
                let seen = s.searcher.visible_docs();
                if seen != s.committed {
                    s.violations.push(format!(
                        "watermark-exact: visible {seen} but {} committed",
                        s.committed
                    ));
                }
                match s.searcher.execute(Query::disjunctive("common", usize::MAX)) {
                    Ok(resp) => {
                        let hits = resp.hits.len() as u64;
                        if hits != seen {
                            s.violations.push(format!(
                                "prefix-visibility: {hits} hits at watermark {seen}"
                            ));
                        }
                    }
                    Err(e) => s.violations.push(format!("query failed: {e}")),
                }
            }) as Step<'static, CrashState>
        })
        .collect();
    // Pinner: snapshots taken before the crash stay valid afterwards.
    let mut pin_ops: Vec<Step<'static, CrashState>> = vec![Box::new(|s: &mut CrashState| {
        let handle = s.searcher.pin();
        s.pinned = Some((handle.visible_docs(), handle));
    })];
    for _ in 0..3 {
        pin_ops.push(Box::new(|s: &mut CrashState| {
            let Some((at, handle)) = s.pinned.take() else {
                return;
            };
            let now = handle.visible_docs();
            let hits = match handle.execute(Query::disjunctive("common", usize::MAX)) {
                Ok(resp) => resp.hits.len() as u64,
                Err(e) => {
                    s.violations.push(format!("pinned query failed: {e}"));
                    at
                }
            };
            if now != at || hits != at {
                s.violations.push(format!(
                    "pin-stability: pinned at {at} but sees watermark {now} / {hits} hits"
                ));
            }
            s.pinned = Some((at, handle));
        }));
    }
    (state, vec![writer_ops, reader_ops, pin_ops])
}

#[test]
fn writer_crash_keeps_watermark_and_pins_valid_then_recovery_converges() {
    let clean = explore(0xC8A5, SCHEDULES, |seed| {
        let (mut state, mut threads) = crash_threads(seed);
        interleave(seed, &mut state, &mut threads);
        let committed = state.committed;
        // Quiescent: drop every reader handle, reboot the engine from its
        // raw devices, and require convergence to the committed prefix.
        let CrashState {
            writer,
            searcher,
            mut violations,
            pinned,
            ..
        } = state;
        drop(searcher);
        drop(pinned);
        let engine = match writer.try_into_engine() {
            Ok(e) => e,
            Err(_) => return Err("searcher handles still pinned the engine".into()),
        };
        let mut parts = engine.into_parts();
        parts.store_fs.disarm_faults();
        if let Err(e) = parts.store_fs.crash_recover() {
            return Err(format!("crash_recover failed: {e}"));
        }
        match SearchEngine::recover(parts, EngineConfig::default()) {
            Ok(recovered) => {
                if recovered.num_docs() != committed {
                    violations.push(format!(
                        "recovered {} docs, {committed} committed",
                        recovered.num_docs()
                    ));
                }
                match recovered.execute(&Query::disjunctive("common", usize::MAX)) {
                    Ok(resp) => {
                        if resp.hits.len() as u64 != committed {
                            violations.push(format!(
                                "recovered engine returned {} hits, expected {committed}",
                                resp.hits.len()
                            ));
                        }
                    }
                    Err(e) => violations.push(format!("recovered query failed: {e}")),
                }
            }
            Err(e) => violations.push(format!("recovery failed: {e}")),
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

// ---------------------------------------------------------------------------
// Commit-chain heads under concurrency: a response's chain head must be a
// pure function of its watermark — the same watermark always carries the
// same head, pinned snapshots never change heads, watermark 0 carries the
// genesis head — and heads observed before a crash must match the
// recovered engine's heads at every surviving watermark.
// ---------------------------------------------------------------------------

struct ChainState {
    writer: IndexWriter,
    searcher: Searcher,
    committed: u64,
    /// First head observed at each watermark: once seen, that watermark
    /// may never answer with a different head.
    heads: std::collections::BTreeMap<u64, ChainHead>,
    pinned: Option<(u64, ChainHead, Searcher)>,
    violations: Vec<String>,
}

impl ChainState {
    fn observe(&mut self, watermark: u64, head: ChainHead, ctx: &str) {
        if watermark == 0 && head != ChainHead::genesis() {
            self.violations.push(format!(
                "{ctx}: watermark 0 carried non-genesis head {head}"
            ));
        }
        match self.heads.get(&watermark) {
            Some(first) if *first != head => self.violations.push(format!(
                "{ctx}: watermark {watermark} answered head {head} after {first}"
            )),
            Some(_) => {}
            None => {
                if self.heads.values().any(|h| *h == head) {
                    self.violations.push(format!(
                        "{ctx}: head {head} reused at a second watermark {watermark}"
                    ));
                }
                self.heads.insert(watermark, head);
            }
        }
    }
}

fn chain_threads(faults: Option<u64>) -> (ChainState, Vec<Vec<Step<'static, ChainState>>>) {
    let (mut writer, searcher) = service(small_engine());
    if let Some(seed) = faults {
        writer.with_engine(|e| {
            e.list_store_mut()
                .fs_mut()
                .arm_faults(FaultPolicy::seeded(seed, 24));
        });
    }
    let state = ChainState {
        writer,
        searcher,
        committed: 0,
        heads: std::collections::BTreeMap::new(),
        pinned: None,
        violations: Vec::new(),
    };
    let writer_ops: Vec<Step<'static, ChainState>> = (0..DOCS)
        .map(|i| {
            Box::new(move |s: &mut ChainState| {
                if s.writer
                    .commit(&format!("common record{i}"), Timestamp(9_000 + i))
                    .is_ok()
                {
                    s.committed += 1;
                }
            }) as Step<'static, ChainState>
        })
        .collect();
    let reader_ops: Vec<Step<'static, ChainState>> = (0..6)
        .map(|_| {
            Box::new(|s: &mut ChainState| {
                match s.searcher.execute(Query::disjunctive("common", usize::MAX)) {
                    Ok(resp) => s.observe(resp.visible_docs, resp.chain_head, "reader"),
                    Err(e) => s.violations.push(format!("query failed: {e}")),
                }
            }) as Step<'static, ChainState>
        })
        .collect();
    let mut pin_ops: Vec<Step<'static, ChainState>> = vec![Box::new(|s: &mut ChainState| {
        let handle = s.searcher.pin();
        match handle.execute(Query::disjunctive("common", usize::MAX)) {
            Ok(resp) => s.pinned = Some((resp.visible_docs, resp.chain_head, handle)),
            Err(e) => s.violations.push(format!("pin query failed: {e}")),
        }
    })];
    for _ in 0..3 {
        pin_ops.push(Box::new(|s: &mut ChainState| {
            let Some((at, head, handle)) = s.pinned.take() else {
                return;
            };
            match handle.execute(Query::disjunctive("common", usize::MAX)) {
                Ok(resp) => {
                    if resp.visible_docs != at || resp.chain_head != head {
                        s.violations.push(format!(
                            "pin-stability: pinned watermark {at} head {head}, later saw \
                             watermark {} head {}",
                            resp.visible_docs, resp.chain_head
                        ));
                    }
                }
                Err(e) => s.violations.push(format!("pinned query failed: {e}")),
            }
            s.pinned = Some((at, head, handle));
        }));
    }
    (state, vec![writer_ops, reader_ops, pin_ops])
}

#[test]
fn chain_heads_are_a_pure_function_of_the_watermark_under_all_schedules() {
    let clean = explore(0xC4A1, SCHEDULES, |seed| {
        let (mut state, mut threads) = chain_threads(None);
        interleave(seed, &mut state, &mut threads);
        // Monotone advancement: with DOCS successful commits there must be
        // one distinct head per watermark the readers saw, and the map is
        // keyed by watermark so distinctness was already enforced.
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

#[test]
fn chain_heads_observed_before_a_crash_survive_recovery() {
    let clean = explore(0xC4A2, SCHEDULES, |seed| {
        let (mut state, mut threads) = chain_threads(Some(seed));
        interleave(seed, &mut state, &mut threads);
        let ChainState {
            writer,
            searcher,
            committed,
            heads,
            pinned,
            mut violations,
        } = state;
        drop(searcher);
        drop(pinned);
        let engine = match writer.try_into_engine() {
            Ok(e) => e,
            Err(_) => return Err("searcher handles still pinned the engine".into()),
        };
        let mut parts = engine.into_parts();
        parts.store_fs.disarm_faults();
        if let Err(e) = parts.store_fs.crash_recover() {
            return Err(format!("crash_recover failed: {e}"));
        }
        match SearchEngine::recover(parts, EngineConfig::default()) {
            Ok(recovered) => {
                if let Some(m) = recovered.chain_mismatch() {
                    violations.push(format!("crash residue misread as tamper: {m}"));
                }
                for (&w, &head) in heads.iter().filter(|&(&w, _)| w <= committed) {
                    if recovered.chain_head_at(w) != Some(head) {
                        violations.push(format!(
                            "watermark {w} head changed across recovery: saw {head}, \
                             recovered {:?}",
                            recovered.chain_head_at(w)
                        ));
                    }
                }
            }
            Err(e) => violations.push(format!("recovery failed: {e}")),
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

// ---------------------------------------------------------------------------
// Sharded watermark vector: per-shard writers vs scatter-gather readers.
// The sharded service has no global sequencer, so its consistency unit is
// the *vector* of per-shard watermarks: every slot must be exact against
// the per-shard commit model, move monotonically, and the merged response
// must equal the vector's sum — under every interleaving of the two
// shard writers and the reader.
// ---------------------------------------------------------------------------

struct ShardWmState {
    writer: ShardedWriter,
    searcher: ShardedSearcher,
    /// Per-shard documents committed so far (the model the vector tracks).
    committed: Vec<u64>,
    /// Watermark vector seen by the previous reader op.
    last_seen: Vec<u64>,
    /// `(vector, session)` captured by the snapshot op.
    pinned: Option<(Vec<u64>, QuerySession)>,
    violations: Vec<String>,
}

impl ShardWmState {
    fn check(&mut self, what: &str, cond: bool, detail: String) {
        if !cond {
            self.violations.push(format!("{what}: {detail}"));
        }
    }
}

/// Documents each shard's writer thread commits.
const SHARD_DOCS: u64 = 3;

fn sharded_state() -> ShardWmState {
    let archive = ShardedArchive::create(EngineConfig::default(), 2).expect("valid config");
    let (writer, searcher) = archive.into_service();
    ShardWmState {
        writer,
        searcher,
        committed: vec![0, 0],
        last_seen: vec![0, 0],
        pinned: None,
        violations: Vec::new(),
    }
}

/// One virtual writer thread that commits `SHARD_DOCS` documents to a
/// fixed shard (`commit_to` pins the route, so the model knows exactly
/// which vector slot every commit advances).
fn shard_writer_ops(shard: u32) -> Vec<Step<'static, ShardWmState>> {
    (0..SHARD_DOCS)
        .map(move |i| {
            Box::new(move |s: &mut ShardWmState| {
                let text = format!("common shard{shard} record{i}");
                match s.writer.commit_to(shard, &text, Timestamp(1_000 + i)) {
                    Ok(doc) => {
                        s.committed[shard as usize] += 1;
                        if shard_of(doc) != shard {
                            s.violations
                                .push(format!("{doc} routed to shard {}", shard_of(doc)));
                        }
                    }
                    Err(e) => s
                        .violations
                        .push(format!("commit {i} to shard {shard} failed: {e}")),
                }
            }) as Step<'static, ShardWmState>
        })
        .collect()
}

fn sharded_wm_threads() -> (ShardWmState, Vec<Vec<Step<'static, ShardWmState>>>) {
    // Reader: vector exactness + per-slot monotonicity + merged prefix
    // visibility (the scatter-gathered hit count equals the vector sum).
    let reader_ops: Vec<Step<'static, ShardWmState>> = (0..6)
        .map(|_| {
            Box::new(|s: &mut ShardWmState| {
                let vector = s.searcher.watermarks();
                let (model, last) = (s.committed.clone(), s.last_seen.clone());
                s.check(
                    "vector-exact",
                    vector == model,
                    format!("vector {vector:?} but {model:?} committed"),
                );
                s.check(
                    "vector-monotone",
                    vector.iter().zip(&last).all(|(now, then)| now >= then),
                    format!("vector {vector:?} after seeing {last:?}"),
                );
                s.last_seen = vector.clone();
                let sum: u64 = vector.iter().sum();
                match s.searcher.execute(Query::disjunctive("common", usize::MAX)) {
                    Ok(resp) => {
                        let hits = resp.hits.len() as u64;
                        s.check(
                            "merged-prefix-visibility",
                            hits == sum && resp.visible_docs == sum,
                            format!(
                                "{hits} hits / {} visible at vector {vector:?}",
                                resp.visible_docs
                            ),
                        );
                        s.check("merged-trusted", resp.trusted, "untrusted".to_string());
                    }
                    Err(e) => s.violations.push(format!("query failed: {e}")),
                }
            }) as Step<'static, ShardWmState>
        })
        .collect();
    (
        sharded_state(),
        vec![shard_writer_ops(0), shard_writer_ops(1), reader_ops],
    )
}

#[test]
fn sharded_watermark_vector_invariants_hold_under_all_schedules() {
    let clean = explore(0x5AAD, SCHEDULES, |seed| {
        let (mut state, mut threads) = sharded_wm_threads();
        interleave(seed, &mut state, &mut threads);
        // Quiescent: both shards fully published.
        let end = state.searcher.watermarks();
        if end != vec![SHARD_DOCS, SHARD_DOCS] {
            state
                .violations
                .push(format!("quiescent vector {end:?}, expected full"));
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

// ---------------------------------------------------------------------------
// Sharded pin stability: a pinned searcher freezes the whole watermark
// vector at once, and must keep answering from exactly that vector while
// both shards' writers race past it.
// ---------------------------------------------------------------------------

fn sharded_pin_threads() -> (ShardWmState, Vec<Vec<Step<'static, ShardWmState>>>) {
    // Pinner: one op takes the pinned snapshot (its vector must be exact
    // against the commit model at that instant); later ops require every
    // slot of the vector — and the merged answer — unchanged.
    let mut pin_ops: Vec<Step<'static, ShardWmState>> = vec![Box::new(|s: &mut ShardWmState| {
        let session = QuerySession::open(&s.searcher);
        let vector = session.watermarks().to_vec();
        let model = s.committed.clone();
        s.check(
            "pin-vector-exact",
            vector == model,
            format!("pinned vector {vector:?} but {model:?} committed"),
        );
        s.pinned = Some((vector, session));
    })];
    for _ in 0..4 {
        pin_ops.push(Box::new(|s: &mut ShardWmState| {
            let Some((at, session)) = s.pinned.take() else {
                return;
            };
            let now = session.watermarks().to_vec();
            let sum: u64 = at.iter().sum();
            let hits = match session.execute(Query::disjunctive("common", usize::MAX)) {
                Ok(resp) => resp.hits.len() as u64,
                Err(e) => {
                    s.violations.push(format!("pinned query failed: {e}"));
                    sum
                }
            };
            s.check(
                "pin-vector-stability",
                now == at && hits == sum,
                format!("pinned at {at:?} but sees {now:?} / {hits} hits"),
            );
            s.pinned = Some((at, session));
        }));
    }
    (
        sharded_state(),
        vec![shard_writer_ops(0), shard_writer_ops(1), pin_ops],
    )
}

#[test]
fn sharded_pin_freezes_the_vector_under_all_schedules() {
    let clean = explore(0xF12E, SCHEDULES, |seed| {
        let (mut state, mut threads) = sharded_pin_threads();
        interleave(seed, &mut state, &mut threads);
        // The live (unpinned) searcher still reaches the full corpus.
        let end = state.searcher.visible_docs();
        if end != 2 * SHARD_DOCS {
            state.violations.push(format!(
                "quiescent watermark {end}, expected {}",
                2 * SHARD_DOCS
            ));
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

// ---------------------------------------------------------------------------
// Replication: queued replica appliers racing the primary writer.  A
// replica's verified chain head must be a pure function of its replicated
// watermark — byte-for-byte the primary's chain head at that watermark —
// at every intermediate drain point, under every interleaving and every
// drain budget; and failover promotion must never observe an unverified
// prefix (queued-but-unverified entries are crash losses, not data).
// ---------------------------------------------------------------------------

const REPLICAS: usize = 2;

struct ReplState {
    writer: IndexWriter,
    searcher: Searcher,
    set: std::sync::Arc<ReplicaSet>,
    committed: u64,
    /// Watermark last verified by each replica (must be monotone).
    last_wm: Vec<u64>,
    violations: Vec<String>,
}

fn repl_threads(seed: u64) -> (ReplState, Vec<Vec<Step<'static, ReplState>>>) {
    let (mut writer, searcher) = service(small_engine());
    let set = writer.with_engine(|e| {
        let set = std::sync::Arc::new(ReplicaSet::new(
            fresh_images(e, REPLICAS),
            ApplyMode::Queued,
        ));
        attach(e, &set);
        set
    });
    let state = ReplState {
        writer,
        searcher,
        set,
        committed: 0,
        last_wm: vec![0; REPLICAS],
        violations: Vec::new(),
    };
    let writer_ops: Vec<Step<'static, ReplState>> = (0..DOCS)
        .map(|i| {
            Box::new(move |s: &mut ReplState| {
                match s
                    .writer
                    .commit(&format!("common record{i}"), Timestamp(7_000 + i))
                {
                    Ok(_) => s.committed += 1,
                    Err(e) => s.violations.push(format!("commit {i} failed: {e}")),
                }
            }) as Step<'static, ReplState>
        })
        .collect();
    // One drainer thread per replica with seed-varying budgets, so each
    // replica advances through arbitrary partial prefixes of the log.
    let drainer = |replica: usize| -> Vec<Step<'static, ReplState>> {
        (0..8usize)
            .map(|i| {
                let budget = 1 + (seed as usize).wrapping_add(i.wrapping_mul(7) + replica) % 4;
                Box::new(move |s: &mut ReplState| {
                    s.set.drain(replica, budget);
                }) as Step<'static, ReplState>
            })
            .collect()
    };
    // Checker: at every intermediate point each replica is unquarantined,
    // monotone, never ahead of the commit model, and its verified chain
    // head is exactly the primary's head at the replica's watermark.
    let checker_ops: Vec<Step<'static, ReplState>> = (0..6)
        .map(|_| {
            Box::new(|s: &mut ReplState| {
                for st in s.set.statuses() {
                    if let Some(q) = st.quarantined {
                        s.violations
                            .push(format!("replica {} quarantined: {q}", st.replica));
                        continue;
                    }
                    if st.verified_watermark > s.committed {
                        s.violations.push(format!(
                            "replica {} verified {} with only {} committed",
                            st.replica, st.verified_watermark, s.committed
                        ));
                    }
                    if st.verified_watermark < s.last_wm[st.replica] {
                        s.violations.push(format!(
                            "replica {} watermark went backwards: {} after {}",
                            st.replica, st.verified_watermark, s.last_wm[st.replica]
                        ));
                    }
                    s.last_wm[st.replica] = st.verified_watermark;
                    let expected = s
                        .writer
                        .with_engine(|e| e.chain_head_at(st.verified_watermark));
                    if expected != Some(st.chain_head) {
                        s.violations.push(format!(
                            "replica {} head at watermark {} diverged: {} vs primary {:?}",
                            st.replica, st.verified_watermark, st.chain_head, expected
                        ));
                    }
                }
            }) as Step<'static, ReplState>
        })
        .collect();
    (state, vec![writer_ops, drainer(0), drainer(1), checker_ops])
}

#[test]
fn replica_chain_heads_track_the_replicated_watermark_under_all_schedules() {
    let clean = explore(0x5E7A, SCHEDULES, |seed| {
        let (mut state, mut threads) = repl_threads(seed);
        interleave(seed, &mut state, &mut threads);
        // Quiescent: drain everything; every replica converges on the
        // primary's exact head at the full watermark with an empty queue.
        state.set.drain_all();
        let head = state.writer.with_engine(|e| e.chain_head());
        for st in state.set.statuses() {
            if st.verified_watermark != state.committed || st.chain_head != head || st.queued != 0 {
                state.violations.push(format!(
                    "replica {} quiesced at watermark {} head {} ({} queued); primary at {} \
                     head {head}",
                    st.replica, st.verified_watermark, st.chain_head, st.queued, state.committed
                ));
            }
        }
        if state.violations.is_empty() {
            Ok(())
        } else {
            Err(state.violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

#[test]
fn promotion_never_observes_an_unverified_prefix_under_all_schedules() {
    let clean = explore(0x9E0E, SCHEDULES, |seed| {
        let (mut state, mut threads) = repl_threads(seed);
        interleave(seed, &mut state, &mut threads);
        // Deliberately do NOT drain the queues dry: whatever each replica
        // verified mid-schedule is all a crash leaves it.  Lose the primary
        // outright and require the promoted replica to serve exactly its
        // verified prefix — never a byte of the queued remainder.
        let statuses = state.set.statuses();
        let ReplState {
            writer,
            searcher,
            set,
            committed,
            mut violations,
            ..
        } = state;
        drop(searcher);
        let mut engine = match writer.try_into_engine() {
            Ok(e) => e,
            Err(_) => return Err("searcher handles still pinned the engine".into()),
        };
        detach(&mut engine);
        let expected: Vec<(u64, ChainHead)> = statuses
            .iter()
            .map(|st| (st.verified_watermark, st.chain_head))
            .collect();
        let replica_parts: Vec<Result<_, String>> = match ReplicaSet::reclaim(set) {
            Ok(parts) => parts
                .into_iter()
                .map(|(parts, fault)| {
                    if let Some(f) = &fault {
                        violations.push(format!("replication faulted: {f}"));
                    }
                    Ok(parts)
                })
                .collect(),
            Err(_) => return Err("tap handles still pinned the replica set".into()),
        };
        let outcome = recover_shard(
            Err("primary lost".to_string()),
            replica_parts,
            &EngineConfig::default(),
        );
        let Some(promoted) = outcome.promoted_from else {
            return Err(format!(
                "no replica promoted: {:?}",
                outcome.degraded_reason
            ));
        };
        let (wm, head) = expected[promoted];
        let best = expected.iter().map(|&(w, _)| w).max().unwrap_or(0);
        if wm != best {
            violations.push(format!(
                "promoted replica {promoted} at watermark {wm}, best verified was {best}"
            ));
        }
        if wm > committed {
            violations.push(format!(
                "replica verified {wm} with only {committed} committed"
            ));
        }
        match outcome.engine.as_deref() {
            Some(engine) => {
                if engine.num_docs() != wm {
                    violations.push(format!(
                        "promoted engine serves {} docs, replica had verified {wm}",
                        engine.num_docs()
                    ));
                }
                if engine.chain_head() != head {
                    violations.push(format!(
                        "promoted head {} != verified head {head}",
                        engine.chain_head()
                    ));
                }
                match engine.execute(&Query::disjunctive("common", usize::MAX)) {
                    Ok(resp) => {
                        if resp.hits.len() as u64 != wm || !resp.trusted {
                            violations.push(format!(
                                "promoted engine answered {} hits (trusted {}) at watermark {wm}",
                                resp.hits.len(),
                                resp.trusted
                            ));
                        }
                    }
                    Err(e) => violations.push(format!("promoted query failed: {e}")),
                }
            }
            None => violations.push(format!("degraded: {:?}", outcome.degraded_reason)),
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    })
    .unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(clean, SCHEDULES);
}

#[test]
fn schedules_are_reproducible_given_a_seed() {
    let run = |seed: u64| {
        let (mut state, mut threads) = wm_threads();
        let trace = interleave(seed, &mut state, &mut threads);
        (trace, state.committed, state.last_seen)
    };
    for seed in [0u64, 1, 0xD0C5, u64::MAX] {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
    }
}
