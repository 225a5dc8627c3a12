//! The four workloads.
//!
//! Every run builds its archive the production way — commit documents
//! one at a time with an inline replica per shard, persist every device,
//! recover through the replicated failover path, serve over loopback TCP
//! — and then measures one traffic mix against it.  Building is timed as
//! carefully as serving, which is why every workload reports every
//! end-to-end metric.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tks_core::EngineConfig;
use tks_replica::{attach, fresh_images, ApplyMode, ReplicaSet};
use tks_server::server::{ArchiveServer, ServerConfig, ServerHandle};
use tks_server::wire::WireQuery;
use tks_shard::{QuerySession, ShardedSearcher, ShardedWriter};

use crate::archive::{self, Footprint, ShardImage, REPLICAS};
use crate::env::{self, Fingerprint};
use crate::inputs::{self, Doc, Inputs, Sizes};
use crate::load::{run_client, run_paced_writer, Answer, ClientOut, ClientPlan, Tally, WriterOut};
use crate::metrics::{Values, Workload};
use crate::report;
use crate::trace::{write_trace, Tracer};

/// Documents in the served archive (6,000 per shard).
const DOCS: usize = 12_000;
/// Distinct ranked queries: their touched blocks exceed the decoded
/// cache many times over.
const RANKED_LOG: usize = 2_000;
/// Distinct wide boolean queries: a small hot log.
const WIDE_LOG: usize = 64;
/// Documents one `TimeRange` query spans.
const RANGE_DOCS: u64 = 1_000;
/// The mixed log of `serve_under_ingest` and of `ingest_recover`'s
/// probes: three ranked queries, then one wide one.
const MIXED_LOG: usize = 1_024;
/// The live writer's fixed rate, documents per second.
pub const WRITER_RATE: u32 = 1_000;
/// `ingest_recover` commits this many documents per `--seconds`, so at
/// the commit that defined the benchmark its pass lasts about that long.
const INGEST_DOCS_PER_SECOND: usize = 3_000;
/// A client's queries are cut into windows of this many: a traced run
/// traces every other one, and the time a phase leaves over after its
/// last whole window is not counted.
const WINDOW_OPS: usize = 256;
/// `Client::refresh` cadence under ingest.
const REFRESH_EVERY: usize = 100;
/// Cycles per run.  A cycle is one whole set-up followed by its share
/// of the measured time.  Query timings, `recover_s` and `setup_s` are
/// the median over the cycles of the cycle's own figure, so one cycle
/// the machine disturbed (or one unlucky memory layout or hash seed) is
/// dropped; a build's commit figures are each document's fastest commit
/// over the cycles (`report::best_of_builds`).
pub const CYCLES: usize = 3;
/// Passes each client makes over the probe log per `ingest_recover`
/// cycle.
const PROBE_PASSES: usize = 2;
/// Times `ingest_recover` generates its inputs per cycle.
const PROBE_GENERATIONS: usize = 3;
/// `--quick` divides every size by this.
const QUICK_DIVISOR: usize = 50;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
    /// Facts about the run that are not metrics, in print order.
    pub info: Vec<(&'static str, String)>,
}

pub struct Plan {
    pub sizes: Sizes,
    pub mixed_len: usize,
    pub window_ops: usize,
    /// The live writer's commits are summarised in blocks of this many.
    pub commit_block: usize,
}

fn plan(opts: &Options) -> Plan {
    let div = if opts.quick { QUICK_DIVISOR } else { 1 };
    let seconds = opts.seconds.max(1.0);
    let docs = match opts.workload {
        Workload::IngestRecover => {
            (INGEST_DOCS_PER_SECOND as f64 * seconds) as usize / CYCLES / div
        }
        _ => DOCS / div,
    };
    let writer_docs = match opts.workload {
        // A quarter more than the rate needs, so the pool outlasts the run.
        Workload::ServeUnderIngest => {
            (f64::from(WRITER_RATE) * seconds / CYCLES as f64 * 1.25) as usize + 64
        }
        _ => 0,
    };
    Plan {
        sizes: Sizes {
            docs: docs.max(64),
            writer_docs,
            ranked_queries: (RANKED_LOG / div).max(24),
            wide_queries: (WIDE_LOG / div).max(8),
            range_docs: (RANGE_DOCS / div as u64).max(4),
        },
        mixed_len: (MIXED_LOG / div).max(32),
        window_ops: (WINDOW_OPS / div).max(16),
        // A second of the feed: ten samples beyond a block's p99.
        commit_block: (WRITER_RATE as usize / div).max(16),
    }
}

fn mixed_log(inputs: &Inputs, len: usize) -> Vec<WireQuery> {
    (0..len)
        .map(|i| {
            if i % 4 == 3 {
                inputs.wide[(i / 4) % inputs.wide.len()].clone()
            } else {
                inputs.ranked[(i - i / 4) % inputs.ranked.len()].clone()
            }
        })
        .collect()
}

/// One ingest: a fresh replicated archive with `docs` committed.
struct Ingest {
    live: archive::Live,
    commit_ns: Vec<u64>,
    ingest_s: f64,
    footprint: Footprint,
}

fn ingest(
    config: &EngineConfig,
    docs: &[Doc],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Ingest, String> {
    let mut live = archive::create(config, REPLICAS)?;
    let start = Instant::now();
    let commit_ns = archive::commit_all(&mut live.writer, docs)?;
    let end = Instant::now();
    tr.record("setup.ingest", start, end, None, 0);
    tally.attempt(docs.len() as u64);
    let footprint = archive::footprint(&mut live.writer)?;
    // Inline replication: every replica has verified every commit.
    for (set, head) in live.sets.iter().zip(&footprint.heads) {
        for st in set.statuses() {
            tally.check(st.quarantined.is_none() && st.chain_head == *head, || {
                format!(
                    "replica {} fell behind or was quarantined during ingest",
                    st.replica
                )
            });
        }
    }
    Ok(Ingest {
        live,
        commit_ns,
        ingest_s: (end - start).as_secs_f64(),
        footprint,
    })
}

/// A recovered archive behind a bound server.
pub struct Served {
    pub handle: ServerHandle,
    pub searcher: ShardedSearcher,
    pub writer: ShardedWriter,
    /// Live replica sets (only when a writer will commit).
    _sets: Vec<Arc<ReplicaSet>>,
    pub load_s: f64,
    pub recover_shards_s: f64,
    /// Persisted bytes to a serving archive.
    pub recover_s: f64,
}

/// Re-seed one inline replica set per shard from the recovered
/// standbys, as `tks archive` does before a writing command.
fn reattach(
    writer: &mut ShardedWriter,
    standbys: Vec<Vec<(usize, Box<tks_core::SearchEngine>)>>,
) -> Result<Vec<Arc<ReplicaSet>>, String> {
    let mut sets = Vec::new();
    for (sid, survivors) in standbys.into_iter().enumerate() {
        let set = writer
            .with_engine(sid as u32, move |engine| {
                let mut images: Vec<_> =
                    survivors.into_iter().map(|(_, e)| e.into_parts()).collect();
                let missing = REPLICAS.saturating_sub(images.len());
                images.extend(fresh_images(engine, missing));
                let set = Arc::new(ReplicaSet::new(images, ApplyMode::Inline));
                attach(engine, &set);
                set
            })
            .map_err(|e| e.to_string())?;
        sets.push(set);
    }
    Ok(sets)
}

fn serve(
    images: &[ShardImage],
    config: &EngineConfig,
    footprint: &Footprint,
    fp: &Fingerprint,
    live_writer: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Served, String> {
    let start = Instant::now();
    let (mut archive, recoveries, load, recover) = archive::recover(images, config)?;
    tally.attempt(recoveries.len() as u64);
    for bad in archive::recovery_violations(&recoveries, &footprint.heads) {
        tally.fail(bad);
    }
    tally.check(archive.num_docs() == footprint.docs, || {
        format!(
            "recovered {} of {} documents",
            archive.num_docs(),
            footprint.docs
        )
    });
    let standbys = live_writer.then(|| archive.take_standbys());
    let (mut writer, searcher) = archive.into_service();
    let sets = match standbys {
        Some(standbys) => reattach(&mut writer, standbys)?,
        None => Vec::new(),
    };
    let handle = ArchiveServer::bind(
        "127.0.0.1:0",
        searcher.clone(),
        ServerConfig {
            workers: fp.server_workers,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let end = Instant::now();
    tr.record("setup.recover", start, end, None, 0);
    Ok(Served {
        handle,
        searcher,
        writer,
        _sets: sets,
        load_s: load.as_secs_f64(),
        recover_shards_s: recover.as_secs_f64(),
        recover_s: (end - start).as_secs_f64(),
    })
}

/// One phase of closed-loop clients (and perhaps the paced writer).
struct Phase<'a> {
    log: &'a [WireQuery],
    clients: usize,
    /// Each client takes its own slice of the log exactly once (warm-up)
    /// instead of cycling the whole log from its own offset.
    split_once: bool,
    window: usize,
    seconds: Option<f64>,
    max_windows: usize,
    refresh_every: Option<usize>,
    expect: Option<&'a [Answer]>,
    trace: Option<usize>,
}

fn run_phase(
    served: &mut Served,
    phase: &Phase<'_>,
    writer_docs: Option<&[Doc]>,
    epoch: Instant,
) -> (Vec<ClientOut>, Option<WriterOut>, f64) {
    let addr = served.handle.addr();
    let searcher = &served.searcher;
    let writer = &mut served.writer;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(phase.seconds.unwrap_or(3_600.0));
    let len = phase.log.len();
    let n = phase.clients.max(1);
    let (outs, writer_out) = std::thread::scope(|scope| {
        let stop = &stop;
        let writing = writer_docs
            .map(|docs| scope.spawn(move || run_paced_writer(writer, docs, WRITER_RATE, stop)));
        let handles: Vec<_> = (0..n)
            .map(|c| {
                let offset = c * len / n;
                let slice = (c + 1) * len / n - offset;
                let plan = ClientPlan {
                    addr,
                    searcher,
                    log: phase.log,
                    offset,
                    window: if phase.split_once {
                        slice.max(1)
                    } else {
                        phase.window
                    },
                    refresh_every: phase.refresh_every,
                    live_writer: writer_docs.is_some(),
                    deadline,
                    max_windows: if phase.split_once {
                        1
                    } else {
                        phase.max_windows
                    },
                    expect: phase.expect,
                    trace: phase.trace,
                };
                scope.spawn(move || run_client(&plan, epoch))
            })
            .collect();
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop.store(true, Ordering::Release);
        let writer_out = writing.map(|h| h.join().expect("writer thread panicked"));
        (outs, writer_out)
    });
    (outs, writer_out, start.elapsed().as_secs_f64())
}

fn fold(tally: &mut Tally, tr: &mut Tracer, outs: &mut [ClientOut]) {
    for out in outs {
        tally.absorb(std::mem::take(&mut out.tally));
        if let Some(spans) = out.spans.take() {
            tr.absorb(spans);
        }
    }
}

/// Decoded-block and block-summary cache counters of the primaries (the
/// standbys' caches have no public reader): hits and misses of each.
#[derive(Clone, Copy, Default)]
pub struct CacheCounters {
    pub decoded: (u64, u64),
    pub invalidations: u64,
    pub summary: (u64, u64),
}

fn cache_counters(searcher: &ShardedSearcher) -> CacheCounters {
    let d = searcher.decoded_cache_stats();
    let mut c = CacheCounters {
        decoded: (d.hits, d.misses),
        invalidations: d.invalidations,
        summary: (0, 0),
    };
    for sid in 0..searcher.shards() {
        if let Some(shard) = searcher.shard(sid) {
            let s = shard.engine().list_store().summary_cache_stats();
            c.summary = (c.summary.0 + s.hits, c.summary.1 + s.misses);
        }
    }
    c
}

/// Everything one archive build measured.
pub struct Built {
    pub commit_ns: Vec<u64>,
    pub ingest_s: f64,
    pub footprint: Footprint,
    pub save_s: f64,
    pub image_bytes: u64,
    pub load_s: f64,
    pub recover_shards_s: f64,
    pub recover_s: f64,
}

/// What is fixed for the whole run.
pub struct Ctx<'a> {
    pub opts: &'a Options,
    pub plan: Plan,
    pub config: EngineConfig,
    pub fp: &'a Fingerprint,
    pub epoch: Instant,
    pub clients: usize,
    pub live_writer: bool,
}

/// Measurements gathered over the cycles.
#[derive(Default)]
pub struct Gathered {
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub builds: Vec<Built>,
    pub clients: Vec<ClientOut>,
    pub writers: Vec<WriterOut>,
    pub phase_wall_s: f64,
}

/// The last cycle's archive, kept for the traced run's extra timings.
pub struct Kept {
    pub inputs: Inputs,
    pub log: Vec<WireQuery>,
    pub served: Served,
    pub images: Vec<ShardImage>,
    pub blocks_per_query: f64,
    pub caches: (CacheCounters, CacheCounters),
    pub standbys: (Vec<usize>, Vec<usize>),
}

/// Build an archive from `docs` and bring it back as a served one.
fn build_and_serve(
    cx: &Ctx<'_>,
    ing: Ingest,
    g: &mut Gathered,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Served, Vec<ShardImage>), String> {
    let t = Instant::now();
    let images = archive::persist(ing.live)?;
    let save_s = t.elapsed().as_secs_f64();
    tr.record("setup.persist", t, Instant::now(), None, 0);
    let served = serve(
        &images,
        &cx.config,
        &ing.footprint,
        cx.fp,
        cx.live_writer,
        tr,
        tally,
    )?;
    g.builds.push(Built {
        commit_ns: ing.commit_ns,
        ingest_s: ing.ingest_s,
        footprint: ing.footprint,
        save_s,
        image_bytes: archive::image_bytes(&images),
        load_s: served.load_s,
        recover_shards_s: served.recover_shards_s,
        recover_s: served.recover_s,
    });
    Ok((served, images))
}

/// One cycle: a whole set-up, then this cycle's share of the measured
/// time.  On the serve workloads the set-up is everything up to a warm
/// served archive; on `ingest_recover` it is input generation only, and
/// the build is what is measured.
fn cycle(
    cx: &Ctx<'_>,
    g: &mut Gathered,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Kept, String> {
    let workload = cx.opts.workload;
    // Successive cycles start tracing on alternate windows, so that over
    // the run traced and untraced windows sit equally early and late in
    // their cycles (beside a writer the archive grows as a cycle goes).
    let trace = cx.opts.trace.then_some((g.builds.len() + 1) % 2);
    let start = Instant::now();
    let probing = workload == Workload::IngestRecover;
    // All of `ingest_recover`'s set-up is a tenth of a second of input
    // generation, too short to time steadily once: it is done several
    // times over and every time is a `setup_s` reading.
    let mut generated = None;
    for _ in 0..if probing { PROBE_GENERATIONS } else { 1 } {
        let t = Instant::now();
        let inputs = inputs::generate(cx.opts.seed, cx.plan.sizes);
        let log = match workload {
            Workload::ServeRanked => inputs.ranked.clone(),
            Workload::ServeWideBoolean => inputs.wide.clone(),
            _ => mixed_log(&inputs, cx.plan.mixed_len),
        };
        g.generate_s.push(t.elapsed().as_secs_f64());
        tr.record("setup.generate", t, Instant::now(), None, 0);
        if probing {
            g.setup_s.push(t.elapsed().as_secs_f64());
        }
        generated = Some((inputs, log));
    }
    let (inputs, log) = generated.expect("inputs are generated at least once");

    let ing = ingest(&cx.config, &inputs.docs, tr, tally)?;
    // `ingest_recover` records the probes' answers on the live archive,
    // to hold the recovered one to.
    let expect: Option<Vec<Answer>> = if probing {
        let session = QuerySession::open(&ing.live.writer.searcher());
        let answers = log
            .iter()
            .map(|q| session.execute(q.to_query()).map(|r| Answer::of_direct(&r)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("pre-crash probe: {e}"))?;
        Some(answers)
    } else {
        None
    };
    let (mut served, images) = build_and_serve(cx, ing, g, tr, tally)?;
    let mut warm_blocks = None;
    if !probing {
        // One untimed pass over the whole log, split between the clients:
        // fills the summary caches and counts the log's blocks exactly.
        let t = Instant::now();
        let warm = Phase {
            log: &log,
            clients: cx.clients,
            split_once: true,
            window: 0,
            seconds: None,
            max_windows: 1,
            refresh_every: None,
            expect: None,
            trace: None,
        };
        let (mut outs, _, _) = run_phase(&mut served, &warm, None, cx.epoch);
        tr.record("setup.warm", t, Instant::now(), None, 0);
        warm_blocks = Some(outs.iter().map(|o| o.blocks_read).sum::<u64>());
        fold(tally, tr, &mut outs);
        g.setup_s.push(start.elapsed().as_secs_f64());
    }

    let standbys_before = archive::eligible_standbys(&served.searcher);
    let caches_before = cache_counters(&served.searcher);
    // Measured: the probes a fixed number of times, or the workload's
    // traffic for this cycle's share of `--seconds`.
    let window = cx.plan.window_ops;
    let phase = Phase {
        log: &log,
        clients: cx.clients,
        split_once: false,
        window,
        seconds: (!probing).then_some(cx.opts.seconds / CYCLES as f64),
        max_windows: if probing {
            (PROBE_PASSES * log.len()).div_ceil(window)
        } else {
            usize::MAX
        },
        refresh_every: cx.live_writer.then_some(REFRESH_EVERY),
        expect: expect.as_deref(),
        trace,
    };
    let docs = cx.live_writer.then_some(&inputs.writer_docs[..]);
    let (outs, writer_out, wall) = run_phase(&mut served, &phase, docs, cx.epoch);
    let blocks_per_query = match warm_blocks {
        Some(blocks) => blocks as f64 / log.len() as f64,
        None => {
            let answered: usize = outs.iter().map(|o| o.lat_ns.len()).sum();
            let blocks: u64 = outs.iter().map(|o| o.blocks_read).sum();
            blocks as f64 / answered.max(1) as f64
        }
    };
    g.clients.extend(outs);
    g.writers.extend(writer_out);
    g.phase_wall_s += wall;
    let caches = (caches_before, cache_counters(&served.searcher));
    let standbys = (
        standbys_before,
        archive::eligible_standbys(&served.searcher),
    );
    Ok(Kept {
        inputs,
        log,
        served,
        images,
        blocks_per_query,
        caches,
        standbys,
    })
}

pub fn run(opts: &Options, fp: &Fingerprint) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let live_writer = opts.workload == Workload::ServeUnderIngest;
    let cx = Ctx {
        opts,
        plan: plan(opts),
        config: archive::engine_config(),
        fp,
        epoch,
        // Beside the writer one client is all the hardware has room for.
        clients: if live_writer { 1 } else { fp.load_threads },
        live_writer,
    };
    let mut tally = Tally::default();
    let mut tr = Tracer::new(epoch);
    let mut g = Gathered::default();

    // What the read rotation must look like: every verified standby in
    // it on a read-only archive, none beside a writer (the standbys'
    // devices went back to the write path as live replicas).
    let want_standbys = if live_writer { 0 } else { REPLICAS };
    let mut kept: Option<Kept> = None;
    for _ in 0..CYCLES {
        // The previous cycle's server drains and its archive is freed
        // before the next set-up starts its clock.
        drop(kept.take());
        let k = cycle(&cx, &mut g, &mut tr, &mut tally)?;
        for standbys in [&k.standbys.0, &k.standbys.1] {
            tally.check(standbys.iter().all(|&n| n == want_standbys), || {
                format!("standbys eligible per shard: {standbys:?}, want {want_standbys}")
            });
        }
        kept = Some(k);
    }
    let kept = kept.ok_or("no cycle ran")?;
    fold(&mut tally, &mut tr, &mut g.clients);
    for w in &mut g.writers {
        tally.check(!w.exhausted, || {
            "the writer's document pool ran dry".to_string()
        });
        tally.absorb(std::mem::take(&mut w.tally));
    }

    let mut out = Outcome {
        values: Values::default(),
        tally,
        info: Vec::new(),
    };
    let queries = report::end_to_end(&cx, &g, &kept, &mut out)?;
    if opts.trace {
        report::per_layer(&cx, &g, &kept, &queries, &mut tr, &mut out)?;
    }
    kept.served.handle.shutdown();
    // Read last, so the figure covers the whole run.
    let rss = env::peak_rss_mib().ok_or("VmHWM is not readable on this system")?;
    out.values.set("peak_rss_mib", rss, 1);
    if opts.trace {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let path = trace_path(&exe, opts.workload);
        write_trace(&path, opts.workload.name(), opts.seed, &tr.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let spans = tr.spans.len();
        out.info
            .push(("trace_file", format!("{} ({spans} spans)", path.display())));
    }
    Ok(out)
}

/// The directory trace files go to.  Cargo names its outputs after the
/// bin (`e2e`, `e2e.d`, `deps/e2e-<hash>`), so no build writes this name.
const TRACE_DIR: &str = "e2e-traces";

/// `<directory of the executable>/e2e-traces/<workload>.trace.json`:
/// inside the build's target directory wherever that is, never in the
/// tree, and never a path Cargo itself writes.
fn trace_path(exe: &Path, workload: Workload) -> PathBuf {
    exe.parent()
        .unwrap_or(Path::new("."))
        .join(TRACE_DIR)
        .join(format!("{}.trace.json", workload.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Class;

    fn options(workload: Workload, seconds: f64, quick: bool) -> Options {
        Options {
            workload,
            seed: 1,
            seconds,
            trace: false,
            quick,
        }
    }

    /// A test executable sits in `deps/` and the bin one level above
    /// it; from neither may a trace land on a path Cargo writes
    /// (`<profile>/e2e` is the bin itself).
    #[test]
    fn trace_files_never_land_on_a_cargo_output() {
        for exe in ["t/release/e2e", "t/release/deps/e2e-0123456789abcdef"] {
            let path = trace_path(Path::new(exe), Workload::ServeRanked);
            assert_eq!(path.file_name().unwrap(), "serve_ranked.trace.json");
            let dir = path.parent().unwrap();
            assert_eq!(dir.parent(), Path::new(exe).parent());
            let name = dir.file_name().unwrap().to_str().unwrap();
            assert!(name != "e2e" && !name.starts_with("e2e.") && name != "deps");
        }
    }

    #[test]
    fn mixed_log_is_three_ranked_queries_then_a_wide_one() {
        let p = plan(&options(Workload::ServeUnderIngest, 1.0, true));
        let inputs = inputs::generate(1, p.sizes);
        let log = mixed_log(&inputs, p.mixed_len);
        assert_eq!(log.len(), p.mixed_len);
        for (i, q) in log.iter().enumerate() {
            assert_eq!(Class::of(q) == Class::Ranked, i % 4 != 3, "position {i}");
        }
        // Consecutive ranked slots replay consecutive ranked queries.
        assert_eq!(log[0], inputs.ranked[0]);
        assert_eq!(log[4], inputs.ranked[3]);
        assert_eq!(log[3], inputs.wide[0]);
    }

    #[test]
    fn sizes_follow_the_workload_the_seconds_and_quick() {
        let full = plan(&options(Workload::ServeRanked, 12.0, false));
        assert_eq!((full.sizes.docs, full.sizes.writer_docs), (DOCS, 0));
        assert_eq!(full.sizes.ranked_queries, RANKED_LOG);
        let quick = plan(&options(Workload::ServeRanked, 12.0, true));
        assert_eq!(quick.sizes.docs, DOCS / QUICK_DIVISOR);
        // ingest_recover: 3,000 documents per second, over the cycles.
        let ingest = plan(&options(Workload::IngestRecover, 12.0, false));
        assert_eq!(ingest.sizes.docs * CYCLES, 36_000);
        // The writer's pool outlasts its share of the measured time.
        let live = plan(&options(Workload::ServeUnderIngest, 12.0, false));
        assert!(live.sizes.writer_docs as f64 > f64::from(WRITER_RATE) * 12.0 / CYCLES as f64);
    }
}
