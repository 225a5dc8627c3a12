//! From what the cycles gathered to named metric values: the end-to-end
//! figures of every run, and the per-layer figures of a traced one.

use std::time::Instant;

use tks_client::Client;
use tks_postings::block_reader::DEFAULT_DECODED_BLOCKS;
use tks_shard::QuerySession;

use crate::archive::{self, REPLICAS, SHARDS};
use crate::env;
use crate::inputs::{Class, CLASSES};
use crate::load::{ClientOut, WriterOut};
use crate::metrics::Workload;
use crate::micro;
use crate::stats::{beyond, median, summarize_ns, Summary, MIN_BEYOND};
use crate::trace::{query_ladder, QueryLadder, Tracer};
use crate::workloads::{Built, Ctx, Gathered, Kept, Outcome, CYCLES, WRITER_RATE};

/// A class with fewer sampled ladders than this gets reference ones.
const MIN_CLASS_LADDERS: usize = 32;
const REFERENCE_LADDERS: usize = 64;
const PINGS: usize = 200;
const REFRESHES: usize = 50;
const PACER_PROBE_TICKS: u32 = 300;

/// Client-observed latency and throughput: the median over the cycles
/// of each cycle's own figure.  A cycle's figure pools every picked
/// whole window of that cycle's clients, so its p99 is taken from a few
/// thousand samples at once and shows a tail that recurs every few
/// seconds; the median over cycles then drops a cycle the machine
/// disturbed.
pub struct QueryStats {
    p50_ms: f64,
    p99_ms: f64,
    qps: f64,
    /// Each cycle's (p50 ms, p99 ms, queries per second).
    per_cycle: Vec<(f64, f64, f64)>,
    /// Fewest samples beyond the p99 in any one cycle.
    least_beyond: usize,
    /// Every cycle's picked samples together.
    pooled: Summary,
}

/// `outs` holds every cycle's clients, `clients` of them per cycle, who
/// ran side by side: a cycle's throughput is the sum of their rates.
fn query_stats(
    outs: &[ClientOut],
    clients: usize,
    window: usize,
    pick: impl Fn(&ClientOut, usize) -> bool,
) -> Result<QueryStats, String> {
    let mut per_cycle = Vec::new();
    let mut all = Vec::new();
    let mut least_beyond = usize::MAX;
    for cycle in outs.chunks(clients.max(1)) {
        let mut pool: Vec<u64> = Vec::new();
        let mut rate = 0.0;
        for out in cycle {
            let (mut ops, mut secs) = (0usize, 0.0);
            for (w, s) in out
                .window_s
                .iter()
                .enumerate()
                .filter(|&(w, _)| pick(out, w))
            {
                pool.extend_from_slice(&out.lat_ns[w * window..(w + 1) * window]);
                ops += window;
                secs += s;
            }
            if ops > 0 {
                rate += ops as f64 / secs.max(1e-9);
            }
        }
        if pool.is_empty() {
            return Err(format!(
                "a cycle finished no whole window of {window} queries: the machine is too slow \
                 for this run length"
            ));
        }
        let s = summarize_ns(&pool, 1e6);
        least_beyond = least_beyond.min(beyond(s.n, 99.0));
        per_cycle.push((s.p50, s.p99, rate));
        all.extend(pool);
    }
    let over_cycles =
        |f: fn(&(f64, f64, f64)) -> f64| median(&per_cycle.iter().map(f).collect::<Vec<_>>());
    Ok(QueryStats {
        p50_ms: over_cycles(|c| c.0),
        p99_ms: over_cycles(|c| c.1),
        qps: over_cycles(|c| c.2),
        per_cycle,
        least_beyond,
        pooled: summarize_ns(&all, 1e6),
    })
}

/// Median over the runs of commits of each run's p50 and p99 (ms), each
/// run's own pair, and every commit pooled.  A run is one cycle's build,
/// or one block of the live writer's commits.
fn commit_stats(runs: &[&[u64]]) -> (f64, f64, Vec<(f64, f64)>, Summary) {
    let per_run: Vec<(f64, f64)> = runs
        .iter()
        .map(|run| summarize_ns(run, 1e6))
        .map(|s| (s.p50, s.p99))
        .collect();
    let p50s: Vec<f64> = per_run.iter().map(|r| r.0).collect();
    let p99s: Vec<f64> = per_run.iter().map(|r| r.1).collect();
    (
        median(&p50s),
        median(&p99s),
        per_run,
        summarize_ns(&runs.concat(), 1e6),
    )
}

/// Each document's fastest commit over the cycles' builds (ns).  Every
/// cycle commits the same documents in the same order on one thread, so
/// the i-th commit does the same work each time and what differs is the
/// machine: its slow spells last a fraction of a second to a few seconds
/// and rarely fall on the same documents in all the cycles, while a cost
/// the program itself incurs at a document recurs in every cycle and stays.
fn best_of_builds(builds: &[Built]) -> Vec<u64> {
    let n = builds.iter().map(|b| b.commit_ns.len()).min().unwrap_or(0);
    (0..n)
        .filter_map(|i| builds.iter().map(|b| b.commit_ns[i]).min())
        .collect()
}

/// Every cycle's live commits cut into whole blocks of `block`, in order;
/// what a cycle leaves over after its last whole block is not counted,
/// and a cycle without a whole block is an error, as for query windows.
fn live_blocks(writers: &[WriterOut], block: usize) -> Result<Vec<&[u64]>, String> {
    let mut blocks = Vec::new();
    for w in writers {
        if w.commit_ns.len() < block {
            return Err(format!(
                "a cycle's writer finished no whole block of {block} commits: the machine is \
                 too slow for this run length"
            ));
        }
        blocks.extend(w.commit_ns.chunks_exact(block));
    }
    Ok(blocks)
}

/// Hit rate of `after - before` (hits, misses) and the lookups between
/// them; 1 when nothing was looked up (the convention of
/// `IoStats::hit_rate`).
fn hit_rate(before: (u64, u64), after: (u64, u64)) -> (f64, u64) {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    let lookups = hits + misses;
    let rate = if lookups == 0 {
        1.0
    } else {
        hits as f64 / lookups as f64
    };
    (rate, lookups)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_of(builds: &[Built], f: fn(&Built) -> f64) -> f64 {
    median(&builds.iter().map(f).collect::<Vec<_>>())
}

/// `[a, b, c]` with four decimals: one figure per cycle.
fn list(values: impl Iterator<Item = f64>) -> String {
    let v: Vec<String> = values.map(|x| format!("{x:.4}")).collect();
    format!("[{}]", v.join(", "))
}

/// Set every end-to-end metric but `peak_rss_mib` (read when the run
/// ends) and say what the run was.  Traced windows never count.
pub fn end_to_end(
    cx: &Ctx<'_>,
    g: &Gathered,
    kept: &Kept,
    out: &mut Outcome,
) -> Result<QueryStats, String> {
    let opts = cx.opts;
    let v = &mut out.values;
    let untraced = |o: &ClientOut, w: usize| !o.traced_window(w);
    let q = query_stats(&g.clients, cx.clients, cx.plan.window_ops, untraced)?;
    // Beside a live writer the commits that matter are the live ones,
    // timed from when each was due; otherwise those of the builds.  The
    // live ones are summarised per block of a second of the feed, not per
    // cycle: on an open loop one 50 ms stall of the machine makes 50 late
    // commits, a cycle's whole top hundredth, but spoils only one block.
    let block = cx.plan.commit_block;
    let builds = &g.builds;
    let commit_runs: Vec<&[u64]> = if cx.live_writer {
        live_blocks(&g.writers, block)?
    } else {
        builds.iter().map(|b| &b.commit_ns[..]).collect()
    };
    let (live_p50, live_p99, commit_runs_stats, commits) = commit_stats(&commit_runs);
    // The builds' commit figures and the ingest rate come from each
    // document's fastest commit over the cycles, not the median cycle.
    let best = best_of_builds(builds);
    let best_ms = summarize_ns(&best, 1e6);
    let best_total_s = best.iter().sum::<u64>() as f64 / 1e9;
    let (commit_p50, commit_p99) = if cx.live_writer {
        (live_p50, live_p99)
    } else {
        (best_ms.p50, best_ms.p99)
    };
    let last = builds.last().expect("every cycle builds an archive");
    let fpnt = &last.footprint;
    let docs = fpnt.docs as usize;
    let docs_f = fpnt.docs.max(1) as f64;
    v.set("setup_s", median(&g.setup_s), g.setup_s.len());
    v.set("query_p50_ms", q.p50_ms, q.pooled.n);
    v.set("query_p99_ms", q.p99_ms, q.pooled.n);
    v.set("query_qps", q.qps, q.pooled.n);
    v.set(
        "query_blocks_per_query",
        kept.blocks_per_query,
        kept.log.len(),
    );
    v.set("commit_p50_ms", commit_p50, commits.n);
    v.set("commit_p99_ms", commit_p99, commits.n);
    let docs_per_s = best.len() as f64 / best_total_s.max(1e-9);
    v.set("ingest_docs_per_s", docs_per_s, best.len());
    v.set(
        "ingest_ios_per_doc",
        fpnt.io.total_ios() as f64 / docs_f,
        docs,
    );
    v.set(
        "index_bytes_per_doc",
        fpnt.total_bytes() as f64 / docs_f,
        docs,
    );
    v.set(
        "recover_s",
        median_of(builds, |b| b.recover_s),
        builds.len(),
    );

    let info = &mut out.info;
    info.push(("manifest_fnv1a", format!("{:016x}", kept.inputs.manifest)));
    let heads: Vec<String> = fpnt
        .heads
        .iter()
        .map(|h| h.to_hex()[..16].to_string())
        .collect();
    info.push(("chain_heads", heads.join(" ")));
    let measured_s = if opts.workload == Workload::IngestRecover {
        g.phase_wall_s / CYCLES as f64
    } else {
        opts.seconds / CYCLES as f64
    };
    info.push((
        "cycles",
        format!("{CYCLES} x (set-up, then {measured_s:.3} s measured)"),
    ));
    let beside = if cx.live_writer {
        format!(" beside 1 writer paced open-loop at {WRITER_RATE} docs/s")
    } else {
        String::new()
    };
    info.push((
        "clients",
        format!("{} closed-loop connection(s){beside}", cx.clients),
    ));
    info.push((
        "archive",
        format!(
            "{SHARDS} shards x (1 primary + {REPLICAS} replica), {docs} docs, {} B of posting \
             lists per shard in {} B blocks against a {} KiB storage cache and \
             {DEFAULT_DECODED_BLOCKS} decoded blocks per engine",
            fpnt.list_bytes / u64::from(SHARDS),
            archive::BLOCK_SIZE,
            archive::CACHE_BYTES >> 10
        ),
    ));
    info.push((
        "query_log",
        format!(
            "{} distinct queries, cut into windows of {} ops (a trailing partial one is dropped)",
            kept.log.len(),
            cx.plan.window_ops
        ),
    ));
    let unresolved = if q.least_beyond >= MIN_BEYOND {
        ""
    } else {
        ", too few for a p99"
    };
    info.push((
        "queries",
        format!(
            "{} in whole untraced windows over {:.3} s; per cycle p50 {} ms, p99 {} ms (at \
             least {} samples beyond it{unresolved}), {} 1/s; all cycles pooled p50 {:.4} ms, \
             p99 {:.4} ms, p99.9 {:.4} ms (information only), max {:.4} ms",
            q.pooled.n,
            g.phase_wall_s,
            list(q.per_cycle.iter().map(|c| c.0)),
            list(q.per_cycle.iter().map(|c| c.1)),
            q.least_beyond,
            list(q.per_cycle.iter().map(|c| c.2)),
            q.pooled.p50,
            q.pooled.p99,
            q.pooled.p999,
            q.pooled.max
        ),
    ));
    info.push((
        "commits",
        format!(
            "{} timed; per {} p50 {} ms, p99 {} ms; pooled p50 {:.4} ms, p99 {:.4} ms, max \
             {:.4} ms",
            commits.n,
            if cx.live_writer {
                format!("block of {block}")
            } else {
                "cycle".to_string()
            },
            list(commit_runs_stats.iter().map(|c| c.0)),
            list(commit_runs_stats.iter().map(|c| c.1)),
            commits.p50,
            commits.p99,
            commits.max
        ),
    ));
    info.push((
        "builds",
        format!(
            "set-up readings {} s; each document's fastest commit of {} builds p50 {:.4} ms, p99 \
             {:.4} ms, {:.4} s in all; per cycle ingest {} docs/s, recover {} s",
            list(g.setup_s.iter().copied()),
            builds.len(),
            best_ms.p50,
            best_ms.p99,
            best_total_s,
            list(
                builds
                    .iter()
                    .map(|b| b.footprint.docs as f64 / b.ingest_s.max(1e-9))
            ),
            list(builds.iter().map(|b| b.recover_s))
        ),
    ));
    let per_doc = |bytes: u64| bytes as f64 / docs_f;
    info.push((
        "index_bytes",
        format!(
            "per doc: lists {:.1}, tag dictionary+header {:.1}, text {:.1}, terms {:.1}, chain \
             {:.1}, docmeta {:.1}; images {} B",
            per_doc(fpnt.list_bytes),
            per_doc(fpnt.store_meta_bytes),
            per_doc(fpnt.text_bytes),
            per_doc(fpnt.terms_bytes),
            per_doc(fpnt.chain_bytes),
            per_doc(fpnt.docmeta_bytes),
            last.image_bytes
        ),
    ));
    let (checked, skipped) = g.clients.iter().fold((0, 0), |a, o| {
        (a.0 + o.oracle_checked, a.1 + o.oracle_skipped)
    });
    info.push((
        "oracle",
        format!(
            "{checked} answers re-executed in process and compared, {skipped} skipped (the \
             writer moved the frontier)"
        ),
    ));
    info.push((
        "standbys",
        format!(
            "eligible per shard before {:?}, after {:?}",
            kept.standbys.0, kept.standbys.1
        ),
    ));
    if cx.live_writer {
        let late = summarize_ns(&late_ns(g), 1e6);
        info.push((
            "writer",
            format!(
                "{} commits, started late by p50 {:.4} ms, p99 {:.4} ms",
                late.n, late.p50, late.p99
            ),
        ));
    }
    Ok(q)
}

fn late_ns(g: &Gathered) -> Vec<u64> {
    g.writers
        .iter()
        .flat_map(|w| w.late_ns.iter().copied())
        .collect()
}

/// Ladder `REFERENCE_LADDERS` queries of every class the workload's own
/// sample is short of, off the critical path, on the same archive.
fn reference_ladders(
    kept: &Kept,
    client: &mut Client,
    ladders: &mut Vec<QueryLadder>,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let session = QuerySession::open(&kept.served.searcher);
    let all = kept.inputs.ranked.iter().chain(&kept.inputs.wide);
    for class in CLASSES {
        if ladders.iter().filter(|l| l.class == class).count() >= MIN_CLASS_LADDERS {
            continue;
        }
        let of_class = all.clone().filter(|q| Class::of(q) == class);
        for (i, query) in of_class.take(REFERENCE_LADDERS).enumerate() {
            let t0 = Instant::now();
            let answer = client.query_verified(query.clone());
            let t1 = Instant::now();
            out.tally.attempt(1);
            if let Err(e) = answer {
                out.tally
                    .fail(format!("reference {} {i}: {e}", class.name()));
                continue;
            }
            let request = (1 << 48) | i as u64;
            let root = tr.record("client.query_verified", t0, t1, None, request);
            let ns = (t1 - t0).as_nanos() as u64;
            match query_ladder(tr, root, request, &session, query, ns) {
                Ok(l) => ladders.push(l),
                Err(why) => out
                    .tally
                    .fail(format!("reference {} {i} ladder: {why}", class.name())),
            }
        }
    }
}

/// Set every per-layer metric (a traced run only).
pub fn per_layer(
    cx: &Ctx<'_>,
    g: &Gathered,
    kept: &Kept,
    untraced: &QueryStats,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let outs = &g.clients;
    let mut ladders: Vec<QueryLadder> = outs
        .iter()
        .flat_map(|o| o.ladders.iter().cloned())
        .collect();
    let own = ladders.len();
    if own == 0 {
        return Err("the traced windows sampled no request".to_string());
    }
    let mut client = Client::connect(kept.served.handle.addr()).map_err(|e| e.to_string())?;
    reference_ladders(kept, &mut client, &mut ladders, tr, out);

    // core, per class: the slowest shard's `Searcher::execute`.
    for class in CLASSES {
        let ns: Vec<u64> = ladders
            .iter()
            .filter(|l| l.class == class)
            .map(QueryLadder::slowest_shard_ns)
            .collect();
        let s = summarize_ns(&ns, 1e6);
        let (p50, p99) = match class {
            Class::Ranked => ("core.ranked.execute_ms_p50", "core.ranked.execute_ms_p99"),
            Class::Conjunctive => (
                "core.conjunctive.execute_ms_p50",
                "core.conjunctive.execute_ms_p99",
            ),
            Class::TimeRange => (
                "core.time_range.execute_ms_p50",
                "core.time_range.execute_ms_p99",
            ),
        };
        out.values.set(p50, s.p50, s.n);
        out.values.set(p99, s.p99, s.n);
    }

    // Everything else is over the workload's own sampled requests only.
    // Shares are of the client-observed time, as sums, so slow requests
    // weigh as they cost.
    let ladders = &ladders[..own];
    let n = own;
    let v = &mut out.values;
    let p50_us = |pick: fn(&QueryLadder) -> u64| {
        summarize_ns(&ladders.iter().map(pick).collect::<Vec<_>>(), 1e3).p50
    };
    let total = |pick: fn(&QueryLadder) -> u64| ladders.iter().map(pick).sum::<u64>() as f64;
    let per_query = |pick: fn(&QueryLadder) -> u64| total(pick) / n as f64;
    let client_total = total(|l| l.client_ns);
    let share = |pick: fn(&QueryLadder) -> u64| ratio(total(pick), client_total);
    v.set(
        "core.execute_share",
        share(QueryLadder::slowest_shard_ns),
        n,
    );
    v.set("shard.gather_share", share(QueryLadder::gather_self_ns), n);
    v.set("server.wire_share", share(QueryLadder::wire_ns), n);
    v.set("server.residual_share", share(QueryLadder::residual_ns), n);
    let (read, skipped) = (total(|l| l.blocks_read), total(|l| l.blocks_skipped));
    v.set("core.blocks_read_per_query", read / n as f64, n);
    v.set("core.blocks_skipped_per_query", skipped / n as f64, n);
    v.set("core.skip_ratio", ratio(skipped, read + skipped), n);
    v.set("core.hits_per_query", per_query(|l| l.hits as u64), n);
    let session_ns: Vec<u64> = ladders.iter().map(|l| l.session_ns).collect();
    let session_ms = summarize_ns(&session_ns, 1e6);
    v.set("shard.execute_ms_p50", session_ms.p50, n);
    v.set("shard.execute_ms_p99", session_ms.p99, n);
    v.set(
        "shard.gather_self_ms",
        p50_us(QueryLadder::gather_self_ns) / 1e3,
        n,
    );
    v.set("shard.fanout", per_query(|l| l.fanout as u64), n);
    v.set("shard.degraded_consults", total(|l| l.degraded as u64), n);
    v.set("server.wire_encode_us", p50_us(|l| l.encode_ns), n);
    v.set("server.wire_decode_us", p50_us(|l| l.decode_ns), n);
    v.set("server.digest_us", p50_us(|l| l.digest_ns), n);
    let bytes: Vec<f64> = ladders.iter().map(|l| l.response_bytes as f64).collect();
    let bytes = Summary::of(bytes);
    v.set("server.response_bytes_p50", bytes.p50, n);
    v.set("server.response_bytes_p99", bytes.p99, n);
    v.set(
        "server.residual_ms",
        p50_us(QueryLadder::residual_ns) / 1e3,
        n,
    );
    v.set("client.verify_us", p50_us(|l| l.verify_ns), n);
    let answered: usize = outs.iter().map(|o| o.lat_ns.len()).sum();
    let refused = |pick: fn(&ClientOut) -> u64| outs.iter().map(pick).sum::<u64>() as f64;
    v.set("server.shed", refused(|o| o.shed), answered);
    v.set(
        "server.deadline_exceeded",
        refused(|o| o.deadline_exceeded),
        answered,
    );

    // The floor under every request, and a session refresh.
    let mut ping_ns = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        let pong = client.ping();
        ping_ns.push(t.elapsed().as_nanos() as u64);
        out.tally.check(pong.is_ok(), || "ping failed".to_string());
    }
    let mut refresh_ns: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.refresh_ns.iter().copied())
        .collect();
    for _ in refresh_ns.len()..REFRESHES {
        let t = Instant::now();
        let refreshed = client.refresh();
        refresh_ns.push(t.elapsed().as_nanos() as u64);
        out.tally
            .check(refreshed.is_ok(), || "refresh failed".to_string());
    }
    drop(client);
    let v = &mut out.values;
    v.set("server.ping_us", summarize_ns(&ping_ns, 1e3).p50, PINGS);
    v.set(
        "server.refresh_us",
        summarize_ns(&refresh_ns, 1e3).p50,
        refresh_ns.len(),
    );

    // Tracing's own cost: traced windows against untraced ones.
    let traced = query_stats(
        outs,
        cx.clients,
        cx.plan.window_ops,
        ClientOut::traced_window,
    )?;
    v.set(
        "gen.trace_overhead_share",
        ratio(traced.p50_ms, untraced.p50_ms) - 1.0,
        traced.pooled.n,
    );

    // Cache behaviour over the last cycle's measured phase.
    let (before, after) = kept.caches;
    let (decoded_rate, lookups) = hit_rate(before.decoded, after.decoded);
    let (summary_rate, summary_lookups) = hit_rate(before.summary, after.summary);
    let last_cycle = &outs[outs.len() - cx.clients.min(outs.len())..];
    let answered: usize = last_cycle.iter().map(|o| o.lat_ns.len()).sum();
    v.set(
        "postings.decoded_cache_hit_rate",
        decoded_rate,
        lookups as usize,
    );
    v.set(
        "postings.decoded_cache_lookups_per_query",
        ratio(lookups as f64, answered as f64),
        answered,
    );
    v.set(
        "postings.decoded_cache_invalidations",
        (after.invalidations - before.invalidations) as f64,
        lookups as usize,
    );
    v.set(
        "postings.summary_cache_hit_rate",
        summary_rate,
        summary_lookups as usize,
    );
    out.info.push((
        "decoded_cache",
        format!(
            "primaries, last cycle's measured phase: {lookups} lookups, {} misses against \
             {DEFAULT_DECODED_BLOCKS} blocks of capacity per engine",
            after.decoded.1 - before.decoded.1
        ),
    ));

    // Storage-side counters of the ingest, and the persisted images.
    let builds = &g.builds;
    let fpnt = &builds
        .last()
        .expect("every cycle builds an archive")
        .footprint;
    let docs = fpnt.docs as usize;
    let docs_f = fpnt.docs.max(1) as f64;
    let accesses = (fpnt.io.hits + fpnt.io.misses) as usize;
    v.set("worm.cache_hit_rate", fpnt.io.hit_rate(), accesses);
    v.set(
        "worm.read_ios_per_doc",
        fpnt.io.read_ios as f64 / docs_f,
        docs,
    );
    v.set(
        "worm.write_ios_per_doc",
        fpnt.io.write_ios as f64 / docs_f,
        docs,
    );
    let ms = |f: fn(&Built) -> f64| median_of(builds, f) * 1e3;
    v.set("worm.save_fs_ms", ms(|b| b.save_s), builds.len());
    v.set("worm.load_fs_ms", ms(|b| b.load_s), builds.len());
    v.set(
        "replica.recover_shard_ms",
        ms(|b| b.recover_shards_s) / f64::from(SHARDS),
        builds.len(),
    );
    let standbys = &kept.standbys.1;
    v.set(
        "replica.eligible_standbys",
        standbys.iter().copied().min().unwrap_or(0) as f64,
        standbys.len(),
    );
    v.set(
        "corpus.generate_s",
        median(&g.generate_s),
        g.generate_s.len(),
    );

    // Layer micro-timings and the commit ladder, on this archive's data.
    let image = &kept.images.first().ok_or("no persisted image")?.primary;
    {
        let shard0 = kept.served.searcher.shard(0).ok_or("shard 0 is degraded")?;
        micro::storage_layers(&shard0.engine(), v)?;
    }
    let docs = &kept.inputs.docs;
    micro::chain_seal(docs, v)?;
    micro::recover_one(image, &cx.config, v)?;
    micro::replica_drain(docs, &cx.config, v)?;
    micro::commit_ladder(&docs[..docs.len() / 4], &cx.config, tr, v)?;
    let (rejected, flips) = micro::tamper_rejects(image);
    v.set("worm.tamper_rejects", rejected as f64, flips);
    out.tally.check(rejected == flips, || {
        format!("{} of {flips} tampered images loaded", flips - rejected)
    });
    // The live writer's lateness, or an idle pacer's on this machine.
    let late = if cx.live_writer {
        late_ns(g)
    } else {
        env::pacer_probe(WRITER_RATE, PACER_PROBE_TICKS)
    };
    let late = summarize_ns(&late, 1e6);
    out.values.set("gen.pacer_late_ms_p99", late.p99, late.n);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::Footprint;

    fn client(lat_ms: &[u64], window_s: &[f64]) -> ClientOut {
        ClientOut {
            lat_ns: lat_ms.iter().map(|ms| ms * 1_000_000).collect(),
            window_s: window_s.to_vec(),
            ..ClientOut::default()
        }
    }

    #[test]
    fn query_stats_pool_each_cycle_and_take_the_median_over_cycles() {
        // Three cycles of one client, windows of 2 operations; the 5th
        // sample of the first cycle is a trailing partial window.
        let outs = [
            client(&[1, 3, 5, 7, 100], &[0.5, 1.5]),
            client(&[2, 4, 6, 8], &[0.25, 0.25]),
            client(&[10, 10, 10, 10], &[1.0, 1.0]),
        ];
        let all = query_stats(&outs, 1, 2, |_, _| true).expect("stats");
        assert_eq!(all.pooled.n, 12, "the partial window is dropped");
        // Per cycle (nearest rank): p50 3, 4, 10; p99 7, 8, 10; rates
        // 4 in 2 s, 4 in 0.5 s, 4 in 2 s.
        assert_eq!(
            all.per_cycle,
            [(3.0, 7.0, 2.0), (4.0, 8.0, 8.0), (10.0, 10.0, 2.0)]
        );
        assert_eq!((all.p50_ms, all.p99_ms, all.qps), (4.0, 8.0, 2.0));
        assert_eq!(all.least_beyond, 0);
        // Only the even windows: samples 1, 3 / 2, 4 / 10, 10.
        let even = query_stats(&outs, 1, 2, |_, w| w % 2 == 0).expect("stats");
        assert_eq!((even.pooled.n, even.p50_ms), (6, 2.0));
    }

    #[test]
    fn clients_of_one_cycle_pool_their_samples_and_add_their_rates() {
        let outs = [
            client(&[1, 1], &[0.5]),
            client(&[9, 9], &[1.0]),
            client(&[2, 2], &[2.0]),
            client(&[2, 2], &[2.0]),
        ];
        let s = query_stats(&outs, 2, 2, |_, _| true).expect("stats");
        assert_eq!(s.per_cycle, [(1.0, 9.0, 6.0), (2.0, 2.0, 2.0)]);
        assert_eq!(s.qps, 4.0);
    }

    #[test]
    fn a_cycle_without_a_whole_window_is_an_error() {
        let outs = [client(&[1, 2], &[1.0]), client(&[4], &[])];
        assert!(query_stats(&outs, 1, 2, |_, _| true).is_err());
    }

    #[test]
    fn commit_stats_summarise_each_run_and_take_the_median_over_runs() {
        let ms = |v: &[u64]| v.iter().map(|ms| ms * 1_000_000).collect::<Vec<u64>>();
        let (a, b, c) = (ms(&[1, 2, 3, 4]), ms(&[11, 12, 13, 14]), ms(&[5, 6, 7, 8]));
        let (p50, p99, per_run, pooled) = commit_stats(&[&a, &b, &c]);
        assert_eq!(per_run, [(2.0, 4.0), (12.0, 14.0), (6.0, 8.0)]);
        assert_eq!((p50, p99, pooled.n), (6.0, 8.0, 12));
    }

    #[test]
    fn best_of_builds_takes_each_documents_fastest_commit() {
        let build = |commit_ns: &[u64]| Built {
            commit_ns: commit_ns.to_vec(),
            ingest_s: 0.0,
            footprint: Footprint::default(),
            save_s: 0.0,
            image_bytes: 0,
            load_s: 0.0,
            recover_shards_s: 0.0,
            recover_s: 0.0,
        };
        let builds = [build(&[5, 1, 9]), build(&[4, 2, 9]), build(&[6, 3, 8])];
        assert_eq!(best_of_builds(&builds), [4, 1, 8]);
        assert!(best_of_builds(&[]).is_empty());
    }

    #[test]
    fn live_commits_are_cut_into_whole_blocks_per_cycle() {
        let writer = |n: u64| WriterOut {
            commit_ns: (0..n).collect(),
            ..WriterOut::default()
        };
        let cycles = [writer(5), writer(4)];
        let blocks = live_blocks(&cycles, 2).expect("blocks");
        // The first cycle's fifth commit is a trailing partial block; no
        // block straddles two cycles.
        assert_eq!(blocks, [&[0, 1][..], &[2, 3], &[0, 1], &[2, 3]]);
        assert!(live_blocks(&[writer(5), writer(1)], 2).is_err());
    }

    #[test]
    fn hit_rate_is_of_the_difference_and_one_when_idle() {
        assert_eq!(hit_rate((10, 10), (40, 20)), (0.75, 40));
        assert_eq!(hit_rate((5, 5), (5, 5)), (1.0, 0));
    }
}
