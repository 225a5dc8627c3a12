//! Paper-scale query campaign: block-max top-k vs exhaustive ranking.
//!
//! The paper's workload is 1M documents and 300,000 logged queries
//! (§6); this binary replays a scaled version of that campaign through
//! the *engine* (not the cost model) twice — once through the bounded
//! block-max evaluator behind `Query::Disjunctive`, once through the
//! exhaustive reference (`disjunctive_ranked_exhaustive`) — and records
//! ingest throughput, query latency percentiles, and the Figure 8(c)
//! block charge of each side.  Every 97th query is additionally checked
//! bit-identical between the two evaluators, so the speedup number can
//! never come from a wrong answer.
//!
//! Two tiers:
//!
//! * **reduced** (default; CI): 12k documents over a 36k-term
//!   vocabulary in the paper's popular-terms-unmerged layout — the 500
//!   document-popular head terms keep private lists spanning hundreds
//!   of blocks, the tail merges into short lists — queried with a
//!   multi-keyword-weighted mix over the df ≥ 10 head of the
//!   vocabulary (a term matching fewer than `top_k` documents cannot
//!   establish a pruning threshold, and block-max cannot beat the
//!   exhaustive scan on single-term queries, where both read one list).
//! * **full** (`TKS_AT_SCALE=full` or `--full`; hours): the paper's
//!   1M-document, 300k-query campaign.
//!
//! Results go to `results/at_scale.json`, which is also the committed
//! baseline: CI gates the seeded, deterministic block counters against
//! it (>20% on blocks scanned or skipped).  Wall-clock regressions are
//! the `e2e` benchmark's job.

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Instant;

use serde::Serialize;
use tks_bench::sim::build_engine;
use tks_bench::{print_table, try_save_json, Scale};
use tks_core::engine::EngineConfig;
use tks_core::{MergeAssignment, Query};
use tks_corpus::{DocumentGenerator, QueryGenerator};
use tks_postings::TermId;

/// Hits returned per query — the paper's result pages show ~10.
const TOP_K: usize = 10;

/// Minimum acceptable multi-keyword speedup on the reduced matrix.
const SPEEDUP_TARGET: f64 = 5.0;

#[derive(Serialize)]
struct CampaignStats {
    elapsed_secs: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    blocks_scanned: u64,
    blocks_skipped: u64,
}

#[derive(Serialize)]
struct AtScaleReport {
    mode: &'static str,
    docs: u64,
    /// Document-popular head terms with private lists (paper Fig 3(d)).
    unmerged_head: u32,
    /// Merged lists holding the vocabulary tail.
    tail_lists: u32,
    block_size: usize,
    top_k: usize,
    queries: u64,
    mean_query_terms: f64,
    ingest_secs: f64,
    ingest_docs_per_sec: f64,
    blockmax: CampaignStats,
    exhaustive: CampaignStats,
    /// Exhaustive wall-clock ÷ block-max wall-clock over the campaign.
    speedup: f64,
    /// Block-max blocks scanned ÷ exhaustive blocks read (lower is
    /// better; this is the Figure 8(c) I/O ratio).
    blocks_scanned_ratio: f64,
    /// Queries whose hit lists were verified bit-identical between the
    /// two evaluators during this run.
    spot_checks_passed: u64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn campaign_stats(
    elapsed_secs: f64,
    mut latencies_us: Vec<f64>,
    blocks_scanned: u64,
    blocks_skipped: u64,
) -> CampaignStats {
    latencies_us.sort_by(f64::total_cmp);
    CampaignStats {
        elapsed_secs,
        qps: latencies_us.len() as f64 / elapsed_secs.max(1e-9),
        p50_us: percentile(&latencies_us, 0.50),
        p99_us: percentile(&latencies_us, 0.99),
        blocks_scanned,
        blocks_skipped,
    }
}

fn main() {
    let full = std::env::var("TKS_AT_SCALE").is_ok_and(|v| v == "full")
        || std::env::args().any(|a| a == "--full");
    let mut scale = Scale::from_args();
    // Campaign geometry: the paper's popular-terms-unmerged layout
    // (Figures 3(d)–3(e)) — the document-popular head terms get private
    // lists, the tail is hashed into short merged lists.  This is the
    // shape that makes early termination matter: a query's selective
    // term scans a *short* tail list and establishes a high threshold,
    // after which the common terms' long private lists are mostly
    // skipped, while the exhaustive evaluator must read them end to
    // end.  Blocks scale with the corpus so each head list spans many
    // more blocks than `top_k` contenders can occupy.
    let (mode, unmerged_head, tail_lists, block_size) = if scale.is_default_workload() {
        if full {
            scale = Scale {
                docs: 1_000_000,
                vocab: 1_200_000,
                terms_per_doc: 500,
                queries: 300_000,
                query_vocab: 60_000,
                seed: scale.seed,
            };
            ("full", 60_000u32, 8_192u32, 8192usize)
        } else {
            scale = Scale {
                docs: 12_000,
                vocab: 36_000,
                terms_per_doc: 60,
                queries: 2_000,
                query_vocab: 6_500,
                seed: scale.seed,
            };
            ("reduced", 500u32, 768u32, 256usize)
        }
    } else {
        (
            "custom",
            scale.vocab / 18,
            scale.merged_lists_for_join(),
            4096usize,
        )
    };
    let num_lists = unmerged_head + tail_lists;
    // The corpus generator ranks terms by document frequency: term 0 is
    // the most document-popular, so the head is simply 0..unmerged_head.
    let ranked: Vec<TermId> = (0..unmerged_head).map(TermId).collect();
    let assignment =
        MergeAssignment::popular_unmerged(&ranked, unmerged_head as usize, num_lists, scale.vocab);

    // ---- 1. Ingest (timed): documents/second through the engine. ------
    eprintln!(
        "[at_scale] {mode}: ingesting {} docs × ~{} terms into {num_lists} lists \
         ({unmerged_head} private + {tail_lists} merged)…",
        scale.docs, scale.terms_per_doc
    );
    let gen = DocumentGenerator::new(scale.corpus());
    let t0 = Instant::now();
    let engine = build_engine(
        &gen,
        scale.docs,
        EngineConfig {
            assignment,
            block_size,
            ..Default::default()
        },
    )
    .expect("well-formed synthetic corpus");
    let ingest_secs = t0.elapsed().as_secs_f64();
    let visible = engine.num_docs();

    // ---- 2. Query log: multi-keyword-weighted mix. --------------------
    // Single-term queries read exactly one list under either evaluator,
    // so early termination buys nothing there; the campaign weights the
    // multi-keyword lengths the way the paper's *conjunctive* experiments
    // do (Figure 8(c) is plotted per keyword count ≥ 2) while keeping a
    // realistic single-term share.
    let mut qcfg = scale.query_log();
    qcfg.len_weights = vec![0.01, 0.07, 0.12, 0.17, 0.21, 0.22, 0.20];
    let queries: Vec<Vec<TermId>> = QueryGenerator::new(qcfg)
        .queries(0..scale.queries)
        .map(|q| q.terms)
        .collect();
    let mean_terms =
        queries.iter().map(Vec::len).sum::<usize>() as f64 / queries.len().max(1) as f64;

    // Warm pass (untimed): populates the block-summary and decoded-block
    // caches, as a long-running archive's steady state would be.
    eprintln!("[at_scale] warming caches over {} queries…", queries.len());
    for terms in &queries {
        engine
            .execute(&Query::disjunctive(terms.clone(), TOP_K))
            .expect("clean index");
    }

    // ---- 3. Block-max campaign (timed). -------------------------------
    eprintln!("[at_scale] block-max campaign…");
    let mut bm_lat = Vec::with_capacity(queries.len());
    let (mut bm_scanned, mut bm_skipped) = (0u64, 0u64);
    let mut bm_hits: Vec<Vec<(u64, u64)>> = Vec::with_capacity(queries.len() / 97 + 1);
    let t1 = Instant::now();
    for (i, terms) in queries.iter().enumerate() {
        let q0 = Instant::now();
        let resp = engine
            .execute(&Query::disjunctive(terms.clone(), TOP_K))
            .expect("clean index");
        bm_lat.push(q0.elapsed().as_secs_f64() * 1e6);
        bm_scanned += resp.blocks_read;
        bm_skipped += resp.blocks_skipped;
        if i % 97 == 0 {
            bm_hits.push(
                resp.hits
                    .iter()
                    .map(|h| (h.doc.0, h.score.to_bits()))
                    .collect(),
            );
        }
    }
    let bm_secs = t1.elapsed().as_secs_f64();

    // ---- 4. Exhaustive campaign (timed), same queries. ----------------
    eprintln!("[at_scale] exhaustive campaign…");
    let mut ex_lat = Vec::with_capacity(queries.len());
    let mut ex_blocks = 0u64;
    let mut spot_checks = 0u64;
    let mut spot_iter = bm_hits.iter();
    let t2 = Instant::now();
    for (i, terms) in queries.iter().enumerate() {
        let mut canonical = terms.clone();
        canonical.sort_unstable();
        canonical.dedup();
        let q0 = Instant::now();
        let (hits, blocks) = engine.disjunctive_ranked_exhaustive(&canonical, TOP_K, visible);
        ex_lat.push(q0.elapsed().as_secs_f64() * 1e6);
        ex_blocks += blocks;
        if i % 97 == 0 {
            let want: Vec<(u64, u64)> = hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect();
            let got = spot_iter.next().expect("one recorded hit list per check");
            assert_eq!(
                got, &want,
                "query {i}: block-max and exhaustive results diverged"
            );
            spot_checks += 1;
        }
    }
    let ex_secs = t2.elapsed().as_secs_f64();

    if std::env::var("TKS_AT_SCALE_DEBUG").is_ok() {
        // Per-class cost split by the rarest query term's df: where do
        // the two evaluators spend their blocks?
        let mut classes = [(0u64, 0u64, 0u64); 4]; // (queries, bm, ex)
        for terms in &queries {
            let min_df = terms.iter().map(|&t| engine.doc_freq(t)).min().unwrap_or(0);
            let c = match min_df {
                0..=9 => 0,
                10..=99 => 1,
                100..=999 => 2,
                _ => 3,
            };
            let mut canonical = terms.clone();
            canonical.sort_unstable();
            canonical.dedup();
            let resp = engine
                .execute(&Query::disjunctive(terms.clone(), TOP_K))
                .expect("clean index");
            let (_, ex) = engine.disjunctive_ranked_exhaustive(&canonical, TOP_K, visible);
            classes[c].0 += 1;
            classes[c].1 += resp.blocks_read;
            classes[c].2 += ex;
        }
        for (name, (n, bm, ex)) in ["df<10", "df<100", "df<1000", "df>=1000"]
            .iter()
            .zip(classes)
        {
            eprintln!(
                "[debug] min-{name}: {n} queries, bm {bm} vs ex {ex} blocks ({:.1}x)",
                ex as f64 / bm.max(1) as f64
            );
        }
    }
    let blockmax = campaign_stats(bm_secs, bm_lat, bm_scanned, bm_skipped);
    let exhaustive = campaign_stats(ex_secs, ex_lat, ex_blocks, 0);
    let speedup = ex_secs / bm_secs.max(1e-9);
    let report = AtScaleReport {
        mode,
        docs: scale.docs,
        unmerged_head,
        tail_lists,
        block_size,
        top_k: TOP_K,
        queries: queries.len() as u64,
        mean_query_terms: mean_terms,
        ingest_secs,
        ingest_docs_per_sec: scale.docs as f64 / ingest_secs.max(1e-9),
        blocks_scanned_ratio: bm_scanned as f64 / ex_blocks.max(1) as f64,
        speedup,
        spot_checks_passed: spot_checks,
        blockmax,
        exhaustive,
    };

    let rows = vec![
        vec![
            "ingest".into(),
            format!("{:.0} docs/s", report.ingest_docs_per_sec),
            format!("{:.1}s for {} docs", ingest_secs, scale.docs),
        ],
        vec![
            "block-max p50 / p99".into(),
            format!(
                "{:.0}µs / {:.0}µs",
                report.blockmax.p50_us, report.blockmax.p99_us
            ),
            format!("{:.0} q/s", report.blockmax.qps),
        ],
        vec![
            "exhaustive p50 / p99".into(),
            format!(
                "{:.0}µs / {:.0}µs",
                report.exhaustive.p50_us, report.exhaustive.p99_us
            ),
            format!("{:.0} q/s", report.exhaustive.qps),
        ],
        vec![
            "campaign speedup".into(),
            format!("{speedup:.1}×"),
            format!("target ≥ {SPEEDUP_TARGET:.0}×"),
        ],
        vec![
            "blocks scanned vs exhaustive".into(),
            format!("{:.1}%", report.blocks_scanned_ratio * 100.0),
            format!("{bm_scanned} vs {ex_blocks}"),
        ],
        vec![
            "blocks skipped (block-max)".into(),
            format!("{bm_skipped}"),
            format!("{spot_checks} spot checks bit-identical"),
        ],
    ];
    print_table(
        &format!("at_scale campaign ({mode} tier, k = {TOP_K})"),
        &["quantity", "measured", "detail"],
        &rows,
    );
    if mode == "reduced" && speedup < SPEEDUP_TARGET {
        eprintln!(
            "[at_scale] WARNING: reduced-matrix speedup {speedup:.2}× is below the \
             {SPEEDUP_TARGET:.0}× acceptance target"
        );
    }
    // The saved report is the committed baseline CI compares against: a
    // run that cannot write it must fail, or the gate compares the
    // committed file with itself and passes.
    if let Err(e) = try_save_json("at_scale", &report) {
        eprintln!("[at_scale] could not save results/at_scale.json: {e}");
        std::process::exit(1);
    }
}
