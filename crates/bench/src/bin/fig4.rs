//! Figure 4 — experimental validation: *measured* workload run-time ratio
//! (uniform merging / no merging) on a real engine, for different cache
//! sizes, using a 1% random sample of the query log.
//!
//! The paper implemented uniform merging in IBM's Trevi search engine and
//! found the measured ratios "quantitatively similar" to the simulated
//! ones (Figure 3(e), "0 term" curve).  Here the functional
//! [`SearchEngine`](tks_core::engine::SearchEngine) plays Trevi's role on the simulated WORM storage: we
//! ingest the corpus into a merged and an unmerged engine, run the query
//! sample against both, and report both wall-clock and postings-scanned
//! ratios.

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use std::time::Instant;
use tks_bench::cost::{list_lengths, query_cost, unmerged_query_cost};
use tks_bench::sim::build_engine;
use tks_bench::{print_table, save_json, Scale};
use tks_core::engine::EngineConfig;
use tks_core::merge::MergeAssignment;
use tks_core::query::Query;
use tks_corpus::{DocumentGenerator, QueryGenerator, TermStats};

#[derive(Serialize)]
struct Row {
    paper_cache_mb: u64,
    num_lists: u32,
    wall_time_ratio: f64,
    postings_ratio: f64,
}

fn main() {
    let scale = Scale::from_args();
    let gen = DocumentGenerator::new(scale.corpus());
    let qgen = QueryGenerator::new(scale.query_log());
    let ti = TermStats::collect(&gen, 0..scale.docs).doc_freq;

    // "Running all 300,000 queries on the server would have taken very
    // long, so we instead used a 1% random sample from the query log."
    let sample: Vec<_> = qgen.queries(0..scale.queries).step_by(100).collect();
    eprintln!("[fig4] query sample: {} queries", sample.len());

    // Unmerged engine: the denominator.
    eprintln!("[fig4] ingesting unmerged engine ({} docs)…", scale.docs);
    let unmerged = build_engine(
        &gen,
        scale.docs,
        EngineConfig {
            assignment: MergeAssignment::unmerged(scale.vocab),
            cache_bytes: 0,
            ..Default::default()
        },
    )
    .expect("well-formed synthetic corpus");
    let t0 = Instant::now();
    let mut unmerged_hits = 0usize;
    for q in &sample {
        unmerged_hits += unmerged
            .execute(&Query::disjunctive(&q.terms[..], 10))
            .map(|r| r.hits.len())
            .unwrap_or(0);
    }
    let unmerged_time = t0.elapsed().as_secs_f64();

    let ratio = scale.vocab_ratio();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &mb in &[4u64, 8, 16, 32, 64, 128] {
        let m = (((mb << 20) / 8192) as f64 / ratio).round().max(2.0) as u32;
        eprintln!("[fig4] ingesting merged engine M={m} (paper {mb} MB)…");
        let merged = build_engine(
            &gen,
            scale.docs,
            EngineConfig {
                assignment: MergeAssignment::uniform(m),
                cache_bytes: 0,
                ..Default::default()
            },
        )
        .expect("well-formed synthetic corpus");
        let t0 = Instant::now();
        let mut merged_hits = 0usize;
        for q in &sample {
            merged_hits += merged
                .execute(&Query::disjunctive(&q.terms[..], 10))
                .map(|r| r.hits.len())
                .unwrap_or(0);
        }
        let merged_time = t0.elapsed().as_secs_f64();
        // Ranked retrieval must agree on hit counts regardless of merging.
        assert!(merged_hits >= unmerged_hits, "merged engine lost results");

        // Analytic postings-scanned ratio over the same sample.
        let assignment = MergeAssignment::uniform(m);
        let lens = list_lengths(&assignment, &ti);
        let (mut mc, mut uc) = (0u64, 0u64);
        for q in &sample {
            mc += query_cost(&assignment, &lens, &q.terms);
            uc += unmerged_query_cost(&ti, &q.terms);
        }
        let r = Row {
            paper_cache_mb: mb,
            num_lists: m,
            wall_time_ratio: merged_time / unmerged_time.max(1e-9),
            postings_ratio: mc as f64 / uc.max(1) as f64,
        };
        rows.push(vec![
            format!("{mb}"),
            format!("{m}"),
            format!("{:.2}", r.wall_time_ratio),
            format!("{:.2}", r.postings_ratio),
        ]);
        out.push(r);
    }
    print_table(
        "Figure 4: measured workload run-time ratio (uniform merging / unmerged)",
        &[
            "paper cache (MB)",
            "lists M",
            "wall-time ratio",
            "postings ratio",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: quantitatively similar to the simulated Figure 3(e) '0 term' curve —\n\
         large ratios at 4–8 MB falling to ≈1 by 64–128 MB."
    );
    save_json("fig4", &(&scale, &out));
}
