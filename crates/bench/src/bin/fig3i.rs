//! Figure 3(i) — per-query slowdown (merged / unmerged cost) against the
//! query-cost percentile, for a 512 MB cache with uniform merging.
//!
//! Paper: "the longest-running half of the queries in the workload have no
//! visible slowdown on average, and the next longest-running 30% of the
//! queries are 25% slower on average"; the shortest 20% slow down ~4×.

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use tks_bench::cost::{list_lengths, query_cost, unmerged_query_cost};
use tks_bench::{print_table, save_json, Scale};
use tks_core::merge::MergeAssignment;
use tks_corpus::{DocumentGenerator, QueryGenerator, TermStats};

#[derive(Serialize)]
struct Bucket {
    percentile_lo: u32,
    percentile_hi: u32,
    mean_slowdown: f64,
}

fn main() {
    let scale = Scale::from_args();
    let gen = DocumentGenerator::new(scale.corpus());
    let qgen = QueryGenerator::new(scale.query_log());
    let ti = TermStats::collect(&gen, 0..scale.docs).doc_freq;

    let m = (((512u64 << 20) / 8192) as f64 / scale.vocab_ratio())
        .round()
        .max(2.0) as u32;
    let assignment = MergeAssignment::uniform(m);
    let lens = list_lengths(&assignment, &ti);

    // (unmerged cost, slowdown) per query; sort ascending by unmerged cost
    // so index/len is the query-cost percentile.
    let mut pairs: Vec<(u64, f64)> = qgen
        .queries(0..scale.queries)
        .map(|q| {
            let u = unmerged_query_cost(&ti, &q.terms).max(1);
            let mcost = query_cost(&assignment, &lens, &q.terms).max(1);
            (u, mcost as f64 / u as f64)
        })
        .collect();
    pairs.sort_by_key(|&(u, _)| u);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let n = pairs.len();
    for decile in 0..10u32 {
        let lo = n * decile as usize / 10;
        let hi = n * (decile as usize + 1) / 10;
        let mean = pairs[lo..hi].iter().map(|&(_, s)| s).sum::<f64>() / (hi - lo).max(1) as f64;
        rows.push(vec![
            format!("{}–{}%", decile * 10, (decile + 1) * 10),
            format!("{mean:.2}×"),
        ]);
        out.push(Bucket {
            percentile_lo: decile * 10,
            percentile_hi: (decile + 1) * 10,
            mean_slowdown: mean,
        });
    }
    print_table(
        "Figure 3(i): mean query slowdown by query-cost percentile (512 MB uniform merging)",
        &["cost percentile (short → long)", "mean slowdown"],
        &rows,
    );
    let long_half = out[5..].iter().map(|b| b.mean_slowdown).sum::<f64>() / 5.0;
    let short_fifth = out[..2].iter().map(|b| b.mean_slowdown).sum::<f64>() / 2.0;
    println!(
        "\nlongest-running half mean slowdown: {long_half:.2}× (paper: ~1.0×)\n\
         shortest 20% mean slowdown: {short_fifth:.2}× (paper: ~4×)"
    );
    save_json("fig3i", &(&scale, &out));
}
