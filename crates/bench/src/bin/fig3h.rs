//! Figure 3(h) — cumulative distribution of per-query costs with uniform
//! merging at 32 / 64 / 512 MB cache sizes versus no merging.
//!
//! Paper shape: "merging slows down the shortest queries the most (the x
//! axis is log scale), while the long running queries are comparatively
//! unaffected."

// Experiment binary: expect() on malformed synthetic input is acceptable
// (the production no-panic surface is gated by clippy + `cargo xtask audit`).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use serde::Serialize;
use tks_bench::cost::{list_lengths, query_cost, unmerged_query_cost};
use tks_bench::{print_table, save_json, Scale};
use tks_core::merge::MergeAssignment;
use tks_corpus::{DocumentGenerator, QueryGenerator, QueryTermStats, TermStats};

#[derive(Serialize)]
struct CdfRow {
    cost_threshold: u64,
    pct_unmerged: f64,
    pct_32mb: f64,
    pct_64mb: f64,
    pct_512mb: f64,
}

fn cdf_at(costs: &[u64], threshold: u64) -> f64 {
    costs.iter().filter(|&&c| c <= threshold).count() as f64 / costs.len().max(1) as f64 * 100.0
}

fn main() {
    let scale = Scale::from_args();
    let gen = DocumentGenerator::new(scale.corpus());
    let qgen = QueryGenerator::new(scale.query_log());
    let ti = TermStats::collect(&gen, 0..scale.docs).doc_freq;
    let _qi = QueryTermStats::collect(&qgen, 0..scale.queries, scale.vocab);

    let ratio = scale.vocab_ratio();
    let mk = |mb: u64| {
        let m = (((mb << 20) / 8192) as f64 / ratio).round().max(2.0) as u32;
        MergeAssignment::uniform(m)
    };
    let configs = [mk(32), mk(64), mk(512)];
    let lens: Vec<Vec<u64>> = configs.iter().map(|a| list_lengths(a, &ti)).collect();

    let mut costs_unmerged = Vec::new();
    let mut costs_merged: Vec<Vec<u64>> = vec![Vec::new(); configs.len()];
    for q in qgen.queries(0..scale.queries) {
        costs_unmerged.push(unmerged_query_cost(&ti, &q.terms).max(1));
        for (i, a) in configs.iter().enumerate() {
            costs_merged[i].push(query_cost(a, &lens[i], &q.terms).max(1));
        }
    }

    // Log-spaced thresholds spanning the observed range.
    let max_cost = *costs_merged[0].iter().max().unwrap_or(&1);
    let mut thresholds = Vec::new();
    let mut t = 10u64.max(costs_unmerged.iter().copied().min().unwrap_or(1));
    while t < max_cost * 10 {
        thresholds.push(t);
        t = t.saturating_mul(4);
    }

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for &t in &thresholds {
        let r = CdfRow {
            cost_threshold: t,
            pct_unmerged: cdf_at(&costs_unmerged, t),
            pct_32mb: cdf_at(&costs_merged[0], t),
            pct_64mb: cdf_at(&costs_merged[1], t),
            pct_512mb: cdf_at(&costs_merged[2], t),
        };
        rows.push(vec![
            format!("{t}"),
            format!("{:.1}", r.pct_unmerged),
            format!("{:.1}", r.pct_32mb),
            format!("{:.1}", r.pct_64mb),
            format!("{:.1}", r.pct_512mb),
        ]);
        out.push(r);
    }
    print_table(
        "Figure 3(h): % of queries with cost ≤ threshold (postings scanned)",
        &["cost ≤", "unmerged %", "32MB %", "64MB %", "512MB %"],
        &rows,
    );
    println!(
        "\nPaper shape: the merged CDFs shift right of the unmerged one mostly at LOW costs\n\
         (cheap queries absorb the merging penalty); the right tails nearly coincide."
    );
    save_json("fig3h", &(&scale, &out));
}
