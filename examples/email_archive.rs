//! Compliance email archive: the scenario that motivates the paper.
//!
//! A brokerage must retain all email (SEC Rule 17a-4) such that a future
//! investigator can find every relevant message.  This example runs a
//! multi-epoch archive: each month is an epoch whose merge assignment is
//! learned from the previous month's statistics, queries span epochs, and
//! time-restricted investigations only touch overlapping epochs.  It also
//! shows retention enforcement on the raw WORM file system.
//!
//! ```text
//! cargo run --release --example email_archive
//! ```

use tks_bench::epoch::{EpochConfig, EpochManager};
use trustworthy_search::prelude::*;
use trustworthy_search::worm::{WormError, WormFs};

/// A tiny synthetic mail stream: (day, from, to, subject words).
fn mail_stream() -> Vec<(u64, &'static str, &'static str, &'static str)> {
    vec![
        (1, "alice", "bob", "merger diligence timeline"),
        (3, "carol", "dan", "lunch thursday"),
        (5, "alice", "dan", "merger valuation model"),
        (9, "eve", "bob", "offsite agenda"),
        (12, "alice", "bob", "merger press release draft"),
        (33, "dan", "alice", "trade confirmations batch"),
        (36, "eve", "carol", "merger integration staffing"),
        (40, "alice", "eve", "quarterly compliance attestation"),
        (45, "bob", "alice", "merger escrow instructions"),
        (63, "carol", "bob", "holiday schedule"),
        (66, "alice", "bob", "merger closing checklist"),
        (70, "dan", "eve", "expense report reminder"),
    ]
}

fn main() {
    // One epoch per 30-day month; each epoch keeps the 4 hottest terms of
    // the previous month unmerged.
    let mut archive = EpochManager::new(EpochConfig {
        docs_per_epoch: 5,
        vocab_size: 256,
        num_lists: 16,
        unmerged_terms: 4,
        rank_by_query_freq: true,
        ..Default::default()
    });

    // Intern tokens into a shared vocabulary (the epoch manager works on
    // term IDs; a production wrapper would own this dictionary).
    let mut dict = std::collections::HashMap::<String, TermId>::new();
    let mut intern = |tok: &str| {
        let next = TermId(dict.len() as u32);
        *dict.entry(tok.to_string()).or_insert(next)
    };

    let mut mail_terms = Vec::new();
    for (day, from, to, subject) in mail_stream() {
        let mut terms: Vec<(TermId, u32)> = Vec::new();
        for tok in [from, to].into_iter().chain(subject.split_whitespace()) {
            let t = intern(tok);
            match terms.iter_mut().find(|(tt, _)| *tt == t) {
                Some((_, c)) => *c += 1,
                None => terms.push((t, 1)),
            }
        }
        terms.sort_unstable_by_key(|&(t, _)| t);
        let ts = Timestamp(day * 86_400);
        let doc = archive.add_document_terms(&terms, ts).unwrap();
        mail_terms.push((doc, day, from, to, subject));
        println!("day {day:>2}: {doc} {from} -> {to}: {subject:?}");
    }
    println!("\nepochs opened: {}", archive.num_epochs());

    // Investigation: all mail between alice and bob about the merger.
    let q: Vec<TermId> = ["alice", "bob", "merger"]
        .iter()
        .map(|t| *dict.get(*t).expect("token seen"))
        .collect();
    println!("\nconjunctive [alice bob merger] across all epochs:");
    for doc in archive.conjunctive_terms(&q).unwrap() {
        let (_, day, from, to, subject) = mail_terms.iter().find(|(d, ..)| *d == doc).unwrap();
        println!("  {doc} day {day}: {from} -> {to}: {subject:?}");
    }

    // Time-restricted: only days 30-60.  Epochs outside the window are
    // not even consulted (the paper's §3.3 payoff).
    let (hits, scanned) = archive
        .conjunctive_in_range(&q, Timestamp(30 * 86_400), Timestamp(60 * 86_400))
        .unwrap();
    println!(
        "\nsame query restricted to days 30–60: {} hit(s), {} of {} epochs scanned",
        hits.len(),
        scanned,
        archive.num_epochs()
    );

    // Retention enforcement at the storage layer: a WORM file with a
    // 7-year retention period refuses early deletion and logs the attempt.
    let mut fs = WormFs::new(WormDevice::new(4096));
    let seven_years = 7 * 365 * 86_400;
    let f = fs.create("mail/raw-2001-11.mbox", seven_years).unwrap();
    fs.append(f, b"From alice@example.com ...").unwrap();
    match fs.delete(f, 86_400 * 100) {
        Err(WormError::RetentionNotExpired { expires_at, .. }) => println!(
            "\nearly delete refused (retention expires at t={expires_at}); attempt logged: {}",
            fs.device().tamper_log().len()
        ),
        other => panic!("unexpected: {other:?}"),
    }
}
