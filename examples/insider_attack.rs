//! The insider ("Mala") tries to hide a committed record — and why every
//! route fails against this system while succeeding against naive ones.
//!
//! Walks through the paper's attack catalogue:
//!
//! 1. Figure 6: the B+ tree hiding attack *succeeds silently* on a
//!    WORM-resident B+ tree;
//! 2. the same goal is structurally impossible against a jump index (and
//!    anything Mala can write is caught by the audit);
//! 3. §5 phantom-posting stuffing is detected by cross-checking postings
//!    against the WORM document store;
//! 4. §5 decoy-document rank dilution works mechanically but leaves the
//!    record findable and the evidence intact.
//!
//! ```text
//! cargo run --release --example insider_attack
//! ```

use tks_bench::rank_attack::{rank_of, stuff_phantom_postings, stuff_with_decoys};
use trustworthy_search::btree::{hide_keys_above, AppendOnlyBPlusTree, BTreeConfig};
use trustworthy_search::core::rank_attack::detect_phantom_postings;
use trustworthy_search::jump::{BlockJumpIndex, JumpConfig};
use trustworthy_search::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. The B+ tree on WORM is not trustworthy (Figure 6).
    // ------------------------------------------------------------------
    println!("--- 1. B+ tree hiding attack (Figure 6) ---");
    let mut tree = AppendOnlyBPlusTree::new(BTreeConfig::tiny(3, 4));
    for k in [2u64, 4, 7, 11, 13, 19, 23, 29, 31] {
        tree.insert(k).unwrap();
    }
    println!(
        "before attack: lookup(31) = {}",
        tree.lookup(31, &mut |_| {})
    );
    let attack = hide_keys_above(&mut tree, 25, &[25, 26, 30]).unwrap();
    println!(
        "Mala appends separator 25 + decoy subtree (legal WORM appends only)…\n\
         after attack:  lookup(31) = {}   <- silently hidden!",
        tree.lookup(31, &mut |_| {})
    );
    println!(
        "hidden committed keys: {:?}; FindGeq(28) now returns {:?} (was Some(29))",
        attack.hidden_keys,
        tree.find_geq(28, &mut |_| {})
    );
    println!(
        "the bytes are still on WORM ({}), but no query can reach them",
        if tree.leaf_chain_keys().contains(&31) {
            "31 present in leaf chain"
        } else {
            "?"
        }
    );

    // ------------------------------------------------------------------
    // 2. The jump index is immune: Proposition 2 — once inserted, always
    //    found — holds because lookup paths never depend on later writes.
    // ------------------------------------------------------------------
    println!("\n--- 2. Jump index under the same pressure ---");
    let mut jump: BlockJumpIndex<u64> = BlockJumpIndex::new(JumpConfig::new(256, 3, 1 << 16));
    for k in [2u64, 4, 7, 11, 13, 19, 23, 29, 31] {
        jump.insert(k).unwrap();
    }
    // Mala's only legal writes are appends of *larger* keys (the commit
    // counter is monotone) — which cannot affect any existing path:
    jump.insert(40).unwrap();
    jump.insert(41).unwrap();
    println!(
        "after Mala's appends: lookup(31) = {:?}",
        jump.lookup(31).unwrap()
    );
    println!(
        "find_geq(28) = {:?} (correct 29; cannot be misdirected)",
        jump.find_geq(28)
            .unwrap()
            .map(|p| jump.entry_at(p).unwrap())
    );
    // A non-monotone append is refused outright:
    println!(
        "append of smaller key 30: {:?}",
        jump.insert(30).err().map(|e| e.to_string())
    );
    println!("full structural audit: {:?}", jump.audit().is_ok());

    // ------------------------------------------------------------------
    // 3. Phantom-posting stuffing is detected (paper §5).
    // ------------------------------------------------------------------
    println!("\n--- 3. Phantom posting stuffing ---");
    let mut engine = SearchEngine::new(EngineConfig {
        assignment: MergeAssignment::uniform(8),
        ..Default::default()
    })
    .unwrap();
    let target = engine
        .add_document(
            "stewart waksal imclone insider sale evidence",
            Timestamp(1_000),
        )
        .unwrap();
    let term = engine.term_of("imclone").unwrap();
    stuff_phantom_postings(&mut engine, term, &[500, 501, 502]).unwrap();
    let phantoms = detect_phantom_postings(&engine).unwrap();
    println!(
        "Mala appended 3 raw postings for nonexistent documents; verification flags {} phantom posting(s):",
        phantoms.len()
    );
    for p in &phantoms {
        println!(
            "  {} at {}[{}]: {:?}",
            p.posting.doc, p.list, p.position, p.reason
        );
    }

    // ------------------------------------------------------------------
    // 4. Decoy-document rank dilution: works, but survivable & visible.
    // ------------------------------------------------------------------
    println!("\n--- 4. Decoy-document rank dilution ---");
    println!(
        "rank of the evidence for [waksal imclone] before: {:?}",
        rank_of(&engine, "waksal imclone", target, 100)
    );
    stuff_with_decoys(&mut engine, "waksal imclone", 25).unwrap();
    println!(
        "after 25 decoys: rank {:?} — diluted, but still in the result list;\n\
         an investigator examining all results finds it, and 25 near-identical\n\
         decoy documents about [waksal imclone] are themselves glaring evidence.",
        rank_of(&engine, "waksal imclone", target, 100)
    );
    let audit = engine.audit();
    println!(
        "\nfinal audit clean: {} (decoys are real documents; the phantom\n\
              postings above are caught by posting verification, which a\n\
              deployment runs alongside this structural audit)",
        audit.is_clean()
    );
}
