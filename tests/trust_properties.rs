//! Cross-crate trust properties: the attacks of the paper either fail
//! outright or leave detectable evidence — and the baseline they defeat
//! (B+ trees on WORM) really is defeated.

use proptest::prelude::*;
use tks_bench::rank_attack::stuff_phantom_postings;
use trustworthy_search::btree::{hide_keys_above, AppendOnlyBPlusTree, BTreeConfig};
use trustworthy_search::core::rank_attack::{detect_phantom_postings, PhantomReason};
use trustworthy_search::jump::{BlockJumpIndex, JumpConfig, WormJumpIndex};
use trustworthy_search::prelude::*;
use trustworthy_search::worm::{WormError, WormFs};

#[test]
fn the_motivating_contrast_btree_falls_jump_index_stands() {
    // Same key sequence, same adversary powers (append-only writes).
    let keys = [2u64, 4, 7, 11, 13, 19, 23, 29, 31];

    let mut tree = AppendOnlyBPlusTree::new(BTreeConfig::tiny(3, 4));
    let mut jump: BlockJumpIndex<u64> = BlockJumpIndex::new(JumpConfig::new(256, 3, 1 << 16));
    for &k in &keys {
        tree.insert(k).unwrap();
        jump.insert(k).unwrap();
    }

    // B+ tree: the attack hides committed keys with zero evidence.
    let attack = hide_keys_above(&mut tree, 25, &[25, 26, 30]).unwrap();
    assert!(!attack.hidden_keys.is_empty());
    assert!(!tree.lookup(31, &mut |_| {}));

    // Jump index: every legal adversarial action leaves all keys visible.
    jump.insert(100).unwrap(); // larger appends are all Mala can do
    for &k in &keys {
        assert!(jump.lookup(k).unwrap(), "jump index lost {k}");
    }
    assert!(jump.audit().is_ok());
}

#[test]
fn worm_device_never_yields_to_overwrites() {
    let mut dev = WormDevice::new(64);
    let b = dev.alloc_block();
    dev.append(b, b"evidence").unwrap();
    for offset in 0..8 {
        assert!(dev.try_overwrite(b, offset, b"x").is_err());
    }
    assert_eq!(dev.read(b, 0, 8).unwrap(), b"evidence");
    assert_eq!(dev.tamper_log().len(), 8, "every attempt is logged");
}

#[test]
fn jump_index_recovery_flags_all_raw_tampering_routes() {
    // Build, persist, then try each raw mutation Mala can make on the
    // WORM files; recovery must refuse or the data must be intact.
    let cfg = JumpConfig::new(256, 3, 1 << 16);
    let fs = WormFs::new(WormDevice::new(4096));
    let mut idx: WormJumpIndex<u64> = WormJumpIndex::create(fs, "pl", cfg).unwrap();
    for k in (0..200u64).map(|i| i * 13 + 1) {
        idx.insert(k).unwrap();
    }
    // Route 1: append an out-of-order key to the data file.
    let mut fs = idx.into_fs();
    let data = fs.open("pl.data").unwrap();
    fs.append(data, &5u64.to_le_bytes()).unwrap();
    let err = WormJumpIndex::<u64>::recover(fs, "pl", cfg).unwrap_err();
    assert!(err.to_string().contains("tamper"), "{err}");
}

#[test]
fn engine_audit_catches_raw_posting_tampering() {
    let mut e = SearchEngine::new(EngineConfig {
        assignment: MergeAssignment::uniform(4),
        ..Default::default()
    })
    .unwrap();
    for i in 0..10u64 {
        e.add_document(
            &format!("record {i} fraud investigation material"),
            Timestamp(i),
        )
        .unwrap();
    }
    assert!(e.audit().is_clean());
    // Mala appends a stale (small) doc ID to every list she can open.
    let evil = trustworthy_search::postings::encode_posting(
        trustworthy_search::postings::Posting::new(DocId(0), 0, 1),
    );
    let mut tampered = 0;
    for l in 0..4u32 {
        let name = format!("lists/{l}");
        if let Ok(f) = e.list_store().fs().open(&name) {
            e.list_store_mut().fs_mut().append(f, &evil).unwrap();
            tampered += 1;
        }
    }
    assert!(tampered > 0);
    let report = e.audit();
    assert_eq!(report.list_violations.len(), tampered);
}

#[test]
fn phantom_postings_detected_even_when_monotone() {
    // Forged postings with large (future) doc IDs pass the monotonicity
    // audit — but posting verification still catches them.
    let mut e = SearchEngine::new(EngineConfig {
        assignment: MergeAssignment::uniform(4),
        ..Default::default()
    })
    .unwrap();
    e.add_document("incriminating ledger entry", Timestamp(5))
        .unwrap();
    let term = e.term_of("ledger").unwrap();
    stuff_phantom_postings(&mut e, term, &[40, 41]).unwrap();
    assert!(
        e.audit().list_violations.is_empty(),
        "monotone forgeries evade the audit"
    );
    let phantoms = detect_phantom_postings(&e).unwrap();
    assert_eq!(phantoms.len(), 2);
    assert!(phantoms
        .iter()
        .all(|p| p.reason == PhantomReason::NoSuchDocument));
}

#[test]
fn retention_periods_are_enforced() {
    let mut fs = WormFs::new(WormDevice::new(512));
    let f = fs.create("records/2006", 1_000_000).unwrap();
    fs.append(f, b"retained record").unwrap();
    assert!(matches!(
        fs.delete(f, 999_999),
        Err(WormError::RetentionNotExpired { .. })
    ));
    assert_eq!(fs.device().tamper_log().len(), 1);
    fs.delete(f, 1_000_000).unwrap();
}

#[test]
fn commit_time_index_rejects_backdating() {
    // §5: "Mala must not be able to retroactively insert email supposedly
    // committed during an earlier period."
    let mut e = SearchEngine::new(EngineConfig::default()).unwrap();
    e.add_document("genuine november record", Timestamp(2_000))
        .unwrap();
    let err = e
        .add_document("forged backdated record", Timestamp(1_000))
        .unwrap_err();
    assert!(err.to_string().contains("precedes"));
    assert_eq!(e.num_docs(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever Mala appends to a B+ tree hides *something* or nothing —
    /// but whatever she appends to a jump index (necessarily larger keys)
    /// hides *nothing*, ever.
    #[test]
    fn prop_jump_index_survives_any_monotone_adversary(
        mut committed in proptest::collection::vec(0u64..5_000, 5..80),
        adversarial in proptest::collection::vec(5_000u64..9_999, 0..40),
    ) {
        committed.sort_unstable();
        committed.dedup();
        let mut jump: BlockJumpIndex<u64> =
            BlockJumpIndex::new(JumpConfig::new(512, 4, 1 << 14));
        for &k in &committed {
            jump.insert(k).unwrap();
        }
        let mut evil = adversarial.clone();
        evil.sort_unstable();
        evil.dedup();
        for &k in &evil {
            jump.insert(k).unwrap();
        }
        for &k in &committed {
            prop_assert!(jump.lookup(k).unwrap());
            let pos = jump.find_geq(k).unwrap().unwrap();
            prop_assert_eq!(jump.entry_at(pos).unwrap(), k);
        }
        jump.audit().unwrap();
    }

    /// The engine's conjunctive results are immune to later insertions:
    /// adding documents never removes earlier matches.
    #[test]
    fn prop_conjunctive_results_are_durable(extra_docs in 1u64..30) {
        let mut e = SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(8),
            jump: Some(JumpConfig::new(1024, 4, 1 << 32)),
            store_documents: false,
            ..Default::default()
        }).unwrap();
        let a = TermId(1);
        let b = TermId(2);
        e.add_document_terms(&[(a, 1), (b, 1)], Timestamp(0), None).unwrap();
        let before = e.conjunctive_terms(&[a, b]).unwrap().0;
        prop_assert_eq!(&before, &vec![DocId(0)]);
        for i in 0..extra_docs {
            let t = TermId(3 + (i % 5) as u32);
            e.add_document_terms(&[(t, 1)], Timestamp(i + 1), None).unwrap();
        }
        let after = e.conjunctive_terms(&[a, b]).unwrap().0;
        prop_assert_eq!(after, before);
    }

    /// A time range and a watermark bound every boolean answer exactly:
    /// conjunctive (zigzag and scan-merge), time-range and phrase answers
    /// equal a brute-force filter over `document_timestamp` and the
    /// documents' words.  Timestamps repeat and may sit at the top of the
    /// 32-bit domain; ranges may be empty, inverted, open or at the `u64`
    /// extremes; up to 220 commits span two commit-time-index blocks.
    #[test]
    fn prop_range_and_watermark_answers_equal_brute_force(
        base in prop_oneof![Just(0u64), Just(1_000), Just(u32::MAX as u64 - 60)],
        docs in proptest::collection::vec(
            (proptest::collection::vec(0usize..4, 1..5), 0u64..3),
            1..220,
        ),
        probes in proptest::collection::vec(
            (
                (0u8..7, 0u64..140),
                (0u8..7, 0u64..140),
                (0u64..224, any::<bool>()),
                proptest::collection::vec(0usize..4, 1..4),
            ),
            1..12,
        ),
    ) {
        const WORDS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
        let jump = JumpConfig::new(JumpConfig::new(1 << 12, 4, 1 << 32).pointer_region_bytes() + 32, 4, 1 << 32);
        let mut engines: Vec<SearchEngine> = [Some(jump), None]
            .into_iter()
            .map(|jump| {
                SearchEngine::new(EngineConfig {
                    block_size: 64,
                    assignment: MergeAssignment::uniform(2),
                    jump,
                    positional: true,
                    ..Default::default()
                })
                .unwrap()
            })
            .collect();
        let mut ts = base;
        for (words, step) in &docs {
            ts = (ts + step).min(u32::MAX as u64);
            let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
            for e in &mut engines {
                e.add_document(&text.join(" "), Timestamp(ts)).unwrap();
            }
        }
        // A bound near the commit times, or at an extreme.
        let bound = |(kind, x): (u8, u64)| match kind {
            0..=3 => (base + x).saturating_sub(5),
            4 => 0,
            5 => u64::MAX,
            _ => [u32::MAX as u64, 1 << 32, 1 << 40][x as usize % 3],
        };
        for (from, to, (watermark, ranged), words) in probes {
            let (from, to) = (bound(from), bound(to));
            let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
            let text = text.join(" ");
            let visible = watermark.min(docs.len() as u64);
            for e in &engines {
                let in_range = |d: u64| {
                    let t = e.document_timestamp(DocId(d)).unwrap().0;
                    d < visible && from <= t && t <= to
                };
                let has = |d: u64, w: usize| docs[d as usize].0.contains(&w);
                let conj: Vec<DocId> = (0..visible)
                    .filter(|&d| !ranged || in_range(d))
                    .filter(|&d| words.iter().all(|&w| has(d, w)))
                    .map(DocId)
                    .collect();
                let times: Vec<DocId> = (0..visible).filter(|&d| in_range(d)).map(DocId).collect();
                let phrase: Vec<DocId> = (0..visible)
                    .filter(|&d| docs[d as usize].0.windows(words.len()).any(|w| w == &words[..]))
                    .map(DocId)
                    .collect();
                let range = ranged.then(|| TimeRange::new(Timestamp(from), Timestamp(to)));
                let conj_query = Query::Conjunctive { terms: text.as_str().into(), range };
                for (query, want) in [
                    (conj_query, conj),
                    (Query::time_range(Timestamp(from), Timestamp(to)), times),
                    (Query::phrase(text.as_str()), phrase),
                ] {
                    let got = e.execute_bounded(&query, watermark).unwrap();
                    prop_assert_eq!(got.docs(), want, "{:?} at watermark {}", query, watermark);
                    prop_assert_eq!(got.visible_docs, visible);
                }
            }
        }
    }
}
