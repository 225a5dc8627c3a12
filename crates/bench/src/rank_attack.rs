//! The ranking attacks of paper §5.
//!
//! Mala cannot delete a committed document or its index entries, so her
//! remaining move is to make investigators *overlook* it: "Mala can try to
//! hide a document D by adding spurious documents to the posting lists of
//! all D's keywords or by directly altering the statistics maintained for
//! ranking D, so that D will be ranked low when Bob issues his query."
//!
//! 1. **Decoy documents** ([`stuff_with_decoys`]) — Mala commits many real
//!    documents containing D's keywords through the legitimate insertion
//!    path.  This *works* mechanically (D's rank drops) but is survivable:
//!    Bob examines all results in an investigation, and fabricating many
//!    *believable* documents about, say, [Stewart Waksal ImClone] is
//!    implausible — the paper's argument, which [`rank_of`] lets harnesses
//!    quantify.
//! 2. **Phantom postings** ([`stuff_phantom_postings`]) — Mala appends raw
//!    postings that reference nonexistent documents or documents that do
//!    not contain the keyword.  "The search engine can detect this and
//!    alert Bob to malicious activity": the engine's
//!    [`detect_phantom_postings`](tks_core::rank_attack::detect_phantom_postings)
//!    cross-checks every posting against the WORM document store.

use tks_core::engine::{SearchEngine, SearchError};
use tks_core::query::Query;
use tks_postings::{encode_posting, DocId, Posting, TermId, Timestamp};

/// Attack 1: commit `n_decoys` believable-looking documents containing
/// `keywords` through the legitimate insertion path, to dilute the rank of
/// earlier documents.  Returns the decoys' IDs.
pub fn stuff_with_decoys(
    engine: &mut SearchEngine,
    keywords: &str,
    n_decoys: usize,
) -> Result<Vec<DocId>, SearchError> {
    let ts = engine
        .num_docs()
        .checked_sub(1)
        .and_then(|last| engine.document_timestamp(DocId(last)))
        .unwrap_or(Timestamp(0));
    let mut ids = Vec::with_capacity(n_decoys);
    for i in 0..n_decoys {
        // Decoy text repeats the keywords (inflating tf) plus filler that
        // varies per decoy.
        let text = format!("{keywords} {keywords} decoy filler item number {i}");
        ids.push(engine.add_document(&text, ts)?);
    }
    Ok(ids)
}

/// Attack 2: append raw phantom postings for `term` to its list on the
/// WORM device, bypassing the document store.  `fake_docs` must be
/// non-decreasing and ≥ the list's current tail for the appends to slip
/// past the monotonicity audit (a cunning Mala picks large IDs).
pub fn stuff_phantom_postings(
    engine: &mut SearchEngine,
    term: TermId,
    fake_docs: &[u64],
) -> Result<(), SearchError> {
    let list = engine.config().assignment.list_of(term);
    let tag = engine.list_store().tag_of(list, term)?.unwrap_or(0);
    let name = format!("lists/{}", list.0);
    let store = engine.list_store_mut();
    let file = match store.fs().open(&name) {
        Ok(f) => f,
        Err(_) => {
            // The list file does not exist yet; Mala can create it (she
            // can run any application code).
            store.fs_mut().create(&name, u64::MAX)?
        }
    };
    for &d in fake_docs {
        let bytes = encode_posting(Posting::new(DocId(d), tag, 200));
        store.fs_mut().append(file, &bytes)?;
    }
    Ok(())
}

/// The rank (1-based) of `doc` in the result list for `query`, if present
/// in the top `depth`.
pub fn rank_of(engine: &SearchEngine, query: &str, doc: DocId, depth: usize) -> Option<usize> {
    engine
        .execute(&Query::disjunctive(query, depth))
        .map(|r| r.hits)
        .unwrap_or_default()
        .iter()
        .position(|h| h.doc == doc)
        .map(|p| p + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tks_core::engine::EngineConfig;
    use tks_core::merge::MergeAssignment;
    use tks_core::rank_attack::{detect_phantom_postings, PhantomReason};

    fn engine() -> SearchEngine {
        SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(4),
            block_size: 512,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn decoy_stuffing_dilutes_rank_but_is_survivable() {
        let mut e = engine();
        let target = e
            .add_document("stewart waksal imclone insider sale", Timestamp(10))
            .unwrap();
        assert_eq!(rank_of(&e, "waksal imclone", target, 100), Some(1));
        stuff_with_decoys(&mut e, "waksal imclone", 30).unwrap();
        let rank = rank_of(&e, "waksal imclone", target, 100).expect("still findable");
        assert!(rank > 1, "decoys must dilute the target's rank, got {rank}");
        // Survivability: the target is still *in* the results — Bob, who
        // examines everything, will find it.
        let all = e
            .execute(&Query::disjunctive("waksal imclone", 1_000))
            .unwrap()
            .hits;
        assert!(all.iter().any(|h| h.doc == target));
        // And the decoys pass posting verification (they are real
        // documents), so this attack is fought by human review, not by
        // the index.
        assert!(detect_phantom_postings(&e).unwrap().is_empty());
    }

    #[test]
    fn phantom_nonexistent_docs_detected() {
        let mut e = engine();
        e.add_document("quarterly fraud evidence", Timestamp(1))
            .unwrap();
        let term = e.term_of("fraud").unwrap();
        stuff_phantom_postings(&mut e, term, &[50, 51, 52]).unwrap();
        let phantoms = detect_phantom_postings(&e).unwrap();
        assert_eq!(phantoms.len(), 3);
        assert!(phantoms
            .iter()
            .all(|p| p.reason == PhantomReason::NoSuchDocument));
    }

    #[test]
    fn phantom_keyword_absent_detected() {
        let mut e = engine();
        e.add_document("document about cooking recipes", Timestamp(1))
            .unwrap();
        e.add_document("document about fraud evidence", Timestamp(2))
            .unwrap();
        // Mala forges a posting claiming doc 0 contains "fraud": the doc
        // exists, the keyword does not.
        let term = e.term_of("fraud").unwrap();
        // Doc id 0 would break monotonicity if the list tail is past 0;
        // check the audit catches it *or* the verification does — the
        // forged posting uses the largest committed doc id to stay
        // monotone, which is the hardest case.
        stuff_phantom_postings(&mut e, term, &[0]).err(); // may fail audit later; ignore
        let phantoms = detect_phantom_postings(&e).unwrap();
        assert!(
            phantoms
                .iter()
                .any(|p| p.reason == PhantomReason::KeywordAbsent && p.posting.doc == DocId(0)),
            "forged keyword-absent posting must be flagged: {phantoms:?}"
        );
    }

    #[test]
    fn decoys_preserve_monotone_timestamps() {
        let mut e = engine();
        e.add_document("a", Timestamp(100)).unwrap();
        let ids = stuff_with_decoys(&mut e, "a", 3).unwrap();
        assert_eq!(ids.len(), 3);
        // Decoys reuse the last committed timestamp (Mala cannot backdate:
        // the commit-time index is monotone).
        for id in ids {
            assert_eq!(e.document_timestamp(id), Some(Timestamp(100)));
        }
    }
}
