//! The ranking-attack countermeasure of paper §5: raw postings for a
//! missing document, or for a document without the keyword, are caught by
//! [`detect_phantom_postings`], which checks every posting against the
//! WORM document store.  The paper lab (`tks-bench`) simulates the attacks.

use crate::engine::{SearchEngine, SearchError};
use crate::tokenizer;
use tks_postings::{ListId, Posting};

/// A posting that fails verification against the document store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhantomPosting {
    /// The list holding the suspicious posting.
    pub list: ListId,
    /// Position within the list's raw bytes.
    pub position: u64,
    /// The posting itself.
    pub posting: Posting,
    /// Why it failed verification.
    pub reason: PhantomReason,
}

/// Why a posting is considered phantom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhantomReason {
    /// The referenced document was never committed.
    NoSuchDocument,
    /// The referenced document exists but does not contain the keyword.
    KeywordAbsent,
}

/// Countermeasure: verify every posting of every list against the WORM
/// document store.  A posting referencing a missing document, or a
/// document that does not contain the posting's keyword, is phantom — and
/// since the engine's own insertion path can never produce one, each is
/// evidence of malicious activity.
///
/// Requires the engine to store document text
/// ([`EngineConfig::store_documents`](crate::engine::EngineConfig)).
pub fn detect_phantom_postings(engine: &SearchEngine) -> Result<Vec<PhantomPosting>, SearchError> {
    let mut phantoms = Vec::new();
    let store = engine.list_store();
    let num_docs = engine.num_docs();
    for l in 0..store.num_lists() as u32 {
        let list = ListId(l);
        for (i, p) in store.raw_scan(list)?.enumerate() {
            if p.doc.0 >= num_docs {
                phantoms.push(PhantomPosting {
                    list,
                    position: i as u64,
                    posting: p,
                    reason: PhantomReason::NoSuchDocument,
                });
                continue;
            }
            let Some(text) = engine.document_text(p.doc) else {
                continue;
            };
            // Does the document actually contain a keyword with this
            // posting's tag in this list?
            let present = tokenizer::term_counts(&text).iter().any(|(tok, _)| {
                engine
                    .term_of(tok)
                    .filter(|&t| engine.config().assignment.list_of(t) == list)
                    .and_then(|t| store.tag_of(list, t).ok().flatten())
                    == Some(p.term_tag)
            });
            if !present {
                phantoms.push(PhantomPosting {
                    list,
                    position: i as u64,
                    posting: p,
                    reason: PhantomReason::KeywordAbsent,
                });
            }
        }
    }
    Ok(phantoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::merge::MergeAssignment;
    use tks_postings::Timestamp;

    fn engine() -> SearchEngine {
        SearchEngine::new(EngineConfig {
            assignment: MergeAssignment::uniform(4),
            block_size: 512,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn clean_engine_has_no_phantoms() {
        let mut e = engine();
        for i in 0..20u64 {
            e.add_document(&format!("legitimate record number {i}"), Timestamp(i))
                .unwrap();
        }
        assert!(detect_phantom_postings(&e).unwrap().is_empty());
    }
}
