//! Compact keyword encodings for merged posting lists.
//!
//! Paper §3, on the cost of merging: "we must store (an encoding of) the
//! keyword with each entry in a merged list.  The encoding can be stored
//! in log(q) bits, where q is the number of posting lists that are merged
//! together.  **This overhead can be reduced further if an encoding
//! scheme like Huffman encoding is used, since keyword occurrences within
//! merged posting lists are unlikely to be uniformly distributed.**"
//!
//! This module implements both:
//!
//! * the fixed `⌈log₂ q⌉`-bit code
//!   ([`tag_bits_for_group`](crate::codec::tag_bits_for_group)), and
//! * a canonical **Huffman code** over per-tag posting frequencies
//!   ([`HuffmanTagCode`]), with bit-exact encode/decode of tag streams.
//!
//! Because Zipf's law concentrates postings on a few member terms of each
//! merged list, Huffman coding beats the fixed code substantially in
//! practice — the `ablation` harness in `tks-bench` quantifies it on the
//! synthetic corpus.

use std::collections::BinaryHeap;

/// A canonical Huffman code over dense tags `0..n`.
///
/// # Example
///
/// ```
/// use tks_postings::tagcode::HuffmanTagCode;
///
/// // One hot tag, several cold ones.
/// let code = HuffmanTagCode::from_frequencies(&[90, 4, 3, 2, 1]);
/// assert!(code.code_len(0) < code.code_len(4));
/// let tags = vec![0, 0, 3, 0, 4, 1, 0];
/// let bits = code.encode(&tags);
/// assert_eq!(code.decode(&bits, tags.len()), tags);
/// // Far below the fixed ⌈log₂ 5⌉ = 3 bits per tag on this skew:
/// assert!(code.expected_bits(&[90, 4, 3, 2, 1]) < 1.6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanTagCode {
    /// Code length (bits) per tag; 0 only in the degenerate 1-tag case.
    lengths: Vec<u8>,
    /// Canonical codewords per tag (MSB-first within the length).
    codes: Vec<u32>,
    /// Decode table: tags sorted by (length, tag) with first-code offsets
    /// per length.
    sorted_tags: Vec<u32>,
    first_code: Vec<u32>,   // per length 0..=MAX
    first_index: Vec<u32>,  // per length 0..=MAX
    count_at_len: Vec<u32>, // per length 0..=MAX
    max_len: u8,
}

/// An encoded tag stream: packed bits, MSB-first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagBits {
    /// Packed bits.
    pub bytes: Vec<u8>,
    /// Number of meaningful bits.
    pub bit_len: u64,
}

impl HuffmanTagCode {
    /// Build a code for tags `0..freqs.len()` from their posting
    /// frequencies.  Zero-frequency tags get valid (long) codes so the
    /// code is total.
    ///
    /// # Panics
    ///
    /// Panics (via `assert!`) if `freqs` is empty; use
    /// [`try_from_frequencies`](Self::try_from_frequencies) to get a typed
    /// error instead.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        assert!(!freqs.is_empty(), "need at least one tag");
        Self::build(freqs)
    }

    /// Fallible variant of [`from_frequencies`](Self::from_frequencies):
    /// an empty tag universe yields [`CodecError::EmptyCodebook`] instead
    /// of a panic.
    pub fn try_from_frequencies(freqs: &[u64]) -> Result<Self, crate::codec::CodecError> {
        if freqs.is_empty() {
            return Err(crate::codec::CodecError::EmptyCodebook);
        }
        Ok(Self::build(freqs))
    }

    /// The one implementation behind both constructors; `freqs` is
    /// non-empty here.
    fn build(freqs: &[u64]) -> Self {
        let n = freqs.len();
        // Degenerate single-tag case: zero bits per posting.
        if n == 1 {
            return Self {
                lengths: vec![0],
                codes: vec![0],
                sorted_tags: vec![0],
                first_code: Vec::new(),
                first_index: Vec::new(),
                count_at_len: Vec::new(),
                max_len: 0,
            };
        }
        // Standard Huffman over (freq + 1) so zero-frequency tags stay
        // encodable without distorting the hot tags.
        #[derive(PartialEq, Eq)]
        struct Node {
            weight: u64,
            id: usize,
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
            }
        }
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut heap: BinaryHeap<Node> = (0..n)
            .map(|t| Node {
                weight: freqs[t] + 1,
                id: t,
            })
            .collect();
        // parent[] over 2n-1 implicit nodes.
        let mut parent = vec![usize::MAX; 2 * n - 1];
        let mut next_id = n;
        while heap.len() > 1 {
            let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
                break; // unreachable: the loop guard holds ≥ 2 nodes
            };
            parent[a.id] = next_id;
            parent[b.id] = next_id;
            heap.push(Node {
                weight: a.weight + b.weight,
                id: next_id,
            });
            next_id += 1;
        }
        let mut lengths = vec![0u8; n];
        for (t, len) in lengths.iter_mut().enumerate() {
            let mut d = 0u8;
            let mut cur = t;
            while parent[cur] != usize::MAX {
                cur = parent[cur];
                d += 1;
            }
            *len = d.max(1);
        }
        Self::from_lengths(lengths)
    }

    /// Build the canonical code tables from per-tag lengths.
    fn from_lengths(lengths: Vec<u8>) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut sorted_tags: Vec<u32> = (0..lengths.len() as u32).collect();
        sorted_tags.sort_by_key(|&t| (lengths[t as usize], t));
        let mut codes = vec![0u32; lengths.len()];
        let mut first_code = vec![0u32; max_len as usize + 1];
        let mut first_index = vec![0u32; max_len as usize + 1];
        let mut count_at_len = vec![0u32; max_len as usize + 1];
        for &l in &lengths {
            count_at_len[l as usize] += 1;
        }
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for (i, &t) in sorted_tags.iter().enumerate() {
            let len = lengths[t as usize];
            code <<= len - prev_len;
            if len != prev_len {
                first_code[len as usize] = code;
                first_index[len as usize] = i as u32;
            }
            codes[t as usize] = code;
            code += 1;
            prev_len = len;
        }
        Self {
            lengths,
            codes,
            sorted_tags,
            first_code,
            first_index,
            count_at_len,
            max_len,
        }
    }

    /// Code length in bits for `tag`.
    pub fn code_len(&self, tag: u32) -> u32 {
        self.lengths[tag as usize] as u32
    }

    /// Expected bits per posting under the given tag frequencies.
    pub fn expected_bits(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs
            .iter()
            .enumerate()
            .map(|(t, &f)| f as f64 * self.lengths[t] as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Encode a tag stream.
    pub fn encode(&self, tags: &[u32]) -> TagBits {
        let mut out = TagBits::default();
        for &t in tags {
            let len = self.lengths[t as usize] as u32;
            let code = self.codes[t as usize];
            for i in (0..len).rev() {
                let bit = (code >> i) & 1;
                let byte = (out.bit_len / 8) as usize;
                if byte == out.bytes.len() {
                    out.bytes.push(0);
                }
                if bit == 1 {
                    out.bytes[byte] |= 1 << (7 - (out.bit_len % 8));
                }
                out.bit_len += 1;
            }
        }
        out
    }

    /// Decode `count` tags from an encoded stream.
    ///
    /// # Panics
    ///
    /// Panics on a truncated or corrupt stream (the engine treats that as
    /// tamper evidence before decoding, via length bookkeeping).
    pub fn decode(&self, bits: &TagBits, count: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(count);
        if self.max_len == 0 {
            // Single-tag code: everything is tag 0.
            out.resize(count, 0);
            return out;
        }
        let mut pos = 0u64;
        let read_bit = |p: u64| -> u32 {
            let byte = bits.bytes[(p / 8) as usize];
            ((byte >> (7 - (p % 8))) & 1) as u32
        };
        for _ in 0..count {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                assert!(pos < bits.bit_len, "truncated tag stream");
                code = (code << 1) | read_bit(pos);
                pos += 1;
                len += 1;
                // Canonical decoding: at length `len`, codes for that
                // length start at first_code[len]; the tag index is the
                // offset from it.
                let fc = self.first_code[len as usize];
                let fi = self.first_index[len as usize];
                let count_at_len = self.count_at_len[len as usize];
                if count_at_len > 0 && code >= fc && code - fc < count_at_len {
                    out.push(self.sorted_tags[(fi + (code - fc)) as usize]);
                    break;
                }
                assert!(len <= self.max_len, "corrupt tag stream");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_tag_is_free() {
        let code = HuffmanTagCode::from_frequencies(&[10]);
        assert_eq!(code.code_len(0), 0);
        let bits = code.encode(&[0, 0, 0]);
        assert_eq!(bits.bit_len, 0);
        assert_eq!(code.decode(&bits, 3), vec![0, 0, 0]);
    }

    #[test]
    fn two_tags_one_bit_each() {
        let code = HuffmanTagCode::from_frequencies(&[5, 5]);
        assert_eq!(code.code_len(0), 1);
        assert_eq!(code.code_len(1), 1);
        let tags = vec![0, 1, 1, 0];
        assert_eq!(code.decode(&code.encode(&tags), 4), tags);
    }

    #[test]
    fn skewed_distribution_beats_fixed_code() {
        // 32 tags, Zipf-ish skew: fixed code is 5 bits.
        let freqs: Vec<u64> = (0..32).map(|t| 10_000 / (t as u64 + 1)).collect();
        let code = HuffmanTagCode::from_frequencies(&freqs);
        let avg = code.expected_bits(&freqs);
        assert!(avg < 5.0, "Huffman {avg:.2} bits must beat fixed 5 bits");
        // Kraft inequality: Σ 2^-len ≤ 1 — the code is prefix-free.
        let kraft: f64 = (0..32).map(|t| 2f64.powi(-(code.code_len(t) as i32))).sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
    }

    #[test]
    fn zero_frequency_tags_remain_encodable() {
        let code = HuffmanTagCode::from_frequencies(&[100, 0, 0, 50]);
        let tags = vec![1, 2, 0, 3];
        assert_eq!(code.decode(&code.encode(&tags), 4), tags);
    }

    #[test]
    fn uniform_distribution_near_log_q() {
        let freqs = vec![10u64; 16];
        let code = HuffmanTagCode::from_frequencies(&freqs);
        let avg = code.expected_bits(&freqs);
        assert!(
            (avg - 4.0).abs() < 0.5,
            "uniform 16 tags ≈ 4 bits, got {avg}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_roundtrip(freqs in proptest::collection::vec(0u64..1000, 1..40),
                          raw_tags in proptest::collection::vec(0u32..40, 0..200)) {
            let n = freqs.len() as u32;
            let tags: Vec<u32> = raw_tags.into_iter().map(|t| t % n).collect();
            let code = HuffmanTagCode::from_frequencies(&freqs);
            let bits = code.encode(&tags);
            prop_assert_eq!(code.decode(&bits, tags.len()), tags);
        }

        #[test]
        fn prop_huffman_never_worse_than_fixed(freqs in proptest::collection::vec(1u64..10_000, 2..64)) {
            let code = HuffmanTagCode::from_frequencies(&freqs);
            let avg = code.expected_bits(&freqs);
            let fixed = (freqs.len() as f64).log2().ceil();
            // Huffman is within one bit of entropy and never beaten by the
            // fixed-width code by more than rounding slack.
            prop_assert!(avg <= fixed + 1e-9, "avg {} vs fixed {}", avg, fixed);
        }

        #[test]
        fn prop_code_is_prefix_free(freqs in proptest::collection::vec(0u64..500, 2..48)) {
            let code = HuffmanTagCode::from_frequencies(&freqs);
            let n = freqs.len() as u32;
            for a in 0..n {
                for b in 0..n {
                    if a == b { continue; }
                    let (la, lb) = (code.code_len(a), code.code_len(b));
                    if la <= lb {
                        let ca = code.codes[a as usize];
                        let cb = code.codes[b as usize] >> (lb - la);
                        prop_assert!(ca != cb, "code {} is a prefix of {}", a, b);
                    }
                }
            }
        }
    }
}
