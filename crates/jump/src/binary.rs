//! The binary (per-entry) jump index of paper §4.1–§4.3.
//!
//! One node per indexed key; node `s` holds `log₂ N` jump pointers, where
//! the `i`-th pointer leads to the smallest key `l′` with
//! `key(s) + 2ⁱ ≤ l′ < key(s) + 2ⁱ⁺¹`.  `Insert`, `Lookup` and `FindGeq`
//! are transcribed from the paper's Figure 7 pseudocode, with each `assert`
//! realised as a [`TamperEvidence`] report.
//!
//! The structure is fossilized: legitimate operation only ever *appends*
//! nodes and *sets null pointers* — exactly the mutations WORM storage
//! permits.  The adversary interface ([`BinaryJumpIndex::adversary_append_node`],
//! [`BinaryJumpIndex::adversary_set_pointer`]) models what Mala can do with
//! raw device access, and the invariant checks show that none of it can
//! hide a committed key.

use crate::{JumpError, TamperEvidence};

const NULL: u32 = u32::MAX;

/// Per-entry binary jump index over a strictly increasing key sequence.
///
/// # Example
///
/// ```
/// use tks_jump::BinaryJumpIndex;
///
/// let mut idx = BinaryJumpIndex::new(1 << 16);
/// for k in [1u64, 2, 5, 7, 10, 15] {
///     idx.insert(k).unwrap();
/// }
/// assert!(idx.lookup(7).unwrap());
/// assert!(!idx.lookup(8).unwrap());
/// assert_eq!(idx.find_geq(8).unwrap(), Some(10));
/// assert_eq!(idx.find_geq(16).unwrap(), None);
/// ```
#[derive(Debug, Clone)]
pub struct BinaryJumpIndex {
    max_key: u64,
    levels: u32,
    /// Key per node, in insertion order (node 0 is the smallest key).
    keys: Vec<u64>,
    /// Flattened pointers: `ptrs[node * levels + i]`, `NULL` when unset.
    ptrs: Vec<u32>,
    last: Option<u64>,
}

impl BinaryJumpIndex {
    /// Create an empty index able to hold keys in `[0, max_key)`.
    ///
    /// # Panics
    ///
    /// Panics if `max_key < 2`.
    pub fn new(max_key: u64) -> Self {
        assert!(max_key >= 2, "max_key must be at least 2");
        let levels = 64 - (max_key - 1).leading_zeros();
        Self {
            max_key,
            levels,
            keys: Vec::new(),
            ptrs: Vec::new(),
            last: None,
        }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The largest key inserted so far.
    pub fn last_key(&self) -> Option<u64> {
        self.last
    }

    /// Number of jump levels (`⌈log₂ max_key⌉`).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    fn ptr(&self, node: u32, i: u32) -> u32 {
        self.ptrs[node as usize * self.levels as usize + i as usize]
    }

    fn set_ptr(&mut self, node: u32, i: u32, target: u32) {
        self.ptrs[node as usize * self.levels as usize + i as usize] = target;
    }

    /// `i` with `s + 2ⁱ ≤ k < s + 2ⁱ⁺¹`, i.e. `⌊log₂(k − s)⌋`.
    fn exponent(s: u64, k: u64) -> u32 {
        debug_assert!(k > s);
        63 - (k - s).leading_zeros()
    }

    /// Insert `k` (paper: `Insert(k)`).  Keys must be strictly increasing.
    pub fn insert(&mut self, k: u64) -> Result<(), JumpError> {
        if k >= self.max_key {
            return Err(JumpError::KeyTooLarge {
                key: k,
                max: self.max_key,
            });
        }
        if let Some(last) = self.last {
            if k <= last {
                return Err(JumpError::NonMonotonicInsert { last, attempted: k });
            }
        }
        // Step 1–4: empty index → new root node.
        if self.keys.is_empty() {
            self.push_node(k);
            self.last = Some(k);
            return Ok(());
        }
        let mut s = 0u32; // node holding the smallest key
                          // Step 6 assert: s < k — guaranteed by the monotonicity check, but
                          // re-checked because the stored structure is the trust anchor.
        if self.keys[0] >= k {
            return Err(tamper("insert-root", self.keys[0], k).into());
        }
        loop {
            let i = Self::exponent(self.keys[s as usize], k);
            if self.ptr(s, i) == NULL {
                // Steps 9–12: create the node and set the pointer — both
                // are appends in WORM terms.
                let node = self.push_node(k);
                self.set_ptr(s, i, node);
                self.last = Some(k);
                return Ok(());
            }
            let next = self.ptr(s, i);
            let key_next = self.keys[next as usize];
            // Step 15 assert: s' < k.
            if key_next >= k {
                return Err(tamper("insert-path", key_next, k).into());
            }
            s = next;
        }
    }

    /// Look up `k` (paper: `Lookup(k)`); `Ok(true)` iff `k` was inserted.
    pub fn lookup(&self, k: u64) -> Result<bool, TamperEvidence> {
        Ok(self.lookup_with_path(k)?.0)
    }

    /// [`lookup`](Self::lookup), also returning the sequence of exponents
    /// `i₁, i₂, …` selected along the path (Proposition 1 states they
    /// strictly decrease).
    pub fn lookup_with_path(&self, k: u64) -> Result<(bool, Vec<u32>), TamperEvidence> {
        let mut path = Vec::new();
        if self.keys.is_empty() {
            return Ok((false, path));
        }
        let mut s = 0u32;
        loop {
            let key_s = self.keys[s as usize];
            if key_s > k {
                return Ok((false, path));
            }
            if key_s == k {
                return Ok((true, path));
            }
            let i = Self::exponent(key_s, k);
            path.push(i);
            let next = self.ptr(s, i);
            if next == NULL {
                return Ok((false, path));
            }
            let key_next = self.keys[next as usize];
            // Step 14 assert: s + 2ⁱ ≤ s' < s + 2ⁱ⁺¹.
            if !in_jump_range(key_s, i, key_next) {
                return Err(tamper_range("lookup-jump", key_s, i, key_next));
            }
            s = next;
        }
    }

    /// Smallest indexed key ≥ `k` (paper: `FindGeq(k)` / `FindGeqRec`).
    pub fn find_geq(&self, k: u64) -> Result<Option<u64>, TamperEvidence> {
        if self.keys.is_empty() {
            return Ok(None);
        }
        self.find_geq_rec(k, 0)
    }

    fn find_geq_rec(&self, k: u64, s: u32) -> Result<Option<u64>, TamperEvidence> {
        let key_s = self.keys[s as usize];
        // Step 1–3: the current key already satisfies the query.
        if key_s >= k {
            return Ok(Some(key_s));
        }
        // Step 4.
        let mut i = Self::exponent(key_s, k);
        // Steps 5–13: try the exact-range pointer first.
        let p = self.ptr(s, i);
        if p != NULL {
            let t = self.keys[p as usize];
            // Step 7 assert.
            if !in_jump_range(key_s, i, t) {
                return Err(tamper_range("findgeq-jump", key_s, i, t));
            }
            if let Some(res) = self.find_geq_rec(k, p)? {
                // Step 10 assert: the result must still lie in the range
                // this pointer is responsible for.
                if !in_jump_range(key_s, i, res) {
                    return Err(tamper_range("findgeq-result", key_s, i, res));
                }
                return Ok(Some(res));
            }
        }
        // Steps 14–22: no key ≥ k via pointer i; the first later non-null
        // pointer leads to the overall next larger key.
        i += 1;
        while i < self.levels {
            let p = self.ptr(s, i);
            if p != NULL {
                let t = self.keys[p as usize];
                // Step 18 assert.
                if !in_jump_range(key_s, i, t) {
                    return Err(tamper_range("findgeq-scan", key_s, i, t));
                }
                return Ok(Some(t));
            }
            i += 1;
        }
        Ok(None)
    }

    /// Full-structure audit: re-derive every pointer constraint and report
    /// the first violation.  Sound for any structure the adversary can
    /// reach by appends, because appends cannot change existing keys or
    /// set pointers twice.
    pub fn audit(&self) -> Result<(), TamperEvidence> {
        for node in 0..self.keys.len() as u32 {
            let key_s = self.keys[node as usize];
            for i in 0..self.levels {
                let p = self.ptr(node, i);
                if p == NULL {
                    continue;
                }
                if p as usize >= self.keys.len() {
                    return Err(TamperEvidence {
                        invariant: "audit-dangling",
                        detail: format!("node {node} pointer {i} targets missing node {p}"),
                    });
                }
                let t = self.keys[p as usize];
                if !in_jump_range(key_s, i, t) {
                    return Err(tamper_range("audit-range", key_s, i, t));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Adversary interface: the mutations Mala can perform with raw WORM
    // access.  She can append new nodes and set pointers that are still
    // null; she can never alter an existing key or pointer.
    // ------------------------------------------------------------------

    /// Adversarially append a node with an arbitrary key (legal WORM
    /// append).  Returns the new node id.  Does *not* update `last`, since
    /// Mala bypasses the legitimate insertion code.
    pub fn adversary_append_node(&mut self, key: u64) -> u32 {
        self.push_node_raw(key)
    }

    /// Adversarially set a still-null pointer (legal WORM append).
    ///
    /// # Panics
    ///
    /// Panics if the pointer is already set — overwriting is physically
    /// impossible on WORM, so the attack harness must never attempt it.
    pub fn adversary_set_pointer(&mut self, node: u32, i: u32, target: u32) {
        assert_eq!(
            self.ptr(node, i),
            NULL,
            "WORM forbids overwriting a set pointer"
        );
        self.set_ptr(node, i, target);
    }

    fn push_node(&mut self, key: u64) -> u32 {
        let id = self.push_node_raw(key);
        self.last = Some(key);
        id
    }

    fn push_node_raw(&mut self, key: u64) -> u32 {
        let id = self.keys.len() as u32;
        self.keys.push(key);
        self.ptrs
            .extend(std::iter::repeat_n(NULL, self.levels as usize));
        id
    }
}

fn in_jump_range(s: u64, i: u32, t: u64) -> bool {
    // s + 2^i ≤ t < s + 2^{i+1}, computed without overflow.
    let lo = s.checked_add(1u64 << i);
    let hi = s.checked_add(1u64 << (i + 1).min(63));
    match (lo, hi) {
        (Some(lo), Some(hi)) => lo <= t && t < hi,
        (Some(lo), None) => lo <= t,
        _ => false,
    }
}

fn tamper(invariant: &'static str, found: u64, expected_below: u64) -> TamperEvidence {
    TamperEvidence {
        invariant,
        detail: format!("encountered key {found} where a key < {expected_below} was required"),
    }
}

fn tamper_range(invariant: &'static str, s: u64, i: u32, t: u64) -> TamperEvidence {
    TamperEvidence {
        invariant,
        detail: format!(
            "pointer {i} from key {s} reached {t}, outside [{s}+2^{i}, {s}+2^{})",
            i + 1
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_figure_7a_example() {
        // Figure 7(a): sequence 1, 2, 5, 7, 10, 15.
        let mut idx = BinaryJumpIndex::new(32);
        for k in [1u64, 2, 5, 7, 10, 15] {
            idx.insert(k).unwrap();
        }
        // "the 0th pointer from 1 points to 2, as 1 + 2^0 ≤ 2 < 1 + 2^1"
        assert_eq!(idx.ptr(0, 0), 1);
        // "the 2nd pointer points to 5 since 1 + 2^2 ≤ 5 < 1 + 2^3"
        assert_eq!(idx.ptr(0, 2), 2);
        // "To look up 7 … one follows the 2nd pointer from 1 to 5 and the
        // 1st pointer from 5 to 7."
        let (found, path) = idx.lookup_with_path(7).unwrap();
        assert!(found);
        assert_eq!(path, vec![2, 1]);
    }

    #[test]
    fn insert_rejects_non_monotonic_and_too_large() {
        let mut idx = BinaryJumpIndex::new(16);
        idx.insert(5).unwrap();
        assert!(matches!(
            idx.insert(5),
            Err(JumpError::NonMonotonicInsert { .. })
        ));
        assert!(matches!(
            idx.insert(3),
            Err(JumpError::NonMonotonicInsert { .. })
        ));
        assert!(matches!(idx.insert(16), Err(JumpError::KeyTooLarge { .. })));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn lookup_on_empty_and_below_root() {
        let idx = BinaryJumpIndex::new(16);
        assert!(!idx.lookup(3).unwrap());
        let mut idx = BinaryJumpIndex::new(16);
        idx.insert(5).unwrap();
        assert!(!idx.lookup(3).unwrap(), "keys below the root are absent");
        assert!(idx.lookup(5).unwrap());
    }

    #[test]
    fn find_geq_basics() {
        let mut idx = BinaryJumpIndex::new(64);
        for k in [3u64, 8, 9, 21, 40] {
            idx.insert(k).unwrap();
        }
        assert_eq!(idx.find_geq(0).unwrap(), Some(3));
        assert_eq!(idx.find_geq(3).unwrap(), Some(3));
        assert_eq!(idx.find_geq(4).unwrap(), Some(8));
        assert_eq!(idx.find_geq(10).unwrap(), Some(21));
        assert_eq!(idx.find_geq(22).unwrap(), Some(40));
        assert_eq!(idx.find_geq(41).unwrap(), None);
    }

    #[test]
    fn zero_key_is_indexable() {
        let mut idx = BinaryJumpIndex::new(8);
        idx.insert(0).unwrap();
        idx.insert(1).unwrap();
        assert!(idx.lookup(0).unwrap());
        assert_eq!(idx.find_geq(0).unwrap(), Some(0));
    }

    #[test]
    fn dense_sequence_fully_recoverable() {
        let mut idx = BinaryJumpIndex::new(256);
        for k in 0..200u64 {
            idx.insert(k).unwrap();
        }
        for k in 0..200u64 {
            assert!(idx.lookup(k).unwrap());
            assert_eq!(idx.find_geq(k).unwrap(), Some(k));
        }
        assert_eq!(idx.find_geq(200).unwrap(), None);
        idx.audit().unwrap();
    }

    #[test]
    fn proposition_1_exponents_strictly_decrease() {
        let mut idx = BinaryJumpIndex::new(1 << 20);
        let keys: Vec<u64> = (0..500).map(|i| i * 37 + (i % 7)).collect();
        for &k in &keys {
            idx.insert(k).unwrap();
        }
        for &k in &keys {
            let (found, path) = idx.lookup_with_path(k).unwrap();
            assert!(found);
            for w in path.windows(2) {
                assert!(w[0] > w[1], "exponents must strictly decrease: {path:?}");
            }
            // Complexity bound: at most ⌊log₂ k⌋ + 1 jumps.
            if k > idx.keys[0] {
                let bound = 64 - (k - idx.keys[0]).leading_zeros();
                assert!(path.len() as u32 <= bound + 1);
            }
        }
    }

    #[test]
    fn adversarial_appends_cannot_hide_keys() {
        // Mala appends nodes with arbitrary keys and wires them into
        // never-set pointers.  Committed keys must remain reachable or the
        // structure must yield tamper evidence — never a silent miss.
        let mut idx = BinaryJumpIndex::new(1 << 12);
        let committed: Vec<u64> = vec![2, 10, 31, 100, 640, 641, 2000];
        for &k in &committed {
            idx.insert(k).unwrap();
        }
        // Attack: append a bogus node with a key that "shadows" 641 and
        // hang it off an unset pointer of the root.
        let bogus = idx.adversary_append_node(600);
        let mut wired = false;
        for i in 0..idx.levels() {
            if idx.ptr(0, i) == NULL {
                idx.adversary_set_pointer(0, i, bogus);
                wired = true;
                break;
            }
        }
        assert!(wired);
        for &k in &committed {
            match idx.lookup(k) {
                Ok(found) => assert!(found, "committed key {k} vanished silently"),
                Err(_tamper) => { /* detection is an acceptable outcome */ }
            }
        }
        // The audit must flag the wiring if it violated a range constraint.
        // (With key 600 off the root at some exponent i, the range check
        // fails unless 600 happens to fall in that range — it cannot, since
        // all in-range exponents were consumed by legitimate inserts.)
        assert!(idx.audit().is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Proposition 2: once inserted, a key can always be looked up —
        /// regardless of what is inserted afterwards.
        #[test]
        fn prop2_insert_then_always_found(mut raw in proptest::collection::vec(0u64..5000, 1..120)) {
            raw.sort_unstable();
            raw.dedup();
            let mut idx = BinaryJumpIndex::new(8192);
            for (n, &k) in raw.iter().enumerate() {
                idx.insert(k).unwrap();
                // Every previously inserted key remains visible.
                for &past in &raw[..=n] {
                    prop_assert!(idx.lookup(past).unwrap());
                }
            }
            idx.audit().unwrap();
        }

        /// Proposition 3: for any committed v with k ≤ v, FindGeq(k) never
        /// returns a value greater than v; and it returns exactly the
        /// successor.
        #[test]
        fn prop3_findgeq_is_exact_successor(mut raw in proptest::collection::vec(0u64..5000, 1..120),
                                            probes in proptest::collection::vec(0u64..5100, 1..60)) {
            raw.sort_unstable();
            raw.dedup();
            let mut idx = BinaryJumpIndex::new(8192);
            for &k in &raw {
                idx.insert(k).unwrap();
            }
            for &q in &probes {
                let expect = raw.iter().copied().find(|&v| v >= q);
                prop_assert_eq!(idx.find_geq(q).unwrap(), expect);
            }
        }

        /// Lookup agrees with set membership for arbitrary probes.
        #[test]
        fn lookup_matches_membership(mut raw in proptest::collection::vec(0u64..3000, 1..100),
                                     probes in proptest::collection::vec(0u64..3100, 1..60)) {
            raw.sort_unstable();
            raw.dedup();
            let mut idx = BinaryJumpIndex::new(4096);
            for &k in &raw {
                idx.insert(k).unwrap();
            }
            let set: std::collections::HashSet<u64> = raw.iter().copied().collect();
            for &q in &probes {
                prop_assert_eq!(idx.lookup(q).unwrap(), set.contains(&q));
            }
        }
    }
}
