//! The analytic workload-cost model of paper §3.1 (Eq. 1).
//!
//! Disjunctive keyword queries are answered by scanning the posting lists
//! of the query terms, so with per-term list lengths `ti` and query
//! frequencies `qi` the unmerged workload cost is `Σ ti·qi`.  Under a
//! merge assignment `A₁ … A_M` each term's scan becomes a scan of its
//! whole merged list:
//!
//! ```text
//! Q = Σ_{i=1..M} ( Σ_{k∈A_i} t_k ) · ( Σ_{k∈A_i} q_k )        (Eq. 1)
//! ```
//!
//! Figures 3(c)–3(i) are all derived from these quantities; this module
//! computes them exactly (integer arithmetic, no sampling error).

use tks_core::merge::MergeAssignment;
use tks_postings::TermId;

/// Unmerged workload cost `Σ ti·qi` — the denominator of every Figure 3
/// ratio.
pub fn unmerged_workload_cost(ti: &[u64], qi: &[u64]) -> u128 {
    ti.iter()
        .zip(qi)
        .map(|(&t, &q)| t as u128 * q as u128)
        .sum()
}

/// Eq. 1 workload cost of `assignment` for per-term statistics `ti`, `qi`.
///
/// # Panics
///
/// Panics if `ti` and `qi` have different lengths.
pub fn workload_cost(assignment: &MergeAssignment, ti: &[u64], qi: &[u64]) -> u128 {
    assert_eq!(
        ti.len(),
        qi.len(),
        "ti and qi must cover the same vocabulary"
    );
    let m = assignment.num_lists() as usize;
    let mut t_sum = vec![0u128; m];
    let mut q_sum = vec![0u128; m];
    for t in 0..ti.len() {
        let l = assignment.list_of(TermId(t as u32)).0 as usize;
        t_sum[l] += ti[t] as u128;
        q_sum[l] += qi[t] as u128;
    }
    t_sum.iter().zip(&q_sum).map(|(&t, &q)| t * q).sum()
}

/// Per-list total lengths `Σ_{k∈A_i} t_k` (the scan cost of each merged
/// list), used for per-query costs.
pub fn list_lengths(assignment: &MergeAssignment, ti: &[u64]) -> Vec<u64> {
    let mut lens = vec![0u64; assignment.num_lists() as usize];
    for t in 0..ti.len() {
        lens[assignment.list_of(TermId(t as u32)).0 as usize] += ti[t];
    }
    lens
}

/// Cost of one disjunctive query under `assignment`: the postings scanned,
/// i.e. the summed lengths of the *distinct* merged lists its terms map to
/// (a list shared by two query terms is scanned once).
pub fn query_cost(assignment: &MergeAssignment, list_lens: &[u64], terms: &[TermId]) -> u64 {
    let mut lists: Vec<u32> = terms.iter().map(|&t| assignment.list_of(t).0).collect();
    lists.sort_unstable();
    lists.dedup();
    lists.iter().map(|&l| list_lens[l as usize]).sum()
}

/// Cost of one disjunctive query with no merging: `Σ ti` over its terms.
pub fn unmerged_query_cost(ti: &[u64], terms: &[TermId]) -> u64 {
    terms.iter().map(|&t| ti[t.0 as usize]).sum()
}

/// Cumulative workload-cost curve (Figure 3(c)): terms are ranked by
/// query frequency (`by_query_frequency = true`, the figure's "QF" curve)
/// or by term frequency ("TF"), and the cumulative sum of `ti·qi`
/// contributions is returned for the first `limit` ranks.
pub fn cumulative_workload_curve(
    ti: &[u64],
    qi: &[u64],
    by_query_frequency: bool,
    limit: usize,
) -> Vec<u128> {
    assert_eq!(ti.len(), qi.len());
    let mut order: Vec<usize> = (0..ti.len()).collect();
    if by_query_frequency {
        order.sort_by_key(|&t| std::cmp::Reverse(qi[t]));
    } else {
        order.sort_by_key(|&t| std::cmp::Reverse(ti[t]));
    }
    let mut acc = 0u128;
    order
        .into_iter()
        .take(limit)
        .map(|t| {
            acc += ti[t] as u128 * qi[t] as u128;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmerged_cost_is_dot_product() {
        assert_eq!(unmerged_workload_cost(&[3, 5, 7], &[2, 0, 4]), 6 + 28);
    }

    #[test]
    fn merged_equals_unmerged_when_no_sharing() {
        let ti = vec![10, 20, 30, 40];
        let qi = vec![1, 2, 3, 4];
        let a = MergeAssignment::unmerged(4);
        assert_eq!(
            workload_cost(&a, &ti, &qi),
            unmerged_workload_cost(&ti, &qi)
        );
    }

    #[test]
    fn merging_never_reduces_cost() {
        // Eq. 1 expands cross terms, so Q_merged ≥ Q_unmerged always.
        let ti = vec![5, 9, 2, 11, 7, 3, 8, 1];
        let qi = vec![4, 0, 6, 1, 3, 9, 2, 5];
        let unmerged = unmerged_workload_cost(&ti, &qi);
        for m in 1..8 {
            let a = MergeAssignment::uniform(m);
            assert!(workload_cost(&a, &ti, &qi) >= unmerged, "m={m}");
        }
    }

    #[test]
    fn single_list_cost_is_total_product() {
        let ti = vec![2, 3];
        let qi = vec![5, 7];
        let a = MergeAssignment::uniform(1);
        assert_eq!(workload_cost(&a, &ti, &qi), (2 + 3) * (5 + 7));
    }

    #[test]
    fn explicit_table_cost_matches_hand_computation() {
        // A = {0,1} on list 0, {2} on list 1.
        let a = MergeAssignment::Table {
            list_of: vec![0, 0, 1],
            num_lists: 2,
        };
        let ti = vec![10, 20, 5];
        let qi = vec![1, 2, 8];
        // list 0: (10+20)(1+2) = 90; list 1: 5*8 = 40.
        assert_eq!(workload_cost(&a, &ti, &qi), 130);
        assert_eq!(list_lengths(&a, &ti), vec![30, 5]);
    }

    #[test]
    fn query_cost_dedups_shared_lists() {
        let a = MergeAssignment::Table {
            list_of: vec![0, 0, 1],
            num_lists: 2,
        };
        let lens = list_lengths(&a, &[10, 20, 5]);
        // Terms 0 and 1 share list 0: scanned once.
        assert_eq!(query_cost(&a, &lens, &[TermId(0), TermId(1)]), 30);
        assert_eq!(query_cost(&a, &lens, &[TermId(0), TermId(2)]), 35);
        assert_eq!(
            unmerged_query_cost(&[10, 20, 5], &[TermId(0), TermId(1)]),
            30
        );
    }

    #[test]
    fn cumulative_curve_is_monotone_and_orders_matter() {
        let ti = vec![100, 50, 10, 1];
        let qi = vec![1, 2, 50, 100];
        let by_qf = cumulative_workload_curve(&ti, &qi, true, 4);
        let by_tf = cumulative_workload_curve(&ti, &qi, false, 4);
        assert!(by_qf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(by_qf.last(), by_tf.last(), "full sums agree");
        // QF order front-loads the qi=100 term (contribution 100), TF
        // order front-loads the ti=100 term (contribution 100) — here they
        // coincide in value; check the first element explicitly.
        assert_eq!(by_qf[0], 100); // term 3: 1*100
        assert_eq!(by_tf[0], 100); // term 0: 100*1
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Eq. 1 structural fact: merging can only add cross terms,
            /// so Q(merged) ≥ Q(unmerged) for every assignment.
            #[test]
            fn prop_merging_never_cheaper(
                ti in proptest::collection::vec(0u64..10_000, 1..60),
                qi_seed in proptest::collection::vec(0u64..1_000, 1..60),
                m in 1u32..16,
            ) {
                let n = ti.len().min(qi_seed.len());
                let (ti, qi) = (&ti[..n], &qi_seed[..n]);
                let unmerged = unmerged_workload_cost(ti, qi);
                let a = MergeAssignment::uniform(m);
                prop_assert!(workload_cost(&a, ti, qi) >= unmerged);
            }

            /// Eq. 1 equals the group-sum formula computed independently
            /// via `groups()`.
            #[test]
            fn prop_workload_cost_matches_group_formula(
                ti in proptest::collection::vec(0u64..5_000, 1..40),
                m in 1u32..8,
            ) {
                let qi: Vec<u64> = ti.iter().map(|&t| t / 3 + 1).collect();
                let a = MergeAssignment::uniform(m);
                let via_groups: u128 = a
                    .groups(ti.len() as u32)
                    .iter()
                    .map(|g| {
                        let ts: u128 = g.iter().map(|t| ti[t.0 as usize] as u128).sum();
                        let qs: u128 = g.iter().map(|t| qi[t.0 as usize] as u128).sum();
                        ts * qs
                    })
                    .sum();
                prop_assert_eq!(workload_cost(&a, &ti, &qi), via_groups);
            }

            /// Per-query costs bound each other: unmerged ≤ merged (each
            /// term's list only grows under merging, and deduping shared
            /// lists can only help the merged side).
            #[test]
            fn prop_query_cost_bounds(
                ti in proptest::collection::vec(1u64..2_000, 4..40),
                picks in proptest::collection::vec(0usize..40, 1..6),
                m in 1u32..8,
            ) {
                let terms: Vec<TermId> = picks
                    .iter()
                    .map(|&p| TermId((p % ti.len()) as u32))
                    .collect();
                let a = MergeAssignment::uniform(m);
                let lens = list_lengths(&a, &ti);
                let merged = query_cost(&a, &lens, &terms);
                let mut distinct = terms.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let unmerged_distinct = unmerged_query_cost(&ti, &distinct);
                prop_assert!(merged >= unmerged_distinct,
                             "merged {} < unmerged {}", merged, unmerged_distinct);
            }
        }
    }
}
