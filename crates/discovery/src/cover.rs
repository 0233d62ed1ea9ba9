//! Minimal-hitting-set search shared by FastFD (difference sets) and
//! FASTDC (evidence-set complements): both reduce "find all minimal valid
//! dependencies" to "find all minimal sets hitting every set in a family".

use deptree_core::engine::Exec;

/// Find all *minimal* subsets of `0..universe` (as bitsets) that intersect
/// every set in `family`. Sets in `family` are bitsets over the same
/// universe. The empty family yields the empty hitting set.
///
/// This is the depth-first search both FastFD and FASTDC deploy, with the
/// classic orderings: branch on elements of the first uncovered set,
/// ordered by how many uncovered sets they hit.
pub fn minimal_hitting_sets(family: &[u64], universe: usize) -> Vec<u64> {
    minimal_hitting_sets_bounded(family, universe, &Exec::unbounded()).0
}

/// Budgeted [`minimal_hitting_sets`]: each DFS node costs one engine tick.
/// Returns the covers found plus a completeness flag. Every returned set
/// genuinely hits the whole family even when the search was cut short —
/// an incomplete run can only *miss* covers (and therefore report sets
/// that a missed smaller cover would have shadowed).
pub fn minimal_hitting_sets_bounded(
    family: &[u64],
    universe: usize,
    exec: &Exec,
) -> (Vec<u64>, bool) {
    assert!(universe <= 64, "hitting-set universe capped at 64");
    // The family reduction below sorts the family and is quadratic in it
    // (FastFD hands it thousands of difference sets per RHS), so an
    // expired deadline or a cancellation is polled before it starts and
    // every 256 members while it runs. Node and row budgets stay with the
    // DFS ticks, so their cutoffs do not move.
    if exec.interrupted() {
        return (Vec::new(), false);
    }
    // Reduce to inclusion-minimal family members: hitting a subset implies
    // hitting its supersets.
    let mut minimal_family: Vec<u64> = Vec::new();
    // The (count_ones, value) key is canonical: callers feed families out
    // of hash maps, and under a node budget the DFS visit order decides
    // which covers make it out before the cutoff — popcount-only sorting
    // left ties in hash order (and could let duplicates slip past dedup,
    // which only removes adjacent repeats).
    let mut sorted: Vec<u64> = family.to_vec();
    sorted.sort_by_key(|s| (s.count_ones(), *s));
    sorted.dedup();
    for (i, &s) in sorted.iter().enumerate() {
        if (i + 1).is_multiple_of(256) && exec.interrupted() {
            return (Vec::new(), false);
        }
        // Keep s only if no already-kept set is a subset of it.
        if !minimal_family.iter().any(|&m| m & !s == 0) {
            minimal_family.push(s);
        }
    }
    if minimal_family.contains(&0) {
        // An empty set can never be hit.
        return (Vec::new(), true);
    }
    let mut out: Vec<u64> = Vec::new();
    let complete = dfs(&minimal_family, 0u64, &mut out, exec);
    // The DFS can emit non-minimal sets via different branch orders;
    // filter to the minimal antichain.
    out.sort_by_key(|s| s.count_ones());
    let mut result: Vec<u64> = Vec::new();
    for s in out {
        if !result.iter().any(|&m| m & !s == 0) {
            result.push(s);
        }
    }
    result.sort();
    (result, complete)
}

/// Returns false when the budget cut the search short.
fn dfs(family: &[u64], chosen: u64, out: &mut Vec<u64>, exec: &Exec) -> bool {
    if !exec.tick_node() {
        return false;
    }
    // First set not yet hit.
    let Some(&uncovered) = family.iter().find(|&&s| s & chosen == 0) else {
        out.push(chosen);
        return true;
    };
    // Branch on each element of the uncovered set; order by coverage of
    // remaining sets (descending) to find small covers early.
    let mut elems: Vec<u32> = (0..64).filter(|&b| uncovered & (1 << b) != 0).collect();
    elems.sort_by_key(|&b| {
        std::cmp::Reverse(
            family
                .iter()
                .filter(|&&s| s & chosen == 0 && s & (1 << b) != 0)
                .count(),
        )
    });
    for b in elems {
        let next = chosen | (1 << b);
        // Cheap local pruning: an already-chosen element whose hit sets
        // are all also hit by the rest of `next` makes `next` non-minimal;
        // a strict subset will be found on another branch.
        let redundant = (0..64).filter(|&c| chosen & (1 << c) != 0).any(|c| {
            let without = next & !(1 << c);
            family
                .iter()
                .filter(|&&s| s & (1 << c) != 0)
                .all(|&s| s & without != 0)
        });
        if redundant {
            continue;
        }
        if !dfs(family, next, out, exec) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: &[u32]) -> u64 {
        bits.iter().fold(0u64, |acc, &b| acc | (1 << b))
    }

    #[test]
    fn single_set_yields_singletons() {
        let hs = minimal_hitting_sets(&[set(&[0, 2, 5])], 6);
        assert_eq!(hs, vec![set(&[0]), set(&[2]), set(&[5])]);
    }

    #[test]
    fn disjoint_sets_need_one_from_each() {
        let hs = minimal_hitting_sets(&[set(&[0, 1]), set(&[2, 3])], 4);
        assert_eq!(hs.len(), 4);
        for h in &hs {
            assert_eq!(h.count_ones(), 2);
        }
        assert!(hs.contains(&set(&[0, 2])));
        assert!(hs.contains(&set(&[1, 3])));
    }

    #[test]
    fn shared_element_dominates() {
        // {0,1}, {0,2}: {0} hits both; {1,2} is the other minimal cover.
        let hs = minimal_hitting_sets(&[set(&[0, 1]), set(&[0, 2])], 3);
        assert!(hs.contains(&set(&[0])));
        assert!(hs.contains(&set(&[1, 2])));
        assert_eq!(hs.len(), 2);
    }

    #[test]
    fn supersets_in_family_are_ignored() {
        let a = minimal_hitting_sets(&[set(&[0, 1]), set(&[0, 1, 2, 3])], 4);
        let b = minimal_hitting_sets(&[set(&[0, 1])], 4);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_family_has_empty_cover() {
        assert_eq!(minimal_hitting_sets(&[], 4), vec![0]);
    }

    #[test]
    fn unhittable_family() {
        assert!(minimal_hitting_sets(&[0u64], 4).is_empty());
    }

    #[test]
    fn interrupted_search_returns_nothing_and_incomplete() {
        use deptree_core::engine::{Budget, CancelToken};
        let token = CancelToken::new();
        token.cancel();
        let exec = Exec::with_cancel(Budget::default(), token);
        let family = [set(&[0, 1]), set(&[2, 3])];
        assert_eq!(
            minimal_hitting_sets_bounded(&family, 4, &exec),
            (Vec::new(), false)
        );
    }

    #[test]
    fn all_outputs_hit_everything_and_are_minimal() {
        let family = [set(&[0, 1, 2]), set(&[1, 3]), set(&[2, 3]), set(&[0, 3])];
        let hs = minimal_hitting_sets(&family, 4);
        assert!(!hs.is_empty());
        for &h in &hs {
            assert!(family.iter().all(|&s| s & h != 0), "{h:b} misses a set");
            for b in 0..4 {
                if h & (1 << b) != 0 {
                    let smaller = h & !(1 << b);
                    assert!(
                        family.iter().any(|&s| s & smaller == 0),
                        "{h:b} not minimal"
                    );
                }
            }
        }
        // And the antichain property.
        for &a in &hs {
            for &b in &hs {
                assert!(a == b || a & b != a, "antichain violated");
            }
        }
    }
}
