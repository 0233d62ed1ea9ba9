//! Order-dependency discovery (§4.2.3): a FASTOD-flavoured search that
//! validates single-attribute candidates with the `O(n + |dom A|)`
//! [`Od::holds_single_atom`] check, over the direction combinations of
//! marked attributes.

use deptree_core::engine::{Exec, Outcome};
use deptree_core::{Dependency, Direction, Od};
use deptree_relation::{AttrId, Relation};

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct OdConfig {
    /// Maximum marked attributes on the LHS.
    pub max_lhs: usize,
}

impl Default for OdConfig {
    fn default() -> Self {
        OdConfig { max_lhs: 1 }
    }
}

/// Cheap deterministic prefilter for compound candidates: scan all pairs
/// drawn from a strided sample of at most [`PREFILTER_ROWS`] rows. Any
/// violating sample pair refutes the OD outright, skipping the full
/// validation; a clean sample proves nothing, so the full check still
/// runs. Output is therefore unchanged.
fn sample_refutes(r: &Relation, od: &Od) -> bool {
    const PREFILTER_ROWS: usize = 64;
    let n = r.n_rows();
    let stride = (n / PREFILTER_ROWS).max(1);
    let rows: Vec<usize> = (0..n).step_by(stride).take(PREFILTER_ROWS).collect();
    for (x, &i) in rows.iter().enumerate() {
        for &j in &rows[x + 1..] {
            if !od.pair_ok(r, i, j) || !od.pair_ok(r, j, i) {
                return true;
            }
        }
    }
    false
}

/// Discover all valid single-attribute ODs over numeric-typed attribute
/// pairs, canonicalized so the LHS mark is always ascending
/// (`A^≥ → B^d` equals `A^≤ → B^d̄`).
pub fn discover(r: &Relation, cfg: &OdConfig) -> Vec<Od> {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Budgeted [`discover`]: each candidate OD costs one node tick plus one
/// row tick per row validated. ODs are emitted only after validation, so
/// partial results are sound; unvisited candidates are forfeit.
pub fn discover_bounded(r: &Relation, cfg: &OdConfig, exec: &Exec) -> Outcome<Vec<Od>> {
    let mut out = Vec::new();
    let attrs: Vec<AttrId> = r.schema().ids().collect();
    'single: for &a in &attrs {
        for &b in &attrs {
            if a == b {
                continue;
            }
            for db in [Direction::Asc, Direction::Desc] {
                if !exec.tick_node() || !exec.tick_rows(r.n_rows() as u64) {
                    break 'single;
                }
                if Od::holds_single_atom(r, (a, Direction::Asc), (b, db)) {
                    out.push(Od::new(
                        r.schema(),
                        vec![(a, Direction::Asc)],
                        vec![(b, db)],
                    ));
                }
            }
        }
    }
    // Compound LHS (lexicographic-style pointwise lists) when requested.
    if cfg.max_lhs >= 2 {
        'compound: for &a1 in &attrs {
            for &a2 in &attrs {
                if a1 >= a2 {
                    continue;
                }
                for &b in &attrs {
                    if b == a1 || b == a2 {
                        continue;
                    }
                    for db in [Direction::Asc, Direction::Desc] {
                        if !exec.tick_node() || !exec.tick_rows(3 * r.n_rows() as u64) {
                            break 'compound;
                        }
                        // Only report if neither single-attribute premise
                        // already suffices (minimality).
                        if Od::holds_single_atom(r, (a1, Direction::Asc), (b, db))
                            || Od::holds_single_atom(r, (a2, Direction::Asc), (b, db))
                        {
                            continue;
                        }
                        let od = Od::new(
                            r.schema(),
                            vec![(a1, Direction::Asc), (a2, Direction::Asc)],
                            vec![(b, db)],
                        );
                        if !sample_refutes(r, &od) && od.holds(r) {
                            out.push(od);
                        }
                    }
                }
            }
        }
    }
    exec.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r7;
    use deptree_relation::{RelationBuilder, ValueType};

    #[test]
    fn single_atom_discovery_equals_pairwise_semantics() {
        let r = hotels_r7();
        let s = r.schema();
        let found = discover(&r, &OdConfig::default());
        let attrs: Vec<AttrId> = s.ids().collect();
        for &a in &attrs {
            for &b in &attrs {
                if a == b {
                    continue;
                }
                for db in [Direction::Asc, Direction::Desc] {
                    let od = Od::new(s, vec![(a, Direction::Asc)], vec![(b, db)]);
                    assert_eq!(found.contains(&od), od.holds_naive(&r), "{od}");
                }
            }
        }
    }

    #[test]
    fn discovers_both_paper_ods_on_r7() {
        let r = hotels_r7();
        let s = r.schema();
        let found = discover(&r, &OdConfig::default());
        let has = |lhs: &str, rhs: &str, d: Direction| {
            found
                .iter()
                .any(|od| od.lhs() == [(s.id(lhs), Direction::Asc)] && od.rhs() == [(s.id(rhs), d)])
        };
        // od1: nights^≤ → avg/night^≥ and ofd1-as-od: subtotal^≤ → taxes^≤.
        assert!(has("nights", "avg/night", Direction::Desc));
        assert!(has("subtotal", "taxes", Direction::Asc));
        // All discovered ODs hold.
        for od in &found {
            assert!(od.holds(&r), "{od}");
        }
    }

    #[test]
    fn ties_on_lhs_require_equal_rhs() {
        let r = RelationBuilder::new()
            .attr("a", ValueType::Numeric)
            .attr("b", ValueType::Numeric)
            .row(vec![1.into(), 10.into()])
            .row(vec![1.into(), 20.into()]) // tie on a, different b
            .row(vec![2.into(), 30.into()])
            .build()
            .unwrap();
        let s = r.schema();
        assert!(!Od::holds_single_atom(
            &r,
            (s.id("a"), Direction::Asc),
            (s.id("b"), Direction::Asc)
        ));
    }

    #[test]
    fn compound_lhs_found_only_when_needed() {
        // Every row pair is pointwise-incomparable on (a1, a2) — the
        // compound premise is vacuous, so the compound OD holds — while b
        // is monotone in neither a1 nor a2 alone.
        let r = RelationBuilder::new()
            .attr("a1", ValueType::Numeric)
            .attr("a2", ValueType::Numeric)
            .attr("b", ValueType::Numeric)
            .row(vec![1.into(), 3.into(), 10.into()])
            .row(vec![2.into(), 2.into(), 20.into()])
            .row(vec![3.into(), 1.into(), 15.into()])
            .build()
            .unwrap();
        let s = r.schema();
        assert!(!Od::holds_single_atom(
            &r,
            (s.id("a1"), Direction::Asc),
            (s.id("b"), Direction::Asc)
        ));
        assert!(!Od::holds_single_atom(
            &r,
            (s.id("a2"), Direction::Asc),
            (s.id("b"), Direction::Asc)
        ));
        let found = discover(&r, &OdConfig { max_lhs: 2 });
        let compound = found
            .iter()
            .find(|od| od.lhs().len() == 2 && od.rhs()[0].0 == s.id("b"));
        assert!(compound.is_some(), "{found:?}");
    }
}
