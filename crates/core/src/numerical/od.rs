//! Order dependencies (§4.2).

use crate::dep::{DepKind, Dependency, Violation};
use crate::numerical::Ofd;
use deptree_relation::{AttrId, AttrSet, Relation, Schema};
use std::cmp::Ordering;
use std::fmt;

/// The ordering direction of a *marked attribute* `A^≤` / `A^≥` (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `A^≤`: ascending.
    Asc,
    /// `A^≥`: descending.
    Desc,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Asc => Direction::Desc,
            Direction::Desc => Direction::Asc,
        }
    }

    fn mark(self) -> &'static str {
        match self {
            Direction::Asc => "≤",
            Direction::Desc => "≥",
        }
    }
}

/// An order dependency over marked attributes: `X → Y` where each
/// attribute carries a direction mark. For any tuple pair, `t1 ≼ t2` on
/// all marked `X` attributes implies `t1 ≼ t2` on all marked `Y`
/// attributes (§4.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Od {
    lhs: Vec<(AttrId, Direction)>,
    rhs: Vec<(AttrId, Direction)>,
    display: String,
}

impl Od {
    /// Build an OD from marked attribute lists.
    ///
    /// # Panics
    /// Panics if either side is empty.
    pub fn new(
        schema: &Schema,
        lhs: Vec<(AttrId, Direction)>,
        rhs: Vec<(AttrId, Direction)>,
    ) -> Self {
        assert!(
            !lhs.is_empty() && !rhs.is_empty(),
            "OD sides must be non-empty"
        );
        let side = |atoms: &[(AttrId, Direction)]| {
            atoms
                .iter()
                .map(|(a, d)| format!("{}^{}", schema.name(*a), d.mark()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let display = format!("{} -> {}", side(&lhs), side(&rhs));
        Od { lhs, rhs, display }
    }

    /// The Fig. 1 embedding: an OFD is an OD with every mark `≤` (§4.2.2).
    pub fn from_ofd(schema: &Schema, ofd: &Ofd) -> Self {
        let marks = |set: AttrSet| set.iter().map(|a| (a, Direction::Asc)).collect::<Vec<_>>();
        Od::new(schema, marks(ofd.lhs()), marks(ofd.rhs()))
    }

    /// Marked determinant attributes.
    pub fn lhs(&self) -> &[(AttrId, Direction)] {
        &self.lhs
    }

    /// Marked dependent attributes.
    pub fn rhs(&self) -> &[(AttrId, Direction)] {
        &self.rhs
    }

    /// Does `t1 ≼ t2` hold on every marked attribute of `atoms`?
    fn precedes(r: &Relation, t1: usize, t2: usize, atoms: &[(AttrId, Direction)]) -> bool {
        atoms.iter().all(|(a, d)| {
            let ord = r.value(t1, *a).numeric_cmp(r.value(t2, *a));
            match d {
                Direction::Asc => ord != Ordering::Greater,
                Direction::Desc => ord != Ordering::Less,
            }
        })
    }

    /// Check the ordered pair `(t1, t2)`: premise ⟹ conclusion.
    pub fn pair_ok(&self, r: &Relation, t1: usize, t2: usize) -> bool {
        !Self::precedes(r, t1, t2, &self.lhs) || Self::precedes(r, t1, t2, &self.rhs)
    }

    /// `O(n + |dom A|)` check of the single-atom OD `A^da → B^db` — the
    /// one implementation behind [`Dependency::holds`] on single-atom ODs
    /// and behind single-attribute OD discovery.
    ///
    /// Rows tied on `A` fire the premise in both pair orientations, which
    /// forces numeric `B`-equality; across distinct `A` values `B` must be
    /// monotone in the marked direction, and since `numeric_cmp` is a total
    /// preorder, checking consecutive `A` values suffices by transitivity.
    /// Each column's sorted-run index maps dictionary codes to
    /// `numeric_cmp` ranks (numerically equal values, such as `Int(2)` and
    /// `Float(2.0)`, share one), so one pass over the rows records the `B`
    /// rank each `A` rank carries and one walk over `A`'s ranks checks
    /// the monotonicity.
    pub fn holds_single_atom(
        r: &Relation,
        (a, da): (AttrId, Direction),
        (b, db): (AttrId, Direction),
    ) -> bool {
        const NO_RUN: u32 = u32::MAX;
        let (col_a, col_b) = (r.col(a), r.col(b));
        let (ix_a, ix_b) = (col_a.index(), col_b.index());
        // Ranks are dense below the dictionary size.
        let mut run_b = vec![NO_RUN; col_a.dict().len()];
        for (&ca, &cb) in col_a.codes().iter().zip(col_b.codes()) {
            let rank_b = ix_b.num_rank(cb);
            let slot = &mut run_b[ix_a.num_rank(ca) as usize];
            if *slot == NO_RUN {
                *slot = rank_b;
            } else if *slot != rank_b {
                return false;
            }
        }
        let ascending = da == db;
        let mut prev: Option<u32> = None;
        // Ranks held only by orphaned dictionary entries head no run.
        for &cur in run_b.iter().filter(|&&rank| rank != NO_RUN) {
            if let Some(p) = prev {
                if (ascending && p > cur) || (!ascending && p < cur) {
                    return false;
                }
            }
            prev = Some(cur);
        }
        true
    }

    /// The single-atom check when both sides hold one marked attribute.
    fn single_atom_verdict(&self, r: &Relation) -> Option<bool> {
        match (&self.lhs[..], &self.rhs[..]) {
            (&[lhs], &[rhs]) => Some(Self::holds_single_atom(r, lhs, rhs)),
            _ => None,
        }
    }

    /// Reference all-pairs check; kept as the differential-test baseline
    /// for [`Od::holds_single_atom`].
    pub fn holds_naive(&self, r: &Relation) -> bool {
        r.row_pairs()
            .all(|(i, j)| self.pair_ok(r, i, j) && self.pair_ok(r, j, i))
    }
}

impl Dependency for Od {
    fn kind(&self) -> DepKind {
        DepKind::Od
    }

    fn holds(&self, r: &Relation) -> bool {
        self.single_atom_verdict(r)
            .unwrap_or_else(|| self.holds_naive(r))
    }

    fn violations(&self, r: &Relation) -> Vec<Violation> {
        // On clean single-atom data the linear check settles it; the pair
        // scan only runs when violations exist.
        if self.single_atom_verdict(r) == Some(true) {
            return Vec::new();
        }
        let rhs_attrs: AttrSet = self.rhs.iter().map(|(a, _)| *a).collect();
        let mut out = Vec::new();
        for (i, j) in r.row_pairs() {
            if !self.pair_ok(r, i, j) || !self.pair_ok(r, j, i) {
                out.push(Violation::pair(i, j, rhs_attrs));
            }
        }
        out
    }
}

impl fmt::Display for Od {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OD: {}", self.display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_relation::examples::hotels_r7;

    fn od1(r: &Relation) -> Od {
        // §4.2.1: od1: nights^≤ → avg/night^≥ — more nights, lower rate.
        let s = r.schema();
        Od::new(
            s,
            vec![(s.id("nights"), Direction::Asc)],
            vec![(s.id("avg/night"), Direction::Desc)],
        )
    }

    #[test]
    fn od1_holds_on_r7() {
        let r = hotels_r7();
        let od = od1(&r);
        assert!(od.holds(&r));
        assert_eq!(od.to_string(), "OD: nights^≤ -> avg/night^≥");
    }

    #[test]
    fn paper_pair_t1_t2() {
        // §4.2.1: t1[nights] = 1 ≤ 2 = t2[nights] leads to
        // t1[avg/night] = 190 ≥ 185 = t2[avg/night].
        let r = hotels_r7();
        let od = od1(&r);
        assert!(od.pair_ok(&r, 0, 1));
        assert!(od.pair_ok(&r, 1, 0));
    }

    #[test]
    fn discount_anomaly_detected() {
        // A guest staying longer but paying a higher nightly rate.
        let mut r = hotels_r7();
        let avg = r.schema().id("avg/night");
        r.set_value(2, avg, 200.into()); // 3 nights at 200 > 185 (2 nights)
        let od = od1(&r);
        assert!(!od.holds(&r));
        let v = od.violations(&r);
        assert!(v.iter().any(|v| v.rows == vec![1, 2]));
    }

    #[test]
    fn ofd_embedding() {
        let r = hotels_r7();
        let s = r.schema();
        let ofd = Ofd::pointwise(
            s,
            AttrSet::single(s.id("subtotal")),
            AttrSet::single(s.id("taxes")),
        );
        let od = Od::from_ofd(s, &ofd);
        // od2 of §4.2.2: subtotal^≤ → taxes^≤.
        assert_eq!(od.to_string(), "OD: subtotal^≤ -> taxes^≤");
        assert_eq!(ofd.holds(&r), od.holds(&r));
        let mut r2 = r.clone();
        r2.set_value(3, s.id("taxes"), 10.into());
        assert_eq!(ofd.holds(&r2), od.holds(&r2));
        assert!(!od.holds(&r2));
        assert_eq!(ofd.violations(&r2), od.violations(&r2));
    }

    #[test]
    fn multi_attribute_premise() {
        // nights^≤, subtotal^≤ → taxes^≤ holds on r7.
        let r = hotels_r7();
        let s = r.schema();
        let od = Od::new(
            s,
            vec![
                (s.id("nights"), Direction::Asc),
                (s.id("subtotal"), Direction::Asc),
            ],
            vec![(s.id("taxes"), Direction::Asc)],
        );
        assert!(od.holds(&r));
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::Asc.reverse(), Direction::Desc);
        assert_eq!(Direction::Desc.reverse(), Direction::Asc);
    }

    #[test]
    fn single_atom_check_matches_naive_on_all_single_atom_ods() {
        // Every (A^da → B^db) combination over r7 and perturbations of it:
        // the single-atom check must agree with the all-pairs check.
        let base = hotels_r7();
        let s = base.schema().clone();
        let mut variants = vec![base.clone()];
        for row in 0..base.n_rows() {
            let mut v = base.clone();
            let attr = s.ids().nth(row % s.len()).expect("attr");
            let donor = (row + 1) % base.n_rows();
            v.set_value(row, attr, base.value(donor, attr).clone());
            variants.push(v);
        }
        for r in &variants {
            for a in s.ids() {
                for b in s.ids() {
                    for da in [Direction::Asc, Direction::Desc] {
                        for db in [Direction::Asc, Direction::Desc] {
                            let od = Od::new(&s, vec![(a, da)], vec![(b, db)]);
                            assert_eq!(od.holds(r), od.holds_naive(r), "{od}");
                        }
                    }
                }
            }
        }
    }
}
