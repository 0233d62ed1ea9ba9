//! Reference implementations of the relation kernels, written against
//! the public `Value`-level API only: each one is the plain, obviously
//! correct computation a code-native kernel must reproduce exactly.
//!
//! The property suite compares every kernel against its counterpart here,
//! and `src/bin/columnar_scaling.rs` includes this same file (through
//! `#[path]`) to time the kernels against these baselines.

#![allow(dead_code)]

use deptree::core::Direction;
use deptree::relation::pairgen::{PairIndex, PairSpec};
use deptree::relation::{AttrId, AttrSet, Relation, StrippedPartition, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// [`Relation::group_by`]: rows hashed on their projected `Value` tuples.
pub fn group_by(r: &Relation, attrs: AttrSet) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for row in 0..r.n_rows() {
        groups
            .entry(r.project_row(row, attrs))
            .or_default()
            .push(row);
    }
    groups
}

/// [`Relation::distinct_count`]: the number of `Value`-keyed groups.
pub fn distinct_count(r: &Relation, attrs: AttrSet) -> usize {
    group_by(r, attrs).len()
}

/// [`Relation::sorted_rows`]: a stable sort on the `Value` tuples.
pub fn sorted_rows(r: &Relation, attrs: AttrSet) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..r.n_rows()).collect();
    rows.sort_by(|&i, &j| {
        attrs
            .iter()
            .map(|a| r.value(i, a).cmp(r.value(j, a)))
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// [`StrippedPartition::from_column`]: hash grouping of the cell values.
pub fn partition_of_column(r: &Relation, a: AttrId) -> StrippedPartition {
    StrippedPartition::from_labels(r.column(a))
}

/// [`StrippedPartition::from_attrs`]: hash grouping of the projected
/// `Value` tuples.
pub fn partition_of_attrs(r: &Relation, attrs: AttrSet) -> StrippedPartition {
    let labels: Vec<Vec<Value>> = (0..r.n_rows())
        .map(|row| r.project_row(row, attrs))
        .collect();
    StrippedPartition::from_labels(&labels)
}

/// [`PairIndex::build_attr`]: the `Value`-slice builder.
pub fn pair_index(r: &Relation, a: AttrId, spec: PairSpec) -> PairIndex {
    PairIndex::build(r.column(a), spec)
}

/// The single-atom OD `A^da → B^db` by sorting: order the rows by `A`
/// under `numeric_cmp`; within each run of numerically equal `A` values
/// `B` must be numerically constant, and the runs' `B` values must be
/// monotone in the marked direction. `O(n log n)`, on `Value`s only.
pub fn od_single_atom_sorted(
    r: &Relation,
    (a, da): (AttrId, Direction),
    (b, db): (AttrId, Direction),
) -> bool {
    let (col_a, col_b) = (r.column(a), r.column(b));
    let mut order: Vec<usize> = (0..r.n_rows()).collect();
    order.sort_by(|&i, &j| col_a[i].numeric_cmp(&col_a[j]));
    let ascending = da == db;
    let mut prev_run_b: Option<&Value> = None;
    let mut start = 0;
    while start < order.len() {
        let head = order[start];
        let mut end = start + 1;
        while end < order.len() && col_a[order[end]].numeric_cmp(&col_a[head]).is_eq() {
            end += 1;
        }
        let run_b = &col_b[head];
        // Ties on A fire the premise both ways, forcing equal B.
        if order[start..end]
            .iter()
            .any(|&row| col_b[row].numeric_cmp(run_b).is_ne())
        {
            return false;
        }
        if let Some(prev) = prev_run_b {
            let ord = prev.numeric_cmp(run_b);
            if (ascending && ord.is_gt()) || (!ascending && ord.is_lt()) {
                return false;
            }
        }
        prev_run_b = Some(run_b);
        start = end;
    }
    true
}
