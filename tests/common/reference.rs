//! Reference implementations of the relation kernels, written against
//! the public `Value`-level API only: each one is the plain, obviously
//! correct computation a code-native kernel must reproduce exactly.
//!
//! Column references take a `Vec<Value>` column the caller materialises
//! once through [`column()`], so a timed run measures the algorithm, not
//! the materialisation.
//!
//! The property suite compares every kernel against its counterpart here,
//! and `src/bin/columnar_scaling.rs` and `src/bin/pairwise_scaling.rs`
//! include this same file (through `#[path]`) to time the kernels against
//! these baselines.

#![allow(dead_code)]

use deptree::core::{CmpOp, Direction, Operand, Predicate};
use deptree::discovery::dc::FastDcStats;
use deptree::metrics::Metric;
use deptree::relation::pairgen::PairSpec;
use deptree::relation::{AttrId, AttrSet, Relation, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

/// The cells of one attribute, cloned row by row through
/// [`Relation::value`].
pub fn column(r: &Relation, a: AttrId) -> Vec<Value> {
    (0..r.n_rows()).map(|row| r.value(row, a).clone()).collect()
}

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

/// Stripped-partition classes by hash grouping of per-row labels: rows
/// with equal labels share a class, singletons dropped, each class
/// ascending and classes ordered by first row — the classes of
/// [`deptree::relation::StrippedPartition::from_column`] on a column of
/// labels.
pub fn partition_classes<T: Hash + Eq>(labels: &[T]) -> Vec<Vec<usize>> {
    let mut groups: HashMap<&T, Vec<usize>> = HashMap::new();
    for (row, l) in labels.iter().enumerate() {
        groups.entry(l).or_default().push(row);
    }
    let mut classes: Vec<Vec<usize>> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    classes.sort_unstable();
    classes
}

/// [`deptree::relation::StrippedPartition::from_attrs`]: hash grouping
/// of the projected `Value` tuples.
pub fn partition_of_attrs(r: &Relation, attrs: AttrSet) -> Vec<Vec<usize>> {
    let labels: Vec<Vec<Value>> = (0..r.n_rows())
        .map(|row| r.project_row(row, attrs))
        .collect();
    partition_classes(&labels)
}

/// Groups rows by `key` (rows keyed `None` are left out): classes in
/// first-row order, rows ascending within each.
fn first_row_classes<K: Hash + Eq>(keys: impl Iterator<Item = Option<K>>) -> Vec<Vec<usize>> {
    let mut by_key: HashMap<K, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (row, key) in keys.enumerate() {
        let Some(key) = key else { continue };
        let cls = *by_key.entry(key).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[cls].push(row);
    }
    classes
}

/// Classes of [`PairSpec::Eq`]: structural-equality classes of every
/// row, singletons included.
pub fn eq_classes(col: &[Value]) -> Vec<Vec<usize>> {
    first_row_classes(col.iter().map(Some))
}

/// Classes and links of [`PairSpec::Band`]`(theta)`: structural classes
/// of the rows whose value is not a non-finite numeric (those match
/// nothing), linked by a two-pointer sweep over the numeric classes
/// sorted by value whenever their gap is ≤ θ. A NaN or negative θ
/// matches nothing and yields no classes. The sweep is uncapped: it
/// never falls back to a full scan.
pub fn band_index(col: &[Value], theta: f64) -> (Vec<Vec<usize>>, Vec<(usize, usize)>) {
    if theta.is_nan() || theta < 0.0 {
        return (Vec::new(), Vec::new());
    }
    let classes = first_row_classes(
        col.iter()
            .map(|v| (!matches!(v.as_f64(), Some(x) if !x.is_finite())).then_some(v)),
    );
    let mut nums: Vec<(f64, usize)> = classes
        .iter()
        .enumerate()
        .filter_map(|(c, rows)| Some((col[rows[0]].as_f64()?, c)))
        .collect();
    nums.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut links = Vec::new();
    let mut lo = 0usize;
    for hi in 0..nums.len() {
        while nums[hi].0 - nums[lo].0 > theta {
            lo += 1;
        }
        for k in lo..hi {
            let (a, b) = (nums[k].1, nums[hi].1);
            links.push((a.min(b), a.max(b)));
        }
    }
    (classes, links)
}

/// Classes of [`PairSpec::Edit`]: rows grouped by rendered text, with one
/// class for nulls.
pub fn edit_classes(col: &[Value]) -> Vec<Vec<usize>> {
    first_row_classes(
        col.iter()
            .map(|v| Some((!v.is_null()).then(|| v.render().into_owned()))),
    )
}

/// Does the value pair match `spec`? The metric semantics the specs
/// stand for: `Eq` is `Metric::Equality` at distance 0, `Band(θ)` is
/// `Metric::AbsDiff` within θ, `Edit(k)` is `Metric::Levenshtein` within
/// k.
pub fn pair_matches(spec: PairSpec, a: &Value, b: &Value) -> bool {
    match spec {
        PairSpec::Eq => Metric::Equality.dist(a, b) <= 0.0,
        PairSpec::Band(theta) => Metric::AbsDiff.dist(a, b) <= theta,
        PairSpec::Edit(k) => Metric::Levenshtein.dist(a, b) <= k as f64,
        PairSpec::Empty => false,
        PairSpec::All => true,
    }
}

/// Every row pair `(i, j)`, `i < j`, whose cells match `spec`, in
/// ascending order.
pub fn matching_pairs(col: &[Value], spec: PairSpec) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..col.len() {
        for j in i + 1..col.len() {
            if pair_matches(spec, &col[i], &col[j]) {
                out.push((i, j));
            }
        }
    }
    out
}

/// The single-atom OD `A^da → B^db` by sorting: order the rows by `A`
/// under `numeric_cmp`; within each run of numerically equal `A` values
/// `B` must be numerically constant, and the runs' `B` values must be
/// monotone in the marked direction. `O(n log n)`, on `Value`s only.
pub fn od_single_atom_sorted(
    (col_a, da): (&[Value], Direction),
    (col_b, db): (&[Value], Direction),
) -> bool {
    let mut order: Vec<usize> = (0..col_a.len()).collect();
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

/// FASTDC evidence sets by a full ordered-pair scan with per-attribute
/// bit reuse (BFASTDC-style): each pair's cells are compared once per
/// attribute through [`Value::numeric_cmp`], and that one outcome sets
/// every same-attribute predicate bit; any other predicate is evaluated
/// generically. Counts every pair in `stats.pairs_evaluated`.
pub fn evidence_sets_grouped(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
) -> HashMap<u64, usize> {
    assert!(preds.len() <= 64, "predicate space capped at 64 bits");
    let mut by_attr: Vec<(AttrId, Vec<(usize, CmpOp)>)> = Vec::new();
    let mut generic: Vec<(usize, &Predicate)> = Vec::new();
    for (k, p) in preds.iter().enumerate() {
        match (&p.left, &p.right) {
            (Operand::First(a), Operand::Second(b)) if a == b => {
                match by_attr.iter_mut().find(|(x, _)| x == a) {
                    Some((_, ops)) => ops.push((k, p.op)),
                    None => by_attr.push((*a, vec![(k, p.op)])),
                }
            }
            _ => generic.push((k, p)),
        }
    }
    let mut evidence: HashMap<u64, usize> = HashMap::new();
    for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            stats.pairs_evaluated += 1;
            let mut bits = 0u64;
            for (attr, ops) in &by_attr {
                let (vi, vj) = (r.value(i, *attr), r.value(j, *attr));
                if vi.is_null() || vj.is_null() {
                    // `CmpOp::eval`'s null semantics, predicate by predicate.
                    for &(k, op) in ops {
                        bits |= u64::from(op.eval(vi, vj)) << k;
                    }
                    continue;
                }
                let ord = vi.numeric_cmp(vj);
                for &(k, op) in ops {
                    let sat = match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Neq => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Leq => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Geq => ord.is_ge(),
                    };
                    bits |= u64::from(sat) << k;
                }
            }
            for &(k, p) in &generic {
                bits |= u64::from(p.eval(r, i, j)) << k;
            }
            *evidence.entry(bits).or_default() += 1;
        }
    }
    stats.n_evidence_sets = evidence.len();
    evidence
}
