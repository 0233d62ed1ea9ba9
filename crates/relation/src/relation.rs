//! Relation instances.

use crate::attrset::AttrSet;
use crate::column::Column;
use crate::schema::{AttrId, Schema, ValueType};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Errors raised when constructing or manipulating relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A row had a different arity than the schema.
    ArityMismatch {
        /// Expected number of values (schema width).
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// The schema has more attributes than [`AttrSet::MAX_ATTRS`].
    TooManyAttributes(usize),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            RelationError::TooManyAttributes(n) => {
                write!(f, "schema has {n} attributes; at most 64 are supported")
            }
        }
    }
}

impl std::error::Error for RelationError {}

/// Largest key space, in bits per row, that [`Relation::distinct_count`]
/// counts in a dense bitset: at 64 the bitset never outweighs the `u64`
/// per row that the sort-and-dedup path would allocate instead.
const DENSE_KEY_BITS_PER_ROW: u64 = 64;

/// A relation instance: a schema plus dictionary-encoded columnar data.
///
/// Each attribute is a [`Column`]: a `u32` code vector over a per-column
/// dictionary of distinct [`Value`]s, a null bitmap, and a lazily built
/// sorted-run index (see the [`crate::column`] module docs). Cell access
/// through [`Relation::value`] is two array loads; the code-level
/// accessors ([`Relation::col`]) are what the hot paths of partitioning,
/// grouping and pair blocking consume.
///
/// Equality is *logical* — same schema, same cells in the same order —
/// independent of dictionary layout, which mutation history can permute.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Schema,
    cols: Vec<Column>,
    n_rows: usize,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.n_rows == other.n_rows && self.cols == other.cols
    }
}

impl Relation {
    /// An empty relation over `schema`.
    ///
    /// # Errors
    /// Fails if the schema exceeds 64 attributes.
    pub fn empty(schema: Schema) -> Result<Self, RelationError> {
        if schema.len() > AttrSet::MAX_ATTRS {
            return Err(RelationError::TooManyAttributes(schema.len()));
        }
        let cols = (0..schema.len()).map(|_| Column::new()).collect();
        Ok(Relation {
            schema,
            cols,
            n_rows: 0,
        })
    }

    /// Build a relation from rows. Convenience for tests and examples.
    ///
    /// # Errors
    /// Fails on arity mismatches or oversized schemas.
    pub fn from_rows<R>(schema: Schema, rows: R) -> Result<Self, RelationError>
    where
        R: IntoIterator<Item = Vec<Value>>,
    {
        let mut rel = Relation::empty(schema)?;
        for row in rows {
            rel.push_row(row)?;
        }
        Ok(rel)
    }

    /// Append one row, interning each cell through its column's dictionary.
    ///
    /// # Errors
    /// Fails if `row.len()` differs from the schema width.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), RelationError> {
        if row.len() != self.schema.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Append one row from borrowed cell texts — the CSV ingest path.
    ///
    /// Typed parsing matches the CSV reader's contract: an empty text is
    /// `Null`; on a [`ValueType::Numeric`] column the text parses to
    /// `Int`, then `Float`, then falls back to a string; other columns
    /// keep the text as a string. Repeated string cells intern against
    /// the column dictionary *borrowed* — no per-cell allocation.
    ///
    /// # Errors
    /// Fails if `cells.len()` differs from the schema width.
    pub fn push_row_texts(&mut self, cells: &[impl AsRef<str>]) -> Result<(), RelationError> {
        if cells.len() != self.schema.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.len(),
                got: cells.len(),
            });
        }
        for (i, (col, cell)) in self.cols.iter_mut().zip(cells).enumerate() {
            let text = cell.as_ref();
            if text.is_empty() {
                col.push(Value::Null);
                continue;
            }
            match self.schema.ty(AttrId(i)) {
                ValueType::Numeric => {
                    if let Ok(v) = text.parse::<i64>() {
                        col.push(Value::Int(v));
                    } else if let Ok(v) = text.parse::<f64>() {
                        col.push(Value::float(v));
                    } else {
                        col.push_str(text);
                    }
                }
                _ => col.push_str(text),
            }
        }
        self.n_rows += 1;
        Ok(())
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// The set of all attributes.
    #[inline]
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::full(self.schema.len())
    }

    /// Cell value at `(row, attr)`.
    ///
    /// # Panics
    /// Panics if the row or attribute is out of range.
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> &Value {
        self.cols[attr.0].value(row)
    }

    /// Overwrite a cell value (used by repair algorithms). The new value is
    /// interned; the column's sorted-run index is invalidated.
    ///
    /// # Panics
    /// Panics if the row or attribute is out of range.
    pub fn set_value(&mut self, row: usize, attr: AttrId, v: Value) {
        self.cols[attr.0].set(row, v);
    }

    /// The dictionary-encoded column of an attribute: code vector,
    /// dictionary, null bitmap and sorted-run index.
    #[inline]
    pub fn col(&self, attr: AttrId) -> &Column {
        &self.cols[attr.0]
    }

    /// Materialize one row as a vector of cloned values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(row).clone()).collect()
    }

    /// Project a row onto an attribute set, cloning the values
    /// (in increasing attribute order).
    pub fn project_row(&self, row: usize, attrs: AttrSet) -> Vec<Value> {
        attrs
            .iter()
            .map(|a| self.cols[a.0].value(row).clone())
            .collect()
    }

    /// Do two rows agree (are equal) on every attribute in `attrs`?
    ///
    /// Structural cell equality is code equality, so this is a pure
    /// integer comparison.
    pub fn rows_agree(&self, r1: usize, r2: usize, attrs: AttrSet) -> bool {
        attrs
            .iter()
            .all(|a| self.cols[a.0].code(r1) == self.cols[a.0].code(r2))
    }

    /// Group rows by their code tuples on `attrs` — the integer-keyed core
    /// of [`Relation::group_by`]. Row lists are ascending (rows are
    /// visited in order). Key tuples follow `attrs` in increasing
    /// attribute order.
    fn group_rows_by_codes(&self, attrs: AttrSet) -> HashMap<Vec<u32>, Vec<usize>> {
        let cols: Vec<&Column> = attrs.iter().map(|a| &self.cols[a.0]).collect();
        let mut groups: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for row in 0..self.n_rows {
            let key: Vec<u32> = cols.iter().map(|c| c.code(row)).collect();
            groups.entry(key).or_default().push(row);
        }
        groups
    }

    /// Group rows by their values on `attrs`.
    ///
    /// Returns a map from projected key to the (sorted) row indices holding
    /// that key. This is the workhorse behind grouping-based validation of
    /// FDs, AFDs, PFDs, MFDs, MVDs, …. Grouping runs on dictionary codes;
    /// the `Value` keys are materialized once per distinct group, not once
    /// per row.
    pub fn group_by(&self, attrs: AttrSet) -> HashMap<Vec<Value>, Vec<usize>> {
        let cols: Vec<&Column> = attrs.iter().map(|a| &self.cols[a.0]).collect();
        self.group_rows_by_codes(attrs)
            .into_iter()
            .map(|(key, rows)| {
                let vals: Vec<Value> = key
                    .iter()
                    .zip(&cols)
                    .map(|(&code, c)| c.dict_value(code).clone())
                    .collect();
                (vals, rows)
            })
            .collect()
    }

    /// Number of distinct value combinations on `attrs`
    /// (`|dom(X)|_r` in the survey's SFD strength measure).
    ///
    /// Each row's code tuple is folded into one mixed-radix `u64` key over
    /// the attributes' dictionary sizes; code equality is value equality,
    /// so distinct keys are distinct value combinations. A key space of at
    /// most 64 bits per row is counted in a dense bitset; a wider one by
    /// sorting and deduplicating the per-row keys. Only a key space past
    /// `u64` falls back to hash grouping.
    pub fn distinct_count(&self, attrs: AttrSet) -> usize {
        if attrs.is_empty() {
            return usize::from(self.n_rows > 0);
        }
        let cols: Vec<(&[u32], u64)> = attrs
            .iter()
            .map(|a| (self.cols[a.0].codes(), self.cols[a.0].dict().len() as u64))
            .collect();
        let Some(radix) = cols
            .iter()
            .try_fold(1u64, |acc, &(_, size)| acc.checked_mul(size))
        else {
            return self.group_rows_by_codes(attrs).len();
        };
        // Horner form: every partial key stays below the product of the
        // sizes folded so far, so no step overflows once `radix` fits.
        let key = |row: usize| {
            cols.iter()
                .fold(0u64, |k, &(codes, size)| k * size + u64::from(codes[row]))
        };
        if radix <= DENSE_KEY_BITS_PER_ROW.saturating_mul(self.n_rows as u64) {
            let mut seen = vec![0u64; radix.div_ceil(64) as usize];
            let mut distinct = 0;
            for row in 0..self.n_rows {
                let k = key(row);
                let (word, bit) = ((k / 64) as usize, 1u64 << (k % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    distinct += 1;
                }
            }
            return distinct;
        }
        let mut keys: Vec<u64> = (0..self.n_rows).map(key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Row indices sorted by the values of `attrs` (lexicographically, in
    /// increasing attribute order). Used by order-dependency validation.
    ///
    /// The sort is stable (ties keep row order) and compares per-column
    /// structural *ranks* from the sorted-run index — rank order is value
    /// order, so the result is identical to sorting on the values.
    pub fn sorted_rows(&self, attrs: AttrSet) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..self.n_rows).collect();
        let keys: Vec<(&[u32], &crate::column::ColumnIndex)> = attrs
            .iter()
            .map(|a| (self.cols[a.0].codes(), self.cols[a.0].index()))
            .collect();
        rows.sort_by(|&a, &b| {
            for (codes, ix) in &keys {
                let ord = ix.rank(codes[a]).cmp(&ix.rank(codes[b]));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }

    /// A new relation containing only the given rows (in the given order).
    /// Dictionaries are rebuilt in first-appearance order of the selection.
    pub fn select_rows(&self, rows: &[usize]) -> Relation {
        let cols = self.cols.iter().map(|c| c.select(rows)).collect();
        Relation {
            schema: self.schema.clone(),
            cols,
            n_rows: rows.len(),
        }
    }

    /// A new relation with only the attributes in `attrs`
    /// (schema order preserved). Duplicate rows are kept.
    pub fn project(&self, attrs: AttrSet) -> Relation {
        let mut schema = Schema::new();
        let mut cols = Vec::with_capacity(attrs.len());
        for a in attrs.iter() {
            let attr = self.schema.attr(a);
            schema.push(attr.name.clone(), attr.ty);
            cols.push(self.cols[a.0].clone());
        }
        Relation {
            schema,
            cols,
            n_rows: self.n_rows,
        }
    }

    /// Rough resident footprint in bytes: code vectors, dictionaries,
    /// intern tables, null bitmaps and any sorted-run indexes already built.
    /// The columnar analogue of `StrippedPartition::approx_bytes`.
    pub fn approx_bytes(&self) -> u64 {
        self.cols.iter().map(Column::approx_bytes).sum()
    }

    /// Validate every column's internal invariants (dense codes, duplicate-
    /// free dictionary, consistent null bitmap, intact intern chains) plus
    /// cross-column row counts. Used by the fault-resilience and property
    /// suites.
    ///
    /// # Panics
    /// Panics (with a description) on any violated invariant.
    pub fn debug_validate(&self) {
        for (i, c) in self.cols.iter().enumerate() {
            assert_eq!(c.len(), self.n_rows, "column {i} row count");
            c.debug_validate();
        }
    }

    /// Render the relation as an aligned ASCII table (for examples/demos).
    pub fn to_ascii_table(&self) -> String {
        let headers: Vec<String> = self.schema.iter().map(|(_, a)| a.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = (0..self.n_rows)
            .map(|r| {
                self.schema
                    .ids()
                    .map(|a| {
                        let s = self.value(r, a).render().into_owned();
                        s
                    })
                    .collect()
            })
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Iterate over all unordered row pairs `(i, j)` with `i < j`.
    ///
    /// Pair-based dependencies (MFDs, NEDs, DDs, MDs, DCs, PACs, FFDs, ODs)
    /// are defined over tuple pairs; this gives them one canonical
    /// enumeration.
    pub fn row_pairs(&self) -> impl Iterator<Item = (usize, usize)> + use<> {
        let n = self.n_rows;
        (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
    }
}

/// Incremental builder: declare attributes, then add rows.
///
/// ```
/// use deptree_relation::{RelationBuilder, ValueType};
///
/// let rel = RelationBuilder::new()
///     .attr("name", ValueType::Text)
///     .attr("price", ValueType::Numeric)
///     .row(vec!["Hyatt".into(), 230.into()])
///     .row(vec!["Regis".into(), 319.into()])
///     .build()
///     .unwrap();
/// assert_eq!(rel.n_rows(), 2);
/// ```
#[derive(Debug, Default)]
pub struct RelationBuilder {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl RelationBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an attribute.
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, ty: ValueType) -> Self {
        self.schema.push(name, ty);
        self
    }

    /// Append a row.
    #[must_use]
    pub fn row(mut self, row: Vec<Value>) -> Self {
        self.rows.push(row);
        self
    }

    /// Finish building.
    ///
    /// # Errors
    /// Fails on arity mismatches or oversized schemas.
    pub fn build(self) -> Result<Relation, RelationError> {
        Relation::from_rows(self.schema, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        RelationBuilder::new()
            .attr("a", ValueType::Categorical)
            .attr("b", ValueType::Categorical)
            .attr("c", ValueType::Numeric)
            .row(vec!["x".into(), "p".into(), 1.into()])
            .row(vec!["x".into(), "p".into(), 2.into()])
            .row(vec!["y".into(), "q".into(), 3.into()])
            .row(vec!["y".into(), "r".into(), 4.into()])
            .build()
            .unwrap()
    }

    #[test]
    fn arity_mismatch_detected() {
        let schema = Schema::from_attrs([("a", ValueType::Categorical)]);
        let err = Relation::from_rows(schema, [vec!["x".into(), "y".into()]]).unwrap_err();
        assert_eq!(
            err,
            RelationError::ArityMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn group_by_and_distinct() {
        let r = sample();
        let a = r.schema().id("a");
        let groups = r.group_by(AttrSet::single(a));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&vec![Value::str("x")]], vec![0, 1]);
        assert_eq!(r.distinct_count(AttrSet::single(a)), 2);
        let ab = AttrSet::single(a).insert(r.schema().id("b"));
        assert_eq!(r.distinct_count(ab), 3);
    }

    #[test]
    fn distinct_count_empty_set() {
        let r = sample();
        // The empty projection has exactly one distinct (empty) tuple when
        // the relation is non-empty.
        assert_eq!(r.distinct_count(AttrSet::empty()), 1);
    }

    #[test]
    fn rows_agree_semantics() {
        let r = sample();
        let ab = AttrSet::from_ids([r.schema().id("a"), r.schema().id("b")]);
        assert!(r.rows_agree(0, 1, ab));
        assert!(!r.rows_agree(2, 3, ab));
        assert!(r.rows_agree(2, 3, AttrSet::single(r.schema().id("a"))));
    }

    #[test]
    fn sorted_rows_order() {
        let r = sample();
        let c = r.schema().id("c");
        let sorted = r.sorted_rows(AttrSet::single(c));
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn project_and_select() {
        let r = sample();
        let a = r.schema().id("a");
        let p = r.project(AttrSet::single(a));
        assert_eq!(p.n_attrs(), 1);
        assert_eq!(p.n_rows(), 4);
        let s = r.select_rows(&[3, 0]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.value(0, a), &Value::str("y"));
        assert_eq!(s.value(1, a), &Value::str("x"));
        s.debug_validate();
    }

    #[test]
    fn row_pairs_count() {
        let r = sample();
        assert_eq!(r.row_pairs().count(), 6);
        assert!(r.row_pairs().all(|(i, j)| i < j));
    }

    #[test]
    fn ascii_table_contains_headers_and_values() {
        let r = sample();
        let t = r.to_ascii_table();
        assert!(t.contains("| a |"));
        assert!(t.contains("x"));
    }

    #[test]
    fn set_value_mutates() {
        let mut r = sample();
        let b = r.schema().id("b");
        r.set_value(3, b, "q".into());
        assert_eq!(r.value(3, b), &Value::str("q"));
    }

    #[test]
    fn logical_equality_ignores_dictionary_history() {
        let mut a = sample();
        let mut b = sample();
        // Give `b` a different dictionary layout via mutation round trips.
        let attr = b.schema().id("a");
        b.set_value(0, attr, "zzz".into());
        b.set_value(0, attr, "x".into());
        assert_eq!(a, b);
        a.set_value(1, attr, "y".into());
        assert_ne!(a, b);
    }

    #[test]
    fn push_row_texts_types_cells() {
        let mut r = Relation::empty(Schema::from_attrs([
            ("name", ValueType::Text),
            ("qty", ValueType::Numeric),
        ]))
        .unwrap();
        r.push_row_texts(&["widget", "3"]).unwrap();
        r.push_row_texts(&["", "2.5"]).unwrap();
        r.push_row_texts(&["widget", "n/a"]).unwrap();
        let name = r.schema().id("name");
        let qty = r.schema().id("qty");
        assert_eq!(r.value(0, name), &Value::str("widget"));
        assert_eq!(r.value(0, qty), &Value::int(3));
        assert!(r.value(1, name).is_null());
        assert_eq!(r.value(1, qty), &Value::float(2.5));
        assert_eq!(r.value(2, qty), &Value::str("n/a"));
        // "widget" was interned once.
        assert_eq!(r.col(name).code(0), r.col(name).code(2));
        assert!(matches!(
            r.push_row_texts(&["too", "many", "cells"]),
            Err(RelationError::ArityMismatch { .. })
        ));
    }
}
