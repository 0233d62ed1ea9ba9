//! Dictionary-encoded columns: the columnar storage cell of [`crate::Relation`].
//!
//! A [`Column`] stores one attribute's cells as a dense vector of `u32`
//! *codes* into a per-column *dictionary* of distinct [`Value`]s. Every
//! distinct value — including `Null` — is interned exactly once, in
//! first-appearance order, so:
//!
//! * cell access is two array loads (`&dict[codes[row]]`), no enum cloning;
//! * structural equality of cells is equality of codes (the bijection
//!   between live codes and values is the invariant everything leans on);
//! * repeated CSV cells cost no allocation after the first occurrence
//!   (the parse path interns through [`Column::intern_text`]);
//! * grouping, partitioning and blocking become integer loops over the
//!   code vector instead of `Value` hashing.
//!
//! Alongside the codes a column maintains a null bitmap (one bit per row)
//! and two lazily built views:
//!
//! * a *sorted-run index* ([`ColumnIndex`]): for every dictionary code its
//!   rank under the structural [`Value`] total order (ties impossible:
//!   dictionary entries are distinct) and its rank under
//!   [`Value::numeric_cmp`] with numerically-equal entries collapsed onto
//!   one rank — the currency of order-dependency checks and sorted scans;
//! * packed `f64` / `i64` vectors ([`Column::packed_f64`] /
//!   [`Column::packed_i64`]) when every non-null cell is numeric
//!   (resp. an integer); nulls hold a placeholder (`NaN` / `0`) and are
//!   disambiguated through the bitmap.
//!
//! Lazy views are invalidated by any mutation ([`Column::set`], pushes).

use crate::value::Value;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Chain terminator for the intern hash chains.
const NO_CODE: u32 = u32::MAX;

/// FNV-1a, the workspace's standalone hasher (no `RandomState` seeding, so
/// intern tables are reproducible across runs — determinism contract).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn byte(mut self, b: u8) -> Self {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    fn bytes(mut self, bs: &[u8]) -> Self {
        for &b in bs {
            self = self.byte(b);
        }
        self
    }
}

/// Hash of a value for the intern table. Variants are tagged so `Int(10)`,
/// `Float(10.0)` and `Str("10")` never share a bucket by construction.
fn value_hash(v: &Value) -> u64 {
    match v {
        Value::Null => Fnv::new().byte(0).0,
        Value::Int(i) => Fnv::new().byte(1).bytes(&i.to_le_bytes()).0,
        Value::Float(f) => Fnv::new().byte(2).bytes(&f.get().to_bits().to_le_bytes()).0,
        Value::Str(s) => str_hash(s),
    }
}

/// Hash of a would-be `Value::Str` — identical to `value_hash(&Value::str(s))`
/// without building the value, so CSV cells probe the dictionary borrowed.
fn str_hash(s: &str) -> u64 {
    Fnv::new().byte(3).bytes(s.as_bytes()).0
}

/// The lazily built sorted-run index of a column: per-code ranks under the
/// two orders discovery cares about.
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    /// Structural rank: position of each dictionary entry in the sorted
    /// order of [`Value`]'s total `Ord`. Distinct entries, distinct ranks.
    rank: Vec<u32>,
    /// [`Value::numeric_cmp`] rank with numerically equal entries (e.g.
    /// `Int(2)` / `Float(2.0)`) collapsed onto one rank.
    num_rank: Vec<u32>,
}

impl ColumnIndex {
    fn build(dict: &[Value]) -> Self {
        let mut order: Vec<u32> = (0..dict.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
        let mut rank = vec![0u32; dict.len()];
        for (pos, &code) in order.iter().enumerate() {
            rank[code as usize] = pos as u32;
        }
        order.sort_unstable_by(|&a, &b| {
            dict[a as usize]
                .numeric_cmp(&dict[b as usize])
                .then(a.cmp(&b))
        });
        let mut num_rank = vec![0u32; dict.len()];
        let mut next = 0u32;
        for (pos, &code) in order.iter().enumerate() {
            if pos > 0 {
                let prev = order[pos - 1] as usize;
                if dict[prev].numeric_cmp(&dict[code as usize]) != std::cmp::Ordering::Equal {
                    next += 1;
                }
            }
            num_rank[code as usize] = next;
        }
        ColumnIndex { rank, num_rank }
    }

    /// Structural rank of a dictionary code.
    #[inline]
    pub fn rank(&self, code: u32) -> u32 {
        self.rank[code as usize]
    }

    /// Numeric-comparison rank of a dictionary code (ties collapsed).
    #[inline]
    pub fn num_rank(&self, code: u32) -> u32 {
        self.num_rank[code as usize]
    }
}

/// Packed numeric views of a column, built lazily on first request.
#[derive(Debug, Clone)]
enum Packed {
    /// Every non-null cell is numeric; nulls hold `NaN`.
    F64(Vec<f64>),
    /// Not all-numeric; no packed view exists.
    None,
}

#[derive(Debug, Clone)]
enum PackedInt {
    /// Every non-null cell is an `Int`; nulls hold `0`.
    I64(Vec<i64>),
    None,
}

/// One dictionary-encoded attribute column. See the module docs.
#[derive(Debug, Default)]
pub struct Column {
    /// Per-row dictionary codes.
    codes: Vec<u32>,
    /// Distinct values, first-appearance order. May contain *orphans*
    /// (entries no row references any more) after [`Column::set`];
    /// consumers that care about live values iterate rows, not the dict.
    dict: Vec<Value>,
    /// Intern table: hash → first code, chained through `chain`.
    lookup: HashMap<u64, u32>,
    /// Per-code: next code with the same hash (`NO_CODE` = end).
    chain: Vec<u32>,
    /// Null bitmap, one bit per row (bit set ⇔ cell is `Null`).
    null_words: Vec<u64>,
    n_nulls: usize,
    /// Lazy sorted-run index; invalidated by mutation.
    index: OnceLock<ColumnIndex>,
    /// Lazy `Value` slice view; invalidated by mutation.
    values: OnceLock<Vec<Value>>,
    /// Lazy packed numeric views; invalidated by mutation.
    packed_f64: OnceLock<Packed>,
    packed_i64: OnceLock<PackedInt>,
}

impl Clone for Column {
    fn clone(&self) -> Self {
        // Lazy views are per-instance caches; the clone re-derives them.
        Column {
            codes: self.codes.clone(),
            dict: self.dict.clone(),
            lookup: self.lookup.clone(),
            chain: self.chain.clone(),
            null_words: self.null_words.clone(),
            n_nulls: self.n_nulls,
            index: OnceLock::new(),
            values: OnceLock::new(),
            packed_f64: OnceLock::new(),
            packed_i64: OnceLock::new(),
        }
    }
}

impl PartialEq for Column {
    /// Logical, row-wise equality: two columns are equal when they hold the
    /// same cell values in the same order, regardless of dictionary layout
    /// (mutation histories can permute or orphan dictionary entries).
    fn eq(&self, other: &Self) -> bool {
        if self.codes.len() != other.codes.len() {
            return false;
        }
        if self.dict == other.dict {
            return self.codes == other.codes;
        }
        self.codes
            .iter()
            .zip(&other.codes)
            .all(|(&a, &b)| self.dict[a as usize] == other.dict[b as usize])
    }
}

impl Column {
    /// Fresh empty column.
    pub fn new() -> Self {
        Column::default()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The per-row dictionary codes.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Code of one row.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// The dictionary (distinct values in first-appearance order; may
    /// contain orphaned entries after mutation).
    #[inline]
    pub fn dict(&self) -> &[Value] {
        &self.dict
    }

    /// Cell value of one row.
    #[inline]
    pub fn value(&self, row: usize) -> &Value {
        &self.dict[self.codes[row] as usize]
    }

    /// Value of a dictionary code.
    #[inline]
    pub fn dict_value(&self, code: u32) -> &Value {
        &self.dict[code as usize]
    }

    /// Is the cell at `row` null?
    #[inline]
    pub fn is_null(&self, row: usize) -> bool {
        self.null_words[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// Number of null cells.
    #[inline]
    pub fn null_count(&self) -> usize {
        self.n_nulls
    }

    /// The null bitmap words (bit `row % 64` of word `row / 64`).
    #[inline]
    pub fn null_words(&self) -> &[u64] {
        &self.null_words
    }

    fn invalidate(&mut self) {
        self.index.take();
        self.values.take();
        self.packed_f64.take();
        self.packed_i64.take();
    }

    fn find_or_insert(
        &mut self,
        hash: u64,
        matches: impl Fn(&Value) -> bool,
        make: impl FnOnce() -> Value,
    ) -> u32 {
        match self.lookup.entry(hash) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let mut code = *e.get();
                loop {
                    if matches(&self.dict[code as usize]) {
                        return code;
                    }
                    let next = self.chain[code as usize];
                    if next == NO_CODE {
                        break;
                    }
                    code = next;
                }
                let fresh = self.push_dict(make());
                self.chain[code as usize] = fresh;
                fresh
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let fresh = self.dict.len() as u32;
                e.insert(fresh);
                self.dict.push(make());
                self.chain.push(NO_CODE);
                fresh
            }
        }
    }

    fn push_dict(&mut self, v: Value) -> u32 {
        let code = self.dict.len() as u32;
        self.dict.push(v);
        self.chain.push(NO_CODE);
        code
    }

    /// Intern a value, returning its code (existing or fresh).
    pub fn intern(&mut self, v: Value) -> u32 {
        let hash = value_hash(&v);
        // `v` is moved into `make`, so the probe compares against a clone-free
        // borrow first.
        match &v {
            Value::Null => self.find_or_insert(hash, |d| d.is_null(), || Value::Null),
            Value::Int(i) => {
                let i = *i;
                self.find_or_insert(
                    hash,
                    |d| matches!(d, Value::Int(x) if *x == i),
                    move || Value::Int(i),
                )
            }
            Value::Float(f) => {
                let bits = f.get().to_bits();
                self.find_or_insert(
                    hash,
                    |d| matches!(d, Value::Float(x) if x.get().to_bits() == bits),
                    move || Value::float(f64::from_bits(bits)),
                )
            }
            Value::Str(_) => {
                let Value::Str(s) = v else { unreachable!() };
                let probe = s.clone();
                // One clone per *distinct* string would be ideal; entry-based
                // probing needs the text for comparison and the value for
                // insertion. `intern_text` (the parse path) avoids even that.
                self.find_or_insert(
                    hash,
                    |d| d.as_str() == Some(probe.as_str()),
                    move || Value::Str(s),
                )
            }
        }
    }

    /// Intern a borrowed string cell without allocating unless the value is
    /// new to the dictionary — the CSV hot path.
    pub fn intern_str(&mut self, s: &str) -> u32 {
        let hash = str_hash(s);
        self.find_or_insert(hash, |d| d.as_str() == Some(s), || Value::str(s))
    }

    /// Append a cell by value, interning it.
    pub fn push(&mut self, v: Value) {
        let null = v.is_null();
        let code = self.intern(v);
        self.push_code(code, null);
    }

    /// Append a borrowed string cell (never null; empty strings are kept).
    pub fn push_str(&mut self, s: &str) {
        let code = self.intern_str(s);
        self.push_code(code, false);
    }

    fn push_code(&mut self, code: u32, null: bool) {
        let row = self.codes.len();
        self.codes.push(code);
        if row.is_multiple_of(64) {
            self.null_words.push(0);
        }
        if null {
            self.null_words[row / 64] |= 1u64 << (row % 64);
            self.n_nulls += 1;
        }
        self.invalidate();
    }

    /// Overwrite one cell.
    pub fn set(&mut self, row: usize, v: Value) {
        let was_null = self.is_null(row);
        let null = v.is_null();
        let code = self.intern(v);
        self.codes[row] = code;
        match (was_null, null) {
            (false, true) => {
                self.null_words[row / 64] |= 1u64 << (row % 64);
                self.n_nulls += 1;
            }
            (true, false) => {
                self.null_words[row / 64] &= !(1u64 << (row % 64));
                self.n_nulls -= 1;
            }
            _ => {}
        }
        self.invalidate();
    }

    /// The sorted-run index, built on first use.
    pub fn index(&self) -> &ColumnIndex {
        self.index.get_or_init(|| ColumnIndex::build(&self.dict))
    }

    /// The column as a `Value` slice.
    /// Materialized (cloning every cell) on first use; prefer code-based
    /// access on hot paths.
    pub fn values(&self) -> &[Value] {
        self.values.get_or_init(|| {
            self.codes
                .iter()
                .map(|&c| self.dict[c as usize].clone())
                .collect()
        })
    }

    /// Packed `f64` view: `Some` iff every non-null cell is numeric.
    /// Null rows hold `NaN`; consult [`Column::is_null`] to tell them from
    /// genuine `NaN` cells.
    pub fn packed_f64(&self) -> Option<&[f64]> {
        let packed = self.packed_f64.get_or_init(|| {
            let mut out = Vec::with_capacity(self.codes.len());
            for (row, &code) in self.codes.iter().enumerate() {
                match self.dict[code as usize].as_f64() {
                    Some(x) => out.push(x),
                    None if self.is_null(row) => out.push(f64::NAN),
                    None => return Packed::None,
                }
            }
            Packed::F64(out)
        });
        match packed {
            Packed::F64(v) => Some(v),
            Packed::None => None,
        }
    }

    /// Packed `i64` view: `Some` iff every non-null cell is an `Int`.
    /// Null rows hold `0`; consult [`Column::is_null`].
    pub fn packed_i64(&self) -> Option<&[i64]> {
        let packed = self.packed_i64.get_or_init(|| {
            let mut out = Vec::with_capacity(self.codes.len());
            for (row, &code) in self.codes.iter().enumerate() {
                match &self.dict[code as usize] {
                    Value::Int(i) => out.push(*i),
                    Value::Null if self.is_null(row) => out.push(0),
                    _ => return PackedInt::None,
                }
            }
            PackedInt::I64(out)
        });
        match packed {
            PackedInt::I64(v) => Some(v),
            PackedInt::None => None,
        }
    }

    /// Rough resident footprint in bytes: codes, dictionary (enum + string
    /// heap), intern table and null bitmap. Lazy views are counted only
    /// once built. An estimate, not an allocator measurement — the same
    /// contract as [`crate::StrippedPartition::approx_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        let mut total = (self.codes.len() * std::mem::size_of::<u32>()) as u64;
        total += (self.dict.len() * std::mem::size_of::<Value>()) as u64;
        for v in &self.dict {
            if let Value::Str(s) = v {
                total += s.len() as u64;
            }
        }
        total += (self.chain.len() * std::mem::size_of::<u32>()) as u64;
        // HashMap entry ≈ key + value + control byte, times a load-factor
        // slack of 8/7 rounded up to 2× for growth headroom.
        total += (self.lookup.len() * (std::mem::size_of::<(u64, u32)>() + 1) * 2) as u64;
        total += (self.null_words.len() * std::mem::size_of::<u64>()) as u64;
        if let Some(ix) = self.index.get() {
            total += ((ix.rank.len() + ix.num_rank.len()) * std::mem::size_of::<u32>()) as u64;
        }
        if let Some(vals) = self.values.get() {
            total += (vals.len() * std::mem::size_of::<Value>()) as u64;
            for v in vals {
                if let Value::Str(s) = v {
                    total += s.len() as u64;
                }
            }
        }
        if let Some(Packed::F64(v)) = self.packed_f64.get() {
            total += (v.len() * std::mem::size_of::<f64>()) as u64;
        }
        if let Some(PackedInt::I64(v)) = self.packed_i64.get() {
            total += (v.len() * std::mem::size_of::<i64>()) as u64;
        }
        total
    }

    /// A new column holding the cells of `rows` (in the given order),
    /// its dictionary rebuilt in first-appearance order of the selection.
    pub fn select(&self, rows: &[usize]) -> Column {
        let mut out = Column::new();
        let mut remap = vec![NO_CODE; self.dict.len()];
        for &r in rows {
            let old = self.codes[r] as usize;
            let code = if remap[old] != NO_CODE {
                remap[old]
            } else {
                let fresh = out.intern(self.dict[old].clone());
                remap[old] = fresh;
                fresh
            };
            out.push_code(code, self.is_null(r));
        }
        out
    }

    /// Internal consistency check, used by the fault-resilience and
    /// property suites: every code addresses the dictionary, the dictionary
    /// holds no structural duplicates, every intern chain resolves, and the
    /// null bitmap agrees with the cells.
    ///
    /// # Panics
    /// Panics (with a description) on any violated invariant.
    pub fn debug_validate(&self) {
        assert_eq!(self.chain.len(), self.dict.len(), "chain/dict length");
        assert_eq!(
            self.null_words.len(),
            self.codes.len().div_ceil(64),
            "null bitmap sizing"
        );
        for (i, &c) in self.codes.iter().enumerate() {
            assert!((c as usize) < self.dict.len(), "row {i}: dangling code {c}");
            assert_eq!(
                self.is_null(i),
                self.dict[c as usize].is_null(),
                "row {i}: bitmap disagrees with cell"
            );
        }
        let nulls = (0..self.codes.len()).filter(|&r| self.is_null(r)).count();
        assert_eq!(nulls, self.n_nulls, "null count");
        for (i, a) in self.dict.iter().enumerate() {
            for b in &self.dict[i + 1..] {
                assert_ne!(a, b, "duplicate dictionary entry {a:?}");
            }
        }
        for (code, v) in self.dict.iter().enumerate() {
            // Every dictionary entry must be reachable through the intern
            // table (otherwise re-interning the same value would duplicate).
            let mut cur = *self
                .lookup
                .get(&value_hash(v))
                .unwrap_or_else(|| panic!("dict entry {v:?} missing from intern table"));
            loop {
                if cur as usize == code {
                    break;
                }
                cur = self.chain[cur as usize];
                assert_ne!(cur, NO_CODE, "dict entry {v:?} not on its hash chain");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_preserves_order() {
        let mut c = Column::new();
        for v in ["b", "a", "b", "c", "a"] {
            c.push_str(v);
        }
        assert_eq!(c.dict().len(), 3);
        assert_eq!(c.codes(), &[0, 1, 0, 2, 1]);
        assert_eq!(c.value(3), &Value::str("c"));
        c.debug_validate();
    }

    #[test]
    fn int_float_str_never_conflate() {
        let mut c = Column::new();
        c.push(Value::int(10));
        c.push(Value::float(10.0));
        c.push(Value::str("10"));
        c.push(Value::int(10));
        assert_eq!(c.dict().len(), 3);
        assert_eq!(c.code(0), c.code(3));
        assert_ne!(c.code(0), c.code(1));
        c.debug_validate();
    }

    #[test]
    fn null_bitmap_tracks_cells() {
        let mut c = Column::new();
        for i in 0..130 {
            if i % 3 == 0 {
                c.push(Value::Null);
            } else {
                c.push(Value::int(i));
            }
        }
        assert_eq!(c.null_count(), 44);
        assert!(c.is_null(0) && c.is_null(129) && !c.is_null(1));
        c.set(0, Value::int(7));
        assert_eq!(c.null_count(), 43);
        c.set(1, Value::Null);
        assert_eq!(c.null_count(), 44);
        c.debug_validate();
    }

    #[test]
    fn index_ranks_follow_value_order() {
        let mut c = Column::new();
        for v in [
            Value::str("z"),
            Value::int(5),
            Value::Null,
            Value::float(5.0),
            Value::float(2.5),
        ] {
            c.push(v);
        }
        let ix = c.index();
        // Structural order: Null < 2.5 < 5 (< Int first) < 5.0 < "z".
        let rank_of = |row: usize| ix.rank(c.code(row));
        assert!(rank_of(2) < rank_of(4));
        assert!(rank_of(4) < rank_of(1));
        assert!(rank_of(1) < rank_of(3));
        assert!(rank_of(3) < rank_of(0));
        // numeric_cmp collapses Int(5) and Float(5.0).
        assert_eq!(ix.num_rank(c.code(1)), ix.num_rank(c.code(3)));
        assert_ne!(ix.num_rank(c.code(1)), ix.num_rank(c.code(4)));
    }

    #[test]
    fn packed_views_gate_on_content() {
        let mut nums = Column::new();
        nums.push(Value::int(1));
        nums.push(Value::Null);
        nums.push(Value::float(2.5));
        let f = nums.packed_f64().expect("all-numeric");
        assert_eq!(f[0], 1.0);
        assert!(f[1].is_nan() && nums.is_null(1));
        assert_eq!(f[2], 2.5);
        assert!(nums.packed_i64().is_none(), "2.5 is not an Int");

        let mut ints = Column::new();
        ints.push(Value::int(4));
        ints.push(Value::Null);
        assert_eq!(ints.packed_i64().expect("all-int"), &[4, 0]);

        let mut mixed = Column::new();
        mixed.push(Value::int(1));
        mixed.push(Value::str("x"));
        assert!(mixed.packed_f64().is_none());
    }

    #[test]
    fn mutation_invalidates_lazy_views() {
        let mut c = Column::new();
        c.push(Value::int(1));
        c.push(Value::int(2));
        assert_eq!(c.values(), &[Value::int(1), Value::int(2)]);
        let _ = c.index();
        c.set(0, Value::int(9));
        assert_eq!(c.values(), &[Value::int(9), Value::int(2)]);
        let ix = c.index();
        assert!(ix.rank(c.code(0)) > ix.rank(c.code(1)));
    }

    #[test]
    fn logical_equality_survives_dict_permutation() {
        let mut a = Column::new();
        a.push(Value::str("x"));
        a.push(Value::str("y"));
        let mut b = Column::new();
        // Interns "y" first, permuting the dictionary relative to `a`.
        b.push(Value::str("y"));
        b.push(Value::str("x"));
        assert_ne!(a, b, "different cell order");
        b.set(0, Value::str("x"));
        b.set(1, Value::str("y"));
        assert_eq!(a, b, "same cells, different dictionaries");
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut c = Column::new();
        let empty = c.approx_bytes();
        for i in 0..100 {
            c.push(Value::Str(format!("value-{i}")));
        }
        let full = c.approx_bytes();
        assert!(full > empty + 100 * 4, "codes + dict bytes counted");
        let before_views = full;
        let _ = c.values();
        assert!(
            c.approx_bytes() > before_views,
            "lazy views charged once built"
        );
    }
}
