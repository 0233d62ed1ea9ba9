//! Candidate-pair generation: blocking and similarity indexes.
//!
//! The pairwise classes of the family tree (MDs, DDs, NEDs, ODs, DCs and the
//! dedup application) all quantify over *tuple pairs*; a naive check walks all
//! `n·(n−1)/2` of them regardless of predicate selectivity.  This module
//! provides deterministic candidate-pair generators that are **complete** for
//! a small vocabulary of predicate classes ([`PairSpec`]): every pair that can
//! satisfy the predicate is generated, so filtering candidates through the
//! exact predicate yields results identical to the full scan.
//!
//! Generators:
//!
//! * **Equality blocking** ([`PairSpec::Eq`]) — rows are grouped into
//!   structural-equality classes (the same classes a stripped partition
//!   holds); only within-class pairs can satisfy the predicate, and all of
//!   them do (*exact*).
//! * **Band join** ([`PairSpec::Band`]) — for `|a−b| ≤ θ` under `AbsDiff`
//!   semantics: value classes are sorted and linked by a two-pointer sweep;
//!   non-finite numerics match nothing and are dropped, null and non-numeric
//!   classes keep their within-class pairs (*exact*).
//! * **q-gram prefix filter** ([`PairSpec::Edit`]) — for edit distance ≤ k:
//!   distinct rendered strings sharing a positional-independent q-gram within
//!   a length filter of k are linked; strings too short to guarantee a shared
//!   q-gram are all-paired within the length filter (*candidates require
//!   verification*).
//! * **Full scan** ([`PairSpec::All`]) — the conservative fallback for
//!   predicates that are not indexable; candidates are every pair, chunked
//!   into fixed-size blocks so parallel consumers stay deterministic.
//!
//! Enumeration order is a pure function of the column contents — independent
//! of thread count, hash seeds and budget state — so indexed paths can be
//! parallelised over [`PairIndex::n_blocks`] with a serial in-order merge and
//! still produce byte-identical output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::column::Column;
use crate::{AttrId, Relation, StrippedPartition, Value};

/// Seedless single-pass hasher for the edit-index tables: one Fibonacci
/// multiply for packed u64 grams, FNV-1a for byte streams. Deterministic
/// across processes (no `RandomState`), which the reproducible-enumeration
/// contract requires, and far cheaper than SipHash on the hot gram path.
/// Iteration order of the maps it backs is never observed.
#[derive(Default)]
struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_right(29);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Predicate class a candidate generator can serve.
///
/// A spec describes the *match relation* on a single column; an index built
/// for a spec generates a superset of the matching pairs (exactly the
/// matching pairs when [`PairIndex::is_exact`] holds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairSpec {
    /// Matches iff the two values are structurally equal
    /// (`Metric::Equality` with threshold `< 1`).
    Eq,
    /// Matches iff `AbsDiff` distance ≤ θ: numeric values within the band,
    /// equal non-numeric values, and null/null pairs.
    Band(f64),
    /// May match only if rendered-string edit distance ≤ k
    /// (`Metric::Levenshtein`); candidates beyond identical strings need
    /// verification.
    Edit(usize),
    /// No pair matches (e.g. a negative distance threshold).
    Empty,
    /// Not indexable: every pair is a candidate (full-scan fallback).
    All,
}

/// q-gram width used by the [`PairSpec::Edit`] prefix filter.
const QGRAM: usize = 2;

/// Fixed `i`-range width of full-scan blocks; independent of thread count so
/// block-parallel consumers stay deterministic.
const FULL_SCAN_CHUNK: usize = 1024;

/// Abandon an index whose link list outgrows this bound (the predicate is too
/// unselective for blocking to pay off) and fall back to the full scan.
fn link_cap(n_rows: usize) -> usize {
    8 * n_rows + 1024
}

/// A deterministic candidate-pair generator for one column and one
/// [`PairSpec`].
///
/// Candidates come from two sources: *within-class* pairs (all row pairs of
/// each equivalence class) and *link* pairs (the cross product of two linked
/// classes).  Classes are ordered by their smallest row id, rows ascend
/// within a class, and links are emitted in a fixed sweep order, so
/// [`PairIndex::for_each_candidate`] visits pairs in the same order on every
/// run.
#[derive(Debug, Clone)]
pub struct PairIndex {
    classes: Vec<Vec<usize>>,
    /// Candidate class pairs `(a, b)` with `a != b`, indexes into `classes`.
    links: Vec<(usize, usize)>,
    /// Every candidate satisfies the predicate (no verification needed).
    exact: bool,
    /// False for the full-scan fallback.
    indexed: bool,
    n_rows: usize,
    n_candidates: u64,
    /// Rows whose q-gram work was skipped because their dictionary entry
    /// was already indexed (distinct-value edit builds only; 0 elsewhere).
    distinct_gram_hits: u64,
}

impl PairIndex {
    /// Build an index over a column for a predicate class.
    ///
    /// Completeness contract: every row pair `(i, j)` with `i < j` whose
    /// values match under `spec` is generated by
    /// [`PairIndex::for_each_candidate`].  For [`PairSpec::All`] (and for
    /// indexes that blow past the internal link cap) this degenerates to the
    /// full scan.
    pub fn build(col: &[Value], spec: PairSpec) -> Self {
        match spec {
            PairSpec::Eq => Self::build_eq(col),
            PairSpec::Band(theta) => Self::build_band(col, theta),
            PairSpec::Edit(k) => Self::build_edit(col, k),
            PairSpec::Empty => Self::empty(col.len()),
            PairSpec::All => Self::full_scan(col.len()),
        }
    }

    /// [`PairIndex::build`] over a relation attribute, keyed on dictionary
    /// codes: equality classes come straight from the code vector, band
    /// sweeps sort one value per *distinct* code, and the edit index
    /// renders each distinct value once instead of once per row. Class
    /// construction visits rows in order, so classes, links and candidate
    /// enumeration are identical to the `Value`-slice builder
    /// [`PairIndex::build`].
    pub fn build_attr(rel: &Relation, attr: AttrId, spec: PairSpec) -> Self {
        let col = rel.col(attr);
        match spec {
            PairSpec::Eq => Self::build_eq_codes(col),
            PairSpec::Band(theta) => Self::build_band_codes(col, theta),
            PairSpec::Edit(k) => Self::build_edit_codes(col, k),
            PairSpec::Empty => Self::empty(col.len()),
            PairSpec::All => Self::full_scan(col.len()),
        }
    }

    /// The index that generates no candidates (unsatisfiable predicate).
    pub fn empty(n_rows: usize) -> Self {
        PairIndex {
            classes: Vec::new(),
            links: Vec::new(),
            exact: true,
            indexed: true,
            n_rows,
            n_candidates: 0,
            distinct_gram_hits: 0,
        }
    }

    /// The conservative fallback: every pair is a candidate, enumerated in
    /// `(i, j)` ascending order and chunked into fixed-width blocks.
    pub fn full_scan(n_rows: usize) -> Self {
        let n = n_rows as u64;
        PairIndex {
            classes: Vec::new(),
            links: Vec::new(),
            exact: false,
            indexed: false,
            n_rows,
            n_candidates: n * n.saturating_sub(1) / 2,
            distinct_gram_hits: 0,
        }
    }

    /// Equality-blocking index from an existing stripped partition
    /// (singleton classes generate no pairs, so stripping loses nothing).
    pub fn from_partition(part: &StrippedPartition) -> Self {
        Self::from_classes(part.classes().to_vec(), part.n_rows())
    }

    /// Equality-blocking index over the structural-equality classes of an
    /// attribute set (the multi-column analogue of [`PairSpec::Eq`]).
    pub fn from_attrs(rel: &Relation, attrs: crate::AttrSet) -> Self {
        Self::from_partition(&StrippedPartition::from_attrs(rel, attrs))
    }

    fn from_classes(mut classes: Vec<Vec<usize>>, n_rows: usize) -> Self {
        classes.retain(|c| c.len() >= 2);
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort_unstable();
        Self::finish(classes, Vec::new(), true, n_rows)
    }

    fn finish(
        classes: Vec<Vec<usize>>,
        links: Vec<(usize, usize)>,
        exact: bool,
        n_rows: usize,
    ) -> Self {
        let mut idx = PairIndex {
            classes,
            links,
            exact,
            indexed: true,
            n_rows,
            n_candidates: 0,
            distinct_gram_hits: 0,
        };
        idx.n_candidates = (0..idx.n_blocks()).map(|b| idx.block_pairs(b)).sum();
        idx
    }

    fn build_eq(col: &[Value]) -> Self {
        Self::finish(structural_classes(col), Vec::new(), true, col.len())
    }

    fn build_eq_codes(col: &Column) -> Self {
        Self::finish(code_classes(col), Vec::new(), true, col.len())
    }

    fn build_band_codes(col: &Column, theta: f64) -> Self {
        if theta.is_nan() || theta < 0.0 {
            return Self::empty(col.len());
        }
        // Mirrors `build_band`: structural classes in first-appearance
        // order, rows with non-finite numeric values dropped entirely.
        // Membership decisions are made once per dictionary code.
        const NO_CLASS: u32 = u32::MAX;
        let dict = col.dict();
        let mut class_of: Vec<u32> = vec![NO_CLASS; dict.len()];
        let mut skip: Vec<bool> = vec![false; dict.len()];
        for (code, v) in dict.iter().enumerate() {
            skip[code] = matches!(v.as_f64(), Some(x) if !x.is_finite());
        }
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut class_code: Vec<u32> = Vec::new();
        for (row, &code) in col.codes().iter().enumerate() {
            if skip[code as usize] {
                continue;
            }
            let cls = if class_of[code as usize] != NO_CLASS {
                class_of[code as usize] as usize
            } else {
                class_of[code as usize] = classes.len() as u32;
                classes.push(Vec::new());
                class_code.push(code);
                classes.len() - 1
            };
            classes[cls].push(row);
        }
        let mut nums: Vec<(f64, usize)> = class_code
            .iter()
            .enumerate()
            .filter_map(|(c, &code)| Some((dict[code as usize].as_f64()?, c)))
            .collect();
        nums.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let cap = link_cap(col.len());
        let mut links = Vec::new();
        let mut lo = 0usize;
        for hi in 0..nums.len() {
            while nums[hi].0 - nums[lo].0 > theta {
                lo += 1;
            }
            for k in lo..hi {
                let (a, b) = (nums[k].1, nums[hi].1);
                links.push((a.min(b), a.max(b)));
                if links.len() > cap {
                    return Self::full_scan(col.len());
                }
            }
        }
        Self::finish(classes, links, true, col.len())
    }

    fn build_edit_codes(col: &Column, k: usize) -> Self {
        // Same classes as `build_edit` — keyed on *rendered* text, so
        // distinct codes can share a class (`Int(10)` and `Str("10")`
        // render alike) — but built per *distinct dictionary entry*: two
        // row passes (count, then fill into exact-capacity classes) and
        // one render per live code. Class creation follows the first live
        // row of each code, so class order, content and the downstream
        // gram links are identical to the per-row reference builder.
        const NO_CLASS: u32 = u32::MAX;
        let dict = col.dict();
        // Pass 1: first-seen live codes (in first-row order) + row counts.
        let mut count_of: Vec<u32> = vec![0; dict.len()];
        let mut first_seen: Vec<u32> = Vec::new();
        for &code in col.codes() {
            if count_of[code as usize] == 0 {
                first_seen.push(code);
            }
            count_of[code as usize] += 1;
        }
        let hits = (col.len() - first_seen.len()) as u64;
        // Resolve every distinct entry to a rendered-text class.
        let mut class_of: Vec<u32> = vec![NO_CLASS; dict.len()];
        let mut by_key: FastMap<Option<String>, usize> = FastMap::default();
        let mut class_sizes: Vec<usize> = Vec::new();
        let mut texts: Vec<Option<Vec<char>>> = Vec::new();
        for &code in &first_seen {
            let v = &dict[code as usize];
            let key = (!v.is_null()).then(|| v.render().into_owned());
            let cls = match by_key.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let cls = texts.len();
                    texts.push(e.key().as_ref().map(|s| s.chars().collect()));
                    class_sizes.push(0);
                    e.insert(cls);
                    cls
                }
            };
            class_of[code as usize] = cls as u32;
            class_sizes[cls] += count_of[code as usize] as usize;
        }
        // Pass 2: fill classes in row order, no reallocation.
        let mut classes: Vec<Vec<usize>> =
            class_sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
        for (row, &code) in col.codes().iter().enumerate() {
            classes[class_of[code as usize] as usize].push(row);
        }
        let mut idx = Self::finish_edit(classes, texts, k, col.len());
        idx.distinct_gram_hits = hits;
        idx
    }

    fn build_band(col: &[Value], theta: f64) -> Self {
        // A negative (or NaN) band matches nothing: even null/null pairs sit
        // at distance 0, which is not ≤ θ.
        if theta.is_nan() || theta < 0.0 {
            return Self::empty(col.len());
        }
        // Structural classes, excluding non-finite numerics: |x−y| is NaN or
        // +∞ whenever either side is, so those rows match nothing at all —
        // not even structurally equal copies of themselves.
        let mut by_value: HashMap<&Value, usize> = HashMap::new();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (row, v) in col.iter().enumerate() {
            if matches!(v.as_f64(), Some(x) if !x.is_finite()) {
                continue;
            }
            let cls = *by_value.entry(v).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[cls].push(row);
        }
        // Two-pointer sweep over the numeric classes sorted by value: classes
        // a < b are linked iff their value gap is ≤ θ, which is exactly the
        // AbsDiff predicate on their (constant) member values.
        let mut nums: Vec<(f64, usize)> = classes
            .iter()
            .enumerate()
            .filter_map(|(c, rows)| {
                let v = col[rows[0]].as_f64()?;
                Some((v, c))
            })
            .collect();
        nums.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let cap = link_cap(col.len());
        let mut links = Vec::new();
        let mut lo = 0usize;
        for hi in 0..nums.len() {
            while nums[hi].0 - nums[lo].0 > theta {
                lo += 1;
            }
            for k in lo..hi {
                let (a, b) = (nums[k].1, nums[hi].1);
                links.push((a.min(b), a.max(b)));
                if links.len() > cap {
                    return Self::full_scan(col.len());
                }
            }
        }
        Self::finish(classes, links, true, col.len())
    }

    fn build_edit(col: &[Value], k: usize) -> Self {
        // Classes of identical rendered strings (distance 0), plus one class
        // for nulls (null/null distance is 0, null/string is ∞).  Cross-class
        // candidates come from a q-gram inverted index with a length filter.
        let mut by_key: HashMap<Option<String>, usize> = HashMap::new();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut texts: Vec<Option<Vec<char>>> = Vec::new();
        for (row, v) in col.iter().enumerate() {
            let key = (!v.is_null()).then(|| v.render().into_owned());
            let cls = *by_key.entry(key).or_insert_with(|| {
                classes.push(Vec::new());
                texts.push((!v.is_null()).then(|| v.render().chars().collect()));
                classes.len() - 1
            });
            classes[cls].push(row);
        }
        Self::finish_edit(classes, texts, k, col.len())
    }

    /// Shared tail of the edit-distance builders: q-gram prefix-filter
    /// linking over rendered-text classes.
    fn finish_edit(
        classes: Vec<Vec<usize>>,
        texts: Vec<Option<Vec<char>>>,
        k: usize,
        n_rows: usize,
    ) -> Self {
        if k == 0 {
            // Edit distance 0 is rendered-string equality: classes only.
            return Self::finish(classes, Vec::new(), true, n_rows);
        }
        // Two strings within edit distance k share at least
        // max(|a|,|b|) − q + 1 − k·q q-grams (Gravano et al.); that bound is
        // ≥ 1 only when max(|a|,|b|) ≥ q·(k+1), so shorter strings must be
        // all-paired (within the |Δlen| ≤ k filter, which any edit-k pair
        // satisfies).
        let short_lim = QGRAM * (k + 1);
        let cap = link_cap(n_rows);
        let mut links: Vec<(usize, usize)> = Vec::new();
        let mut shorts: Vec<usize> = Vec::new();
        let lens: Vec<usize> = texts
            .iter()
            .map(|t| t.as_ref().map_or(0, Vec::len))
            .collect();
        // Grams pack into one u64 (`c1 << 32 | c2`) whose numeric order is
        // the lexicographic `(char, char)` order, so flat sorted-deduped
        // buffers replace per-class tree sets without reordering anything.
        //
        // Postings are intrusive chains through one flat arena — the map
        // holds only each gram's newest entry, so a gram costs a single
        // hash probe (walk the chain for candidates, then prepend the
        // current class). Chain order is newest-first, which is fine:
        // `cand` is sorted and deduped before use. A class never chains
        // to itself because its grams are deduped and each is prepended
        // exactly once, after its own candidate walk.
        const NO_ENTRY: u32 = u32::MAX;
        if texts.len() >= NO_ENTRY as usize {
            return Self::full_scan(n_rows);
        }
        let mut heads: FastMap<u64, u32> = FastMap::default();
        let mut arena: Vec<(u32, u32)> = Vec::new(); // (class, prev entry)
        let mut grams: Vec<u64> = Vec::new();
        let mut cand: Vec<usize> = Vec::new();
        for (c, text) in texts.iter().enumerate() {
            let Some(chars) = text else { continue };
            let len_c = chars.len();
            grams.clear();
            for w in chars.windows(QGRAM) {
                grams.push(((w[0] as u64) << 32) | (w[1] as u64));
            }
            grams.sort_unstable();
            grams.dedup();
            cand.clear();
            for &g in &grams {
                let head = heads.entry(g).or_insert(NO_ENTRY);
                let mut e = *head;
                while e != NO_ENTRY {
                    let (cls, prev) = arena[e as usize];
                    if lens[cls as usize].abs_diff(len_c) <= k {
                        cand.push(cls as usize);
                    }
                    e = prev;
                }
                if arena.len() >= NO_ENTRY as usize {
                    return Self::full_scan(n_rows);
                }
                arena.push((c as u32, *head));
                *head = (arena.len() - 1) as u32;
            }
            if len_c < short_lim {
                for &e in &shorts {
                    if lens[e].abs_diff(len_c) <= k {
                        cand.push(e);
                    }
                }
                shorts.push(c);
            }
            cand.sort_unstable();
            cand.dedup();
            if links.len() + cand.len() > cap {
                return Self::full_scan(n_rows);
            }
            for &e in &cand {
                links.push((e, c));
            }
        }
        let exact = links.is_empty();
        Self::finish(classes, links, exact, n_rows)
    }

    /// Does this index actually restrict candidates (vs the full scan)?
    pub fn is_indexed(&self) -> bool {
        self.indexed
    }

    /// Does every candidate satisfy the predicate (no verification needed)?
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of rows of the indexed column.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The equivalence classes (each a sorted row list, ≥ 2 rows).
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Candidate cross-class links as `(class_a, class_b)` index pairs.
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// Total number of candidate pairs this index generates.
    pub fn n_candidates(&self) -> u64 {
        self.n_candidates
    }

    /// Rows whose q-gram indexing was served by an already-indexed distinct
    /// dictionary entry (the repeated-string win of the distinct-value edit
    /// builder). 0 for every other index kind and for the `Value`-slice
    /// builder [`PairIndex::build`].
    pub fn distinct_gram_hits(&self) -> u64 {
        self.distinct_gram_hits
    }

    /// Number of enumeration blocks (units of parallel work).
    ///
    /// Indexed: one block per class (within-class pairs) followed by one per
    /// link.  Full scan: fixed-width chunks of the outer row index.
    pub fn n_blocks(&self) -> usize {
        if self.indexed {
            self.classes.len() + self.links.len()
        } else {
            self.n_rows.saturating_sub(1).div_ceil(FULL_SCAN_CHUNK)
        }
    }

    /// Number of candidate pairs in block `b`.
    pub fn block_pairs(&self, b: usize) -> u64 {
        if self.indexed {
            if b < self.classes.len() {
                let c = self.classes[b].len() as u64;
                c * (c - 1) / 2
            } else {
                let (a, c) = self.links[b - self.classes.len()];
                self.classes[a].len() as u64 * self.classes[c].len() as u64
            }
        } else {
            let (lo, hi) = self.full_scan_range(b);
            let cnt = (hi - lo) as u64;
            let n = self.n_rows as u64;
            // Σ_{i=lo}^{hi−1} (n−1−i)
            cnt * (n - 1) - (lo as u64 + hi as u64 - 1) * cnt / 2
        }
    }

    fn full_scan_range(&self, b: usize) -> (usize, usize) {
        let lo = b * FULL_SCAN_CHUNK;
        let hi = ((b + 1) * FULL_SCAN_CHUNK).min(self.n_rows.saturating_sub(1));
        (lo, hi)
    }

    /// Enumerate the candidates of block `b` in deterministic order; stops
    /// and returns `false` if `f` returns `false`.
    pub fn for_each_in_block(&self, b: usize, f: &mut impl FnMut(usize, usize) -> bool) -> bool {
        if self.indexed {
            if b < self.classes.len() {
                let rows = &self.classes[b];
                for x in 0..rows.len() {
                    for y in x + 1..rows.len() {
                        if !f(rows[x], rows[y]) {
                            return false;
                        }
                    }
                }
            } else {
                let (a, c) = self.links[b - self.classes.len()];
                for &i in &self.classes[a] {
                    for &j in &self.classes[c] {
                        if !f(i.min(j), i.max(j)) {
                            return false;
                        }
                    }
                }
            }
        } else {
            let (lo, hi) = self.full_scan_range(b);
            for i in lo..hi {
                for j in i + 1..self.n_rows {
                    if !f(i, j) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Enumerate every candidate pair `(i, j)` with `i < j`, block by block,
    /// in a fixed order; stops early (returning `false`) if `f` returns
    /// `false`.  No pair is generated twice.
    pub fn for_each_candidate(&self, mut f: impl FnMut(usize, usize) -> bool) -> bool {
        for b in 0..self.n_blocks() {
            if !self.for_each_in_block(b, &mut f) {
                return false;
            }
        }
        true
    }
}

/// Structural-equality classes of a column, ordered by first row, rows
/// ascending within each class.  All rows are covered (singletons included).
fn structural_classes(col: &[Value]) -> Vec<Vec<usize>> {
    let mut by_value: HashMap<&Value, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (row, v) in col.iter().enumerate() {
        let cls = *by_value.entry(v).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[cls].push(row);
    }
    classes
}

/// [`structural_classes`] from dictionary codes: no `Value` hashing, one
/// array slot per code.  Identical output — a code *is* a structural-
/// equality class id, and both walks visit rows in ascending order.
fn code_classes(col: &Column) -> Vec<Vec<usize>> {
    const NO_CLASS: u32 = u32::MAX;
    let mut class_of: Vec<u32> = vec![NO_CLASS; col.dict().len()];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (row, &code) in col.codes().iter().enumerate() {
        let cls = if class_of[code as usize] != NO_CLASS {
            class_of[code as usize] as usize
        } else {
            class_of[code as usize] = classes.len() as u32;
            classes.push(Vec::new());
            classes.len() - 1
        };
        classes[cls].push(row);
    }
    classes
}

/// Exact count of row pairs satisfying a *conjunction* of per-attribute
/// specs, without enumerating them.
///
/// Countable forms: any number of [`PairSpec::Eq`] atoms plus at most one
/// [`PairSpec::Band`] atom (plus [`PairSpec::Empty`], which forces 0).
/// Returns `None` when the conjunction involves [`PairSpec::Edit`] /
/// [`PairSpec::All`] atoms or more than one band — callers fall back to
/// enumerate-and-verify.
///
/// The count is over unordered pairs `i < j` and matches a full-scan filter
/// exactly, including the awkward cases: null/null pairs count for both `Eq`
/// and `Band` atoms, non-finite numerics match nothing under a band, and
/// non-numeric values match a band only when structurally equal.
pub fn count_pairs(rel: &Relation, specs: &[(AttrId, PairSpec)]) -> Option<u64> {
    let mut eq_attrs = crate::AttrSet::empty();
    let mut bands: Vec<(AttrId, f64)> = Vec::new();
    for (attr, spec) in specs {
        match spec {
            PairSpec::Empty => return Some(0),
            PairSpec::Eq => eq_attrs = eq_attrs.insert(*attr),
            PairSpec::Band(theta) => bands.push((*attr, *theta)),
            PairSpec::Edit(_) | PairSpec::All => return None,
        }
    }
    // Merge bands on the same attribute (|a−b| ≤ θ₁ ∧ |a−b| ≤ θ₂ ⟺ ≤ min θ,
    // which sorts first); distinct banded attributes are not countable by
    // grouping.
    bands.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    bands.dedup_by_key(|b| b.0);
    if bands.len() > 1 {
        return None;
    }
    let band = bands.first().copied();
    let mut total = 0u64;
    if eq_attrs.is_empty() {
        let all: Vec<usize> = (0..rel.n_rows()).collect();
        total += match band {
            None => {
                let n = rel.n_rows() as u64;
                n * n.saturating_sub(1) / 2
            }
            Some((attr, theta)) => band_count(rel.col(attr), &all, theta),
        };
    } else {
        for class in StrippedPartition::from_attrs(rel, eq_attrs).classes() {
            total += match band {
                None => {
                    let c = class.len() as u64;
                    c * (c - 1) / 2
                }
                Some((attr, theta)) => band_count(rel.col(attr), class, theta),
            };
        }
    }
    Some(total)
}

/// Count pairs among `rows` whose `col` values sit within an `AbsDiff` band
/// of width `theta` (mirroring `Metric::AbsDiff` semantics exactly).
/// Classifies each cell through its dictionary code — nulls via the
/// bitmap, string tallies by code — without materializing any `Value`.
fn band_count(col: &Column, rows: &[usize], theta: f64) -> u64 {
    if theta.is_nan() || theta < 0.0 {
        return 0;
    }
    let mut nulls = 0u64;
    let mut nums: Vec<f64> = Vec::new();
    let mut strs: HashMap<u32, u64> = HashMap::new();
    if let Some(packed) = col.packed_f64() {
        // All-numeric column: gather straight from the packed view (null
        // rows hold NaN there, so the bitmap check still gates them) —
        // no dictionary indirection, and `strs` stays empty by
        // construction.
        for &row in rows {
            if col.is_null(row) {
                nulls += 1;
                continue;
            }
            let x = packed[row];
            if x.is_finite() {
                nums.push(x);
            }
        }
    } else {
        for &row in rows {
            if col.is_null(row) {
                nulls += 1;
                continue;
            }
            let code = col.code(row);
            if let Some(x) = col.dict_value(code).as_f64() {
                if x.is_finite() {
                    nums.push(x);
                }
                // non-finite numerics match nothing, not even themselves
            } else {
                *strs.entry(code).or_insert(0) += 1;
            }
        }
    }
    let mut total = nulls * nulls.saturating_sub(1) / 2;
    for c in strs.into_values() {
        total += c * (c - 1) / 2;
    }
    nums.sort_unstable_by(f64::total_cmp);
    total + band_pairs_sorted(&nums, theta)
}

/// Count pairs `(j, h)` with `j < h` and `nums[h] − nums[j] ≤ θ` over an
/// ascending slice — the counting core of the `AbsDiff` band join.
///
/// The classic formulation is a serial two-pointer sweep whose inner
/// `while` advances one comparison at a time — fine while the low pointer
/// crawls, but every step is a dependent branch when it has to sprint
/// across a cluster gap. This kernel is that sweep with a *vectorized
/// sprint*: each `h` first advances at most eight scalar steps; if all
/// eight land, the pointer is mid-burst and switches to eight-lane blocks
/// where a branch-free compare-mask sum `Σ (nums[h] − nums[lo+i] > θ)`
/// counts the excluded lanes (autovectorizable std-only Rust). The slice
/// is ascending and f64 subtraction is weakly monotone, so exclusion is
/// prefix-closed within a block: a full count means the whole block is
/// out (leap it), a partial count means the band boundary sits inside
/// (fall back to scalar steps). Every comparison is the
/// same `nums[h] − nums[j] > θ` expression the scalar sweep evaluates
/// (never algebraically rearranged — f64 rounding is not associative), so
/// the count is exactly the scalar sweep's, in linear worst-case time.
///
/// Returns 0 for a NaN or negative `θ` (nothing matches, matching
/// [`PairSpec::Band`] semantics).
pub fn band_pairs_sorted(nums: &[f64], theta: f64) -> u64 {
    if theta.is_nan() || theta < 0.0 {
        return 0;
    }
    const LANES: usize = 8;
    let n = nums.len();
    let mut total = 0u64;
    let mut lo = 0usize;
    for h in 0..n {
        let t = nums[h];
        // `lo` can never pass `h`: `t − nums[h] = 0 ≤ θ` stops the scalar
        // loops, and the block loop only runs while `lo + LANES ≤ h`.
        // The first probe is kept branch-identical to the plain sweep so
        // a stationary pointer (the common case) pays nothing extra.
        if t - nums[lo] > theta {
            lo += 1;
            let mut steps = 1usize;
            while steps < LANES && t - nums[lo] > theta {
                lo += 1;
                steps += 1;
            }
            if steps == LANES {
                // Mid-burst: leap a whole block whenever all eight lanes
                // are excluded. Advancing by the fixed LANES (not by the
                // mask sum) keeps the loop-carried dependency a highly
                // predictable *branch* rather than data flowing into the
                // next block's address, so the loads stream speculatively
                // just like the scalar sweep's — with an eighth of the
                // iterations. Exclusions are prefix-closed, so a partial
                // block means the boundary is inside it; the scalar
                // residue below finds it.
                while lo + LANES <= h {
                    let mut c = 0u32;
                    for &v in &nums[lo..lo + LANES] {
                        c += u32::from(t - v > theta);
                    }
                    if c == LANES as u32 {
                        lo += LANES;
                    } else {
                        break;
                    }
                }
                while t - nums[lo] > theta {
                    lo += 1;
                }
            }
        }
        total += (h - lo) as u64;
    }
    total
}

/// The most selective single-attribute index for a conjunction of specs, or
/// the full scan when nothing is indexable.
///
/// The returned index generates a superset of the pairs satisfying the whole
/// conjunction (it is complete for one conjunct, and a conjunction only
/// shrinks the match set); candidates must still be verified against the
/// exact predicate unless the conjunction is a single exact atom.
pub fn best_index(rel: &Relation, specs: &[(AttrId, PairSpec)]) -> PairIndex {
    let mut best: Option<PairIndex> = None;
    for (attr, spec) in specs {
        if matches!(spec, PairSpec::All) {
            continue;
        }
        let idx = PairIndex::build_attr(rel, *attr, *spec);
        if !idx.is_indexed() {
            continue;
        }
        let better = best
            .as_ref()
            .is_none_or(|b| idx.n_candidates() < b.n_candidates());
        if better {
            best = Some(idx);
        }
    }
    best.unwrap_or_else(|| PairIndex::full_scan(rel.n_rows()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(spec: PairSpec, a: &Value, b: &Value) -> bool {
        // Reference semantics, mirroring Metric::dist for the spec's class.
        match (a.is_null(), b.is_null()) {
            (true, true) => {
                return match spec {
                    PairSpec::Eq => true,
                    PairSpec::Band(t) => t >= 0.0,
                    PairSpec::Edit(_) => true,
                    PairSpec::Empty => false,
                    PairSpec::All => true,
                }
            }
            (true, false) | (false, true) => return matches!(spec, PairSpec::All),
            _ => {}
        }
        match spec {
            PairSpec::Eq => a == b,
            PairSpec::Band(t) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x - y).abs() <= t,
                _ => a == b && t >= 0.0,
            },
            PairSpec::Edit(k) => {
                let (ra, rb) = (a.render().into_owned(), b.render().into_owned());
                lev(&ra, &rb) <= k
            }
            PairSpec::Empty => false,
            PairSpec::All => true,
        }
    }

    fn lev(a: &str, b: &str) -> usize {
        let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, ca) in a.iter().enumerate() {
            let mut cur = vec![i + 1];
            for (j, cb) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
            }
            prev = cur;
        }
        prev[b.len()]
    }

    fn check_complete(col: &[Value], spec: PairSpec) {
        let idx = PairIndex::build(col, spec);
        let mut cands = std::collections::BTreeSet::new();
        idx.for_each_candidate(|i, j| {
            assert!(i < j, "ordered pair");
            assert!(cands.insert((i, j)), "duplicate candidate ({i},{j})");
            true
        });
        assert_eq!(cands.len() as u64, idx.n_candidates());
        for i in 0..col.len() {
            for j in i + 1..col.len() {
                let m = matches(spec, &col[i], &col[j]);
                if m {
                    assert!(
                        cands.contains(&(i, j)),
                        "missing matching pair ({i},{j}) for {spec:?}: {:?} / {:?}",
                        col[i],
                        col[j]
                    );
                }
                if idx.is_exact() && cands.contains(&(i, j)) {
                    assert!(m, "exact index produced non-match ({i},{j}) for {spec:?}");
                }
            }
        }
    }

    fn sample_column() -> Vec<Value> {
        vec![
            Value::int(10),
            Value::float(10.0),
            Value::int(12),
            Value::int(25),
            Value::Null,
            Value::str("jones"),
            Value::str("jonse"),
            Value::str("smith"),
            Value::Null,
            Value::int(10),
            Value::float(f64::NAN),
            Value::float(f64::INFINITY),
            Value::str(""),
            Value::str("a"),
            Value::float(11.5),
        ]
    }

    #[test]
    fn eq_band_edit_complete_on_mixed_column() {
        let col = sample_column();
        for spec in [
            PairSpec::Eq,
            PairSpec::Band(0.0),
            PairSpec::Band(2.0),
            PairSpec::Band(100.0),
            PairSpec::Edit(0),
            PairSpec::Edit(1),
            PairSpec::Edit(2),
            PairSpec::Empty,
            PairSpec::Band(-1.0),
            PairSpec::All,
        ] {
            check_complete(&col, spec);
        }
    }

    #[test]
    fn band_links_are_exact() {
        let col: Vec<Value> = (0..40).map(|i| Value::int(i * 3)).collect();
        let idx = PairIndex::build(&col, PairSpec::Band(4.0));
        assert!(idx.is_exact() && idx.is_indexed());
        // each value is within 4 of exactly its neighbours at gap 3
        assert_eq!(idx.n_candidates(), 39);
    }

    #[test]
    fn full_scan_enumerates_all_pairs_in_order() {
        let idx = PairIndex::full_scan(2500);
        let mut count = 0u64;
        let mut prev = (0usize, 0usize);
        idx.for_each_candidate(|i, j| {
            assert!((i, j) > prev || count == 0);
            prev = (i, j);
            count += 1;
            true
        });
        assert_eq!(count, 2500 * 2499 / 2);
        assert_eq!(count, idx.n_candidates());
        let per_block: u64 = (0..idx.n_blocks()).map(|b| idx.block_pairs(b)).sum();
        assert_eq!(per_block, count);
    }

    #[test]
    fn early_stop_propagates() {
        let idx = PairIndex::full_scan(50);
        let mut seen = 0;
        let complete = idx.for_each_candidate(|_, _| {
            seen += 1;
            seen < 10
        });
        assert!(!complete);
        assert_eq!(seen, 10);
    }

    #[test]
    fn unselective_band_falls_back_to_full_scan() {
        // thousands of distinct values all within one huge band
        let col: Vec<Value> = (0..2000).map(Value::int).collect();
        let idx = PairIndex::build(&col, PairSpec::Band(1e12));
        assert!(!idx.is_indexed());
        assert_eq!(idx.n_candidates(), 2000 * 1999 / 2);
    }

    #[test]
    fn count_pairs_matches_brute_force() {
        use crate::{RelationBuilder, ValueType};
        let col_a = sample_column();
        let col_b: Vec<Value> = (0..col_a.len())
            .map(|i| {
                if i % 5 == 4 {
                    Value::Null
                } else {
                    Value::Str(format!("g{}", i % 3))
                }
            })
            .collect();
        let mut b = RelationBuilder::new()
            .attr("a", ValueType::Numeric)
            .attr("b", ValueType::Categorical);
        for i in 0..col_a.len() {
            b = b.row(vec![col_a[i].clone(), col_b[i].clone()]);
        }
        let r = b.build().expect("valid relation");
        let a0 = r.schema().attr_id("a").expect("a");
        let b0 = r.schema().attr_id("b").expect("b");
        let cases: Vec<Vec<(AttrId, PairSpec)>> = vec![
            vec![(a0, PairSpec::Eq)],
            vec![(b0, PairSpec::Eq)],
            vec![(a0, PairSpec::Band(2.0))],
            vec![(a0, PairSpec::Band(0.0))],
            vec![(a0, PairSpec::Eq), (b0, PairSpec::Eq)],
            vec![(b0, PairSpec::Eq), (a0, PairSpec::Band(5.0))],
            vec![(a0, PairSpec::Band(2.0)), (a0, PairSpec::Band(5.0))],
            vec![(a0, PairSpec::Eq), (a0, PairSpec::Band(1.0))],
            vec![(a0, PairSpec::Empty), (b0, PairSpec::Eq)],
            vec![],
        ];
        for specs in cases {
            let got = count_pairs(&r, &specs).expect("countable");
            let mut want = 0u64;
            for i in 0..r.n_rows() {
                for j in i + 1..r.n_rows() {
                    if specs
                        .iter()
                        .all(|(a, s)| matches(*s, r.value(i, *a), r.value(j, *a)))
                    {
                        want += 1;
                    }
                }
            }
            assert_eq!(got, want, "count mismatch for {specs:?}");
        }
        // non-countable shapes
        assert!(count_pairs(&r, &[(b0, PairSpec::Edit(1))]).is_none());
        assert!(count_pairs(&r, &[(a0, PairSpec::Band(1.0)), (b0, PairSpec::Band(1.0))]).is_none());
        assert!(count_pairs(&r, &[(a0, PairSpec::All)]).is_none());
    }

    #[test]
    fn best_index_prefers_most_selective() {
        use crate::{RelationBuilder, ValueType};
        let mut b = RelationBuilder::new()
            .attr("wide", ValueType::Categorical)
            .attr("narrow", ValueType::Categorical);
        for i in 0..100 {
            b = b.row(vec![
                Value::Str(format!("w{}", i % 2)),
                Value::Str(format!("n{i}")),
            ]);
        }
        let r = b.build().expect("valid relation");
        let wide = r.schema().attr_id("wide").expect("wide");
        let narrow = r.schema().attr_id("narrow").expect("narrow");
        let idx = best_index(&r, &[(wide, PairSpec::Eq), (narrow, PairSpec::Eq)]);
        assert_eq!(idx.n_candidates(), 0, "all-distinct attr blocks everything");
        let idx = best_index(&r, &[(wide, PairSpec::All)]);
        assert!(!idx.is_indexed(), "no indexable atom → full scan");
    }

    #[test]
    fn band_kernel_matches_scalar_sweep() {
        // Deterministic pseudo-random values, duplicates and clusters
        // included, across window shapes that hit the vector path, the
        // wide-window scalar fallback, and the tail loop.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut vals: Vec<f64> = (0..997)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 11) % 10_000) as f64 / 10.0
            })
            .collect();
        vals.sort_unstable_by(f64::total_cmp);
        for theta in [0.0, 0.1, 1.0, 25.0, 400.0, 1e6, -1.0, f64::NAN] {
            let want: u64 = if theta.is_nan() || theta < 0.0 {
                0
            } else {
                let mut t = 0u64;
                let mut lo = 0usize;
                for hi in 0..vals.len() {
                    while vals[hi] - vals[lo] > theta {
                        lo += 1;
                    }
                    t += (hi - lo) as u64;
                }
                t
            };
            assert_eq!(
                band_pairs_sorted(&vals, theta),
                want,
                "kernel diverged from scalar sweep at theta={theta}"
            );
        }
        for n in 0..20 {
            let tiny = &vals[..n];
            assert_eq!(band_pairs_sorted(tiny, 3.0), {
                let mut t = 0u64;
                for i in 0..n {
                    for j in i + 1..n {
                        if (tiny[j] - tiny[i]).abs() <= 3.0 {
                            t += 1;
                        }
                    }
                }
                t
            });
        }
    }

    #[test]
    fn distinct_gram_hits_count_repeated_strings() {
        use crate::{RelationBuilder, ValueType};
        let mut b = RelationBuilder::new().attr("s", ValueType::Categorical);
        for i in 0..40 {
            b = b.row(vec![Value::Str(format!("name-{}", i % 8))]);
        }
        let r = b.build().expect("valid relation");
        let s = r.schema().attr_id("s").expect("s");
        let idx = PairIndex::build_attr(&r, s, PairSpec::Edit(1));
        assert_eq!(idx.distinct_gram_hits(), 32, "40 rows over 8 distinct");
        let reference = PairIndex::build(r.column(s), PairSpec::Edit(1));
        assert_eq!(reference.distinct_gram_hits(), 0, "reference counts none");
        assert_eq!(idx.classes(), reference.classes());
        assert_eq!(idx.links(), reference.links());
    }

    #[test]
    fn from_partition_matches_eq_index() {
        use crate::{RelationBuilder, ValueType};
        let mut b = RelationBuilder::new().attr("g", ValueType::Categorical);
        for i in 0..30 {
            b = b.row(vec![Value::Str(format!("g{}", i % 4))]);
        }
        let r = b.build().expect("valid relation");
        let g = r.schema().attr_id("g").expect("g");
        let via_part = PairIndex::from_attrs(&r, crate::AttrSet::single(g));
        let via_build = PairIndex::build(r.column(g), PairSpec::Eq);
        assert_eq!(via_part.n_candidates(), via_build.n_candidates());
        let mut a = Vec::new();
        via_part.for_each_candidate(|i, j| {
            a.push((i, j));
            true
        });
        let mut bs = Vec::new();
        via_build.for_each_candidate(|i, j| {
            bs.push((i, j));
            true
        });
        a.sort_unstable();
        bs.sort_unstable();
        assert_eq!(a, bs);
    }
}
