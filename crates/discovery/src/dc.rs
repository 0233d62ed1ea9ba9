//! FASTDC (Chu et al.): denial-constraint discovery via predicate spaces,
//! evidence sets and minimal set covers (§4.3.4), plus the approximate
//! variant A-FASTDC.

use crate::cover::{minimal_hitting_sets, minimal_hitting_sets_bounded};
use deptree_core::engine::{pool, Exec, Outcome};
use deptree_core::{CmpOp, Dc, Operand, Predicate};
use deptree_relation::{AttrId, Relation, Value, ValueType};
use std::collections::HashMap;

/// Configuration for [`discover`].
#[derive(Debug, Clone)]
pub struct DcConfig {
    /// Maximum number of predicates per DC (small DCs are the useful
    /// ones; the space is exponential in this).
    pub max_predicates: usize,
    /// A-FASTDC: fraction of tuple pairs a DC may violate and still be
    /// reported (0 = exact FASTDC).
    pub approx_epsilon: f64,
}

impl Default for DcConfig {
    fn default() -> Self {
        DcConfig {
            max_predicates: 3,
            approx_epsilon: 0.0,
        }
    }
}

/// Build the two-tuple predicate space of FASTDC: for every attribute,
/// `tα.A op tβ.A` with `op ∈ {=, ≠}` for categorical/text attributes and
/// the full operator set for numeric ones.
pub fn predicate_space(r: &Relation) -> Vec<Predicate> {
    let mut preds = Vec::new();
    for (id, attr) in r.schema().iter() {
        let ops: &[CmpOp] = match attr.ty {
            ValueType::Numeric => &CmpOp::ALL,
            _ => &CmpOp::EQUALITY,
        };
        for &op in ops {
            preds.push(Predicate::across(id, op, id));
        }
    }
    preds
}

/// Statistics from a run.
#[derive(Debug, Clone, Default)]
pub struct FastDcStats {
    /// Size of the predicate space.
    pub n_predicates: usize,
    /// Distinct evidence sets.
    pub n_evidence_sets: usize,
    /// Ordered tuple pairs evaluated.
    pub pairs_evaluated: usize,
}

/// Compute the *evidence sets*: for each ordered tuple pair, the bitset of
/// predicates it satisfies. Returns distinct evidence sets with their
/// multiplicities.
pub fn evidence_sets(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
) -> HashMap<u64, usize> {
    evidence_sets_bounded(r, preds, stats, &Exec::unbounded()).0
}

/// Budgeted [`evidence_sets`]: each tuple pair costs one engine row tick.
/// Returns the evidence multiset plus a completeness flag; an incomplete
/// multiset under-constrains covers, so callers must validate candidate
/// DCs before emitting them.
pub fn evidence_sets_bounded(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
    exec: &Exec,
) -> (HashMap<u64, usize>, bool) {
    assert!(preds.len() <= 64, "predicate space capped at 64 bits");
    let mut evidence: HashMap<u64, usize> = HashMap::new();
    let mut complete = true;
    'scan: for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            if !exec.tick_rows(1) {
                complete = false;
                break 'scan;
            }
            stats.pairs_evaluated += 1;
            let mut bits = 0u64;
            for (k, p) in preds.iter().enumerate() {
                if p.eval(r, i, j) {
                    bits |= 1 << k;
                }
            }
            *evidence.entry(bits).or_default() += 1;
        }
    }
    stats.n_evidence_sets = evidence.len();
    (evidence, complete)
}

/// Mask-table slots: how a pair compares on one attribute.
const LT: usize = 0;
const EQ: usize = 1;
const GT: usize = 2;
const BOTH_NULL: usize = 3;
const ONE_NULL: usize = 4;
/// The slot of the reversed pair `(tβ, tα)`: `<` and `>` trade places.
const SWAPPED: [usize; 5] = [GT, EQ, LT, BOTH_NULL, ONE_NULL];
/// The rank standing in for a null cell.
const NULL_RANK: u32 = u32::MAX;

/// The mask-table slot of a pair whose cells have ranks `a` and `b`.
#[inline]
fn slot(a: u32, b: u32) -> usize {
    if a == NULL_RANK || b == NULL_RANK {
        if a == b {
            BOTH_NULL
        } else {
            ONE_NULL
        }
    } else {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => LT,
            std::cmp::Ordering::Equal => EQ,
            std::cmp::Ordering::Greater => GT,
        }
    }
}

/// The pair kernel of evidence construction and validation — the
/// bitwise-reuse idea of Pena & de Almeida's BFASTDC (§4.3.4) on
/// dictionary codes. The same-attribute predicates `tα.A op tβ.A` are
/// grouped by attribute; each group has one numeric rank per tuple
/// ([`deptree_relation::ColumnIndex::num_rank`], nulls mapped to
/// [`NULL_RANK`]) and a mask table holding, for each outcome slot, the
/// bits of the group's predicates that outcome satisfies. A pair's
/// evidence is then one table lookup per attribute. Any other predicate
/// falls back to [`Predicate::eval`].
struct PairKernel<'a> {
    r: &'a Relation,
    /// The row each tuple of the kernel stands for.
    rows: Vec<usize>,
    /// One mask table per same-attribute group.
    masks: Vec<[u64; 5]>,
    /// Tuple-major ranks: `ranks[t * masks.len() + g]`.
    ranks: Vec<u32>,
    /// Predicates outside the groups, with their bit.
    generic: Vec<(usize, &'a Predicate)>,
}

impl<'a> PairKernel<'a> {
    fn new(r: &'a Relation, preds: &'a [Predicate], rows: Vec<usize>) -> Self {
        // `CmpOp::eval` on one witness pair per slot fills the masks, so
        // the kernel inherits its null semantics exactly.
        let (lo, hi) = (Value::int(0), Value::int(1));
        let witnesses = [
            (&lo, &hi),                   // LT
            (&lo, &lo),                   // EQ
            (&hi, &lo),                   // GT
            (&Value::Null, &Value::Null), // BOTH_NULL
            (&lo, &Value::Null),          // ONE_NULL
        ];
        let mut attrs: Vec<AttrId> = Vec::new();
        let mut masks: Vec<[u64; 5]> = Vec::new();
        let mut generic = Vec::new();
        for (k, p) in preds.iter().enumerate() {
            let a = match (&p.left, &p.right) {
                (Operand::First(a), Operand::Second(b)) if a == b => *a,
                _ => {
                    generic.push((k, p));
                    continue;
                }
            };
            let g = attrs.iter().position(|&x| x == a).unwrap_or_else(|| {
                attrs.push(a);
                masks.push([0; 5]);
                attrs.len() - 1
            });
            for (mask, (x, y)) in masks[g].iter_mut().zip(witnesses) {
                *mask |= u64::from(p.op.eval(x, y)) << k;
            }
        }
        let cols: Vec<_> = attrs
            .iter()
            .map(|&a| (r.col(a), r.col(a).index()))
            .collect();
        let mut ranks = Vec::with_capacity(rows.len() * cols.len());
        for &row in &rows {
            ranks.extend(cols.iter().map(|(col, ix)| {
                if col.is_null(row) {
                    NULL_RANK
                } else {
                    ix.num_rank(col.code(row))
                }
            }));
        }
        PairKernel {
            r,
            rows,
            masks,
            ranks,
            generic,
        }
    }

    /// Number of tuples.
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Evidence of the tuple pair `(t, u)` and of its reverse `(u, t)`.
    #[inline]
    fn evidence(&self, t: usize, u: usize) -> (u64, u64) {
        let g = self.masks.len();
        let (rt, ru) = (&self.ranks[t * g..][..g], &self.ranks[u * g..][..g]);
        let (mut fwd, mut rev) = (0u64, 0u64);
        for ((mask, &a), &b) in self.masks.iter().zip(rt).zip(ru) {
            let s = slot(a, b);
            fwd |= mask[s];
            rev |= mask[SWAPPED[s]];
        }
        let (i, j) = (self.rows[t], self.rows[u]);
        for &(k, p) in &self.generic {
            fwd |= u64::from(p.eval(self.r, i, j)) << k;
            rev |= u64::from(p.eval(self.r, j, i)) << k;
        }
        (fwd, rev)
    }
}

/// The distinct-tuple classes of `r`, numbered in order of first row:
/// each class's first row and size. Classes are refined one attribute at
/// a time on `(class, code)` keys; code equality is value equality, so a
/// class holds exactly the rows with one value tuple.
fn tuple_classes(r: &Relation) -> (Vec<usize>, Vec<usize>) {
    let mut class = vec![0u32; r.n_rows()];
    let mut n_classes = usize::from(r.n_rows() > 0);
    for a in r.schema().ids() {
        let mut ids: HashMap<(u32, u32), u32> = HashMap::with_capacity(n_classes);
        for (c, &code) in class.iter_mut().zip(r.col(a).codes()) {
            let next = ids.len() as u32;
            *c = *ids.entry((*c, code)).or_insert(next);
        }
        n_classes = ids.len();
    }
    let mut firsts = Vec::with_capacity(n_classes);
    let mut sizes = vec![0usize; n_classes];
    for (row, &c) in class.iter().enumerate() {
        if c as usize == firsts.len() {
            firsts.push(row);
        }
        sizes[c as usize] += 1;
    }
    (firsts, sizes)
}

/// Blocked evidence-set construction: group rows into distinct-tuple
/// classes first, evaluate each unordered class pair once with the
/// rank/mask kernel (both orientations from one comparison per
/// attribute), and account each result with the class-product
/// multiplicity. An evidence bitset is a pure function of the two tuples'
/// values, so rows within a class are interchangeable and the multiset
/// equals [`evidence_sets`]'s exactly — in `O(d²·|A|)` for `d` distinct
/// tuples over `|A|` attributes instead of `O(n²·|P|)`. This is the
/// default path of [`discover_bounded`].
///
/// Budgeted like [`evidence_sets_bounded`]: every *represented* ordered
/// pair costs one engine row tick (`Σ = n(n−1)` when complete, matching
/// the naive scan). Ticks are charged block-by-block — one block per left
/// class, granted as a serial prefix so the grant is identical at any
/// thread count — then blocks are evaluated in parallel and merged in
/// class order. An incomplete multiset under-constrains covers, so
/// callers must validate candidate DCs before emitting them.
pub fn evidence_sets_blocked(
    r: &Relation,
    preds: &[Predicate],
    stats: &mut FastDcStats,
    exec: &Exec,
) -> (HashMap<u64, usize>, bool) {
    assert!(preds.len() <= 64, "predicate space capped at 64 bits");
    let mut span = exec.span("dc.evidence");
    let (firsts, sizes) = tuple_classes(r);
    // Serial prefix grant: block b covers the intra pairs of class b plus
    // both orientations against every later class.
    let mut later = sizes.iter().sum::<usize>();
    let mut granted = 0usize;
    let mut complete = true;
    for &s1 in &sizes {
        later -= s1;
        let cost = s1 * (s1 - 1) + 2 * s1 * later;
        if !exec.tick_rows(cost as u64) {
            complete = false;
            break;
        }
        granted += 1;
    }
    let kernel = PairKernel::new(r, preds, firsts);
    let blocks: Vec<usize> = (0..granted).collect();
    let results = pool::map(exec.threads(), &blocks, |_, &b| {
        if exec.interrupted() {
            return None;
        }
        let s1 = sizes[b];
        let mut out: Vec<(u64, usize)> = Vec::with_capacity(2 * (sizes.len() - b));
        if s1 > 1 {
            // All intra-class ordered pairs relate identical tuples and
            // share one evidence set.
            out.push((kernel.evidence(b, b).0, s1 * (s1 - 1)));
        }
        for (c, &s2) in sizes.iter().enumerate().skip(b + 1) {
            let (fwd, rev) = kernel.evidence(b, c);
            out.push((fwd, s1 * s2));
            out.push((rev, s1 * s2));
        }
        // Keep only one entry per distinct evidence set until the merge.
        out.sort_unstable_by_key(|&(bits, _)| bits);
        out.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        out.shrink_to_fit();
        Some(out)
    });
    let mut evidence: HashMap<u64, usize> = HashMap::new();
    for block in results {
        let Some(entries) = block else {
            // Deadline/cancel hit mid-batch; everything merged so far came
            // from fully evaluated blocks, so it stays.
            complete = false;
            break;
        };
        for (bits, mult) in entries {
            stats.pairs_evaluated += mult;
            *evidence.entry(bits).or_default() += mult;
        }
    }
    stats.n_evidence_sets = evidence.len();
    span.attr("blocks", granted as u64);
    span.attr("evidence_sets", evidence.len() as u64);
    (evidence, complete)
}

/// The result of a FASTDC run.
#[derive(Debug)]
pub struct FastDcResult {
    /// Minimal valid DCs.
    pub dcs: Vec<Dc>,
    /// Run statistics.
    pub stats: FastDcStats,
}

/// Run FASTDC: a predicate set `P` forms a valid DC `¬(⋀ P)` iff no
/// evidence set contains all of `P` — equivalently, `P` hits the
/// *complement* of every evidence set. Minimal valid DCs are therefore
/// minimal hitting sets of the complemented evidence sets.
///
/// With `approx_epsilon > 0` (A-FASTDC), evidence sets whose total
/// multiplicity is within an `ε` fraction of all pairs may be left uncovered.
pub fn discover(r: &Relation, cfg: &DcConfig) -> FastDcResult {
    discover_bounded(r, cfg, &Exec::unbounded()).result
}

/// Run FASTDC under `exec`'s budget.
///
/// Anytime contract: when the evidence scan was cut short, candidate DCs
/// are validated pair-by-pair (itself budgeted) before being emitted, so
/// a partial result contains only DCs that hold exactly on `r`; the
/// A-FASTDC approximate mode degrades to exact validation in that case.
/// Completeness and minimality are forfeit on exhaustion.
pub fn discover_bounded(r: &Relation, cfg: &DcConfig, exec: &Exec) -> Outcome<FastDcResult> {
    let preds = predicate_space(r);
    let mut stats = FastDcStats {
        n_predicates: preds.len(),
        ..Default::default()
    };
    let (evidence, evidence_complete) = evidence_sets_blocked(r, &preds, &mut stats, exec);
    let full = full_mask(preds.len());

    // A-FASTDC: drop the least-frequent evidence sets up to the ε budget.
    let total_pairs: usize = evidence.values().sum();
    let budget = (cfg.approx_epsilon * total_pairs as f64).floor() as usize;
    let mut sets: Vec<(u64, usize)> = evidence.into_iter().collect();
    // Tie-break equal counts by bits: the ε-drop filter below keeps a
    // prefix of this order, so hash-order ties would make A-FASTDC drop
    // a different evidence set on every run.
    sets.sort_by_key(|&(bits, count)| (count, bits));
    let mut dropped = 0usize;
    let complements: Vec<u64> = sets
        .iter()
        .filter(|&&(_, count)| {
            if dropped + count <= budget {
                dropped += count;
                false
            } else {
                true
            }
        })
        .map(|&(bits, _)| full & !bits)
        .collect();

    let mut span = exec.span("dc.covers");
    let (covers, _) = minimal_hitting_sets_bounded(&complements, preds.len(), exec);
    span.attr("complements", complements.len() as u64);
    span.attr("covers", covers.len() as u64);
    drop(span);
    // With a truncated evidence scan every cover is only a candidate,
    // validated on all row pairs before it is emitted.
    let validator =
        (!evidence_complete).then(|| PairKernel::new(r, &preds, (0..r.n_rows()).collect()));
    let mut dcs = Vec::new();
    for cover in covers {
        if cover.count_ones() as usize > cfg.max_predicates || cover == 0 {
            continue;
        }
        let chosen: Vec<Predicate> = (0..preds.len())
            .filter(|&k| cover & (1 << k) != 0)
            .map(|k| preds[k].clone())
            .collect();
        // Skip trivially unsatisfiable conjunctions (e.g. tα.A = tβ.A ∧
        // tα.A ≠ tβ.A): they are valid DCs but vacuous.
        if is_contradictory(&chosen) {
            continue;
        }
        if let Some(kernel) = &validator {
            if !matches!(validate_bounded(kernel, cover, exec), Some(true)) {
                continue;
            }
        }
        dcs.push(Dc::new(r.schema(), chosen));
    }
    exec.finish(FastDcResult { dcs, stats })
}

/// Does the DC whose predicates are the bits of `cover` hold on every
/// ordered pair of `kernel`'s rows? A pair violates it exactly when its
/// evidence contains `cover`. One engine row tick per pair; `None` when
/// the budget died before the scan finished.
fn validate_bounded(kernel: &PairKernel<'_>, cover: u64, exec: &Exec) -> Option<bool> {
    for i in 0..kernel.len() {
        for j in 0..kernel.len() {
            if i == j {
                continue;
            }
            if !exec.tick_rows(1) {
                return None;
            }
            if kernel.evidence(i, j).0 & cover == cover {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// All bits of an `n`-predicate space.
fn full_mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Hydra-style discovery (Bleifuß et al., §4.3.4): avoid building the
/// complete evidence multiset up front. Phase 1 computes evidence only for
/// a deterministic sample of tuple pairs and derives *preliminary* DCs;
/// phase 2 scans for pairs violating any preliminary DC, feeds their
/// evidence back, and repeats until no candidate is violated.
///
/// At the fixpoint the output equals exact FASTDC's (tested): a candidate
/// surviving validation hits every evidence-set complement, and any
/// globally-minimal DC must be minimal for the collected subfamily too.
/// The win is that the expensive minimal-cover search runs on far fewer
/// distinct evidence sets when the data is regular.
pub fn discover_hydra(r: &Relation, cfg: &DcConfig, sample_stride: usize) -> FastDcResult {
    assert!(sample_stride >= 1, "stride must be positive");
    let preds = predicate_space(r);
    let mut stats = FastDcStats {
        n_predicates: preds.len(),
        ..Default::default()
    };
    let full = full_mask(preds.len());
    let kernel = PairKernel::new(r, &preds, (0..r.n_rows()).collect());
    let pair_bits = |i: usize, j: usize, stats: &mut FastDcStats| -> u64 {
        stats.pairs_evaluated += 1;
        kernel.evidence(i, j).0
    };

    // Phase 1: sampled evidence.
    let mut family: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut counter = 0usize;
    for i in 0..r.n_rows() {
        for j in 0..r.n_rows() {
            if i == j {
                continue;
            }
            counter += 1;
            if counter.is_multiple_of(sample_stride) {
                family.insert(pair_bits(i, j, &mut stats));
            }
        }
    }

    // Phase 2: iterate candidate generation + validation.
    let mut covers: Vec<u64>;
    loop {
        let complements: Vec<u64> = family.iter().map(|&bits| full & !bits).collect();
        covers = minimal_hitting_sets(&complements, preds.len());
        // Validate every candidate against every pair; collect evidence of
        // violating pairs.
        let mut grew = false;
        for i in 0..r.n_rows() {
            for j in 0..r.n_rows() {
                if i == j {
                    continue;
                }
                let bits = pair_bits(i, j, &mut stats);
                if covers.iter().any(|&c| c & !bits == 0) && family.insert(bits) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    stats.n_evidence_sets = family.len();

    let mut dcs = Vec::new();
    for cover in covers {
        if cover == 0 || cover.count_ones() as usize > cfg.max_predicates {
            continue;
        }
        let chosen: Vec<Predicate> = (0..preds.len())
            .filter(|&k| cover & (1 << k) != 0)
            .map(|k| preds[k].clone())
            .collect();
        if is_contradictory(&chosen) {
            continue;
        }
        dcs.push(Dc::new(r.schema(), chosen));
    }
    FastDcResult { dcs, stats }
}

/// Is the conjunction unsatisfiable for symmetric same-attribute
/// predicates (the only kind [`predicate_space`] builds)?
fn is_contradictory(preds: &[Predicate]) -> bool {
    let mut by_attr: HashMap<AttrId, Vec<CmpOp>> = HashMap::new();
    for p in preds {
        if let (Operand::First(a), Operand::Second(b)) = (&p.left, &p.right) {
            if a == b {
                by_attr.entry(*a).or_default().push(p.op);
            }
        }
    }
    for ops in by_attr.values() {
        // A pair's comparison outcome on one attribute is <, = or >.
        // The conjunction is satisfiable iff some outcome satisfies all ops.
        let satisfiable = ["lt", "eq", "gt"].iter().any(|&o| {
            ops.iter().all(|op| {
                matches!(
                    (o, op),
                    ("lt", CmpOp::Lt | CmpOp::Leq | CmpOp::Neq)
                        | ("eq", CmpOp::Eq | CmpOp::Leq | CmpOp::Geq)
                        | ("gt", CmpOp::Gt | CmpOp::Geq | CmpOp::Neq)
                )
            })
        });
        if !satisfiable {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use deptree_core::Dependency;
    use deptree_relation::examples::hotels_r7;
    use deptree_relation::RelationBuilder;

    #[test]
    fn predicate_space_shape() {
        let r = hotels_r7();
        let preds = predicate_space(&r);
        // 4 numeric attributes × 6 operators.
        assert_eq!(preds.len(), 24);
    }

    #[test]
    fn all_discovered_dcs_hold() {
        let r = hotels_r7();
        let result = discover(&r, &DcConfig::default());
        assert!(!result.dcs.is_empty());
        for dc in &result.dcs {
            assert!(dc.holds(&r), "{dc}");
        }
    }

    #[test]
    fn finds_the_papers_dc1_shape() {
        // dc1: ¬(tα.subtotal < tβ.subtotal ∧ tα.taxes > tβ.taxes) holds on
        // r7 and involves 2 predicates: FASTDC must find it (or a DC
        // implying it, but with max_predicates 2 the exact one appears).
        let r = hotels_r7();
        let s = r.schema();
        let result = discover(
            &r,
            &DcConfig {
                max_predicates: 2,
                approx_epsilon: 0.0,
            },
        );
        let target = Dc::new(
            s,
            vec![
                Predicate::across(s.id("subtotal"), CmpOp::Lt, s.id("subtotal")),
                Predicate::across(s.id("taxes"), CmpOp::Gt, s.id("taxes")),
            ],
        );
        assert!(
            result
                .dcs
                .iter()
                .any(|dc| dc.to_string() == target.to_string()),
            "{:?}",
            result.dcs.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minimality_no_dc_contains_another() {
        let r = hotels_r7();
        let result = discover(&r, &DcConfig::default());
        for a in &result.dcs {
            for b in &result.dcs {
                if a.to_string() == b.to_string() {
                    continue;
                }
                let a_in_b = a
                    .predicates()
                    .iter()
                    .all(|p| b.predicates().iter().any(|q| q == p));
                assert!(!a_in_b, "{a} subsumes {b}");
            }
        }
    }

    #[test]
    fn approximate_mode_tolerates_outliers() {
        // A relation satisfying "a < b ⇒ c < d" except for one outlier
        // pair; exact FASTDC loses the 2-predicate DC, A-FASTDC keeps it.
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Numeric)
            .attr("y", ValueType::Numeric);
        for i in 0..20 {
            b = b.row(vec![i.into(), (i * 10).into()]);
        }
        b = b.row(vec![100.into(), 0.into()]); // outlier breaks monotonicity
        let r = b.build().unwrap();
        let s = r.schema();
        let target = Dc::new(
            s,
            vec![
                Predicate::across(s.id("x"), CmpOp::Lt, s.id("x")),
                Predicate::across(s.id("y"), CmpOp::Geq, s.id("y")),
            ],
        );
        assert!(!target.holds(&r));
        let exact = discover(
            &r,
            &DcConfig {
                max_predicates: 2,
                approx_epsilon: 0.0,
            },
        );
        assert!(!exact
            .dcs
            .iter()
            .any(|dc| dc.to_string() == target.to_string()));
        let approx = discover(
            &r,
            &DcConfig {
                max_predicates: 2,
                approx_epsilon: 0.15,
            },
        );
        assert!(
            approx
                .dcs
                .iter()
                .any(|dc| dc.to_string() == target.to_string()),
            "{:?}",
            approx.dcs.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn contradiction_filter() {
        let r = hotels_r7();
        let s = r.schema();
        let contradictory = vec![
            Predicate::across(s.id("taxes"), CmpOp::Eq, s.id("taxes")),
            Predicate::across(s.id("taxes"), CmpOp::Neq, s.id("taxes")),
        ];
        assert!(is_contradictory(&contradictory));
        let fine = vec![
            Predicate::across(s.id("taxes"), CmpOp::Leq, s.id("taxes")),
            Predicate::across(s.id("taxes"), CmpOp::Neq, s.id("taxes")),
        ];
        assert!(!is_contradictory(&fine));
    }

    #[test]
    fn blocked_evidence_equals_naive() {
        use deptree_synth::{categorical, CategoricalConfig};
        // Small-domain synthetics have many duplicate tuples, exercising
        // the multiplicity accounting; a duplicated-row instance makes the
        // intra-class branch explicit.
        let cfg = CategoricalConfig {
            n_rows: 40,
            n_key_attrs: 2,
            n_dep_attrs: 1,
            domain: 3,
            error_rate: 0.1,
            seed: 9,
        };
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Numeric)
            .attr("y", ValueType::Numeric);
        for i in 0..12 {
            b = b.row(vec![(i % 3).into(), (i % 2).into()]);
        }
        let relations = [
            hotels_r7(),
            categorical::generate(&cfg, &mut deptree_synth::rng(cfg.seed)).relation,
            b.build().unwrap(),
        ];
        for r in relations {
            let preds = predicate_space(&r);
            let mut s1 = FastDcStats::default();
            let mut s2 = FastDcStats::default();
            let naive = evidence_sets(&r, &preds, &mut s1);
            let (blocked, complete) =
                evidence_sets_blocked(&r, &preds, &mut s2, &Exec::unbounded());
            assert!(complete);
            assert_eq!(naive, blocked);
            assert_eq!(s1.pairs_evaluated, s2.pairs_evaluated);
        }
    }

    #[test]
    fn kernel_validation_agrees_with_holds() {
        // Every DC of one or two predicates, on the paper instance and on
        // a table with nulls, NaN and Int/Float ties: the kernel's pair
        // scan decides it exactly as `Dc::holds` does.
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Numeric)
            .attr("c", ValueType::Categorical);
        let xs = [
            Value::int(2),
            Value::float(2.0),
            Value::Null,
            Value::float(f64::NAN),
            Value::int(-1),
            Value::Null,
        ];
        for (i, x) in xs.iter().enumerate() {
            let c = if i % 3 == 0 {
                Value::Null
            } else {
                Value::str(if i % 2 == 0 { "a" } else { "b" })
            };
            b = b.row(vec![x.clone(), c]);
        }
        for r in [hotels_r7(), b.build().unwrap()] {
            let preds = predicate_space(&r);
            let kernel = PairKernel::new(&r, &preds, (0..r.n_rows()).collect());
            for k1 in 0..preds.len() {
                for k2 in k1..preds.len() {
                    let cover = (1u64 << k1) | (1u64 << k2);
                    let chosen: Vec<Predicate> = (0..preds.len())
                        .filter(|&k| cover & (1 << k) != 0)
                        .map(|k| preds[k].clone())
                        .collect();
                    let dc = Dc::new(r.schema(), chosen);
                    assert_eq!(
                        validate_bounded(&kernel, cover, &Exec::unbounded()),
                        Some(dc.holds(&r)),
                        "{dc}"
                    );
                }
            }
        }
    }

    #[test]
    fn hydra_matches_exact_fastdc() {
        let mut b = RelationBuilder::new()
            .attr("x", ValueType::Numeric)
            .attr("y", ValueType::Numeric);
        for i in 0..15 {
            b = b.row(vec![i.into(), ((i * 7) % 11).into()]);
        }
        let r = b.build().unwrap();
        let cfg = DcConfig {
            max_predicates: 2,
            approx_epsilon: 0.0,
        };
        let exact = discover(&r, &cfg);
        for stride in [1usize, 3, 10, 50] {
            let hydra = discover_hydra(&r, &cfg, stride);
            let e: std::collections::BTreeSet<String> =
                exact.dcs.iter().map(|d| d.to_string()).collect();
            let h: std::collections::BTreeSet<String> =
                hydra.dcs.iter().map(|d| d.to_string()).collect();
            assert_eq!(e, h, "stride {stride}");
        }
        // And on the paper instance.
        let r7 = hotels_r7();
        let exact7 = discover(&r7, &cfg);
        let hydra7 = discover_hydra(&r7, &cfg, 4);
        let e: std::collections::BTreeSet<String> =
            exact7.dcs.iter().map(|d| d.to_string()).collect();
        let h: std::collections::BTreeSet<String> =
            hydra7.dcs.iter().map(|d| d.to_string()).collect();
        assert_eq!(e, h);
    }

    #[test]
    fn stats_populated() {
        let r = hotels_r7();
        let result = discover(&r, &DcConfig::default());
        assert_eq!(result.stats.n_predicates, 24);
        assert_eq!(result.stats.pairs_evaluated, 12); // 4×3 ordered pairs
        assert!(result.stats.n_evidence_sets >= 1);
    }
}
