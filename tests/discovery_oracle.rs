//! Differential oracle for FD/AFD discovery.
//!
//! A brute-force oracle enumerates *every* candidate `X → A` with
//! `|X| ≤ 3` and decides it directly from stripped partitions — no
//! lattice pruning, no candidate propagation, nothing shared with the
//! miners under test. TANE and FastFD must reproduce the oracle's minimal
//! cover exactly, serially and at every thread count, on the paper's
//! built-in tables and on seeded synthetic relations.

mod common;

use deptree::core::engine::{Budget, Exec};
use deptree::core::{Dependency, Direction, Fd, Ned, NedAtom, Od};
use deptree::discovery::{dc, dd, fastfd, md, ned, od, tane};
use deptree::metrics::Metric;
use deptree::relation::examples::{hotels_r1, hotels_r5, hotels_r6, hotels_r7};
use deptree::relation::{
    AttrId, AttrSet, Relation, RelationBuilder, StrippedPartition, Value, ValueType,
};
use deptree::synth::{categorical, entities, CategoricalConfig, EntitiesConfig};

const MAX_LHS: usize = 3;

/// All attribute subsets of size ≤ `max`, smallest first.
fn subsets(all: AttrSet, max: usize) -> Vec<AttrSet> {
    let attrs = all.to_vec();
    let mut out: Vec<AttrSet> = (0..1u64 << attrs.len())
        .map(|mask| {
            attrs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &a)| a)
                .collect()
        })
        .filter(|s: &AttrSet| s.len() <= max)
        .collect();
    out.sort_by_key(|s| (s.len(), *s));
    out
}

/// Brute-force minimal dependencies with `g3 ≤ max_error` and `|X| ≤ 3`,
/// rendered in the miners' display form for comparison. The decision for
/// each candidate comes straight from `g3` over materialized partitions
/// (`g3 = 0` ⟺ the FD holds exactly); minimality re-tests every proper
/// subset the same way. `X = ∅` is included — an empty LHS determines
/// exactly the constant columns.
fn oracle(r: &Relation, max_error: f64) -> Vec<String> {
    let all = r.all_attrs();
    let sets = subsets(all, MAX_LHS);
    let parts: Vec<(AttrSet, StrippedPartition)> = sets
        .iter()
        .map(|&s| (s, StrippedPartition::from_attrs(r, s)))
        .collect();
    let holds = |lhs: AttrSet, rhs: AttrSet| -> bool {
        let px = parts
            .iter()
            .find(|(s, _)| *s == lhs)
            .map(|(_, p)| p)
            .expect("subset enumerated");
        let pa = StrippedPartition::from_attrs(r, rhs);
        px.g3_error(&pa) <= max_error
    };
    let mut out = Vec::new();
    for &lhs in &sets {
        for a in all.difference(lhs).iter() {
            let rhs = AttrSet::single(a);
            if !holds(lhs, rhs) {
                continue;
            }
            let minimal = lhs.iter().all(|b| !holds(lhs.remove(b), rhs));
            if minimal {
                out.push(Fd::new(r.schema(), lhs, rhs).to_string());
            }
        }
    }
    out.sort();
    out
}

fn tane_fds(r: &Relation, max_error: f64, threads: usize) -> Vec<String> {
    let cfg = tane::TaneConfig {
        max_lhs: MAX_LHS,
        max_error,
    };
    let out = tane::discover_bounded(r, &cfg, &Exec::unbounded().with_threads(threads));
    assert!(out.complete, "unbounded run must complete");
    let mut v: Vec<String> = out.result.fds.iter().map(|f| f.to_string()).collect();
    v.sort();
    v
}

fn fastfd_fds(r: &Relation, threads: usize) -> Vec<String> {
    let out = fastfd::discover_bounded(r, &Exec::unbounded().with_threads(threads));
    assert!(out.complete, "unbounded run must complete");
    let mut v: Vec<String> = out
        .result
        .fds
        .iter()
        .filter(|f| f.lhs().len() <= MAX_LHS)
        .map(|f| f.to_string())
        .collect();
    v.sort();
    v
}

fn check_exact(r: &Relation, label: &str) {
    let want = oracle(r, 0.0);
    for threads in [1, 8] {
        assert_eq!(
            tane_fds(r, 0.0, threads),
            want,
            "{label}: TANE vs oracle at {threads} thread(s)"
        );
        assert_eq!(
            fastfd_fds(r, threads),
            want,
            "{label}: FastFD vs oracle at {threads} thread(s)"
        );
    }
}

fn synthetic(seed: u64, n_rows: usize, error_rate: f64) -> Relation {
    let cfg = CategoricalConfig {
        n_rows,
        n_key_attrs: 2,
        n_dep_attrs: 3,
        domain: 6,
        error_rate,
        seed,
    };
    categorical::generate(&cfg, &mut deptree::synth::rng(seed)).relation
}

#[test]
fn oracle_agrees_on_paper_tables() {
    for (label, r) in [
        ("r1", hotels_r1()),
        ("r5", hotels_r5()),
        ("r6", hotels_r6()),
        ("r7", hotels_r7()),
    ] {
        check_exact(&r, label);
    }
}

#[test]
fn oracle_agrees_on_seeded_synthetics() {
    for (i, &(seed, rows, err)) in [
        (11u64, 60usize, 0.0f64),
        (23, 90, 0.05),
        (37, 120, 0.0),
        (59, 150, 0.1),
    ]
    .iter()
    .enumerate()
    {
        let r = synthetic(seed, rows, err);
        check_exact(&r, &format!("synthetic #{i} (seed {seed})"));
    }
}

#[test]
fn oracle_agrees_on_random_small_relations() {
    let mut rng = deptree::synth::rng(0xD1FF);
    for case in 0..32 {
        let r = common::small_relation(&mut rng);
        if r.n_rows() == 0 {
            continue;
        }
        check_exact(&r, &format!("small case {case}"));
    }
}

#[test]
fn afd_oracle_agrees_with_approximate_tane() {
    // AFDs: g3 ≤ ε, still minimal-LHS. FastFD has no approximate mode, so
    // only TANE is differential here.
    for (label, r, eps) in [
        ("r1 ε=0.2", hotels_r1(), 0.2),
        ("r5 ε=0.25", hotels_r5(), 0.25),
        ("r6 ε=0.1", hotels_r6(), 0.1),
        ("synthetic ε=0.05", synthetic(101, 200, 0.02), 0.05),
    ] {
        let want = oracle(&r, eps);
        for threads in [1, 8] {
            assert_eq!(
                tane_fds(&r, eps, threads),
                want,
                "{label}: approximate TANE vs oracle at {threads} thread(s)"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pairwise differential oracles (MD/DD/NED/OD/DC): the blocking/index-based
// candidate generation must reproduce the frozen naive `row_pairs()` paths
// exactly — on the paper's tables and seeded synthetics, at every thread
// count, and soundly (verified results only) under tight budgets.
// ---------------------------------------------------------------------------

const PAIR_THREADS: [usize; 3] = [1, 2, 8];

fn entities_relation(seed: u64, n_entities: usize) -> Relation {
    let cfg = EntitiesConfig {
        n_entities,
        max_duplicates: 3,
        variety: 0.5,
        error_rate: 0.05,
        seed,
    };
    entities::generate(&cfg, &mut deptree::synth::rng(seed)).relation
}

/// Render discovered MDs with bit-exact scores for comparison.
fn render_scored_mds(v: &[md::ScoredMd]) -> Vec<String> {
    v.iter()
        .map(|s| {
            format!(
                "{} s={:016x} c={:016x}",
                s.md,
                s.support.to_bits(),
                s.confidence.to_bits()
            )
        })
        .collect()
}

#[test]
fn md_indexed_discovery_matches_naive_oracle() {
    // Text attributes exercise the q-gram edit-distance index, numeric ones
    // the band join, categorical ones equality blocking and (via thresholds
    // that reach 1.0 on Equality) the conservative full-scan fallback.
    let cases = [
        ("r1", hotels_r1(), "region"),
        ("r6", hotels_r6(), "region"),
        ("entities", entities_relation(41, 40), "name"),
        ("categorical", synthetic(43, 60, 0.05), "D0"),
    ];
    let cfg = md::MdConfig {
        min_support: 0.0,
        min_confidence: 0.5,
        thresholds_per_attr: 2,
        max_lhs: 2,
    };
    for (label, r, rhs_name) in cases {
        let rhs = AttrSet::single(r.schema().id(rhs_name));
        let want = render_scored_mds(&md::discover_naive(&r, rhs, &cfg));
        for threads in PAIR_THREADS {
            let out = md::discover_bounded(&r, rhs, &cfg, &Exec::unbounded().with_threads(threads));
            assert!(out.complete, "{label}: unbounded run must complete");
            assert_eq!(
                render_scored_mds(&out.result),
                want,
                "{label}: indexed MD discovery vs naive at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn md_partial_results_sound_under_budget() {
    let r = entities_relation(77, 50);
    let rhs = AttrSet::single(r.schema().id("name"));
    let cfg = md::MdConfig {
        min_support: 0.0,
        min_confidence: 0.5,
        thresholds_per_attr: 2,
        max_lhs: 2,
    };
    for budget in [
        Budget::new().with_max_rows(200),
        Budget::new().with_max_rows(5_000),
        Budget::new().with_max_nodes(3),
    ] {
        for threads in PAIR_THREADS {
            let exec = Exec::new(budget.clone()).with_threads(threads);
            let out = md::discover_bounded(&r, rhs, &cfg, &exec);
            // Whatever survives the budget must carry exact naive scores and
            // meet both bars — never a half-scanned estimate.
            for s in &out.result {
                let (sup, conf) = s.md.support_confidence_naive(&r);
                assert_eq!(sup.to_bits(), s.support.to_bits(), "{}", s.md);
                assert_eq!(conf.to_bits(), s.confidence.to_bits(), "{}", s.md);
                assert!(conf >= cfg.min_confidence, "{}", s.md);
            }
        }
    }
}

#[test]
fn dd_indexed_discovery_matches_naive_oracle() {
    let cases = [
        ("r6", hotels_r6()),
        ("entities", entities_relation(53, 35)),
        ("categorical", synthetic(61, 50, 0.05)),
    ];
    let cfg = dd::DdConfig {
        thresholds_per_attr: 3,
        min_support: 2,
        max_lhs: 1,
    };
    for (label, r) in cases {
        let want: Vec<String> = dd::discover_naive(&r, &cfg)
            .iter()
            .map(|d| d.to_string())
            .collect();
        for threads in PAIR_THREADS {
            let out = dd::discover_bounded(&r, &cfg, &Exec::unbounded().with_threads(threads));
            assert!(out.complete, "{label}: unbounded run must complete");
            let got: Vec<String> = out.result.iter().map(|d| d.to_string()).collect();
            assert_eq!(
                got, want,
                "{label}: indexed DD discovery vs naive at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn dd_partial_results_sound_under_budget() {
    let r = entities_relation(67, 45);
    let cfg = dd::DdConfig {
        thresholds_per_attr: 3,
        min_support: 2,
        max_lhs: 1,
    };
    for budget in [
        Budget::new().with_max_rows(300),
        Budget::new().with_max_nodes(4),
    ] {
        for threads in PAIR_THREADS {
            let exec = Exec::new(budget.clone()).with_threads(threads);
            let out = dd::discover_bounded(&r, &cfg, &exec);
            for d in &out.result {
                let (sup, conf) = d.support_confidence_naive(&r);
                // Emitted DDs are fully verified: the RHS threshold is the
                // exact max over LHS-compatible pairs, so confidence is 1.
                assert!(sup >= cfg.min_support, "{d}");
                assert_eq!(conf.to_bits(), 1.0f64.to_bits(), "{d}");
            }
        }
    }
}

#[test]
fn ned_indexed_scoring_matches_naive_on_paper_tables() {
    // Every single-atom NED over data-driven thresholds: the counting /
    // index-backed scorer must agree bit-for-bit with the pair scan.
    for (label, r) in [("r1", hotels_r1()), ("r6", hotels_r6())] {
        let s = r.schema();
        let attrs: Vec<_> = s.ids().collect();
        for &a in &attrs {
            for &b in &attrs {
                if a == b {
                    continue;
                }
                let ma = Metric::default_for(s.ty(a));
                let mb = Metric::default_for(s.ty(b));
                for ta in dd::candidate_thresholds(&r, a, &ma, 3) {
                    for tb in dd::candidate_thresholds(&r, b, &mb, 2) {
                        let ned = Ned::new(
                            s,
                            vec![NedAtom::new(a, ma.clone(), ta)],
                            vec![NedAtom::new(b, mb.clone(), tb)],
                        );
                        let fast = ned.support_confidence(&r);
                        let slow = ned.support_confidence_naive(&r);
                        assert_eq!(fast.0, slow.0, "{label}: support of {ned}");
                        assert_eq!(
                            fast.1.to_bits(),
                            slow.1.to_bits(),
                            "{label}: confidence of {ned}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn ned_discovery_deterministic_across_threads() {
    let r = entities_relation(59, 40);
    let s = r.schema();
    let name = s.id("name");
    let rhs = vec![NedAtom::new(name, Metric::default_for(s.ty(name)), 2.0)];
    let cfg = ned::NedConfig::default();
    let render = |n: &Option<Ned>| n.as_ref().map(|n| n.to_string());
    let base =
        ned::discover_lhs_bounded(&r, rhs.clone(), &cfg, &Exec::unbounded().with_threads(1)).result;
    for threads in [2, 8] {
        let got = ned::discover_lhs_bounded(
            &r,
            rhs.clone(),
            &cfg,
            &Exec::unbounded().with_threads(threads),
        )
        .result;
        assert_eq!(render(&got), render(&base), "NED at {threads} thread(s)");
    }
    if let Some(n) = &base {
        let fast = n.support_confidence(&r);
        let slow = n.support_confidence_naive(&r);
        assert_eq!(fast.0, slow.0);
        assert_eq!(fast.1.to_bits(), slow.1.to_bits());
    }
}

#[test]
fn od_sorted_validation_matches_naive_pair_scan() {
    let mut cases = vec![("r7".to_string(), hotels_r7())];
    let mut rng = deptree::synth::rng(0x0D0D);
    for case in 0..24 {
        cases.push((
            format!("numeric case {case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for (label, r) in &cases {
        let s = r.schema();
        let attrs: Vec<_> = s.ids().collect();
        for &a in &attrs {
            for &b in &attrs {
                if a == b {
                    continue;
                }
                for db in [Direction::Asc, Direction::Desc] {
                    let o = Od::new(s, vec![(a, Direction::Asc)], vec![(b, db)]);
                    assert_eq!(o.holds(r), o.holds_naive(r), "{label}: {o}");
                }
            }
        }
    }
    // Discovery (incl. compound LHS with its sampling prefilter) emits only
    // ODs the naive scan confirms, even under tight budgets.
    let r = hotels_r7();
    let cfg = od::OdConfig { max_lhs: 2 };
    for budget in [Budget::new(), Budget::new().with_max_nodes(9)] {
        let out = od::discover_bounded(&r, &cfg, &Exec::new(budget));
        for o in &out.result {
            assert!(o.holds_naive(&r), "{o}");
        }
    }
}

/// Numeric cells at every edge of `numeric_cmp` and `CmpOp::eval`:
/// nulls, NaN, ±∞, ±0.0, `Int(2)`/`Float(2.0)` ties and a string in a
/// numeric column, plus a categorical column with nulls. Rows 12–13
/// repeat rows 5–6, so some tuple classes hold two rows.
fn dc_edge_relation() -> Relation {
    let p = [
        Value::float(f64::INFINITY),
        Value::Null,
        Value::float(f64::NAN),
        Value::float(f64::NEG_INFINITY),
        Value::float(-0.0),
        Value::float(0.0),
        Value::int(2),
        Value::float(2.0),
        Value::str("x"),
        Value::Null,
        Value::int(-3),
        Value::float(2.0),
    ];
    let c = [Value::str("a"), Value::Null, Value::str("b")];
    let mut b = RelationBuilder::new()
        .attr("p", ValueType::Numeric)
        .attr("q", ValueType::Numeric)
        .attr("c", ValueType::Categorical);
    let row = |i: usize| {
        vec![
            p[i].clone(),
            p[(i * 5 + 1) % p.len()].clone(),
            c[i % c.len()].clone(),
        ]
    };
    for i in (0..p.len()).chain([5, 6]) {
        b = b.row(row(i));
    }
    b.build().expect("consistent arity")
}

/// Text and categorical columns (with nulls, empty strings and digit
/// strings that sort unlike their numbers) beside a numeric column that
/// mixes numbers and text.
fn dc_text_relation() -> Relation {
    let text = ["10", "9", "", "b", "B"];
    let mut b = RelationBuilder::new()
        .attr("t", ValueType::Text)
        .attr("k", ValueType::Categorical)
        .attr("n", ValueType::Numeric);
    for i in 0..16usize {
        b = b.row(vec![
            if i % 7 == 3 {
                Value::Null
            } else {
                Value::str(text[i % text.len()])
            },
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::str(format!("k{}", i % 3))
            },
            match i % 4 {
                0 => Value::str("9"),
                1 => Value::int(9),
                2 => Value::float(9.0),
                _ => Value::int(i as i64 - 8),
            },
        ]);
    }
    b.build().expect("consistent arity")
}

/// [`dc_edge_relation`] and [`dc_text_relation`], each as built, after
/// overwrites that orphan dictionary entries, and after a row selection
/// (with a repeated row).
fn dc_edge_cases() -> Vec<(String, Relation)> {
    let mut out = Vec::new();
    for (name, mut r) in [
        ("numeric edges", dc_edge_relation()),
        ("text mix", dc_text_relation()),
    ] {
        out.push((name.to_string(), r.clone()));
        r.set_value(0, AttrId(0), Value::float(-1.5));
        r.set_value(1, AttrId(1), Value::Null);
        r.set_value(2, AttrId(1), Value::float(2.0));
        out.push((
            format!("{name} after select"),
            r.select_rows(&[9, 0, 4, 4, 5, 2, 1, 7]),
        ));
        out.push((format!("{name} after set"), r));
    }
    out
}

#[test]
fn dc_blocked_evidence_matches_naive_at_all_thread_counts() {
    let mut cases = vec![
        ("r7".to_string(), hotels_r7()),
        ("categorical".to_string(), synthetic(13, 80, 0.05)),
    ];
    cases.extend(dc_edge_cases());
    let mut rng = deptree::synth::rng(0xDCDC);
    for case in 0..12 {
        cases.push((
            format!("numeric case {case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for (label, r) in &cases {
        let preds = dc::predicate_space(r);
        let mut nstats = dc::FastDcStats::default();
        let want = dc::evidence_sets(r, &preds, &mut nstats);
        for threads in PAIR_THREADS {
            let mut stats = dc::FastDcStats::default();
            let (got, complete) = dc::evidence_sets_blocked(
                r,
                &preds,
                &mut stats,
                &Exec::unbounded().with_threads(threads),
            );
            assert!(complete, "{label}: unbounded run must complete");
            assert_eq!(
                got, want,
                "{label}: blocked evidence at {threads} thread(s)"
            );
            assert_eq!(
                stats.pairs_evaluated, nstats.pairs_evaluated,
                "{label}: multiplicity accounting at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn dc_grouped_reference_matches_naive() {
    let mut cases = vec![
        ("r7".to_string(), hotels_r7()),
        ("categorical".to_string(), synthetic(5, 40, 0.1)),
    ];
    cases.extend(dc_edge_cases());
    for (label, r) in &cases {
        let preds = dc::predicate_space(r);
        let mut nstats = dc::FastDcStats::default();
        let mut gstats = dc::FastDcStats::default();
        let naive = dc::evidence_sets(r, &preds, &mut nstats);
        let grouped = common::reference::evidence_sets_grouped(r, &preds, &mut gstats);
        assert_eq!(naive, grouped, "{label}");
        assert_eq!(nstats.pairs_evaluated, gstats.pairs_evaluated, "{label}");
    }
}

#[test]
fn dc_discovery_under_budget_emits_only_holding_dcs() {
    let mut cases = vec![("r7".to_string(), hotels_r7())];
    cases.extend(dc_edge_cases());
    let cfg = dc::DcConfig::default();
    for (label, r) in &cases {
        let pairs = (r.n_rows() * r.n_rows().saturating_sub(1)) as u64;
        for budget in [
            Budget::new().with_max_rows(pairs / 2),
            Budget::new().with_max_rows(pairs.saturating_sub(1)),
            Budget::new().with_max_nodes(5),
        ] {
            for threads in PAIR_THREADS {
                let out =
                    dc::discover_bounded(r, &cfg, &Exec::new(budget.clone()).with_threads(threads));
                for found in &out.result.dcs {
                    assert!(
                        found.holds(r),
                        "{label}, {budget:?}, {threads} thread(s): {found}"
                    );
                }
            }
        }
    }
}

#[test]
fn dc_partial_evidence_is_submultiset_under_budget() {
    let r = synthetic(29, 120, 0.05);
    let preds = dc::predicate_space(&r);
    let mut nstats = dc::FastDcStats::default();
    let full = dc::evidence_sets(&r, &preds, &mut nstats);
    for max_rows in [10u64, 500, 5_000] {
        for threads in PAIR_THREADS {
            let mut stats = dc::FastDcStats::default();
            let exec = Exec::new(Budget::new().with_max_rows(max_rows)).with_threads(threads);
            let (partial, complete) = dc::evidence_sets_blocked(&r, &preds, &mut stats, &exec);
            assert!(
                !complete,
                "row budget {max_rows} should not cover all {} pairs",
                nstats.pairs_evaluated
            );
            for (bits, mult) in &partial {
                let cap = full.get(bits).copied().unwrap_or(0);
                assert!(
                    *mult <= cap,
                    "partial evidence {bits:#x} has multiplicity {mult} > full {cap}"
                );
            }
            assert!(stats.pairs_evaluated <= nstats.pairs_evaluated);
        }
    }
}

#[test]
fn g3_is_monotone_in_lhs_growth() {
    // The property the AFD oracle's minimality definition rests on:
    // growing the LHS never increases g3.
    let r = synthetic(7, 100, 0.1);
    let all = r.all_attrs();
    for lhs in subsets(all, MAX_LHS) {
        for a in all.difference(lhs).iter() {
            let pa = StrippedPartition::from_attrs(&r, AttrSet::single(a));
            let base = StrippedPartition::from_attrs(&r, lhs).g3_error(&pa);
            for b in all.difference(lhs.insert(a)).iter() {
                let grown = StrippedPartition::from_attrs(&r, lhs.insert(b)).g3_error(&pa);
                assert!(
                    grown <= base + 1e-12,
                    "g3 grew: {lhs:?}+{b:?} -> {a:?} ({grown} > {base})"
                );
            }
        }
    }
}
