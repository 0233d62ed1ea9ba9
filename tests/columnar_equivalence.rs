//! Byte-identity harness for the columnar relation core.
//!
//! Every discovery and quality task must render exactly the bytes stored
//! in `tests/snapshots/columnar_equivalence/` — at 1/2/8 threads, under
//! tight node and row budgets (sound partials included), across the
//! paper's worked examples, seeded synthetics and fault-plan-corrupted
//! CSVs. The goldens were rendered by the row-oriented `Value`-slice
//! algorithms the columnar kernels replaced, and are frozen: a change
//! that alters them changes results, and must say so. Each kernel is
//! also checked against its `Value`-level reference in
//! `tests/common/reference.rs` by the property suite. Deadline budgets
//! cut at a timing-dependent point, so they are checked for soundness
//! instead of bytes.
//!
//! A golden file holds one section per label: a header line
//! `=== <label> [<n> bytes] ===`, then exactly `n` bytes of output and a
//! newline.

mod common;

use deptree::core::engine::{Budget, Exec};
use deptree::core::{Dependency, NedAtom};
use deptree::discovery::{dc, dd, fastfd, md, ned, od, tane};
use deptree::metrics::Metric;
use deptree::relation::examples::{dataspace_cd, hotels_r1, hotels_r5, hotels_r6, hotels_r7};
use deptree::relation::{parse_csv_lossy, to_csv, AttrSet, Relation, ValueType};
use deptree::serve::tasks::{self, ProfileOpts};
use deptree::synth::fault::FaultPlan;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 2, 8];

/// The frozen output of one test, keyed by label.
struct Goldens {
    file: String,
    sections: BTreeMap<String, String>,
    checked: RefCell<BTreeSet<String>>,
}

impl Goldens {
    fn load(test: &str) -> Goldens {
        let file = format!(
            "{}/tests/snapshots/columnar_equivalence/{test}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read golden file {file}: {e}"));
        let mut sections = BTreeMap::new();
        let mut rest = text.as_str();
        while !rest.is_empty() {
            let (header, body) = rest
                .split_once('\n')
                .unwrap_or_else(|| panic!("{file}: truncated section header"));
            let (label, len) = header
                .strip_prefix("=== ")
                .and_then(|h| h.strip_suffix(" bytes] ==="))
                .and_then(|h| h.rsplit_once(" ["))
                .unwrap_or_else(|| panic!("{file}: malformed header {header:?}"));
            let len: usize = len
                .parse()
                .unwrap_or_else(|e| panic!("{file}: bad length in {header:?}: {e}"));
            let out = body
                .get(..len)
                .unwrap_or_else(|| panic!("{file}: section {label:?} is truncated"));
            assert!(
                sections
                    .insert(label.to_string(), out.to_string())
                    .is_none(),
                "{file}: duplicate section {label:?}"
            );
            rest = body[len..]
                .strip_prefix('\n')
                .unwrap_or_else(|| panic!("{file}: section {label:?} lacks its newline"));
        }
        Goldens {
            file,
            sections,
            checked: RefCell::new(BTreeSet::new()),
        }
    }

    /// The core assertion: `render` must produce the golden bytes for
    /// `label` at every thread count.
    fn check(&self, label: &str, budget: &Budget, render: &dyn Fn(&Exec) -> String) {
        let want = self
            .sections
            .get(label)
            .unwrap_or_else(|| panic!("{}: no golden section {label:?}", self.file));
        for threads in THREADS {
            let got = render(&Exec::new(budget.clone()).with_threads(threads));
            assert_eq!(
                &got, want,
                "{label}: output differs from the golden at {threads} thread(s)"
            );
        }
        self.checked.borrow_mut().insert(label.to_string());
    }

    /// Every golden section was checked: none is stale.
    fn assert_all_checked(&self) {
        let checked = self.checked.borrow();
        let stale: Vec<&String> = self
            .sections
            .keys()
            .filter(|k| !checked.contains(*k))
            .collect();
        assert!(
            stale.is_empty(),
            "{}: unchecked sections {stale:?}",
            self.file
        );
    }
}

// ---------------------------------------------------------------------
// Renderers: one string per task family, exact bytes (scores rendered
// via to_bits where floats are involved).
// ---------------------------------------------------------------------

/// The serve `profile` task: TANE (exact + approximate), CORDS soft FDs
/// and — on numeric schemas — OD and DC discovery, all through the one
/// rendering path the CLI and the server share.
fn render_profile(r: &Relation, opts: &ProfileOpts, exec: &Exec) -> String {
    let report = tasks::profile(r, opts, exec);
    format!(
        "{}|exhausted={:?}|fds={:?}",
        report.text, report.exhausted, report.fds
    )
}

/// The direct miners the profile doesn't reach: FastFD, MD, DD, NED, OD,
/// DC discovery, rendered with bit-exact scores.
fn render_miners(r: &Relation, exec: &Exec) -> String {
    let mut out = String::new();
    let ffd = fastfd::discover_bounded(r, exec);
    let _ = writeln!(out, "fastfd: {:?}", render_deps(&ffd.result.fds));
    if r.n_attrs() >= 2 {
        let s = r.schema();
        let attrs: Vec<_> = s.ids().collect();
        let rhs_attr = attrs[attrs.len() - 1];
        let cfg = md::MdConfig {
            min_support: 0.0,
            min_confidence: 0.5,
            thresholds_per_attr: 2,
            max_lhs: 2,
        };
        let mds = md::discover_bounded(r, AttrSet::single(rhs_attr), &cfg, exec);
        for m in &mds.result {
            let _ = writeln!(
                out,
                "md: {} s={:016x} c={:016x}",
                m.md,
                m.support.to_bits(),
                m.confidence.to_bits()
            );
        }
        let dds = dd::discover_bounded(
            r,
            &dd::DdConfig {
                thresholds_per_attr: 2,
                min_support: 2,
                max_lhs: 1,
            },
            exec,
        );
        let _ = writeln!(out, "dd: {:?}", render_deps(&dds.result));
        let m1 = Metric::default_for(s.ty(rhs_attr));
        let neds = ned::discover_lhs_bounded(
            r,
            vec![NedAtom::new(rhs_attr, m1, 1.0)],
            &ned::NedConfig::default(),
            exec,
        );
        let _ = writeln!(out, "ned: {:?}", neds.result.map(|n| n.to_string()));
    }
    let ods = od::discover_bounded(r, &od::OdConfig { max_lhs: 2 }, exec);
    let _ = writeln!(out, "od: {:?}", render_deps(&ods.result));
    let dcs = dc::discover_bounded(r, &dc::DcConfig::default(), exec);
    let _ = writeln!(out, "dc: {:?}", render_deps(&dcs.result.dcs));
    out
}

fn render_deps<D: std::fmt::Display>(v: &[D]) -> Vec<String> {
    v.iter().map(|d| d.to_string()).collect()
}

/// The quality tasks: validate, detect, repair (report + repaired CSV)
/// and dedup on a representative rule over the first/last attributes.
fn render_quality(r: &Relation, exec: &Exec) -> String {
    if r.n_attrs() < 2 || r.n_rows() == 0 {
        return String::from("degenerate");
    }
    let s = r.schema();
    let attrs: Vec<_> = s.ids().collect();
    let rule = format!("{} -> {}", s.name(attrs[0]), s.name(attrs[attrs.len() - 1]));
    let mut out = String::new();
    match tasks::validate(r, &rule) {
        Ok(rep) => out.push_str(&rep.text),
        Err(e) => {
            let _ = writeln!(out, "validate error: {e}");
        }
    }
    match tasks::detect(r, &rule) {
        Ok(rep) => out.push_str(&rep.text),
        Err(e) => {
            let _ = writeln!(out, "detect error: {e}");
        }
    }
    match tasks::repair(r, &rule, exec) {
        Ok((rep, fixed)) => {
            out.push_str(&rep.text);
            out.push_str(&to_csv(&fixed));
        }
        Err(e) => {
            let _ = writeln!(out, "repair error: {e}");
        }
    }
    match tasks::dedup(r, &[s.name(attrs[0]).to_string()], exec) {
        Ok(rep) => out.push_str(&rep.text),
        Err(e) => {
            let _ = writeln!(out, "dedup error: {e}");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------

fn paper_tables() -> Vec<(String, Relation)> {
    vec![
        ("r1".into(), hotels_r1()),
        ("r5".into(), hotels_r5()),
        ("r6".into(), hotels_r6()),
        ("r7".into(), hotels_r7()),
        ("dataspace".into(), dataspace_cd()),
    ]
}

fn seeded_synthetics() -> Vec<(String, Relation)> {
    let mut rng = deptree::synth::rng(0xC01A);
    let mut out = Vec::new();
    for case in 0..4 {
        out.push((format!("small #{case}"), common::small_relation(&mut rng)));
    }
    for case in 0..3 {
        out.push((
            format!("numeric #{case}"),
            common::numeric_relation(&mut rng),
        ));
    }
    for case in 0..3 {
        out.push((format!("mixed #{case}"), common::mixed_relation(&mut rng)));
    }
    for case in 0..3 {
        out.push((
            format!("arbitrary #{case}"),
            common::arbitrary_relation(&mut rng),
        ));
    }
    out
}

/// Every fault scenario, applied at the CSV text level and re-ingested
/// through the lossy parser — the relations the service actually sees on
/// dirty uploads.
fn corrupted_relations() -> Vec<(String, Relation)> {
    let mut rng = deptree::synth::rng(0xFA0C7);
    let base = common::mixed_relation(&mut rng);
    let clean = to_csv(&base);
    let types: Vec<ValueType> = base.schema().iter().map(|(_, a)| a.ty).collect();
    FaultPlan::scenarios(0xC0DEC, 0.3)
        .into_iter()
        .map(|(name, plan)| {
            let dirty = plan.apply_csv(&clean);
            let parsed = parse_csv_lossy(&dirty, &types)
                .unwrap_or_else(|e| panic!("lossy parse died on {name}: {e}"));
            parsed.relation.debug_validate();
            (format!("fault {name}"), parsed.relation)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Byte-identity: unbounded runs.
// ---------------------------------------------------------------------

#[test]
fn profile_is_byte_identical_on_paper_tables() {
    let goldens = Goldens::load("profile_is_byte_identical_on_paper_tables");
    for (label, r) in paper_tables() {
        for opts in [
            ProfileOpts {
                max_lhs: 2,
                error: 0.0,
            },
            ProfileOpts {
                max_lhs: 2,
                error: 0.1,
            },
        ] {
            goldens.check(
                &format!("profile {label} ε={}", opts.error),
                &Budget::default(),
                &|exec| render_profile(&r, &opts, exec),
            );
        }
    }
    goldens.assert_all_checked();
}

#[test]
fn profile_is_byte_identical_on_synthetics_and_corrupted_csvs() {
    let goldens = Goldens::load("profile_is_byte_identical_on_synthetics_and_corrupted_csvs");
    let opts = ProfileOpts {
        max_lhs: 2,
        error: 0.0,
    };
    for (label, r) in seeded_synthetics().into_iter().chain(corrupted_relations()) {
        goldens.check(&format!("profile {label}"), &Budget::default(), &|exec| {
            render_profile(&r, &opts, exec)
        });
    }
    goldens.assert_all_checked();
}

#[test]
fn miners_are_byte_identical_on_paper_tables() {
    let goldens = Goldens::load("miners_are_byte_identical_on_paper_tables");
    for (label, r) in paper_tables() {
        goldens.check(&format!("miners {label}"), &Budget::default(), &|exec| {
            render_miners(&r, exec)
        });
    }
    goldens.assert_all_checked();
}

#[test]
fn miners_are_byte_identical_on_synthetics_and_corrupted_csvs() {
    let goldens = Goldens::load("miners_are_byte_identical_on_synthetics_and_corrupted_csvs");
    for (label, r) in seeded_synthetics().into_iter().chain(corrupted_relations()) {
        goldens.check(&format!("miners {label}"), &Budget::default(), &|exec| {
            render_miners(&r, exec)
        });
    }
    goldens.assert_all_checked();
}

#[test]
fn quality_tasks_are_byte_identical_everywhere() {
    let goldens = Goldens::load("quality_tasks_are_byte_identical_everywhere");
    let all = paper_tables()
        .into_iter()
        .chain(seeded_synthetics())
        .chain(corrupted_relations());
    for (label, r) in all {
        goldens.check(&format!("quality {label}"), &Budget::default(), &|exec| {
            render_quality(&r, exec)
        });
    }
    goldens.assert_all_checked();
}

// ---------------------------------------------------------------------
// Byte-identity: budget-truncated partials. Node and row budgets are
// deterministic by the engine's reservation contract, so the *partial*
// output must also match byte-for-byte at every thread count.
// ---------------------------------------------------------------------

#[test]
fn budget_truncated_partials_are_byte_identical() {
    let goldens = Goldens::load("budget_truncated_partials_are_byte_identical");
    let opts = ProfileOpts {
        max_lhs: 3,
        error: 0.0,
    };
    let budgets = [
        ("nodes=5", Budget::default().with_max_nodes(5)),
        ("nodes=40", Budget::default().with_max_nodes(40)),
        ("rows=300", Budget::default().with_max_rows(300)),
        ("rows=2000", Budget::default().with_max_rows(2000)),
    ];
    let datasets = [
        ("r6".to_string(), hotels_r6()),
        ("r7".to_string(), hotels_r7()),
        seeded_synthetics().swap_remove(0),
    ];
    for (dlabel, r) in &datasets {
        for (blabel, budget) in &budgets {
            goldens.check(
                &format!("partial profile {dlabel} {blabel}"),
                budget,
                &|exec| render_profile(r, &opts, exec),
            );
            goldens.check(
                &format!("partial miners {dlabel} {blabel}"),
                budget,
                &|exec| render_miners(r, exec),
            );
        }
    }
    goldens.assert_all_checked();
}

// ---------------------------------------------------------------------
// Deadline budgets cut at a timing-dependent point: only soundness is
// required, on the sequential and on the parallel executor.
// ---------------------------------------------------------------------

#[test]
fn deadline_partials_are_sound_in_both_modes() {
    let r = hotels_r6();
    for threads in [1, 8] {
        for deadline_ms in [0u64, 1, 5] {
            let budget = Budget::default().with_deadline(Duration::from_millis(deadline_ms));
            let exec = || Exec::new(budget.clone()).with_threads(threads);
            let out = tane::discover_bounded(
                &r,
                &tane::TaneConfig {
                    max_lhs: 3,
                    max_error: 0.0,
                },
                &exec(),
            );
            for fd in &out.result.fds {
                assert!(fd.holds(&r), "unsound FD {fd} from a deadline partial");
            }
            let ods = od::discover_bounded(&r, &od::OdConfig { max_lhs: 2 }, &exec());
            for o in &ods.result {
                assert!(o.holds(&r), "unsound OD {o} from a deadline partial");
            }
        }
    }
}
