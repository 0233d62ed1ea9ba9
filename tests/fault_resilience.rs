//! Fault-injection resilience suite: every registered dependency class
//! must degrade gracefully — no panics, sound partial output — on every
//! corruption scenario the [`deptree::synth::fault`] harness produces.
//!
//! The matrix is `FaultPlan::scenarios` (cell corruption, null storms,
//! row duplication, garbled encodings, schema drift) × `DepKind::ALL`
//! (all 24 notations of the survey). Each class is exercised through its
//! discovery algorithm and/or a representative constructed dependency;
//! heavy searches run under a node budget, which doubles as coverage of
//! the anytime paths on dirty data.

mod common;

use deptree::core::engine::{Budget, Exec};
use deptree::core::{DepKind, Dependency, Fd, Interval, Md, NedAtom, SimFn};
use deptree::discovery::{
    cd, cfd, conditional, cords, dc, dd, ecfd, fastfd, ffd, md, mfd, mvd, ned, nud, od, pacman,
    pfd, schemes, sd, tane,
};
use deptree::metrics::Metric;
use deptree::quality::{cqa, dedup, repair, stream};
use deptree::relation::{parse_csv_lossy, to_csv, AttrId, AttrSet, Relation, ValueType};
use deptree::synth::fault::{FaultPlan, FAULT_CLASSES};
use deptree::synth::Rng;

/// Node budget for the expensive lattice/evidence searches so the whole
/// matrix stays fast; exhaustion is fine — the point is no panics and
/// sound partials.
const NODES: u64 = 2_000;

fn exec() -> Exec {
    Exec::new(Budget::default().with_max_nodes(NODES))
}

/// Exercise one dependency class on a (possibly corrupted) relation.
/// Returning without panicking is the property under test; cheap
/// soundness assertions ride along where a validity check is total.
fn exercise(kind: DepKind, r: &Relation) {
    let attrs: Vec<AttrId> = r.schema().ids().collect();
    let (a0, a1) = (attrs[0], attrs[attrs.len() - 1]);
    let metric0 = Metric::default_for(r.schema().ty(a0));
    let metric1 = Metric::default_for(r.schema().ty(a1));
    match kind {
        DepKind::Fd => {
            let out = tane::discover_bounded(
                r,
                &tane::TaneConfig {
                    max_lhs: 2,
                    max_error: 0.0,
                },
                &exec(),
            );
            for fd in &out.result.fds {
                assert!(fd.holds(r), "unsound FD {fd} from corrupted input");
            }
            let _ = fastfd::discover_bounded(r, &exec());
        }
        DepKind::Afd => {
            let _ = tane::discover_bounded(
                r,
                &tane::TaneConfig {
                    max_lhs: 2,
                    max_error: 0.2,
                },
                &exec(),
            );
        }
        DepKind::Sfd => {
            let _ = cords::discover(r, &cords::CordsConfig::default());
        }
        DepKind::Pfd => {
            let _ = pfd::discover_bounded(r, &pfd::PfdConfig::default(), &exec());
        }
        DepKind::Nud => {
            let _ = nud::discover_bounded(r, &nud::NudConfig::default(), &exec());
        }
        DepKind::Cfd => {
            let _ = cfd::ctane_bounded(r, &cfd::CfdConfig::default(), &exec());
        }
        DepKind::ECfd => {
            let _ = ecfd::discover_bounded(r, &ecfd::ECfdConfig::default(), &exec());
        }
        DepKind::Mvd => {
            let _ = mvd::discover_bounded(r, &mvd::MvdConfig::default(), &exec());
        }
        DepKind::Fhd => {
            let _ = schemes::discover_fhds(r, &schemes::SchemeConfig::default());
        }
        DepKind::Amvd => {
            let _ = schemes::discover_amvds(r, &schemes::SchemeConfig::default());
        }
        DepKind::Mfd => {
            let _ = mfd::discover_bounded(r, &mfd::MfdConfig::default(), &exec());
        }
        DepKind::Ned => {
            let rhs = vec![NedAtom::new(a1, metric1, 1.0)];
            let _ = ned::discover_lhs_bounded(r, rhs, &ned::NedConfig::default(), &exec());
        }
        DepKind::Dd => {
            let _ = dd::discover_bounded(r, &dd::DdConfig::default(), &exec());
        }
        DepKind::Cdd => {
            let _ = conditional::discover_cdds(r, &conditional::ConditionalConfig::default());
        }
        DepKind::Cd => {
            let known = [SimFn::single(a0, metric0, 1.0)];
            let new = SimFn::single(a1, metric1, 1.0);
            let _ = cd::discover_incremental(r, &known, &new, &cd::CdConfig::default());
        }
        DepKind::Pac => {
            let template = pacman::PacTemplate {
                lhs: vec![a0],
                rhs: vec![a1],
            };
            if let Some(pac) = pacman::instantiate(r, &template, &pacman::PacManConfig::default()) {
                let _ = pacman::alarm(r, &pac);
            }
        }
        DepKind::Ffd => {
            let _ = ffd::discover_bounded(r, &ffd::FfdConfig::default(), &exec());
        }
        DepKind::Md => {
            let out =
                md::discover_bounded(r, AttrSet::single(a1), &md::MdConfig::default(), &exec());
            // MDs drive downstream dedup — run the budgeted clustering too.
            let mds: Vec<Md> = out.result.into_iter().map(|s| s.md).collect();
            let _ = dedup::cluster_bounded(r, &mds, &exec());
        }
        DepKind::Cmd => {
            let _ = conditional::discover_cmds(
                r,
                AttrSet::single(a1),
                &conditional::ConditionalConfig::default(),
            );
        }
        DepKind::Ofd => {
            let _ = schemes::discover_ofds(r);
        }
        DepKind::Od => {
            let out = od::discover_bounded(r, &od::OdConfig::default(), &exec());
            for o in &out.result {
                assert!(o.holds(r), "unsound OD {o} from corrupted input");
            }
        }
        DepKind::Dc => {
            let _ = dc::discover_bounded(r, &dc::DcConfig::default(), &exec());
        }
        DepKind::Sd => {
            let _ = sd::discover_sd(r, a0, a1, 0.8);
        }
        DepKind::Csd => {
            let _ = sd::csd_tableau_bounded(r, a0, a1, Interval::new(-5.0, 5.0), 0.8, &exec());
        }
    }
}

/// Quality pipelines must also survive every scenario: detect → repair →
/// cqa on a representative FD.
fn exercise_quality(r: &Relation) {
    if r.n_attrs() < 2 || r.n_rows() == 0 {
        return;
    }
    let attrs: Vec<AttrId> = r.schema().ids().collect();
    let fd = Fd::new(
        r.schema(),
        AttrSet::single(attrs[0]),
        AttrSet::single(attrs[attrs.len() - 1]),
    );
    let repaired = repair::repair_fds_bounded(r, std::slice::from_ref(&fd), 5, &exec());
    if repaired.complete {
        assert!(
            fd.holds(&repaired.result.relation),
            "complete repair must restore {fd}"
        );
    }
    let rules: Vec<Box<dyn Dependency>> = vec![Box::new(fd.clone())];
    let _ = repair::deletion_repair_bounded(r, &rules, &exec());
    let _ = cqa::consistent_rows_bounded(r, &rules, &exec());

    // Streaming speed constraints (SCREEN) must be total on faulted data
    // too: nulls, mixed-type cells and duplicate timestamps all flow
    // through `series`, never panic, and repair deterministically.
    let numeric: Vec<AttrId> = r
        .schema()
        .iter()
        .filter(|(_, a)| a.ty == ValueType::Numeric)
        .map(|(id, _)| id)
        .collect();
    if let (Some(&t), Some(&y)) = (numeric.first(), numeric.last()) {
        let sc = stream::SpeedConstraint::symmetric(1.5);
        let v1 = stream::speed_violations(r, t, y, sc);
        let v2 = stream::speed_violations(r, t, y, sc);
        assert_eq!(v1, v2, "speed_violations must be deterministic");
        let (repaired, changed) = stream::screen_repair(r, t, y, sc);
        let (repaired2, changed2) = stream::screen_repair(r, t, y, sc);
        assert_eq!(changed, changed2, "screen_repair must be deterministic");
        assert_eq!(repaired, repaired2, "screen_repair must be deterministic");
        assert_eq!(repaired.n_rows(), r.n_rows(), "repair must not drop rows");
        assert!(changed.iter().all(|&row| row < r.n_rows()));
    }
}

/// The full matrix: every fault scenario × every registered dependency
/// class, plus the quality pipelines, at two corruption rates.
#[test]
fn every_class_survives_every_fault_scenario() {
    let mut rng = Rng::seed_from_u64(0xFA17);
    for rate in [0.1, 0.5] {
        let base = common::mixed_relation(&mut rng);
        // One scenario per fault class plus the everything-at-once combo.
        let scenarios = FaultPlan::scenarios(0xBAD5EED, rate);
        assert_eq!(scenarios.len(), FAULT_CLASSES.len() + 1);
        for (name, plan) in scenarios {
            let report = plan.apply(&base);
            let r = &report.relation;
            // Corruption mutates cells in place; the columnar invariants
            // (dense codes, duplicate-free dictionaries, consistent null
            // bitmaps, intact intern chains) must survive every scenario.
            r.debug_validate();
            for kind in DepKind::ALL {
                exercise(kind, r);
            }
            exercise_quality(r);
            // Determinism: re-applying the identical plan reproduces the
            // corruption bit-for-bit.
            assert_eq!(
                report.relation,
                plan.apply(&base).relation,
                "scenario {name} must be deterministic"
            );
        }
    }
}

/// Text-level faults (BOM, CRLF, ragged rows, mojibake) flow through the
/// lossy parser and then the full class matrix.
#[test]
fn csv_faults_flow_through_lossy_parse_into_every_class() {
    let mut rng = Rng::seed_from_u64(0xC57);
    let base = common::mixed_relation(&mut rng);
    if base.n_rows() == 0 {
        return;
    }
    let clean = to_csv(&base);
    let types: Vec<ValueType> = base.schema().iter().map(|(_, a)| a.ty).collect();
    for (name, plan) in FaultPlan::scenarios(0x7E57, 0.3) {
        let dirty = plan.apply_csv(&clean);
        let parsed = parse_csv_lossy(&dirty, &types)
            .unwrap_or_else(|e| panic!("lossy parse died on {name}: {e}"));
        // The interning parse must emit a structurally valid columnar
        // relation no matter how garbled the text was.
        parsed.relation.debug_validate();
        for kind in DepKind::ALL {
            exercise(kind, &parsed.relation);
        }
    }
}

/// Sanity: a clean relation through an empty plan is untouched, and the
/// exercisers accept it too (the matrix isn't vacuous).
#[test]
fn empty_plan_is_identity() {
    let mut rng = Rng::seed_from_u64(0x1D);
    let base = common::mixed_relation(&mut rng);
    let report = FaultPlan::new(9).apply(&base);
    assert_eq!(report.relation, base);
    assert!(report.corrupted_cells.is_empty());
    assert!(report.nulled_cells.is_empty());
    for kind in DepKind::ALL {
        exercise(kind, &report.relation);
    }
}

/// SCREEN on a planted time series: spikes are real violations before the
/// repair and gone after it — and the repaired stream survives the whole
/// fault matrix without panicking.
#[test]
fn screen_repair_enforces_the_speed_constraint() {
    use deptree::relation::{RelationBuilder, Value};

    // A sensor ramp (slope 1) with two planted spikes at rows 4 and 9.
    let mut b = RelationBuilder::new()
        .attr("t", ValueType::Numeric)
        .attr("y", ValueType::Numeric);
    for i in 0..16i64 {
        let y = match i {
            4 => 100.0,
            9 => -80.0,
            _ => i as f64,
        };
        b = b.row(vec![Value::int(i), Value::float(y)]);
    }
    let r = b.build().unwrap_or_else(|e| panic!("builder: {e}"));
    let schema = r.schema();
    let (t, y) = (schema.id("t"), schema.id("y"));
    let sc = stream::SpeedConstraint::symmetric(1.5);

    let before = stream::speed_violations(&r, t, y, sc);
    assert!(!before.is_empty(), "planted spikes must violate the bound");

    let (repaired, changed) = stream::screen_repair(&r, t, y, sc);
    assert!(
        stream::speed_violations(&repaired, t, y, sc).is_empty(),
        "SCREEN must leave no residual speed violations"
    );
    assert!(changed.contains(&4) && changed.contains(&9), "{changed:?}");
    // Rows inside the bound keep their original values.
    for row in 0..r.n_rows() {
        if !changed.contains(&row) {
            assert_eq!(repaired.value(row, y), r.value(row, y), "row {row}");
        }
    }

    // The repaired series through every fault scenario: still total.
    for (name, plan) in FaultPlan::scenarios(0x5C4EE7, 0.4) {
        let faulted = plan.apply(&repaired).relation;
        let _ = stream::speed_violations(&faulted, t, y, sc);
        let (again, _) = stream::screen_repair(&faulted, t, y, sc);
        assert_eq!(again.n_rows(), faulted.n_rows(), "scenario {name}");
    }
}
