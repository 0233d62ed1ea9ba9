//! Shared generators for the property-style integration suites.
//!
//! The workspace builds offline with no external dev-dependencies, so
//! instead of proptest these suites drive a seeded [`Rng`] through a fixed
//! number of cases; a failing case is reproduced exactly by its seed.

#![allow(dead_code)]

pub mod reference;

use deptree::relation::{Relation, RelationBuilder, Value, ValueType};
use deptree::synth::Rng;

/// Number of cases each property runs.
pub const CASES: u64 = 128;

/// Small random categorical relation: 2–4 attrs, 0–14 rows, tiny domain so
/// collisions — and therefore dependencies — happen.
pub fn small_relation(rng: &mut Rng) -> Relation {
    let n_attrs = rng.random_range(2..=4usize);
    let n_rows = rng.random_range(0..=14usize);
    let mut b = RelationBuilder::new();
    for a in 0..n_attrs {
        b = b.attr(format!("a{a}"), ValueType::Categorical);
    }
    for _ in 0..n_rows {
        b = b.row(
            (0..n_attrs)
                .map(|_| Value::str(format!("v{}", rng.random_range(0..4u8))))
                .collect(),
        );
    }
    b.build().expect("consistent arity")
}

/// Small random numeric relation: 2–3 attrs, 2–12 rows, values in [-20, 20).
pub fn numeric_relation(rng: &mut Rng) -> Relation {
    let n_attrs = rng.random_range(2..=3usize);
    let n_rows = rng.random_range(2..=12usize);
    let mut b = RelationBuilder::new();
    for a in 0..n_attrs {
        b = b.attr(format!("n{a}"), ValueType::Numeric);
    }
    for _ in 0..n_rows {
        b = b.row(
            (0..n_attrs)
                .map(|_| Value::int(rng.random_range(-20..20i64)))
                .collect(),
        );
    }
    b.build().expect("consistent arity")
}

/// Random relation with one categorical, one text and one numeric column
/// (2–8 rows).
pub fn mixed_relation(rng: &mut Rng) -> Relation {
    let n_rows = rng.random_range(2..=8usize);
    let mut b = RelationBuilder::new()
        .attr("c", ValueType::Categorical)
        .attr("t", ValueType::Text)
        .attr("n", ValueType::Numeric);
    for _ in 0..n_rows {
        b = b.row(vec![
            Value::str(format!("c{}", rng.random_range(0..4u8))),
            Value::str(format!("word{}", rng.random_range(0..4u8))),
            Value::int(rng.random_range(-10..10i64)),
        ]);
    }
    b.build().expect("consistent arity")
}

/// Adversarial relation shapes for panic-safety sweeps: arbitrary schemas
/// and values including empty relations, single rows, all-null columns,
/// mixed types within a column, NaN-adjacent floats and garbled strings.
pub fn arbitrary_relation(rng: &mut Rng) -> Relation {
    let n_attrs = rng.random_range(1..=5usize);
    let n_rows = match rng.random_range(0..4u8) {
        0 => 0,
        1 => 1,
        _ => rng.random_range(2..=12usize),
    };
    let mut b = RelationBuilder::new();
    let types = [ValueType::Categorical, ValueType::Text, ValueType::Numeric];
    for a in 0..n_attrs {
        b = b.attr(format!("x{a}"), types[rng.random_range(0..3usize)]);
    }
    // Some columns are all-null.
    let null_col: Option<usize> = if rng.random_bool(0.3) {
        Some(rng.random_range(0..n_attrs))
    } else {
        None
    };
    for _ in 0..n_rows {
        b = b.row(
            (0..n_attrs)
                .map(|a| {
                    if Some(a) == null_col {
                        return Value::Null;
                    }
                    match rng.random_range(0..6u8) {
                        0 => Value::Null,
                        1 => Value::int(rng.random_range(-100..100i64)),
                        2 => Value::float(rng.random_range(-1e3..1e3f64)),
                        3 => Value::str(""),
                        4 => Value::str(format!("Ã©\u{200b}{}", rng.random_range(0..4u8))),
                        _ => Value::str(format!("s{}", rng.random_range(0..4u8))),
                    }
                })
                .collect(),
        );
    }
    b.build().expect("consistent arity")
}
