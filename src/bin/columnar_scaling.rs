//! Columnar-core scaling: the dictionary-encoded column kernels vs their
//! `Value`-level reference functions (`tests/common/reference.rs`,
//! included below), on synthetic relations at 1M/3M/10M rows, for the
//! workloads the columnar refactor targets — stripped-partition
//! construction, TANE level 1, MD equality/band blocking, and the
//! single-atom OD check.  Results (wall-clock, speedups, identity checks)
//! are written to `BENCH_columnar.json`.
//!
//! ```sh
//! cargo run --release --bin columnar_scaling             # 1M/3M/10M
//! cargo run --release --bin columnar_scaling -- --smoke  # tiny, CI gate
//! ```
//!
//! Every columnar result is asserted identical to its reference; the run
//! aborts on any mismatch.  Reference baselines above [`REFERENCE_CAP`]
//! rows are skipped (recorded as `null`): the references materialize
//! every cell as a boxed [`Value`], and a 10M-row materialization exists
//! only to be avoided.  TANE level 1 has no reference function and
//! records `null` at every size.  In full mode the run additionally
//! enforces the acceptance floors: ≥3× on partition build and ≥2× on MD
//! blocking at 1M rows.
//!
//! `--smoke` also runs the parse-allocation gate: the same CSV text is
//! ingested once through the interning `parse_csv_lossy` path and once
//! through a replica of the pre-columnar parser (a `String` per cell, a
//! `Vec<Value>` per column), under a counting global allocator; both the
//! peak and the resident allocation of the interned path must come in
//! below the row-materializing replica.

#[path = "../../tests/common/reference.rs"]
mod reference;

use deptree::core::{Dependency, Direction, Od};
use deptree::discovery::tane::{self, TaneConfig};
use deptree::relation::pairgen::{band_pairs_sorted, PairIndex, PairSpec};
use deptree::relation::{
    parse_csv_lossy, AttrId, Column, ProductScratch, Relation, Schema, StrippedPartition, Value,
    ValueType,
};
use deptree::synth::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

/// Largest size the reference baselines run at: they clone every cell
/// into a `Vec<Value>`, which at 10M rows is pure ballast.
const REFERENCE_CAP: usize = 3_000_000;

// ---------------------------------------------------------------------
// Counting allocator: tracks resident and peak heap bytes so the smoke
// gate can compare the interned parse against the row-materializing
// replica.
// ---------------------------------------------------------------------

static MEASURING: AtomicBool = AtomicBool::new(false);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        // Counting every allocation slows allocation-heavy phases several
        // fold, so the counters are armed only inside [`measured`] windows
        // — the wall-clock benchmarks run at native allocator speed.
        if !MEASURING.load(Ordering::Relaxed) {
            return;
        }
        let cur = NET_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK_BYTES.fetch_max(cur, Ordering::Relaxed);
    }
    fn on_dealloc(size: usize) {
        if !MEASURING.load(Ordering::Relaxed) {
            return;
        }
        NET_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: defers all allocation to `System`; the counters are advisory
// and touched with relaxed atomics only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::on_alloc(new_size - layout.size());
            } else {
                Self::on_dealloc(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(resident_delta, peak_delta)` in bytes across `f`, alongside its
/// value. The gate closures run single-threaded, so the window is exact.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    NET_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    MEASURING.store(true, Ordering::SeqCst);
    let out = f();
    MEASURING.store(false, Ordering::SeqCst);
    let resident = NET_BYTES.load(Ordering::Relaxed).max(0) as usize;
    let peak = PEAK_BYTES.load(Ordering::Relaxed).max(0) as usize;
    (out, resident, peak)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if args.iter().any(|a| a == "--kernels") {
        run_kernels(smoke);
        return;
    }
    let sizes: &[usize] = if smoke {
        &[2_000, 20_000]
    } else {
        &[1_000_000, 3_000_000, 10_000_000]
    };
    let mut rows_json = Vec::new();
    let mut floors: Vec<(String, f64, f64)> = Vec::new();
    for &n in sizes {
        println!("== {n} rows ==");
        let rel = workload_relation(n);
        let mut obj = format!("    {{\n      \"rows\": {n}");
        let p = bench_partition(&rel, n, &mut obj);
        bench_tane(&rel, &mut obj);
        let m = bench_md_blocking(&rel, n, &mut obj);
        bench_od(&rel, n, &mut obj);
        let _ = write!(obj, ",\n      \"relation_bytes\": {}", rel.approx_bytes());
        obj.push_str("\n    }");
        rows_json.push(obj);
        if !smoke && n == 1_000_000 {
            if let Some(s) = p {
                floors.push(("partition_build".into(), s, 3.0));
            }
            if let Some(s) = m {
                floors.push(("md_blocking".into(), s, 2.0));
            }
        }
    }
    let alloc_json = if smoke { Some(alloc_gate()) } else { None };
    // Smoke also drives the code-native kernel suite at a tiny size: the
    // identity asserts inside are the CI gate; timings are incidental.
    let kernel_json = smoke.then(|| kernel_suite(20_000).0);
    let json = format!(
        "{{\n  \"bench\": \"columnar_scaling\",\n  \"mode\": \"{}\",\n  \"reference_cap_rows\": {REFERENCE_CAP},\n  \"sizes\": [\n{}\n  ]{}{}\n}}\n",
        if smoke { "smoke" } else { "full" },
        rows_json.join(",\n"),
        alloc_json.map_or(String::new(), |a| format!(",\n  \"parse_alloc\": {a}")),
        kernel_json.map_or(String::new(), |k| format!(",\n  \"kernels\": {k}")),
    );
    if smoke {
        println!("{json}");
        println!("smoke: columnar ≡ reference on every workload; interned parse allocates less");
    } else {
        for (name, got, floor) in &floors {
            if got < floor {
                eprintln!(
                    "error: {name} speedup {got:.2}× at 1M rows is below the {floor:.0}× floor"
                );
                std::process::exit(3);
            }
            println!("floor ok: {name} {got:.2}× ≥ {floor:.0}×");
        }
        if let Err(e) = std::fs::write("BENCH_columnar.json", &json) {
            eprintln!("error: cannot write BENCH_columnar.json: {e}");
            std::process::exit(2);
        }
        println!("wrote BENCH_columnar.json");
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time in ms — the sub-5ms kernels need repetition
/// to push scheduler noise below the effect being measured.
fn time_min_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(ms(t0.elapsed()));
    }
    best
}

fn push_metric(
    obj: &mut String,
    name: &str,
    reference_ms: Option<f64>,
    columnar_ms: f64,
) -> Option<f64> {
    let speedup = reference_ms.map(|rm| rm / columnar_ms.max(1e-9));
    // Writing into a String is infallible.
    let _ = write!(
        obj,
        ",\n      \"{name}\": {{\"reference_ms\": {}, \"columnar_ms\": {columnar_ms:.3}, \"speedup\": {}, \"identical\": true}}",
        reference_ms.map_or("null".into(), |v| format!("{v:.3}")),
        speedup.map_or("null".into(), |v| format!("{v:.2}")),
    );
    speedup
}

fn print_line(name: &str, reference_ms: Option<f64>, columnar_ms: f64) {
    println!(
        "  {name:<15}: reference {}  columnar {columnar_ms:9.1}ms",
        reference_ms.map_or("   skipped".into(), |v| format!("{v:9.1}ms")),
    );
}

/// Four columns exercising each hot path: `key` (1009 distinct ints, the
/// blocking / partition column), `grp` (97 distinct strings, the
/// string-hashing partition column), and `lo`/`hi` (numeric, jointly
/// monotone so the OD `lo asc → hi asc` holds and the sorted check walks
/// both full columns).
fn workload_relation(n: usize) -> Relation {
    let schema = Schema::from_attrs(vec![
        ("key", ValueType::Numeric),
        ("grp", ValueType::Text),
        ("lo", ValueType::Numeric),
        ("hi", ValueType::Numeric),
    ]);
    let mut rel = match Relation::empty(schema) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: internal workload schema invalid: {e}");
            std::process::exit(4);
        }
    };
    let grps: Vec<String> = (0..97).map(|g| format!("grp_{g:02}")).collect();
    for i in 0..n {
        let key = (i % 1009) as i64;
        let lo = (i / 10) as i64;
        let row_ok = rel
            .push_row(vec![
                Value::Int(key),
                Value::Str(grps[i % 97].clone()),
                Value::Int(lo),
                Value::Int(lo * 3),
            ])
            .is_ok();
        if !row_ok {
            eprintln!("error: internal workload row has wrong arity");
            std::process::exit(4);
        }
    }
    rel
}

/// Materialize the `Vec<Value>` column views so reference timings
/// measure the algorithm, not the one-off materialization (the
/// pre-columnar relation stored these vectors natively).
fn prewarm_reference(rel: &Relation) {
    for a in rel.schema().ids() {
        let _ = rel.column(a);
    }
}

fn attr(rel: &Relation, name: &str) -> AttrId {
    rel.schema().id(name)
}

fn bench_partition(rel: &Relation, n: usize, obj: &mut String) -> Option<f64> {
    let attrs = [attr(rel, "key"), attr(rel, "grp")];
    // Each timed run is preceded by an identical untimed pass, so neither
    // side pays first-touch page faults or cold-allocator costs inside
    // its measurement window.
    for &a in &attrs {
        let _ = StrippedPartition::from_column(rel, a);
    }
    let t0 = Instant::now();
    let fast: Vec<StrippedPartition> = attrs
        .iter()
        .map(|&a| StrippedPartition::from_column(rel, a))
        .collect();
    let columnar_ms = ms(t0.elapsed());
    let reference_ms = (n <= REFERENCE_CAP).then(|| {
        prewarm_reference(rel);
        for &a in &attrs {
            let _ = reference::partition_of_column(rel, a);
        }
        let t0 = Instant::now();
        let slow: Vec<StrippedPartition> = attrs
            .iter()
            .map(|&a| reference::partition_of_column(rel, a))
            .collect();
        let elapsed = ms(t0.elapsed());
        assert_eq!(fast, slow, "columnar partitions differ from the reference");
        elapsed
    });
    print_line("partition_build", reference_ms, columnar_ms);
    push_metric(obj, "partition_build", reference_ms, columnar_ms)
}

/// TANE level 1 has no reference function; only the columnar time is
/// recorded.
fn bench_tane(rel: &Relation, obj: &mut String) {
    let cfg = TaneConfig {
        max_lhs: 1,
        max_error: 0.0,
    };
    let _ = tane::discover(rel, &cfg);
    let t0 = Instant::now();
    let fast = tane::discover(rel, &cfg);
    let columnar_ms = ms(t0.elapsed());
    print_line("tane_level1", None, columnar_ms);
    push_metric(obj, "tane_level1", None, columnar_ms);
    let _ = write!(obj, ",\n      \"tane_fds\": {}", fast.fds.len());
}

fn bench_md_blocking(rel: &Relation, n: usize, obj: &mut String) -> Option<f64> {
    let key = attr(rel, "key");
    let lo = attr(rel, "lo");
    let specs = [(key, PairSpec::Eq), (lo, PairSpec::Band(5.0))];
    for &(a, spec) in &specs {
        let _ = PairIndex::build_attr(rel, a, spec);
    }
    let t0 = Instant::now();
    let fast: Vec<PairIndex> = specs
        .iter()
        .map(|&(a, spec)| PairIndex::build_attr(rel, a, spec))
        .collect();
    let columnar_ms = ms(t0.elapsed());
    let reference_ms = (n <= REFERENCE_CAP).then(|| {
        prewarm_reference(rel);
        for &(a, spec) in &specs {
            let _ = reference::pair_index(rel, a, spec);
        }
        let t0 = Instant::now();
        let slow: Vec<PairIndex> = specs
            .iter()
            .map(|&(a, spec)| reference::pair_index(rel, a, spec))
            .collect();
        let elapsed = ms(t0.elapsed());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.classes(), s.classes(), "columnar blocking classes differ");
            assert_eq!(f.links(), s.links(), "columnar blocking links differ");
        }
        elapsed
    });
    print_line("md_blocking", reference_ms, columnar_ms);
    push_metric(obj, "md_blocking", reference_ms, columnar_ms)
}

fn bench_od(rel: &Relation, n: usize, obj: &mut String) {
    let s = rel.schema();
    let holds = Od::new(
        s,
        vec![(s.id("lo"), Direction::Asc)],
        vec![(s.id("hi"), Direction::Asc)],
    );
    let broken = Od::new(
        s,
        vec![(s.id("key"), Direction::Asc)],
        vec![(s.id("grp"), Direction::Asc)],
    );
    let _ = (holds.holds(rel), broken.holds(rel));
    let t0 = Instant::now();
    let fast = (holds.holds(rel), broken.holds(rel));
    let columnar_ms = ms(t0.elapsed());
    assert!(fast.0, "monotone OD must hold on the workload");
    let sorted = |od: &Od| reference::od_single_atom_sorted(rel, od.lhs()[0], od.rhs()[0]);
    let reference_ms = (n <= REFERENCE_CAP).then(|| {
        prewarm_reference(rel);
        let _ = (sorted(&holds), sorted(&broken));
        let t0 = Instant::now();
        let slow = (sorted(&holds), sorted(&broken));
        let elapsed = ms(t0.elapsed());
        assert_eq!(fast, slow, "columnar OD verdicts differ from the reference");
        elapsed
    });
    print_line("od_check", reference_ms, columnar_ms);
    push_metric(obj, "od_check", reference_ms, columnar_ms);
}

// ---------------------------------------------------------------------
// Smoke-only parse-allocation gate (the pre-columnar parser replica).
// ---------------------------------------------------------------------

/// Rows in the allocation-gate CSV.
const ALLOC_ROWS: usize = 40_000;

fn alloc_csv() -> (String, Vec<ValueType>) {
    let mut text = String::from("id,name,city,score\n");
    for i in 0..ALLOC_ROWS {
        let _ = writeln!(
            text,
            "{i},user_{:04},city_{:02},{}.5",
            i % 500,
            i % 50,
            i % 100
        );
    }
    (
        text,
        vec![
            ValueType::Numeric,
            ValueType::Text,
            ValueType::Text,
            ValueType::Numeric,
        ],
    )
}

/// The pre-columnar ingest, reproduced: one heap `String` per non-empty
/// cell, one `Vec<Value>` per column — the representation the old
/// `Relation` stored natively.
fn parse_row_materializing(text: &str, types: &[ValueType]) -> Vec<Vec<Value>> {
    let mut lines = text.lines();
    let header = lines.next().map_or(0, |h| h.split(',').count());
    let mut cols: Vec<Vec<Value>> = (0..header).map(|_| Vec::new()).collect();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        for ((cell, ty), col) in line.split(',').zip(types).zip(&mut cols) {
            let v = if cell.is_empty() {
                Value::Null
            } else {
                match ty {
                    ValueType::Numeric => {
                        if let Ok(n) = cell.parse::<i64>() {
                            Value::Int(n)
                        } else if let Ok(f) = cell.parse::<f64>() {
                            Value::float(f)
                        } else {
                            Value::Str(cell.to_string())
                        }
                    }
                    _ => Value::Str(cell.to_string()),
                }
            };
            col.push(v);
        }
    }
    cols
}

fn alloc_gate() -> String {
    let (text, types) = alloc_csv();
    let (interned, interned_resident, interned_peak) =
        measured(|| match parse_csv_lossy(&text, &types) {
            Ok(lossy) => lossy.relation,
            Err(e) => {
                eprintln!("error: allocation-gate CSV failed to parse: {e}");
                std::process::exit(4);
            }
        });
    let (rowwise, rowwise_resident, rowwise_peak) =
        measured(|| parse_row_materializing(&text, &types));
    // Outside the measured windows: fold the row-materialized columns back
    // into a relation and check the two ingests agree cell-for-cell.
    let n_rows = rowwise.first().map_or(0, Vec::len);
    let schema = Schema::from_attrs(vec![
        ("id", ValueType::Numeric),
        ("name", ValueType::Text),
        ("city", ValueType::Text),
        ("score", ValueType::Numeric),
    ]);
    let rows = (0..n_rows).map(|r| rowwise.iter().map(|c| c[r].clone()).collect());
    let via_rows = match Relation::from_rows(schema, rows) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: row-materialized parse produced invalid relation: {e}");
            std::process::exit(4);
        }
    };
    assert_eq!(
        interned, via_rows,
        "interned parse disagrees with the row-materializing replica"
    );
    println!(
        "  parse_alloc    : rowwise peak {:>9} resident {:>9}  interned peak {:>9} resident {:>9}",
        rowwise_peak, rowwise_resident, interned_peak, interned_resident
    );
    assert!(
        interned_peak < rowwise_peak,
        "interned parse peak allocation ({interned_peak}B) must beat row-materializing ({rowwise_peak}B)"
    );
    assert!(
        interned_resident < rowwise_resident,
        "interned relation ({interned_resident}B resident) must beat row-materialized columns ({rowwise_resident}B)"
    );
    format!(
        "{{\"rows\": {ALLOC_ROWS}, \"rowwise_peak_bytes\": {rowwise_peak}, \"rowwise_resident_bytes\": {rowwise_resident}, \"interned_peak_bytes\": {interned_peak}, \"interned_resident_bytes\": {interned_resident}}}"
    )
}

// ---------------------------------------------------------------------
// Code-native kernel suite: the three u32-code kernels vs in-binary
// replicas of the paths they replaced (see DESIGN.md §14).  Every kernel
// result is asserted identical to its replica; `--kernels` (full mode)
// writes BENCH_kernels.json and enforces the ≥2× floors on the two
// kernels with a like-for-like algorithmic baseline.
// ---------------------------------------------------------------------

/// Rows the full `--kernels` run measures at (the floor size).
const KERNEL_ROWS: usize = 1_000_000;

fn run_kernels(smoke: bool) {
    let n = if smoke { 20_000 } else { KERNEL_ROWS };
    println!("== code-native kernels, {n} rows ==");
    let (json, floors) = kernel_suite(n);
    let doc = format!(
        "{{\n  \"bench\": \"columnar_kernels\",\n  \"mode\": \"{}\",\n  \"rows\": {n},\n  \"kernels\": {json}\n}}\n",
        if smoke { "smoke" } else { "full" },
    );
    if smoke {
        println!("{doc}");
        println!("smoke: every kernel identical to its replica");
        return;
    }
    for (name, got, floor) in &floors {
        if got < floor {
            eprintln!("error: {name} speedup {got:.2}× at {n} rows is below the {floor:.0}× floor");
            std::process::exit(3);
        }
        println!("floor ok: {name} {got:.2}× ≥ {floor:.0}×");
    }
    if let Err(e) = std::fs::write("BENCH_kernels.json", &doc) {
        eprintln!("error: cannot write BENCH_kernels.json: {e}");
        std::process::exit(2);
    }
    println!("wrote BENCH_kernels.json");
}

/// Run the three kernel benches on the kernel workload; returns the JSON
/// object and the `(name, speedup, floor)` list for full-mode gating.
fn kernel_suite(n: usize) -> (String, Vec<(String, f64, f64)>) {
    let rel = kernel_relation(n);
    let mut obj = String::from("{");
    let mut floors = Vec::new();
    let s = bench_kernel_product(&rel, &mut obj);
    floors.push(("partition_product".to_string(), s, 2.0));
    obj.push(',');
    let s = bench_kernel_edit(&rel, &mut obj);
    floors.push(("edit_index".to_string(), s, 2.0));
    obj.push(',');
    bench_kernel_band(n, &mut obj);
    obj.push('}');
    (obj, floors)
}

/// Kernel workload: `pa`/`pb` are the partition-product pair (1009 × 601
/// int codes — a combined domain that fits the radix gate), and `txt` a pool of
/// distinct strings (≈ n/33, capped at 30k, length 12–20 over a wide
/// codepoint alphabet so q-gram collisions stay below the link cap)
/// repeated across rows — the distinct-value edit-index shape.
fn kernel_relation(n: usize) -> Relation {
    let schema = Schema::from_attrs(vec![
        ("pa", ValueType::Numeric),
        ("pb", ValueType::Numeric),
        ("txt", ValueType::Text),
    ]);
    let mut rel = match Relation::empty(schema) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: internal kernel schema invalid: {e}");
            std::process::exit(4);
        }
    };
    let mut rng = Rng::seed_from_u64(0x6b65726e);
    let distinct = (n / 33).clamp(64, 30_000);
    let pool: Vec<String> = (0..distinct)
        .map(|_| {
            let len = rng.random_range(12..=20usize);
            (0..len)
                .map(|_| {
                    // CJK block: 512 distinct chars ⇒ 262k possible grams,
                    // so random strings rarely share one.
                    char::from_u32(0x4E00 + rng.random_range(0..512u32)).unwrap_or('一')
                })
                .collect()
        })
        .collect();
    for i in 0..n {
        let row_ok = rel
            .push_row(vec![
                Value::Int((i % 1009) as i64),
                Value::Int(((i * 7) % 601) as i64),
                Value::Str(pool[(i * 2_654_435_761) % distinct].clone()),
            ])
            .is_ok();
        if !row_ok {
            eprintln!("error: internal kernel row has wrong arity");
            std::process::exit(4);
        }
    }
    rel
}

fn push_kernel(
    obj: &mut String,
    name: &str,
    baseline_ms: f64,
    kernel_ms: f64,
    floor: Option<f64>,
) -> f64 {
    let speedup = baseline_ms / kernel_ms.max(1e-9);
    let _ = write!(
        obj,
        "\n    \"{name}\": {{\"baseline_ms\": {baseline_ms:.3}, \"kernel_ms\": {kernel_ms:.3}, \"speedup\": {speedup:.2}, \"floor\": {}, \"identical\": true}}",
        floor.map_or("null".into(), |f| format!("{f:.1}")),
    );
    println!(
        "  {name:<17}: baseline {baseline_ms:9.1}ms  kernel {kernel_ms:9.1}ms  ({speedup:.2}×)"
    );
    speedup
}

/// Radix partition product (counting over dense codes, no right-parent
/// materialization) vs the memoized probe-table product over pre-built
/// parent partitions — the PR 7 cache path with the parent build already
/// paid.
fn bench_kernel_product(rel: &Relation, obj: &mut String) -> f64 {
    let a = attr(rel, "pa");
    let b = attr(rel, "pb");
    let left = StrippedPartition::from_column(rel, a);
    let right = StrippedPartition::from_column(rel, b);
    let mut scratch = ProductScratch::new();
    let _ = left.product_with(&right, &mut scratch);
    let t0 = Instant::now();
    let hash = left.product_with(&right, &mut scratch);
    let baseline_ms = ms(t0.elapsed());
    let _ = left.product_with_column(rel.col(b), &mut scratch);
    let t0 = Instant::now();
    let radix = left.product_with_column(rel.col(b), &mut scratch);
    let kernel_ms = ms(t0.elapsed());
    let Some(radix) = radix else {
        eprintln!("error: radix product refused the kernel workload domain");
        std::process::exit(4);
    };
    assert_eq!(radix, hash, "radix product differs from probe product");
    push_kernel(obj, "partition_product", baseline_ms, kernel_ms, Some(2.0))
}

/// Distinct-value q-gram edit index (flat u64 grams, vec candidates) vs a
/// replica of the PR 7 builder: same distinct-value classing, but BTreeSet
/// gram/candidate bookkeeping and char-tuple postings.
fn bench_kernel_edit(rel: &Relation, obj: &mut String) -> f64 {
    let txt = attr(rel, "txt");
    const K: usize = 2;
    let _ = edit_index_pr7(rel.col(txt), K);
    let t0 = Instant::now();
    let reference = edit_index_pr7(rel.col(txt), K);
    let baseline_ms = ms(t0.elapsed());
    let _ = PairIndex::build_attr(rel, txt, PairSpec::Edit(K));
    let t0 = Instant::now();
    let fast = PairIndex::build_attr(rel, txt, PairSpec::Edit(K));
    let kernel_ms = ms(t0.elapsed());
    let Some((classes, links)) = reference else {
        eprintln!("error: PR 7 edit replica overflowed its link cap; retune the workload");
        std::process::exit(4);
    };
    assert!(fast.is_indexed(), "edit kernel fell back to the full scan");
    assert_eq!(
        fast.classes(),
        &classes[..],
        "edit classes differ from PR 7 replica"
    );
    assert_eq!(
        fast.links(),
        &links[..],
        "edit links differ from PR 7 replica"
    );
    push_kernel(obj, "edit_index", baseline_ms, kernel_ms, Some(2.0))
}

/// The PR 7 distinct-value edit builder, reproduced: classes keyed on
/// rendered text, `BTreeSet<(char, char)>` grams, `BTreeSet<usize>`
/// candidates, char-tuple postings.  Returns `None` past the link cap
/// (where the real builder degrades to a full scan).
#[allow(clippy::type_complexity)]
fn edit_index_pr7(col: &Column, k: usize) -> Option<(Vec<Vec<usize>>, Vec<(usize, usize)>)> {
    const NO_CLASS: u32 = u32::MAX;
    let dict = col.dict();
    let mut class_of: Vec<u32> = vec![NO_CLASS; dict.len()];
    let mut by_key: HashMap<Option<String>, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut texts: Vec<Option<Vec<char>>> = Vec::new();
    for (row, &code) in col.codes().iter().enumerate() {
        let cls = if class_of[code as usize] != NO_CLASS {
            class_of[code as usize] as usize
        } else {
            let v = &dict[code as usize];
            let key = (!v.is_null()).then(|| v.render().into_owned());
            let cls = *by_key.entry(key).or_insert_with(|| {
                classes.push(Vec::new());
                texts.push((!v.is_null()).then(|| v.render().chars().collect()));
                classes.len() - 1
            });
            class_of[code as usize] = cls as u32;
            cls
        };
        classes[cls].push(row);
    }
    const QGRAM: usize = 2;
    let short_lim = QGRAM * (k + 1);
    let cap = 8 * col.len() + 1024;
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut shorts: Vec<usize> = Vec::new();
    let mut postings: HashMap<(char, char), Vec<usize>> = HashMap::new();
    for (c, text) in texts.iter().enumerate() {
        let Some(chars) = text else { continue };
        let len_c = chars.len();
        let grams: BTreeSet<(char, char)> = chars.windows(QGRAM).map(|w| (w[0], w[1])).collect();
        let mut cand: BTreeSet<usize> = BTreeSet::new();
        for g in &grams {
            if let Some(list) = postings.get(g) {
                for &e in list {
                    let len_e = texts[e].as_ref().map_or(0, Vec::len);
                    if len_e.abs_diff(len_c) <= k {
                        cand.insert(e);
                    }
                }
            }
        }
        if len_c < short_lim {
            for &e in &shorts {
                let len_e = texts[e].as_ref().map_or(0, Vec::len);
                if len_e.abs_diff(len_c) <= k {
                    cand.insert(e);
                }
            }
            shorts.push(c);
        }
        for e in cand {
            links.push((e, c));
            if links.len() > cap {
                return None;
            }
        }
        for g in grams {
            postings.entry(g).or_default().push(c);
        }
    }
    Some((classes, links))
}

/// Vectorized band probe (8-lane compare-mask burst advance) vs the PR 7
/// scalar two-pointer sweep over the same sorted values. Clustered values
/// (the common shape of real numeric columns: dense runs separated by
/// gaps) make the low pointer sprint across each gap — exactly the case
/// the kernel vectorizes. No floor: the gain is
/// autovectorization-dependent.
fn bench_kernel_band(n: usize, obj: &mut String) {
    let mut rng = Rng::seed_from_u64(0x62616e64);
    let clusters = (n / 1000).max(1);
    let mut nums: Vec<f64> = (0..n)
        .map(|i| {
            let c = (i % clusters) as f64 * 1.0e4;
            c + rng.random_range(0..8_000i64) as f64 / 1000.0
        })
        .collect();
    nums.sort_unstable_by(f64::total_cmp);
    let theta = 16.0;
    let scalar = |nums: &[f64]| {
        let mut total = 0u64;
        let mut lo = 0usize;
        for hi in 0..nums.len() {
            while nums[hi] - nums[lo] > theta {
                lo += 1;
            }
            total += (hi - lo) as u64;
        }
        total
    };
    let want = scalar(&nums);
    let got = band_pairs_sorted(&nums, theta);
    let baseline_ms = time_min_ms(9, || scalar(&nums));
    let kernel_ms = time_min_ms(9, || band_pairs_sorted(&nums, theta));
    assert_eq!(got, want, "vector band count differs from scalar sweep");
    push_kernel(obj, "band_probe", baseline_ms, kernel_ms, None);
}
