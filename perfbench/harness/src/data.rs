//! Seeded workload inputs: the CSV tables and the request mixes.
//!
//! Every table is a pure function of the workload seed (and, for the
//! churn datasets, of the version number), so the same seed always gives
//! byte-identical inputs. The program under test only ever sees the
//! generated CSV text and request bodies.

use deptree_relation::{parse_csv, Relation, ValueType};
use deptree_serve::Json;
use std::fmt::Write as _;

/// Request deadline sent with every task request. Far above any
/// observed latency, so a served reply is never truncated by it.
pub const TIMEOUT_MS: u64 = 30_000;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One CSV table with its column-type spec (`c,t,n` letters).
pub struct Table {
    pub name: String,
    pub csv: String,
    pub types: String,
    pub rows: usize,
}

impl Table {
    fn new(name: &str, header: &str, types: &str) -> Table {
        Table {
            name: name.to_owned(),
            csv: format!("{header}\n"),
            types: types.to_owned(),
            rows: 0,
        }
    }

    fn push(&mut self, row: std::fmt::Arguments<'_>) {
        let _ = self.csv.write_fmt(row);
        self.csv.push('\n');
        self.rows += 1;
    }

    pub fn value_types(&self) -> Vec<ValueType> {
        value_types(&self.types)
    }

    /// Parse the table exactly as the server and the CLI do.
    pub fn relation(&self) -> Result<Relation, String> {
        parse_csv(&self.csv, &self.value_types()).map_err(|e| format!("{}: {e}", self.name))
    }

    /// The header plus the first data row: the smallest valid input.
    pub fn head(&self) -> String {
        self.csv.lines().take(2).map(|l| format!("{l}\n")).collect()
    }

    /// `POST /admin/datasets` body registering this table.
    pub fn upload_body(&self) -> String {
        Json::obj()
            .set("name", self.name.as_str())
            .set("csv", self.csv.as_str())
            .set("types", self.types.as_str())
            .render()
    }
}

/// Column types from a `c,t,n` spec.
pub fn value_types(spec: &str) -> Vec<ValueType> {
    spec.split(',')
        .map(|t| match t {
            "n" => ValueType::Numeric,
            "t" => ValueType::Text,
            _ => ValueType::Categorical,
        })
        .collect()
}

/// `profile_tall`: 200,000 rows × 6 columns. Four categorical columns
/// with cardinalities 7 to 2,000, a planted FD `sku -> brand` with ~2%
/// violations, and two numeric columns.
pub const TALL_ROWS: usize = 200_000;
pub const TALL_TYPES: &str = "c,c,c,c,n,n";

pub fn tall(seed: u64) -> Table {
    let mut rng = Rng::new(seed, 1);
    let mut t = Table::new("tall", "sku,brand,city,channel,price,qty", TALL_TYPES);
    for _ in 0..TALL_ROWS {
        let sku = rng.below(2_000);
        let brand = if rng.chance(0.02) {
            rng.below(150)
        } else {
            sku % 150
        };
        let city = rng.below(300);
        let channel = rng.below(7);
        let price = (sku * 37 % 1_000) * 10 + rng.below(10);
        let qty = rng.below(500) + 1;
        t.push(format_args!(
            "s{sku},b{brand},c{city},h{channel},{price},{qty}"
        ));
    }
    t
}

/// `serve_hot`: 8,000 rows × 5 columns in the shape of the repository's
/// `serve_loadgen` dataset (city → region with 2% planted violations).
pub fn hot(seed: u64) -> Table {
    let mut rng = Rng::new(seed, 2);
    let mut t = Table::new("hot", "city,region,zip,carrier,population", "c,c,c,c,n");
    for _ in 0..8_000 {
        let city = rng.below(211);
        let region = if rng.chance(0.02) { 97 } else { city % 23 };
        let zip = city % 89;
        let carrier = rng.below(7);
        let population = city * 1_000 + rng.below(13) * 17;
        t.push(format_args!(
            "c{city},r{region},z{zip},k{carrier},{population}"
        ));
    }
    t
}

/// The repository's `data/hotels.csv` sample, preloaded beside `hot`.
pub fn hotels(csv: String) -> Table {
    let rows = csv.lines().count().saturating_sub(1);
    Table {
        name: "hotels".into(),
        csv,
        types: "t,t,t,n,n".into(),
        rows,
    }
}

/// `serve_churn`, connection 0: 8,000 rows × 12 columns (11 categorical,
/// 1 numeric), one seeded table per uploaded version.
pub fn wide(seed: u64, version: u64) -> Table {
    let mut rng = Rng::new(seed, 100 + version);
    let mut t = Table::new(
        "wide",
        "k0,k1,k2,k3,k4,k5,k6,k7,k8,k9,k10,amount",
        "c,c,c,c,c,c,c,c,c,c,c,n",
    );
    for _ in 0..8_000 {
        let k: [u64; 9] = [2, 3, 5, 7, 11, 13, 50, 200, 1_000].map(|n| rng.below(n));
        let k9 = if rng.chance(0.02) {
            rng.below(40)
        } else {
            k[7] % 40
        };
        let k10 = if rng.chance(0.02) {
            rng.below(60)
        } else {
            (k[8] * 7 + k[3]) % 60
        };
        let amount = k[6] * 100 + rng.below(100);
        t.push(format_args!(
            "a{},b{},c{},d{},e{},f{},g{},h{},i{},j{k9},l{k10},{amount}",
            k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]
        ));
    }
    t
}

/// `serve_churn`, connection 1: 1,000 rows × 6 columns with two numeric
/// columns, so a served discover runs OD and FASTDC.
pub fn num(seed: u64, version: u64) -> Table {
    let mut rng = Rng::new(seed, 200 + version);
    let mut t = Table::new("num", "a,b,c,d,x,y", "c,c,c,c,n,n");
    for _ in 0..1_000 {
        let a = rng.below(20);
        let b = if rng.chance(0.02) {
            rng.below(11)
        } else {
            a * 3 % 11
        };
        let c = rng.below(5);
        let d = rng.below(50);
        let x = rng.below(10_000);
        let y = x * 2 + rng.below(50);
        t.push(format_args!("a{a},b{b},c{c},d{d},{x},{y}"));
    }
    t
}

/// Validate/detect rules per dataset.
pub fn rules(dataset: &str) -> &'static [&'static str] {
    match dataset {
        "hot" => &[
            "city -> region",
            "zip -> region",
            "city -> zip",
            "zip, carrier -> region",
            "region -> zip",
            "carrier -> region",
        ],
        "hotels" => &["address -> region", "name -> price"],
        "wide" => &["k7 -> k9", "k8, k3 -> k10", "k0 -> k1", "k8 -> k7"],
        "num" => &["a -> b", "a, c -> d", "x -> y", "d -> a"],
        _ => &[],
    }
}

/// `max_lhs` for each dataset's discover.
pub fn max_lhs(dataset: &str) -> u64 {
    if dataset == "wide" {
        3
    } else {
        2
    }
}

/// One task request: route plus JSON body.
#[derive(Clone)]
pub struct Req {
    /// Stable label, e.g. `discover:hot:2:0`.
    pub label: String,
    pub path: &'static str,
    pub dataset: String,
    pub body: String,
}

pub fn discover(dataset: &str, max_lhs: u64, error: f64) -> Req {
    let mut body = Json::obj()
        .set("dataset", dataset)
        .set("max_lhs", max_lhs)
        .set("timeout_ms", TIMEOUT_MS);
    if error > 0.0 {
        body = body.set("error", error);
    }
    Req {
        label: format!("discover:{dataset}:{max_lhs}:{error}"),
        path: "/v1/discover",
        dataset: dataset.to_owned(),
        body: body.render(),
    }
}

pub fn rule_req(task: &str, dataset: &str, rule: &str) -> Req {
    let (label, path) = match task {
        "validate" => ("validate", "/v1/validate"),
        _ => ("detect", "/v1/detect"),
    };
    Req {
        label: format!("{label}:{dataset}:{rule}"),
        path,
        dataset: dataset.to_owned(),
        body: Json::obj()
            .set("dataset", dataset)
            .set("rule", rule)
            .set("timeout_ms", TIMEOUT_MS)
            .render(),
    }
}

/// The 24 distinct `serve_hot` requests: 8 discovers, 16 validate/detect.
pub fn hot_requests() -> Vec<Req> {
    let mut reqs = Vec::new();
    for max_lhs in 1..=3 {
        for error in [0.0, 0.05] {
            reqs.push(discover("hot", max_lhs, error));
        }
    }
    for max_lhs in [2, 3] {
        reqs.push(discover("hotels", max_lhs, 0.0));
    }
    for dataset in ["hot", "hotels"] {
        for rule in rules(dataset) {
            reqs.push(rule_req("validate", dataset, rule));
            reqs.push(rule_req("detect", dataset, rule));
        }
    }
    reqs
}

/// Zipf(1.1) weights over `n` ranks, assigned to a fixed permutation of
/// the requests: a few requests are hot, the tail is cold but present.
/// The workload seed drives only the draws, so every seed sends the same
/// mix of requests in a different order.
pub struct Skew {
    cumulative: Vec<f64>,
    order: Vec<usize>,
}

impl Skew {
    pub fn new(n: usize) -> Skew {
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(0, 3);
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(1.1);
                total
            })
            .collect();
        Skew { cumulative, order }
    }

    /// The next request index.
    pub fn pick(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let u = rng.unit() * total;
        let rank = self.cumulative.partition_point(|&c| c <= u);
        self.order[rank.min(self.order.len() - 1)]
    }
}

/// The churn datasets, one per connection.
pub const CHURN_DATASETS: [&str; 2] = ["wide", "num"];

/// Versions each churn connection cycles through (1..=VERSIONS); version
/// 0 is the preloaded table.
pub const VERSIONS: u64 = 3;

pub fn churn_table(dataset: &str, seed: u64, version: u64) -> Table {
    if dataset == "wide" {
        wide(seed, version)
    } else {
        num(seed, version)
    }
}

/// Times a churn loop sends each read: the first recomputes, the rest
/// replay from the cache. With six replays per miss, the median request
/// is well inside the cache hits rather than on the edge between hits
/// and misses, where it would jump with the mix.
pub const SENDS: usize = 7;

/// Requests in one churn loop: the upload, then every read [`SENDS`]
/// times. It equals the server's default per-connection request cap, so
/// every block a connection holds the worker for is one whole loop, and
/// the other connection's wait (the p99) is one loop, not a varying
/// slice of one.
pub const LOOP: usize = 64;

/// The reads one churn loop sends after its upload.
pub fn churn_reads(dataset: &str) -> Vec<Req> {
    let mut reqs = vec![discover(dataset, max_lhs(dataset), 0.0)];
    for rule in rules(dataset) {
        reqs.push(rule_req("validate", dataset, rule));
        reqs.push(rule_req("detect", dataset, rule));
    }
    reqs
}
