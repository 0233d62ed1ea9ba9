//! The traced replay: a workload's operations run in process, with a
//! span around every call into a layer's public function.
//!
//! Each operation is a root span `op:<class>` whose children are the
//! calls the CLI or the server makes for it, in order. Layers that a
//! public function runs internally (the miners inside `tasks::profile`,
//! the JSON codec inside `AppState::cache_key`) are timed by calling
//! them again on an equal input under a second root, `shadow:<class>`,
//! so the operation tree never counts work twice. After a warm-up, the
//! sequence runs untraced and traced in turn, [`PAIRS`] times each; the
//! difference between the two totals is the tracing overhead, and the
//! traced passes together give the per-layer times.

use crate::data::{self, Req, Table};
use crate::oracle;
use crate::span::Tracer;
use deptree_core::engine::Exec;
use deptree_discovery::{cords, dc, od, tane};
use deptree_relation::{parse_csv, Relation, ValueType};
use deptree_serve::protocol::Request;
use deptree_serve::{tasks, AppState, DrainState, Json};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

/// Work counters gathered on the traced pass, per class.
#[derive(Default)]
struct Counts {
    ops: u64,
    parse_bytes: f64,
    tane_nodes: f64,
    tane_products: f64,
    tane_hits: f64,
    tane_misses: f64,
    dc_pairs: f64,
}

struct Replay {
    tracer: Tracer,
    counts: BTreeMap<String, Counts>,
    dataset_bytes: u64,
}

impl Replay {
    fn count(&mut self, class: &str) -> &mut Counts {
        self.counts.entry(class.to_owned()).or_default()
    }

    /// Time the profile layers from outside on a fresh relation, in the
    /// order `tasks::profile` calls them, under `exec`'s budget.
    fn shadow_profile(
        &mut self,
        class: &str,
        r: &Relation,
        opts: &tasks::ProfileOpts,
        exec: &Exec,
    ) {
        let t = self.tracer.time("discovery.tane", || {
            tane::discover_bounded(
                r,
                &tane::TaneConfig {
                    max_lhs: opts.max_lhs,
                    max_error: opts.error,
                },
                exec,
            )
        });
        let c = self.tracer.time("discovery.cords", || {
            cords::discover(
                r,
                &cords::CordsConfig {
                    min_strength: 0.8,
                    ..Default::default()
                },
            )
        });
        self.tracer.time("serve.tasks.strength", || {
            for sfd in c.sfds.iter().take(10) {
                black_box(sfd.strength(r));
            }
        });
        let numeric = r
            .schema()
            .iter()
            .filter(|(_, a)| a.ty == ValueType::Numeric)
            .count();
        let mut pairs = 0;
        if numeric >= 2 {
            self.tracer.time("discovery.od", || {
                black_box(od::discover_bounded(r, &od::OdConfig::default(), exec))
            });
            if r.n_rows() <= 500 || !exec.budget().is_unlimited() {
                let d = self.tracer.time("discovery.dc", || {
                    dc::discover_bounded(r, &dc::DcConfig::default(), exec)
                });
                pairs = d.stats.rows_processed;
            }
        }
        if self.tracer.enabled() {
            let s = &t.result.stats;
            let counts = self.count(class);
            counts.tane_nodes += s.nodes_visited as f64;
            counts.tane_products += s.partition_products as f64;
            counts.tane_hits += s.cache_hits as f64;
            counts.tane_misses += s.cache_misses as f64;
            counts.dc_pairs += pairs as f64;
        }
    }
}

fn request(req: &Req) -> Request {
    Request {
        method: "POST".into(),
        path: req.path.into(),
        headers: Vec::new(),
        body: req.body.clone().into_bytes(),
        keep_alive: true,
    }
}

fn parse(table: &Table) -> Result<Relation, String> {
    parse_csv(&table.csv, &table.value_types()).map_err(|e| e.to_string())
}

fn app(tables: &[&Table]) -> Result<AppState, String> {
    let mut datasets = BTreeMap::new();
    for t in tables {
        datasets.insert(t.name.clone(), t.relation()?);
    }
    // The CLI's `serve` defaults: one engine thread, 10 s default and
    // 60 s maximum deadline, 64 MiB response cache.
    Ok(AppState::new(
        datasets,
        DrainState::new(),
        1,
        Duration::from_secs(10),
        Duration::from_secs(60),
        64 << 20,
    ))
}

/// One `deptree profile` run: parse, then the profile task; the layers
/// inside the task are timed on a second parse of the same text.
fn profile_tall(rp: &mut Replay, table: &Table) -> Result<(), String> {
    let opts = tasks::ProfileOpts {
        max_lhs: 2,
        error: 0.0,
    };
    rp.tracer.begin_op("op:profile");
    let r = rp.tracer.time("relation.csv.parse", || parse(table))?;
    let exec = oracle::cli_exec();
    let report = rp
        .tracer
        .time("serve.tasks.profile", || tasks::profile(&r, &opts, &exec));
    rp.tracer.end();
    black_box(report);
    rp.dataset_bytes = r.approx_bytes();
    drop(r);

    rp.tracer.begin("shadow:profile");
    let r = rp.tracer.time("shadow.parse", || parse(table))?;
    rp.shadow_profile("profile", &r, &opts, &oracle::cli_exec());
    rp.tracer.end();
    let counts = rp.count("profile");
    counts.ops += 1;
    counts.parse_bytes += table.csv.len() as f64;
    Ok(())
}

/// A task request as the server answers it: cache key, lookup, and on a
/// miss the router plus the cache store. Returns whether it was a hit.
fn serve_request(rp: &mut Replay, app: &AppState, class: &str, req: &Req) -> bool {
    let request = request(req);
    rp.tracer.begin_op(&format!("op:{class}"));
    let key = rp
        .tracer
        .time("serve.router.cache_key", || app.cache_key(&request));
    let hit = rp.tracer.time("serve.cache.lookup", || {
        key.as_ref().and_then(|k| app.cache_lookup(k))
    });
    let reply = match hit {
        Some(_) => None,
        None => {
            let (status, body) = rp.tracer.time("serve.router.handle", || {
                deptree_serve::router::handle(app, &request)
            });
            if let Some(k) = key {
                rp.tracer
                    .time("serve.cache.store", || app.cache_store(k, status, &body));
            }
            Some(body)
        }
    };
    rp.tracer.end();
    rp.count(class).ops += 1;

    rp.tracer.begin(&format!("shadow:{class}"));
    let parsed = rp
        .tracer
        .time("serve.json.parse", || Json::parse(&req.body));
    match &reply {
        Some(body) => rp
            .tracer
            .time("serve.json.render", || black_box(body.render())),
        None => rp.tracer.time("serve.json.render", || {
            black_box(parsed.as_ref().map(Json::render).unwrap_or_default())
        }),
    };
    rp.tracer.end();
    reply.is_none()
}

/// `serve_hot`: every distinct request, warm, `reps` times each.
fn serve_hot(rp: &mut Replay, hotels: &Table, seed: u64, reps: usize) -> Result<(), String> {
    let hot = data::hot(seed);
    let app = app(&[&hot, hotels])?;
    let reqs = data::hot_requests();
    for req in &reqs {
        let request = request(req);
        let (status, body) = deptree_serve::router::handle(&app, &request);
        if let Some(key) = app.cache_key(&request) {
            app.cache_store(key, status, &body);
        }
    }
    for _ in 0..reps {
        for req in &reqs {
            if !serve_request(rp, &app, &req.label, req) {
                return Err(format!("{}: warm replay missed the cache", req.label));
            }
        }
    }
    rp.dataset_bytes = ["hot", "hotels"]
        .iter()
        .filter_map(|n| app.dataset(n))
        .map(|r| r.approx_bytes())
        .sum();
    Ok(())
}

/// `serve_churn`: one loop per connection dataset, as in the window.
fn serve_churn(rp: &mut Replay, seed: u64, conns: usize) -> Result<(), String> {
    let initial: Vec<Table> = data::CHURN_DATASETS[..conns]
        .iter()
        .map(|d| data::churn_table(d, seed, 0))
        .collect();
    let app = app(&initial.iter().collect::<Vec<_>>())?;
    for dataset in &data::CHURN_DATASETS[..conns] {
        let table = data::churn_table(dataset, seed, 1);
        let upload = table.upload_body();
        let class = format!("{dataset}:upload");

        // The upload, as `POST /admin/datasets` runs it.
        rp.tracer.begin_op(&format!("op:{class}"));
        let body = rp.tracer.time("serve.json.parse", || Json::parse(&upload));
        let body = body.map_err(|e| e.to_string())?;
        let csv = body.str_field("csv").unwrap_or_default();
        let relation = rp.tracer.time("relation.csv.parse", || {
            parse_csv(csv, &table.value_types())
        });
        let relation = relation.map_err(|e| e.to_string())?;
        rp.tracer.time("serve.router.insert_dataset", || {
            app.insert_dataset(table.name.clone(), relation)
        });
        rp.tracer.end();
        let counts = rp.count(&class);
        counts.ops += 1;
        counts.parse_bytes += csv.len() as f64;

        // A fresh parse for the shadow calls, aged like the served copy.
        let shadow = parse(&table)?;
        for req in data::churn_reads(dataset) {
            let kind = req.path.trim_start_matches("/v1/");
            let class = format!("{dataset}:{kind}:1");
            if serve_request(rp, &app, &class, &req) {
                return Err(format!("{}: first read hit the cache", req.label));
            }
            rp.tracer.begin(&format!("shadow:{class}"));
            let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
            let rule = body.str_field("rule").unwrap_or_default();
            match kind {
                "discover" => {
                    let opts = oracle::profile_opts(&body);
                    rp.shadow_profile(&class, &shadow, &opts, &oracle::served_exec());
                }
                "validate" => {
                    rp.tracer.time("core.fd.validate", || {
                        black_box(tasks::validate(&shadow, rule).is_ok())
                    });
                }
                _ => {
                    rp.tracer.time("core.fd.detect", || {
                        black_box(tasks::detect(&shadow, rule).is_ok())
                    });
                }
            }
            rp.tracer.end();
            for send in 2..=data::SENDS {
                let class = format!("{dataset}:{kind}:{send}");
                if !serve_request(rp, &app, &class, &req) {
                    return Err(format!("{}: repeated read missed the cache", req.label));
                }
            }
        }
    }
    rp.dataset_bytes = data::CHURN_DATASETS[..conns]
        .iter()
        .filter_map(|n| app.dataset(n))
        .map(|r| r.approx_bytes())
        .sum();
    Ok(())
}

pub struct ReplayArgs {
    pub workload: String,
    pub seed: u64,
    pub conns: usize,
    pub hotels: Table,
    pub spans_out: String,
}

/// One replay of the workload; `tall` is the `profile_tall` input.
/// Untraced and traced passes alternate this many times each, so a slow
/// spell of the machine lands on both sides of the overhead ratio.
const PAIRS: usize = 3;

impl Replay {
    fn new(traced: bool) -> Replay {
        Replay {
            tracer: Tracer::new(traced),
            counts: BTreeMap::new(),
            dataset_bytes: 0,
        }
    }

    /// One replay of the workload; `tall` is the `profile_tall` input.
    fn pass(&mut self, args: &ReplayArgs, tall: Option<&Table>) -> Result<(), String> {
        match args.workload.as_str() {
            "profile_tall" => profile_tall(self, tall.ok_or("no profile_tall input")?),
            "serve_hot" => serve_hot(self, &args.hotels, args.seed, 100),
            "serve_churn" => serve_churn(self, args.seed, args.conns),
            other => Err(format!("no replay for workload `{other}`")),
        }
    }
}

/// Warm up, then alternate untraced and traced passes, and report over
/// the traced passes, per class: the number of operations, each layer's
/// self time in ms, the time the operation trees attribute to named
/// layers, and the work counters.
pub fn run(args: &ReplayArgs) -> Result<Json, String> {
    let tall = (args.workload == "profile_tall").then(|| data::tall(args.seed));
    Replay::new(false).pass(args, tall.as_ref())?;
    let mut untraced = Replay::new(false);
    let mut rp = Replay::new(true);
    for _ in 0..PAIRS {
        untraced.pass(args, tall.as_ref())?;
        rp.pass(args, tall.as_ref())?;
    }
    let untraced_ms = untraced.tracer.root_ms();
    let traced_ms = rp.tracer.root_ms();
    std::fs::write(&args.spans_out, rp.tracer.to_jsonl())
        .map_err(|e| format!("{}: {e}", args.spans_out))?;
    let mut classes = Json::obj();
    for (class, c) in &rp.counts {
        if c.ops == 0 {
            continue;
        }
        let (mut layers, covered) = rp.tracer.self_times(&format!("op:{class}"));
        let (shadow, _) = rp.tracer.self_times(&format!("shadow:{class}"));
        layers.extend(shadow);
        layers.remove("shadow.parse");
        let mut obj = Json::obj();
        for (name, ms) in layers {
            obj = obj.set(&name, ms);
        }
        classes = classes.set(
            class,
            Json::obj()
                .set("ops", c.ops)
                .set("covered_ms", covered)
                .set("layers_ms", obj)
                .set("parse_bytes", c.parse_bytes)
                .set("tane_nodes", c.tane_nodes)
                .set("tane_products", c.tane_products)
                .set("tane_hits", c.tane_hits)
                .set("tane_misses", c.tane_misses)
                .set("dc_pairs", c.dc_pairs),
        );
    }
    Ok(Json::obj()
        .set("untraced_ms", untraced_ms)
        .set("traced_ms", traced_ms)
        .set("dataset_bytes", rp.dataset_bytes)
        .set("classes", classes))
}
