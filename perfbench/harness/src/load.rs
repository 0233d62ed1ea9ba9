//! Closed-loop load against a running `deptree serve`.
//!
//! One connection per generator thread, at most `--conns` of each. A
//! connection sends its next request only after the previous reply, as
//! `deptree query` and the gateway do. Every reply is checked against
//! the in-process `serve::tasks` report for the relation and version the
//! connection owns; in `serve_hot` every replay must also be
//! byte-identical to the reply that populated the cache.

use crate::data::{self, Req, Rng, Skew, Table};
use crate::http::{self, Conn, IO_TIMEOUT};
use crate::oracle;
use deptree_serve::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Series scraped from `/metrics` before and after the timed window.
const SERIES: [&str; 10] = [
    "deptree_response_cache_hits_total",
    "deptree_response_cache_misses_total",
    "deptree_response_cache_evictions_total",
    "deptree_response_cache_bytes",
    "deptree_cache_hits_total",
    "deptree_cache_misses_total",
    "deptree_request_duration_seconds_sum",
    "deptree_request_duration_seconds_count",
    "deptree_shed_total",
    "deptree_dataset_bytes",
];

pub struct LoadArgs {
    pub workload: String,
    pub seed: u64,
    pub addr: String,
    pub seconds: f64,
    pub conns: usize,
    pub hotels: Table,
}

/// One connection's record of its window.
#[derive(Default)]
struct Tally {
    /// Latency of every attempt; a failure counts as the client timeout.
    lat_ms: Vec<f64>,
    /// `(completion time since the window opened, rows answered)` of
    /// every successful request.
    done: Vec<(f64, u64)>,
    attempted: u64,
    failed: u64,
    partial: u64,
    classes: BTreeMap<String, u64>,
    failures: Vec<String>,
    /// `serve_churn` replies, checked after the window.
    recorded: Vec<Recorded>,
}

struct Recorded {
    version: u64,
    /// `None` for the upload, else `(read index, repetition)`.
    read: Option<(usize, usize)>,
    body: Vec<u8>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.lat_ms.extend(other.lat_ms);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.partial += other.partial;
        for (k, v) in other.classes {
            *self.classes.entry(k).or_insert(0) += v;
        }
        self.failures.extend(other.failures);
    }
}

/// A keep-alive connection that re-dials after the server closes it.
struct Client<'a> {
    addr: &'a str,
    conn: Option<Conn>,
}

impl Client<'_> {
    /// Send one request, counting it in `tally`. Returns the reply body
    /// of a 200, and the latency including any re-dial.
    fn send(
        &mut self,
        tally: &mut Tally,
        class: &str,
        req_path: &str,
        body: &[u8],
    ) -> Option<Vec<u8>> {
        tally.attempted += 1;
        *tally.classes.entry(class.to_owned()).or_insert(0) += 1;
        let t0 = Instant::now();
        let reply = match self.conn.take() {
            Some(c) => Ok(c),
            None => Conn::open(self.addr),
        }
        .and_then(|mut c| c.call("POST", req_path, body).map(|r| (c, r)));
        match reply {
            Ok((conn, reply)) => {
                if !reply.close {
                    self.conn = Some(conn);
                }
                if reply.status != 200 {
                    tally.lat_ms.push(IO_TIMEOUT.as_secs_f64() * 1e3);
                    tally.fail(format!("{class}: HTTP {}", reply.status));
                    return None;
                }
                tally.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                Some(reply.body)
            }
            Err(e) => {
                tally.lat_ms.push(IO_TIMEOUT.as_secs_f64() * 1e3);
                tally.fail(format!("{class}: {e}"));
                None
            }
        }
    }
}

/// This process's CPU time (user + system) in seconds.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(") ")
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // Fields 14 and 15 of proc(5), counted after the command name; the
    // kernel reports them in USER_HZ ticks, which Linux fixes at 100.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

fn class_of(req: &Req) -> &str {
    req.path.trim_start_matches("/v1/")
}

fn report_of(body: &[u8]) -> Result<(String, bool), String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_owned())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let report = json.str_field("report").ok_or("reply has no report")?;
    Ok((report.to_owned(), json.bool_field("partial") == Some(true)))
}

pub fn run(args: &LoadArgs) -> Result<Json, String> {
    let deadline_after = Duration::from_secs_f64(args.seconds);
    let (tallies, elapsed, cpu, before, after) = match args.workload.as_str() {
        "serve_hot" => hot(args, deadline_after)?,
        "serve_churn" => churn(args, deadline_after)?,
        other => return Err(format!("no load for workload `{other}`")),
    };
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    let mut lat = tally.lat_ms.clone();
    lat.sort_by(f64::total_cmp);
    // Throughput is the median over equal slices of the window, so a
    // burst of load from outside the benchmark moves one slice, not the
    // result.
    let slice = args.seconds / SLICES as f64;
    let mut per_slice = [(0.0, 0.0); SLICES];
    for &(t, rows) in &tally.done {
        if let Some(s) = per_slice.get_mut((t / slice) as usize) {
            s.0 += 1.0 / slice;
            s.1 += rows as f64 / slice;
        }
    }
    let rps = median(per_slice.iter().map(|s| s.0).collect());
    let rows_per_s = median(per_slice.iter().map(|s| s.1).collect());
    let delta: Vec<f64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    let classes: Vec<(String, Json)> = tally
        .classes
        .iter()
        .map(|(k, v)| (k.clone(), Json::from(*v)))
        .collect();
    let failures: Vec<Json> = tally
        .failures
        .iter()
        .map(|s| Json::from(s.as_str()))
        .collect();
    Ok(Json::obj()
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("partial", tally.partial)
        .set("elapsed_s", elapsed)
        .set("rps", rps)
        .set("rows_per_s", rows_per_s)
        .set("p50_ms", percentile(&lat, 0.50))
        .set("p99_ms", tail(&lat))
        .set("mean_ms", lat.iter().sum::<f64>() / lat.len().max(1) as f64)
        .set("samples", lat.len())
        .set("cpu_share", cpu / elapsed)
        .set("classes", Json::Obj(classes))
        .set("failures", failures)
        .set(
            "server",
            Json::obj()
                .set("response_cache_hits", delta[0])
                .set("response_cache_misses", delta[1])
                .set("response_cache_evictions", delta[2])
                .set("response_cache_bytes", after[3])
                .set("partition_cache_hits", delta[4])
                .set("partition_cache_misses", delta[5])
                .set("duration_sum_s", delta[6])
                .set("duration_count", delta[7])
                .set("shed", delta[8])
                .set("dataset_bytes", after[9]),
        ))
}

/// Slices of the window that throughput is the median over.
const SLICES: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(&xs, 0.5)
}

/// The 99th percentile when at least ten samples lie beyond it; in a
/// smaller sample, the highest percentile that has ten samples beyond
/// it, but never below the median.
fn tail(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n >= 1000 {
        return percentile(sorted, 0.99);
    }
    let rank = n.saturating_sub(10).max(n.div_ceil(2)).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

type Window = (Vec<Tally>, f64, f64, Vec<f64>, Vec<f64>);

/// Run `per_conn` on `conns` connections (connection 0 on this thread),
/// scraping `/metrics` and this process's CPU time around the window.
fn window<F>(args: &LoadArgs, run_for: Duration, per_conn: F) -> Result<Window, String>
where
    F: Fn(usize, Instant, Instant) -> Tally + Sync,
{
    let scrape = || http::scrape(&args.addr, &SERIES).map_err(|e| format!("scrape: {e}"));
    let before = scrape()?;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + run_for;
    let tallies = std::thread::scope(|s| {
        let others: Vec<_> = (1..args.conns)
            .map(|c| {
                let per_conn = &per_conn;
                s.spawn(move || per_conn(c, t0, deadline))
            })
            .collect();
        let mut tallies = vec![per_conn(0, t0, deadline)];
        for h in others {
            tallies.push(h.join().unwrap_or_else(|_| {
                let mut t = Tally::default();
                t.fail("load thread panicked".into());
                t
            }));
        }
        tallies
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    let after = scrape()?;
    Ok((tallies, elapsed, cpu, before, after))
}

fn hot(args: &LoadArgs, run_for: Duration) -> Result<Window, String> {
    let hot = data::hot(args.seed);
    let relations = [
        ("hot", hot.relation()?, hot.rows),
        ("hotels", args.hotels.relation()?, args.hotels.rows),
    ];
    let of = |name: &str| relations.iter().find(|(n, _, _)| *n == name);
    let reqs = data::hot_requests();

    // Warm-up on one connection: populate the cache and check each
    // populating reply against the in-process report.
    let mut populating: Vec<Vec<u8>> = Vec::new();
    let mut conn = Conn::open(&args.addr).map_err(|e| format!("warm-up: {e}"))?;
    for req in &reqs {
        let (_, r, _) = of(&req.dataset).ok_or("unknown dataset")?;
        let expected = oracle::served_report(r, req)?;
        let reply = conn
            .call("POST", req.path, req.body.as_bytes())
            .map_err(|e| format!("warm-up {}: {e}", req.label))?;
        if reply.close {
            conn = Conn::open(&args.addr).map_err(|e| format!("warm-up: {e}"))?;
        }
        let (report, partial) = report_of(&reply.body)?;
        if reply.status != 200 || partial || report != expected {
            return Err(format!(
                "warm-up {}: served report differs from the in-process report",
                req.label
            ));
        }
        populating.push(reply.body);
    }
    drop(conn);

    let skew = Skew::new(reqs.len());
    window(args, run_for, |c, start, deadline| {
        let mut tally = Tally::default();
        let mut rng = Rng::new(args.seed, 10 + c as u64);
        let mut client = Client {
            addr: &args.addr,
            conn: None,
        };
        while Instant::now() < deadline {
            let i = skew.pick(&mut rng);
            let req = &reqs[i];
            if let Some(body) = client.send(&mut tally, &req.label, req.path, req.body.as_bytes()) {
                if body != populating[i] {
                    tally.fail(format!(
                        "{}: replay differs from the populating reply",
                        req.label
                    ));
                } else {
                    let rows = of(&req.dataset).map_or(0, |d| d.2 as u64);
                    tally.done.push((start.elapsed().as_secs_f64(), rows));
                }
            }
        }
        tally
    })
}

/// One churn connection's inputs: its versions and their expected reports.
struct Owned {
    dataset: &'static str,
    uploads: Vec<(Table, String)>,
    reads: Vec<Req>,
    /// `expected[version - 1][read]`.
    expected: Vec<Vec<String>>,
}

fn owned(seed: u64, c: usize) -> Result<Owned, String> {
    let dataset = data::CHURN_DATASETS[c];
    let reads = data::churn_reads(dataset);
    if 1 + data::SENDS * reads.len() != data::LOOP {
        return Err(format!("a {dataset} loop is not {} requests", data::LOOP));
    }
    let mut uploads = Vec::new();
    let mut expected = Vec::new();
    for version in 1..=data::VERSIONS {
        let table = data::churn_table(dataset, seed, version);
        let r = table.relation()?;
        expected.push(
            reads
                .iter()
                .map(|req| oracle::served_report(&r, req))
                .collect::<Result<Vec<_>, _>>()?,
        );
        let body = table.upload_body();
        uploads.push((table, body));
    }
    Ok(Owned {
        dataset,
        uploads,
        reads,
        expected,
    })
}

fn churn(args: &LoadArgs, run_for: Duration) -> Result<Window, String> {
    if args.conns > data::CHURN_DATASETS.len() {
        return Err("serve_churn has one dataset per connection; at most 2".into());
    }
    // Expected reports for every version, one thread per connection.
    let owned: Vec<Owned> = std::thread::scope(|s| {
        let others: Vec<_> = (1..args.conns)
            .map(|c| s.spawn(move || owned(args.seed, c)))
            .collect();
        let mut all = vec![owned(args.seed, 0)];
        for h in others {
            all.push(
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into())),
            );
        }
        all.into_iter().collect::<Result<Vec<_>, _>>()
    })?;

    let (mut tallies, elapsed, cpu, before, after) =
        window(args, run_for, |c, start, deadline| {
            let own = &owned[c];
            let mut tally = Tally::default();
            let mut client = Client {
                addr: &args.addr,
                conn: None,
            };
            let mut version = 0u64;
            'window: loop {
                version = version % data::VERSIONS + 1;
                let (table, upload) = &own.uploads[version as usize - 1];
                for step in 0..data::LOOP {
                    if Instant::now() >= deadline {
                        break 'window;
                    }
                    let (class, path, body, read) = if step == 0 {
                        (
                            format!("{}:upload", own.dataset),
                            "/admin/datasets",
                            upload.as_bytes(),
                            None,
                        )
                    } else {
                        let (j, rep) = ((step - 1) / data::SENDS, (step - 1) % data::SENDS);
                        let req = &own.reads[j];
                        let class = format!("{}:{}:{}", own.dataset, class_of(req), rep + 1);
                        (class, req.path, req.body.as_bytes(), Some((j, rep)))
                    };
                    match client.send(&mut tally, &class, path, body) {
                        Some(body) => {
                            tally
                                .done
                                .push((start.elapsed().as_secs_f64(), table.rows as u64));
                            tally.recorded.push(Recorded {
                                version,
                                read,
                                body,
                            });
                        }
                        None if step == 0 => continue 'window,
                        None => {}
                    }
                }
            }
            tally
        })?;
    for (own, tally) in owned.iter().zip(tallies.iter_mut()) {
        check_churn(own, tally);
    }
    Ok((tallies, elapsed, cpu, before, after))
}

/// Check a churn connection's replies after its window: uploads report
/// the table's size; reads carry the in-process report of the version
/// the connection last uploaded; a repeated read replays the first.
fn check_churn(own: &Owned, tally: &mut Tally) {
    let recorded = std::mem::take(&mut tally.recorded);
    let mut first: Option<&[u8]> = None;
    for rec in &recorded {
        let v = rec.version as usize - 1;
        let verdict = match rec.read {
            None => {
                let rows = own.uploads[v].0.rows as u64;
                match std::str::from_utf8(&rec.body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                {
                    Some(j)
                        if j.str_field("loaded") == Some(own.dataset)
                            && j.u64_field("rows") == Some(rows) =>
                    {
                        Ok(())
                    }
                    _ => Err("upload reply does not report the table".to_owned()),
                }
            }
            Some((j, rep)) => match report_of(&rec.body) {
                Err(e) => Err(e),
                Ok((_, true)) => {
                    tally.partial += 1;
                    Err("partial reply".to_owned())
                }
                Ok((report, false)) if report != own.expected[v][j] => {
                    Err("served report differs from the in-process report".to_owned())
                }
                Ok(_) if rep > 0 && first != Some(rec.body.as_slice()) => {
                    Err("repeated read is not a replay of the first".to_owned())
                }
                Ok(_) => Ok(()),
            },
        };
        if matches!(rec.read, Some((_, 0))) {
            first = Some(&rec.body);
        }
        if let Err(why) = verdict {
            tally.fail(format!("{} v{}: {why}", own.dataset, rec.version));
        }
    }
}
