//! `deptree gateway`: a supervising front for a fleet of `deptree serve`
//! workers — sharding, health-probed respawn, and a self-healing data
//! plane (DESIGN.md §12).
//!
//! The gateway is one process that:
//!
//! - **spawns and supervises** N worker processes on ephemeral ports
//!   (`supervisor`): crash → exponential-backoff respawn, crash loop →
//!   quarantine, wedged worker → `/readyz` probes declare it dead;
//! - **places datasets** (`shard`): whole datasets get a digest-stable
//!   home worker (plus optional replicas), sharded datasets are split
//!   into contiguous row slices — each slice registered as `dataset#i`
//!   on its primary and on `--replicas` successor workers — with the
//!   full snapshot retained in the gateway for merging;
//! - **routes requests**: single-dataset requests are proxied to the
//!   home worker byte-for-byte (replica failover on refusal), discovery
//!   over a sharded dataset fans out per slice under a split budget to
//!   the least-loaded live copy (hedging to the next copy when the
//!   first runs slow) and merges with full-snapshot re-validation
//!   (`merge`);
//! - **heals instead of degrading**: a background replane loop watches
//!   the routing table — a slice whose every boot copy is dead gets
//!   re-homed onto a live survivor by POSTing the retained slice file
//!   (`/admin/datasets`), and re-absorbed back once the primary has
//!   settled. A crash is a degraded blip of at most one replane tick,
//!   not a respawn-backoff-long outage;
//! - **restarts rolling**: `POST /admin/reload` (or SIGHUP) drains one
//!   worker at a time — pre-homing its sole copies, waiting for the
//!   respawn to go ready before touching the next slot — so capacity
//!   never drops below N−1 and no request is refused;
//! - **front-ends with the same hardened listener** as `deptree serve`
//!   ([`crate::listener`]): admission control, slow-loris bounds, panic
//!   barrier, and the two-phase drain all apply unchanged.
//!
//! Lifecycle on SIGTERM: stop accepting, drain in-flight fan-outs,
//! SIGTERM every worker, reap each under a grace (SIGKILL past it),
//! exit 0 — see [`GatewayHandle::drain_and_join`].

mod chaos;
mod merge;
mod shard;
mod supervisor;

pub use shard::DatasetSpec;

use crate::client::{self, ClientConfig};
use crate::drain::DrainState;
use crate::json::Json;
use crate::listener::{spawn_service, ListenOpts, ServerHandle, Service, ServiceReply};
use crate::protocol::{error_body, ErrorCode, Request};
use crate::router::{self, AppState};
use crate::telemetry;
use deptree_core::engine::obs::Gauge;
use deptree_core::engine::Budget;
use deptree_core::DeptreeError;
use merge::ShardReply;
use shard::SliceRoute;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};
use supervisor::{log, Supervisor, SupervisorConfig};

/// Everything `spawn_gateway` needs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The worker binary; normally the running `deptree` binary itself.
    pub worker_bin: PathBuf,
    /// How many workers to supervise.
    pub workers: usize,
    /// Extra copies of each dataset on successor workers: proxy
    /// failover for whole datasets, replica reads for sharded slices.
    pub replicas: usize,
    /// Datasets to place, from `--data` / `--shard`.
    pub datasets: Vec<DatasetSpec>,
    /// Parse CSVs leniently (drop bad rows with a warning).
    pub lossy: bool,
    /// Engine threads per worker (and for the gateway's local tasks).
    pub worker_threads: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard cap on any requested deadline.
    pub max_deadline: Duration,
    /// Base respawn delay after a worker crash.
    pub respawn_base: Duration,
    /// Cap on the exponential respawn delay.
    pub respawn_max: Duration,
    /// Uptime below this counts as a fast crash (quarantine fuel).
    pub fast_crash: Duration,
    /// Consecutive fast crashes before a worker is quarantined.
    pub quarantine_after: u32,
    /// How long a quarantined worker sits out before probation.
    pub quarantine_cooldown: Duration,
    /// How often each Up worker's `/readyz` is probed.
    pub probe_interval: Duration,
    /// Consecutive failed probes before a worker is declared dead.
    pub probe_failures: u32,
    /// How long a starting worker may take to announce its address.
    pub spawn_timeout: Duration,
    /// SIGTERM→SIGKILL grace per worker at shutdown and rolling drain.
    pub child_grace: Duration,
    /// Test-only: arm a deterministic kill/wedge/slow schedule derived
    /// from this seed against the fleet (the `chaos` module).
    pub chaos_seed: Option<u64>,
    /// Front-end transport knobs (bind address, admission, timeouts).
    pub listen: ListenOpts,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            worker_bin: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("deptree")),
            workers: 4,
            replicas: 0,
            datasets: Vec::new(),
            lossy: false,
            worker_threads: 1,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            respawn_base: Duration::from_millis(500),
            respawn_max: Duration::from_secs(15),
            fast_crash: Duration::from_secs(1),
            quarantine_after: 3,
            quarantine_cooldown: Duration::from_secs(30),
            probe_interval: Duration::from_millis(500),
            probe_failures: 3,
            spawn_timeout: Duration::from_secs(10),
            child_grace: Duration::from_secs(5),
            chaos_seed: None,
            listen: ListenOpts::default(),
        }
    }
}

/// How often the replane loop re-examines the routing table. A dead
/// slice is therefore unreachable for at most one tick plus one
/// slice-file POST before a survivor serves it.
const REPLANE_INTERVAL: Duration = Duration::from_millis(50);

/// A point-in-time copy of every slice's route and overlay entry,
/// taken under the read lock so healing decisions run outside it.
type RouteSnapshot = Vec<(String, SliceRoute, Option<(usize, u64)>)>;

/// One slice's runtime routing state: the boot placement plus the
/// healing overlay.
struct SliceState {
    route: SliceRoute,
    /// Survivor currently holding a POSTed copy of the slice, recorded
    /// with the epoch it was POSTed under: an epoch move means the copy
    /// died with that process, invalidating the entry.
    rehomed: Option<(usize, u64)>,
}

/// The gateway's [`Service`]: routing on top of the shared listener.
struct GatewayState {
    supervisor: Arc<Supervisor>,
    /// Full snapshots of sharded datasets; answers non-discovery tasks
    /// locally and re-validates merged candidates.
    local: AppState,
    /// Sharded dataset → runtime routing table, one entry per slice.
    slices: RwLock<BTreeMap<String, Vec<SliceState>>>,
    /// Whole dataset → candidate workers (home first, then replicas).
    homes: BTreeMap<String, Vec<usize>>,
    drain: Arc<DrainState>,
    default_deadline: Duration,
    max_deadline: Duration,
    /// Gateway→worker in-flight gauges, one per slot; the fan-out sorts
    /// slice copies by these to pick the least-loaded one.
    inflight: Vec<Arc<Gauge>>,
    /// Set while the coordinator is running a rolling restart.
    reloading: AtomicBool,
    /// Edge-trigger from `/admin/reload` / SIGHUP to the coordinator.
    reload_requested: AtomicBool,
    /// How long a rolling restart waits for a drained slot to return.
    restart_wait: Duration,
    /// Idle keep-alive connections to workers, shared across the proxy,
    /// catalogue, metrics and slice-read paths. A worker restart leaves
    /// stale sockets behind; the pooled client falls back to a fresh
    /// dial, so staleness costs one round trip, never a failed request.
    pool: client::ConnPool,
}

impl Service for GatewayState {
    fn respond(&self, req: &Request) -> ServiceReply {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => ServiceReply::Text(200, self.aggregated_metrics()),
            ("GET", "/healthz") => ServiceReply::Json(200, self.healthz()),
            ("GET", "/readyz") => {
                let (status, body) = self.readyz();
                ServiceReply::Json(status, body)
            }
            ("GET", "/v1/datasets") => ServiceReply::Json(200, self.catalogue()),
            (
                "POST",
                "/v1/discover" | "/v1/validate" | "/v1/detect" | "/v1/repair" | "/v1/dedup",
            ) => self.task(req),
            ("POST", "/admin/reload") => self.reload(),
            (_, "/admin/reload") => {
                reply_err(ErrorCode::MethodNotAllowed, "use POST /admin/reload")
            }
            // Worker-internal surface: the replane loop POSTs slices to
            // workers directly; letting these through to the gateway's
            // own router would silently mutate the merge snapshot.
            (_, "/admin/datasets" | "/admin/datasets/drop") => reply_err(
                ErrorCode::Unsupported,
                "dataset admin is internal to the data plane; place datasets via gateway flags",
            ),
            // Everything else (method mismatches, unknown routes) gets the
            // router's own answers, byte-identical to a single worker's.
            _ => {
                let (status, body) = router::handle(&self.local, req);
                ServiceReply::Json(status, body)
            }
        }
    }

    fn drain_handle(&self) -> &Arc<DrainState> {
        &self.drain
    }
}

impl GatewayState {
    fn healthz(&self) -> Json {
        Json::obj()
            .set("status", "ok")
            .set("draining", self.drain.is_draining())
            .set("inflight", self.drain.inflight() as u64)
            .set("workers", self.supervisor.status_json())
            .set("quarantined", self.supervisor.quarantined_count() as u64)
            .set("resharded", self.resharded_count())
            .set("reloading", self.reloading.load(Ordering::Acquire))
    }

    /// Slices currently living on a re-homed survivor copy.
    fn resharded_count(&self) -> u64 {
        let table = self.slices.read().unwrap_or_else(PoisonError::into_inner);
        table
            .values()
            .flat_map(|slices| slices.iter())
            .filter(|s| s.rehomed.is_some())
            .count() as u64
    }

    fn readyz(&self) -> (u16, Json) {
        if self.drain.is_draining() {
            return (
                503,
                Json::obj().set("ready", false).set(
                    "error",
                    Json::obj()
                        .set("code", ErrorCode::Draining.wire())
                        .set("message", "server is draining; retry elsewhere"),
                ),
            );
        }
        let up = self.supervisor.live_count();
        if up == 0 {
            return (
                503,
                Json::obj().set("ready", false).set(
                    "error",
                    Json::obj()
                        .set("code", ErrorCode::Overloaded.wire())
                        .set("message", "no live workers"),
                ),
            );
        }
        (
            200,
            Json::obj().set("ready", true).set("workers_up", up as u64),
        )
    }

    /// Union catalogue: sharded datasets from the local snapshots (full
    /// row counts, not slice counts), whole datasets from their home
    /// worker's own catalogue. Unreachable datasets are omitted; they
    /// reappear when a home or replica comes back.
    fn catalogue(&self) -> Json {
        let mut entries: BTreeMap<String, (u64, u64)> = self
            .local
            .dataset_summaries()
            .into_iter()
            .map(|(name, rows, columns)| (name, (rows as u64, columns as u64)))
            .collect();
        let mut fetched: BTreeMap<usize, Option<Json>> = BTreeMap::new();
        for (name, holders) in &self.homes {
            for &w in holders {
                let Some(addr) = self.supervisor.worker_addr(w) else {
                    continue;
                };
                let body = fetched.entry(w).or_insert_with(|| {
                    client::query_pooled(
                        &self.pool,
                        &self.worker_client(&addr, 0, Duration::from_secs(5)),
                        "GET",
                        "/v1/datasets",
                        None,
                    )
                    .ok()
                    .map(|r| r.body)
                });
                let Some(body) = body else { continue };
                let found = body
                    .get("datasets")
                    .and_then(Json::as_arr)
                    .and_then(|list| {
                        list.iter()
                            .find(|d| d.str_field("name") == Some(name.as_str()))
                            .map(|d| {
                                (
                                    d.u64_field("rows").unwrap_or(0),
                                    d.u64_field("columns").unwrap_or(0),
                                )
                            })
                    });
                if let Some(dims) = found {
                    entries.insert(name.clone(), dims);
                    break;
                }
            }
        }
        let list: Vec<Json> = entries
            .iter()
            .map(|(name, (rows, columns))| {
                Json::obj()
                    .set("name", name.as_str())
                    .set("rows", *rows)
                    .set("columns", *columns)
            })
            .collect();
        Json::obj().set("datasets", list)
    }

    /// Gateway registry first, then every live worker's exposition with
    /// a `worker="N"` label injected so same-named series stay apart.
    fn aggregated_metrics(&self) -> String {
        let mut out = telemetry::render();
        for (w, addr) in self.supervisor.live() {
            let cfg = self.worker_client(&addr, 0, Duration::from_secs(5));
            if let Ok((200, text)) = client::fetch_text_pooled(&self.pool, &cfg, "/metrics") {
                out.push_str(&telemetry::relabel_worker(&text, w));
            }
        }
        out
    }

    /// Kick off a rolling restart: flag the coordinator thread and
    /// return immediately — progress is observable in `/healthz`
    /// (`reloading`) and the per-worker restart counters.
    fn reload(&self) -> ServiceReply {
        let _inflight = self.drain.track();
        if self.drain.is_draining() {
            return reply_err(ErrorCode::Draining, "server is draining");
        }
        if !self.request_reload() {
            return reply_err(
                ErrorCode::Overloaded,
                "a rolling restart is already in progress",
            );
        }
        log("rolling restart requested via POST /admin/reload");
        ServiceReply::Json(
            200,
            Json::obj()
                .set("reload", "started")
                .set("workers", self.supervisor.slot_count() as u64),
        )
    }

    /// Edge-trigger a rolling restart; `false` when one is already
    /// running or pending.
    fn request_reload(&self) -> bool {
        if self.reloading.load(Ordering::Acquire) {
            return false;
        }
        !self.reload_requested.swap(true, Ordering::AcqRel)
    }

    fn task(&self, req: &Request) -> ServiceReply {
        // Track before the drain check, like the router: the drain
        // coordinator must never miss a fan-out that raced past the flag.
        let _inflight = self.drain.track();
        if self.drain.is_draining() {
            return reply_err(ErrorCode::Draining, "server is draining");
        }
        let body = match std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_owned())
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
        {
            Ok(v) => v,
            Err(msg) => return reply_err(ErrorCode::Parse, &msg),
        };
        let Some(name) = body.str_field("dataset") else {
            return reply_err(ErrorCode::BadRequest, "missing `dataset` field");
        };
        if self.local.dataset(name).is_some() {
            if req.path == "/v1/discover" {
                return self.fan_out(name, &body);
            }
            // Validate/detect/repair/dedup on a sharded dataset: answer
            // from the full local snapshot through the shared router, so
            // the rendering path (and therefore the bytes) match a
            // single worker holding the whole dataset.
            let (status, body) = router::handle(&self.local, req);
            return ServiceReply::Json(status, body);
        }
        let name = name.to_owned();
        match self.homes.get(&name) {
            Some(holders) => self.proxy(req, &name, holders),
            None => reply_err(ErrorCode::NotFound, &format!("unknown dataset `{name}`")),
        }
    }

    /// Proxy a whole-dataset request to its home worker, failing over to
    /// replicas in digest order. The worker's response body is forwarded
    /// byte-for-byte. A holder that answers but only to refuse (429
    /// overloaded / 503 draining — e.g. mid rolling restart with its
    /// retry budget spent) is treated as a failover signal too; its
    /// refusal is forwarded only when every holder refused.
    fn proxy(&self, req: &Request, name: &str, holders: &[usize]) -> ServiceReply {
        let deadline = self.deadline_of(req);
        let mut last_err: Option<client::ClientError> = None;
        let mut last_refusal: Option<client::RawResponse> = None;
        for &w in holders {
            let Some(addr) = self.supervisor.worker_addr(w) else {
                continue;
            };
            let cfg = self.worker_client(&addr, 1, deadline);
            match client::forward_pooled(&self.pool, &cfg, &req.method, &req.path, Some(&req.body))
            {
                Ok(raw) if matches!(raw.status, 429 | 503) => {
                    log(&format!(
                        "proxy of `{name}` to worker {w} refused ({}): failing over",
                        raw.status
                    ));
                    last_refusal = Some(raw);
                }
                Ok(raw) => {
                    telemetry::gateway_metrics().proxied.inc();
                    return ServiceReply::Bytes(raw.status, raw.body);
                }
                Err(e) => {
                    log(&format!(
                        "proxy of `{name}` to worker {w} failed ({}): failing over",
                        e.code.wire()
                    ));
                    last_err = Some(e);
                }
            }
        }
        if let Some(raw) = last_refusal {
            telemetry::gateway_metrics().proxied.inc();
            return ServiceReply::Bytes(raw.status, raw.body);
        }
        match last_err {
            Some(e) => reply_err(
                e.code,
                &format!("every holder of `{name}` failed; last: {}", e.message),
            ),
            None => reply_err(
                ErrorCode::Overloaded,
                &format!("no live worker holds `{name}` (respawning); retry"),
            ),
        }
    }

    /// Row-sharded discovery: scatter per slice to the least-loaded live
    /// copy under a split budget — hedging to the next copy when the
    /// first runs slow — then union + re-validate on the full snapshot.
    /// Always 200 — a missing slice degrades the merge, never the
    /// request.
    fn fan_out(&self, name: &str, body: &Json) -> ServiceReply {
        let started = Instant::now();
        let routes: Vec<(SliceRoute, Option<(usize, u64)>)> = {
            let table = self.slices.read().unwrap_or_else(PoisonError::into_inner);
            match table.get(name) {
                Some(list) => list.iter().map(|s| (s.route.clone(), s.rehomed)).collect(),
                None => return reply_err(ErrorCode::Internal, "sharded dataset lost its plan"),
            }
        };
        let Some(full) = self.local.dataset(name) else {
            return reply_err(ErrorCode::Internal, "sharded dataset lost its snapshot");
        };
        let shards = routes.len().max(1);

        // One request budget, split into per-shard shares. Counter caps
        // divide (ceil); the wall-clock deadline is shared because the
        // shards run concurrently.
        let deadline = match body.get("timeout_ms") {
            None => self.default_deadline,
            Some(v) => match v.as_u64() {
                Some(ms) => Duration::from_millis(ms).min(self.max_deadline),
                None => {
                    return reply_err(
                        ErrorCode::InvalidConfig,
                        "bad `timeout_ms` (want a non-negative integer)",
                    )
                }
            },
        };
        let mut budget = Budget::new().with_deadline(deadline);
        for (field, setter) in [
            (
                "max_nodes",
                Budget::with_max_nodes as fn(Budget, u64) -> Budget,
            ),
            ("max_rows", Budget::with_max_rows),
        ] {
            if let Some(v) = body.get(field) {
                match v.as_u64() {
                    Some(n) => budget = setter(budget, n),
                    None => {
                        return reply_err(
                            ErrorCode::InvalidConfig,
                            &format!("bad `{field}` (want a non-negative integer)"),
                        )
                    }
                }
            }
        }
        let share = budget.split(shards);
        let error = body.f64_field("error").unwrap_or(0.0);
        // Holder-independent payload: every copy registers the slice
        // under the same `dataset#i` name, so only `dataset` varies per
        // slice, never per copy.
        let mut wbody = Json::obj()
            .set("max_lhs", body.u64_field("max_lhs").unwrap_or(2))
            .set("error", error)
            .set("timeout_ms", deadline.as_millis() as u64);
        if let Some(n) = share.max_nodes {
            wbody = wbody.set("max_nodes", n);
        }
        if let Some(n) = share.max_rows {
            wbody = wbody.set("max_rows", n);
        }
        let hedge = hedge_delay(deadline);
        let mut replies: Vec<ShardReply> = Vec::with_capacity(shards);
        let mut joins = Vec::new();
        for (route, rehomed) in routes {
            let candidates = self.slice_candidates(&route, rehomed, deadline);
            if candidates.is_empty() {
                replies.push(ShardReply {
                    shard: route.index,
                    worker: route.primary,
                    outcome: Err("down (respawning)".into()),
                });
                continue;
            }
            let payload = wbody.clone().set("dataset", route.slice_name.as_str());
            let (shard_idx, primary) = (route.index, route.primary);
            let pool = self.pool.clone();
            let handle = std::thread::Builder::new()
                .name(format!("deptree-fanout-{shard_idx}"))
                .spawn(move || slice_read(&pool, candidates, payload, hedge));
            match handle {
                Ok(h) => joins.push((shard_idx, primary, h)),
                Err(e) => replies.push(ShardReply {
                    shard: shard_idx,
                    worker: primary,
                    outcome: Err(format!("fan-out thread failed to spawn: {e}")),
                }),
            }
        }
        for (shard_idx, primary, h) in joins {
            let (worker, outcome) = match h.join() {
                Ok(done) => done,
                Err(_) => (primary, Err("fan-out thread panicked".into())),
            };
            replies.push(ShardReply {
                shard: shard_idx,
                worker,
                outcome,
            });
        }

        let out = merge::merge_discover(name, &full, error, shards, &replies, started.elapsed());
        let m = telemetry::gateway_metrics();
        m.fanout_latency.observe_duration(started.elapsed());
        if out.degraded {
            m.degraded.inc();
        }
        ServiceReply::Json(200, out.body)
    }

    /// The live copies of one slice, least-loaded first (in-flight
    /// gauge), primary preferred on ties: the boot primary, a
    /// still-valid re-homed copy, then the boot replicas.
    fn slice_candidates(
        &self,
        route: &SliceRoute,
        rehomed: Option<(usize, u64)>,
        deadline: Duration,
    ) -> Vec<SliceCandidate> {
        let mut ids = vec![route.primary];
        if let Some((w, epoch)) = rehomed {
            // An epoch move means the POSTed copy died with the old
            // process; the replane loop will rebuild it.
            if self.supervisor.epoch_of(w) == Some(epoch) {
                ids.push(w);
            }
        }
        ids.extend(route.replicas.iter().copied());
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for w in ids {
            if !seen.insert(w) {
                continue;
            }
            let Some(addr) = self.supervisor.worker_addr(w) else {
                continue;
            };
            out.push(SliceCandidate {
                worker: w,
                config: self.worker_client(&addr, 1, deadline),
                inflight: Arc::clone(&self.inflight[w]),
            });
        }
        out.sort_by_key(|c| (c.inflight.get(), c.worker != route.primary));
        out
    }

    /// One replane pass: for every slice, re-home it when no boot copy
    /// is live and no valid re-homed copy exists, and re-absorb the
    /// re-homed copy back once the primary has settled (Up and out of
    /// probation). Runs outside the table lock except for the brief
    /// pointer updates.
    fn replane_once(&self) {
        let snapshot: RouteSnapshot = {
            let table = self.slices.read().unwrap_or_else(PoisonError::into_inner);
            table
                .iter()
                .flat_map(|(name, slices)| {
                    slices
                        .iter()
                        .map(move |s| (name.clone(), s.route.clone(), s.rehomed))
                })
                .collect()
        };
        for (name, route, rehomed) in snapshot {
            if self.supervisor.settled(route.primary) {
                if let Some((w, epoch)) = rehomed {
                    self.reabsorb(&name, &route, w, epoch);
                }
                continue;
            }
            if self.supervisor.worker_addr(route.primary).is_some() {
                // Up but still on probation: it reloaded its argv copy,
                // so reads are covered; keep the re-homed copy as a
                // hedge until the probation verdict is in.
                continue;
            }
            let replica_live = route
                .replicas
                .iter()
                .any(|&w| self.supervisor.worker_addr(w).is_some());
            if replica_live {
                continue;
            }
            let rehomed_valid = rehomed.is_some_and(|(w, epoch)| {
                self.supervisor.epoch_of(w) == Some(epoch)
                    && self.supervisor.worker_addr(w).is_some()
            });
            if rehomed_valid {
                continue;
            }
            self.rehome_slice(&name, &route, None);
        }
    }

    /// Drop a re-homed copy now that the primary holds the slice again,
    /// and clear the routing overlay. The drop is best-effort: a dead
    /// holder lost the copy with its process anyway.
    fn reabsorb(&self, dataset: &str, route: &SliceRoute, w: usize, epoch: u64) {
        if self.supervisor.epoch_of(w) == Some(epoch) {
            if let Some(addr) = self.supervisor.worker_addr(w) {
                let body = Json::obj().set("name", route.slice_name.as_str());
                let cfg = self.worker_client(&addr, 0, Duration::from_secs(5));
                let _ = client::query(&cfg, "POST", "/admin/datasets/drop", Some(&body));
            }
        }
        let mut table = self.slices.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = table
            .get_mut(dataset)
            .and_then(|slices| slices.get_mut(route.index))
        {
            if slot.rehomed == Some((w, epoch)) {
                slot.rehomed = None;
                log(&format!(
                    "re-absorbed shard {} of `{dataset}` back onto worker {} (copy on worker {w} dropped)",
                    route.index, route.primary
                ));
            }
        }
    }

    /// Re-home one slice whose every boot copy is dead: POST the slice
    /// CSV (the gateway retained the file) to the least-loaded live
    /// survivor and record the copy against that worker's epoch. The
    /// whole slice moves to one survivor — contents and boundaries are
    /// unchanged, only the host differs — so the merged answer stays
    /// byte-identical to an all-healthy run.
    fn rehome_slice(&self, dataset: &str, route: &SliceRoute, exclude: Option<usize>) {
        let csv = match std::fs::read_to_string(&route.path) {
            Ok(s) => s,
            Err(e) => {
                log(&format!(
                    "re-home of shard {} of `{dataset}` failed: slice file {}: {e}",
                    route.index, route.path
                ));
                return;
            }
        };
        let mut survivors: Vec<(usize, String)> = self
            .supervisor
            .live()
            .into_iter()
            .filter(|(w, _)| {
                *w != route.primary && !route.replicas.contains(w) && Some(*w) != exclude
            })
            .collect();
        survivors.sort_by_key(|(w, _)| (self.inflight[*w].get(), *w));
        for (w, addr) in survivors {
            let Some(epoch) = self.supervisor.epoch_of(w) else {
                continue;
            };
            let mut body = Json::obj()
                .set("name", route.slice_name.as_str())
                .set("csv", csv.as_str());
            if let Some(t) = &route.types {
                body = body.set("types", t.as_str());
            }
            let cfg = self.worker_client(&addr, 1, Duration::from_secs(10));
            match client::query(&cfg, "POST", "/admin/datasets", Some(&body)) {
                Ok(_) => {
                    {
                        let mut table = self.slices.write().unwrap_or_else(PoisonError::into_inner);
                        if let Some(slot) = table
                            .get_mut(dataset)
                            .and_then(|slices| slices.get_mut(route.index))
                        {
                            slot.rehomed = Some((w, epoch));
                        }
                    }
                    telemetry::gateway_metrics().reshard.inc();
                    log(&format!(
                        "re-homed shard {} of `{dataset}` onto worker {w} (epoch {epoch})",
                        route.index
                    ));
                    return;
                }
                Err(e) => log(&format!(
                    "re-home of shard {} of `{dataset}` to worker {w} failed: {e}",
                    route.index
                )),
            }
        }
        log(&format!(
            "re-home of shard {} of `{dataset}` found no survivor; fan-out degrades until one returns",
            route.index
        ));
    }

    /// Before draining worker `id`, make sure no slice's only live copy
    /// sits on it: re-home such slices onto another survivor first, so
    /// the drain never opens a degraded window.
    fn prehome_for_drain(&self, id: usize) {
        let snapshot: RouteSnapshot = {
            let table = self.slices.read().unwrap_or_else(PoisonError::into_inner);
            table
                .iter()
                .flat_map(|(name, slices)| {
                    slices
                        .iter()
                        .map(move |s| (name.clone(), s.route.clone(), s.rehomed))
                })
                .collect()
        };
        for (name, route, rehomed) in snapshot {
            let mut copies = vec![route.primary];
            if let Some((w, epoch)) = rehomed {
                if self.supervisor.epoch_of(w) == Some(epoch) {
                    copies.push(w);
                }
            }
            copies.extend(route.replicas.iter().copied());
            let (mut on_target, mut live_elsewhere) = (false, false);
            for w in copies {
                if self.supervisor.worker_addr(w).is_some() {
                    if w == id {
                        on_target = true;
                    } else {
                        live_elsewhere = true;
                    }
                }
            }
            if on_target && !live_elsewhere {
                self.rehome_slice(&name, &route, Some(id));
            }
        }
    }

    /// The rolling restart itself, run on the coordinator thread: drain
    /// one Up worker at a time, waiting for its respawn to answer
    /// `/readyz` before touching the next slot — capacity never drops
    /// below N−1, and pre-homing keeps every slice readable throughout.
    fn rolling_restart(&self, stop: &AtomicBool) {
        let n = self.supervisor.slot_count();
        log(&format!(
            "rolling restart: cycling {n} worker(s) one at a time"
        ));
        for id in 0..n {
            if stop.load(Ordering::Acquire) {
                return;
            }
            if self.supervisor.worker_addr(id).is_none() {
                log(&format!(
                    "rolling restart: worker {id} not up; left to the crash machinery"
                ));
                continue;
            }
            self.prehome_for_drain(id);
            if !self.supervisor.begin_drain(id) {
                log(&format!(
                    "rolling restart: worker {id} refused drain; skipped"
                ));
                continue;
            }
            let deadline = Instant::now() + self.restart_wait;
            loop {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(addr) = self.supervisor.worker_addr(id) {
                    let cfg = self.worker_client(&addr, 0, Duration::from_secs(2));
                    if matches!(client::fetch_text(&cfg, "/readyz"), Ok((200, _))) {
                        break;
                    }
                }
                if Instant::now() >= deadline {
                    log(&format!(
                        "rolling restart: worker {id} did not return within {:?}; aborting",
                        self.restart_wait
                    ));
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            log(&format!("rolling restart: worker {id} restarted and ready"));
        }
        log("rolling restart: complete");
    }

    /// The deadline a proxied request is working under, for sizing the
    /// gateway→worker I/O timeouts around it.
    fn deadline_of(&self, req: &Request) -> Duration {
        std::str::from_utf8(&req.body)
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .and_then(|b| b.u64_field("timeout_ms"))
            .map_or(self.default_deadline, |ms| {
                Duration::from_millis(ms).min(self.max_deadline)
            })
    }

    /// Client config for one gateway→worker call: generous I/O timeouts
    /// beyond the task deadline (the worker enforces the real budget),
    /// retries only for the transient codes the client already knows.
    fn worker_client(&self, addr: &str, retries: u32, deadline: Duration) -> ClientConfig {
        ClientConfig {
            addr: addr.to_owned(),
            retries,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(1),
            io_timeout: deadline + Duration::from_secs(10),
            frame_timeout: deadline + Duration::from_secs(15),
            seed: shard::fnv1a64(addr),
            max_response_bytes: 64 << 20,
        }
    }
}

/// One live copy of a slice, ready to be queried.
struct SliceCandidate {
    worker: usize,
    config: ClientConfig,
    inflight: Arc<Gauge>,
}

/// How long a slice read waits on its first copy before racing a
/// second. A quarter of the wall deadline, clamped: the deadline is
/// shared across concurrent shards (`Budget::split` keeps wall clocks
/// whole), so a share-derived hedge point would be the full deadline —
/// too late to help. The 25 ms floor keeps healthy sub-millisecond
/// reads from hedging at all.
fn hedge_delay(deadline: Duration) -> Duration {
    (deadline / 4).clamp(Duration::from_millis(25), Duration::from_secs(1))
}

/// Query one slice: fire at the least-loaded copy first; if it is still
/// silent past the hedge delay (or fails outright), race the next copy.
/// First success wins; the loser's response lands in a closed channel.
/// Returns the worker whose answer (or final error) was used.
fn slice_read(
    pool: &client::ConnPool,
    candidates: Vec<SliceCandidate>,
    payload: Json,
    hedge: Duration,
) -> (usize, Result<Json, String>) {
    use std::sync::mpsc;
    let (tx, rx) = mpsc::channel::<(usize, Result<Json, String>)>();
    let launch = |i: usize| -> bool {
        let c = &candidates[i];
        let worker = c.worker;
        let config = c.config.clone();
        let gauge = Arc::clone(&c.inflight);
        let payload = payload.clone();
        let tx = tx.clone();
        let pool = pool.clone();
        std::thread::Builder::new()
            .name(format!("deptree-slice-read-{worker}"))
            .spawn(move || {
                gauge.add(1);
                let outcome = match client::query_pooled(
                    &pool,
                    &config,
                    "POST",
                    "/v1/discover",
                    Some(&payload),
                ) {
                    Ok(resp) => Ok(resp.body),
                    Err(e) => Err(format!(
                        "{} after {} attempt(s): {}",
                        e.code.wire(),
                        e.attempts,
                        e.message
                    )),
                };
                gauge.add(-1);
                let _ = tx.send((worker, outcome));
            })
            .is_ok()
    };
    let mut launched = 0usize;
    let mut outstanding = 0usize;
    while launched < candidates.len() && outstanding == 0 {
        if launch(launched) {
            outstanding += 1;
        }
        launched += 1;
    }
    let mut last_err: Option<(usize, String)> = None;
    while outstanding > 0 {
        let wait = if launched < candidates.len() {
            hedge
        } else {
            // All copies racing: each is bounded by its own I/O
            // timeouts, so this only has to outlast the slowest.
            Duration::from_secs(3600)
        };
        match rx.recv_timeout(wait) {
            Ok((w, Ok(body))) => return (w, Ok(body)),
            Ok((w, Err(msg))) => {
                outstanding -= 1;
                last_err = Some((w, msg));
                // A failed copy frees its turn: move straight to the
                // next one rather than waiting out the hedge delay.
                while launched < candidates.len() {
                    let ok = launch(launched);
                    launched += 1;
                    if ok {
                        outstanding += 1;
                        break;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                while launched < candidates.len() {
                    let ok = launch(launched);
                    launched += 1;
                    if ok {
                        outstanding += 1;
                        telemetry::gateway_metrics().hedged_reads.inc();
                        break;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    match last_err {
        Some((w, msg)) => (w, Err(msg)),
        None => (
            candidates.first().map_or(0, |c| c.worker),
            Err("no copy of the slice could be queried".into()),
        ),
    }
}

fn reply_err(code: ErrorCode, message: &str) -> ServiceReply {
    ServiceReply::Json(code.http_status(), error_body(code, message))
}

/// A running gateway: front-end server plus the supervised fleet and
/// the healing threads.
pub struct GatewayHandle {
    server: ServerHandle,
    supervisor: Arc<Supervisor>,
    state: Arc<GatewayState>,
    slice_dir: PathBuf,
    /// Stops the replane loop, the reload coordinator, and any armed
    /// chaos schedule.
    bg_stop: Arc<AtomicBool>,
    bg_threads: Vec<std::thread::JoinHandle<()>>,
}

impl GatewayHandle {
    /// The gateway's bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The lifecycle state, for wiring signal handlers.
    pub fn drain_state(&self) -> &Arc<DrainState> {
        self.server.drain_state()
    }

    /// Current worker pids, one entry per slot (`None` while down).
    pub fn worker_pids(&self) -> Vec<Option<u32>> {
        self.supervisor.pids()
    }

    /// Total worker respawns so far (initial spawns not counted).
    pub fn worker_restarts(&self) -> u64 {
        self.supervisor.restarts()
    }

    /// Respawns of one slot, for restarted-exactly-once assertions.
    pub fn worker_restarts_of(&self, id: usize) -> u64 {
        self.supervisor.restarts_of(id)
    }

    /// Kick off a rolling restart (the SIGHUP path); `false` when one
    /// is already running or pending.
    pub fn request_reload(&self) -> bool {
        self.state.request_reload()
    }

    /// The orderly exit: stop accepting, drain in-flight fan-outs
    /// (cancelling stragglers past the grace), stop the healing and
    /// chaos threads, then SIGTERM every worker and reap it — SIGKILL
    /// past the child grace — and remove the slice files. No zombies
    /// survive this call.
    pub fn drain_and_join(self) {
        self.server.drain();
        self.server.join();
        self.bg_stop.store(true, Ordering::Release);
        for t in self.bg_threads {
            let _ = t.join();
        }
        self.supervisor.shutdown();
        let _ = std::fs::remove_dir_all(&self.slice_dir);
    }
}

/// Build the placement, boot the fleet, and bind the front end.
pub fn spawn_gateway(config: GatewayConfig) -> Result<GatewayHandle, DeptreeError> {
    static SLICE_SEQ: AtomicU64 = AtomicU64::new(0);
    let slice_dir = std::env::temp_dir().join(format!(
        "deptree-gateway-{}-{}",
        std::process::id(),
        SLICE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&slice_dir).map_err(|e| DeptreeError::Io {
        path: slice_dir.display().to_string(),
        message: e.to_string(),
    })?;
    let plan = match shard::build_plan(
        &config.datasets,
        config.workers,
        config.replicas,
        &slice_dir,
        config.lossy,
    ) {
        Ok(plan) => plan,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&slice_dir);
            return Err(e);
        }
    };
    for warning in &plan.warnings {
        log(&format!("warning: {warning}"));
    }

    let worker_args: Vec<Vec<String>> = plan
        .worker_specs
        .iter()
        .map(|specs| {
            let mut args = vec![
                "serve".to_owned(),
                "--addr".to_owned(),
                "127.0.0.1:0".to_owned(),
                "--threads".to_owned(),
                config.worker_threads.max(1).to_string(),
                "--default-timeout-ms".to_owned(),
                config.default_deadline.as_millis().to_string(),
                "--max-timeout-ms".to_owned(),
                config.max_deadline.as_millis().to_string(),
            ];
            for spec in specs {
                args.push("--data".to_owned());
                args.push(spec.clone());
            }
            if config.lossy {
                args.push("--lossy".to_owned());
            }
            args
        })
        .collect();

    // Register every gateway series before the first scrape, so the CI
    // smoke sees them at zero.
    let _ = telemetry::gateway_metrics();
    for w in 0..config.workers.max(1) {
        let _ = telemetry::worker_up(w);
        let _ = telemetry::worker_restarts(w);
        let _ = telemetry::worker_inflight(w);
        for state in telemetry::SLOT_STATES {
            let _ = telemetry::slot_state(w, state);
        }
    }

    let supervisor = Supervisor::start(SupervisorConfig {
        worker_bin: config.worker_bin.clone(),
        worker_args,
        respawn_base: config.respawn_base,
        respawn_max: config.respawn_max,
        fast_crash: config.fast_crash,
        quarantine_after: config.quarantine_after.max(1),
        quarantine_cooldown: config.quarantine_cooldown,
        probe_interval: config.probe_interval,
        probe_failures: config.probe_failures.max(1),
        spawn_timeout: config.spawn_timeout,
        child_grace: config.child_grace,
    });

    let drain = DrainState::new();
    let mut datasets = BTreeMap::new();
    for (name, r) in plan.sharded {
        datasets.insert(name, r);
    }
    let local = AppState::new(
        datasets,
        Arc::clone(&drain),
        config.worker_threads.max(1),
        config.default_deadline,
        config.max_deadline,
        // The gateway's local router answers merge re-validations whose
        // inputs change per fan-out; caching them would only hold bytes.
        0,
    );
    let slices: BTreeMap<String, Vec<SliceState>> = plan
        .slices
        .into_iter()
        .map(|(name, routes)| {
            (
                name,
                routes
                    .into_iter()
                    .map(|route| SliceState {
                        route,
                        rehomed: None,
                    })
                    .collect(),
            )
        })
        .collect();
    let inflight: Vec<Arc<Gauge>> = (0..config.workers.max(1))
        .map(telemetry::worker_inflight)
        .collect();
    let state = Arc::new(GatewayState {
        supervisor: Arc::clone(&supervisor),
        local,
        slices: RwLock::new(slices),
        homes: plan.homes,
        drain,
        default_deadline: config.default_deadline,
        max_deadline: config.max_deadline,
        inflight,
        reloading: AtomicBool::new(false),
        reload_requested: AtomicBool::new(false),
        restart_wait: config.spawn_timeout + config.child_grace + Duration::from_secs(10),
        pool: client::ConnPool::new(),
    });

    let bg_stop = Arc::new(AtomicBool::new(false));
    let mut bg_threads = Vec::new();
    // The replane loop: heals the routing table. Runs even during a
    // rolling restart, so a crash elsewhere in the fleet is still
    // re-homed while one slot is deliberately down.
    {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&bg_stop);
        if let Ok(t) = std::thread::Builder::new()
            .name("deptree-replane".to_owned())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    state.replane_once();
                    std::thread::sleep(REPLANE_INTERVAL);
                }
            })
        {
            bg_threads.push(t);
        }
    }
    // The reload coordinator: waits for the edge-trigger and runs the
    // rolling restart off the request path.
    {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&bg_stop);
        if let Ok(t) = std::thread::Builder::new()
            .name("deptree-reload".to_owned())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if state.reload_requested.swap(false, Ordering::AcqRel) {
                        state.reloading.store(true, Ordering::Release);
                        state.rolling_restart(&stop);
                        state.reloading.store(false, Ordering::Release);
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        {
            bg_threads.push(t);
        }
    }
    if let Some(seed) = config.chaos_seed {
        let plan = chaos::ChaosPlan::from_seed(seed, config.workers.max(1));
        let chaos_stop = chaos::arm(plan, Arc::clone(&supervisor));
        let stop = Arc::clone(&bg_stop);
        // Piggyback the chaos stop flag on the shared one: a tiny
        // watcher beats threading two flags through the handle.
        if let Ok(t) = std::thread::Builder::new()
            .name("deptree-chaos-stop".to_owned())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(50));
                }
                chaos_stop.store(true, Ordering::Release);
            })
        {
            bg_threads.push(t);
        }
    }

    match spawn_service(config.listen, Arc::clone(&state)) {
        Ok(server) => Ok(GatewayHandle {
            server,
            supervisor,
            state,
            slice_dir,
            bg_stop,
            bg_threads,
        }),
        Err(e) => {
            bg_stop.store(true, Ordering::Release);
            for t in bg_threads {
                let _ = t.join();
            }
            supervisor.shutdown();
            let _ = std::fs::remove_dir_all(&slice_dir);
            Err(e)
        }
    }
}
