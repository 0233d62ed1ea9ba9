//! Expected outputs: the in-process `serve::tasks` report for a relation
//! and a request, computed the way the CLI or the server computes it.

use crate::data::{Req, TIMEOUT_MS};
use deptree_core::engine::{Budget, Exec};
use deptree_relation::Relation;
use deptree_serve::{tasks, Json};
use std::time::Duration;

/// The execution context a served task runs under: the request's
/// deadline and the server's default single engine thread. A deadline
/// makes the budget bounded, so `profile` runs FASTDC as served.
pub fn served_exec() -> Exec {
    Exec::new(Budget::new().with_deadline(Duration::from_millis(TIMEOUT_MS))).with_threads(1)
}

/// The execution context of `deptree profile` with no budget flags and
/// the default thread count.
pub fn cli_exec() -> Exec {
    Exec::new(Budget::default()).with_threads(1)
}

pub fn profile_opts(body: &Json) -> tasks::ProfileOpts {
    tasks::ProfileOpts {
        max_lhs: body.u64_field("max_lhs").unwrap_or(2) as usize,
        error: body.f64_field("error").unwrap_or(0.0),
    }
}

/// The `report` a served request must carry.
pub fn served_report(r: &Relation, req: &Req) -> Result<String, String> {
    let body = Json::parse(&req.body).map_err(|e| e.to_string())?;
    let rule = body.str_field("rule").unwrap_or_default();
    let report = match req.path {
        "/v1/discover" => tasks::profile(r, &profile_opts(&body), &served_exec()),
        "/v1/validate" => tasks::validate(r, rule).map_err(|e| e.to_string())?,
        _ => tasks::detect(r, rule).map_err(|e| e.to_string())?,
    };
    if report.exhausted.is_some() {
        return Err(format!("{}: in-process run was truncated", req.label));
    }
    Ok(report.text)
}
