//! `perfbench`: the Rust half of the deptree benchmark (`perfbench/run.py`
//! drives it).
//!
//! ```text
//! perfbench prep   --workload W --seed N --dir D
//! perfbench load   --workload W --seed N --addr HOST:PORT --seconds S --conns C
//! perfbench replay --workload W --seed N --conns C --spans FILE
//! ```
//!
//! `prep` writes the workload's seeded CSV inputs (and, for
//! `profile_tall`, the expected `deptree profile` reports) into `D`.
//! `load` drives a running `deptree serve` and prints its window as JSON.
//! `replay` runs the traced in-process replay and prints per-layer times
//! as JSON. Each command prints one JSON line on stdout; errors go to
//! stderr with a non-zero exit.

mod data;
mod http;
mod load;
mod oracle;
mod replay;
mod span;

use deptree_serve::{tasks, Json};
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn need(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    need(args, name)?.parse().map_err(|_| format!("bad {name}"))
}

fn write(dir: &str, name: &str, text: &str) -> Result<(), String> {
    let path = format!("{dir}/{name}");
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

/// The repository's hotels sample, read from the checkout root.
fn hotels() -> Result<data::Table, String> {
    std::fs::read_to_string("data/hotels.csv")
        .map(data::hotels)
        .map_err(|e| format!("data/hotels.csv: {e}"))
}

fn prep(args: &[String]) -> Result<Json, String> {
    let workload = need(args, "--workload")?;
    let seed: u64 = num(args, "--seed")?;
    let dir = need(args, "--dir")?;
    let mut files = Json::obj();
    match workload.as_str() {
        "profile_tall" => {
            let tall = data::tall(seed);
            let opts = tasks::ProfileOpts {
                max_lhs: 2,
                error: 0.0,
            };
            for (name, csv) in [("tall", tall.csv.clone()), ("tall_head", tall.head())] {
                let r = deptree_relation::parse_csv(&csv, &tall.value_types())
                    .map_err(|e| e.to_string())?;
                let report = tasks::profile(&r, &opts, &oracle::cli_exec());
                write(&dir, &format!("{name}.csv"), &csv)?;
                write(&dir, &format!("{name}.expected"), &report.text)?;
                files = files.set(name, r.n_rows());
            }
        }
        "serve_hot" => {
            let hot = data::hot(seed);
            write(&dir, "hot.csv", &hot.csv)?;
            files = files.set("hot", hot.rows);
        }
        "serve_churn" => {
            for dataset in data::CHURN_DATASETS {
                let table = data::churn_table(dataset, seed, 0);
                write(&dir, &format!("{dataset}.csv"), &table.csv)?;
                files = files.set(dataset, table.rows);
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(files)
}

fn run(args: &[String]) -> Result<Json, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("prep") => prep(rest),
        Some("load") => load::run(&load::LoadArgs {
            workload: need(rest, "--workload")?,
            seed: num(rest, "--seed")?,
            addr: need(rest, "--addr")?,
            seconds: num(rest, "--seconds")?,
            conns: num(rest, "--conns")?,
            hotels: hotels()?,
        }),
        Some("replay") => replay::run(&replay::ReplayArgs {
            workload: need(rest, "--workload")?,
            seed: num(rest, "--seed")?,
            conns: num(rest, "--conns")?,
            hotels: hotels()?,
            spans_out: need(rest, "--spans")?,
        }),
        _ => Err("usage: perfbench prep|load|replay --workload W --seed N ...".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(json) => {
            println!("{}", json.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
