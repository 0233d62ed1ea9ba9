#!/usr/bin/env python3
"""The deptree benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a deptree checkout. It builds the release `deptree`
binary and the Rust harness in `perfbench/harness` (into
`$CARGO_TARGET_DIR`, default `.bench_build`), makes the workload's inputs
from the seed, measures for S seconds, checks every output, and prints as
its last stdout line one JSON object: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics.

Workloads (their rationale and the split measured when the benchmark was
defined are in perfbench/NOTES.md):

  profile_tall  `deptree profile` on a 200,000 x 6 CSV, one run at a time.
  serve_hot     `deptree serve --workers 1`, two keep-alive connections
                replaying ~24 distinct reads; every reply is a cache hit.
  serve_churn   the same server; each connection re-uploads its own
                dataset as a new version, then reads it, in a loop.

Load comes from one generator process with at most `nproc` (and at most
two) threads and connections, in a closed loop.
"""

import argparse
import http.client
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("profile_tall", "serve_hot", "serve_churn")
TALL_ARGS = ["--types", "c,c,c,c,n,n", "--max-lhs", "2"]
TALL_ROWS = 200_000
SETUP_REPEATS = {"profile_tall": 15, "serve_hot": 9, "serve_churn": 9}
SERVE_DATA = {
    "serve_hot": ["hot={dir}/hot.csv:c,c,c,c,n", "hotels=data/hotels.csv:t,t,t,n,n"],
    "serve_churn": [
        "wide={dir}/wide.csv:c,c,c,c,c,c,c,c,c,c,c,n",
        "num={dir}/num.csv:c,c,c,c,n,n",
    ],
}
# Layers timed inside `tasks::profile`; its self time is the rest.
PROFILE_PARTS = (
    "discovery.tane",
    "discovery.cords",
    "serve.tasks.strength",
    "discovery.od",
    "discovery.dc",
)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(argv, env):
    """Run a build or harness step; its stdout is returned, never echoed."""
    p = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=sys.stderr)
    if p.returncode != 0:
        die(f"`{' '.join(argv)}` exited {p.returncode}")
    return p.stdout.decode()


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def build(env):
    target = env["CARGO_TARGET_DIR"]
    run_quiet(["cargo", "build", "--release", "--offline", "-q", "--bin", "deptree"], env)
    run_quiet(
        [
            "cargo", "build", "--release", "--offline", "-q",
            "--manifest-path", "perfbench/harness/Cargo.toml",
        ],
        env,
    )
    return f"{target}/release/deptree", f"{target}/release/perfbench"


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(sorted_xs):
    """The 99th percentile when at least ten samples lie beyond it; in a
    smaller sample, the highest percentile that has ten samples beyond it,
    but never below the median (the harness applies the same rule)."""
    n = len(sorted_xs)
    if n == 0:
        return 0.0
    rank = -(-99 * n // 100) if n >= 1000 else max(n - 10, -(-n // 2), 1)
    return sorted_xs[rank - 1]


def cpu_self():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------- profile_tall


def run_cli(argv, env):
    """One CLI run: (wall seconds, exit code, stdout bytes, peak RSS kB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out, ru.ru_maxrss


def profile_tall(deptree, work, seconds, env):
    def expected(name):
        with open(f"{work}/{name}.expected", "rb") as f:
            return f.read()

    failures = []
    setup = []
    head_expected = expected("tall_head")
    for _ in range(SETUP_REPEATS["profile_tall"]):
        wall, code, out, _ = run_cli(
            [deptree, "profile", f"{work}/tall_head.csv", *TALL_ARGS], env
        )
        setup.append(wall)
        if code != 0 or out != head_expected:
            failures.append(f"setup run: exit {code} or report mismatch")

    tall_expected = expected("tall")
    walls, rss, attempted, failed, partial = [], 0, 0, 0, 0
    cpu0, t0 = cpu_self(), time.perf_counter()
    while attempted == 0 or time.perf_counter() - t0 < seconds:
        attempted += 1
        wall, code, out, maxrss = run_cli(
            [deptree, "profile", f"{work}/tall.csv", *TALL_ARGS], env
        )
        rss = max(rss, maxrss)
        if code == 6 or code == 7:
            partial += 1
        if code != 0 or out != tall_expected:
            failed += 1
            failures.append(f"profile run {attempted}: exit {code} or report mismatch")
            continue
        walls.append(wall)
    elapsed = time.perf_counter() - t0
    cpu = cpu_self() - cpu0
    walls.sort()
    ok = len(walls)
    # One run at a time, so throughput follows the median run; a burst of
    # load from outside the benchmark moves one run, not the result.
    typical = median(walls)
    window = {
        "attempted": attempted,
        "failed": failed,
        "partial": partial,
        "rps": 1.0 / typical if typical else 0.0,
        "rows_per_s": TALL_ROWS / typical if typical else 0.0,
        "p50_ms": typical * 1e3,
        "p99_ms": tail(walls) * 1e3,
        "mean_ms": (sum(walls) / ok * 1e3) if ok else 0.0,
        "cpu_share": cpu / elapsed,
        "classes": {"profile": ok},
        "server": {},
        "failures": failures[:5],
    }
    return window, median(setup), rss / 1024.0, failures


# ---------------------------------------------------------------- serve


def get(addr, path):
    """Status of one GET on a fresh connection (0 when it fails). Plain
    http.client: no proxy settings from the environment apply."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("GET", path)
        return conn.getresponse().status
    except OSError:
        return 0
    finally:
        conn.close()


class Server:
    """One `deptree serve` process, timed from spawn to ready."""

    def __init__(self, deptree, specs, work, env):
        argv = [deptree, "serve", "--workers", "1", "--addr", "127.0.0.1:0"]
        for spec in specs:
            argv += ["--data", spec.format(dir=work)]
        self.log = open(f"{work}/serve.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self.log, env=env
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start (said {line!r})")
            self.addr = line.split()[-1]
            while get(self.addr, "/readyz") != 200:
                if self.proc.poll() is not None or time.perf_counter() - t0 > 120:
                    raise RuntimeError("server never became ready")
                time.sleep(0.001)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def serve(workload, deptree, harness, work, seed, seconds, conns, env):
    specs = SERVE_DATA[workload]
    setups = []
    for _ in range(SETUP_REPEATS[workload] - 1):
        s = Server(deptree, specs, work, env)
        setups.append(s.setup_s)
        s.stop()
    server = Server(deptree, specs, work, env)
    setups.append(server.setup_s)
    try:
        out = run_quiet(
            [
                harness, "load", "--workload", workload, "--seed", str(seed),
                "--addr", server.addr, "--seconds", str(seconds), "--conns", str(conns),
            ],
            env,
        )
        window = last_json(out)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return window, median(setups), rss, window["failures"]


# ---------------------------------------------------------------- metrics


def end_to_end(window, setup_s, rss_mb):
    attempted = max(window["attempted"], 1)
    return {
        "setup_s": setup_s,
        "rows_per_s": window["rows_per_s"],
        "rps": window["rps"],
        "p50_ms": window["p50_ms"],
        "p99_ms": window["p99_ms"],
        "success_share": 1.0 - window["failed"] / attempted,
        "complete_share": 1.0 - window["partial"] / attempted,
        "rss_mb": rss_mb,
    }


def per_layer(replay, window, nproc):
    """Per-layer metrics: replay costs per class, weighted by how often the
    timed window ran each class, so each is a cost per operation."""
    classes = replay["classes"]
    weights = {c: n for c, n in window["classes"].items() if c in classes}
    total = sum(weights.values()) or 1

    def per_op(get):
        return sum(
            n / total * get(classes[c]) / classes[c]["ops"] for c, n in weights.items()
        )

    def layer(name):
        return per_op(lambda c: c["layers_ms"].get(name, 0.0))

    def profile_self(c):
        layers = c["layers_ms"]
        if "serve.tasks.profile" not in layers:
            return 0.0
        return layers["serve.tasks.profile"] - sum(layers.get(p, 0.0) for p in PROFILE_PARTS)

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses > 0 else 0.0

    parse_ms = layer("relation.csv.parse")
    parse_mb = per_op(lambda c: c["parse_bytes"]) / 1e6
    srv = window["server"]
    mean_ms = window["mean_ms"]
    if srv:
        service_ms = srv["duration_sum_s"] / max(srv["duration_count"], 1) * 1e3
        wait_ms = mean_ms - service_ms
    else:
        service_ms = wait_ms = 0.0
    covered = per_op(lambda c: c["covered_ms"])
    # Share of the client-observed time per operation that named layers
    # explain: the in-process layer calls plus, for the server, the time
    # a request spent outside the server's own handling.
    coverage = (covered + wait_ms) / mean_ms if mean_ms > 0 else 0.0
    return {
        "relation.csv.parse_ms": parse_ms,
        "relation.csv.mb_per_s": parse_mb / (parse_ms / 1e3) if parse_ms > 0 else 0.0,
        "relation.dataset_bytes": float(replay["dataset_bytes"]),
        "discovery.tane.ms": layer("discovery.tane"),
        "discovery.tane.nodes": per_op(lambda c: c["tane_nodes"]),
        "discovery.tane.partition_products": per_op(lambda c: c["tane_products"]),
        "discovery.tane.partition_hit_ratio": ratio(
            per_op(lambda c: c["tane_hits"]), per_op(lambda c: c["tane_misses"])
        ),
        "discovery.cords.ms": layer("discovery.cords"),
        "serve.tasks.strength_ms": layer("serve.tasks.strength"),
        "discovery.od.ms": layer("discovery.od"),
        "discovery.dc.ms": layer("discovery.dc"),
        "discovery.dc.pairs": per_op(lambda c: c["dc_pairs"]),
        "serve.tasks.profile_self_ms": per_op(profile_self),
        "core.fd.validate_ms": layer("core.fd.validate"),
        "core.fd.detect_ms": layer("core.fd.detect"),
        "serve.json.parse_us": layer("serve.json.parse") * 1e3,
        "serve.json.render_us": layer("serve.json.render") * 1e3,
        "serve.router.cache_key_us": layer("serve.router.cache_key") * 1e3,
        "serve.cache.lookup_us": layer("serve.cache.lookup") * 1e3,
        "serve.router.handle_ms": layer("serve.router.handle"),
        "serve.cache.hit_ratio": ratio(
            srv.get("response_cache_hits", 0), srv.get("response_cache_misses", 0)
        ),
        "serve.cache.evictions": srv.get("response_cache_evictions", 0.0),
        "serve.cache.bytes": srv.get("response_cache_bytes", 0.0),
        "serve.partition_cache.hit_ratio": ratio(
            srv.get("partition_cache_hits", 0), srv.get("partition_cache_misses", 0)
        ),
        "serve.listener.service_ms": service_ms,
        "serve.listener.wait_ms": wait_ms,
        "serve.listener.shed": srv.get("shed", 0.0),
        "trace.coverage": coverage,
        "trace.overhead_share": replay["traced_ms"] / replay["untraced_ms"] - 1.0,
        "loadgen.cpu_share": window["cpu_share"],
        "loadgen.nproc": float(nproc),
    }


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("Cargo.toml", "crates/serve/Cargo.toml", "data/hotels.csv", "BENCHMARK.json"):
        if not os.path.isfile(needed):
            die(f"{needed} not found: run from the root of a deptree checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    env = dict(os.environ)
    env.pop("DEPTREE_THREADS", None)  # the CLI and server default: one thread
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    deptree, harness = build(env)

    nproc = len(os.sched_getaffinity(0))
    conns = min(2, nproc)
    work = f".bench_build/perfbench/{args.workload}-{args.seed}"
    os.makedirs(work, exist_ok=True)
    run_quiet([harness, "prep", "--workload", args.workload, "--seed", str(args.seed), "--dir", work], env)

    if args.workload == "profile_tall":
        window, setup_s, rss_mb, failures = profile_tall(deptree, work, args.seconds, env)
    else:
        window, setup_s, rss_mb, failures = serve(
            args.workload, deptree, harness, work, args.seed, args.seconds, conns, env
        )

    if args.trace:
        replay = last_json(
            run_quiet(
                [
                    harness, "replay", "--workload", args.workload, "--seed", str(args.seed),
                    "--conns", str(conns), "--spans", f"{work}/spans.jsonl",
                ],
                env,
            )
        )
        values = per_layer(replay, window, nproc)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(window, setup_s, rss_mb)
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            die(f"metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for why in failures[:5]:
        print(f"perfbench: failure: {why}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": window["attempted"],
                "failed": window["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
