//! Closed-loop HTTP load generator for the service tier.
//!
//! Boots a server in-process on an ephemeral port over a freshly
//! loaded corpus, then drives it with `--connections` concurrent
//! keep-alive clients, each firing `--requests` requests back-to-back
//! (closed loop: the next request leaves when the previous answer
//! lands). Each connection carries its own `X-Client-Id`, so the
//! per-client token bucket sees them as distinct clients and the
//! measured phase runs throttle-free; a separate burst phase then
//! hammers a single identity past its burst allowance to prove the
//! limiter answers 429 with `Retry-After`.
//!
//! ```text
//! http_load [--connections N] [--requests M] [--lines L] [--seed S]
//!           [--workers W] [--out PATH]
//! ```
//!
//! Results land in `BENCH_http.json`. The process exits nonzero if
//! the measured phase sees any non-2xx response, if any phase sees a
//! 5xx, or if the burst phase fails to draw a 429 — so CI can use a
//! short run as a smoke gate.

use staccato_bench::timing::fmt_duration;
use staccato_core::StaccatoParams;
use staccato_ocr::{generate, ChannelConfig, CorpusKind};
use staccato_query::store::LoadOptions;
use staccato_query::Staccato;
use staccato_server::json::obj;
use staccato_server::{HttpClient, Json, RateLimit, Server, ServerConfig};
use staccato_storage::Database;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix per connection: ranked scans over two
/// representations, a paged query, an aggregate, and (interleaved by
/// the driver) a prepared-statement execution.
const WORKLOAD: &[&str] = &[
    "SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP 'President' LIMIT 50",
    "SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%Commission%' LIMIT 50",
    "SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP 'the' LIMIT 10 OFFSET 10",
    "SELECT COUNT(*) FROM MAPData WHERE Data LIKE '%Act%'",
];

const PREPARED_SQL: &str = "SELECT DataKey FROM MAPData WHERE Data REGEXP ? LIMIT ?";

struct Config {
    connections: usize,
    requests: usize,
    lines: usize,
    seed: u64,
    workers: usize,
    out: String,
}

#[derive(Default)]
struct Tally {
    latencies: Vec<Duration>,
    ok_2xx: u64,
    rate_limited: u64,
    other_4xx: u64,
    server_5xx: u64,
}

impl Tally {
    fn absorb(&mut self, status: u16, latency: Duration) {
        self.latencies.push(latency);
        match status {
            200..=299 => self.ok_2xx += 1,
            429 => self.rate_limited += 1,
            400..=499 => self.other_4xx += 1,
            _ => self.server_5xx += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latencies.extend(other.latencies);
        self.ok_2xx += other.ok_2xx;
        self.rate_limited += other.rate_limited;
        self.other_4xx += other.other_4xx;
        self.server_5xx += other.server_5xx;
    }
}

fn main() {
    let mut cfg = Config {
        connections: 32,
        requests: 25,
        lines: 120,
        seed: 42,
        workers: 8,
        out: "BENCH_http.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--connections" => cfg.connections = next("--connections").parse().expect("conns"),
            "--requests" => cfg.requests = next("--requests").parse().expect("requests"),
            "--lines" => cfg.lines = next("--lines").parse().expect("lines"),
            "--seed" => cfg.seed = next("--seed").parse().expect("seed"),
            "--workers" => cfg.workers = next("--workers").parse().expect("workers"),
            "--out" => cfg.out = next("--out").clone(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(cfg.connections >= 1 && cfg.requests >= 1);

    eprintln!(
        "loading {} lines of CongressActs (seed {}) ...",
        cfg.lines, cfg.seed
    );
    let dataset = generate(CorpusKind::CongressActs, cfg.lines, cfg.seed);
    let db = Database::in_memory(2048).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(cfg.seed),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    let session = Arc::new(Staccato::load(db, &dataset, &opts).expect("load"));

    // Bucket sized so a measured-phase connection (its own identity,
    // `requests` sends plus one /prepare) never throttles, while the
    // burst phase (one identity, 2× the allowance) must.
    let burst_allowance = (cfg.requests + 1).min(200) as u32;
    let server_config = ServerConfig {
        workers: cfg.workers,
        rate_limit: Some(RateLimit::new(burst_allowance, 50.0)),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&session), server_config).expect("server");
    let addr = server.addr();
    eprintln!(
        "server on http://{addr} ({} workers, burst allowance {burst_allowance})",
        cfg.workers
    );

    // Warm the compiled-query cache so the measured loop sees
    // steady-state traffic.
    for sql in WORKLOAD {
        session.sql(sql).expect("warm-up");
    }

    // ---- measured closed loop --------------------------------------
    let started = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    let mut client =
                        HttpClient::connect_as(addr, &format!("load-{c}")).expect("connect");
                    // One prepared statement per connection, used for
                    // every 5th request.
                    let resp = client
                        .post("/prepare", &format!("{{\"sql\": {PREPARED_SQL:?}}}"))
                        .expect("prepare");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let id = resp
                        .json()
                        .expect("json")
                        .get("statement_id")
                        .and_then(Json::as_u64)
                        .expect("statement id");
                    for i in 0..cfg.requests {
                        let q = Instant::now();
                        let resp = if i % 5 == 4 {
                            client
                                .post(
                                    "/execute",
                                    &format!(
                                        "{{\"statement_id\": {id}, \
                                         \"params\": [\"Public\", 20]}}"
                                    ),
                                )
                                .expect("execute")
                        } else {
                            let sql = WORKLOAD[(c + i) % WORKLOAD.len()];
                            client
                                .post("/query", &format!("{{\"sql\": {sql:?}}}"))
                                .expect("query")
                        };
                        t.absorb(resp.status, q.elapsed());
                        if resp.status >= 500 {
                            eprintln!("5xx from worker: {}", resp.body);
                        }
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            tally.merge(h.join().expect("load thread"));
        }
    });
    let wall = started.elapsed();
    tally.latencies.sort();
    let total = tally.latencies.len();
    let pct = |p: f64| tally.latencies[(((total - 1) as f64) * p) as usize];
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let qps = total as f64 / wall.as_secs_f64().max(1e-12);

    // ---- burst phase: one identity past its allowance ---------------
    let mut burst = Tally::default();
    let mut retry_after_seen = false;
    {
        let mut greedy = HttpClient::connect_as(addr, "greedy").expect("connect");
        for _ in 0..(burst_allowance as usize * 2 + 10) {
            let q = Instant::now();
            let resp = greedy
                .post(
                    "/query",
                    "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data REGEXP 'a' LIMIT 1\"}",
                )
                .expect("burst query");
            if resp.status == 429 && resp.header("retry-after").is_some() {
                retry_after_seen = true;
            }
            burst.absorb(resp.status, q.elapsed());
        }
    }

    // ---- server-side stats snapshot ---------------------------------
    let stats_snapshot = {
        let mut client = HttpClient::connect(addr).expect("connect");
        let resp = client.get("/stats").expect("stats");
        assert_eq!(resp.status, 200);
        resp.json().expect("stats json")
    };
    server.shutdown();

    let json = obj([
        ("bench", Json::Str("http_load".into())),
        ("corpus", Json::Str("CongressActs".into())),
        ("lines", Json::Num(cfg.lines as f64)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("connections", Json::Num(cfg.connections as f64)),
        ("requests_per_connection", Json::Num(cfg.requests as f64)),
        ("server_workers", Json::Num(cfg.workers as f64)),
        ("burst_allowance", Json::Num(burst_allowance as f64)),
        (
            "measured",
            obj([
                ("wall_secs", Json::Num(wall.as_secs_f64())),
                ("qps", Json::Num(qps)),
                ("p50_ms", Json::Num(p50.as_secs_f64() * 1e3)),
                ("p95_ms", Json::Num(p95.as_secs_f64() * 1e3)),
                ("p99_ms", Json::Num(p99.as_secs_f64() * 1e3)),
                ("responses_2xx", Json::Num(tally.ok_2xx as f64)),
                ("responses_429", Json::Num(tally.rate_limited as f64)),
                ("responses_other_4xx", Json::Num(tally.other_4xx as f64)),
                ("responses_5xx", Json::Num(tally.server_5xx as f64)),
            ]),
        ),
        (
            "burst",
            obj([
                ("requests", Json::Num(burst.latencies.len() as f64)),
                ("responses_2xx", Json::Num(burst.ok_2xx as f64)),
                ("responses_429", Json::Num(burst.rate_limited as f64)),
                ("responses_5xx", Json::Num(burst.server_5xx as f64)),
                ("retry_after_seen", Json::Bool(retry_after_seen)),
            ]),
        ),
        ("server_stats", stats_snapshot),
    ]);
    std::fs::write(&cfg.out, json.render() + "\n").expect("write BENCH json");

    println!(
        "{} conns x {} reqs: {:>8.1} qps  p50 {:>9}  p95 {:>9}  p99 {:>9}",
        cfg.connections,
        cfg.requests,
        qps,
        fmt_duration(p50),
        fmt_duration(p95),
        fmt_duration(p99),
    );
    println!(
        "statuses    : 2xx {}  429 {}  other-4xx {}  5xx {}",
        tally.ok_2xx, tally.rate_limited, tally.other_4xx, tally.server_5xx
    );
    println!(
        "burst phase : {} requests -> {} throttled (Retry-After seen: {retry_after_seen})",
        burst.latencies.len(),
        burst.rate_limited
    );
    println!("-> {}", cfg.out);

    // Gate: the measured phase must be clean, 5xx is never acceptable,
    // and the limiter must demonstrably fire under burst.
    let mut failures = Vec::new();
    if tally.server_5xx + burst.server_5xx > 0 {
        failures.push("5xx responses observed");
    }
    if tally.rate_limited + tally.other_4xx > 0 {
        failures.push("non-2xx responses in the measured phase");
    }
    if burst.rate_limited == 0 || !retry_after_seen {
        failures.push("burst phase did not draw a 429 with Retry-After");
    }
    if !failures.is_empty() {
        eprintln!("FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
