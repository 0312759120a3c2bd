//! `http_closed` — the service tier around cheap statements.
//!
//! An in-process `Server::start` with the default configuration (no rate
//! limit) serves a small in-memory store that fits the pool. `C`
//! keep-alive connections each send a fixed number of requests, one at a
//! time: 60 % `POST /query` of a MAPData keyword with `LIMIT 50`, 20 %
//! `POST /query` of a Staccato statement the planner probes the index for,
//! 20 % `POST /execute` of a statement prepared on that connection. The
//! statements are cheap, so socket read, parse, worker hand-off, serialise
//! and write — `server::{http,json,server}` — are most of the latency, and
//! `query::sql` plus the compiled-query cache most of the rest; scan, WAL
//! and index build are idle.

use super::{err, median_setup, op_metrics, probe_hot, stored_ratio, Ctx, OpLog, Outcome};
use crate::data::{self, Rng, Stream};
use crate::probes;
use crate::stats::{median, micros, percentile, sorted};
use staccato_ocr::Dataset;
use staccato_query::{Answer, QueryOutput, QueryRequest, SqlValue, Staccato};
use staccato_server::{HttpClient, HttpResponse, Json, Server, ServerConfig, ServerHandle};
use staccato_storage::Database;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

const PREPARED_SQL: &str = "SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP ? LIMIT ?";
const PREPARED_LIMIT: usize = 20;
const QUERY_LIMIT: usize = 50;

pub fn map_sql(keyword: &str) -> String {
    format!("SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP '{keyword}' LIMIT {QUERY_LIMIT}")
}

fn staccato_sql(keyword: &str) -> String {
    format!(
        "SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP '{keyword}' LIMIT {QUERY_LIMIT}"
    )
}

/// Everything a statement without the tier would use; the rest is the
/// window's own counters, which only the embedded workloads sample.
const IDLE: &[&str] = &[
    "session.",
    "storage.wal_bytes_per_doc",
    "storage.wal_fsyncs_per_batch",
    "storage.save_ms_per_checkpoint",
    "storage.pool_misses_per_stmt",
    "storage.pool_evictions_per_stmt",
    "query.plan_wall_us_p50",
    "query.exec_wall_us_p50",
    "query.prescreen_skip_rate",
    "query.lines_evaluated_per_answer",
    "query.postings_",
    "query.pool_hits_per_stmt",
    "query.probe_vs_scan_ratio",
];

/// One distinct request of the mix and the rows it must return.
struct Call {
    path: &'static str,
    /// The statement `/query` carries. `/execute` binds `keyword` into the
    /// statement prepared on its connection instead.
    sql: String,
    keyword: String,
    /// The statement's `LIMIT`.
    limit: usize,
    expected: Vec<Answer>,
}

struct Env {
    dataset: Dataset,
    session: Arc<Staccato>,
    server: ServerHandle,
    index: probe_hot::IndexBuild,
}

fn setup(ctx: &Ctx) -> Result<Env, String> {
    let dataset = data::corpus(ctx.sizes.http_lines, ctx.seed);
    let db = Database::in_memory(ctx.sizes.hot_frames).map_err(err)?;
    let session =
        Staccato::load(db, &dataset, &data::load_options(ctx.seed, ctx.clients)).map_err(err)?;
    let index = probe_hot::build_index(ctx, &session, &dataset)?;
    let session = Arc::new(session);
    let server = Server::start(Arc::clone(&session), ServerConfig::default()).map_err(err)?;
    Ok(Env {
        dataset,
        session,
        server,
        index,
    })
}

fn sql_body(sql: &str) -> String {
    Json::Obj(vec![("sql".to_string(), Json::Str(sql.to_string()))]).render()
}

fn prepared_params(keyword: &str) -> [SqlValue; 2] {
    [
        SqlValue::text(keyword),
        SqlValue::Int(PREPARED_LIMIT as u64),
    ]
}

fn execute_body(statement_id: u64, keyword: &str) -> String {
    format!("{{\"statement_id\":{statement_id},\"params\":[\"{keyword}\",{PREPARED_LIMIT}]}}")
}

/// The probes are the dearest fifth of the mix (about 90 µs per line that
/// holds the anchor). Their anchors occur in this many lines each, which
/// keeps them cheap and their cost the same from seed to seed.
const PROBE_ANCHOR_LINES: [usize; 10] = [2, 2, 3, 3, 4, 4, 5, 5, 6, 6];

/// The distinct calls — `6u` MAP keywords, `2u` Staccato probes, `2u`
/// prepared executions for the largest `u ≤ 5` the corpus supports — so
/// that a shuffled pass over them is 60/20/20.
fn calls(ctx: &Ctx, env: &Env) -> Result<Vec<Call>, String> {
    let session = &*env.session;
    let keywords = data::stratified_keywords(&env.dataset, 30, 0.1, 0.9);
    let probes = data::keywords_at_line_counts(&env.dataset, &PROBE_ANCHOR_LINES, |k| {
        let request = data::staccato_request(k, staccato_query::PlanPreference::Auto);
        session.plan(&request).is_ok_and(|p| p.is_index_probe())
    });
    let unit = (keywords.len() / 6).min(probes.len() / 2);
    if unit == 0 {
        return Err("the corpus yields too few keywords for the request mix".to_string());
    }
    let keywords = &keywords[..6 * unit];
    let probes = &probes[..2 * unit];
    let prepared = session.prepare(PREPARED_SQL).map_err(err)?;
    let mut out = Vec::new();
    let mut push = |path, sql: String, keyword: &str, output: QueryOutput| {
        out.push(Call {
            path,
            sql,
            keyword: keyword.to_string(),
            limit: if path == "/execute" {
                PREPARED_LIMIT
            } else {
                QUERY_LIMIT
            },
            expected: ctx.expected(output.answers),
        });
    };
    for k in keywords {
        let sql = map_sql(k);
        let output = session.sql(&sql).map_err(err)?;
        push("/query", sql, k, output);
    }
    for k in probes {
        let sql = staccato_sql(k);
        let output = session.sql(&sql).map_err(err)?;
        push("/query", sql, k, output);
    }
    for k in keywords.iter().step_by(3).take(2 * unit) {
        let output = session
            .execute_prepared(&prepared, &prepared_params(k))
            .map_err(err)?;
        push("/execute", String::new(), k, output);
    }
    Ok(out)
}

/// Does a 200 response carry exactly `expected`, key for key and
/// `f64::to_bits` for `to_bits`? Returns the server's own
/// `plan_us + exec_us` when it does.
fn check(response: &HttpResponse, expected: &[Answer]) -> Option<f64> {
    if response.status != 200 {
        return None;
    }
    let doc = response.json().ok()?;
    let rows = doc.get("rows")?.as_array()?;
    let same = rows.len() == expected.len()
        && rows.iter().zip(expected).all(|(row, want)| {
            row.get("key").and_then(Json::as_f64) == Some(want.data_key as f64)
                && row.get("prob").and_then(Json::as_f64).map(f64::to_bits)
                    == Some(want.probability.to_bits())
        });
    let stats = doc.get("stats")?;
    let own_us = stats.get("plan_us")?.as_f64()? + stats.get("exec_us")?.as_f64()?;
    same.then_some(own_us)
}

#[derive(Default)]
struct ClientLog {
    ops: OpLog,
    /// Client wall minus the response's own `plan_us + exec_us`.
    overhead_us: Vec<f64>,
    failed: u64,
    sample: Option<(String, String)>,
}

fn client(
    ctx: &Ctx,
    addr: SocketAddr,
    calls: &[Call],
    c: usize,
    requests: usize,
) -> Result<ClientLog, String> {
    let mut http = HttpClient::connect(addr).map_err(err)?;
    let prepared = http
        .post("/prepare", &sql_body(PREPARED_SQL))
        .map_err(err)?;
    let statement_id = prepared
        .json()
        .ok()
        .and_then(|j| j.get("statement_id").and_then(Json::as_u64))
        .ok_or("the server did not prepare the statement")?;
    let bodies: Vec<String> = calls
        .iter()
        .map(|call| match call.path {
            "/execute" => execute_body(statement_id, &call.keyword),
            _ => sql_body(&call.sql),
        })
        .collect();
    let mut rng = Rng::new(data::sub_seed(
        ctx.seed.wrapping_add(c as u64),
        Stream::Shuffle,
    ));
    let mut log = ClientLog::default();
    let started = Instant::now();
    let mut pass: Vec<usize> = Vec::new();
    for i in 0..requests {
        if pass.is_empty() {
            pass = (0..calls.len()).collect();
            rng.shuffle(&mut pass);
        }
        let which = pass.pop().expect("refilled above");
        let (call, body) = (&calls[which], &bodies[which]);
        let op = (c * requests + i) as u64;
        let issued = Instant::now();
        let response = ctx
            .tracer
            .span("http.post", None, op, |_| http.post(call.path, body));
        let elapsed = issued.elapsed();
        log.ops.push(which, elapsed, started.elapsed());
        match response.ok().and_then(|r| {
            let own = check(&r, &call.expected);
            if log.sample.is_none() {
                log.sample = Some((body.clone(), r.body));
            }
            own
        }) {
            Some(own_us) => log.overhead_us.push(micros(elapsed) - own_us),
            None => log.failed += 1,
        }
        ctx.check_deadline(started)?;
    }
    Ok(log)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        idle: IDLE,
        ..Outcome::default()
    };
    let (env, setup_s) = median_setup(ctx, || setup(ctx))?;
    let session = &*env.session;
    let calls = calls(ctx, &env)?;
    let requests = ctx.ops("http_closed");
    let addr = env.server.addr();

    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.clients)
            .map(|c| {
                let calls = &calls;
                scope.spawn(move || client(ctx, addr, calls, c, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    out.set("trace.spans", ctx.tracer.len() as f64);
    let logs: Vec<ClientLog> = logs.into_iter().collect::<Result<_, _>>()?;

    out.attempted = (ctx.clients * requests) as u64;
    out.failed = logs.iter().map(|l| l.failed).sum();
    out.note("lines", ctx.sizes.http_lines);
    out.note("connections", ctx.clients);
    out.note("requests_per_connection", requests);
    out.note("distinct_calls", calls.len());
    out.note("server_workers", ServerConfig::default().workers);

    let requests_of: Vec<QueryRequest> = calls
        .iter()
        .map(|c| QueryRequest::regex(&c.keyword))
        .collect();
    let recall = data::mean_recall(
        session,
        requests_of
            .iter()
            .zip(&calls)
            .map(|(r, c)| (r, c.expected.as_slice(), c.limit)),
    )?;
    out.set_common(
        setup_s,
        stored_ratio(session, 0, env.dataset.text_bytes()),
        recall,
    );

    if ctx.traced() {
        let overhead = sorted(logs.iter().flat_map(|l| l.overhead_us.clone()).collect());
        if !overhead.is_empty() {
            out.set("server.overhead_p50_us", percentile(&overhead, 0.50));
            out.set("server.overhead_p95_us", percentile(&overhead, 0.95));
        }
        let pool = session.pool_stats();
        out.set("storage.pool_hit_rate", pool.hit_rate());
        let cache = session.query_cache_stats();
        out.set(
            "query.cache_hit_rate",
            cache.hits as f64 / ((cache.hits + cache.misses) as f64).max(1.0),
        );
        env.index.report(&mut out, &env.dataset);
        let sample = logs.iter().find_map(|l| l.sample.clone());
        let tier = server_probes(ctx, &env, &calls, sample, &mut out)?;
        probes::run_common(ctx, session, &env.dataset, &mut out)?;
        // A request is: the tier with no statement in it, the statement
        // itself, and the JSON on either side of it.
        let latencies_ms: Vec<f64> = logs.iter().flat_map(|l| l.ops.latency_ms.clone()).collect();
        out.set(
            "trace.accounted_share",
            tier / (median(&latencies_ms) * 1e3),
        );
    }
    env.server.shutdown();
    let ops: Vec<OpLog> = logs.into_iter().map(|l| l.ops).collect();
    op_metrics(&mut out, &ops);
    Ok(out)
}

/// The tier's parts, each on its own: the same mix through the embedded
/// API, `GET /healthz` (a request with no statement in it), JSON parse and
/// render on a recorded request and response, and the server's own view
/// of `/query` from `GET /stats`. Returns their sum in microseconds.
fn server_probes(
    ctx: &Ctx,
    env: &Env,
    calls: &[Call],
    sample: Option<(String, String)>,
    out: &mut Outcome,
) -> Result<f64, String> {
    let session = &*env.session;
    let n = ctx.sizes.probe_items * 8;
    let tracer = ctx.tracer;
    tracer.span("probes.server", None, 0, |parent| {
        let prepared = session.prepare(PREPARED_SQL).map_err(err)?;
        let embedded = tracer.span("server.embedded", parent, 0, |_| {
            let mut us = Vec::with_capacity(n);
            for call in calls.iter().cycle().take(n) {
                let started = Instant::now();
                match call.path {
                    "/execute" => {
                        session.execute_prepared(&prepared, &prepared_params(&call.keyword))
                    }
                    _ => session.sql(&call.sql),
                }
                .map_err(err)?;
                us.push(micros(started.elapsed()));
            }
            Ok::<f64, String>(median(&us))
        })?;
        let mut http = HttpClient::connect(env.server.addr()).map_err(err)?;
        let healthz = tracer.span("server.healthz", parent, 0, |_| {
            let mut us = Vec::with_capacity(n);
            for _ in 0..n {
                let started = Instant::now();
                let response = http.get("/healthz").map_err(err)?;
                us.push(micros(started.elapsed()));
                if response.status != 200 {
                    return Err(format!("/healthz answered {}", response.status));
                }
            }
            Ok(median(&us))
        })?;
        let (request, response) = sample.ok_or("no request was recorded")?;
        let per_call = |f: &mut dyn FnMut()| {
            let started = Instant::now();
            for _ in 0..n {
                f();
            }
            micros(started.elapsed()) / n as f64
        };
        let parse = tracer.span("server.json_parse", parent, 0, |_| {
            per_call(&mut || {
                black_box(Json::parse(black_box(&request)).expect("a recorded request"));
            })
        });
        let document = Json::parse(&response).map_err(err)?;
        let render = tracer.span("server.json_render", parent, 0, |_| {
            per_call(&mut || {
                black_box(black_box(&document).render());
            })
        });
        let stats = http.get("/stats").map_err(err)?.json().map_err(err)?;
        let query_p50 = stats
            .get("server")
            .and_then(|s| s.get("endpoints"))
            .and_then(|e| e.get("query"))
            .and_then(|q| q.get("p50_us"))
            .and_then(Json::as_f64)
            .ok_or("GET /stats carries no /query p50")?;
        out.set("server.embedded_p50_us", embedded);
        out.set("server.healthz_p50_us", healthz);
        out.set("server.json_parse_us_per_req", parse);
        out.set("server.json_render_us_per_resp", render);
        out.set("server.query_p50_us", query_p50);
        Ok(embedded + healthz + parse + render)
    })
}
