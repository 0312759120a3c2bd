//! The service itself: one thread per keep-alive connection over a
//! shared [`Staccato`] session.
//!
//! # Thread model
//!
//! One acceptor thread, plus one thread per accepted connection. A
//! connection's thread runs blocking read → route → answer until the
//! connection closes, so a request never waits for another
//! connection's socket and never changes threads. An idle connection
//! costs a thread blocked in `read`, which wakes only when the read
//! times out (after `min(request_deadline, idle_timeout)`) or at
//! shutdown.
//!
//! [`ServerConfig::workers`] bounds how many requests *execute* at
//! once, not how many connections are open: a thread takes one of
//! `workers` permits after it has read a whole request and gives it
//! back before it writes the response. Connections outnumber workers
//! freely (32 keep-alive clients on 4 workers), and a slow reader or
//! writer holds no permit.
//!
//! Per-connection state (prepared statements) is a local of the
//! connection's thread and dies with it.
//!
//! # Limits
//!
//! * request bodies over [`ServerConfig::max_body_bytes`] → 413;
//! * clients sending faster than their token bucket refills → 429
//!   with `Retry-After` (identity = `X-Client-Id` header, else peer
//!   IP; the header exists because distinct load-generator clients
//!   share one loopback IP);
//! * queries running past [`ServerConfig::query_wall_limit`] → 408
//!   `QUERY_TIMEOUT`. Enforcement is **post-hoc**: the executors have
//!   no cancellation points, so the query runs to completion and the
//!   oversized result is discarded — the limit bounds what clients
//!   wait for, not what the server spends (DESIGN.md, "Service
//!   tier");
//! * a request whose bytes dribble in for longer than
//!   [`ServerConfig::request_deadline`] → 408 `REQUEST_TIMEOUT`;
//! * connections idle past [`ServerConfig::idle_timeout`] are dropped.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] sets the shutdown flag, shuts down the
//! read side of every open connection (a blocked reader sees EOF and
//! its thread exits; the client sees EOF and can retry elsewhere),
//! unblocks the acceptor and joins it, which joins every connection
//! thread. A thread mid-request **finishes it** — the response is
//! written with `Connection: close` — so shutdown drains in-flight work
//! without truncating anyone's answer.

use crate::error::ApiError;
use crate::http::{Connection, ReadError, Request, Response};
use crate::json::{obj, Json};
use crate::limits::{RateLimit, TokenBuckets};
use crate::stats::{Endpoint, ServerStats};
use staccato_query::{DocumentInput, IngestBatch, PreparedQuery, QueryOutput, SqlValue, Staccato};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Requests executing at once (connections are not limited).
    pub workers: usize,
    /// 413 threshold for request bodies.
    pub max_body_bytes: usize,
    /// Post-hoc per-query wall-clock limit (408 `QUERY_TIMEOUT`).
    pub query_wall_limit: Duration,
    /// 408 threshold for a partially-received request.
    pub request_deadline: Duration,
    /// Drop keep-alive connections idle longer than this.
    pub idle_timeout: Duration,
    /// Per-client token bucket; `None` disables rate limiting.
    pub rate_limit: Option<RateLimit>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_body_bytes: 64 * 1024,
            query_wall_limit: Duration::from_secs(10),
            request_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            rate_limit: None,
        }
    }
}

/// A counting semaphore: `workers` permits to execute a request.
struct Permits {
    state: Mutex<PermitState>,
    handed: Condvar,
}

struct PermitState {
    /// Permits nobody holds.
    free: usize,
    /// Threads waiting for a permit.
    waiting: usize,
    /// Permits given back to waiters that none has taken yet.
    handed: usize,
}

impl Permits {
    fn acquire(&self) -> Permit<'_> {
        let mut state = self.state.lock().expect("permits poisoned");
        if state.free > 0 {
            state.free -= 1;
            return Permit(self);
        }
        // Wait before looking at `handed`: a permit handed out already
        // belongs to a thread that was waiting before this one.
        state.waiting += 1;
        loop {
            state = self.handed.wait(state).expect("permits poisoned");
            if state.handed > 0 {
                state.handed -= 1;
                state.waiting -= 1;
                return Permit(self);
            }
        }
    }
}

/// One permit, given back on drop.
struct Permit<'a>(&'a Permits);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Every update is one step, so a poisoned count is still valid.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        // A waiter is handed the permit rather than it being freed: a
        // thread that has just read a request would otherwise take it
        // first, and a waiter could be passed over again and again.
        let hand_off = state.waiting > state.handed;
        if hand_off {
            state.handed += 1;
        } else {
            state.free += 1;
        }
        drop(state);
        // `notify_one` is a syscall even with no waiter; skip it then.
        if hand_off {
            self.0.handed.notify_one();
        }
    }
}

struct Shared {
    session: Arc<Staccato>,
    config: ServerConfig,
    stats: ServerStats,
    limiter: Option<TokenBuckets>,
    /// Set only under `open`'s lock (see [`Shared::register`]).
    shutdown: AtomicBool,
    /// A clone of every open connection's stream, by connection id, so
    /// shutdown can wake the readers blocked on them.
    open: Mutex<HashMap<u64, TcpStream>>,
    permits: Permits,
}

impl Shared {
    /// Keep a clone of `stream` for shutdown to wake. `false` once
    /// shutdown has begun: the flag is set under the same lock, so a
    /// connection is either registered before it (and woken) or
    /// refused here.
    fn register(&self, id: u64, stream: &TcpStream) -> bool {
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        let mut open = self.open.lock().expect("open poisoned");
        if self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        open.insert(id, clone);
        true
    }

    /// Drop connection `id`'s clone, so closing the connection's own
    /// stream closes the socket.
    fn deregister(&self, id: u64) {
        self.open.lock().expect("open poisoned").remove(&id);
    }

    /// Set the shutdown flag and wake every blocked reader. Runs in
    /// `Drop`, so a poisoned map (every update is one step) is used.
    fn close(&self) {
        let open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        self.shutdown.store(true, Ordering::SeqCst);
        for stream in open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// The running server. Dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the acceptor, and return the handle.
    pub fn start(session: Arc<Staccato>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let permits = Permits {
            state: Mutex::new(PermitState {
                free: config.workers.max(1),
                waiting: 0,
                handed: 0,
            }),
            handed: Condvar::new(),
        };
        let limiter = config.rate_limit.map(TokenBuckets::new);
        let shared = Arc::new(Shared {
            session,
            config,
            stats: ServerStats::default(),
            limiter,
            shutdown: AtomicBool::new(false),
            open: Mutex::default(),
            permits,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("staccato-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    /// The same as dropping the handle.
    pub fn shutdown(self) {}
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.close();
        // Unblock the acceptor's blocking `accept()` by dialing it.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Accept until shutdown, one scoped thread per connection; returns
/// once every connection thread has finished.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    let timeout = shared
        .config
        .request_deadline
        .min(shared.config.idle_timeout);
    std::thread::scope(|scope| {
        for id in 0_u64.. {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return; // the shutdown self-dial (or a straggler)
                    }
                    if stream.set_read_timeout(Some(timeout)).is_err() {
                        continue;
                    }
                    if !shared.register(id, &stream) {
                        continue;
                    }
                    shared.stats.connection_accepted();
                    let spawned = std::thread::Builder::new()
                        .name("staccato-conn".into())
                        .spawn_scoped(scope, move || {
                            serve(shared, Connection::new(stream, peer));
                            shared.deregister(id);
                        });
                    if spawned.is_err() {
                        // The closure, and the stream in it, is dropped.
                        shared.deregister(id);
                    }
                }
                Err(_) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Transient accept failure (EMFILE, ECONNABORTED):
                    // back off briefly rather than spinning.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    });
}

/// Serve `conn` until it closes: read a request, execute it under a
/// permit, answer, repeat.
fn serve(shared: &Shared, mut conn: Connection) {
    // Prepared statements; `statement_id` is the index.
    let mut statements = Vec::new();
    let refusal = loop {
        match conn.read_request(shared.config.max_body_bytes, shared.config.request_deadline) {
            Ok(request) => {
                let permit = shared.permits.acquire();
                shared.stats.begin_request();
                let started = Instant::now();
                let (endpoint, mut response) = route(shared, &conn, &mut statements, &request);
                shared
                    .stats
                    .record(endpoint, response.status, started.elapsed());
                shared.stats.end_request();
                drop(permit);
                response.close = request.wants_close() || shared.shutdown.load(Ordering::SeqCst);
                if conn.write_response(&response).is_err() || response.close {
                    return;
                }
            }
            // Shutdown woke the read (or the client left): there is no
            // request to answer.
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(ReadError::Closed | ReadError::Io(_)) => return,
            Err(ReadError::Idle { started: None }) => {
                if conn.last_active.elapsed() > shared.config.idle_timeout {
                    return;
                }
            }
            // A partial request: the next read holds it to its deadline.
            Err(ReadError::Idle { started: Some(_) }) => {}
            Err(ReadError::Late) => {
                break ApiError::new(408, "REQUEST_TIMEOUT", "request not received in time");
            }
            Err(ReadError::BodyTooLarge(n)) => {
                break ApiError::new(
                    413,
                    "BODY_TOO_LARGE",
                    format!(
                        "request body is {n} bytes; the limit is {}",
                        shared.config.max_body_bytes
                    ),
                );
            }
            Err(ReadError::Malformed(why)) => break ApiError::new(400, "BAD_REQUEST", why),
        }
    };
    // A request that could not be read is refused, and the connection
    // closed.
    let mut response = refusal.response();
    shared
        .stats
        .record(Endpoint::Other, response.status, Duration::ZERO);
    response.close = true;
    let _ = conn.write_response(&response);
}

/// Identity for rate limiting: the `X-Client-Id` header, else peer IP.
fn client_identity(conn: &Connection, request: &Request) -> String {
    match request.header("x-client-id") {
        Some(id) if !id.is_empty() => id.to_string(),
        _ => conn.peer().ip().to_string(),
    }
}

fn route(
    shared: &Shared,
    conn: &Connection,
    statements: &mut Vec<PreparedQuery>,
    request: &Request,
) -> (Endpoint, Response) {
    let endpoint = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Endpoint::Healthz,
        ("GET", "/stats") => Endpoint::Stats,
        ("POST", "/query") => Endpoint::Query,
        ("POST", "/prepare") => Endpoint::Prepare,
        ("POST", "/execute") => Endpoint::Execute,
        ("POST", "/ingest") => Endpoint::Ingest,
        (_, "/healthz" | "/stats" | "/query" | "/prepare" | "/execute" | "/ingest") => {
            let err = ApiError::new(
                405,
                "METHOD_NOT_ALLOWED",
                format!("{} is not supported on {}", request.method, request.path),
            );
            return (Endpoint::Other, err.response());
        }
        (_, path) => {
            let err = ApiError::new(404, "NOT_FOUND", format!("no such endpoint {path:?}"));
            return (Endpoint::Other, err.response());
        }
    };

    if shared.shutdown.load(Ordering::SeqCst) {
        let err = ApiError::new(503, "SHUTTING_DOWN", "server is draining");
        return (endpoint, err.response());
    }

    // Health and stats stay reachable for monitors even when a client
    // identity is throttled.
    if !matches!(endpoint, Endpoint::Healthz | Endpoint::Stats) {
        if let Some(limiter) = &shared.limiter {
            let identity = client_identity(conn, request);
            if let Err(retry_after) = limiter.try_acquire(&identity) {
                let err = ApiError::new(
                    429,
                    "RATE_LIMITED",
                    format!("client {identity:?} is over its request budget"),
                );
                let response = err
                    .response()
                    .with_header("Retry-After", retry_after.to_string());
                return (endpoint, response);
            }
        }
    }

    let response = match endpoint {
        Endpoint::Healthz => handle_healthz(shared),
        Endpoint::Stats => handle_stats(shared),
        Endpoint::Query => handle_query(shared, request),
        Endpoint::Prepare => handle_prepare(shared, statements, request),
        Endpoint::Execute => handle_execute(shared, statements, request),
        Endpoint::Ingest => handle_ingest(shared, request),
        Endpoint::Other => unreachable!("handled above"),
    };
    (endpoint, response)
}

fn handle_healthz(shared: &Shared) -> Response {
    Response::json(
        200,
        obj([
            ("status", Json::Str("ok".into())),
            ("lines", Json::Num(shared.session.line_count() as f64)),
        ])
        .render(),
    )
}

fn handle_stats(shared: &Shared) -> Response {
    let pool = shared.session.pool_stats();
    let cache = shared.session.query_cache_stats();
    let mut body = vec![
        ("server".to_string(), shared.stats.to_json()),
        (
            "pool".to_string(),
            obj([
                ("hits", Json::Num(pool.hits as f64)),
                ("misses", Json::Num(pool.misses as f64)),
                ("writebacks", Json::Num(pool.writebacks as f64)),
                ("evictions", Json::Num(pool.evictions as f64)),
                ("hit_rate", Json::Num(pool.hit_rate())),
            ]),
        ),
        (
            "query_cache".to_string(),
            obj([
                ("hits", Json::Num(cache.hits as f64)),
                ("misses", Json::Num(cache.misses as f64)),
                ("evictions", Json::Num(cache.evictions as f64)),
                ("len", Json::Num(cache.len as f64)),
                ("capacity", Json::Num(cache.capacity as f64)),
            ]),
        ),
    ];
    let ingest = shared.session.ingest_stats();
    body.push((
        "ingest".to_string(),
        obj([
            ("batches", Json::Num(ingest.batches as f64)),
            ("docs", Json::Num(ingest.docs as f64)),
            (
                "wal_records_appended",
                Json::Num(ingest.wal_records_appended as f64),
            ),
            (
                "wal_bytes_logged",
                Json::Num(ingest.wal_bytes_logged as f64),
            ),
            ("wal_fsyncs", Json::Num(ingest.wal_fsyncs as f64)),
            ("replays", Json::Num(ingest.replays as f64)),
            (
                "wal_group_commits",
                Json::Num(ingest.wal_group_commits as f64),
            ),
            (
                "wal_batches_per_fsync",
                Json::Num(ingest.wal_batches_per_fsync),
            ),
            (
                "wal_flush_wait_p95_ms",
                Json::Num(ingest.wal_flush_wait_p95.as_secs_f64() * 1e3),
            ),
            (
                "wal_segments_deleted",
                Json::Num(ingest.wal_segments_deleted as f64),
            ),
            ("checkpoints", Json::Num(ingest.checkpoints as f64)),
            (
                "background_checkpoints",
                Json::Num(ingest.background_checkpoints as f64),
            ),
        ]),
    ));
    if let Some(limiter) = &shared.limiter {
        body.push((
            "rate_limiter".to_string(),
            obj([
                ("burst", Json::Num(limiter.limit().burst as f64)),
                ("per_sec", Json::Num(limiter.limit().per_sec)),
                (
                    "tracked_clients",
                    Json::Num(limiter.tracked_clients() as f64),
                ),
            ]),
        ));
    }
    Response::json(200, Json::Obj(body).render())
}

/// Pull the `"sql"` member out of a request body.
fn sql_of_body(body: &[u8]) -> Result<String, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "BAD_REQUEST", "body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| ApiError::new(400, "BAD_REQUEST", format!("body is not JSON: {e}")))?;
    match doc.get("sql").and_then(Json::as_str) {
        Some(sql) => Ok(sql.to_string()),
        None => Err(ApiError::new(
            400,
            "BAD_REQUEST",
            "body must be {\"sql\": \"...\"}",
        )),
    }
}

fn handle_query(shared: &Shared, request: &Request) -> Response {
    let sql = match sql_of_body(&request.body) {
        Ok(sql) => sql,
        Err(err) => return err.response(),
    };
    run_query(shared, || shared.session.sql(&sql))
}

fn handle_prepare(
    shared: &Shared,
    statements: &mut Vec<PreparedQuery>,
    request: &Request,
) -> Response {
    let sql = match sql_of_body(&request.body) {
        Ok(sql) => sql,
        Err(err) => return err.response(),
    };
    match shared.session.prepare(&sql) {
        Ok(prepared) => {
            let body = obj([
                ("statement_id", Json::Num(statements.len() as f64)),
                ("param_count", Json::Num(prepared.param_count() as f64)),
                ("sql", Json::Str(prepared.sql())),
            ]);
            statements.push(prepared);
            Response::json(200, body.render())
        }
        Err(e) => ApiError::from_query_error(&e).response(),
    }
}

/// JSON params → [`SqlValue`]s: strings bind as text, integral numbers
/// as integers (`LIMIT`/`OFFSET` slots), other numbers as floats.
fn params_of_json(doc: &Json) -> Result<Vec<SqlValue>, ApiError> {
    let items = match doc.get("params") {
        None => return Ok(Vec::new()),
        Some(value) => value
            .as_array()
            .ok_or_else(|| ApiError::new(400, "BAD_REQUEST", "\"params\" must be an array"))?,
    };
    items
        .iter()
        .map(|item| match item {
            Json::Str(s) => Ok(SqlValue::Text(s.clone())),
            Json::Num(_) => Ok(match item.as_u64() {
                Some(n) => SqlValue::Int(n),
                None => SqlValue::Number(item.as_f64().expect("is a number")),
            }),
            other => Err(ApiError::new(
                400,
                "BAD_REQUEST",
                format!("parameters must be strings or numbers, not {other}"),
            )),
        })
        .collect()
}

fn handle_execute(shared: &Shared, statements: &[PreparedQuery], request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return ApiError::new(400, "BAD_REQUEST", "body is not UTF-8").response(),
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return ApiError::new(400, "BAD_REQUEST", format!("body is not JSON: {e}")).response()
        }
    };
    let Some(id) = doc.get("statement_id").and_then(Json::as_u64) else {
        return ApiError::new(
            400,
            "BAD_REQUEST",
            "body must be {\"statement_id\": n, \"params\": [...]}",
        )
        .response();
    };
    let params = match params_of_json(&doc) {
        Ok(params) => params,
        Err(err) => return err.response(),
    };
    let Some(prepared) = statements.get(id as usize) else {
        return ApiError::new(
            404,
            "UNKNOWN_STATEMENT",
            format!(
                "statement {id} was not prepared on this connection ({} known)",
                statements.len()
            ),
        )
        .response();
    };
    run_query(shared, || {
        shared.session.execute_prepared(prepared, &params)
    })
}

/// Run a query closure under the wall-clock limit and render it.
fn run_query(
    shared: &Shared,
    run: impl FnOnce() -> Result<QueryOutput, staccato_query::QueryError>,
) -> Response {
    let started = Instant::now();
    let result = run();
    let elapsed = started.elapsed();
    if elapsed > shared.config.query_wall_limit {
        let err = ApiError::new(
            408,
            "QUERY_TIMEOUT",
            format!(
                "query ran {}ms; the limit is {}ms (result discarded)",
                elapsed.as_millis(),
                shared.config.query_wall_limit.as_millis()
            ),
        );
        return err.response();
    }
    match result {
        Ok(output) => Response::json(200, output_json(&output).render()),
        Err(e) => ApiError::from_query_error(&e).response(),
    }
}

/// The `POST /query` / `POST /execute` success body.
fn output_json(output: &QueryOutput) -> Json {
    let rows = output
        .answers
        .iter()
        .map(|a| {
            obj([
                ("key", Json::Num(a.data_key as f64)),
                ("prob", Json::Num(a.probability)),
            ])
        })
        .collect();
    let mut members = vec![
        ("rows".to_string(), Json::Arr(rows)),
        (
            "row_count".to_string(),
            Json::Num(output.answers.len() as f64),
        ),
        ("plan".to_string(), Json::Str(output.plan.kind().into())),
        (
            "stats".to_string(),
            obj([
                ("rows_scanned", Json::Num(output.stats.rows_scanned as f64)),
                (
                    "lines_evaluated",
                    Json::Num(output.stats.lines_evaluated as f64),
                ),
                (
                    "postings_probed",
                    Json::Num(output.stats.postings_probed as f64),
                ),
                (
                    "plan_us",
                    Json::Num(output.stats.plan_wall.as_micros() as f64),
                ),
                (
                    "exec_us",
                    Json::Num(output.stats.exec_wall.as_micros() as f64),
                ),
                (
                    "pool",
                    obj([
                        ("hits", Json::Num(output.stats.pool.hits as f64)),
                        ("misses", Json::Num(output.stats.pool.misses as f64)),
                        ("evictions", Json::Num(output.stats.pool.evictions as f64)),
                    ]),
                ),
            ]),
        ),
    ];
    if let Some(agg) = &output.aggregate {
        members.push((
            "aggregate".to_string(),
            obj([
                ("func", Json::Str(agg.func.sql_name().into())),
                ("value", Json::Num(agg.value)),
            ]),
        ));
    }
    if let Some(explain) = &output.explain {
        members.push(("explain".to_string(), Json::Str(explain.clone())));
    }
    if let Some(receipt) = &output.ingest {
        members.push((
            "ingest".to_string(),
            obj([
                ("batch_seq", Json::Num(receipt.batch_seq as f64)),
                ("first_key", Json::Num(receipt.first_key as f64)),
                ("docs", Json::Num(receipt.docs as f64)),
                ("wal_bytes", Json::Num(receipt.wal_bytes as f64)),
                ("lsn", Json::Num(receipt.lsn as f64)),
            ]),
        ));
    }
    if let Some(history) = &output.history {
        let rows = history
            .iter()
            .map(|r| {
                obj([
                    ("key", Json::Num(r.data_key as f64)),
                    ("file_name", Json::Str(r.file_name.clone())),
                    ("provider", Json::Str(r.provider.clone())),
                    ("confidence", Json::Num(r.confidence)),
                    ("processing_time_ms", Json::Num(r.processing_time_ms as f64)),
                    ("ingested_at", Json::Num(r.ingested_at as f64)),
                    ("batch_seq", Json::Num(r.batch_seq as f64)),
                ])
            })
            .collect();
        members.push(("history".to_string(), Json::Arr(rows)));
    }
    Json::Obj(members)
}

/// Parse the `POST /ingest` body:
/// `{"documents": [{"name": "...", "text": "...", ...}]}`.
fn batch_of_body(body: &[u8]) -> Result<IngestBatch, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "BAD_REQUEST", "body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| ApiError::new(400, "BAD_REQUEST", format!("body is not JSON: {e}")))?;
    let items = doc
        .get("documents")
        .and_then(Json::as_array)
        .ok_or_else(|| {
            ApiError::new(
                400,
                "BAD_REQUEST",
                "body must be {\"documents\": [{\"name\": \"...\", \"text\": \"...\"}]}",
            )
        })?;
    let mut batch = IngestBatch::new();
    for (i, item) in items.iter().enumerate() {
        let name = item.get("name").and_then(Json::as_str).ok_or_else(|| {
            ApiError::new(
                400,
                "BAD_REQUEST",
                format!("document {i} is missing a string \"name\""),
            )
        })?;
        let text = item.get("text").and_then(Json::as_str).ok_or_else(|| {
            ApiError::new(
                400,
                "BAD_REQUEST",
                format!("document {i} is missing a string \"text\""),
            )
        })?;
        // Provenance defaults to the entry path; an explicit engine
        // name from the client overrides it.
        let mut input = DocumentInput::new(name, text).provider("http");
        if let Some(provider) = item.get("provider").and_then(Json::as_str) {
            input.provider = provider.to_string();
        }
        if let Some(confidence) = item.get("confidence").and_then(Json::as_f64) {
            if !(0.0..=1.0).contains(&confidence) {
                return Err(ApiError::new(
                    400,
                    "BAD_REQUEST",
                    format!("document {i}: confidence {confidence} is outside [0, 1]"),
                ));
            }
            input.confidence = confidence;
        }
        if let Some(ms) = item.get("processing_time_ms").and_then(Json::as_u64) {
            input.processing_time_ms = ms as i64;
        }
        batch = batch.doc(input);
    }
    Ok(batch)
}

fn handle_ingest(shared: &Shared, request: &Request) -> Response {
    let batch = match batch_of_body(&request.body) {
        Ok(batch) => batch,
        Err(err) => return err.response(),
    };
    match shared.session.ingest(batch) {
        Ok(receipt) => Response::json(
            200,
            obj([
                ("batch_seq", Json::Num(receipt.batch_seq as f64)),
                ("first_key", Json::Num(receipt.first_key as f64)),
                ("docs", Json::Num(receipt.docs as f64)),
                ("wal_bytes", Json::Num(receipt.wal_bytes as f64)),
                ("lsn", Json::Num(receipt.lsn as f64)),
            ])
            .render(),
        ),
        Err(e) => ApiError::from_query_error(&e).response(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_given_back_permit_goes_to_a_thread_already_waiting() {
        // The only permit has been handed to a waiter that has not woken.
        let permits = Permits {
            state: Mutex::new(PermitState {
                free: 0,
                waiting: 1,
                handed: 1,
            }),
            handed: Condvar::new(),
        };
        let count = |f: fn(&PermitState) -> usize| f(&permits.state.lock().unwrap());
        let (release, released) = std::sync::mpsc::channel::<()>();
        let permits_ref = &permits;
        std::thread::scope(|scope| {
            let newcomer = scope.spawn(move || {
                let permit = permits_ref.acquire();
                released.recv().unwrap();
                drop(permit);
            });
            while count(|s| s.waiting) < 2 && count(|s| s.handed) > 0 {
                std::thread::yield_now();
            }
            let taken_by_the_newcomer = count(|s| s.handed) == 0;
            let mut freed = 0;
            if !taken_by_the_newcomer {
                // Play the first waiter: take the permit, give it back.
                let mut state = permits.state.lock().unwrap();
                state.handed -= 1;
                state.waiting -= 1;
                drop(state);
                drop(Permit(&permits));
                freed = count(|s| s.free);
            }
            release.send(()).unwrap();
            newcomer.join().unwrap();
            assert!(!taken_by_the_newcomer, "the newcomer took a handed permit");
            assert_eq!(freed, 0, "given back while the newcomer waited");
        });
        let state = permits.state.lock().unwrap();
        assert_eq!((state.free, state.waiting, state.handed), (1, 0, 0));
    }
}
