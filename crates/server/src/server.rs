//! The service itself: a fixed worker pool multiplexing keep-alive
//! connections over a shared [`Staccato`] session.
//!
//! # Thread model
//!
//! One acceptor thread plus [`ServerConfig::workers`] worker threads.
//! Accepted connections land on a closable `ConnQueue`; a worker
//! pops a connection, serves **one** request (or gives up after the
//! socket's short poll timeout), then parks the connection back on the
//! queue — unless no other connection is waiting there, in which case
//! it keeps the connection for another turn (parking it would only wake
//! a second worker to pop it: a thread hand-off per request, which on a
//! two-core box was a third of a cheap statement's latency).
//! Connections outnumber workers by design — 32 keep-alive clients are
//! served by 4 workers because nobody owns a socket for longer than one
//! request while another connection waits. The cost is polling latency
//! bounded by `poll_interval × connections / workers` when everything
//! is idle; under load the next request's bytes are already buffered
//! when the connection is popped, so the poll never waits.
//!
//! Per-connection state (prepared statements) travels *with* the
//! connection through the queue, so any worker can serve any
//! connection's next request.
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
//! [`ServerHandle::shutdown`] stops the acceptor, closes the queue
//! (parked connections drop; their clients see EOF and can retry
//! elsewhere), and joins the workers. A worker mid-request **finishes
//! it** — the response is written with `Connection: close` — so
//! shutdown drains in-flight work without truncating anyone's answer.

use crate::error::ApiError;
use crate::http::{Connection, ReadError, Request, Response};
use crate::json::{obj, Json};
use crate::limits::{RateLimit, TokenBuckets};
use crate::stats::{Endpoint, ServerStats};
use staccato_query::{DocumentInput, IngestBatch, PreparedQuery, QueryOutput, SqlValue, Staccato};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// 413 threshold for request bodies.
    pub max_body_bytes: usize,
    /// Post-hoc per-query wall-clock limit (408 `QUERY_TIMEOUT`).
    pub query_wall_limit: Duration,
    /// How long a worker polls an idle connection before parking it.
    pub poll_interval: Duration,
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
            poll_interval: Duration::from_millis(15),
            request_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            rate_limit: None,
        }
    }
}

/// A connection plus the per-connection API state that must follow it
/// from worker to worker.
struct ClientConn {
    conn: Connection,
    /// Prepared statements; `statement_id` is the index.
    prepared: Vec<PreparedQuery>,
}

/// The closable connection queue: `Mutex<VecDeque>` + `Condvar`.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    conns: VecDeque<ClientConn>,
    closed: bool,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Park a connection. After close, the connection is dropped
    /// instead (the socket closes; the client sees EOF).
    fn push(&self, conn: ClientConn) {
        let mut state = self.state.lock().expect("queue poisoned");
        if !state.closed {
            state.conns.push_back(conn);
            drop(state);
            self.ready.notify_one();
        }
    }

    /// Next connection, blocking until one is parked or the queue
    /// closes. `None` means shut down.
    fn pop(&self) -> Option<ClientConn> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(conn) = state.conns.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// No connection is parked and the queue is open — a worker that
    /// holds a connection may keep it.
    fn is_idle(&self) -> bool {
        let state = self.state.lock().expect("queue poisoned");
        state.conns.is_empty() && !state.closed
    }

    /// Close: wake every worker, drop every parked connection.
    fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        state.conns.clear();
        drop(state);
        self.ready.notify_all();
    }
}

struct Shared {
    session: Arc<Staccato>,
    config: ServerConfig,
    stats: ServerStats,
    limiter: Option<TokenBuckets>,
    shutdown: AtomicBool,
    queue: ConnQueue,
}

/// The running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] also shuts down (via `Drop`).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the acceptor and workers, and return the handle.
    pub fn start(session: Arc<Staccato>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let limiter = config.rate_limit.map(TokenBuckets::new);
        let shared = Arc::new(Shared {
            session,
            config,
            stats: ServerStats::default(),
            limiter,
            shutdown: AtomicBool::new(false),
            queue: ConnQueue::new(),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("staccato-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("staccato-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept()` by dialing it.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // the shutdown self-dial (or a straggler)
                }
                if stream
                    .set_read_timeout(Some(shared.config.poll_interval))
                    .is_err()
                {
                    continue;
                }
                shared.stats.connection_accepted();
                shared.queue.push(ClientConn {
                    conn: Connection::new(stream, peer),
                    prepared: Vec::new(),
                });
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
}

fn worker_loop(shared: &Shared) {
    while let Some(mut client) = shared.queue.pop() {
        let mut turn = serve_one(shared, &mut client);
        // Nobody is waiting for a worker: keep the connection for its
        // next turn. Parking it would only wake another worker to pop
        // it — a thread hand-off per request.
        while matches!(turn, Turn::Park) && shared.queue.is_idle() {
            turn = serve_one(shared, &mut client);
        }
        match turn {
            Turn::Park => shared.queue.push(client),
            Turn::Close => drop(client),
        }
    }
}

/// What to do with the connection after one service turn.
enum Turn {
    /// Keep-alive: back on the queue for its next request.
    Park,
    /// Done (client left, protocol error, or shutdown).
    Close,
}

/// Serve at most one request off `client`.
fn serve_one(shared: &Shared, client: &mut ClientConn) -> Turn {
    let request = match client.conn.read_request(shared.config.max_body_bytes) {
        Ok(request) => request,
        Err(ReadError::Closed) | Err(ReadError::Io(_)) => return Turn::Close,
        Err(ReadError::Idle { started }) => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return Turn::Close;
            }
            if let Some(started) = started {
                if started.elapsed() > shared.config.request_deadline {
                    let err = ApiError::new(408, "REQUEST_TIMEOUT", "request not received in time");
                    return answer(shared, client, Endpoint::Other, err.response(), true);
                }
            } else if client.conn.last_active.elapsed() > shared.config.idle_timeout {
                return Turn::Close;
            }
            return Turn::Park;
        }
        Err(ReadError::BodyTooLarge(n)) => {
            let err = ApiError::new(
                413,
                "BODY_TOO_LARGE",
                format!(
                    "request body is {n} bytes; the limit is {}",
                    shared.config.max_body_bytes
                ),
            );
            return answer(shared, client, Endpoint::Other, err.response(), true);
        }
        Err(ReadError::Malformed(why)) => {
            let err = ApiError::new(400, "BAD_REQUEST", why);
            return answer(shared, client, Endpoint::Other, err.response(), true);
        }
    };

    shared.stats.begin_request();
    let started = Instant::now();
    let (endpoint, response) = route(shared, client, &request);
    shared
        .stats
        .record(endpoint, response.status, started.elapsed());
    shared.stats.end_request();

    let close = request.wants_close() || shared.shutdown.load(Ordering::SeqCst);
    answer(shared, client, endpoint, response, close)
}

/// Write `response` (forcing `Connection: close` when asked) and pick
/// the follow-up turn. The endpoint is only used to account write
/// failures; successful responses were already recorded by the caller
/// unless this is a protocol-level error path.
fn answer(
    shared: &Shared,
    client: &mut ClientConn,
    endpoint: Endpoint,
    mut response: Response,
    close: bool,
) -> Turn {
    response.close = close;
    // Protocol-level errors (413/400/408 before routing) bypass the
    // route() accounting; record them here so /stats sees everything.
    if endpoint == Endpoint::Other {
        shared
            .stats
            .record(endpoint, response.status, Duration::ZERO);
    }
    match client.conn.write_response(&response) {
        Ok(()) if !close => Turn::Park,
        _ => Turn::Close,
    }
}

/// Identity for rate limiting: the `X-Client-Id` header, else peer IP.
fn client_identity(client: &ClientConn, request: &Request) -> String {
    match request.header("x-client-id") {
        Some(id) if !id.is_empty() => id.to_string(),
        _ => client.conn.peer().ip().to_string(),
    }
}

fn route(shared: &Shared, client: &mut ClientConn, request: &Request) -> (Endpoint, Response) {
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
            let identity = client_identity(client, request);
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
        Endpoint::Prepare => handle_prepare(shared, client, request),
        Endpoint::Execute => handle_execute(shared, client, request),
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

fn handle_prepare(shared: &Shared, client: &mut ClientConn, request: &Request) -> Response {
    let sql = match sql_of_body(&request.body) {
        Ok(sql) => sql,
        Err(err) => return err.response(),
    };
    match shared.session.prepare(&sql) {
        Ok(prepared) => {
            let body = obj([
                ("statement_id", Json::Num(client.prepared.len() as f64)),
                ("param_count", Json::Num(prepared.param_count() as f64)),
                ("sql", Json::Str(prepared.sql())),
            ]);
            client.prepared.push(prepared);
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

fn handle_execute(shared: &Shared, client: &mut ClientConn, request: &Request) -> Response {
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
    let Some(prepared) = client.prepared.get(id as usize) else {
        return ApiError::new(
            404,
            "UNKNOWN_STATEMENT",
            format!(
                "statement {id} was not prepared on this connection ({} known)",
                client.prepared.len()
            ),
        )
        .response();
    };
    // Clone out of `client` so the borrow does not outlive the call.
    let prepared = prepared.clone();
    run_query(shared, || {
        shared.session.execute_prepared(&prepared, &params)
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
