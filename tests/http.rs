//! End-to-end tests of the HTTP service tier: a real server on an
//! ephemeral port, exercised with the crate's own blocking client.

use staccato::approx::StaccatoParams;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::store::LoadOptions;
use staccato::server::{HttpClient, Json, RateLimit, Server, ServerConfig, ServerHandle};
use staccato::storage::Database;
use staccato::Staccato;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn session(lines: usize) -> Arc<Staccato> {
    let dataset = generate(CorpusKind::CongressActs, lines, 11);
    let db = Database::in_memory(1024).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(11),
        kmap_k: 4,
        staccato: StaccatoParams::new(6, 4),
        parallelism: 2,
    };
    Arc::new(Staccato::load(db, &dataset, &opts).expect("load"))
}

/// Two workers and no rate limit unless a test asks for one.
fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }
}

fn boot(session: Arc<Staccato>, config: ServerConfig) -> ServerHandle {
    Server::start(session, config).expect("server starts on an ephemeral port")
}

fn rows_of(body: &Json) -> Vec<(i64, f64)> {
    body.get("rows")
        .and_then(Json::as_array)
        .expect("rows array")
        .iter()
        .map(|r| {
            (
                r.get("key").unwrap().as_f64().unwrap() as i64,
                r.get("prob").unwrap().as_f64().unwrap(),
            )
        })
        .collect()
}

fn error_code(body: &Json) -> String {
    body.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error envelope")
        .to_string()
}

#[test]
fn query_prepare_execute_match_the_embedded_session() {
    let session = session(40);
    let server = boot(Arc::clone(&session), test_config());
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    // Health first: the server is up and sees the corpus.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let health = health.json().expect("json");
    assert_eq!(health.get("lines").unwrap().as_u64(), Some(40));

    // POST /query equals the embedded session's answer exactly.
    let sql = "SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP 'President' LIMIT 10";
    let over_http = client
        .post("/query", &format!("{{\"sql\": {:?}}}", sql))
        .expect("query");
    assert_eq!(over_http.status, 200, "{}", over_http.body);
    let over_http = over_http.json().expect("json");
    let embedded = session.sql(sql).expect("embedded");
    let expected: Vec<(i64, f64)> = embedded
        .answers
        .iter()
        .map(|a| (a.data_key, a.probability))
        .collect();
    let got = rows_of(&over_http);
    assert_eq!(got.len(), expected.len());
    for ((hk, hp), (ek, ep)) in got.iter().zip(&expected) {
        assert_eq!(hk, ek);
        assert!((hp - ep).abs() < 1e-12);
    }
    assert_eq!(
        over_http.get("plan").unwrap().as_str(),
        Some(embedded.plan.kind())
    );
    assert!(over_http.get("stats").unwrap().get("exec_us").is_some());

    // Prepare once, execute with two different bindings.
    let prepared = client
        .post(
            "/prepare",
            "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data REGEXP ? LIMIT ?\"}",
        )
        .expect("prepare");
    assert_eq!(prepared.status, 200, "{}", prepared.body);
    let prepared = prepared.json().expect("json");
    let id = prepared.get("statement_id").unwrap().as_u64().unwrap();
    assert_eq!(prepared.get("param_count").unwrap().as_u64(), Some(2));
    for (pattern, limit) in [("President", 5), ("Public", 3)] {
        let executed = client
            .post(
                "/execute",
                &format!("{{\"statement_id\": {id}, \"params\": [{pattern:?}, {limit}]}}"),
            )
            .expect("execute");
        assert_eq!(executed.status, 200, "{}", executed.body);
        let direct = session
            .sql(&format!(
                "SELECT DataKey FROM MAPData WHERE Data REGEXP '{pattern}' LIMIT {limit}"
            ))
            .expect("embedded");
        let got = rows_of(&executed.json().expect("json"));
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            direct
                .answers
                .iter()
                .map(|a| a.data_key)
                .collect::<Vec<_>>()
        );
    }

    // Aggregates come back as a scalar, not rows.
    let count = client
        .post(
            "/query",
            "{\"sql\": \"SELECT COUNT(*) FROM MAPData WHERE Data REGEXP 'the'\"}",
        )
        .expect("count");
    let count = count.json().expect("json");
    assert_eq!(count.get("row_count").unwrap().as_u64(), Some(0));
    let agg = count.get("aggregate").expect("aggregate member");
    assert_eq!(agg.get("func").unwrap().as_str(), Some("COUNT(*)"));
    assert!(agg.get("value").unwrap().as_f64().unwrap() > 0.0);

    server.shutdown();
}

#[test]
fn http_pagination_tiles_the_embedded_ranking() {
    let session = session(60);
    let server = boot(Arc::clone(&session), test_config());
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    let unpaged = session
        .sql("SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP 'the' LIMIT 100000")
        .expect("unpaged");
    let mut paged = Vec::new();
    let page_size = 7;
    loop {
        let sql = format!(
            "SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP 'the' \
             LIMIT {page_size} OFFSET {}",
            paged.len()
        );
        let page = client
            .post("/query", &format!("{{\"sql\": {sql:?}}}"))
            .expect("page");
        assert_eq!(page.status, 200, "{}", page.body);
        let rows = rows_of(&page.json().expect("json"));
        let done = rows.len() < page_size;
        paged.extend(rows);
        if done {
            break;
        }
    }
    assert_eq!(paged.len(), unpaged.answers.len());
    for ((pk, pp), a) in paged.iter().zip(&unpaged.answers) {
        assert_eq!(*pk, a.data_key);
        assert!((pp - a.probability).abs() < 1e-12);
    }

    server.shutdown();
}

#[test]
fn more_connections_than_workers_all_make_progress() {
    // 8 connections, then 64 (32 per worker): every request is served.
    for connections in [8, 64] {
        every_connection_is_served(connections);
    }
}

fn every_connection_is_served(connections: usize) {
    let session = session(30);
    let server = boot(session, test_config()); // 2 workers
    let addr = server.addr();
    let threads: Vec<_> = (0..connections)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client =
                    HttpClient::connect_as(addr, &format!("conn-{i}")).expect("connect");
                for _ in 0..5 {
                    let resp = client
                        .post(
                            "/query",
                            "{\"sql\": \"SELECT DataKey FROM MAPData \
                             WHERE Data REGEXP 'President' LIMIT 5\"}",
                        )
                        .expect("query");
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn burst_over_the_token_bucket_answers_429_with_retry_after() {
    let session = session(20);
    let config = ServerConfig {
        rate_limit: Some(RateLimit::new(4, 2.0)),
        ..test_config()
    };
    let server = boot(session, config);

    let mut greedy = HttpClient::connect_as(server.addr(), "greedy").expect("connect");
    let mut oks = 0;
    let mut throttled = 0;
    for _ in 0..12 {
        let resp = greedy.get("/healthz").expect("healthz is exempt");
        assert_eq!(resp.status, 200, "healthz is never throttled");
        let resp = greedy
            .post(
                "/query",
                "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data REGEXP 'a' LIMIT 1\"}",
            )
            .expect("query");
        match resp.status {
            200 => oks += 1,
            429 => {
                throttled += 1;
                let retry = resp.header("retry-after").expect("Retry-After header");
                assert!(retry.parse::<u64>().expect("integer seconds") >= 1);
                assert_eq!(error_code(&resp.json().expect("json")), "RATE_LIMITED");
            }
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    assert!(oks >= 4, "the burst allowance must be served, got {oks}");
    assert!(throttled > 0, "12 back-to-back requests must throttle");

    // A different identity on the same IP has its own bucket.
    let mut polite = HttpClient::connect_as(server.addr(), "polite").expect("connect");
    let resp = polite
        .post(
            "/query",
            "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data REGEXP 'a' LIMIT 1\"}",
        )
        .expect("query");
    assert_eq!(resp.status, 200, "{}", resp.body);

    server.shutdown();
}

#[test]
fn error_codes_are_stable_and_bodies_are_enveloped() {
    let session = session(16);
    let config = ServerConfig {
        max_body_bytes: 512,
        ..test_config()
    };
    let server = boot(session, config);
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    // Malformed SQL → 400 SQL_PARSE.
    let resp = client
        .post("/query", "{\"sql\": \"SELEC nothing\"}")
        .expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.json().expect("json")), "SQL_PARSE");

    // Non-JSON body → 400 BAD_REQUEST.
    let resp = client.post("/query", "this is not json").expect("post");
    assert_eq!(resp.status, 400);
    assert_eq!(error_code(&resp.json().expect("json")), "BAD_REQUEST");

    // Executing a statement that was never prepared → 404 UNKNOWN_STATEMENT.
    let resp = client
        .post("/execute", "{\"statement_id\": 7, \"params\": []}")
        .expect("post");
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp.json().expect("json")), "UNKNOWN_STATEMENT");

    // Unknown path → 404; wrong method on a known path → 405.
    let resp = client.get("/nope").expect("get");
    assert_eq!(resp.status, 404);
    assert_eq!(error_code(&resp.json().expect("json")), "NOT_FOUND");
    let resp = client.get("/query").expect("get");
    assert_eq!(resp.status, 405);
    assert_eq!(
        error_code(&resp.json().expect("json")),
        "METHOD_NOT_ALLOWED"
    );

    // Oversized body → 413 BODY_TOO_LARGE, and the server closes that
    // connection (the body was never read off the wire).
    let huge = format!(
        "{{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data LIKE '%{}%'\"}}",
        "x".repeat(2048)
    );
    let resp = client.post("/query", &huge).expect("post");
    assert_eq!(resp.status, 413);
    assert_eq!(error_code(&resp.json().expect("json")), "BODY_TOO_LARGE");

    // A fresh connection works fine afterwards.
    let mut fresh = HttpClient::connect(server.addr()).expect("connect");
    assert_eq!(fresh.get("/healthz").expect("healthz").status, 200);

    // /stats saw all of this traffic.
    let stats = fresh.get("/stats").expect("stats").json().expect("json");
    let query_stats = stats
        .get("server")
        .unwrap()
        .get("endpoints")
        .unwrap()
        .get("query")
        .unwrap();
    assert!(query_stats.get("errors_4xx").unwrap().as_u64().unwrap() >= 2);
    assert!(stats.get("pool").unwrap().get("hit_rate").is_some());
    let Some(Json::Obj(cache)) = stats.get("query_cache") else {
        panic!("query_cache is an object: {stats:?}");
    };
    let keys: Vec<&str> = cache.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["hits", "misses", "evictions", "len", "capacity"]);

    // An ingest leaves compiled patterns cached: the repeated query hits.
    let cache_hits = |client: &mut HttpClient| {
        let stats = client.get("/stats").expect("stats").json().expect("json");
        let hits = stats.get("query_cache").and_then(|c| c.get("hits"));
        hits.and_then(Json::as_u64).expect("query_cache.hits")
    };
    let query = "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data LIKE '%Act%' LIMIT 5\"}";
    assert_eq!(fresh.post("/query", query).expect("query").status, 200);
    let hits_before = cache_hits(&mut fresh);
    let ingest = "{\"documents\": [{\"name\": \"c.png\", \"text\": \"an Act of record\"}]}";
    assert_eq!(fresh.post("/ingest", ingest).expect("ingest").status, 200);
    assert_eq!(fresh.post("/query", query).expect("query").status, 200);
    assert!(cache_hits(&mut fresh) > hits_before);

    server.shutdown();
}

#[test]
fn ingest_over_http_is_immediately_queryable() {
    let server = boot(session(6), test_config());
    let mut client = HttpClient::connect(server.addr()).expect("connect");

    // POST /ingest commits a two-document batch and returns the receipt.
    let resp = client
        .post(
            "/ingest",
            "{\"documents\": [\
             {\"name\": \"net-a.png\", \"text\": \"a zymurgy treatise arrived over the wire\", \
              \"provider\": \"tess\", \"confidence\": 0.75, \"processing_time_ms\": 12}, \
             {\"name\": \"net-b.png\", \"text\": \"the zymurgy appendix followed\"}]}",
        )
        .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let receipt = resp.json().expect("json");
    assert_eq!(receipt.get("batch_seq").unwrap().as_u64(), Some(1));
    assert_eq!(receipt.get("first_key").unwrap().as_u64(), Some(6));
    assert_eq!(receipt.get("docs").unwrap().as_u64(), Some(2));
    assert_eq!(
        receipt.get("wal_bytes").unwrap().as_u64(),
        Some(0),
        "in-memory session has no WAL attached"
    );

    // /healthz reflects the new lines with no refresh step.
    let health = client
        .get("/healthz")
        .expect("healthz")
        .json()
        .expect("json");
    assert_eq!(health.get("lines").unwrap().as_u64(), Some(8));

    // The documents answer /query immediately (FullSFA: the exact
    // lattice always carries the true string, MAP may decode past it).
    let hits = client
        .post(
            "/query",
            "{\"sql\": \"SELECT DataKey, Prob FROM FullSFAData \
             WHERE Data LIKE '%zymurgy%' LIMIT 10\"}",
        )
        .expect("query");
    assert_eq!(hits.status, 200);
    let rows = rows_of(&hits.json().expect("json"));
    assert_eq!(rows.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![6, 7]);
    assert!(rows.iter().all(|(_, p)| *p > 0.0));

    // ...and the history table rides the same endpoint, provenance intact.
    let history = client
        .post(
            "/query",
            "{\"sql\": \"SELECT * FROM StaccatoHistory WHERE FileName LIKE 'net-%'\"}",
        )
        .expect("history");
    assert_eq!(history.status, 200);
    let body = history.json().expect("json");
    let rows = body
        .get("history")
        .and_then(Json::as_array)
        .expect("history member")
        .to_vec();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[0].get("file_name").unwrap().as_str(),
        Some("net-a.png")
    );
    assert_eq!(rows[0].get("provider").unwrap().as_str(), Some("tess"));
    assert_eq!(rows[0].get("confidence").unwrap().as_f64(), Some(0.75));
    assert_eq!(rows[1].get("provider").unwrap().as_str(), Some("http"));

    // Malformed bodies get the stable error envelope, not a panic.
    for (body, code) in [
        ("{\"documents\": []}", "BAD_INGEST"),
        ("{\"documents\": [{\"name\": \"x.png\"}]}", "BAD_REQUEST"),
        (
            "{\"documents\": [{\"name\": \"x.png\", \"text\": \"t\", \"confidence\": 1.5}]}",
            "BAD_REQUEST",
        ),
        ("{\"docs\": []}", "BAD_REQUEST"),
    ] {
        let resp = client.post("/ingest", body).expect("post");
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert_eq!(error_code(&resp.json().expect("json")), code, "{body}");
    }

    // /stats carries the session-cumulative ingest counters.
    let stats = client.get("/stats").expect("stats").json().expect("json");
    let ingest = stats.get("ingest").expect("ingest section");
    assert_eq!(ingest.get("batches").unwrap().as_u64(), Some(1));
    assert_eq!(ingest.get("docs").unwrap().as_u64(), Some(2));
    assert_eq!(ingest.get("replays").unwrap().as_u64(), Some(0));
    let endpoint = stats
        .get("server")
        .unwrap()
        .get("endpoints")
        .unwrap()
        .get("ingest")
        .expect("ingest endpoint stats");
    assert_eq!(endpoint.get("requests").unwrap().as_u64(), Some(5));
    assert_eq!(endpoint.get("errors_4xx").unwrap().as_u64(), Some(4));

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_query() {
    let session = session(80);
    let server = boot(session, test_config());
    let addr = server.addr();

    // A deliberately heavy query (FullSFA scan over the whole corpus)
    // launched just before shutdown.
    let inflight = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("connect");
        client
            .post(
                "/query",
                "{\"sql\": \"SELECT DataKey, Prob FROM FullSFAData \
                 WHERE Data REGEXP 'the' LIMIT 100000\"}",
            )
            .expect("in-flight query must complete")
    });
    // Give a worker time to pick the request up, then shut down while
    // it is (most likely) still executing.
    std::thread::sleep(Duration::from_millis(40));
    server.shutdown();

    let resp = inflight.join().expect("client thread");
    assert_eq!(
        resp.status, 200,
        "shutdown must drain, not truncate: {}",
        resp.body
    );
    let rows = rows_of(&resp.json().expect("json"));
    assert!(!rows.is_empty(), "the drained response carries its answer");

    // After shutdown the port no longer accepts work.
    match HttpClient::connect(addr) {
        Err(_) => {}
        Ok(mut client) => {
            // The OS may still complete the TCP handshake on a dying
            // listener; any request on it must fail, not hang.
            client
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            assert!(client.get("/healthz").is_err());
        }
    }
}

/// Everything the server sends on `stream` until it closes it.
fn read_until_close(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .expect("the server closes the connection itself");
    text
}

#[test]
fn stalled_request_body_times_out_without_holding_the_worker() {
    let deadline = Duration::from_millis(200);
    let config = ServerConfig {
        workers: 1,
        request_deadline: deadline,
        ..test_config()
    };
    let server = boot(session(8), config);

    // The head promises 64 body bytes; only a few ever arrive.
    let sent = Instant::now();
    let mut stalled = TcpStream::connect(server.addr()).expect("connect");
    stalled
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"sql\":")
        .expect("send");

    // The stalled connection holds no worker permit while it waits:
    // another connection is served before the deadline expires.
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);

    let answer = read_until_close(&mut stalled);
    assert!(sent.elapsed() >= deadline, "{:?}", sent.elapsed());
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");
    assert!(answer.contains("REQUEST_TIMEOUT"), "{answer}");
    assert!(answer.contains("Connection: close"), "{answer}");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    server.shutdown();
}

#[test]
fn a_trickled_request_is_held_to_its_deadline() {
    let config = ServerConfig {
        request_deadline: Duration::from_millis(300),
        ..test_config()
    };
    let server = boot(session(8), config);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut trickle = stream.try_clone().expect("clone");

    // One head byte every 50 ms for 3 s: every read returns well inside
    // the socket timeout, so only the deadline can end the request.
    let first_byte = Instant::now();
    let writer = std::thread::spawn(move || {
        let head = b"GET /healthz HTTP/1.1\r\nX-Pad: ";
        for i in 0..60 {
            let byte = head.get(i).copied().unwrap_or(b'a');
            if trickle.write_all(&[byte]).is_err() {
                return; // the server hung up
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    // Read what the server sends until it closes; a trickled byte that
    // lands after the close may turn the close into a reset.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut answer = Vec::new();
    let mut answered = None;
    let mut chunk = [0u8; 512];
    while let Ok(n @ 1..) = stream.read(&mut chunk) {
        answered.get_or_insert_with(|| first_byte.elapsed());
        answer.extend_from_slice(&chunk[..n]);
    }
    writer.join().expect("writer");
    let answer = String::from_utf8_lossy(&answer);
    assert!(answer.starts_with("HTTP/1.1 408 "), "{answer}");
    assert!(answer.contains("REQUEST_TIMEOUT"), "{answer}");
    let answered = answered.expect("an answer");
    assert!(answered < Duration::from_secs(1), "{answered:?}");
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_is_closed_and_fresh_ones_still_serve() {
    let idle = Duration::from_millis(150);
    let config = ServerConfig {
        idle_timeout: idle,
        ..test_config()
    };
    let server = boot(session(8), config);

    let mut quiet = TcpStream::connect(server.addr()).expect("connect");
    quiet
        .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        .expect("send");
    let answered = Instant::now();
    // One keep-alive answer, then silence from the client: the read
    // ends only when the server hangs up.
    let answer = read_until_close(&mut quiet);
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    assert!(answer.contains("Connection: keep-alive"), "{answer}");
    assert!(answered.elapsed() >= idle, "{:?}", answered.elapsed());

    let mut client = HttpClient::connect(server.addr()).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    server.shutdown();
}

#[test]
fn http_1_0_requests_close_after_the_response() {
    let server = boot(session(8), test_config());
    let mut old = TcpStream::connect(server.addr()).expect("connect");
    old.write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("send");
    // No `Connection: keep-alive` from an HTTP/1.0 client: the server
    // answers once and hangs up.
    let answer = read_until_close(&mut old);
    assert!(answer.starts_with("HTTP/1.1 200 "), "{answer}");
    assert!(answer.contains("Connection: close"), "{answer}");
    server.shutdown();
}

#[test]
fn query_wall_limit_answers_408_and_keeps_the_connection() {
    let config = ServerConfig {
        query_wall_limit: Duration::ZERO,
        ..test_config()
    };
    let server = boot(session(8), config);
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let resp = client
        .post(
            "/query",
            "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data REGEXP 'a' LIMIT 3\"}",
        )
        .expect("query");
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert_eq!(error_code(&resp.json().expect("json")), "QUERY_TIMEOUT");
    assert_eq!(resp.header("connection"), Some("keep-alive"));
    // The same connection serves its next request.
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    server.shutdown();
}

#[test]
fn an_idle_connection_costs_the_others_nothing() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = boot(session(8), config);
    let mut quiet = HttpClient::connect(server.addr()).expect("connect");
    assert_eq!(quiet.get("/healthz").expect("healthz").status, 200);

    // `quiet` stays open and silent; it must not slow `busy` down.
    let mut busy = HttpClient::connect(server.addr()).expect("connect");
    let started = Instant::now();
    for _ in 0..20 {
        assert_eq!(busy.get("/healthz").expect("healthz").status, 200);
    }
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "{took:?}");
    drop(quiet);
    server.shutdown();
}

#[test]
fn shutdown_is_prompt_with_idle_keep_alive_clients() {
    let server = boot(session(8), ServerConfig::default());
    let mut idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("send");
            // Read the whole keep-alive answer: its JSON body ends it.
            let mut answer = Vec::new();
            let mut chunk = [0u8; 512];
            while answer.last() != Some(&b'}') {
                let n = stream.read(&mut chunk).expect("answer");
                assert!(n > 0, "closed before answering");
                answer.extend_from_slice(&chunk[..n]);
            }
            stream
        })
        .collect();

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{took:?}");
    for stream in &mut idle {
        assert_eq!(read_until_close(stream), "", "EOF and nothing else");
    }
}
