//! # staccato-server
//!
//! The service tier: a hand-rolled HTTP/1.1 server over `std::net`
//! exposing a shared [`Staccato`](staccato_query::Staccato) session's
//! full SQL surface to network clients, with no dependencies beyond
//! the workspace (the container pins everything in-tree).
//!
//! ```ignore
//! let session = Arc::new(Staccato::load(db, &dataset, &opts)?);
//! let server = Server::start(session, ServerConfig::default())?;
//! println!("listening on http://{}", server.addr());
//! // ...
//! server.shutdown(); // drain in-flight requests, join workers
//! ```
//!
//! ## API
//!
//! | endpoint | body | answer |
//! |---|---|---|
//! | `POST /query` | `{"sql": "SELECT ... LIMIT n OFFSET m"}` | ranked rows + plan + [`ExecStats`](staccato_query::ExecStats) |
//! | `POST /prepare` | `{"sql": "... ? ..."}` | `{"statement_id", "param_count", "sql"}` |
//! | `POST /execute` | `{"statement_id": n, "params": [...]}` | same as `/query` |
//! | `POST /ingest` | `{"documents": [{"name","text",...}]}` | `{"batch_seq","first_key","docs","wal_bytes"}` |
//! | `GET /healthz` | — | `{"status":"ok","lines":n}` |
//! | `GET /stats` | — | per-endpoint latency percentiles, pool, query-cache & ingest counters |
//!
//! Pagination is plain SQL: `LIMIT n OFFSET m` pages through the
//! ranked answer relation (the heap keeps `n + m` candidates server
//! side, so page k of the ranking is exact, not approximate).
//!
//! Prepared statements are **per connection**: `statement_id` is an
//! index into state that travels with the connection through the
//! worker pool, dying with the connection — exactly a SQL cursor's
//! lifetime, and free of any cross-client id-guessing surface.
//!
//! Every non-2xx answer is `{"error":{"code":"...","message":"..."}}`
//! with a stable machine-readable code (see [`error`]). Robustness
//! limits — body size (413), per-client token-bucket rate limiting
//! (429 + `Retry-After`), query wall-clock (408) — and the worker /
//! shutdown model are documented in [`server`] and DESIGN.md's
//! "Service tier" section.

#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod limits;
pub mod server;
pub mod stats;

pub use client::{HttpClient, HttpResponse};
pub use error::ApiError;
pub use json::{Json, JsonError};
pub use limits::RateLimit;
pub use server::{Server, ServerConfig, ServerHandle};
