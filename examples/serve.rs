//! Serve a generated OCR corpus over HTTP and query it with `curl`.
//!
//! ```text
//! cargo run --release --example serve -- [lines] [port]
//! ```
//!
//! Then, from another terminal:
//!
//! ```text
//! curl localhost:7878/healthz
//! curl localhost:7878/query -d '{"sql": "SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '\''%Ford%'\'' LIMIT 10"}'
//! curl localhost:7878/stats
//! ```
//!
//! Press Enter (or close stdin) to shut down gracefully: in-flight
//! queries finish, then every connection thread joins.

use staccato::approx::StaccatoParams;
use staccato::automata::Trie;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::store::LoadOptions;
use staccato::server::{RateLimit, Server, ServerConfig};
use staccato::storage::Database;
use staccato::Staccato;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let lines: usize = args.next().map(|a| a.parse()).transpose()?.unwrap_or(200);
    let port: u16 = args.next().map(|a| a.parse()).transpose()?.unwrap_or(7878);

    eprintln!("loading {lines} lines of CongressActs ...");
    let dataset = generate(CorpusKind::CongressActs, lines, 42);
    let db = Database::in_memory(2048)?;
    let opts = LoadOptions {
        channel: ChannelConfig::compact(42),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    let session = Arc::new(Staccato::load(db, &dataset, &opts)?);
    session.register_index(&Trie::build(["public", "president", "commission"]), "inv")?;

    let config = ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        // 20 requests back-to-back per client, 5/s sustained — small
        // enough to watch 429s happen with a curl loop.
        rate_limit: Some(RateLimit::new(20, 5.0)),
        ..ServerConfig::default()
    };
    let server = Server::start(session, config)?;
    println!("serving {lines} lines on http://{}", server.addr());
    println!();
    println!("try:");
    println!("  curl localhost:{port}/healthz");
    println!(
        "  curl localhost:{port}/query -d '{{\"sql\": \"SELECT DataKey, Prob \
         FROM StaccatoData WHERE Data LIKE '\\''%Ford%'\\'' LIMIT 10\"}}'"
    );
    // Prepared statements live on their connection, so prepare and
    // execute must share one: a single curl invocation with --next
    // reuses the connection across both requests.
    println!(
        "  curl localhost:{port}/prepare -d '{{\"sql\": \"SELECT DataKey \
         FROM MAPData WHERE Data REGEXP ? LIMIT ?\"}}' \\"
    );
    println!(
        "       --next localhost:{port}/execute -d '{{\"statement_id\": 0, \
         \"params\": [\"Public\", 5]}}'"
    );
    println!("  curl localhost:{port}/stats");
    println!();
    println!("press Enter to shut down");

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    eprintln!("draining in-flight requests ...");
    server.shutdown();
    Ok(())
}
