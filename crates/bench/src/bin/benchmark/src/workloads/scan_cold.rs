//! `scan_cold` — the "larger than the program's cache" case.
//!
//! One client runs the seven Table 6 statements round-robin as forced
//! filescans over a file-backed store whose pool holds about a quarter of
//! the Staccato pages, so every scan floods it. The pager's miss/evict
//! path, heap and blob reads, the arena decoder and the scan kernel
//! (prescreen + DP) do nearly all the work; index, WAL, server and planner
//! do almost none.

use super::{
    err, median_setup, op_metrics, read_layer_metrics, run_reads, stmt_recall, stored_ratio,
    warm_up, Ctx, Outcome,
};
use crate::data::{self, Stmt, TABLE6_CA};
use crate::probes;
use staccato_ocr::Dataset;
use staccato_query::{PlanPreference, Staccato};
use staccato_storage::Database;

pub struct Env {
    pub dataset: Dataset,
    pub session: Staccato,
}

fn setup(ctx: &Ctx) -> Result<Env, String> {
    let dataset = data::corpus(ctx.sizes.read_lines, ctx.seed);
    let db = Database::create(ctx.dir.join("scan_cold.db"), ctx.sizes.cold_frames).map_err(err)?;
    let session =
        Staccato::load(db, &dataset, &data::load_options(ctx.seed, ctx.clients)).map_err(err)?;
    session.checkpoint().map_err(err)?;
    Ok(Env { dataset, session })
}

/// No index, no server, no log: what a forced filescan leaves untouched.
const IDLE: &[&str] = &[
    "session.",
    "server.",
    "storage.wal_bytes_per_doc",
    "storage.wal_fsyncs_per_batch",
    "storage.save_ms_per_checkpoint",
    "query.probe_vs_scan_ratio",
    "query.index_",
];

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        idle: IDLE,
        ..Outcome::default()
    };
    let (env, setup_s) = median_setup(ctx, || setup(ctx))?;
    let session = &env.session;

    // Reference answers by the naive path, before anything is timed.
    let mut statements = Vec::with_capacity(TABLE6_CA.len());
    for pattern in TABLE6_CA {
        let request = data::staccato_request(pattern, PlanPreference::ForceFileScan);
        let expected = ctx.expected(data::reference_answers(session, &request).map_err(err)?);
        statements.push(Stmt { request, expected });
    }

    // One untimed pass compiles every pattern into the query cache.
    let warm_failed = warm_up(session, &statements, data::same_answers);

    let order: Vec<usize> = (0..ctx.ops("scan_cold"))
        .map(|i| i % statements.len())
        .collect();
    let window = run_reads(ctx, session, &statements, &order, data::same_answers)?;

    out.set("trace.spans", ctx.tracer.len() as f64);
    out.attempted = (statements.len() + order.len()) as u64;
    out.failed = warm_failed + window.failed;
    out.note("lines", ctx.sizes.read_lines);
    out.note("pool_frames", ctx.sizes.cold_frames);
    out.note("file_pages", session.store().db().pool().page_count());
    out.note("distinct_statements", statements.len());

    out.set_common(
        setup_s,
        stored_ratio(session, 0, env.dataset.text_bytes()),
        stmt_recall(session, &statements)?,
    );

    if ctx.traced() {
        read_layer_metrics(&mut out, &window);
        probes::run_common(ctx, session, &env.dataset, &mut out)?;
        // A filescan statement is: fetch every line's blob, evaluate it.
        let per_stmt_us = ctx.sizes.read_lines as f64
            * (out.get("storage.blob_fetch_us_per_line")
                + out.get("query.kernel_ns_per_line.staccato") / 1e3);
        let mean_us = window.wall.as_secs_f64() * 1e6 / order.len() as f64;
        out.set("trace.accounted_share", per_stmt_us / mean_us);
    }
    op_metrics(&mut out, &[window.log]);
    Ok(out)
}
