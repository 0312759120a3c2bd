//! `recover` — restart after a process kill.
//!
//! Set-up builds the store of `ingest_mixed` (seed lines, dictionary
//! index, a WAL under `SyncPolicy::Commit`), takes one checkpoint and
//! logs a fixed tail of durable batches from one client. The database
//! file and the WAL directory are then copied as they lie on disk — a
//! *process kill*: what the OS cache holds survives, unflushed user-space
//! state does not — and one operator restarts the service a fixed number
//! of times, each time from a byte-identical copy. The operation is
//! `Staccato::recover`: open the checkpointed file, read the log, replay
//! the tail (apply without build: heap and blob inserts, index
//! extension). Construction, group commit, reads, planner and server are
//! idle in the window.
//!
//! Every recovery must replay exactly the tail, hold every acknowledged
//! line and answer the seven Table 6 statements like the live session,
//! bit for bit. Copying and checking are not timed: the client's clock
//! runs only while `recover` does, so `op_per_s` is recoveries per second
//! of recovery.

use super::ingest_mixed::{self, CrashImage};
use super::{median_setup, op_metrics, stored_ratio, Ctx, OpLog, Outcome};
use crate::data;
use crate::probes;
use crate::stats::{median, millis};
use crate::sys;
use std::time::{Duration, Instant};

/// No construction in the window, no reads, no server.
const IDLE: &[&str] = &[
    "server.",
    "session.ingest_",
    "session.read_",
    "session.checkpoints",
    "storage.pool_",
    "query.plan_wall_us_p50",
    "query.exec_wall_us_p50",
    "query.cache_hit_rate",
    "query.prescreen_skip_rate",
    "query.lines_evaluated_per_answer",
    "query.postings_",
    "query.pool_hits_per_stmt",
    "query.probe_vs_scan_ratio",
];

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        idle: IDLE,
        ..Outcome::default()
    };
    let sizes = ctx.sizes;
    let recoveries = ctx.ops("recover");
    let tail = data::documents(sizes.tail_batches * sizes.docs_per_batch, ctx.seed);

    let mut tail_failed = 0;
    let mut checkpoint = Duration::ZERO;
    let (env, setup_s) = median_setup(ctx, || {
        let env = ingest_mixed::setup(ctx)?;
        (tail_failed, checkpoint) = ingest_mixed::ingest_tail(ctx, &env.session, &tail)?;
        Ok(env)
    })?;
    let session = &*env.session;
    let image = CrashImage::of(ctx, &env)?;

    let mut log = OpLog::with_capacity(recoveries);
    let mut clock = Duration::ZERO;
    let mut pool_misses = Vec::with_capacity(recoveries);
    let started = Instant::now();
    for rep in 0..recoveries {
        let recovery = image.recover(ctx, rep as u64)?;
        clock += recovery.wall;
        log.push(rep, recovery.wall, clock);
        pool_misses.push(recovery.pool_misses as f64);
        if !recovery.intact {
            out.failed += 1;
        }
        ctx.check_deadline(started)?;
    }
    out.set("trace.spans", ctx.tracer.len() as f64);
    out.attempted = (sizes.tail_batches + recoveries) as u64;
    out.failed += tail_failed;

    out.note("seed_lines", sizes.ingest_seed_lines);
    out.note("tail_batches", sizes.tail_batches);
    out.note("docs_per_batch", sizes.docs_per_batch);
    out.note("recoveries", recoveries);
    out.note("durability", "process kill (OS cache survives)");

    let text_bytes =
        env.dataset.text_bytes() + tail.iter().map(|(_, text)| text.len()).sum::<usize>();
    out.set_common(
        setup_s,
        stored_ratio(session, sys::dir_bytes(&env.wal_dir), text_bytes),
        image.recall()?,
    );

    if ctx.traced() {
        let stats = session.ingest_stats();
        let recover_us = median(&log.latency_ms) * 1e3;
        let replay_us = recover_us / tail.len() as f64;
        out.set("session.recovery_docs_per_s", 1e6 / replay_us);
        out.set("session.replay_us_per_doc", replay_us);
        out.set("session.batches_per_fsync", stats.wal_batches_per_fsync);
        out.set(
            "session.flush_wait_p95_ms",
            millis(stats.wal_flush_wait_p95),
        );
        out.set(
            "storage.wal_bytes_per_doc",
            stats.wal_bytes_logged as f64 / (stats.docs as f64).max(1.0),
        );
        out.set(
            "storage.wal_fsyncs_per_batch",
            stats.wal_fsyncs as f64 / (stats.batches as f64).max(1.0),
        );
        out.set("storage.save_ms_per_checkpoint", millis(checkpoint));
        env.index.report(&mut out, &env.dataset);
        probes::run_common(ctx, session, &env.dataset, &mut out)?;
        // A recovery is: fault in the pages it touches, then per replayed
        // document compute its postings. Reading the log, the heap and
        // blob inserts and the B+-tree inserts have no public probe.
        let accounted_us = median(&pool_misses) * out.get("storage.fetch_miss_us_per_page")
            + tail.len() as f64 * out.get("query.line_postings_us_per_doc");
        out.set("trace.accounted_share", accounted_us / recover_us);
    }
    op_metrics(&mut out, &[log]);
    Ok(out)
}
