//! `ingest_mixed` — writes beside reads, then a crash and a recovery.
//!
//! `C` clients each run a fixed number of rounds of [one durable
//! `Staccato::ingest` of a small batch, then a few `probe_hot`-style
//! reads] against a file-backed store with the dictionary index
//! registered, a WAL under `SyncPolicy::Commit` and background
//! checkpoints. The construction pipeline (`ocr::channel`, `sfa::kbest`,
//! `core::approximate`, `sfa::codec::encode`), the WAL (append, group
//! fsync, segment GC), `Database::save`, index extension and the apply
//! latch carry the work. Fixed per-client counts keep the store the same
//! size at the i-th operation on every commit.
//!
//! The operation this workload reports is the durable ingest: `op_p50_ms`
//! and `op_p90_ms` are ack latencies and `op_per_s` is acked batches per
//! second of the closed loop. The loop also holds the reads, so a
//! write-path gain that costs reads — or the reverse — shows in `op_per_s`
//! of the same run; the reads' own latencies are per-layer metrics
//! (`session.read_*`).
//!
//! Afterwards the checkpoint policy is set to "never", one checkpoint is
//! taken, a fixed tail of batches is logged, and the database file and
//! WAL directory are copied as they lie on disk. That is a *process kill*:
//! what the OS cache holds survives, unflushed user-space state does not.
//! `Staccato::recover` on the copy must replay exactly the tail and answer
//! like the live session, bit for bit. (`recover` is the workload that
//! times recovery.)

use super::{
    err, median_setup, op_metrics, probe_hot, read_layer_metrics, stored_ratio, warm_up, Ctx,
    OpLog, Outcome, ReadWindow,
};
use crate::data::{self, TABLE6_CA};
use crate::probes;
use crate::stats::{millis, percentile, sorted};
use crate::sys;
use staccato_ocr::Dataset;
use staccato_query::{
    Answer, CheckpointPolicy, DocumentInput, ExecStats, IngestBatch, PlanPreference, QueryRequest,
    RecoverOptions, Staccato,
};
use staccato_storage::{Database, SyncPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const FLUSH_POLICY: SyncPolicy = SyncPolicy::Commit;

/// A file-backed store with the dictionary index and a WAL attached.
pub struct Env {
    pub dataset: Dataset,
    pub session: Arc<Staccato>,
    pub db_path: PathBuf,
    pub wal_dir: PathBuf,
    pub index: probe_hot::IndexBuild,
}

/// Load the seed lines, register the index, checkpoint, attach the WAL.
pub fn setup(ctx: &Ctx) -> Result<Env, String> {
    let db_path = ctx.dir.join("ingest.db");
    let wal_dir = ctx.dir.join("ingest.wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let dataset = data::corpus(ctx.sizes.ingest_seed_lines, ctx.seed);
    let db = Database::create(&db_path, ctx.sizes.ingest_frames).map_err(err)?;
    let session =
        Staccato::load(db, &dataset, &data::load_options(ctx.seed, ctx.clients)).map_err(err)?;
    let index = probe_hot::build_index(ctx, &session, &dataset)?;
    session.checkpoint().map_err(err)?;
    session.attach_wal(&wal_dir, FLUSH_POLICY).map_err(err)?;
    Ok(Env {
        dataset,
        session: Arc::new(session),
        db_path,
        wal_dir,
        index,
    })
}

fn batch_of(docs: &[(String, String)]) -> IngestBatch {
    docs.iter().fold(IngestBatch::new(), |batch, (name, text)| {
        batch.doc(DocumentInput::new(name.clone(), text.clone()).provider("benchmark"))
    })
}

/// Ingest `docs` in batches from one client, after one explicit
/// checkpoint and with no checkpointer armed, so that the log holds
/// exactly these batches. Returns how many batches failed and what the
/// checkpoint took.
pub fn ingest_tail(
    ctx: &Ctx,
    session: &Staccato,
    docs: &[(String, String)],
) -> Result<(u64, Duration), String> {
    let started = Instant::now();
    ctx.tracer
        .span("session.checkpoint", None, 0, |_| session.checkpoint())
        .map_err(err)?;
    let checkpoint = started.elapsed();
    let checkpoints = session.ingest_stats().checkpoints;
    let failed = docs
        .chunks(ctx.sizes.docs_per_batch)
        .filter(|batch| session.ingest(batch_of(batch)).is_err())
        .count() as u64;
    if session.ingest_stats().checkpoints != checkpoints {
        return Err("a checkpoint ran during the recovery tail".to_string());
    }
    Ok((failed, checkpoint))
}

/// The files of an idle live session as they lie on disk — what a process
/// kill leaves — and what a recovery from them must reproduce.
pub struct CrashImage<'a> {
    env: &'a Env,
    table6: Vec<QueryRequest>,
    /// The live session's answers to the Table 6 statements.
    pub live: Vec<Vec<Answer>>,
    lines: usize,
    options: RecoverOptions,
}

/// What one recovery did.
pub struct Recovery {
    pub wall: Duration,
    /// Replayed exactly the tail, holds every line, answers like the live
    /// session bit for bit.
    pub intact: bool,
    pub pool_misses: u64,
}

impl<'a> CrashImage<'a> {
    pub fn of(ctx: &Ctx, env: &'a Env) -> Result<CrashImage<'a>, String> {
        let table6: Vec<_> = TABLE6_CA
            .iter()
            .map(|p| data::staccato_request(p, PlanPreference::ForceFileScan))
            .collect();
        let mut live = Vec::with_capacity(table6.len());
        for request in &table6 {
            live.push(ctx.expected(env.session.execute(request).map_err(err)?.answers));
        }
        Ok(CrashImage {
            env,
            table6,
            live,
            lines: env.session.line_count(),
            options: RecoverOptions {
                pool_frames: ctx.sizes.ingest_frames,
                load: data::load_options(ctx.seed, ctx.clients),
                sync: FLUSH_POLICY,
            },
        })
    }

    /// The live session's recall on the Table 6 statements.
    pub fn recall(&self) -> Result<f64, String> {
        data::mean_recall(
            &self.env.session,
            self.table6
                .iter()
                .zip(&self.live)
                .map(|(r, a)| (r, a.as_slice(), r.num_ans)),
        )
    }

    /// Copy the image (the live session is idle and no checkpointer is
    /// armed, so every copy is byte-identical), time `Staccato::recover`
    /// on the copy, check the recovered store, remove the copy.
    pub fn recover(&self, ctx: &Ctx, rep: u64) -> Result<Recovery, String> {
        let crash = ctx.dir.join(format!("crash-{rep}"));
        std::fs::create_dir_all(&crash).map_err(err)?;
        let (db_copy, wal_copy) = (crash.join("store.db"), crash.join("wal"));
        std::fs::copy(&self.env.db_path, &db_copy).map_err(err)?;
        sys::copy_dir(&self.env.wal_dir, &wal_copy).map_err(err)?;
        let started = Instant::now();
        let recovered = ctx.tracer.span("session.recover", None, rep, |_| {
            Staccato::recover_with(&db_copy, &wal_copy, &self.options)
        });
        let wall = started.elapsed();
        let mut pool_misses = 0;
        let intact = recovered.is_ok_and(|recovered| {
            pool_misses = recovered.pool_stats().misses;
            recovered.ingest_stats().replays == ctx.sizes.tail_batches as u64
                && recovered.line_count() == self.lines
                && self.table6.iter().zip(&self.live).all(|(request, live)| {
                    recovered
                        .execute(request)
                        .is_ok_and(|o| data::same_answers(&o.answers, live))
                })
        });
        std::fs::remove_dir_all(&crash).map_err(err)?;
        Ok(Recovery {
            wall,
            intact,
            pool_misses,
        })
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    ingests: OpLog,
    read_ms: Vec<f64>,
    read_stats: Vec<ExecStats>,
    answers: u64,
    docs: usize,
    failed: u64,
}

/// Reads race with ingest, so their answers have no fixed reference; a
/// read passes when it returns `Ok`.
fn any_answer(_: &[Answer], _: &[Answer]) -> bool {
    true
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        idle: &["server."],
        ..Outcome::default()
    };
    let sizes = ctx.sizes;
    let rounds = ctx.ops("ingest_mixed");
    let per_batch = sizes.docs_per_batch;
    let window_docs = ctx.clients * rounds * per_batch;
    let docs = data::documents(window_docs + sizes.tail_batches * per_batch, ctx.seed);

    let (env, setup_s) = median_setup(ctx, || {
        let env = setup(ctx)?;
        Staccato::start_background_checkpoints(
            &env.session,
            CheckpointPolicy::every_batches(sizes.checkpoint_every),
        )
        .map_err(err)?;
        Ok(env)
    })?;
    let session = &*env.session;
    let statements = probe_hot::probe_statements(ctx, session, &env.dataset)?;
    let warm_failed = warm_up(session, &statements, any_answer);

    // The timed window: C closed loops.
    let checkpoints_before = session.ingest_stats().checkpoints;
    let pool_before = session.pool_stats();
    let cache_before = session.query_cache_stats();
    let started = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.clients)
            .map(|c| {
                let (docs, statements) = (&docs, &statements);
                scope.spawn(move || {
                    let order = probe_hot::shuffled_order(
                        statements.len(),
                        rounds * sizes.reads_per_round,
                        ctx.seed.wrapping_add(c as u64),
                    );
                    let mut log = ClientLog::default();
                    let (mut last_lsn, mut last_seq) = (0u64, 0u64);
                    for r in 0..rounds {
                        let op = ((c * rounds + r) * (1 + sizes.reads_per_round)) as u64;
                        let first = (c * rounds + r) * per_batch;
                        let batch = batch_of(&docs[first..first + per_batch]);
                        let issued = Instant::now();
                        let receipt = ctx
                            .tracer
                            .span("session.ingest", None, op, |_| session.ingest(batch));
                        log.ingests
                            .push(c * rounds + r, issued.elapsed(), started.elapsed());
                        match receipt {
                            Ok(r) if r.lsn > last_lsn && r.batch_seq > last_seq => {
                                (last_lsn, last_seq) = (r.lsn, r.batch_seq);
                                log.docs += r.docs;
                            }
                            _ => log.failed += 1,
                        }
                        for k in 0..sizes.reads_per_round {
                            let stmt = &statements[order[r * sizes.reads_per_round + k]];
                            let issued = Instant::now();
                            let result =
                                ctx.tracer
                                    .span("session.execute", None, op + 1 + k as u64, |_| {
                                        session.execute(&stmt.request)
                                    });
                            log.read_ms.push(millis(issued.elapsed()));
                            match result {
                                Ok(o) => {
                                    log.answers += o.answers.len() as u64;
                                    log.read_stats.push(o.stats);
                                }
                                Err(_) => log.failed += 1,
                            }
                        }
                        ctx.check_deadline(started)?;
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    out.set("trace.spans", ctx.tracer.len() as f64);
    let logs: Vec<ClientLog> = logs.into_iter().collect::<Result<_, _>>()?;
    let stats = session.ingest_stats();

    let read_ms: Vec<f64> = logs.iter().flat_map(|l| l.read_ms.clone()).collect();
    let acked_docs: usize = logs.iter().map(|l| l.docs).sum();
    let batches = ctx.clients * rounds;
    out.attempted = (statements.len() + batches + read_ms.len()) as u64;
    out.failed = warm_failed + logs.iter().map(|l| l.failed).sum::<u64>();

    // Crash and recovery.
    Staccato::start_background_checkpoints(&env.session, CheckpointPolicy::default())
        .map_err(err)?;
    let tail = &docs[window_docs..];
    let (tail_failed, checkpoint) = ingest_tail(ctx, session, tail)?;
    let image = CrashImage::of(ctx, &env)?;
    let recovery = image.recover(ctx, 0)?;
    out.attempted += sizes.tail_batches as u64 + 1;
    out.failed += tail_failed + u64::from(!recovery.intact);
    if session.line_count() != sizes.ingest_seed_lines + acked_docs + tail.len() {
        out.failed += 1;
    }

    out.note("seed_lines", sizes.ingest_seed_lines);
    out.note("rounds_per_client", rounds);
    out.note("docs_per_batch", per_batch);
    out.note("reads_per_round", sizes.reads_per_round);
    out.note("acked_docs", acked_docs + tail.len());
    out.note("tail_batches", sizes.tail_batches);
    out.note("checkpoint_every_batches", sizes.checkpoint_every);
    out.note("durability", "process kill (OS cache survives)");

    let text_bytes =
        env.dataset.text_bytes() + docs.iter().map(|(_, text)| text.len()).sum::<usize>();
    let mut final_answers = Vec::with_capacity(statements.len());
    for stmt in &statements {
        final_answers.push(session.execute(&stmt.request).map_err(err)?.answers);
    }
    let recall = data::mean_recall(
        session,
        statements
            .iter()
            .zip(&final_answers)
            .map(|(s, a)| (&s.request, a.as_slice(), s.request.num_ans)),
    )?;
    out.set_common(
        setup_s,
        stored_ratio(session, sys::dir_bytes(&env.wal_dir), text_bytes),
        recall,
    );

    if ctx.traced() {
        let reads = ReadWindow {
            wall,
            log: OpLog::default(),
            failed: 0,
            stats: logs.iter().flat_map(|l| l.read_stats.clone()).collect(),
            answers: logs.iter().map(|l| l.answers).sum(),
            pool: session.pool_stats().delta_since(pool_before),
            cache_before,
            cache_after: session.query_cache_stats(),
        };
        read_layer_metrics(&mut out, &reads);
        let acks = sorted(
            logs.iter()
                .flat_map(|l| l.ingests.latency_ms.clone())
                .collect(),
        );
        let reads_sorted = sorted(read_ms);
        out.set(
            "session.ingest_docs_per_s",
            acked_docs as f64 / wall.as_secs_f64(),
        );
        out.set("session.ingest_ack_p50_ms", percentile(&acks, 0.50));
        out.set("session.ingest_ack_p95_ms", percentile(&acks, 0.95));
        out.set("session.ingest_ack_max_ms", percentile(&acks, 1.0));
        out.set("session.read_p50_ms", percentile(&reads_sorted, 0.50));
        out.set("session.read_p90_ms", percentile(&reads_sorted, 0.90));
        out.set("session.batches_per_fsync", stats.wal_batches_per_fsync);
        out.set(
            "session.flush_wait_p95_ms",
            millis(stats.wal_flush_wait_p95),
        );
        out.set(
            "session.checkpoints",
            (stats.checkpoints - checkpoints_before) as f64,
        );
        let replay_us = recovery.wall.as_secs_f64() * 1e6 / tail.len().max(1) as f64;
        out.set("session.recovery_docs_per_s", 1e6 / replay_us);
        out.set("session.replay_us_per_doc", replay_us);
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
        out.set(
            "query.probe_vs_scan_ratio",
            probe_hot::probe_vs_scan(ctx, session, &statements)?,
        );
        probes::run_common(ctx, session, &env.dataset, &mut out)?;
        // An ack is: build each document, log the batch, wait for its
        // share of an fsync, apply (what replay does, without the build).
        let build_us = out.get("ocr.channel_us_per_line")
            + out.get("sfa.kbest_us_per_line")
            + out.get("sfa.encode_us_per_line")
            + out.get("core.approximate_us_per_line");
        let ack_us = per_batch as f64 * (build_us + replay_us)
            + out.get("storage.wal_append_us_per_batch")
            + out.get("storage.wal_fsync_us") / stats.wal_batches_per_fsync.max(1.0);
        let mean_ack_us = acks.iter().sum::<f64>() * 1e3 / acks.len().max(1) as f64;
        out.set("trace.accounted_share", ack_us / mean_ack_us);
    }
    let ingests: Vec<OpLog> = logs.into_iter().map(|l| l.ingests).collect();
    op_metrics(&mut out, &ingests);
    Ok(out)
}
