//! Closed-loop ingest harness: N concurrent writers driving durable
//! batches through the WAL-backed write path, then a measured crash
//! recovery.
//!
//! ```text
//! ingest [--lines L] [--batches N] [--docs-per-batch D] [--seed S]
//!        [--writers W] [--sweep 1,4,8] [--out PATH]
//! ```
//!
//! Each sweep point loads a fresh store, attaches a fresh WAL, and
//! splits `--batches` across `W` writer threads, each running a closed
//! loop (a writer submits its next batch only when the previous one's
//! receipt — durable by contract — has returned). With one writer the
//! reported docs/sec is the sustainable per-batch-fsync rate; with
//! several, the group-commit flusher shares fsyncs across writers and
//! `batches_per_fsync` in the JSON shows the amortization directly.
//!
//! After each point the session is dropped *without* a checkpoint — the
//! on-disk shape a crash leaves — and `Staccato::recover` replays every
//! batch from the WAL. The run fails loudly if any recovered store does
//! not hold exactly the ingested lines.
//!
//! Everything lands in `BENCH_ingest.json`: a `group_commit` array with
//! one point per writer count (docs/sec, p50/p95 batch latency, flush
//! waits, fsyncs, group commits, batches per fsync), the single-writer
//! point under `ingest` (compatible with earlier revisions of this
//! file), the headline speedup, and the recovery replay wall.

use staccato_bench::timing::fmt_duration;
use staccato_core::StaccatoParams;
use staccato_ocr::{generate, ChannelConfig, CorpusKind};
use staccato_query::store::LoadOptions;
use staccato_query::{DocumentInput, IngestBatch, IngestStats, RecoverOptions, Staccato};
use staccato_storage::{Database, SyncPolicy};
use std::path::Path;
use std::time::{Duration, Instant};

struct Config {
    lines: usize,
    batches: usize,
    docs_per_batch: usize,
    seed: u64,
    writers: usize,
    sweep: Vec<usize>,
    out: String,
}

struct Point {
    writers: usize,
    wall: Duration,
    docs_per_sec: f64,
    p50: Duration,
    p95: Duration,
    stats: IngestStats,
    recovery_wall: Duration,
    replayed: u64,
}

fn main() {
    let mut cfg = Config {
        lines: 100,
        batches: 200,
        docs_per_batch: 4,
        seed: 42,
        writers: 8,
        sweep: vec![1, 4, 8],
        out: "BENCH_ingest.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--lines" => cfg.lines = next("--lines").parse().expect("lines"),
            "--batches" => cfg.batches = next("--batches").parse().expect("batches"),
            "--docs-per-batch" => {
                cfg.docs_per_batch = next("--docs-per-batch").parse().expect("docs-per-batch")
            }
            "--seed" => cfg.seed = next("--seed").parse().expect("seed"),
            "--writers" => cfg.writers = next("--writers").parse().expect("writers"),
            "--sweep" => {
                cfg.sweep = next("--sweep")
                    .split(',')
                    .map(|t| t.trim().parse().expect("sweep writer count"))
                    .collect()
            }
            "--out" => cfg.out = next("--out").clone(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(cfg.batches >= 1 && cfg.docs_per_batch >= 1 && cfg.writers >= 1);
    // The sweep always contains the single-writer baseline and the
    // headline writer count, ascending, deduplicated.
    cfg.sweep.push(1);
    cfg.sweep.push(cfg.writers);
    cfg.sweep.sort_unstable();
    cfg.sweep.dedup();

    let dir = std::env::temp_dir().join(format!("staccato_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    eprintln!(
        "loading {} lines of CongressActs (seed {}) per point, writers sweep {:?} ...",
        cfg.lines, cfg.seed, cfg.sweep
    );
    let opts = LoadOptions {
        channel: ChannelConfig::compact(cfg.seed),
        kmap_k: 6,
        staccato: StaccatoParams::new(8, 6),
        parallelism: 2,
    };
    let pool_frames = pool_frames_for(cfg.lines, cfg.batches * cfg.docs_per_batch);

    let points: Vec<Point> = cfg
        .sweep
        .iter()
        .map(|&writers| {
            let point = run_point(&cfg, &opts, pool_frames, &dir, writers);
            println!(
                "writers {:>2}: {:>9.1} docs/s  p50 {:>9}  p95 {:>9}  \
                 fsyncs {:>5}  batches/fsync {:>6.2}  flush-wait p95 {}",
                writers,
                point.docs_per_sec,
                fmt_duration(point.p50),
                fmt_duration(point.p95),
                point.stats.wal_fsyncs,
                point.stats.wal_batches_per_fsync,
                fmt_duration(point.stats.wal_flush_wait_p95),
            );
            point
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    let single = points
        .iter()
        .find(|p| p.writers == 1)
        .expect("sweep always holds the single-writer baseline");
    let headline = points
        .iter()
        .find(|p| p.writers == cfg.writers)
        .expect("sweep always holds the headline writer count");
    let speedup = headline.docs_per_sec / single.docs_per_sec.max(1e-12);
    let total_docs = cfg.batches * cfg.docs_per_batch;

    let group_points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"writers\": {}, \"wall_secs\": {:.6}, \"docs_per_sec\": {:.2}, \
                 \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"flush_wait_p95_ms\": {:.4}, \
                 \"fsyncs\": {}, \"group_commits\": {}, \"batches_per_fsync\": {:.4}, \
                 \"wal_records\": {}, \"wal_bytes\": {}, \"segments_deleted\": {}}}",
                p.writers,
                p.wall.as_secs_f64(),
                p.docs_per_sec,
                p.p50.as_secs_f64() * 1e3,
                p.p95.as_secs_f64() * 1e3,
                p.stats.wal_flush_wait_p95.as_secs_f64() * 1e3,
                p.stats.wal_fsyncs,
                p.stats.wal_group_commits,
                p.stats.wal_batches_per_fsync,
                p.stats.wal_records_appended,
                p.stats.wal_bytes_logged,
                p.stats.wal_segments_deleted,
            )
        })
        .collect();

    let replay_per_sec = total_docs as f64 / headline.recovery_wall.as_secs_f64().max(1e-12);
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"corpus\": \"CongressActs\",\n  \"lines\": {},\n  \"seed\": {},\n  \"batches\": {},\n  \"docs_per_batch\": {},\n  \"total_docs\": {},\n  \"sync\": \"{:?}\",\n  \"pool_frames\": {},\n  \"writers\": {},\n  \"ingest\": {{\"wall_secs\": {:.6}, \"docs_per_sec\": {:.2}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"wal_records\": {}, \"wal_bytes\": {}, \"wal_fsyncs\": {}}},\n  \"group_commit\": [\n{}\n  ],\n  \"speedup_vs_single_writer\": {:.2},\n  \"recovery\": {{\"wall_secs\": {:.6}, \"replayed_batches\": {}, \"docs_per_sec\": {:.2}}}\n}}\n",
        cfg.lines,
        cfg.seed,
        cfg.batches,
        cfg.docs_per_batch,
        total_docs,
        SyncPolicy::Commit,
        pool_frames,
        cfg.writers,
        single.wall.as_secs_f64(),
        single.docs_per_sec,
        single.p50.as_secs_f64() * 1e3,
        single.p95.as_secs_f64() * 1e3,
        single.stats.wal_records_appended,
        single.stats.wal_bytes_logged,
        single.stats.wal_fsyncs,
        group_points.join(",\n"),
        speedup,
        headline.recovery_wall.as_secs_f64(),
        headline.replayed,
        replay_per_sec,
    );
    std::fs::write(&cfg.out, &json).expect("write BENCH json");

    println!(
        "speedup : {:.2}x at {} writers vs single-writer-per-fsync",
        speedup, cfg.writers
    );
    println!(
        "recover : {:>9.1} docs/s  replayed {} batches in {}",
        replay_per_sec,
        headline.replayed,
        fmt_duration(headline.recovery_wall),
    );
    println!("-> {}", cfg.out);
}

/// One sweep point: fresh store + WAL, `writers` concurrent closed
/// loops sharing `cfg.batches` batches, then a crash (drop without
/// checkpoint) and a verified, timed recovery.
fn run_point(
    cfg: &Config,
    opts: &LoadOptions,
    pool_frames: usize,
    dir: &Path,
    writers: usize,
) -> Point {
    let point_dir = dir.join(format!("w{writers}"));
    std::fs::create_dir_all(&point_dir).expect("point dir");
    let db_path = point_dir.join("store.db");
    let wal_dir = point_dir.join("wal");
    let total_docs = cfg.batches * cfg.docs_per_batch;

    let wall;
    let stats;
    let mut latencies: Vec<Duration> = Vec::with_capacity(cfg.batches);
    {
        let dataset = generate(CorpusKind::CongressActs, cfg.lines, cfg.seed);
        let db = Database::create(&db_path, pool_frames).expect("create");
        let session = Staccato::load(db, &dataset, opts).expect("load");
        session.checkpoint().expect("checkpoint after load");
        session
            .attach_wal(&wal_dir, SyncPolicy::Commit)
            .expect("attach WAL");

        let started = Instant::now();
        let mut per_writer: Vec<Vec<Duration>> = Vec::with_capacity(writers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let session = &session;
                    scope.spawn(move || {
                        // Strided split: writer w drives batches
                        // w, w+writers, w+2*writers, ... closed-loop.
                        let mut lat = Vec::new();
                        let mut b = w;
                        while b < cfg.batches {
                            let mut batch = IngestBatch::new();
                            for d in 0..cfg.docs_per_batch {
                                batch = batch.doc(
                                    DocumentInput::new(
                                        format!("scan-{writers}w-{b}-{d}.png"),
                                        format!(
                                            "the committee reported amendment {b} \
                                             section {d} to the act"
                                        ),
                                    )
                                    .provider("bench"),
                                );
                            }
                            let q = Instant::now();
                            session.ingest(batch).expect("ingest");
                            lat.push(q.elapsed());
                            b += writers;
                        }
                        lat
                    })
                })
                .collect();
            for h in handles {
                per_writer.push(h.join().expect("writer thread"));
            }
        });
        wall = started.elapsed();
        for lat in per_writer {
            latencies.extend(lat);
        }
        stats = session.ingest_stats();
        assert_eq!(session.line_count(), cfg.lines + total_docs);
        // Crash: drop without a checkpoint — every batch must come back
        // from the WAL alone.
    }

    let recovery_started = Instant::now();
    let recovered = Staccato::recover_with(
        &db_path,
        &wal_dir,
        &RecoverOptions {
            pool_frames,
            load: opts.clone(),
            sync: SyncPolicy::Commit,
        },
    )
    .expect("recover");
    let recovery_wall = recovery_started.elapsed();
    let replayed = recovered.ingest_stats().replays;
    assert_eq!(
        recovered.line_count(),
        cfg.lines + total_docs,
        "recovery must restore every acknowledged batch"
    );
    assert_eq!(replayed as usize, cfg.batches);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&point_dir);

    latencies.sort();
    let pct = |p: f64| latencies[(((latencies.len() - 1) as f64) * p) as usize];
    Point {
        writers,
        wall,
        docs_per_sec: total_docs as f64 / wall.as_secs_f64().max(1e-12),
        p50: pct(0.50),
        p95: pct(0.95),
        stats,
        recovery_wall,
        replayed,
    }
}

/// A pool big enough to hold the corpus plus everything the run will
/// ingest: the write path is the measured subject, not page eviction
/// (and batch-level replay needs checkpoint-consistent data files).
fn pool_frames_for(lines: usize, ingested: usize) -> usize {
    ((lines + ingested) * 8).clamp(1024, 65_536)
}
