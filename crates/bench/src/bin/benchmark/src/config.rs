//! Workload sizes, frozen operation rates and the metric registry.
//!
//! `BENCHMARK.json` at the repo root lists the same workloads and metrics;
//! a test keeps the two in step.

/// How many client threads generate load: `min(nproc, 4)`.
pub fn clients() -> usize {
    crate::sys::nproc().clamp(1, 4)
}

pub const WORKLOADS: [&str; 5] = [
    "scan_cold",
    "probe_hot",
    "ingest_mixed",
    "recover",
    "http_closed",
];

/// The issue sized the workloads for 25–40 s windows (1000 lines, 1000
/// scans, 10 000 probes, ...). The driver's time cap allows about a third
/// of that per run, set-up included, so every data size and operation
/// count below is the issue's figure times this one factor. It was applied
/// to all workloads at once; no workload was tuned alone.
pub const SCALE: f64 = 0.3;

/// `run_seconds` of `BENCHMARK.json`: how long a window lasts at the seed
/// commit on the 2-core build box.
pub const RUN_SECONDS: f64 = 12.0;

/// Every window is cut into this many segments of equal operation count.
/// Throughput and latency percentiles are computed per segment and the
/// median over the segments is reported, so a burst of interference from
/// the host that covers less than half a window does not move them.
pub const SEGMENTS: usize = 5;

/// Data sizes. `full()` is the benchmark; `smoke()` is the seconds-long
/// variant behind `--smoke` and the tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// How many times a run sets up (the median is reported).
    pub setup_reps: usize,
    /// `scan_cold` / `probe_hot` corpus.
    pub read_lines: usize,
    /// `scan_cold` pool: about a quarter of the Staccato pages, so every
    /// scan floods it.
    pub cold_frames: usize,
    /// `probe_hot` pool: larger than the whole file.
    pub hot_frames: usize,
    /// Synthetic dictionary terms beside the corpus words.
    pub filler_terms: usize,
    /// Distinct statements `probe_hot` draws from.
    pub probe_statements: usize,
    /// `ingest_mixed` and `recover` start from this many loaded lines.
    pub ingest_seed_lines: usize,
    pub docs_per_batch: usize,
    pub reads_per_round: usize,
    /// Background checkpoint every this many batches.
    pub checkpoint_every: u64,
    /// Batches logged after the last checkpoint; exactly these replay.
    pub tail_batches: usize,
    /// Pool for the ingest store: holds seed + everything ingested, as
    /// batch-level replay needs (no dirty page may reach the file between
    /// checkpoints).
    pub ingest_frames: usize,
    /// `http_closed` corpus.
    pub http_lines: usize,
    /// Items each layer probe of the traced run works through.
    pub probe_items: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            setup_reps: 3,
            read_lines: 300,
            cold_frames: 256,
            hot_frames: 16_384,
            filler_terms: 1000,
            probe_statements: 64,
            ingest_seed_lines: 60,
            docs_per_batch: 2,
            reads_per_round: 4,
            checkpoint_every: 60,
            tail_batches: 24,
            ingest_frames: 32_768,
            http_lines: 90,
            probe_items: 64,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            setup_reps: 1,
            read_lines: 16,
            cold_frames: 16,
            hot_frames: 2048,
            filler_terms: 20,
            probe_statements: 8,
            ingest_seed_lines: 8,
            docs_per_batch: 1,
            reads_per_round: 2,
            checkpoint_every: 2,
            tail_batches: 2,
            ingest_frames: 4096,
            http_lines: 12,
            probe_items: 4,
        }
    }
}

/// The frozen operation counts: what one window executes when it is asked
/// for `RUN_SECONDS`, calibrated at the seed commit on the 2-core build
/// box so that the window lasts about that long there. A *fixed count*,
/// so that per-statement counters of the single-client workloads repeat
/// exactly and the store of `ingest_mixed` has the same size at its i-th
/// operation on every commit; the window shrinks when the program gets
/// faster. `BENCHMARK.json` records the counts in each workload's `why`.
///
/// Units: statements (`scan_cold`, `probe_hot`), rounds per client
/// (`ingest_mixed`), recoveries (`recover`), requests per connection
/// (`http_closed`).
pub fn frozen_ops(workload: &str) -> usize {
    match workload {
        "scan_cold" => 1440,
        "probe_hot" => 3000,
        "ingest_mixed" => 200,
        "recover" => 180,
        "http_closed" => 56_000,
        other => panic!("no operation count for workload {other:?}"),
    }
}

/// The operation count of one run: the frozen count, in proportion when
/// the driver asks for another `--seconds` than `RUN_SECONDS`. Smoke runs
/// do a handful.
pub fn op_count(workload: &str, seconds: f64, smoke: bool) -> usize {
    if smoke {
        return match workload {
            "ingest_mixed" | "recover" => SEGMENTS,
            "http_closed" => 25,
            _ => 14,
        };
    }
    ((frozen_ops(workload) as f64 * seconds / RUN_SECONDS).round() as usize).max(SEGMENTS)
}

/// A window that takes this many times `--seconds` is abandoned and the
/// run fails: the driver kills a run at 180 s, and a window cut short
/// would report its counters over a different statement mix. The factor
/// is generous because the build box has phases in which it runs five
/// times slower for ten seconds on end.
pub const HARD_STOP_FACTOR: f64 = 10.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The driver wants every end-to-end
/// metric from every workload, so the vocabulary is one that fits all
/// five: an *operation* is what the workload's client sends and waits for
/// — a read statement (`scan_cold`, `probe_hot`, `http_closed`), a durable
/// ingest batch (`ingest_mixed`), a crash recovery (`recover`).
///
/// A bound is three times the widest spread `(q3 - q1) / median` the
/// metric showed over ten seeds on any workload, rounded to a multiple of
/// 0.05 and capped at the contract's 0.25, which every timing and the
/// memory reach; `answer_recall` is held at twice (README, "Bounds").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("stored_bytes_per_text_byte", "B/B", Lower, 0.05),
    e2e("answer_recall", "ratio", Higher, 0.10),
];

/// Single layers, from the traced run. Module names are the layers. The
/// driver wants every one from every workload, so a layer that a workload
/// declares idle (`Outcome::idle`) reports 0 there; a metric that is
/// neither set nor declared idle fails the run.
pub const PER_LAYER: &[MetricDef] = &[
    // ocr / sfa / core: the construction pipeline behind load and ingest.
    layer("ocr.channel_us_per_line", "us", Lower),
    layer("sfa.kbest_us_per_line", "us", Lower),
    layer("sfa.encode_us_per_line", "us", Lower),
    layer("core.approximate_us_per_line", "us", Lower),
    layer("sfa.decode_arena_ns_per_byte.staccato", "ns", Lower),
    layer("sfa.decode_arena_ns_per_byte.fullsfa", "ns", Lower),
    layer("sfa.decode_owned_ns_per_byte", "ns", Lower),
    layer("automata.compile_us_per_pattern", "us", Lower),
    // storage: pool, blobs, WAL, checkpoint.
    layer("storage.pool_hit_rate", "ratio", Higher),
    layer("storage.pool_misses_per_stmt", "count", Lower),
    layer("storage.pool_evictions_per_stmt", "count", Lower),
    layer("storage.fetch_hit_ns_per_page", "ns", Lower),
    layer("storage.fetch_miss_us_per_page", "us", Lower),
    layer("storage.blob_fetch_us_per_line", "us", Lower),
    layer("storage.wal_append_us_per_batch", "us", Lower),
    layer("storage.wal_fsync_us", "us", Lower),
    layer("storage.wal_bytes_per_doc", "B", Lower),
    layer("storage.wal_fsyncs_per_batch", "ratio", Lower),
    layer("storage.save_ms_per_checkpoint", "ms", Lower),
    // session: the write path as the client sees it.
    layer("session.ingest_docs_per_s", "1/s", Higher),
    layer("session.ingest_ack_p50_ms", "ms", Lower),
    layer("session.ingest_ack_p95_ms", "ms", Lower),
    layer("session.ingest_ack_max_ms", "ms", Lower),
    layer("session.read_p50_ms", "ms", Lower),
    layer("session.read_p90_ms", "ms", Lower),
    layer("session.batches_per_fsync", "ratio", Higher),
    layer("session.flush_wait_p95_ms", "ms", Lower),
    layer("session.checkpoints", "count", Higher),
    layer("session.recovery_docs_per_s", "1/s", Higher),
    layer("session.replay_us_per_doc", "us", Lower),
    // query: SQL, planner, cache, kernel, index.
    layer("query.sql_parse_us_per_stmt", "us", Lower),
    layer("query.plan_wall_us_p50", "us", Lower),
    layer("query.exec_wall_us_p50", "us", Lower),
    layer("query.cache_hit_rate", "ratio", Higher),
    layer("query.kernel_ns_per_line.staccato", "ns", Lower),
    layer("query.kernel_ns_per_line.fullsfa", "ns", Lower),
    layer("query.kernel_ns_per_line.kmap", "ns", Lower),
    layer("query.kernel_ns_per_line.map", "ns", Lower),
    layer("query.prescreen_skip_rate", "ratio", Higher),
    layer("query.lines_evaluated_per_answer", "ratio", Lower),
    layer("query.postings_per_stmt", "count", Lower),
    layer("query.postings_per_answer", "ratio", Lower),
    layer("query.pool_hits_per_stmt", "count", Lower),
    layer("query.probe_vs_scan_ratio", "ratio", Higher),
    layer("query.index_build_s", "s", Lower),
    layer("query.index_bytes_per_text_byte", "B/B", Lower),
    layer("query.line_postings_us_per_doc", "us", Lower),
    // server: the HTTP tier around a statement.
    layer("server.embedded_p50_us", "us", Lower),
    layer("server.overhead_p50_us", "us", Lower),
    layer("server.overhead_p95_us", "us", Lower),
    layer("server.healthz_p50_us", "us", Lower),
    layer("server.json_render_us_per_resp", "us", Lower),
    layer("server.json_parse_us_per_req", "us", Lower),
    layer("server.query_p50_us", "us", Lower),
    // trace: the benchmark's own accounting.
    layer("trace.accounted_share", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];
