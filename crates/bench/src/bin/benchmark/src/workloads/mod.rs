//! The five workloads and what they share: the run context, the result
//! record, repeated set-up, the single-client read loop and the
//! operation metrics.

pub mod http_closed;
pub mod ingest_mixed;
pub mod probe_hot;
pub mod recover;
pub mod scan_cold;

use crate::config::{Sizes, HARD_STOP_FACTOR, SEGMENTS};
use crate::data::Stmt;
use crate::stats::{median, micros, millis, percentile, sorted};
use crate::trace::Tracer;
use staccato_query::{Answer, ExecStats, QueryCacheStats, Staccato};
use staccato_storage::{PoolStats, PAGE_SIZE};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one run was asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub sizes: Sizes,
    pub clients: usize,
    /// The run's temp directory.
    pub dir: &'a Path,
    pub tracer: &'a Tracer,
    /// Tests set this to falsify every reference answer, which must drive
    /// `failed` above zero and the exit code nonzero.
    pub corrupt_expected: bool,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn ops(&self, workload: &str) -> usize {
        crate::config::op_count(workload, self.seconds, self.smoke)
    }

    /// The answers an operation must return — falsified when the test
    /// hook is set, by one answer no store holds.
    pub fn expected(&self, mut answers: Vec<Answer>) -> Vec<Answer> {
        if self.corrupt_expected {
            answers.push(Answer {
                data_key: -1,
                probability: 0.5,
            });
        }
        answers
    }

    /// `Err` once a window that began at `started` has run
    /// `HARD_STOP_FACTOR × --seconds`: the run fails, it does not report
    /// a window cut short.
    pub fn check_deadline(&self, started: Instant) -> Result<(), String> {
        let limit = Duration::from_secs_f64(self.seconds * HARD_STOP_FACTOR);
        if started.elapsed() > limit {
            return Err(format!(
                "the window did not finish its fixed operation count within {HARD_STOP_FACTOR} x {} s",
                self.seconds
            ));
        }
        Ok(())
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued, timed or not, whose result was checked.
    pub attempted: u64,
    /// Of those: returned `Err`, a non-2xx status, or a wrong answer.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Prefixes of the per-layer metrics this workload leaves idle.
    pub idle: &'static [&'static str],
    /// Operation counts and sizes for the run header.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A metric set earlier in the run; 0 for a layer that stayed idle.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The end-to-end metrics that are not timings of the window.
    pub fn set_common(&mut self, setup_s: f64, stored_ratio: f64, recall: f64) {
        self.set("setup_s", setup_s);
        self.set("stored_bytes_per_text_byte", stored_ratio);
        self.set("answer_recall", recall);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Set up `sizes.setup_reps` times, each from nothing and under a span, and
/// return the last environment with the median set-up time.
pub fn median_setup<E>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<E, String>,
) -> Result<(E, f64), String> {
    let mut times = Vec::with_capacity(ctx.sizes.setup_reps);
    let mut env = None;
    for rep in 0..ctx.sizes.setup_reps {
        // The previous environment owns the files the next one truncates.
        drop(env.take());
        let started = Instant::now();
        env = Some(ctx.tracer.span("setup", None, rep as u64, |_| setup())?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((env.expect("setup_reps is at least 1"), median(&times)))
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `page_count × PAGE_SIZE` (+ `extra_bytes`) over the clean text bytes.
pub fn stored_ratio(session: &Staccato, extra_bytes: u64, text_bytes: usize) -> f64 {
    let pages = session.store().db().pool().page_count();
    (pages * PAGE_SIZE as u64 + extra_bytes) as f64 / text_bytes.max(1) as f64
}

/// Mean recall of `statements`, judged by the answers they expect.
pub fn stmt_recall(session: &Staccato, statements: &[Stmt]) -> Result<f64, String> {
    crate::data::mean_recall(
        session,
        statements
            .iter()
            .map(|s| (&s.request, s.expected.as_slice(), s.request.num_ans)),
    )
}

/// One untimed pass over `statements`: compiles every pattern into the
/// query cache and faults in what the pool can hold. Returns how many
/// answers were wrong.
pub fn warm_up(
    session: &Staccato,
    statements: &[Stmt],
    same: fn(&[Answer], &[Answer]) -> bool,
) -> u64 {
    statements
        .iter()
        .filter(
            |s| !matches!(session.execute(&s.request), Ok(out) if same(&out.answers, &s.expected)),
        )
        .count() as u64
}

/// What one client saw of its operations, in issue order.
#[derive(Default)]
pub struct OpLog {
    /// Which distinct operation each one was: the statement's index for a
    /// workload that repeats a fixed set, a number of its own for one
    /// whose every operation differs (an ingest batch, a recovery).
    pub kind: Vec<usize>,
    pub latency_ms: Vec<f64>,
    /// When each operation completed, in seconds on the client's clock
    /// (the wall clock since the window began, for a closed loop).
    pub done_s: Vec<f64>,
}

impl OpLog {
    pub fn with_capacity(n: usize) -> OpLog {
        OpLog {
            kind: Vec::with_capacity(n),
            latency_ms: Vec::with_capacity(n),
            done_s: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, kind: usize, latency: Duration, done: Duration) {
        self.kind.push(kind);
        self.latency_ms.push(millis(latency));
        self.done_s.push(done.as_secs_f64());
    }
}

/// The timed window of a single-client read workload.
pub struct ReadWindow {
    pub wall: Duration,
    pub log: OpLog,
    pub failed: u64,
    pub stats: Vec<ExecStats>,
    pub answers: u64,
    pub pool: PoolStats,
    pub cache_before: QueryCacheStats,
    pub cache_after: QueryCacheStats,
}

/// Execute `order` (indices into `statements`) back to back from one
/// client — a closed loop — checking every answer with `same`.
pub fn run_reads(
    ctx: &Ctx,
    session: &Staccato,
    statements: &[Stmt],
    order: &[usize],
    same: fn(&[Answer], &[Answer]) -> bool,
) -> Result<ReadWindow, String> {
    let mut log = OpLog::with_capacity(order.len());
    let mut stats = Vec::with_capacity(order.len());
    let mut failed = 0u64;
    let mut answers = 0u64;
    let pool_before = session.pool_stats();
    let cache_before = session.query_cache_stats();
    let started = Instant::now();
    for (op, &i) in order.iter().enumerate() {
        let stmt = &statements[i];
        let issued = Instant::now();
        let result = ctx.tracer.span("session.execute", None, op as u64, |_| {
            session.execute(&stmt.request)
        });
        log.push(i, issued.elapsed(), started.elapsed());
        match result {
            Ok(out) if same(&out.answers, &stmt.expected) => {
                answers += out.answers.len() as u64;
                stats.push(out.stats);
            }
            _ => failed += 1,
        }
        ctx.check_deadline(started)?;
    }
    Ok(ReadWindow {
        wall: started.elapsed(),
        log,
        failed,
        stats,
        answers,
        pool: session.pool_stats().delta_since(pool_before),
        cache_before,
        cache_after: session.query_cache_stats(),
    })
}

/// The three operation metrics, from every client's log. The window is cut
/// into `SEGMENTS` parts of equal operation count per client. A segment's
/// throughput is the sum over clients of operations per second of that
/// client's clock. Its percentiles are taken in two steps: each distinct
/// operation's own p50 and p90 over the clients' pooled latencies, then
/// the p50 of the p50s and the p90 of the p90s over the distinct
/// operations. (A workload's statements fall into a few cost classes; the
/// pooled median of `scan_cold` sits at the upper edge of its cheap class
/// and jumps to the next one when the host slows a run by a tenth. Where
/// every operation is distinct the two steps are the plain percentiles.)
/// The median over the segments of each is reported.
pub fn op_metrics(out: &mut Outcome, logs: &[OpLog]) {
    // (op_per_s, op_p50_ms, op_p90_ms) of every segment.
    let mut segments: Vec<[f64; 3]> = Vec::with_capacity(SEGMENTS);
    for s in 0..SEGMENTS {
        let mut rate = 0.0;
        let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for log in logs {
            let n = log.latency_ms.len();
            let (lo, hi) = (n * s / SEGMENTS, n * (s + 1) / SEGMENTS);
            if lo == hi {
                continue;
            }
            let began = if lo == 0 { 0.0 } else { log.done_s[lo - 1] };
            rate += (hi - lo) as f64 / (log.done_s[hi - 1] - began);
            for i in lo..hi {
                by_kind
                    .entry(log.kind[i])
                    .or_default()
                    .push(log.latency_ms[i]);
            }
        }
        if !by_kind.is_empty() {
            let kinds: Vec<Vec<f64>> = by_kind.into_values().map(sorted).collect();
            let over_kinds =
                |p: f64| percentile(&sorted(kinds.iter().map(|k| percentile(k, p)).collect()), p);
            segments.push([rate, over_kinds(0.50), over_kinds(0.90)]);
        }
    }
    let column = |i: usize| -> Vec<f64> { segments.iter().map(|s| s[i]).collect() };
    out.set("op_per_s", median(&column(0)));
    out.set("op_p50_ms", median(&column(1)));
    out.set("op_p90_ms", median(&column(2)));
    out.note(
        "operations_timed",
        logs.iter().map(|l| l.latency_ms.len()).sum::<usize>(),
    );
    // Every segment, so that a reader sees how steady the window was.
    for (i, key) in ["segment_op_per_s", "segment_p50_ms", "segment_p90_ms"]
        .into_iter()
        .enumerate()
    {
        let values: Vec<String> = column(i).iter().map(|v| format!("{v:.4}")).collect();
        out.note(key, values.join(" "));
    }
}

/// Layer counters a read window yields: pool, compiled-query cache,
/// planner and executor, from `ExecStats` and the session's counters
/// sampled at the window's boundaries.
pub fn read_layer_metrics(out: &mut Outcome, w: &ReadWindow) {
    let n = w.stats.len().max(1) as f64;
    out.set("storage.pool_hit_rate", w.pool.hit_rate());
    out.set("storage.pool_misses_per_stmt", w.pool.misses as f64 / n);
    out.set(
        "storage.pool_evictions_per_stmt",
        w.pool.evictions as f64 / n,
    );
    out.set("query.pool_hits_per_stmt", w.pool.hits as f64 / n);
    let hits = (w.cache_after.hits - w.cache_before.hits) as f64;
    let misses = (w.cache_after.misses - w.cache_before.misses) as f64;
    out.set("query.cache_hit_rate", hits / (hits + misses).max(1.0));
    let us = |f: fn(&ExecStats) -> Duration| {
        percentile(&sorted(w.stats.iter().map(|s| micros(f(s))).collect()), 0.5)
    };
    if !w.stats.is_empty() {
        out.set("query.plan_wall_us_p50", us(|s| s.plan_wall));
        out.set("query.exec_wall_us_p50", us(|s| s.exec_wall));
    }
    let sum = |f: fn(&ExecStats) -> u64| w.stats.iter().map(f).sum::<u64>() as f64;
    let evaluated = sum(|s| s.lines_evaluated);
    let postings = sum(|s| s.postings_probed);
    out.set(
        "query.prescreen_skip_rate",
        sum(|s| s.prescreen_skipped) / evaluated.max(1.0),
    );
    out.set(
        "query.lines_evaluated_per_answer",
        evaluated / (w.answers as f64).max(1.0),
    );
    out.set("query.postings_per_stmt", postings / n);
    out.set(
        "query.postings_per_answer",
        postings / (w.answers as f64).max(1.0),
    );
}
