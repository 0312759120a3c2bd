//! `probe_hot` — the "fits in cache" case and the paper's Fig. 9 regime.
//!
//! One client draws anchored statements by a seeded shuffle from a fixed
//! set: the probe-able Table 6 patterns plus dictionary keywords
//! stratified by how often they occur. Everything is resident in a pool
//! larger than the file, and the planner sends every statement through the
//! §4 inverted index. The index, the B+-tree, the planner, the
//! compiled-query cache and pool *hits* dominate; the kernel's full scan
//! and the pager's miss path are bypassed.

use super::{
    err, median_setup, op_metrics, read_layer_metrics, run_reads, stmt_recall, stored_ratio,
    warm_up, Ctx, Outcome,
};
use crate::data::{self, Rng, Stmt, Stream, TABLE6_CA};
use crate::probes;
use crate::stats::{median, millis};
use staccato_ocr::Dataset;
use staccato_query::{PlanPreference, Staccato};
use staccato_storage::{Database, PAGE_SIZE};
use std::time::Instant;

pub struct Env {
    pub dataset: Dataset,
    pub session: Staccato,
    pub index: IndexBuild,
}

fn setup(ctx: &Ctx) -> Result<Env, String> {
    let dataset = data::corpus(ctx.sizes.read_lines, ctx.seed);
    let db = Database::create(ctx.dir.join("probe_hot.db"), ctx.sizes.hot_frames).map_err(err)?;
    let session =
        Staccato::load(db, &dataset, &data::load_options(ctx.seed, ctx.clients)).map_err(err)?;
    let index = build_index(ctx, &session, &dataset)?;
    session.checkpoint().map_err(err)?;
    Ok(Env {
        dataset,
        session,
        index,
    })
}

/// What registering the dictionary index cost.
pub struct IndexBuild {
    secs: f64,
    pages: u64,
}

impl IndexBuild {
    pub fn report(&self, out: &mut Outcome, dataset: &Dataset) {
        out.set("query.index_build_s", self.secs);
        out.set(
            "query.index_bytes_per_text_byte",
            (self.pages * PAGE_SIZE as u64) as f64 / dataset.text_bytes() as f64,
        );
    }
}

/// Register the dictionary index (corpus words + filler terms).
pub fn build_index(ctx: &Ctx, session: &Staccato, dataset: &Dataset) -> Result<IndexBuild, String> {
    let pool = session.store().db().pool();
    let pages_before = pool.page_count();
    let started = Instant::now();
    let trie = data::trie_of(&data::dictionary(dataset, ctx.sizes.filler_terms));
    session.register_index(&trie, "inv").map_err(err)?;
    Ok(IndexBuild {
        secs: started.elapsed().as_secs_f64(),
        pages: pool.page_count() - pages_before,
    })
}

/// The anchored statements of a corpus that the planner routes through
/// the index: the Table 6 patterns first, then `n` stratified keywords.
/// Each expects the key set its forced filescan returns.
pub fn probe_statements(
    ctx: &Ctx,
    session: &Staccato,
    dataset: &Dataset,
) -> Result<Vec<Stmt>, String> {
    let mut patterns: Vec<String> = TABLE6_CA.iter().map(|p| p.to_string()).collect();
    patterns.extend(data::stratified_keywords(
        dataset,
        ctx.sizes.probe_statements,
        0.1,
        0.9,
    ));
    let mut seen = std::collections::BTreeSet::new();
    let mut statements = Vec::new();
    for pattern in patterns {
        if statements.len() == ctx.sizes.probe_statements || !seen.insert(pattern.clone()) {
            continue;
        }
        let request = data::staccato_request(&pattern, PlanPreference::Auto);
        if !session.plan(&request).map_err(err)?.is_index_probe() {
            continue;
        }
        let scan = data::staccato_request(&pattern, PlanPreference::ForceFileScan);
        let expected = ctx.expected(session.execute(&scan).map_err(err)?.answers);
        statements.push(Stmt { request, expected });
    }
    if statements.is_empty() {
        return Err("no statement of this corpus plans as an index probe".to_string());
    }
    Ok(statements)
}

/// `count` indices into `n` statements: whole shuffled passes, so every
/// statement runs equally often whatever the seed.
pub fn shuffled_order(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(data::sub_seed(seed, Stream::Shuffle));
    let mut order = Vec::with_capacity(count + n);
    while order.len() < count {
        let mut pass: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order.truncate(count);
    order
}

/// No server, no log.
const IDLE: &[&str] = &[
    "session.",
    "server.",
    "storage.wal_bytes_per_doc",
    "storage.wal_fsyncs_per_batch",
    "storage.save_ms_per_checkpoint",
];

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        idle: IDLE,
        ..Outcome::default()
    };
    let (env, setup_s) = median_setup(ctx, || setup(ctx))?;
    let session = &env.session;
    let statements = probe_statements(ctx, session, &env.dataset)?;

    // One untimed pass: every page the probes touch becomes resident and
    // every statement is compiled and planned.
    let warm_failed = warm_up(session, &statements, data::same_keys);
    let order = shuffled_order(statements.len(), ctx.ops("probe_hot"), ctx.seed);
    let window = run_reads(ctx, session, &statements, &order, data::same_keys)?;

    out.set("trace.spans", ctx.tracer.len() as f64);
    out.attempted = (statements.len() + order.len()) as u64;
    out.failed = warm_failed + window.failed;
    out.note("lines", ctx.sizes.read_lines);
    out.note("pool_frames", ctx.sizes.hot_frames);
    out.note("file_pages", session.store().db().pool().page_count());
    out.note("distinct_statements", statements.len());

    out.set_common(
        setup_s,
        stored_ratio(session, 0, env.dataset.text_bytes()),
        stmt_recall(session, &statements)?,
    );

    if ctx.traced() {
        read_layer_metrics(&mut out, &window);
        env.index.report(&mut out, &env.dataset);
        out.set(
            "query.probe_vs_scan_ratio",
            probe_vs_scan(ctx, session, &statements)?,
        );
        let blob_bytes = probes::run_common(ctx, session, &env.dataset, &mut out)?;
        // A probe is planned, then decodes the graph of every candidate
        // line its postings name.
        let candidates = window.stats.iter().map(|s| s.lines_evaluated).sum::<u64>() as f64
            / window.stats.len().max(1) as f64;
        let plan_us = out.get("query.plan_wall_us_p50");
        let decode_us = blob_bytes * out.get("sfa.decode_owned_ns_per_byte") / 1e3;
        let mean_us = window.wall.as_secs_f64() * 1e6 / order.len() as f64;
        out.set(
            "trace.accounted_share",
            (plan_us + candidates * decode_us) / mean_us,
        );
    }
    op_metrics(&mut out, &[window.log]);
    Ok(out)
}

/// Fig. 9 in one number: the same statements forced to a filescan over
/// planned automatically, medians of the same run.
pub fn probe_vs_scan(ctx: &Ctx, session: &Staccato, statements: &[Stmt]) -> Result<f64, String> {
    ctx.tracer
        .span("query.probe_vs_scan", None, 0, |_| -> Result<f64, String> {
            let mut auto_ms = Vec::with_capacity(statements.len());
            let mut scan_ms = Vec::with_capacity(statements.len());
            for stmt in statements {
                let scan = stmt
                    .request
                    .clone()
                    .plan_preference(PlanPreference::ForceFileScan);
                let started = Instant::now();
                session.execute(&scan).map_err(err)?;
                scan_ms.push(millis(started.elapsed()));
                let started = Instant::now();
                session.execute(&stmt.request).map_err(err)?;
                auto_ms.push(millis(started.elapsed()));
            }
            Ok(median(&scan_ms) / median(&auto_ms))
        })
}
