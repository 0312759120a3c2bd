//! Scan-kernel microbench: per-line evaluation cost of the naive
//! reference path (owned-row cursors + `eval_strings` / decode +
//! `eval_sfa`) against the filescan the system ships —
//! [`Staccato::execute`] with `ForceFileScan`, which evaluates through
//! the compiled [`ScanKernel`] (dense DFA, interned label transitions,
//! arena decode, anchor prescreen) — per representation and per query.
//!
//! ```text
//! scan [--lines N] [--seed S] [--reps R] [--out PATH]
//! ```
//!
//! Both sides are single-threaded cursor → per-line probability →
//! bounded top-k over the same resident store; the executor side is the
//! whole statement (cache lookup, borrowed-row cursors, kernel, sink), so
//! the ratio is what a caller gets, not a kernel-only figure. Every rep
//! asserts the two paths produced bit-identical answer sets before its
//! timing is trusted. `BENCH_scan.json` records min-of-reps ns/line per
//! (approach, query), the prescreen skip rate, and a `headline` object
//! (total Staccato speedup across the query set) that CI gates on.
//!
//! [`ScanKernel`]: staccato_query::ScanKernel

use staccato_core::StaccatoParams;
use staccato_ocr::{generate, ChannelConfig, CorpusKind};
use staccato_query::store::{LoadOptions, OcrStore};
use staccato_query::{
    eval_sfa, eval_strings, Answer, Approach, PlanPreference, Query, QueryRequest, Staccato, TopK,
};
use staccato_sfa::codec;
use staccato_storage::Database;
use std::time::Instant;

/// The query mix: anchored keywords (prescreen-friendly), a LIKE
/// containment, a disjunctive regex, and a stopword whose literal is
/// everywhere (prescreen rarely skips — the kernel must win on raw
/// evaluation speed there, not on skipping).
const QUERIES: &[(&str, &str, bool)] = &[
    ("president", "President", false),
    ("commission", "%Commission%", true),
    ("public-law", r"Public Law (8|9)\d", false),
    ("the", "the", false),
];

/// Answers kept per (approach, query) on both sides.
const NUM_ANS: usize = 100;

struct Config {
    lines: usize,
    seed: u64,
    reps: usize,
    out: String,
}

/// One measured (approach, query) cell.
struct Cell {
    approach: &'static str,
    query: &'static str,
    lines: u64,
    naive_ns_per_line: f64,
    kernel_ns_per_line: f64,
    prescreen_skip_rate: f64,
}

fn main() {
    let mut cfg = Config {
        lines: 300,
        seed: 42,
        reps: 3,
        out: "BENCH_scan.json".to_string(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--lines" => cfg.lines = next("--lines").parse().expect("lines"),
            "--seed" => cfg.seed = next("--seed").parse().expect("seed"),
            "--reps" => cfg.reps = next("--reps").parse().expect("reps"),
            "--out" => cfg.out = next("--out").clone(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(cfg.lines >= 1 && cfg.reps >= 1);

    eprintln!(
        "loading {} lines of CongressActs (seed {}) ...",
        cfg.lines, cfg.seed
    );
    let dataset = generate(CorpusKind::CongressActs, cfg.lines, cfg.seed);
    // A pool big enough to keep the corpus resident: this bench measures
    // evaluation cost, not buffer-pool behaviour (BENCH_throughput owns
    // that axis).
    let db = Database::in_memory(4096).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(cfg.seed),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    let session = Staccato::load(db, &dataset, &opts).expect("load");
    let store = session.store();

    let mut cells: Vec<Cell> = Vec::new();
    for &(name, pattern, is_like) in QUERIES {
        let request = if is_like {
            QueryRequest::like(pattern)
        } else {
            QueryRequest::regex(pattern)
        }
        .num_ans(NUM_ANS)
        .plan_preference(PlanPreference::ForceFileScan);
        // The naive side's own compile of the same pattern.
        let q = request.compile().expect("bench pattern compiles");
        for approach in Approach::all() {
            let request = request.clone().approach(approach);
            // Warm the session's compiled-query cache, so the timed reps
            // measure execution as every statement after the first does.
            let warm = session.execute(&request).expect("filescan").stats;
            let (lines, skipped) = (warm.lines_evaluated, warm.prescreen_skipped);
            // min-of-reps: the steadiest estimate of the per-line cost.
            let mut naive_best = f64::INFINITY;
            let mut kernel_best = f64::INFINITY;
            for _ in 0..cfg.reps {
                let t = Instant::now();
                let (naive_answers, naive_lines) = naive_scan(store, approach, &q);
                naive_best = naive_best.min(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let executed = session.execute(&request).expect("filescan");
                kernel_best = kernel_best.min(t.elapsed().as_nanos() as f64);
                // Correctness first: a rep's timing counts only if the
                // executor reproduced the naive answer relation
                // bit-for-bit in that very rep.
                let context = format!("{name}/{}", approach.name());
                assert_eq!(naive_lines, lines, "{context}: lines diverged");
                assert_eq!(
                    naive_answers.len(),
                    executed.answers.len(),
                    "{context}: answer count diverged"
                );
                for (a, b) in naive_answers.iter().zip(&executed.answers) {
                    assert_eq!(a.data_key, b.data_key, "{context}");
                    assert_eq!(
                        a.probability.to_bits(),
                        b.probability.to_bits(),
                        "{context}: probability diverged at key {}",
                        a.data_key
                    );
                }
            }
            let cell = Cell {
                approach: approach.name(),
                query: name,
                lines,
                naive_ns_per_line: naive_best / lines.max(1) as f64,
                kernel_ns_per_line: kernel_best / lines.max(1) as f64,
                prescreen_skip_rate: skipped as f64 / lines.max(1) as f64,
            };
            eprintln!(
                "{:>8} {:<12} naive {:>12.0} ns/line  kernel {:>12.0} ns/line  ({:>5.2}x, {:>5.1}% prescreened)",
                cell.approach,
                cell.query,
                cell.naive_ns_per_line,
                cell.kernel_ns_per_line,
                cell.naive_ns_per_line / cell.kernel_ns_per_line.max(1e-9),
                cell.prescreen_skip_rate * 100.0
            );
            cells.push(cell);
        }
    }

    // Headline: total Staccato filescan cost across the query set — one
    // ratio, robust to any single query dominating.
    let headline = headline_of(&cells, "STACCATO");
    let fullsfa = headline_of(&cells, "FullSFA");

    let results: Vec<String> = cells.iter().map(cell_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"scan\",\n  \"corpus\": \"CongressActs\",\n  \"lines\": {},\n  \"seed\": {},\n  \"reps\": {},\n  \"queries\": {},\n  \"results\": [\n    {}\n  ],\n  \"headline\": {},\n  \"fullsfa\": {}\n}}\n",
        cfg.lines,
        cfg.seed,
        cfg.reps,
        QUERIES.len(),
        results.join(",\n    "),
        headline,
        fullsfa,
    );
    std::fs::write(&cfg.out, &json).expect("write BENCH json");
    println!("-> {}", cfg.out);
}

/// Sum a representation's naive and kernel cost over the whole query
/// set and emit its summary JSON object.
fn headline_of(cells: &[Cell], approach: &str) -> String {
    let naive: f64 = cells
        .iter()
        .filter(|c| c.approach == approach)
        .map(|c| c.naive_ns_per_line)
        .sum();
    let kernel: f64 = cells
        .iter()
        .filter(|c| c.approach == approach)
        .map(|c| c.kernel_ns_per_line)
        .sum();
    format!(
        "{{\"approach\": \"{}\", \"naive_ns_per_line\": {:.1}, \"kernel_ns_per_line\": {:.1}, \"speedup\": {:.3}}}",
        approach,
        naive,
        kernel,
        naive / kernel.max(1e-9)
    )
}

fn cell_json(c: &Cell) -> String {
    format!(
        "{{\"approach\": \"{}\", \"query\": \"{}\", \"lines\": {}, \"naive_ns_per_line\": {:.1}, \"kernel_ns_per_line\": {:.1}, \"speedup\": {:.3}, \"prescreen_skip_rate\": {:.4}}}",
        c.approach,
        c.query,
        c.lines,
        c.naive_ns_per_line,
        c.kernel_ns_per_line,
        c.naive_ns_per_line / c.kernel_ns_per_line.max(1e-9),
        c.prescreen_skip_rate
    )
}

/// The pre-kernel evaluation path, reconstructed over the public owned
/// cursors: per-row `String`/`Sfa` materialization, `run_from` per label
/// per live state, fresh DP vectors per row.
fn naive_scan(store: &OcrStore, approach: Approach, q: &Query) -> (Vec<Answer>, u64) {
    let mut topk = TopK::new(NUM_ANS);
    let mut lines = 0u64;
    match approach {
        Approach::Map => {
            for item in store.map_cursor().expect("cursor") {
                let (key, s, p) = item.expect("row");
                lines += 1;
                topk.push(Answer {
                    data_key: key,
                    probability: eval_strings(&q.dfa, std::iter::once((s.as_str(), p))),
                });
            }
        }
        Approach::KMap => {
            for item in store.kmap_cursor().expect("cursor") {
                let (key, strings) = item.expect("row");
                lines += 1;
                topk.push(Answer {
                    data_key: key,
                    probability: eval_strings(
                        &q.dfa,
                        strings.iter().map(|(s, p)| (s.as_str(), *p)),
                    ),
                });
            }
        }
        Approach::FullSfa | Approach::Staccato => {
            let cursor = match approach {
                Approach::FullSfa => store.full_sfa_blobs(),
                _ => store.staccato_blobs(),
            };
            for item in cursor.expect("cursor") {
                let (key, blob) = item.expect("row");
                lines += 1;
                topk.push(Answer {
                    data_key: key,
                    probability: eval_sfa(&q.dfa, &codec::decode(&blob).expect("blob")),
                });
            }
        }
    }
    (topk.into_ranked(), lines)
}
