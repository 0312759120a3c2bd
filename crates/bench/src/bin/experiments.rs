//! Experiment harness: one sub-command per table/figure of
//! *Probabilistic Management of OCR Data using an RDBMS* (VLDB 2011).
//!
//! ```text
//! experiments <id> [--lines N] [--seed S] [--reps R] [--full]
//!   id ∈ { t1 t2 t4 f4 f5 f6 f7 f8 f9 f10 f11 f15 f16 f19 all }
//! ```
//!
//! `--full` runs at the paper's dataset scale (Table 2); the default is a
//! quarter scale that finishes in a few minutes. Output is markdown so it
//! can be pasted into EXPERIMENTS.md next to the paper's numbers.

use staccato_bench::mem::{MemCorpus, M_MAX};
use staccato_bench::timing::{fmt_duration, time_median};
use staccato_bench::workload::{corpus_dictionary, table6_queries};
use staccato_core::{approximate, tune, SizeModel, StaccatoParams, TuningConstraints};
use staccato_ocr::{generate, Channel, ChannelConfig, CorpusKind};
use staccato_query::exec::{Answer, Approach};
use staccato_query::invindex::{direct_posting_count, line_postings};
use staccato_query::metrics::{evaluate_answers, ground_truth, Metrics};
use staccato_query::sql::{lower_statement, parse_statement, quote_str};
use staccato_query::store::LoadOptions;
use staccato_query::{PlanPreference, Query, ScanScratch, SqlTable, Staccato};
use staccato_sfa::codec;
use staccato_storage::Database;
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

const NUM_ANS: usize = 100;

#[derive(Clone)]
struct Ctx {
    seed: u64,
    reps: usize,
    full: bool,
    lines_override: Option<usize>,
}

impl Ctx {
    fn lines(&self, kind: CorpusKind) -> usize {
        if let Some(n) = self.lines_override {
            return n;
        }
        let paper = kind.paper_scale();
        if self.full {
            paper
        } else {
            paper / 4
        }
    }

    fn channel(&self) -> ChannelConfig {
        ChannelConfig {
            seed: self.seed,
            ..ChannelConfig::default()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = Ctx {
        seed: 42,
        reps: 3,
        full: false,
        lines_override: None,
    };
    let mut which: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => ctx.full = true,
            "--seed" => ctx.seed = it.next().expect("--seed N").parse().expect("seed"),
            "--reps" => ctx.reps = it.next().expect("--reps N").parse().expect("reps"),
            "--lines" => {
                ctx.lines_override = Some(it.next().expect("--lines N").parse().expect("lines"))
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        eprintln!(
            "usage: experiments <t1|t2|t4|f4|f5|f6|f7|f8|f9|f10|f11|f15|f16|f19|all> \
                   [--lines N] [--seed S] [--reps R] [--full]"
        );
        std::process::exit(2);
    }
    let all = which.iter().any(|w| w == "all");
    let want = |id: &str| all || which.iter().any(|w| w == id);

    println!("# Staccato experiment run");
    println!();
    println!(
        "scale: {} (CA={}, LT={}, DB={}), seed={}, reps={}, NumAns={}",
        if ctx.full {
            "paper (Table 2)"
        } else {
            "quarter"
        },
        ctx.lines(CorpusKind::CongressActs),
        ctx.lines(CorpusKind::EnglishLit),
        ctx.lines(CorpusKind::DbPapers),
        ctx.seed,
        ctx.reps,
        NUM_ANS
    );
    let started = Instant::now();
    if want("t1") {
        e_t1(&ctx);
    }
    if want("t2") {
        e_t2(&ctx);
    }
    if want("t4") {
        e_t4(&ctx);
    }
    if want("f4") {
        e_f4(&ctx);
    }
    if want("f5") {
        e_f5(&ctx);
    }
    if want("f6") {
        e_f6(&ctx, false);
    }
    if want("f7") {
        e_f7(&ctx);
    }
    if want("f8") {
        e_f8(&ctx);
    }
    if want("f9") {
        e_f9(&ctx);
    }
    if want("f10") {
        e_f10(&ctx);
    }
    if want("f11") {
        e_f11(&ctx);
    }
    if want("f15") {
        e_f6(&ctx, true);
    }
    if want("f16") {
        e_f16(&ctx);
    }
    if want("f19") {
        e_f19(&ctx);
    }
    println!();
    println!(
        "_total experiment wall time: {}_",
        fmt_duration(started.elapsed())
    );
}

fn header(title: &str, what: &str) {
    println!();
    println!("## {title}");
    println!();
    println!("{what}");
    println!();
}

fn pr(m: &Metrics) -> String {
    format!("{:.2}/{:.2}", m.precision, m.recall)
}

// ---------------------------------------------------------------- T1 --

/// Table 1: the cost model on a chain SFA — query time should be linear
/// in the data volume of each representation and interpolate linearly in
/// the number of chunks m.
fn e_t1(ctx: &Ctx) {
    header(
        "Table 1 — cost model on a chain SFA",
        "Measured query evaluation time per line vs l (string length) and m (chunks); \
         the paper's model predicts k-MAP ∝ l·q·k, FullSFA ∝ l·q·|Σ|, Staccato between, \
         linear in m.",
    );
    let q = Query::keyword("target").expect("pattern");
    let channel = Channel::new(ctx.channel());
    println!("| l | k-MAP k=25 | STACCATO m=l/4 | STACCATO m=l/2 | FullSFA |");
    println!("|---|---|---|---|---|");
    for l in [20usize, 40, 80, 160] {
        let line: String = "abcdefg hij klmnop qrstu vw xyz "
            .chars()
            .cycle()
            .take(l)
            .collect();
        let sfa = channel.line_to_sfa(&line, l as u64);
        let kmap: Vec<(String, f64)> = staccato_sfa::k_best_paths(&sfa, 25)
            .into_iter()
            .map(|p| (p.string, p.prob))
            .collect();
        // Each representation as the store holds it: strings, or an
        // encoded blob the kernel decodes as part of evaluating it.
        let stac_a = codec::encode(&approximate(&sfa, StaccatoParams::new((l / 4).max(1), 25)));
        let stac_b = codec::encode(&approximate(&sfa, StaccatoParams::new((l / 2).max(1), 25)));
        let full = codec::encode(&sfa);
        let mut scratch = ScanScratch::new();
        let mut time_blob = |blob: &[u8]| {
            time_median(ctx.reps * 3, || {
                let _ = q.kernel.eval_blob(&mut scratch, blob).expect("fresh blob");
            })
        };
        let (t_sa, t_sb, t_full) = (time_blob(&stac_a), time_blob(&stac_b), time_blob(&full));
        let t_kmap = time_median(ctx.reps * 3, || {
            let _ = q
                .kernel
                .eval_string_group(kmap.iter().map(|(s, p)| (s.as_str(), *p)));
        });
        println!(
            "| {l} | {} | {} | {} | {} |",
            fmt_duration(t_kmap),
            fmt_duration(t_sa),
            fmt_duration(t_sb),
            fmt_duration(t_full)
        );
    }
    println!();
    println!(
        "Space (bytes) for the l=80 line: kMAP(k=25)={}, STACCATO(m=20,k=25)={}, FullSFA={}",
        {
            let line: String = "abcdefg hij klmnop qrstu vw xyz "
                .chars()
                .cycle()
                .take(80)
                .collect();
            let sfa = channel.line_to_sfa(&line, 80);
            staccato_sfa::k_best_paths(&sfa, 25)
                .iter()
                .map(|p| p.string.len() + 16)
                .sum::<usize>()
        },
        {
            let line: String = "abcdefg hij klmnop qrstu vw xyz "
                .chars()
                .cycle()
                .take(80)
                .collect();
            let sfa = channel.line_to_sfa(&line, 80);
            codec::encoded_size(&approximate(&sfa, StaccatoParams::new(20, 25)))
        },
        {
            let line: String = "abcdefg hij klmnop qrstu vw xyz "
                .chars()
                .cycle()
                .take(80)
                .collect();
            codec::encoded_size(&channel.line_to_sfa(&line, 80))
        }
    );
}

// ---------------------------------------------------------------- T2 --

/// Table 2: dataset statistics.
fn e_t2(ctx: &Ctx) {
    header(
        "Table 2 — dataset statistics",
        "Pages, SFAs, size as SFAs vs size as text (paper: CA 38/1590/533MB/90kB, \
         LT 32/1211/524MB/78kB, DB 16/627/359MB/54kB; sizes scale with the chosen line count).",
    );
    println!("| dataset | pages | SFAs | size as SFAs | size as text | blow-up |");
    println!("|---|---|---|---|---|---|");
    for kind in [
        CorpusKind::CongressActs,
        CorpusKind::EnglishLit,
        CorpusKind::DbPapers,
    ] {
        let corpus = MemCorpus::build(kind, ctx.lines(kind), ctx.seed, ctx.channel());
        let sfa_mb = corpus.full_bytes() as f64 / 1e6;
        let text_kb = corpus.text_bytes() as f64 / 1e3;
        println!(
            "| {} | {} | {} | {:.1} MB | {:.1} kB | {:.0}x |",
            kind.short_name(),
            corpus.dataset.pages(),
            corpus.line_count(),
            sfa_mb,
            text_kb,
            corpus.full_bytes() as f64 / corpus.text_bytes() as f64
        );
    }
}

// ---------------------------------------------------------------- T4 --

/// Table 4 (+ appendix Tables 7/8): precision/recall and runtime for the
/// 21 workload queries through the real storage engine, issued as SQL
/// strings over the representation tables (the paper's §2.3 interface).
///
/// Panics (non-zero exit) when any query breaks the paper's recall
/// ordering MAP ≤ k-MAP ≤ Staccato ≤ FullSFA.
fn e_t4(ctx: &Ctx) {
    header(
        "Table 4 / Tables 7–8 — quality and runtime across datasets (RDBMS filescans)",
        "k=25, m=40, NumAns=100, as in the paper; each cell runs \
         `SELECT DataKey, Prob FROM <table> WHERE Data REGEXP '...' LIMIT 100` through \
         `Staccato::sql`. Paper shape: MAP precision 1.0 with recall as low as ~0.3 on \
         regexes; FullSFA recall 1.0 with low precision, 2–3 orders of magnitude slower; \
         Staccato between.",
    );
    let mut out_of_order = Vec::new();
    for kind in [
        CorpusKind::CongressActs,
        CorpusKind::EnglishLit,
        CorpusKind::DbPapers,
    ] {
        let dataset = generate(kind, ctx.lines(kind), ctx.seed);
        let db = Database::in_memory(8192).expect("db");
        let opts = LoadOptions {
            channel: ctx.channel(),
            kmap_k: 25,
            staccato: StaccatoParams::new(40, 25),
            ..Default::default()
        };
        let t0 = Instant::now();
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        println!();
        println!(
            "### {} ({} lines; loaded in {})",
            kind.short_name(),
            session.line_count(),
            fmt_duration(t0.elapsed())
        );
        println!();
        println!("| query | truth | MAP P/R | k-MAP P/R | FullSFA P/R | STACCATO P/R | MAP t | k-MAP t | FullSFA t | STACCATO t |");
        println!("|---|---|---|---|---|---|---|---|---|---|");
        for spec in table6_queries(kind) {
            let query = Query::regex(spec.pattern).expect("workload pattern");
            let truth = ground_truth(session.store(), &query).expect("truth");
            let mut cells_pr = Vec::new();
            let mut cells_t = Vec::new();
            let mut recall = HashMap::new();
            for ap in Approach::all() {
                let statement = format!(
                    "SELECT DataKey, Prob FROM {} WHERE Data REGEXP {} \
                     ORDER BY Prob DESC LIMIT {NUM_ANS}",
                    SqlTable::of_approach(ap).name(),
                    quote_str(spec.pattern)
                );
                // P/R through the full SQL surface; the runtime cells
                // time the lowered request so every cell measures equal
                // work (parse/lower once, outside the timer — same
                // methodology as f9).
                let answers = session.sql(&statement).expect("query").answers;
                let request =
                    lower_statement(&parse_statement(&statement).expect("parse")).expect("lower");
                let t = time_median(ctx.reps, || {
                    let _: Vec<Answer> = session.execute(&request).expect("query").answers;
                });
                let metrics = evaluate_answers(&answers, &truth);
                recall.insert(ap, metrics.recall);
                cells_pr.push(pr(&metrics));
                cells_t.push(fmt_duration(t));
            }
            let ordered = [
                Approach::Map,
                Approach::KMap,
                Approach::Staccato,
                Approach::FullSfa,
            ]
            .map(|ap| recall[&ap]);
            if !ordered.is_sorted() {
                out_of_order.push(format!("{} {}: {ordered:?}", kind.short_name(), spec.id));
            }
            println!(
                "| {} `{}` | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                spec.id,
                spec.pattern,
                truth.len(),
                cells_pr[0],
                cells_pr[1],
                cells_pr[2],
                cells_pr[3],
                cells_t[0],
                cells_t[1],
                cells_t[2],
                cells_t[3],
            );
        }
    }
    println!();
    println!(
        "Recall ordering MAP ≤ k-MAP ≤ STACCATO ≤ FullSFA broken by {} queries.",
        out_of_order.len()
    );
    assert!(
        out_of_order.is_empty(),
        "t4: recall ordering MAP ≤ k-MAP ≤ STACCATO ≤ FullSFA broken: {out_of_order:#?}"
    );
}

// ---------------------------------------------------------------- F4 --

/// Figure 4: the recall–runtime scatter for one keyword and one regex
/// query at m=10, k=100.
fn e_f4(ctx: &Ctx) {
    header(
        "Figure 4 — recall vs runtime (m=10, k=100)",
        "Paper shape: MAP fast/low-recall, FullSFA slow/recall-1, Staccato in the middle \
         on both axes.",
    );
    let mut corpus = MemCorpus::build(
        CorpusKind::CongressActs,
        ctx.lines(CorpusKind::CongressActs),
        ctx.seed,
        ctx.channel(),
    );
    println!("| query | engine | recall | runtime |");
    println!("|---|---|---|---|");
    for pattern in ["President", r"U.S.C. 2\d\d\d"] {
        let query = Query::regex(pattern).expect("pattern");
        let truth = corpus.ground_truth(&query);
        let row = |name: &str, answers: Vec<Answer>, t: std::time::Duration| {
            let m = evaluate_answers(&answers, &truth);
            println!(
                "| `{pattern}` | {name} | {:.2} | {} |",
                m.recall,
                fmt_duration(t)
            );
        };
        let _ = corpus.kmap(1); // build outside the timer
        let mut a = Vec::new();
        let t = time_median(ctx.reps, || a = corpus.eval_map(&query, NUM_ANS));
        row("MAP", a, t);
        let _ = corpus.staccato(10, 100); // build outside the timer
        let mut a = Vec::new();
        let t = time_median(ctx.reps, || {
            a = corpus.eval_staccato(10, 100, &query, NUM_ANS)
        });
        row("STACCATO", a, t);
        let mut a = Vec::new();
        let t = time_median(ctx.reps, || a = corpus.eval_full(&query, NUM_ANS));
        row("FullSFA", a, t);
    }
}

// ---------------------------------------------------------------- F5 --

/// Figure 5: direct-indexing posting blow-up on a single SFA.
fn e_f5(ctx: &Ctx) {
    header(
        "Figure 5 — #postings from directly indexing one SFA (log10)",
        "Linear-ish in k at fixed m (A); exponential in m at fixed k (B) — the paper's \
         k=50 series overflows u64 beyond m=60, which motivates dictionary-based indexing.",
    );
    let corpus = MemCorpus::build(CorpusKind::CongressActs, 40, ctx.seed, ctx.channel());
    // Pick the longest line so m can go high.
    let (idx, _) = corpus
        .clean
        .iter()
        .enumerate()
        .max_by_key(|(_, l)| l.len())
        .expect("non-empty corpus");
    let sfa = codec::decode(&corpus.full_blobs[idx]).expect("blob");
    println!("(line has {} transitions)", sfa.edge_count());
    println!();
    println!("| | k=1 | k=10 | k=25 | k=50 | k=75 | k=100 |");
    println!("|---|---|---|---|---|---|---|");
    for m in [5usize, 20] {
        let mut cells = Vec::new();
        for k in [1usize, 10, 25, 50, 75, 100] {
            let approx = approximate(&sfa, StaccatoParams::new(m, k));
            cells.push(format!("{:.1}", direct_posting_count(&approx).log10()));
        }
        println!("| m={m} | {} |", cells.join(" | "));
    }
    println!();
    println!("| | m=1 | m=10 | m=20 | m=40 | m=60 | Max |");
    println!("|---|---|---|---|---|---|---|");
    for k in [10usize, 50] {
        let mut cells = Vec::new();
        for m in [1usize, 10, 20, 40, 60, M_MAX] {
            let approx = approximate(&sfa, StaccatoParams::new(m, k));
            let count = direct_posting_count(&approx);
            let marker = if count > u64::MAX as f64 {
                " (>u64)"
            } else {
                ""
            };
            cells.push(format!("{:.1}{marker}", count.log10()));
        }
        println!("| k={k} | {} |", cells.join(" | "));
    }
}

// ---------------------------------------------------------------- F6 / F15 --

/// Figure 6 (recall & runtime) and appendix Figure 15 (precision & F1):
/// sweeps over k for several m on the CA keyword + regex queries.
fn e_f6(ctx: &Ctx, precision_mode: bool) {
    let (title, what) = if precision_mode {
        (
            "Figure 15 — precision and F1 vs k, per m",
            "Paper shape: precision stays near MAP for small (m,k) and falls toward \
             FullSFA as both grow; F1 of Staccato can beat both extremes on regexes.",
        )
    } else {
        (
            "Figure 6 — recall and runtime vs k, per m",
            "Paper shape: k-MAP recall is nearly flat in k; increasing m lifts recall \
             toward FullSFA's 1.0 with runtime growing accordingly (keyword query starts \
             high ≈0.8; the regex starts much lower).",
        )
    };
    header(title, what);
    let mut corpus = MemCorpus::build(
        CorpusKind::CongressActs,
        ctx.lines(CorpusKind::CongressActs),
        ctx.seed,
        ctx.channel(),
    );
    let ks = [1usize, 10, 25, 50, 75, 100];
    let ms = [1usize, 10, 40, 100, M_MAX];
    for pattern in ["President", r"U.S.C. 2\d\d\d"] {
        let query = Query::regex(pattern).expect("pattern");
        let truth = corpus.ground_truth(&query);
        println!();
        println!("### `{pattern}` (truth = {})", truth.len());
        println!();
        let metric_cols = if precision_mode {
            "precision / F1"
        } else {
            "recall / runtime"
        };
        println!(
            "| engine \\ k ({metric_cols}) | {} |",
            ks.map(|k| k.to_string()).join(" | ")
        );
        println!("|---|{}|", ks.map(|_| "---").join("|"));
        // k-MAP row.
        let mut cells = Vec::new();
        for k in ks {
            let _ = corpus.kmap(k); // build outside the timer
            let mut a = Vec::new();
            let t = time_median(ctx.reps, || a = corpus.eval_kmap(k, &query, NUM_ANS));
            let m = evaluate_answers(&a, &truth);
            cells.push(if precision_mode {
                format!("{:.2}/{:.2}", m.precision, m.f1)
            } else {
                format!("{:.2}/{}", m.recall, fmt_duration(t))
            });
        }
        println!("| k-MAP | {} |", cells.join(" | "));
        // Staccato rows.
        for m in ms {
            let mut cells = Vec::new();
            for k in ks {
                let _ = corpus.staccato(m, k); // construct outside the timer
                let mut a = Vec::new();
                let t = time_median(ctx.reps, || a = corpus.eval_staccato(m, k, &query, NUM_ANS));
                let met = evaluate_answers(&a, &truth);
                cells.push(if precision_mode {
                    format!("{:.2}/{:.2}", met.precision, met.f1)
                } else {
                    format!("{:.2}/{}", met.recall, fmt_duration(t))
                });
            }
            let label = if m == M_MAX {
                "Max".to_string()
            } else {
                m.to_string()
            };
            println!("| STACCATO m={label} | {} |", cells.join(" | "));
        }
        // FullSFA row.
        let mut a = Vec::new();
        let t = time_median(ctx.reps, || a = corpus.eval_full(&query, NUM_ANS));
        let met = evaluate_answers(&a, &truth);
        let cell = if precision_mode {
            format!("{:.2}/{:.2}", met.precision, met.f1)
        } else {
            format!("{:.2}/{}", met.recall, fmt_duration(t))
        };
        println!("| FullSFA | {} |", vec![cell; ks.len()].join(" | "));
    }
}

// ---------------------------------------------------------------- F7 --

/// Figure 7 + appendix Figure 17: query length and wildcard complexity.
fn e_f7(ctx: &Ctx) {
    header(
        "Figure 7 / Figure 17 — query length and complexity",
        "Paper shape: runtimes grow slowly (polynomially) with query length for all \
         engines; recall shows no clear trend; Kleene-star wildcards hit FullSFA hardest.",
    );
    let mut corpus = MemCorpus::build(
        CorpusKind::CongressActs,
        ctx.lines(CorpusKind::CongressActs),
        ctx.seed,
        ctx.channel(),
    );
    let _ = corpus.staccato(40, 25);
    let _ = corpus.kmap(25);
    let runs: [(&str, Vec<String>); 3] = [
        (
            "keyword length",
            vec![
                "that",
                "federal",
                "Commission",
                "United States",
                "Attorney General",
            ]
            .into_iter()
            .map(String::from)
            .collect(),
        ),
        (
            "simple wildcards (\\d)",
            (0..4)
                .map(|n| format!("U.S.C. 2{}", r"\d".repeat(n)))
                .collect(),
        ),
        (
            "complex wildcards ((\\x)*)",
            vec![
                "U.S.C. 2".to_string(),
                r"U(\x)*S.C. 2".to_string(),
                r"U(\x)*S(\x)*C. 2".to_string(),
                r"U(\x)*S(\x)*C(\x)* 2".to_string(),
            ],
        ),
    ];
    for (name, patterns) in runs {
        println!();
        println!("### {name}");
        println!();
        println!("| pattern | len | k-MAP recall/t | STACCATO recall/t | FullSFA recall/t |");
        println!("|---|---|---|---|---|");
        for pattern in patterns {
            let query = Query::regex(&pattern).expect("pattern");
            let truth = corpus.ground_truth(&query);
            let mut a = Vec::new();
            let tk = time_median(ctx.reps, || a = corpus.eval_kmap(25, &query, NUM_ANS));
            let mk = evaluate_answers(&a, &truth);
            let ts = time_median(ctx.reps, || {
                a = corpus.eval_staccato(40, 25, &query, NUM_ANS)
            });
            let ms = evaluate_answers(&a, &truth);
            let tf = time_median(ctx.reps, || a = corpus.eval_full(&query, NUM_ANS));
            let mf = evaluate_answers(&a, &truth);
            println!(
                "| `{pattern}` | {} | {:.2}/{} | {:.2}/{} | {:.2}/{} |",
                pattern.len(),
                mk.recall,
                fmt_duration(tk),
                ms.recall,
                fmt_duration(ts),
                mf.recall,
                fmt_duration(tf)
            );
        }
    }
}

// ---------------------------------------------------------------- F8 --

/// Figure 8 + appendix Figure 18: Staccato construction time.
fn e_f8(ctx: &Ctx) {
    header(
        "Figure 8 / Figure 18 — construction time",
        "Paper shape: (A) grows with SFA size n at fixed (m,k); (B) a spike once m \
         drops below |E| (merging starts), then roughly linear as m decreases; \
         (C) roughly linear in k.",
    );
    let channel = Channel::new(ctx.channel());
    let mk_line = |n: usize| -> String {
        "public law of the united states congress "
            .chars()
            .cycle()
            .take(n)
            .collect()
    };
    println!("| n (chars) | m=1 k=100 | m=40 k=100 |");
    println!("|---|---|---|");
    let sizes: &[usize] = if ctx.full {
        &[50, 100, 200, 300, 400, 500]
    } else {
        &[50, 100, 200, 300]
    };
    for &n in sizes {
        let sfa = channel.line_to_sfa(&mk_line(n), n as u64);
        let t1 = time_median(1, || {
            let _ = approximate(&sfa, StaccatoParams::new(1, 100));
        });
        let t40 = time_median(1, || {
            let _ = approximate(&sfa, StaccatoParams::new(40, 100));
        });
        println!("| {n} | {} | {} |", fmt_duration(t1), fmt_duration(t40));
    }
    println!();
    let n = if ctx.full { 300 } else { 150 };
    let sfa = channel.line_to_sfa(&mk_line(n), 7);
    let edges = sfa.edge_count();
    println!("(B) fixed n={n} chars, |E|={edges}, k=100; sweep m:");
    println!();
    println!("| m | construction time |");
    println!("|---|---|");
    let mut ms: Vec<usize> = vec![
        edges + 10,
        edges,
        edges * 3 / 4,
        edges / 2,
        edges / 4,
        10,
        1,
    ];
    ms.dedup();
    for m in ms {
        let t = time_median(1, || {
            let _ = approximate(&sfa, StaccatoParams::new(m.max(1), 100));
        });
        println!("| {m} | {} |", fmt_duration(t));
    }
    println!();
    println!("(C) fixed n={n}, m=40; sweep k:");
    println!();
    println!("| k | construction time |");
    println!("|---|---|");
    for k in [1usize, 10, 25, 50, 75, 100] {
        let t = time_median(1, || {
            let _ = approximate(&sfa, StaccatoParams::new(40, k));
        });
        println!("| {k} | {} |", fmt_duration(t));
    }
}

// ---------------------------------------------------------------- F9 --

/// Figure 9: inverted-index runtimes and selectivity.
fn e_f9(ctx: &Ctx) {
    header(
        "Figure 9 — index-assisted queries: runtime and selectivity",
        "Query `Public Law (8|9)\\d`, anchor term 'public'. Paper shape: the index wins \
         by ~an order of magnitude at small (m,k); as k and m grow the term's selectivity \
         rises and the advantage shrinks.",
    );
    // Part 1: through the real storage engine at the default parameters.
    let dataset = generate(
        CorpusKind::CongressActs,
        ctx.lines(CorpusKind::CongressActs),
        ctx.seed,
    );
    let db = Database::in_memory(8192).expect("db");
    let opts = LoadOptions {
        channel: ctx.channel(),
        kmap_k: 25,
        staccato: StaccatoParams::new(40, 25),
        ..Default::default()
    };
    let session = Staccato::load(db, &dataset, &opts).expect("load");
    let mut dict = corpus_dictionary(&dataset, 2000);
    // The §4 dictionary is user-supplied; make sure it covers the query's
    // anchor term even at tiny smoke-test scales where the sampled corpus
    // may not mention it.
    if !dict.iter().any(|t| t == "public") {
        dict.push("public".to_string());
    }
    let trie = staccato_automata::Trie::build(&dict);
    let t0 = Instant::now();
    let posting_count = session.register_index(&trie, "inv").expect("index build");
    let build_time = t0.elapsed();
    // The single source of truth for the pattern every f9 measurement uses.
    let pattern = r"Public Law (8|9)\d";
    let query = Query::regex(pattern).expect("pattern");
    let statement = format!(
        "SELECT DataKey, Prob FROM StaccatoData WHERE Data REGEXP {} LIMIT {NUM_ANS}",
        quote_str(pattern)
    );
    // The SQL EXPLAIN must show the planner auto-routing through the probe.
    let explain = session
        .sql(&format!("EXPLAIN {statement}"))
        .expect("explain")
        .explain
        .expect("explain text");
    assert!(explain.contains("IndexProbe"), "{explain}");
    // Both timed cells run the *same* lowered statement so the cells
    // measure equal work (parse/lower once, outside the timers); the
    // probe side additionally pins nothing — it is the auto plan.
    let probe_request =
        lower_statement(&parse_statement(&statement).expect("parse")).expect("lower");
    let scan_request = probe_request
        .clone()
        .plan_preference(PlanPreference::ForceFileScan);
    let mut a_scan = Vec::new();
    let t_scan = time_median(ctx.reps, || {
        a_scan = session.execute(&scan_request).expect("scan").answers;
    });
    let mut a_idx = Vec::new();
    let t_idx = time_median(ctx.reps, || {
        a_idx = session.execute(&probe_request).expect("probe").answers;
    });
    // The full SQL surface returns the identical relation.
    let via_sql = session.sql(&statement).expect("sql probe");
    assert!(via_sql.plan.is_index_probe());
    assert_eq!(via_sql.answers.len(), a_idx.len());
    // Fig. 9's precondition: both plans return the same answer *set*.
    // Compared without the LIMIT, which ranks by each plan's own
    // probabilities and may cut the two lists at different keys.
    let all_keys = |request: &staccato_query::QueryRequest| -> BTreeSet<i64> {
        let unlimited = request.clone().num_ans(session.store().line_count());
        let out = session.execute(&unlimited).expect("key-set check");
        out.answers.iter().map(|a| a.data_key).collect()
    };
    let sets_equal = all_keys(&scan_request) == all_keys(&probe_request);
    println!(
        "RDBMS path (m=40, k=25): dictionary {} terms ({} trie states), {posting_count} postings, \
         built in {}. Query issued as `{statement}`.",
        trie.term_count(),
        trie.state_count(),
        fmt_duration(build_time)
    );
    println!();
    println!("| plan | runtime | answers | answer sets equal |");
    println!("|---|---|---|---|");
    println!(
        "| filescan | {} | {} | |",
        fmt_duration(t_scan),
        a_scan.len()
    );
    println!(
        "| index probe + projection | {} | {} | {} |",
        fmt_duration(t_idx),
        a_idx.len(),
        sets_equal
    );
    assert!(
        sets_equal,
        "f9: index probe and filescan answer key sets differ for {pattern:?}"
    );
    let expected = session
        .sql(&format!(
            "SELECT SUM(Prob) FROM StaccatoData WHERE Data REGEXP {}",
            quote_str(pattern)
        ))
        .expect("aggregate")
        .aggregate
        .expect("aggregate value");
    println!();
    println!(
        "E[COUNT(*)] over the probe's answer relation (SELECT SUM(Prob) ...): {:.3}",
        expected.value
    );

    // Part 2: selectivity sweep over (m, k) on in-memory representations.
    let mut corpus = MemCorpus::build(
        CorpusKind::CongressActs,
        ctx.lines(CorpusKind::CongressActs),
        ctx.seed,
        ctx.channel(),
    );
    let lines = corpus.line_count();
    println!();
    println!("| m | k | selectivity of 'public' | probe runtime | scan runtime | probe/scan |");
    println!("|---|---|---|---|---|---|");
    let combos: &[(usize, usize)] = if ctx.full {
        &[(1, 1), (1, 25), (10, 25), (40, 1), (40, 25), (100, 25)]
    } else {
        &[(1, 25), (10, 25), (40, 25)]
    };
    for &(m, k) in combos {
        let rep = corpus.staccato(m, k);
        // Build the per-term postings for this setting: the posted edge
        // ids of every line holding the anchor.
        let mut candidates: Vec<(usize, Vec<u32>)> = Vec::new();
        for (i, blob) in rep.iter().enumerate() {
            let g = codec::decode(blob).expect("blob");
            let edges: Vec<u32> = line_postings(&trie, &g)
                .into_iter()
                .filter(|(t, _)| trie.term(*t) == "public")
                .map(|(_, p)| p.edge)
                .collect();
            if !edges.is_empty() {
                candidates.push((i, edges));
            }
        }
        let selectivity = candidates.len() as f64 / lines as f64;
        let depth = query.max_span().unwrap_or(usize::MAX).saturating_add(1);
        // The probe as the executor runs it: one arena decode and one
        // projection per candidate blob, one scratch per statement.
        let probe = || -> Vec<Answer> {
            let mut scratch = ScanScratch::new();
            let mut answers = Vec::new();
            for (i, edges) in &candidates {
                let best = query
                    .kernel
                    .eval_projection(&mut scratch, &rep[*i], edges, depth)
                    .expect("stored blob");
                if best > 0.0 {
                    answers.push(Answer {
                        data_key: *i as i64,
                        probability: best,
                    });
                }
            }
            answers
        };
        let keys =
            |answers: &[Answer]| -> BTreeSet<i64> { answers.iter().map(|a| a.data_key).collect() };
        assert_eq!(
            keys(&probe()),
            keys(&corpus.eval_staccato(m, k, &query, lines)),
            "f9: probe and scan answer key sets differ at m={m}, k={k}"
        );
        let t_probe = time_median(ctx.reps, || {
            let _ = staccato_query::exec::rank_answers(probe(), NUM_ANS);
        });
        let t_scan = time_median(ctx.reps, || {
            let _ = corpus.eval_staccato(m, k, &query, NUM_ANS);
        });
        println!(
            "| {m} | {k} | {:.1}% | {} | {} | {:.2} |",
            selectivity * 100.0,
            fmt_duration(t_probe),
            fmt_duration(t_scan),
            t_probe.as_secs_f64() / t_scan.as_secs_f64()
        );
    }
}

// ---------------------------------------------------------------- F10 --

/// Figure 10: scalability with dataset size.
fn e_f10(ctx: &Ctx) {
    header(
        "Figure 10 — filescan scalability",
        "Paper shape: every approach scales linearly in dataset size; MAP ≈ 3 orders of \
         magnitude below FullSFA, Staccato 1–2 below depending on parameters.",
    );
    let base = if ctx.full { 850 } else { 250 };
    let query = Query::regex(r"Public Law (8|9)\d").expect("pattern");
    println!("| lines | MAP | STACCATO m=10 k=50 | STACCATO m=40 k=50 | FullSFA |");
    println!("|---|---|---|---|---|");
    for mult in [1usize, 2, 4, 8] {
        let mut corpus = MemCorpus::build(CorpusKind::Books, base * mult, ctx.seed, ctx.channel());
        let _ = corpus.kmap(1);
        let t_map = time_median(ctx.reps, || {
            let _ = corpus.eval_map(&query, NUM_ANS);
        });
        let _ = corpus.staccato(10, 50);
        let t_s10 = time_median(ctx.reps, || {
            let _ = corpus.eval_staccato(10, 50, &query, NUM_ANS);
        });
        let _ = corpus.staccato(40, 50);
        let t_s40 = time_median(ctx.reps, || {
            let _ = corpus.eval_staccato(40, 50, &query, NUM_ANS);
        });
        let t_full = time_median(ctx.reps, || {
            let _ = corpus.eval_full(&query, NUM_ANS);
        });
        println!(
            "| {} | {} | {} | {} | {} |",
            base * mult,
            fmt_duration(t_map),
            fmt_duration(t_s10),
            fmt_duration(t_s40),
            fmt_duration(t_full)
        );
    }
}

// ---------------------------------------------------------------- F11 --

/// Figure 11 + §5.5: automated parameter tuning.
fn e_f11(ctx: &Ctx) {
    header(
        "Figure 11 / §5.5 — automated parameter tuning",
        "Size budget 10% of FullSFA, recall target 0.9, grid step 5. The tuner binary-\
         searches the smallest feasible m; compare with the exhaustive grid's optimum \
         (paper: tuner picked m=45,k=45; exhaustive found m=35,k=80, both recall 0.91).",
    );
    let lines = if ctx.full { 400 } else { 120 };
    let mut corpus = MemCorpus::build(CorpusKind::CongressActs, lines, ctx.seed, ctx.channel());
    let queries: Vec<Query> = [
        "President",
        "Commission",
        "employment",
        r"Public Law (8|9)\d",
        r"U.S.C. 2\d\d\d",
    ]
    .iter()
    .map(|p| Query::regex(p).expect("pattern"))
    .collect();
    let truths: Vec<BTreeSet<i64>> = queries.iter().map(|q| corpus.ground_truth(q)).collect();
    let budget = corpus.full_bytes() as f64 * 0.10;
    let model =
        SizeModel::from_line_lengths(&corpus.clean.iter().map(|l| l.len()).collect::<Vec<_>>());
    let constraints = TuningConstraints {
        size_budget_bytes: budget,
        recall_target: 0.9,
        step: 5,
        max_m: 60,
    };
    let avg_recall = |corpus: &mut MemCorpus, m: usize, k: usize| -> f64 {
        let mut total = 0.0;
        for (q, truth) in queries.iter().zip(&truths) {
            let answers = corpus.eval_staccato(m, k, q, NUM_ANS);
            total += evaluate_answers(&answers, truth).recall;
        }
        total / queries.len() as f64
    };
    let outcome = tune(&model, &constraints, |m, k| avg_recall(&mut corpus, m, k));
    match outcome {
        Some(o) => println!(
            "Tuner: m={}, k={}, measured avg recall {:.2} ({} recall evaluations; predicted \
             size {:.1}% of FullSFA, actual {:.1}%).",
            o.m,
            o.k,
            o.recall,
            o.evaluations,
            model.predicted_size(o.m, o.k) / corpus.full_bytes() as f64 * 100.0,
            corpus.staccato_bytes(o.m, o.k) as f64 / corpus.full_bytes() as f64 * 100.0,
        ),
        None => println!("Tuner: constraints infeasible at this scale."),
    }
    // Surface plots (size% of FullSFA / avg recall) on a coarse grid.
    println!();
    println!("Surface (size% of FullSFA / avg recall):");
    println!();
    let grid = [5usize, 15, 25, 35, 45];
    println!("| m \\ k | {} |", grid.map(|k| k.to_string()).join(" | "));
    println!("|---|{}|", grid.map(|_| "---").join("|"));
    let mut best: Option<(usize, usize, f64)> = None;
    for m in grid {
        let mut cells = Vec::new();
        for k in grid {
            let size_frac = corpus.staccato_bytes(m, k) as f64 / corpus.full_bytes() as f64 * 100.0;
            let recall = avg_recall(&mut corpus, m, k);
            if size_frac <= 10.0 && recall >= 0.9 {
                let better = match best {
                    None => true,
                    Some((bm, _, _)) => m < bm,
                };
                if better {
                    best = Some((m, k, recall));
                }
            }
            cells.push(format!("{size_frac:.1}%/{recall:.2}"));
        }
        println!("| {m} | {} |", cells.join(" | "));
    }
    match best {
        Some((m, k, r)) => {
            println!("\nExhaustive grid optimum within constraints: m={m}, k={k}, recall {r:.2}.")
        }
        None => println!("\nExhaustive grid found no feasible point within constraints."),
    }
}

// ---------------------------------------------------------------- F16 --

/// Appendix Figure 16: sensitivity to NumAns.
fn e_f16(ctx: &Ctx) {
    header(
        "Figure 16 — sensitivity to NumAns",
        "Paper shape: precision stays 1 while NumAns is below the truth size, then decays; \
         recall climbs until it saturates (k-MAP saturates early — no more answers; \
         FullSFA keeps supplying weak answers).",
    );
    let mut corpus = MemCorpus::build(
        CorpusKind::CongressActs,
        ctx.lines(CorpusKind::CongressActs),
        ctx.seed,
        ctx.channel(),
    );
    let _ = corpus.staccato(40, 75);
    let _ = corpus.kmap(75);
    for pattern in ["President", r"U.S.C. 2\d\d\d"] {
        let query = Query::regex(pattern).expect("pattern");
        let truth = corpus.ground_truth(&query);
        println!();
        println!("### `{pattern}` (truth = {})", truth.len());
        println!();
        println!("| NumAns | k-MAP P/R | STACCATO m=40 k=75 P/R | FullSFA P/R |");
        println!("|---|---|---|---|");
        for num_ans in [1usize, 2, 5, 10, 25, 50, 100] {
            let mk = evaluate_answers(&corpus.eval_kmap(75, &query, num_ans), &truth);
            let ms = evaluate_answers(&corpus.eval_staccato(40, 75, &query, num_ans), &truth);
            let mf = evaluate_answers(&corpus.eval_full(&query, num_ans), &truth);
            println!("| {num_ans} | {} | {} | {} |", pr(&mk), pr(&ms), pr(&mf));
        }
    }
}

// ---------------------------------------------------------------- F19 --

/// Appendix Figures 19 & 20: index construction time, size, selectivity.
fn e_f19(ctx: &Ctx) {
    header(
        "Figures 19 & 20 — index construction time, size, and term selectivity",
        "Paper shape: construction is roughly linear in k for small m, blows up around \
         m=40, k≥50 (many single-character chunks → many more postings); the term \
         'public' approaches 100% selectivity at high (m,k), making the index useless.",
    );
    let lines = if ctx.full { 400 } else { 150 };
    let mut corpus = MemCorpus::build(CorpusKind::CongressActs, lines, ctx.seed, ctx.channel());
    let dict = corpus_dictionary(&corpus.dataset, 2000);
    let trie = staccato_automata::Trie::build(&dict);
    let ms: &[usize] = &[1, 10, 40];
    let ks: &[usize] = &[1, 10, 25, 50];
    println!("| m | k | build time | postings | est. index bytes | 'public' selectivity |");
    println!("|---|---|---|---|---|---|");
    for &m in ms {
        for &k in ks {
            let rep = corpus.staccato(m, k);
            let t0 = Instant::now();
            let mut postings = 0u64;
            let mut bytes = 0u64;
            let mut have_public = 0usize;
            for blob in rep.iter() {
                let g = codec::decode(blob).expect("blob");
                let posts = line_postings(&trie, &g);
                postings += posts.len() as u64;
                let mut public_here = false;
                for (t, _) in &posts {
                    bytes += trie.term(*t).len() as u64 + 13 + 8;
                    if trie.term(*t) == "public" {
                        public_here = true;
                    }
                }
                have_public += public_here as usize;
            }
            let t = t0.elapsed();
            println!(
                "| {m} | {k} | {} | {postings} | {bytes} | {:.1}% |",
                fmt_duration(t),
                have_public as f64 / lines as f64 * 100.0
            );
        }
    }
}
