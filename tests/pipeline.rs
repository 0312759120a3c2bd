//! End-to-end integration tests: corpus → OCR channel → RDBMS store →
//! queries → metrics, across crates.

use staccato::approx::StaccatoParams;
use staccato::automata::Trie;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::metrics::{evaluate_answers, ground_truth};
use staccato::query::reference::eval_strings;
use staccato::query::store::LoadOptions;
use staccato::query::Query;
use staccato::storage::heap::chain_length;
use staccato::storage::Database;
use staccato::{Approach, DocumentInput, IngestBatch, PlanPreference, QueryRequest, Staccato};
use std::collections::{BTreeMap, BTreeSet};

fn load(kind: CorpusKind, lines: usize, seed: u64, m: usize, k: usize) -> Staccato {
    let dataset = generate(kind, lines, seed);
    let db = Database::in_memory(2048).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: k,
        staccato: StaccatoParams::new(m, k),
        parallelism: 2,
    };
    Staccato::load(db, &dataset, &opts).expect("load")
}

#[test]
fn recall_ordering_map_kmap_staccato_fullsfa() {
    let session = load(CorpusKind::CongressActs, 80, 17, 12, 8);
    for pattern in ["President", "Commission", r"U.S.C. 2\d\d\d"] {
        let query = Query::regex(pattern).expect("pattern");
        let truth = ground_truth(session.store(), &query).expect("truth");
        if truth.is_empty() {
            continue;
        }
        let recall = |ap: Approach| {
            let out = session
                .execute(&QueryRequest::regex(pattern).approach(ap).num_ans(1000))
                .expect("query");
            evaluate_answers(&out.answers, &truth).recall
        };
        let (r_map, r_kmap, r_full, r_stac) = (
            recall(Approach::Map),
            recall(Approach::KMap),
            recall(Approach::FullSfa),
            recall(Approach::Staccato),
        );
        // The paper's central ordering: MAP ≤ k-MAP ≤ FullSFA = 1 and
        // MAP ≤ STACCATO ≤ FullSFA.
        assert!(
            r_map <= r_kmap + 1e-9,
            "{pattern}: MAP {r_map} > kMAP {r_kmap}"
        );
        assert!(
            r_kmap <= r_full + 1e-9,
            "{pattern}: kMAP {r_kmap} > Full {r_full}"
        );
        assert!(
            r_map <= r_stac + 1e-9,
            "{pattern}: MAP {r_map} > Stac {r_stac}"
        );
        assert!(
            (r_full - 1.0).abs() < 1e-9,
            "{pattern}: FullSFA recall {r_full} != 1"
        );
    }
}

#[test]
fn fullsfa_precision_collapses_under_numans() {
    // With NumAns far above the truth size, FullSFA's noise floor fills
    // the answer list with weak matches: precision ≈ truth / NumAns.
    // Needs the full-alphabet channel — the weak matches ARE the noise
    // floor ("any term may have some small probability of occurring at
    // every location", §2.1).
    let dataset = generate(CorpusKind::CongressActs, 120, 3);
    let db = Database::in_memory(4096).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig {
            seed: 3,
            ..ChannelConfig::default()
        },
        kmap_k: 8,
        staccato: StaccatoParams::new(12, 8),
        parallelism: 2,
    };
    let session = Staccato::load(db, &dataset, &opts).expect("load");
    let query = Query::keyword("President").expect("pattern");
    let truth = ground_truth(session.store(), &query).expect("truth");
    let request = QueryRequest::keyword("President").num_ans(100);
    let out = session
        .execute(&request.clone().approach(Approach::FullSfa))
        .expect("query");
    assert_eq!(
        out.answers.len(),
        100,
        "FullSFA must fill NumAns with weak answers"
    );
    assert_eq!(out.stats.lines_evaluated, 120);
    let m = evaluate_answers(&out.answers, &truth);
    assert!((m.recall - 1.0).abs() < 1e-9);
    assert!(
        m.precision < 0.5,
        "precision {p} should collapse",
        p = m.precision
    );
    // MAP stays high-precision.
    let m_map = evaluate_answers(
        &session
            .execute(&request.approach(Approach::Map))
            .expect("query")
            .answers,
        &truth,
    );
    assert!(m_map.precision > 0.9, "MAP precision {}", m_map.precision);
}

#[test]
fn staccato_probabilities_bounded_by_fullsfa() {
    let session = load(CorpusKind::DbPapers, 40, 9, 6, 4);
    let request = QueryRequest::keyword("database").num_ans(10_000);
    let full: std::collections::HashMap<i64, f64> = session
        .execute(&request.clone().approach(Approach::FullSfa))
        .expect("query")
        .answers
        .into_iter()
        .map(|a| (a.data_key, a.probability))
        .collect();
    for a in session
        .execute(&request.approach(Approach::Staccato))
        .expect("query")
        .answers
    {
        let p_full = full.get(&a.data_key).copied().unwrap_or(0.0);
        assert!(
            a.probability <= p_full + 1e-9,
            "line {}: staccato {} > full {}",
            a.data_key,
            a.probability,
            p_full
        );
    }
}

#[test]
fn index_and_filescan_agree_across_queries() {
    let session = load(CorpusKind::CongressActs, 90, 21, 10, 8);
    let dataset = generate(CorpusKind::CongressActs, 90, 21);
    let dict: BTreeSet<String> = dataset
        .lines()
        .flat_map(|(_, _, l)| {
            l.split(|c: char| !c.is_ascii_alphabetic())
                .filter(|w| w.len() >= 2)
                .map(|w| w.to_ascii_lowercase())
                .collect::<Vec<_>>()
        })
        .collect();
    let trie = Trie::build(&dict);
    session.register_index(&trie, "inv").expect("index");
    for pattern in ["President", "Commission", r"Public Law (8|9)\d"] {
        let request = QueryRequest::regex(pattern).num_ans(10_000);
        let scan_out = session
            .execute(
                &request
                    .clone()
                    .plan_preference(PlanPreference::ForceFileScan),
            )
            .expect("scan");
        assert!(!scan_out.plan.is_index_probe());
        let probe_out = session.execute(&request).expect("probe");
        assert!(
            probe_out.plan.is_index_probe(),
            "{pattern} should auto-probe"
        );
        let scan: BTreeSet<i64> = scan_out.answers.into_iter().map(|a| a.data_key).collect();
        let probe: BTreeSet<i64> = probe_out.answers.into_iter().map(|a| a.data_key).collect();
        assert_eq!(scan, probe, "answer sets differ for {pattern}");
    }
}

#[test]
fn store_persists_to_disk_and_reopens() {
    let dir = std::env::temp_dir().join(format!("staccato-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("it.db");
    let dataset = generate(CorpusKind::DbPapers, 20, 5);
    let expected_truth;
    {
        let db = Database::create(&path, 512).expect("create");
        let opts = LoadOptions {
            channel: ChannelConfig::compact(5),
            kmap_k: 4,
            staccato: StaccatoParams::new(5, 4),
            parallelism: 1,
        };
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        let query = Query::keyword("lineage").expect("pattern");
        expected_truth = ground_truth(session.store(), &query).expect("truth");
        session.store().db().save().expect("save");
    }
    {
        // Reopen from the file; tables and blobs must be intact.
        let db = Database::open(&path, 512).expect("open");
        assert!(db.table_names().contains(&"GroundTruth".to_string()));
        let (schema, heap) = db.table("GroundTruth").expect("table");
        let query = Query::keyword("lineage").expect("pattern");
        let mut truth = BTreeSet::new();
        for item in heap.scan(db.pool()) {
            let (_, bytes) = item.expect("scan");
            let row = staccato::storage::row::decode_row(&schema, &bytes).expect("row");
            let text = row[1].as_text().expect("text");
            if query
                .dfa
                .is_accept(query.dfa.run_from(query.dfa.start(), text))
            {
                truth.insert(row[0].as_int().expect("key"));
            }
        }
        assert_eq!(truth, expected_truth);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn like_and_regex_queries_agree_on_keywords() {
    let session = load(CorpusKind::EnglishLit, 50, 2, 8, 6);
    for ap in [Approach::Map, Approach::KMap, Approach::Staccato] {
        let a = session
            .execute(&QueryRequest::like("%Brinkmann%").approach(ap).num_ans(1000))
            .expect("like query")
            .answers;
        let b = session
            .execute(
                &QueryRequest::keyword("Brinkmann")
                    .approach(ap)
                    .num_ans(1000),
            )
            .expect("regex query")
            .answers;
        assert_eq!(a.len(), b.len(), "{}", ap.name());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data_key, y.data_key);
            assert!((x.probability - y.probability).abs() < 1e-12);
        }
    }
}

#[test]
fn tuning_produces_feasible_parameters_end_to_end() {
    use staccato::approx::{tune, SizeModel, TuningConstraints};
    use staccato::sfa::codec;
    use staccato_bench::MemCorpus;

    let mut corpus = MemCorpus::build(CorpusKind::CongressActs, 60, 11, ChannelConfig::compact(11));
    let queries: Vec<Query> = ["President", "Commission"]
        .iter()
        .map(|p| Query::keyword(p).expect("kw"))
        .collect();
    let truths: Vec<BTreeSet<i64>> = queries.iter().map(|q| corpus.ground_truth(q)).collect();
    let model =
        SizeModel::from_line_lengths(&corpus.clean.iter().map(|l| l.len()).collect::<Vec<_>>());
    let budget = corpus.full_bytes() as f64 * 0.5; // generous for the tiny corpus
    let constraints = TuningConstraints {
        size_budget_bytes: budget,
        recall_target: 0.5,
        step: 5,
        max_m: 30,
    };
    let outcome = tune(&model, &constraints, |m, k| {
        let mut total = 0.0;
        for (q, t) in queries.iter().zip(&truths) {
            let answers = corpus.eval_staccato(m, k, q, 100);
            total += evaluate_answers(&answers, t).recall;
        }
        total / queries.len() as f64
    });
    let o = outcome.expect("feasible at generous constraints");
    assert!(o.recall >= 0.5);
    assert!(model.predicted_size(o.m, o.k) <= budget);
    // And the tuned representation actually exists / decodes.
    let rep = corpus.staccato(o.m, o.k);
    codec::decode(&rep[0]).expect("tuned representation decodes");
}

/// A line's k-MAP rows stay clustered in `kMAPData` however the store
/// grew: the cursor yields every `DataKey` once, and a k-MAP filescan
/// answers each line once with the sum over that line's matching
/// strings. (Appends that fill gaps in earlier pages split a line's rows
/// into several groups.)
#[test]
fn kmap_rows_stay_clustered_across_ingest() {
    let seed = 11;
    let dataset = generate(CorpusKind::CongressActs, 40, seed);
    let opts = LoadOptions {
        channel: ChannelConfig {
            seed,
            ..ChannelConfig::default()
        },
        kmap_k: 25,
        staccato: StaccatoParams::new(4, 2),
        parallelism: 2,
    };
    let session =
        Staccato::load(Database::in_memory(4096).expect("db"), &dataset, &opts).expect("load");
    let texts: Vec<&str> = dataset.lines().map(|(_, _, text)| text).collect();
    for (b, pair) in texts.chunks(2).cycle().take(30).enumerate() {
        let batch = pair
            .iter()
            .enumerate()
            .fold(IngestBatch::new(), |batch, (i, text)| {
                batch.doc(DocumentInput::new(format!("b{b}-{i}.png"), *text))
            });
        session.ingest(batch).expect("ingest");
    }

    let groups: Vec<(i64, Vec<(String, f64)>)> = session
        .store()
        .kmap_cursor()
        .expect("cursor")
        .collect::<Result<_, _>>()
        .expect("groups");
    let keys: BTreeSet<i64> = groups.iter().map(|(key, _)| *key).collect();
    assert_eq!(
        keys.len(),
        session.line_count(),
        "every line has k-MAP rows"
    );
    assert_eq!(
        groups.len(),
        keys.len(),
        "a line's k-MAP rows form one group"
    );

    let query = Query::like("%the%").expect("pattern");
    let expected: BTreeMap<i64, f64> = groups
        .iter()
        .map(|(key, strings)| {
            let strings = strings.iter().map(|(s, p)| (s.as_str(), *p));
            (*key, eval_strings(&query.dfa, strings))
        })
        .filter(|(_, p)| *p > 0.0)
        .collect();
    let out = session
        .execute(
            &QueryRequest::like("%the%")
                .approach(Approach::KMap)
                .plan_preference(PlanPreference::ForceFileScan)
                .num_ans(100_000),
        )
        .expect("filescan");
    let answered: BTreeSet<i64> = out.answers.iter().map(|a| a.data_key).collect();
    assert_eq!(
        answered.len(),
        out.answers.len(),
        "answer keys are distinct"
    );
    assert_eq!(answered.len(), expected.len());
    for answer in &out.answers {
        assert_eq!(
            answer.probability.to_bits(),
            expected[&answer.data_key].to_bits(),
            "line {}",
            answer.data_key
        );
    }
}

/// An ingest dirties the pages it appends to, not its tables' chains: the
/// checkpoint after one batch writes back as many pages for a store
/// whose `kMAPData` chain is hundreds of pages long as for one whose
/// chain is a few pages. `kmap_k` is 500 so that 60 lines make a chain
/// of hundreds of pages.
#[test]
fn checkpoint_after_one_batch_writes_back_o1_pages() {
    let writebacks = |lines: usize| {
        let opts = LoadOptions {
            channel: ChannelConfig {
                seed: 7,
                ..ChannelConfig::default()
            },
            kmap_k: 500,
            staccato: StaccatoParams::new(40, 25),
            parallelism: 2,
        };
        let dataset = generate(CorpusKind::CongressActs, lines, 7);
        let session = Staccato::load(Database::in_memory(16_384).expect("db"), &dataset, &opts)
            .expect("load");
        let (_, heap) = session.store().table("kMAPData").expect("table");
        let pages = chain_length(session.store().db().pool(), heap.first_page()).expect("chain");
        session.checkpoint().expect("checkpoint");
        session
            .ingest(
                IngestBatch::new()
                    .doc(DocumentInput::new("a.png", "the President of the Senate"))
                    .doc(DocumentInput::new(
                        "b.png",
                        "Public Law 95 is hereby amended",
                    )),
            )
            .expect("ingest");
        let before = session.pool_stats().writebacks;
        session.checkpoint().expect("checkpoint");
        (pages, session.pool_stats().writebacks - before)
    };
    let (short_chain, short) = writebacks(2);
    let (long_chain, long) = writebacks(60);
    assert!(
        short_chain < 20 && long_chain >= 300,
        "{short_chain} vs {long_chain} pages"
    );
    assert!(
        long.abs_diff(short) <= 8,
        "checkpoint write-backs grow with the chain: {short} pages after a {short_chain}-page \
         chain, {long} after a {long_chain}-page one"
    );
}
