//! Planner correctness: the access path must never change the answer.
//!
//! The §4 contract is that index-assisted execution is transparent — for
//! an anchored pattern the probe returns the same answer *set* as the
//! filescan it replaces — and the planner must only pick the probe when
//! it is actually legal (Staccato representation, left anchor, registered
//! index covering the anchor term).

use staccato::approx::StaccatoParams;
use staccato::automata::Trie;
use staccato::ocr::{generate, ChannelConfig, CorpusKind, Dataset, Document};
use staccato::query::store::LoadOptions;
use staccato::storage::Database;
use staccato::{AggregateFunc, Approach, Plan, PlanPreference, QueryRequest, Staccato};
use std::collections::BTreeSet;

fn session(lines: usize, seed: u64) -> Staccato {
    let dataset = generate(CorpusKind::CongressActs, lines, seed);
    let db = Database::in_memory(2048).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: 8,
        staccato: StaccatoParams::new(10, 8),
        parallelism: 2,
    };
    Staccato::load(db, &dataset, &opts).expect("load")
}

fn keys(answers: &[staccato::Answer]) -> BTreeSet<i64> {
    answers.iter().map(|a| a.data_key).collect()
}

#[test]
fn probe_and_filescan_answer_sets_agree_across_approaches() {
    let s = session(80, 33);
    s.register_index(&Trie::build(["public", "president", "commission"]), "inv")
        .expect("index");
    for pattern in ["President", "Commission", r"Public Law (8|9)\d"] {
        for approach in Approach::all() {
            let request = QueryRequest::regex(pattern)
                .approach(approach)
                .num_ans(10_000);
            let auto = s.execute(&request).expect("auto plan");
            let scan = s
                .execute(
                    &request
                        .clone()
                        .plan_preference(PlanPreference::ForceFileScan),
                )
                .expect("forced filescan");
            // Only the Staccato representation may route through the index…
            assert_eq!(
                auto.plan.is_index_probe(),
                approach == Approach::Staccato,
                "{pattern} over {}",
                approach.name()
            );
            assert!(!scan.plan.is_index_probe());
            // …and when it does, the answer set must not change.
            assert_eq!(
                keys(&auto.answers),
                keys(&scan.answers),
                "{pattern} over {} answers diverged",
                approach.name()
            );
        }
    }
}

#[test]
fn parallelism_is_honored_or_a_documented_noop_on_every_plan_shape() {
    // `.parallelism(n)` is a no-op on every plan shape: every plan runs on
    // the calling thread, so asking for workers changes neither the plan
    // nor a single bit of the answers.
    let s = session(30, 51);
    let unchanged = |request: QueryRequest, shape: &str| {
        let plain = s.execute(&request).expect("plain");
        let asked = s.execute(&request.clone().parallelism(4)).expect("asked");
        assert_eq!(asked.plan, plain.plan, "{shape}");
        let bits = |out: &staccato::QueryOutput| -> Vec<(i64, u64)> {
            out.answers
                .iter()
                .map(|a| (a.data_key, a.probability.to_bits()))
                .collect()
        };
        assert_eq!(bits(&asked), bits(&plain), "{shape}");
        assert_eq!(
            asked.aggregate.map(|a| a.value.to_bits()),
            plain.aggregate.map(|a| a.value.to_bits()),
            "{shape}"
        );
        plain.plan
    };
    for approach in Approach::all() {
        let request = QueryRequest::keyword("President")
            .approach(approach)
            .num_ans(1000);
        assert_eq!(
            unchanged(request, approach.name()),
            Plan::FileScan { approach }
        );
    }
    let aggregate = unchanged(
        QueryRequest::keyword("President")
            .approach(Approach::Map)
            .aggregate(AggregateFunc::SumProb),
        "aggregate",
    );
    assert_eq!(
        aggregate.access_path(),
        &Plan::FileScan {
            approach: Approach::Map
        }
    );
    s.register_index(&Trie::build(["president"]), "inv")
        .expect("index");
    assert_eq!(
        unchanged(QueryRequest::keyword("President").num_ans(1000), "probe"),
        Plan::IndexProbe {
            index: "inv".into(),
            anchor: "president".into()
        }
    );
}

#[test]
fn explain_reports_probe_only_when_index_and_anchor_exist() {
    let s = session(30, 12);
    let anchored = QueryRequest::keyword("President");
    let unanchored = QueryRequest::regex(r"\d\d\d");

    // No index registered: everything filescans.
    assert!(s.explain(&anchored).expect("explain").contains("FileScan"));
    assert!(!s
        .explain(&anchored)
        .expect("explain")
        .contains("IndexProbe"));

    s.register_index(&Trie::build(["president"]), "inv")
        .expect("index");

    // Anchored + covered term: probe, and the report names index + anchor.
    let text = s.explain(&anchored).expect("explain");
    assert!(text.contains("IndexProbe"), "{text}");
    assert!(text.contains("\"inv\""), "{text}");
    assert!(text.contains("president"), "{text}");

    // No anchor: still a filescan.
    let text = s.explain(&unanchored).expect("explain");
    assert!(
        text.contains("FileScan") && !text.contains("IndexProbe"),
        "{text}"
    );
    // Anchor outside the dictionary: filescan.
    let text = s
        .explain(&QueryRequest::keyword("Commission"))
        .expect("explain");
    assert!(
        text.contains("FileScan") && !text.contains("IndexProbe"),
        "{text}"
    );
    // Non-Staccato representation: filescan.
    let text = s
        .explain(&anchored.clone().approach(Approach::FullSfa))
        .expect("explain");
    assert!(
        text.contains("FileScan") && !text.contains("IndexProbe"),
        "{text}"
    );
}

#[test]
fn plan_matches_execution_and_stats_fill_in() {
    let s = session(35, 27);
    s.register_index(&Trie::build(["president"]), "inv")
        .expect("index");
    let request = QueryRequest::keyword("President").num_ans(50);
    let planned = s.plan(&request).expect("plan");
    let out = s.execute(&request).expect("execute");
    assert_eq!(planned, out.plan);
    assert_eq!(
        planned,
        Plan::IndexProbe {
            index: "inv".into(),
            anchor: "president".into()
        }
    );
    assert!(out.stats.postings_probed > 0);
    assert!(out.stats.rows_scanned as usize <= s.line_count());
    assert!(out.stats.plan_wall.as_nanos() > 0, "planning is timed");
    assert!(out.stats.exec_wall.as_nanos() > 0, "execution is timed");
    assert_eq!(out.stats.wall(), out.stats.plan_wall + out.stats.exec_wall);

    // The forced scan reads every line instead.
    let scan = s
        .execute(&request.plan_preference(PlanPreference::ForceFileScan))
        .expect("scan");
    assert_eq!(scan.stats.rows_scanned as usize, s.line_count());
    assert_eq!(scan.stats.postings_probed, 0);
}

#[test]
fn threshold_zero_and_one_are_exact_edges() {
    let s = session(40, 41);
    let base = QueryRequest::keyword("President")
        .approach(Approach::FullSfa)
        .num_ans(10_000);
    let plain = s.execute(&base).expect("no threshold");
    // Threshold 0.0 is the no-op filter: identical relation.
    let zero = s.execute(&base.clone().min_prob(0.0)).expect("t = 0.0");
    assert_eq!(plain.answers.len(), zero.answers.len());
    for (a, b) in plain.answers.iter().zip(&zero.answers) {
        assert_eq!(a.data_key, b.data_key);
        assert_eq!(a.probability, b.probability);
    }
    // Threshold 1.0 keeps only certain matches (usually none under OCR
    // noise), never a probability below 1.
    let one = s.execute(&base.clone().min_prob(1.0)).expect("t = 1.0");
    assert!(one.answers.iter().all(|a| a.probability >= 1.0));
    assert!(one.answers.len() <= plain.answers.len());
}

#[test]
fn aggregates_over_an_empty_store() {
    // A legitimate load of zero lines: the answer relation is empty and
    // every aggregate is well-defined.
    let dataset = Dataset {
        name: "empty".into(),
        kind: CorpusKind::Books,
        docs: vec![Document {
            name: "blank".into(),
            lines: vec![],
        }],
    };
    let db = Database::in_memory(256).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(1),
        kmap_k: 4,
        staccato: StaccatoParams::new(4, 4),
        parallelism: 1,
    };
    let s = Staccato::load(db, &dataset, &opts).expect("load empty store");
    assert_eq!(s.line_count(), 0);
    for func in [
        AggregateFunc::CountStar,
        AggregateFunc::SumProb,
        AggregateFunc::AvgProb,
    ] {
        let out = s
            .execute(&QueryRequest::like("%Ford%").aggregate(func))
            .expect("aggregate over empty store");
        let agg = out.aggregate.expect("aggregate result");
        assert_eq!(agg.value, 0.0, "{} over empty store", func.sql_name());
        assert!(out.answers.is_empty());
        assert_eq!(out.stats.rows_scanned, 0);
    }
    let sql = s
        .sql("SELECT AVG(Prob) FROM StaccatoData WHERE Data LIKE '%Ford%'")
        .expect("sql aggregate");
    assert_eq!(sql.aggregate.unwrap().value, 0.0);
}

#[test]
fn forced_index_probe_composes_with_thresholds_and_aggregates() {
    let s = session(60, 47);
    s.register_index(&Trie::build(["president"]), "inv")
        .expect("index");
    let forced = QueryRequest::keyword("President")
        .num_ans(10_000)
        .plan_preference(PlanPreference::ForceIndexProbe);
    let all = s.execute(&forced).expect("forced probe");
    assert!(all.plan.is_index_probe());
    assert!(!all.answers.is_empty(), "corpus mentions the President");
    let cutoff = all.answers[all.answers.len() / 2].probability;
    let thresholded = s
        .execute(&forced.clone().min_prob(cutoff))
        .expect("forced probe + threshold");
    assert!(thresholded.plan.is_index_probe());
    let expected: Vec<i64> = all
        .answers
        .iter()
        .filter(|a| a.probability >= cutoff)
        .map(|a| a.data_key)
        .collect();
    assert_eq!(
        thresholded
            .answers
            .iter()
            .map(|a| a.data_key)
            .collect::<Vec<_>>(),
        expected,
        "threshold must filter, not re-rank"
    );
    // An aggregate over the forced probe streams the same relation.
    let count = s
        .execute(
            &forced
                .clone()
                .min_prob(cutoff)
                .aggregate(AggregateFunc::CountStar),
        )
        .expect("forced probe + aggregate");
    assert_eq!(count.plan.kind(), "Aggregate");
    assert!(count.plan.is_index_probe(), "input path is still the probe");
    assert_eq!(
        count.aggregate.unwrap().value,
        thresholded.answers.len() as f64
    );
}
