//! Criterion bench for Figure 9: index-assisted execution vs filescan on
//! an anchored regular expression, through the real storage engine and
//! the session API.

use criterion::{criterion_group, criterion_main, Criterion};
use staccato_automata::Trie;
use staccato_bench::workload::corpus_dictionary;
use staccato_core::StaccatoParams;
use staccato_ocr::{generate, ChannelConfig, CorpusKind};
use staccato_query::invindex::line_postings;
use staccato_query::store::LoadOptions;
use staccato_query::{PlanPreference, QueryRequest, Staccato};
use staccato_sfa::codec;
use staccato_storage::Database;
use std::hint::black_box;
use std::time::Duration;

fn bench_index(c: &mut Criterion) {
    let dataset = generate(CorpusKind::CongressActs, 150, 42);
    let db = Database::in_memory(8192).unwrap();
    let opts = LoadOptions {
        channel: ChannelConfig {
            seed: 42,
            ..ChannelConfig::default()
        },
        kmap_k: 25,
        staccato: StaccatoParams::new(40, 25),
        ..Default::default()
    };
    let session = Staccato::load(db, &dataset, &opts).unwrap();
    let dict = corpus_dictionary(&dataset, 1000);
    let trie = Trie::build(&dict);
    session.register_index(&trie, "inv").unwrap();
    let request = QueryRequest::regex(r"Public Law (8|9)\d").num_ans(100);
    let filescan = request
        .clone()
        .plan_preference(PlanPreference::ForceFileScan);
    assert!(session.plan(&request).unwrap().is_index_probe());

    let mut group = c.benchmark_group("fig9_index");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("filescan", |b| {
        b.iter(|| black_box(session.execute(&filescan).unwrap()))
    });
    group.bench_function("index_probe", |b| {
        b.iter(|| black_box(session.execute(&request).unwrap()))
    });
    // Per-line posting extraction (Algorithms 3–4), the construction unit.
    let (_, graph) = session
        .store()
        .staccato_cursor()
        .unwrap()
        .next()
        .expect("non-empty store")
        .unwrap();
    let blob = codec::encode(&graph);
    group.bench_function("line_postings_one_graph", |b| {
        b.iter(|| {
            let g = codec::decode(&blob).unwrap();
            black_box(line_postings(&trie, &g))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_index);
criterion_main!(benches);
