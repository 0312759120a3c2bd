//! Shared-session concurrency: one `Arc<Staccato>`, many client threads,
//! byte-identical results.
//!
//! The sharing contract (session module docs) is that a session behind an
//! `Arc` serves concurrent traffic with no external locking and no change
//! in semantics: every thread sees exactly the answers, probabilities,
//! and `explain()` text a serial run produces. One extra thread races
//! `register_index` mid-flight to exercise per-statement planning against
//! a changing registry — its dictionaries cover no query anchor, so plans
//! stay stable while the registry churns underneath.

use staccato::approx::StaccatoParams;
use staccato::automata::Trie;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::store::LoadOptions;
use staccato::query::RecoverOptions;
use staccato::storage::Database;
use staccato::{
    AggregateFunc, Answer, Approach, DocumentInput, IngestBatch, IngestReceipt, QueryRequest,
    Staccato, SyncPolicy,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn session(lines: usize, seed: u64) -> Staccato {
    let dataset = generate(CorpusKind::CongressActs, lines, seed);
    let db = Database::in_memory(2048).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: 6,
        staccato: StaccatoParams::new(10, 6),
        parallelism: 2,
    };
    Staccato::load(db, &dataset, &opts).expect("load")
}

/// The mixed query set: every representation, both dialects, a threshold,
/// and an aggregate.
fn workload() -> Vec<QueryRequest> {
    vec![
        QueryRequest::keyword("President"),
        QueryRequest::keyword("Commission").approach(Approach::Map),
        QueryRequest::like("%United States%")
            .approach(Approach::KMap)
            .num_ans(50),
        QueryRequest::regex(r"Public Law (8|9)\d"),
        QueryRequest::keyword("the")
            .approach(Approach::FullSfa)
            .num_ans(20),
        QueryRequest::keyword("Act")
            .approach(Approach::Map)
            .aggregate(AggregateFunc::CountStar),
        QueryRequest::keyword("employment").min_prob(0.2),
    ]
}

/// Everything a client observes for one request: the ranked relation,
/// the aggregate scalar, and the plan report.
type Observation = (Vec<Answer>, Option<f64>, String);

fn observe(session: &Staccato, request: &QueryRequest) -> Observation {
    let out = session.execute(request).expect("execute");
    let explain = session.explain(request).expect("explain");
    (out.answers, out.aggregate.map(|a| a.value), explain)
}

#[test]
fn eight_threads_see_byte_identical_results_while_an_index_registers() {
    let session = Arc::new(session(32, 77));
    let workload = workload();

    // The serial ground truth, taken before any concurrency.
    let baseline: Vec<Observation> = workload.iter().map(|q| observe(&session, q)).collect();

    std::thread::scope(|scope| {
        // One writer racing the readers: registers three indexes whose
        // dictionaries cover no query anchor (plans cannot change), each
        // registration scanning the store and publishing a new registry.
        {
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for i in 0..3 {
                    let postings = session
                        .register_index(
                            &Trie::build(["zzzabsent", "qqqmissing"]),
                            &format!("race{i}"),
                        )
                        .expect("racing registration");
                    assert_eq!(postings, 0, "dictionary terms are absent from the corpus");
                }
            });
        }
        for t in 0..8 {
            let session = Arc::clone(&session);
            let workload = &workload;
            let baseline = &baseline;
            scope.spawn(move || {
                for round in 0..2 {
                    for step in 0..workload.len() {
                        // Stagger the order per thread so the cache sees
                        // interleaved keys, not eight lockstep streams.
                        let i = (step + t) % workload.len();
                        let (answers, aggregate, explain) = observe(&session, &workload[i]);
                        let (base_answers, base_aggregate, base_explain) = &baseline[i];
                        assert_eq!(
                            &answers, base_answers,
                            "thread {t} round {round} query {i}: answers diverged"
                        );
                        assert_eq!(
                            &aggregate, base_aggregate,
                            "thread {t} round {round} query {i}: aggregate diverged"
                        );
                        assert_eq!(
                            &explain, base_explain,
                            "thread {t} round {round} query {i}: explain diverged"
                        );
                    }
                }
            });
        }
    });

    // The cache served repeated traffic across the registrations.
    let cache = session.query_cache_stats();
    assert!(cache.hits > 0, "{cache:?}");
    assert_eq!(
        session.index_names(),
        vec!["race0", "race1", "race2"],
        "registrations serialized in order"
    );

    // End to end: a registration covering a live anchor flips the cached
    // plan on the very next lookup.
    let anchored = QueryRequest::keyword("President");
    assert!(!session.plan(&anchored).expect("plan").is_index_probe());
    session
        .register_index(&Trie::build(["president"]), "inv")
        .expect("covering index");
    assert!(
        session.plan(&anchored).expect("replan").is_index_probe(),
        "cache invalidation must let the new index take over"
    );
}

/// The read hot path under maximum churn: sixteen readers on read-latched
/// page hits, cache lookups, and registry snapshots, while one racer
/// registers indexes (each registration swaps the registry snapshot) and
/// one writer ingests batches (each apply extends the registered
/// indexes). Results must stay bit-identical to the serial baseline —
/// answers, probabilities, order, and aggregates.
///
/// Determinism is engineered, not hoped for: a *covering* index is
/// registered before the baseline (so the probe-vs-scan choice is fixed
/// either way — and probe answer sets provably equal scan answer sets,
/// see `invindex::indexed_query_matches_filescan_answer_set`), and the
/// ingested documents use vocabulary character-disjoint from every
/// query pattern, so their lattices assign the patterns *exactly zero*
/// match mass — they can never enter a ranked relation or an aggregate.
/// Explain text is *not* asserted — replanning mid-race is legal;
/// producing different answers is not.
#[test]
fn sixteen_threads_stay_bit_identical_under_registry_and_ingest_churn() {
    const RACER_INDEXES: usize = 4;
    const WRITER_BATCHES: usize = 6;

    let session = Arc::new(session(48, 42));
    session
        .register_index(&Trie::build(["president", "public", "commission"]), "cov")
        .expect("covering index");
    let workload = vec![
        QueryRequest::keyword("President"),
        QueryRequest::regex(r"Public Law (8|9)\d"),
        QueryRequest::keyword("Commission").approach(Approach::Map),
        QueryRequest::like("%United States%").approach(Approach::KMap),
        QueryRequest::keyword("employment").min_prob(0.0001),
        QueryRequest::keyword("Commission")
            .approach(Approach::Map)
            .aggregate(AggregateFunc::CountStar),
    ];

    // Serial ground truth: ranked relation + aggregate scalar per query.
    let baseline: Vec<(Vec<Answer>, Option<f64>)> = workload
        .iter()
        .map(|q| {
            let out = session.execute(q).expect("baseline");
            (out.answers, out.aggregate.map(|a| a.value))
        })
        .collect();
    assert!(
        baseline.iter().any(|(a, _)| !a.is_empty()),
        "baseline must actually match something"
    );

    std::thread::scope(|scope| {
        // Registry racer: every registration builds off to the side,
        // and publishes a new snapshot.
        {
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for i in 0..RACER_INDEXES {
                    session
                        .register_index(
                            &Trie::build(["zzqabsent", "qqmissing"]),
                            &format!("stress{i}"),
                        )
                        .expect("racing registration");
                }
            });
        }
        // Writer: disjoint-vocabulary documents — every apply extends
        // all registered indexes.
        {
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for b in 0..WRITER_BATCHES {
                    let batch = IngestBatch::new()
                        .doc(DocumentInput::new(
                            format!("junk-{b}-a.png"),
                            format!("zzqx gribble flomp wubble batch {b}"),
                        ))
                        .doc(DocumentInput::new(
                            format!("junk-{b}-b.png"),
                            format!("vorpal snark boojum frabjous batch {b}"),
                        ));
                    session.ingest(batch).expect("racing ingest");
                }
            });
        }
        for t in 0..16 {
            let session = Arc::clone(&session);
            let workload = &workload;
            let baseline = &baseline;
            scope.spawn(move || {
                for round in 0..2 {
                    for step in 0..workload.len() {
                        let i = (step + t) % workload.len();
                        let out = session.execute(&workload[i]).expect("stress query");
                        let (base_answers, base_aggregate) = &baseline[i];
                        assert_eq!(
                            &out.answers, base_answers,
                            "thread {t} round {round} query {i}: answers diverged"
                        );
                        assert_eq!(
                            &out.aggregate.map(|a| a.value),
                            base_aggregate,
                            "thread {t} round {round} query {i}: aggregate diverged"
                        );
                    }
                }
            });
        }
    });

    // The churn actually happened, and the cache served through it.
    let cache = session.query_cache_stats();
    assert!(cache.hits > 0, "{cache:?}");
    assert_eq!(session.line_count(), 48 + 2 * WRITER_BATCHES);
    assert_eq!(session.index_names().len(), 1 + RACER_INDEXES);
}

/// Per-query attribution survives per-shard counters exactly:
/// summing every statement's `ExecStats.pool` delta reproduces the
/// session-global pool counters, and the cache sees precisely one
/// lookup per relational statement. Serial on purpose — with concurrent
/// clients the per-query deltas legitimately interleave; what this
/// pins is that nothing on the hot path goes uncounted (or gets counted
/// twice) across the shards.
#[test]
fn per_query_pool_deltas_sum_to_the_global_counters() {
    let session = session(24, 17);
    session
        .register_index(&Trie::build(["president", "public"]), "inv")
        .expect("index");
    let statements = [
        "SELECT DataKey, Prob FROM MAPData WHERE Data REGEXP 'President' LIMIT 100",
        "SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%Commission%' LIMIT 100",
        "SELECT DataKey FROM StaccatoData WHERE Data REGEXP 'Public Law (8|9)\\d' LIMIT 100",
        "SELECT DataKey, Prob FROM kMAPData WHERE Data REGEXP 'United States' LIMIT 50",
        "SELECT COUNT(*) FROM MAPData WHERE Data LIKE '%Act%'",
        "SELECT DataKey FROM MAPData WHERE Data REGEXP 'employment' AND Prob >= 0.1 LIMIT 100",
    ];
    let pool_before = session.pool_stats();
    let cache_before = session.query_cache_stats();
    let (mut hits, mut misses, mut writebacks, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    // Two rounds: the first misses the query cache, the second hits it —
    // attribution must be exact on both paths.
    for round in 0..2 {
        for sql in &statements {
            let out = session.sql(sql).expect("statement");
            hits += out.stats.pool.hits;
            misses += out.stats.pool.misses;
            writebacks += out.stats.pool.writebacks;
            evictions += out.stats.pool.evictions;
            assert!(
                round == 0 || out.stats.pool.hits + out.stats.pool.misses > 0,
                "warm statements still touch pages"
            );
        }
    }
    let pool = session.pool_stats().delta_since(pool_before);
    assert_eq!(pool.hits, hits, "pool hits attributed exactly");
    assert_eq!(pool.misses, misses, "pool misses attributed exactly");
    assert_eq!(pool.writebacks, writebacks, "writebacks attributed exactly");
    assert_eq!(pool.evictions, evictions, "evictions attributed exactly");
    let cache = session.query_cache_stats();
    assert_eq!(
        (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses),
        2 * statements.len() as u64,
        "exactly one cache lookup per statement"
    );
    assert_eq!(
        cache.hits - cache_before.hits,
        statements.len() as u64,
        "the second round is all cache hits"
    );
}

/// The write-path sharing contract: batches are atomic units of
/// visibility. Four writers ingest through one `Arc<Staccato>` while two
/// readers hammer the SQL surface — a reader may land between batches
/// but never inside one: every `batch_seq` it observes in
/// `StaccatoHistory` is complete, and `line_count()` covers every
/// history row already visible.
#[test]
fn four_writers_two_readers_never_observe_a_partial_batch() {
    const BATCHES_PER_WRITER: u64 = 6;
    const DOCS_PER_BATCH: usize = 3;

    let session = Arc::new(session(12, 31));
    let loaded = session.line_count();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let session = Arc::clone(&session);
            scope.spawn(move || {
                for b in 0..BATCHES_PER_WRITER {
                    let mut batch = IngestBatch::new();
                    for d in 0..DOCS_PER_BATCH {
                        batch = batch.doc(
                            DocumentInput::new(
                                format!("w{w}-b{b}-d{d}.png"),
                                format!("writer {w} committed batch {b} document {d}"),
                            )
                            .provider(format!("writer-{w}")),
                        );
                    }
                    let receipt = session.ingest(batch).expect("ingest");
                    assert_eq!(receipt.docs, DOCS_PER_BATCH);
                }
            });
        }
        for r in 0..2 {
            let session = Arc::clone(&session);
            let done = &done;
            scope.spawn(move || {
                let mut observations = 0u64;
                while !done.load(Ordering::Acquire) || observations == 0 {
                    let lines = session.line_count();
                    let history = session
                        .sql("SELECT * FROM StaccatoHistory")
                        .expect("history scan")
                        .history
                        .expect("history rows");
                    // Snapshot order: `lines` was read BEFORE the history
                    // scan, so every key it promises must be present —
                    // but history may have grown past it since.
                    assert!(
                        history.len() + loaded >= lines,
                        "reader {r}: line_count {lines} promises rows the \
                         history scan (len {}) does not show",
                        history.len()
                    );
                    // Atomic visibility: a batch_seq is all-or-nothing.
                    let mut per_seq = std::collections::HashMap::new();
                    for row in &history {
                        *per_seq.entry(row.batch_seq).or_insert(0usize) += 1;
                        assert!(row.data_key >= loaded as i64);
                    }
                    for (seq, count) in per_seq {
                        assert_eq!(
                            count, DOCS_PER_BATCH,
                            "reader {r}: batch {seq} is partially visible"
                        );
                    }
                    observations += 1;
                }
            });
        }
        // Writers are the first four spawned threads; flag the readers
        // down once every writer's scope handle would have joined. A
        // sentinel thread keeps the readers honest without joining the
        // scope early.
        let session_done = Arc::clone(&session);
        let done = &done;
        scope.spawn(move || {
            let target = 4 * BATCHES_PER_WRITER as usize * DOCS_PER_BATCH + loaded;
            while session_done.line_count() < target {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    // All 24 batches landed, with dense distinct sequence numbers.
    let stats = session.ingest_stats();
    assert_eq!(stats.batches, 4 * BATCHES_PER_WRITER);
    assert_eq!(stats.docs, 4 * BATCHES_PER_WRITER * DOCS_PER_BATCH as u64);
    let history = session
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows");
    let mut seqs: Vec<u64> = history.iter().map(|r| r.batch_seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len() as u64, 4 * BATCHES_PER_WRITER);
    assert_eq!(*seqs.first().unwrap(), 1);
    assert_eq!(*seqs.last().unwrap(), 4 * BATCHES_PER_WRITER);
    // Every writer's every document is queryable. FullSFA, not MAP: the
    // exact lattice always gives the true string nonzero match mass
    // (other lattices may match too, with noise-level probability —
    // that is the paper's semantics, so membership is asserted, not an
    // exact count).
    let expected: Vec<i64> = history
        .iter()
        .filter(|r| r.file_name.starts_with("w3-b5-"))
        .map(|r| r.data_key)
        .collect();
    assert_eq!(expected.len(), DOCS_PER_BATCH);
    let out = session
        .sql(
            "SELECT DataKey, Prob FROM FullSFAData \
             WHERE Data LIKE '%writer 3 committed batch 5%' LIMIT 100",
        )
        .expect("select");
    for key in &expected {
        assert!(
            out.answers
                .iter()
                .any(|a| a.data_key == *key && a.probability > 0.0),
            "document {key} of writer 3 batch 5 must match its own text"
        );
    }
}

/// The group-commit write path under full contention: eight writers
/// share the WAL flusher while two readers scan. Three contracts at
/// once (the ones DESIGN.md's group-commit section argues):
///
/// * **Receipts are LSN-ordered.** Batch sequence numbers and WAL
///   offsets are both assigned under the writer latch, so sorting every
///   receipt by `batch_seq` must yield strictly increasing `lsn` — and
///   each ack means everything at or below that LSN is durable.
/// * **Reads are all-or-nothing.** A reader may land between batches,
///   never inside one.
/// * **Recovery is exact.** A crash after the last ack replays every
///   batch: the recovered store is byte-identical — keys, probabilities,
///   history rows, timestamps — to the never-crashed session.
#[test]
fn eight_writers_two_readers_group_commit_is_ordered_atomic_and_durable() {
    const WRITERS: u64 = 8;
    const BATCHES_PER_WRITER: u64 = 3;
    const DOCS_PER_BATCH: usize = 2;

    struct TempDir(PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir =
        TempDir(std::env::temp_dir().join(format!("staccato_conc_group_{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("temp dir");
    let db_path = dir.0.join("store.db");
    let wal_dir = dir.0.join("wal");

    let dataset = generate(CorpusKind::CongressActs, 8, 23);
    let opts = LoadOptions {
        channel: ChannelConfig::compact(23),
        kmap_k: 4,
        staccato: StaccatoParams::new(6, 4),
        parallelism: 1,
    };
    let session = Arc::new({
        let db = Database::create(&db_path, 2048).expect("create");
        let s = Staccato::load(db, &dataset, &opts).expect("load");
        s.checkpoint().expect("checkpoint");
        s.attach_wal(&wal_dir, SyncPolicy::Commit).expect("attach");
        s
    });
    let loaded = session.line_count();
    let receipts: Mutex<Vec<(u64, IngestReceipt)>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for r in 0..2 {
            let session = Arc::clone(&session);
            let done = &done;
            scope.spawn(move || {
                let mut observations = 0u64;
                while !done.load(Ordering::Acquire) || observations == 0 {
                    let lines = session.line_count();
                    let history = session
                        .sql("SELECT * FROM StaccatoHistory")
                        .expect("history scan")
                        .history
                        .expect("rows");
                    assert!(
                        history.len() + loaded >= lines,
                        "reader {r}: line_count promises rows history does not show"
                    );
                    let mut per_seq = std::collections::HashMap::new();
                    for row in &history {
                        *per_seq.entry(row.batch_seq).or_insert(0usize) += 1;
                    }
                    for (seq, count) in per_seq {
                        assert_eq!(
                            count, DOCS_PER_BATCH,
                            "reader {r}: batch {seq} is partially visible"
                        );
                    }
                    observations += 1;
                }
            });
        }
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let session = Arc::clone(&session);
                let receipts = &receipts;
                scope.spawn(move || {
                    let mut last_lsn = 0u64;
                    for b in 0..BATCHES_PER_WRITER {
                        let mut batch = IngestBatch::new();
                        for d in 0..DOCS_PER_BATCH {
                            batch = batch.doc(DocumentInput::new(
                                format!("w{w}-b{b}-d{d}.png"),
                                format!("writer {w} group batch {b} document {d}"),
                            ));
                        }
                        let receipt = session.ingest(batch).expect("ingest");
                        assert!(
                            receipt.lsn > last_lsn,
                            "writer {w}: receipts must be monotonically LSN-ordered"
                        );
                        last_lsn = receipt.lsn;
                        receipts.lock().unwrap().push((w, receipt));
                    }
                })
            })
            .collect();
        for handle in writers {
            handle.join().expect("writer");
        }
        done.store(true, Ordering::Release);
    });

    // Global ordering: batch_seq order IS lsn order — both are assigned
    // under the writer latch, and acks only come back durable.
    let mut receipts = receipts.into_inner().unwrap();
    receipts.sort_by_key(|(_, r)| r.batch_seq);
    let total = WRITERS * BATCHES_PER_WRITER;
    assert_eq!(receipts.len() as u64, total);
    for pair in receipts.windows(2) {
        assert!(
            pair[1].1.lsn > pair[0].1.lsn,
            "batch {} (lsn {}) must sit above batch {} (lsn {})",
            pair[1].1.batch_seq,
            pair[1].1.lsn,
            pair[0].1.batch_seq,
            pair[0].1.lsn
        );
    }
    let seqs: Vec<u64> = receipts.iter().map(|(_, r)| r.batch_seq).collect();
    assert_eq!(seqs, (1..=total).collect::<Vec<u64>>(), "dense sequences");
    let stats = session.ingest_stats();
    assert_eq!(stats.batches, total);
    assert!(stats.wal_group_commits > 0, "{stats:?}");

    // Crash after the last ack; the recovered store must be
    // byte-identical to the never-crashed one.
    let observe = |s: &Staccato| {
        let answers = s
            .sql("SELECT DataKey, Prob FROM StaccatoData WHERE Data LIKE '%e%' LIMIT 10000")
            .expect("select")
            .answers;
        let history = s
            .sql("SELECT * FROM StaccatoHistory")
            .expect("history")
            .history
            .expect("rows");
        (s.line_count(), answers, history)
    };
    let expected = observe(&session);
    drop(session);
    let recovered = Staccato::recover_with(
        &db_path,
        &wal_dir,
        &RecoverOptions {
            pool_frames: 2048,
            load: opts,
            sync: SyncPolicy::Commit,
        },
    )
    .expect("recover");
    assert_eq!(recovered.ingest_stats().replays, total);
    assert_eq!(observe(&recovered), expected);
}
