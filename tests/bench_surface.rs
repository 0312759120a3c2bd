//! The product surface the repo benchmark is built against.
//!
//! `crates/bench/src/bin/benchmark/` is a package of its own that plain
//! `cargo test` does not build, and its sources are frozen. This file
//! names everything it imports from the product crates — paths, method
//! signatures, cursor item types, struct-literal field sets — so that a
//! change which would break the benchmark fails to compile here first.
//! Nothing runs: the test is the type check.
#![allow(unused_imports, dead_code)]

use staccato::approx::{approximate, StaccatoParams};
use staccato::automata::Trie;
use staccato::ocr::{generate, Channel, ChannelConfig, CorpusKind, Dataset};
use staccato::query::invindex::line_postings;
use staccato::query::sql::parse_statement;
use staccato::query::store::LoadOptions;
use staccato::query::{
    eval_sfa, evaluate_answers, exec::rank_answers, ground_truth, Answer, Approach,
    CheckpointPolicy, DocumentInput, ExecStats, IngestBatch, PlanPreference, Query,
    QueryCacheStats, QueryError, QueryOutput, QueryRequest, RecoverOptions, ScanScratch, SqlValue,
    Staccato,
};
use staccato::server::{HttpClient, HttpResponse, Json, Server, ServerConfig, ServerHandle};
use staccato::sfa::codec::{decode, decode_into_arena, encode};
use staccato::sfa::{k_best_paths, DecodeArena, Sfa};
use staccato::storage::{BufferPool, Database, FileDisk, PoolStats, SyncPolicy, Wal, PAGE_SIZE};

type Row<T> = Option<Result<T, QueryError>>;

fn store_cursors(session: &Staccato) -> Result<(), QueryError> {
    let store = session.store();
    let _: Row<(i64, Sfa)> = store.staccato_cursor()?.next();
    let _: Row<(i64, Vec<u8>)> = store.staccato_blobs()?.next();
    let _: Row<(i64, Vec<u8>)> = store.full_sfa_blobs()?.next();
    let _: Row<(i64, String, f64)> = store.map_cursor()?.next();
    let _: Row<(i64, Vec<(String, f64)>)> = store.kmap_cursor()?.next();
    store.for_each_staccato_blob(|_key: i64, _blob: &[u8]| Ok(()))
}

fn struct_literals(channel: ChannelConfig) -> RecoverOptions {
    RecoverOptions {
        pool_frames: 2,
        load: LoadOptions {
            channel,
            kmap_k: 1,
            staccato: StaccatoParams::new(1, 1),
            parallelism: 1,
        },
        sync: SyncPolicy::Commit,
    }
}

fn requests_and_policies(session: &Staccato, pattern: &str, n: u64) -> Result<bool, QueryError> {
    let request = QueryRequest::regex(pattern)
        .approach(Approach::Staccato)
        .plan_preference(PlanPreference::ForceFileScan)
        .num_ans(100)
        .parallelism(1);
    let _: [CheckpointPolicy; 2] = [
        CheckpointPolicy::default(),
        CheckpointPolicy::every_batches(n),
    ];
    Ok(session.plan(&request)?.is_index_probe())
}

fn reference_and_kernel(query: &Query, blob: &[u8]) -> Result<(f64, f64), staccato::sfa::SfaError> {
    let mut arena = DecodeArena::new();
    decode_into_arena(blob, &mut arena)?;
    let naive = eval_sfa(&query.dfa, &decode(blob)?);
    let kernel = query.kernel.eval_blob(&mut ScanScratch::new(), blob)?;
    Ok((naive, kernel.probability))
}

#[test]
fn the_benchmark_surface_compiles() {}
