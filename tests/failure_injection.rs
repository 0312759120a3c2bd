//! Failure injection: corrupt pages, truncated blobs, malformed patterns.
//! Every failure must surface as a typed error — never a panic — on the
//! user-facing paths.

use staccato::approx::StaccatoParams;
use staccato::ocr::{generate, ChannelConfig, CorpusKind};
use staccato::query::store::LoadOptions;
use staccato::query::{OcrStore, Query, QueryError, RecoverOptions};
use staccato::server::{HttpClient, Server, ServerConfig};
use staccato::sfa::{codec, Emission, NodeId, Sfa, SfaBuilder};
use staccato::storage::{
    BlobStore, BufferPool, ColumnType, Database, Disk, MemDisk, PageId, Schema, StorageError,
    Value, PAGE_SIZE,
};
use staccato::{
    Approach, DocumentInput, IngestBatch, PlanPreference, QueryRequest, Staccato, SyncPolicy,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tiny_session() -> Staccato {
    tiny_session_with(StaccatoParams::new(4, 3))
}

fn tiny_session_with(staccato: StaccatoParams) -> Staccato {
    let dataset = generate(CorpusKind::DbPapers, 8, 1);
    let db = Database::in_memory(256).expect("db");
    let opts = LoadOptions {
        channel: ChannelConfig::compact(1),
        kmap_k: 3,
        staccato,
        parallelism: 1,
    };
    Staccato::load(db, &dataset, &opts).expect("load")
}

#[test]
fn corrupt_sfa_blob_surfaces_typed_error() {
    let session = tiny_session();
    let store = session.store();
    // Find the first FullSFAData row's blob and stomp its magic bytes.
    let (schema, heap) = store.table("FullSFAData").expect("table");
    let (_, bytes) = heap
        .scan(store.db().pool())
        .next()
        .expect("row")
        .expect("scan");
    let row = staccato::storage::row::decode_row(&schema, &bytes).expect("row");
    let blob_page = row[1].as_blob().expect("blob id");
    {
        let mut page = store.db().pool().fetch_write(blob_page).expect("page");
        // Blob page layout: [next u64][len u32][payload...]; payload starts
        // with the SFA magic.
        page[12..16].copy_from_slice(b"XXXX");
    }
    let request = QueryRequest::keyword("data").num_ans(10);
    let err = session
        .execute(&request.clone().approach(Approach::FullSfa))
        .unwrap_err();
    assert!(matches!(err, QueryError::Sfa(_)), "got {err:?}");
    // Other representations are unaffected.
    session
        .execute(&request.clone().approach(Approach::Map))
        .expect("MAP still works");
    session
        .execute(&request.approach(Approach::Staccato))
        .expect("STACCATO still works");
}

/// A chain `a · b · c` whose middle edge has probability `p_b`, or a
/// diamond `a (b c | d e) f` whose lower branch has probability `p_d`.
fn small_sfa(diamond: bool, p: f64) -> Sfa {
    let mut b = SfaBuilder::new();
    let edge = |b: &mut SfaBuilder, from, to, label: &str, prob| {
        b.add_edge(from, to, vec![Emission::new(label, prob)]);
    };
    if diamond {
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node()).collect();
        edge(&mut b, n[0], n[1], "a", 1.0);
        edge(&mut b, n[1], n[2], "b", 1.0 - p);
        edge(&mut b, n[2], n[4], "c", 1.0);
        edge(&mut b, n[1], n[3], "d", p);
        edge(&mut b, n[3], n[4], "e", 1.0);
        edge(&mut b, n[4], n[5], "f", 1.0);
        b.build(n[0], n[5]).expect("diamond")
    } else {
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node()).collect();
        edge(&mut b, n[0], n[1], "a", 1.0);
        edge(&mut b, n[1], n[2], "b", p);
        edge(&mut b, n[2], n[3], "c", 1.0);
        b.build(n[0], n[3]).expect("chain")
    }
}

fn sfa_doc(name: &str, sfa: &Sfa) -> IngestBatch {
    let mut doc = DocumentInput::new(name, "abc");
    doc.sfa = Some(codec::encode(sfa));
    IngestBatch::new().doc(doc)
}

#[test]
fn sfa_with_a_dead_edge_is_rejected_at_ingest_without_a_panic() {
    // Every emission of one edge has probability 0. In the chain, chunks
    // of at most two edges give the dead edge a region that retains no
    // string, which the approximation cannot collapse. The diamond's live
    // branch shares every region with the dead one, but the rule is per
    // edge: the dead edge emits nothing, so the SFA is refused all the same.
    let session = tiny_session_with(StaccatoParams::new(2, 1));
    for (name, diamond) in [("chain", false), ("diamond", true)] {
        let err = session
            .ingest(sfa_doc(name, &small_sfa(diamond, 0.0)))
            .unwrap_err();
        assert!(matches!(err, QueryError::Ingest(_)), "{name}: got {err:?}");
        assert_eq!(session.line_count(), 8, "{name}: nothing applied");
    }
    // The session takes the next ingest, on the keys handed back.
    for (name, diamond) in [("chain", false), ("diamond", true)] {
        let receipt = session
            .ingest(sfa_doc(name, &small_sfa(diamond, 0.5)))
            .expect("a live SFA ingests");
        assert_eq!(receipt.first_key, 8 + i64::from(diamond), "{name}");
    }
    assert_eq!(session.line_count(), 10);
}

/// `tiny_session` with the §4 index registered over 'data', plus the
/// lines that hold the anchor and one that does not.
fn probed_session() -> (Staccato, Vec<i64>, i64) {
    let session = tiny_session();
    session
        .register_index(&staccato::automata::Trie::build(["data"]), "inv")
        .expect("index");
    let index = session.index("inv").expect("registered");
    let holding: Vec<i64> = staccato::query::invindex::probe_term(session.store(), &index, "data")
        .expect("probe")
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    let without = (0..session.store().line_count() as i64)
        .find(|key| !holding.contains(key))
        .expect("a line without the anchor");
    assert!(!holding.is_empty());
    (session, holding, without)
}

/// Plant a posting for 'data' on line `key` that names an edge no stored
/// graph has — what a stale or corrupt index entry looks like.
fn plant_hostile_posting(session: &Staccato, key: i64) {
    let store = session.store();
    let postings = store.db().index("inv_postings").expect("postings tree");
    let mut k = b"data\0".to_vec();
    k.extend_from_slice(&key.to_be_bytes());
    k.extend_from_slice(&u32::MAX.to_be_bytes());
    // Packed location: edge in the high 32 bits.
    postings
        .insert(store.db().pool(), &k, 1_000_000u64 << 32)
        .expect("insert");
}

#[test]
fn probe_skips_postings_whose_edge_is_not_in_the_graph() {
    let (session, holding, _) = probed_session();
    let request = QueryRequest::keyword("data").num_ans(100);
    let before = session.execute(&request).expect("probe");
    assert!(before.plan.is_index_probe());
    plant_hostile_posting(&session, holding[0]);
    let after = session
        .execute(&request)
        .expect("probe over a stale posting");
    assert_eq!(
        after.stats.postings_probed,
        before.stats.postings_probed + 1
    );
    assert_eq!(after.stats.rows_scanned, before.stats.rows_scanned);
    // The line's usable postings still decide its score.
    assert_eq!(after.answers.len(), before.answers.len());
    for (a, b) in after.answers.iter().zip(&before.answers) {
        assert_eq!(a.data_key, b.data_key);
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
    }
}

#[test]
fn probe_drops_a_line_with_no_usable_posting() {
    let (session, _, without) = probed_session();
    let request = QueryRequest::keyword("data").num_ans(100);
    let before = session.execute(&request).expect("probe");
    plant_hostile_posting(&session, without);
    let after = session
        .execute(&request)
        .expect("probe over a hostile posting");
    // The line is fetched and evaluated — to probability +0.0, which no
    // sink accepts — so the answers are exactly the old ones.
    assert_eq!(after.stats.rows_scanned, before.stats.rows_scanned + 1);
    assert_eq!(
        after.stats.lines_evaluated,
        before.stats.lines_evaluated + 1
    );
    assert!(after.answers.iter().all(|a| a.data_key != without));
    assert_eq!(after.answers.len(), before.answers.len());
}

#[test]
fn corrupt_candidate_blob_fails_the_probe_with_a_typed_error() {
    let (session, holding, _) = probed_session();
    let store = session.store();
    // Stomp the magic of a candidate line's stored chunk graph.
    let (schema, heap) = store.table("StaccatoGraph").expect("table");
    let blob_page = heap
        .scan(store.db().pool())
        .map(|item| item.expect("scan").1)
        .map(|bytes| staccato::storage::row::decode_row(&schema, &bytes).expect("row"))
        .find(|row| row[0].as_int() == Some(holding[0]))
        .expect("candidate row")[1]
        .as_blob()
        .expect("blob id");
    {
        let mut page = store.db().pool().fetch_write(blob_page).expect("page");
        page[12..16].copy_from_slice(b"XXXX");
    }
    let request = QueryRequest::keyword("data").num_ans(100);
    assert!(session.plan(&request).expect("plan").is_index_probe());
    let err = session.execute(&request).unwrap_err();
    assert!(matches!(err, QueryError::Sfa(_)), "got {err:?}");
}

#[test]
fn posting_key_of_the_wrong_length_fails_the_probe_with_a_typed_error() {
    // Under the 'data' prefix: 3 bytes where 12 belong, then 13.
    for tail in [&b"abc"[..], &[7u8; 13][..]] {
        let (session, _, _) = probed_session();
        let store = session.store();
        let mut k = b"data\0".to_vec();
        k.extend_from_slice(tail);
        store
            .db()
            .index("inv_postings")
            .expect("postings tree")
            .insert(store.db().pool(), &k, 0)
            .expect("insert");
        let index = session.index("inv").expect("registered");
        let err = staccato::query::invindex::probe_term(store, &index, "data").unwrap_err();
        assert!(
            matches!(err, QueryError::Storage(StorageError::CorruptPage { .. })),
            "tail of {}: got {err:?}",
            tail.len()
        );
        let err = session
            .execute(&QueryRequest::keyword("data").num_ans(100))
            .unwrap_err();
        assert!(
            matches!(err, QueryError::Storage(StorageError::CorruptPage { .. })),
            "tail of {}: got {err:?}",
            tail.len()
        );
    }
}

#[test]
fn dictionary_term_with_a_nul_does_not_reach_the_probe_of_its_prefix() {
    let session = tiny_session();
    let trie = staccato::automata::Trie::build(["data", "data\0zz"]);
    session.register_index(&trie, "inv").expect("index");
    // A line that emits the NUL-bearing term, indexed at ingest. Were the
    // term kept, its postings would sort under the 'data' prefix and the
    // probe would read "zz" as the start of a line key.
    let mut b = SfaBuilder::new();
    let (s, f) = (b.add_node(), b.add_node());
    b.add_edge(s, f, vec![Emission::new("data\0zz", 1.0)]);
    let key = session
        .ingest(sfa_doc("nul", &b.build(s, f).expect("sfa")))
        .expect("ingest")
        .first_key;
    let request = QueryRequest::keyword("data").num_ans(100);
    let probe = session.execute(&request).expect("probe");
    assert!(probe.plan.is_index_probe());
    let index = session.index("inv").expect("registered");
    assert!(!index
        .contains_term(session.store().db().pool(), "data\0zz")
        .unwrap());
    let scan = session
        .execute(&request.plan_preference(PlanPreference::ForceFileScan))
        .expect("scan");
    let keys = |answers: &[staccato::Answer]| {
        let mut keys: Vec<i64> = answers.iter().map(|a| a.data_key).collect();
        keys.sort_unstable();
        keys
    };
    assert_eq!(keys(&probe.answers), keys(&scan.answers));
    // The line is a candidate through its 'data' posting; `\x` is
    // printable ASCII, so no keyword matches across its NUL.
    let candidates = staccato::query::invindex::probe_term(session.store(), &index, "data");
    assert!(candidates.unwrap().iter().any(|(k, _)| *k == key));
    assert!(!keys(&probe.answers).contains(&key));
}

/// The blob page of the `StaccatoGraph` row keyed `key`.
fn staccato_blob_page(session: &Staccato, key: i64) -> PageId {
    let store = session.store();
    let (schema, heap) = store.table("StaccatoGraph").expect("table");
    heap.scan(store.db().pool())
        .map(|item| item.expect("scan").1)
        .map(|bytes| staccato::storage::row::decode_row(&schema, &bytes).expect("row"))
        .find(|row| row[0].as_int() == Some(key))
        .expect("row")[1]
        .as_blob()
        .expect("blob id")
}

/// A label or a probability dictionary entry, or an emission's label id,
/// made invalid in place.
#[derive(Debug, Clone, Copy)]
enum Defect {
    NanProbability,
    NonUtf8Label,
    OutOfRangeId,
}

/// Break the first emission of edge `edge` of line `key`'s stored chunk
/// graph with `defect`: its label's or its probability's dictionary
/// entry, or the label id in its run. The graph must fit on one blob page.
fn break_emission(session: &Staccato, key: i64, edge: u32, defect: Defect) {
    let (_, blob) = session
        .store()
        .staccato_blobs()
        .unwrap()
        .map(|item| item.unwrap())
        .find(|(k, _)| *k == key)
        .unwrap();
    assert!(blob.len() <= staccato::storage::blob::BLOB_PAYLOAD);
    let mut arena = staccato::sfa::DecodeArena::new();
    codec::decode_into_arena(&blob, &mut arena).unwrap();
    let em = arena.emissions()[arena.edges()[edge as usize].em_start as usize];
    let (at, bytes) = match defect {
        Defect::NanProbability => {
            // The dictionary holds the probability's bits once.
            let bits = em.prob.to_bits().to_le_bytes();
            let at = blob.windows(8).position(|w| w == bits).unwrap();
            (at, f64::NAN.to_le_bytes().to_vec())
        }
        Defect::NonUtf8Label => (em.label_start as usize, vec![0xFF]),
        // The emission's label id, one byte wide in so small a
        // dictionary: 255 names no label it holds.
        Defect::OutOfRangeId => (arena.run_range(edge).start, vec![0xFF]),
    };
    let page = staccato_blob_page(session, key);
    // Blob page layout: [next u64][len u32][payload...].
    let mut page = session.store().db().pool().fetch_write(page).unwrap();
    page[12 + at..12 + at + bytes.len()].copy_from_slice(&bytes);
}

/// A candidate line of `probed_session` none of whose 'data' postings
/// leaves its graph's start node, so the start node's out-edges lie
/// outside every projection the probe runs; returns the line's key, one
/// such edge and one posted edge.
fn unprojected_edge(session: &Staccato) -> (i64, u32, u32) {
    let index = session.index("inv").expect("registered");
    let store = session.store();
    let blobs: std::collections::HashMap<i64, Vec<u8>> = store
        .staccato_blobs()
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let mut arena = staccato::sfa::DecodeArena::new();
    for (key, posts) in staccato::query::invindex::probe_term(store, &index, "data").unwrap() {
        codec::decode_into_arena(&blobs[&key], &mut arena).unwrap();
        let start = arena.start();
        if posts
            .iter()
            .all(|p| arena.edges()[p.edge as usize].from != start)
        {
            return (key, arena.out_edges(start)[0], posts[0].edge);
        }
    }
    panic!("every candidate line is posted at its start node");
}

#[test]
fn defect_outside_the_projection_leaves_the_probe_bit_identical() {
    // Only a run's ids lie outside what the probe reads: the skeleton
    // checks both dictionaries in full.
    for defect in [Defect::OutOfRangeId] {
        let (session, _, _) = probed_session();
        let request = QueryRequest::keyword("data").num_ans(100);
        let before = session.execute(&request).expect("probe");
        let (key, outside, _) = unprojected_edge(&session);
        break_emission(&session, key, outside, defect);
        let after = session.execute(&request).expect("probe past the defect");
        assert!(after.plan.is_index_probe());
        assert!(after.stats.runs_skipped > 0);
        assert_eq!(after.answers.len(), before.answers.len(), "{defect:?}");
        for (a, b) in after.answers.iter().zip(&before.answers) {
            assert_eq!(a.data_key, b.data_key, "{defect:?}");
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "{defect:?}"
            );
        }
        // A filescan decodes the whole row, and fails on it.
        let err = session
            .execute(&request.plan_preference(PlanPreference::ForceFileScan))
            .unwrap_err();
        assert!(matches!(err, QueryError::Sfa(_)), "{defect:?}: got {err:?}");
    }
}

#[test]
fn dictionary_defect_fails_the_probe_wherever_its_emission_lies() {
    for defect in [Defect::NanProbability, Defect::NonUtf8Label] {
        let (session, _, _) = probed_session();
        let (key, outside, _) = unprojected_edge(&session);
        break_emission(&session, key, outside, defect);
        let request = QueryRequest::keyword("data").num_ans(100);
        assert!(session.plan(&request).expect("plan").is_index_probe());
        let err = session.execute(&request).unwrap_err();
        assert!(matches!(err, QueryError::Sfa(_)), "{defect:?}: got {err:?}");
    }
}

#[test]
fn defect_inside_the_projection_fails_the_probe_with_a_typed_error() {
    for defect in [
        Defect::NanProbability,
        Defect::NonUtf8Label,
        Defect::OutOfRangeId,
    ] {
        let (session, _, _) = probed_session();
        let (key, _, posted) = unprojected_edge(&session);
        break_emission(&session, key, posted, defect);
        let request = QueryRequest::keyword("data").num_ans(100);
        assert!(session.plan(&request).expect("plan").is_index_probe());
        let err = session.execute(&request).unwrap_err();
        assert!(matches!(err, QueryError::Sfa(_)), "{defect:?}: got {err:?}");
    }
}

/// The first `StaccatoGraph` row of `session`: its key and blob page.
fn first_staccato_row(session: &Staccato) -> (i64, PageId) {
    let store = session.store();
    let (schema, heap) = store.table("StaccatoGraph").expect("table");
    let (_, bytes) = heap
        .scan(store.db().pool())
        .next()
        .expect("row")
        .expect("scan");
    let row = staccato::storage::row::decode_row(&schema, &bytes).expect("row");
    (row[0].as_int().unwrap(), row[1].as_blob().unwrap())
}

#[test]
fn corrupt_blob_on_an_admitted_staccato_row_fails_the_filescan() {
    let session = tiny_session();
    let (key, blob_page) = first_staccato_row(&session);
    // A piece of the line's own most likely string: its synopsis admits
    // the row, so the scan fetches and decodes the blob.
    let (_, blob) = session
        .store()
        .staccato_blobs()
        .unwrap()
        .map(|item| item.unwrap())
        .find(|(k, _)| *k == key)
        .unwrap();
    let (map, _) = staccato::sfa::map_string(&codec::decode(&blob).unwrap()).unwrap();
    let word: String = map.chars().take(4).collect();
    let request = QueryRequest::keyword(&word)
        .num_ans(100)
        .approach(Approach::Staccato);
    let before = session.execute(&request).expect("intact scan");
    assert!(before.stats.blobs_skipped < before.stats.rows_scanned);
    {
        let mut page = session.store().db().pool().fetch_write(blob_page).unwrap();
        page[12..16].copy_from_slice(b"XXXX");
    }
    let err = session.execute(&request).unwrap_err();
    assert!(matches!(err, QueryError::Sfa(_)), "got {err:?}");
}

#[test]
fn staccato_synopsis_of_the_wrong_length_is_a_typed_error() {
    for len in [0usize, 543, 545] {
        let session = tiny_session();
        let (_, blob_page) = first_staccato_row(&session);
        let store = session.store();
        let (schema, heap) = store.table("StaccatoGraph").expect("table");
        let row = vec![
            Value::Int(1_000),
            Value::Blob(blob_page),
            Value::Bytes(vec![0xFF; len]),
        ];
        heap.insert(
            store.db().pool(),
            &staccato::storage::row::encode_row(&schema, &row).unwrap(),
        )
        .unwrap();
        // Neither admitted nor skipped: a pattern with a literal no line
        // holds and one with no literal at all both fail on the row.
        for request in [
            QueryRequest::keyword("qxjqxj"),
            QueryRequest::regex("(a|b)"),
        ] {
            let err = session
                .execute(&request.approach(Approach::Staccato))
                .unwrap_err();
            assert!(
                matches!(err, QueryError::Storage(StorageError::SchemaMismatch(_))),
                "len {len}: got {err:?}"
            );
        }
        let err = store.for_each_staccato_blob(|_, _| Ok(())).unwrap_err();
        assert!(
            matches!(err, QueryError::Storage(StorageError::SchemaMismatch(_))),
            "len {len}: got {err:?}"
        );
    }
}

#[test]
fn store_without_synopses_is_refused_at_reopen() {
    // A `StaccatoGraph` written before the synopsis column existed.
    let db = Database::in_memory(64).expect("db");
    let old = Schema::new(&[
        ("DataKey", ColumnType::Int),
        ("GraphBlob", ColumnType::Blob),
    ]);
    db.create_table("StaccatoGraph", old).expect("table");
    let err = match OcrStore::reopen(db, &LoadOptions::default()) {
        Err(err) => err,
        Ok(_) => panic!("a store without synopses reopened"),
    };
    assert!(
        matches!(&err, QueryError::Storage(StorageError::SchemaMismatch(why)) if why.contains("StaccatoGraph")),
        "got {err:?}"
    );
}

#[test]
fn truncated_blob_chain_is_detected() {
    let db = Database::in_memory(128).expect("db");
    let data = vec![9u8; 20_000]; // 3 pages
    let id = BlobStore::put(db.pool(), &data).expect("put");
    // Break the chain: point the first page at a bogus page id.
    {
        let mut page = db.pool().fetch_write(id).expect("page");
        page[0..8].copy_from_slice(&9999u64.to_le_bytes());
    }
    let err = BlobStore::get(db.pool(), id).unwrap_err();
    assert!(
        matches!(
            err,
            StorageError::PageOutOfBounds(_) | StorageError::CorruptBlob { .. }
        ),
        "got {err}"
    );
}

#[test]
fn malformed_patterns_do_not_panic() {
    for bad in ["a(b", "*x", "[z-a]", r"\q", "a)b", "héllo"] {
        assert!(Query::regex(bad).is_err(), "{bad:?} should be rejected");
    }
    for bad in ["abc\\", "héllo%"] {
        assert!(Query::like(bad).is_err(), "{bad:?} should be rejected");
    }
}

#[test]
fn decoding_garbage_blobs_never_panics() {
    // Fuzz-ish: random mutations of a valid blob must decode or error,
    // never panic or over-allocate.
    let sfa = staccato::sfa::Sfa::from_string("fuzz me gently");
    let blob = codec::encode(&sfa);
    for i in 0..blob.len() {
        let mut m = blob.clone();
        m[i] ^= 0xA5;
        let _ = codec::decode(&m); // any Result is fine
    }
    // And pure garbage of various lengths.
    for len in [0usize, 1, 3, 4, 16, 64] {
        let garbage = vec![0xA5u8; len];
        assert!(codec::decode(&garbage).is_err());
    }
}

/// Every cut and every single-byte stomp of a FullSFA blob and of its
/// Staccato approximation, through each entry that reads a blob: each
/// returns `Ok` or a typed error, never a panic, and the entries agree on
/// which blobs they accept.
#[test]
fn cut_or_stomped_blobs_are_refused_by_every_entry_without_a_panic() {
    let channel = staccato::ocr::Channel::new(ChannelConfig::default());
    let full = channel.line_to_sfa("Sec. 2", 7);
    let stac = staccato::approx::approximate(&full, StaccatoParams::new(3, 4));
    let mut arena = staccato::sfa::DecodeArena::new();
    for blob in [codec::encode(&full), codec::encode(&stac)] {
        let mut variants: Vec<Vec<u8>> = (0..blob.len()).map(|cut| blob[..cut].to_vec()).collect();
        for pos in 0..blob.len() {
            for stomp in [0x01, 0x80, 0xFF] {
                let mut bad = blob.clone();
                bad[pos] ^= stomp;
                variants.push(bad);
            }
        }
        for bad in &variants {
            let full_entry = codec::decode_into_arena(bad, &mut arena);
            let shallow = codec::decode_skeleton(bad, &mut arena).and_then(|()| {
                (0..arena.edges().len() as u32)
                    .try_for_each(|edge| codec::decode_run(bad, &mut arena, edge))
            });
            assert_eq!(shallow, full_entry);
            assert_eq!(codec::decode(bad).err(), full_entry.clone().err());
            let synopsis = staccato::query::kernel::blob_synopsis(bad);
            assert_eq!(synopsis.err(), full_entry.err());
        }
    }
}

/// `sfa` in the previous blob format, `SFA1`: a little-endian `u32`
/// header, then per edge `from`, `to` and the emission count, and per
/// emission a `u16` label length, the label and an `f64`.
fn sfa1_blob(sfa: &Sfa) -> Vec<u8> {
    let mut out = b"SFA1".to_vec();
    let header = [
        sfa.node_count() as u32,
        sfa.start(),
        sfa.finish(),
        sfa.edge_count() as u32,
    ];
    for v in header {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for (_, e) in sfa.edges() {
        for v in [e.from, e.to, e.emissions.len() as u32] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for em in &e.emissions {
            out.extend_from_slice(&(em.label.len() as u16).to_le_bytes());
            out.extend_from_slice(em.label.as_bytes());
            out.extend_from_slice(&em.prob.to_le_bytes());
        }
    }
    out
}

#[test]
fn sfa1_blob_in_a_store_is_refused_at_its_first_read() {
    let session = tiny_session();
    let store = session.store();
    // A one-edge graph emitting "data base", stored in the previous format
    // under a new key of both blob tables.
    let mut b = SfaBuilder::new();
    let (s, f) = (b.add_node(), b.add_node());
    b.add_edge(s, f, vec![Emission::new("data base", 1.0)]);
    let sfa = b.build(s, f).unwrap();
    let old = BlobStore::put(store.db().pool(), &sfa1_blob(&sfa)).unwrap();
    let synopsis = staccato::query::kernel::blob_synopsis(&codec::encode(&sfa)).unwrap();
    for (table, row) in [
        ("FullSFAData", vec![Value::Int(1_000), Value::Blob(old)]),
        (
            "StaccatoGraph",
            vec![
                Value::Int(1_000),
                Value::Blob(old),
                Value::Bytes(synopsis.to_vec()),
            ],
        ),
    ] {
        let (schema, heap) = store.table(table).expect("table");
        let bytes = staccato::storage::row::encode_row(&schema, &row).unwrap();
        heap.insert(store.db().pool(), &bytes).unwrap();
    }
    let request = QueryRequest::keyword("data").num_ans(100);
    for approach in [Approach::FullSfa, Approach::Staccato] {
        let err = session
            .execute(&request.clone().approach(approach))
            .unwrap_err();
        assert!(
            matches!(err, QueryError::Sfa(staccato::sfa::SfaError::BadMagic)),
            "{approach:?}: got {err:?}"
        );
    }
    session
        .execute(&request.approach(Approach::Map))
        .expect("MAP reads no blob");
}

#[test]
fn paper_table5_schema_fidelity() {
    // The store must create the paper's tables (Table 5 plus the MAPData
    // split) with the right columns, except `StaccatoData`: its chunk rows
    // would copy the `StaccatoGraph` blob, so no such heap is created.
    // `StaccatoGraph` also carries each graph's label synopsis.
    let session = tiny_session();
    let store = session.store();
    let expect: &[(&str, &[&str])] = &[
        ("MasterData", &["DataKey", "DocName", "SFANum"]),
        ("MAPData", &["DataKey", "Data", "LogProb"]),
        ("kMAPData", &["DataKey", "LineNum", "Data", "LogProb"]),
        ("FullSFAData", &["DataKey", "SFABlob"]),
        ("StaccatoGraph", &["DataKey", "GraphBlob", "Synopsis"]),
        ("GroundTruth", &["DataKey", "Data"]),
    ];
    for (table, cols) in expect {
        let (schema, _) = store
            .table(table)
            .unwrap_or_else(|_| panic!("missing {table}"));
        let got: Vec<&str> = schema.cols.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(&got, cols, "columns of {table}");
    }
    assert!(store.table("StaccatoData").is_err());
}

#[test]
fn schema_mismatch_rows_error_cleanly() {
    let db = Database::in_memory(64).expect("db");
    let schema = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Text)]);
    let heap = db.create_table("t", schema.clone()).expect("table");
    // Insert bytes that are too short for the schema.
    heap.insert(db.pool(), &[1, 2, 3])
        .expect("raw insert is allowed");
    let (_, bytes) = heap.scan(db.pool()).next().expect("row").expect("scan");
    assert!(matches!(
        staccato::storage::row::decode_row(&schema, &bytes),
        Err(StorageError::SchemaMismatch(_))
    ));
    // Wrong value type on encode.
    assert!(staccato::storage::row::encode_row(
        &schema,
        &vec![Value::Text("x".into()), Value::Int(1)]
    )
    .is_err());
}

#[test]
fn client_disconnect_mid_response_leaves_the_server_usable() {
    // A client that sends a valid query and vanishes before reading
    // the answer must cost the server exactly one dead socket: the
    // worker writing into it sees the error (or writes into the void),
    // drops the connection, and keeps serving everyone else off the
    // same shared session.
    let session = Arc::new(tiny_session());
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&session), config).expect("server");
    let addr = server.addr();

    for round in 0..3 {
        // Fire a real query and hang up without reading a byte back.
        let mut rude = TcpStream::connect(addr).expect("connect");
        let body = "{\"sql\": \"SELECT DataKey, Prob FROM FullSFAData \
                    WHERE Data REGEXP 'a' LIMIT 1000\"}";
        rude.write_all(
            format!(
                "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
        drop(rude);

        // And one that hangs up mid-request head, for good measure.
        let mut ruder = TcpStream::connect(addr).expect("connect");
        ruder.write_all(b"POST /que").expect("send partial");
        drop(ruder);

        // The server keeps answering on fresh connections.
        let mut client = HttpClient::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let health = client.get("/healthz").expect("healthz survives");
        assert_eq!(health.status, 200, "round {round}: {}", health.body);
        let resp = client
            .post(
                "/query",
                "{\"sql\": \"SELECT DataKey FROM MAPData WHERE Data REGEXP 'a' LIMIT 3\"}",
            )
            .expect("query survives");
        assert_eq!(resp.status, 200, "round {round}: {}", resp.body);
    }

    server.shutdown();
    // The session behind the server is still healthy for embedded use.
    session
        .execute(&QueryRequest::keyword("data").num_ans(5))
        .expect("session usable after disconnect faults");
}

// ---------------------------------------------------------------------
// WAL fault injection: every on-disk corruption a crash can leave must
// recover to a consistent prefix of the committed batches — or surface
// a typed error — never a panic, never a half-applied batch.

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("staccato_walfi_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wal_options(seed: u64) -> LoadOptions {
    LoadOptions {
        channel: ChannelConfig::compact(seed),
        kmap_k: 3,
        staccato: StaccatoParams::new(4, 3),
        parallelism: 1,
    }
}

/// Load 8 lines, checkpoint, attach a WAL, ingest `batches` one-doc
/// batches, and crash (drop without checkpointing).
fn crashable_store(dir: &Path, batches: u64) -> LoadOptions {
    let opts = wal_options(1);
    let dataset = generate(CorpusKind::DbPapers, 8, 1);
    let db = Database::create(dir.join("store.db"), 1024).expect("create");
    let session = Staccato::load(db, &dataset, &opts).expect("load");
    session.checkpoint().expect("checkpoint");
    session
        .attach_wal(&dir.join("wal"), SyncPolicy::Commit)
        .expect("attach");
    for n in 1..=batches {
        session
            .ingest(IngestBatch::new().doc(DocumentInput::new(
                format!("doc-{n}.png"),
                format!("probabilistic lineage query number {n}"),
            )))
            .expect("ingest");
    }
    opts
}

fn recover(dir: &Path, opts: &LoadOptions) -> Staccato {
    Staccato::recover_with(
        &dir.join("store.db"),
        &dir.join("wal"),
        &RecoverOptions {
            pool_frames: 1024,
            load: opts.clone(),
            sync: SyncPolicy::Commit,
        },
    )
    .expect("recover")
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    segments
}

#[test]
fn truncated_wal_tail_recovers_the_whole_record_prefix() {
    let dir = TempDir::new("trunc");
    let opts = crashable_store(dir.path(), 3);
    // Tear deep into the last record — past its payload, into the frame.
    let last = wal_segments(dir.path()).pop().expect("segment");
    let len = std::fs::metadata(&last).expect("meta").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&last)
        .expect("open")
        .set_len(len - 40)
        .expect("truncate");

    let session = recover(dir.path(), &opts);
    assert_eq!(session.line_count(), 10, "batches 1-2 survive, 3 is torn");
    assert_eq!(session.ingest_stats().replays, 2);
    let history = session
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows");
    assert_eq!(history.len(), 2);
    assert!(history.iter().all(|r| r.file_name != "doc-3.png"));
}

#[test]
fn corrupted_crc_cuts_the_log_at_the_bad_record() {
    let dir = TempDir::new("crc");
    let opts = crashable_store(dir.path(), 3);
    // Flip one payload byte in the middle of the segment: the CRC of
    // some record (not the last) stops matching, so recovery must stop
    // there even though whole records follow it.
    let last = wal_segments(dir.path()).pop().expect("segment");
    let mut bytes = std::fs::read(&last).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&last, &bytes).expect("write");

    let session = recover(dir.path(), &opts);
    assert!(
        session.line_count() < 11,
        "the corrupt record and everything after it must be dropped, got {}",
        session.line_count()
    );
    assert!(session.line_count() >= 8, "the checkpoint always survives");
    // The recovered prefix is fully consistent: history and rows agree.
    let history = session
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows");
    assert_eq!(history.len(), session.line_count() - 8);
}

#[test]
fn replay_is_idempotent_over_checkpoints_and_repeated_recovery() {
    let dir = TempDir::new("idem");
    let opts = wal_options(1);
    let dataset = generate(CorpusKind::DbPapers, 8, 1);
    {
        let db = Database::create(dir.path().join("store.db"), 1024).expect("create");
        let session = Staccato::load(db, &dataset, &opts).expect("load");
        session.checkpoint().expect("checkpoint");
        session
            .attach_wal(&dir.path().join("wal"), SyncPolicy::Commit)
            .expect("attach");
        for n in 1..=2u64 {
            session
                .ingest(IngestBatch::new().doc(DocumentInput::new(
                    format!("doc-{n}.png"),
                    format!("checkpointed batch {n}"),
                )))
                .expect("ingest");
        }
        // Checkpoint AFTER the first two batches: their WAL records are
        // now duplicates of durable state and must be skipped on replay.
        session.checkpoint().expect("mid-stream checkpoint");
        session
            .ingest(IngestBatch::new().doc(DocumentInput::new("doc-3.png", "the unflushed batch")))
            .expect("ingest");
        // Crash without another checkpoint.
    }

    let first = recover(dir.path(), &opts);
    assert_eq!(first.line_count(), 11);
    assert_eq!(
        first.ingest_stats().replays,
        1,
        "batches 1-2 are already in the checkpoint; only 3 replays"
    );
    let keys: Vec<i64> = first
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows")
        .iter()
        .map(|r| r.data_key)
        .collect();
    assert_eq!(keys, vec![8, 9, 10], "no duplicated history rows");
    drop(first);

    // Recover a second time from the same files (the first recovery was
    // itself never checkpointed): identical outcome, no double-apply.
    let second = recover(dir.path(), &opts);
    assert_eq!(second.line_count(), 11);
    let keys: Vec<i64> = second
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows")
        .iter()
        .map(|r| r.data_key)
        .collect();
    assert_eq!(keys, vec![8, 9, 10]);
}

/// Group commit's durability contract: `ingest()` returns only once the
/// batch's LSN is covered by a (possibly shared) fsync, so a crash
/// immediately after the last acknowledgment loses nothing — every
/// acknowledged batch replays, whichever flush leader synced it.
#[test]
fn group_commit_crash_replays_every_acknowledged_batch() {
    const WRITERS: u64 = 4;
    const BATCHES_PER_WRITER: u64 = 3;

    let dir = TempDir::new("group_ack");
    let opts = wal_options(1);
    let dataset = generate(CorpusKind::DbPapers, 8, 1);
    {
        let db = Database::create(dir.path().join("store.db"), 1024).expect("create");
        let session = Arc::new(Staccato::load(db, &dataset, &opts).expect("load"));
        session.checkpoint().expect("checkpoint");
        session
            .attach_wal(&dir.path().join("wal"), SyncPolicy::Commit)
            .expect("attach");
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    for b in 0..BATCHES_PER_WRITER {
                        let receipt = session
                            .ingest(IngestBatch::new().doc(DocumentInput::new(
                                format!("w{w}-b{b}.png"),
                                format!("writer {w} durable batch {b}"),
                            )))
                            .expect("ingest");
                        assert!(receipt.lsn > 0, "WAL attached: the ack names an LSN");
                    }
                });
            }
        });
        let stats = session.ingest_stats();
        assert!(stats.wal_group_commits > 0, "{stats:?}");
        assert!(
            stats.wal_fsyncs <= stats.wal_records_appended + 1,
            "group commit never syncs more than once per record: {stats:?}"
        );
        // Crash: every batch was acknowledged, none checkpointed.
    }

    let session = recover(dir.path(), &opts);
    let total = WRITERS * BATCHES_PER_WRITER;
    assert_eq!(session.ingest_stats().replays, total);
    assert_eq!(session.line_count() as u64, 8 + total);
    let history = session
        .sql("SELECT * FROM StaccatoHistory")
        .expect("history")
        .history
        .expect("rows");
    assert_eq!(history.len() as u64, total, "no acknowledged batch is lost");
}

/// A crash that lands between the WAL append and the group fsync leaves
/// an arbitrary tail of the segment missing. Wherever the cut falls —
/// mid-frame, mid-payload, or exactly on a record boundary — recovery
/// must truncate to the whole-record prefix and succeed; a torn tail is
/// a normal crash shape, never `CorruptWal`.
#[test]
fn torn_group_commit_tail_is_truncated_at_every_cut_point() {
    let dir = TempDir::new("cutsweep");
    let opts = crashable_store(dir.path(), 4);

    // Progressively tear the tail: each recovery truncates the torn
    // record on disk, so every iteration is a fresh, deeper crash state.
    let mut survivors = 4u64;
    for cut in [1u64, 7, 23, 64, 150] {
        let last = wal_segments(dir.path()).pop().expect("segment");
        let len = std::fs::metadata(&last).expect("meta").len();
        if len <= cut {
            break;
        }
        std::fs::OpenOptions::new()
            .write(true)
            .open(&last)
            .expect("open")
            .set_len(len - cut)
            .expect("truncate");

        // Tearing must surface as truncation, not corruption.
        let session = recover(dir.path(), &opts);
        let replayed = session.ingest_stats().replays;
        assert!(
            replayed <= survivors,
            "cut {cut}: tearing cannot resurrect batches ({replayed} > {survivors})"
        );
        survivors = replayed;
        // The surviving prefix is exactly batches 1..=replayed, fully
        // consistent between rows and history.
        assert_eq!(session.line_count() as u64, 8 + replayed);
        let history = session
            .sql("SELECT * FROM StaccatoHistory")
            .expect("history")
            .history
            .expect("rows");
        assert_eq!(history.len() as u64, replayed);
        for (i, row) in history.iter().enumerate() {
            assert_eq!(row.file_name, format!("doc-{}.png", i + 1));
        }
    }
    assert!(
        survivors < 4,
        "the sweep must actually have torn records away"
    );
}

#[test]
fn pool_too_small_for_pins_reports_exhaustion() {
    let db = Database::in_memory(2).expect("db");
    let p0 = db.pool().allocate().expect("page");
    let p1 = db.pool().allocate().expect("page");
    let p2 = db.pool().allocate().expect("page");
    let _a = db.pool().fetch_read(p0).expect("pin 0");
    let _b = db.pool().fetch_read(p1).expect("pin 1");
    assert!(matches!(
        db.pool().fetch_read(p2),
        Err(StorageError::PoolExhausted)
    ));
}

/// A [`MemDisk`] whose `fail_on`-th `write_page` returns `EIO` without
/// touching the page; every other operation, and every later write,
/// goes through. The platter is shared so a test can read what really
/// reached the device, past the pool's cache.
struct FailingDisk {
    platter: Arc<Mutex<MemDisk>>,
    writes: u64,
    fail_on: u64,
}

impl FailingDisk {
    /// A device of `pages` zeroed pages, and a handle on its platter.
    fn new(pages: usize, fail_on: u64) -> (FailingDisk, Arc<Mutex<MemDisk>>) {
        let mut disk = MemDisk::new();
        for _ in 0..pages {
            disk.allocate().expect("page");
        }
        let platter = Arc::new(Mutex::new(disk));
        let failing = FailingDisk {
            platter: Arc::clone(&platter),
            writes: 0,
            fail_on,
        };
        (failing, platter)
    }
}

impl Disk for FailingDisk {
    fn read_page(&mut self, pid: PageId, buf: &mut [u8]) -> Result<(), StorageError> {
        self.platter.lock().unwrap().read_page(pid, buf)
    }
    fn write_page(&mut self, pid: PageId, buf: &[u8]) -> Result<(), StorageError> {
        self.writes += 1;
        if self.writes == self.fail_on {
            return Err(std::io::Error::other("injected EIO").into());
        }
        self.platter.lock().unwrap().write_page(pid, buf)
    }
    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.platter.lock().unwrap().allocate()
    }
    fn page_count(&self) -> u64 {
        self.platter.lock().unwrap().page_count()
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.platter.lock().unwrap().sync()
    }
}

/// First byte of page `pid` as the device holds it.
fn on_platter(platter: &Mutex<MemDisk>, pid: PageId) -> u8 {
    let mut buf = vec![0u8; PAGE_SIZE];
    platter
        .lock()
        .unwrap()
        .read_page(pid, &mut buf)
        .expect("page");
    buf[0]
}

#[test]
fn failed_flush_leaves_the_page_dirty_for_the_next_flush() {
    let (disk, platter) = FailingDisk::new(2, 1);
    let pool = BufferPool::new(Box::new(disk), 4);
    pool.fetch_write(0).expect("page")[0] = 0xAB;
    assert!(matches!(pool.flush_all(), Err(StorageError::Io(_))));
    assert_eq!(on_platter(&platter, 0), 0, "the failed write wrote nothing");
    // The page is not touched again: only the flag the failed flush put
    // back can make the healed device receive it.
    pool.flush_all().expect("the device has healed");
    assert_eq!(on_platter(&platter, 0), 0xAB);
}

#[test]
fn failed_eviction_writeback_keeps_the_dirty_page() {
    let (disk, platter) = FailingDisk::new(4, 1);
    let pool = BufferPool::new(Box::new(disk), 2);
    pool.fetch_write(0).expect("page")[0] = 0xCD;
    pool.fetch_read(1).expect("second frame");
    // Page 0 is the LRU victim; its write-back is the injected failure.
    assert!(matches!(pool.fetch_read(2), Err(StorageError::Io(_))));
    assert_eq!(on_platter(&platter, 0), 0, "the failed write wrote nothing");
    assert_eq!(pool.fetch_read(0).expect("still resident")[0], 0xCD);
    pool.flush_all().expect("the device has healed");
    assert_eq!(on_platter(&platter, 0), 0xCD);
}
